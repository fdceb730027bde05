"""Lightweight structural model over the token stream.

Builds, per file:
  * a scope tree (namespaces / classes / functions / plain blocks) from
    brace matching;
  * per-class member declarations (name -> type spelling) so checks can
    resolve `member_.Method()` and `member_->mu_` to a class-qualified name;
  * per-function records: qualified name, body token range, and the
    capability annotations on the signature (MEDEA_REQUIRES / MEDEA_ACQUIRE /
    MEDEA_EXCLUDES arguments).

This is convention-level parsing: it understands the shapes this repository
actually uses (see docs/static_analysis.md) rather than full C++. Template
bodies, lambdas and nested classes are handled as ordinary scopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lexer import COMMENT, IDENT, PREPROC, PUNCT, Token

# Scope kinds.
NAMESPACE = "namespace"
CLASS = "class"
FUNCTION = "function"
BLOCK = "block"

_CLASS_KEYWORDS = {"class", "struct"}
_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "return", "case", "catch",
    "new", "delete", "sizeof", "alignof", "decltype", "throw", "co_return",
    "co_await", "co_yield", "static_assert",
}
_ANNOTATION_MACROS = {
    "MEDEA_REQUIRES", "MEDEA_REQUIRES_SHARED",
    "MEDEA_ACQUIRE", "MEDEA_ACQUIRE_SHARED",
    "MEDEA_RELEASE", "MEDEA_RELEASE_SHARED",
    "MEDEA_EXCLUDES", "MEDEA_TRY_ACQUIRE", "MEDEA_ASSERT_CAPABILITY",
    "MEDEA_GUARDED_BY", "MEDEA_PT_GUARDED_BY",
}


@dataclass
class Scope:
    kind: str
    name: str              # "" for anonymous / plain blocks
    parent: "Scope | None"
    open_index: int        # token index of '{'
    close_index: int = -1  # token index of matching '}'
    children: list["Scope"] = field(default_factory=list)
    # CLASS scopes: member name -> type spelling (e.g. "PlanQueue",
    # "sync::Mutex", "PlacementService*").
    members: dict[str, str] = field(default_factory=dict)
    # FUNCTION scopes only.
    annotations: dict[str, list[str]] = field(default_factory=dict)

    def qualified(self) -> str:
        parts = []
        s: Scope | None = self
        while s is not None:
            if s.kind in (NAMESPACE, CLASS) and s.name:
                parts.append(s.name)
            s = s.parent
        return "::".join(reversed(parts))

    def enclosing_class(self) -> "Scope | None":
        s: Scope | None = self
        while s is not None:
            if s.kind == CLASS:
                return s
            s = s.parent
        return None


@dataclass
class Function:
    name: str              # unqualified, e.g. "Publish"
    qualname: str          # e.g. "medea::EpochClusterState::Publish"
    class_qual: str        # enclosing class qualified name, "" for free fns
    scope: Scope
    sig_start: int         # token index where the signature search began
    # Annotation macro name -> list of raw argument spellings.
    annotations: dict[str, list[str]]


@dataclass
class FileModel:
    path: str
    tokens: list[Token]          # full stream including comments/preproc
    code: list[Token]            # comments/preproc stripped
    code_index: list[int]        # code[i] is tokens[code_index[i]]
    root: Scope
    functions: list[Function]
    # class qualified name (and unqualified alias) -> member map.
    class_members: dict[str, dict[str, str]]


def build(path: str, tokens: list[Token]) -> FileModel:
    code: list[Token] = []
    code_index: list[int] = []
    for i, t in enumerate(tokens):
        if t.kind in (COMMENT, PREPROC):
            continue
        code.append(t)
        code_index.append(i)

    root = Scope(BLOCK, "", None, -1)
    functions: list[Function] = []
    class_members: dict[str, dict[str, str]] = {}

    stack: list[Scope] = [root]
    i = 0
    n = len(code)
    while i < n:
        t = code[i]
        if t.kind == PUNCT and t.value == "{":
            scope = _classify_brace(code, i, stack[-1])
            scope.parent = stack[-1]
            stack[-1].children.append(scope)
            stack.append(scope)
            if scope.kind == FUNCTION:
                fn = _make_function(code, i, scope)
                if fn is not None:
                    functions.append(fn)
            i += 1
            continue
        if t.kind == PUNCT and t.value == "}":
            if len(stack) > 1:
                closed = stack.pop()
                closed.close_index = i
                if closed.kind == CLASS:
                    _harvest_members(code, closed)
                    qual = closed.qualified()
                    if qual:
                        class_members[qual] = closed.members
                        class_members.setdefault(closed.name, closed.members)
            i += 1
            continue
        i += 1
    while len(stack) > 1:  # unbalanced file: close what's open
        stack.pop().close_index = n - 1

    return FileModel(path, tokens, code, code_index, root, functions, class_members)


def _classify_brace(code: list[Token], brace: int, parent: Scope) -> Scope:
    """Decides what the '{' at code[brace] opens, by looking backwards."""
    # Scan back to the previous ';', '{', '}' — the start of the declaration.
    j = brace - 1
    depth = 0
    while j >= 0:
        v = code[j].value if code[j].kind == PUNCT else None
        if v in (")", "]", ">"):
            depth += 1
        elif v in ("(", "[", "<"):
            depth -= 1
        if depth == 0 and v in (";", "{", "}"):
            break
        # 'for (...;...;...)' — the ';' inside parens must not stop us.
        if depth < 0:
            break
        j -= 1
    decl = code[j + 1:brace]

    words = [t.value for t in decl if t.kind == IDENT]
    if "namespace" in words:
        # namespace a::b::c {  — name is everything after the keyword.
        k = words.index("namespace")
        name = "::".join(words[k + 1:]) if len(words) > k + 1 else ""
        return Scope(NAMESPACE, name, parent, brace)

    # class/struct Foo ... {  (but not `enum class`, not a variable decl like
    # `struct Foo x = {...}` — heuristic: last token before '{' is the name,
    # a base-clause, or 'final').
    for k, t in enumerate(decl):
        if t.kind == IDENT and t.value in _CLASS_KEYWORDS:
            if k > 0 and decl[k - 1].kind == IDENT and decl[k - 1].value == "enum":
                return Scope(BLOCK, "", parent, brace)
            name = ""
            for t2 in decl[k + 1:]:
                if t2.kind == IDENT and t2.value not in ("final", "alignas") \
                        and not t2.value.startswith("MEDEA_"):
                    name = t2.value
                    break
                if t2.kind == PUNCT and t2.value in (":", "{"):
                    break
            # `class Foo;` style handled elsewhere; `};` after means definition.
            if name and not _looks_like_variable_decl(decl, k):
                return Scope(CLASS, name, parent, brace)
            return Scope(BLOCK, "", parent, brace)

    # Function body: declaration ends with ')' possibly followed by
    # qualifiers/annotations/ctor-initializers. Look for a '(' ... ')' group
    # with an identifier before it, at top nesting.
    if _find_signature(decl) is not None:
        # Inside a class, 'Type name{...}' member init also ends with ident —
        # the signature finder requires parens so that's excluded.
        return Scope(FUNCTION, _find_signature(decl)[0], parent, brace)

    return Scope(BLOCK, "", parent, brace)


def _looks_like_variable_decl(decl: list[Token], class_kw: int) -> bool:
    # `struct Foo x {` — identifier after the name, before '{' or ':'.
    # MEDEA_* capability annotations between the keyword and the name (e.g.
    # `class MEDEA_CAPABILITY("mutex") Mutex {`) are not declarators.
    idents = [t for t in decl[class_kw + 1:] if t.kind == IDENT
              and t.value not in ("final",) and not t.value.startswith("MEDEA_")]
    return len(idents) >= 2 and not any(
        t.kind == PUNCT and t.value == ":" for t in decl[class_kw + 1:])


def _find_signature(decl: list[Token]) -> tuple[str, int] | None:
    """Finds `name (`: returns (name, index-of-name) of the last call-shaped
    group in the declaration, i.e. a function signature. Skips control
    keywords, lambdas and ctor-initializer calls after ':'."""
    # Cut the declaration at the ctor-initializer ':' (a ':' at paren depth 0
    # that is not '::'), so `Ctor() : field_(x) {` resolves to Ctor.
    depth = 0
    cut = len(decl)
    k = 0
    while k < len(decl):
        t = decl[k]
        if t.kind == PUNCT:
            if t.value in ("(", "[", "<"):
                depth += 1
            elif t.value in (")", "]", ">"):
                depth -= 1
            elif t.value == ":" and depth == 0:
                prev_ok = k > 0 and decl[k - 1].kind == PUNCT and decl[k - 1].value == ")"
                # could also follow annotation macro close — handled by ')' too
                if prev_ok or (k > 0 and decl[k - 1].kind == IDENT):
                    # `public:` / `private:` labels inside a class decl list
                    if k > 0 and decl[k - 1].kind == IDENT and decl[k - 1].value in (
                            "public", "private", "protected"):
                        k += 1
                        continue
                    cut = k
                    break
        k += 1
    decl = decl[:cut]

    name = None
    k = 0
    depth = 0
    while k < len(decl) - 1:
        t, nxt = decl[k], decl[k + 1]
        if t.kind == PUNCT:
            if t.value in ("(", "[",):
                depth += 1
            elif t.value in (")", "]"):
                depth -= 1
        if (depth == 0 and t.kind == IDENT and t.value not in _CONTROL_KEYWORDS
                and t.value not in _CLASS_KEYWORDS
                and not t.value.startswith("MEDEA_")
                and nxt.kind == PUNCT and nxt.value == "("):
            # operator() etc. are rare in this tree; plain names suffice.
            name = (t.value, k)
        k += 1
    if name is None:
        return None
    # Reject control-flow statements like `if (x) {` caught above, and
    # reject macro-call statements (all-caps macros ending in body braces are
    # rare; MEDEA_* handled as annotations).
    return name


def _make_function(code: list[Token], brace: int, scope: Scope) -> Function | None:
    j = brace - 1
    depth = 0
    while j >= 0:
        v = code[j].value if code[j].kind == PUNCT else None
        if v in (")", "]"):
            depth += 1
        elif v in ("(", "["):
            depth -= 1
        if depth == 0 and v in (";", "{", "}"):
            break
        if depth < 0:
            break
        j -= 1
    decl = code[j + 1:brace]
    sig = _find_signature(decl)
    if sig is None:
        return None
    name, _ = sig
    # Qualified declarator: Class::Name(...) defined out of line.
    class_qual = ""
    k = _index_of_name(decl, name)
    if k is not None and k >= 2 and decl[k - 1].kind == PUNCT and decl[k - 1].value == "::":
        parts = []
        m = k - 1
        while m >= 1 and decl[m].kind == PUNCT and decl[m].value == "::" \
                and decl[m - 1].kind == IDENT:
            parts.append(decl[m - 1].value)
            m -= 2
        class_qual = "::".join(reversed(parts))
    else:
        enc = scope.enclosing_class()
        if enc is not None:
            class_qual = enc.qualified()

    annotations = _parse_annotations(decl)
    scope.name = name
    scope.annotations = annotations
    qualname = f"{class_qual}::{name}" if class_qual else name
    return Function(name, qualname, class_qual, scope, j + 1, annotations)


def _index_of_name(decl: list[Token], name: str) -> int | None:
    best = None
    depth = 0
    for k, t in enumerate(decl):
        if t.kind == PUNCT:
            if t.value in ("(", "["):
                depth += 1
            elif t.value in (")", "]"):
                depth -= 1
        if depth == 0 and t.kind == IDENT and t.value == name \
                and k + 1 < len(decl) and decl[k + 1].value == "(":
            best = k
    return best


def _parse_annotations(decl: list[Token]) -> dict[str, list[str]]:
    """MEDEA_REQUIRES(a, b) MEDEA_EXCLUDES(c) ... -> {macro: [args]}."""
    out: dict[str, list[str]] = {}
    k = 0
    while k < len(decl):
        t = decl[k]
        if t.kind == IDENT and t.value in _ANNOTATION_MACROS \
                and k + 1 < len(decl) and decl[k + 1].value == "(":
            args, end = _collect_args(decl, k + 1)
            out.setdefault(t.value, []).extend(args)
            k = end
            continue
        k += 1
    return out


def _collect_args(decl: list[Token], open_paren: int) -> tuple[list[str], int]:
    depth = 0
    args: list[str] = []
    cur: list[str] = []
    k = open_paren
    while k < len(decl):
        t = decl[k]
        if t.kind == PUNCT and t.value == "(":
            depth += 1
            if depth > 1:
                cur.append(t.value)
        elif t.kind == PUNCT and t.value == ")":
            depth -= 1
            if depth == 0:
                if cur:
                    args.append("".join(cur))
                return args, k + 1
            cur.append(t.value)
        elif t.kind == PUNCT and t.value == "," and depth == 1:
            if cur:
                args.append("".join(cur))
            cur = []
        else:
            cur.append(t.value)
        k += 1
    if cur:
        args.append("".join(cur))
    return args, k


def _harvest_members(code: list[Token], cls: Scope) -> None:
    """Collects `Type name_;` / `Type* name_ MEDEA_GUARDED_BY(mu_);` member
    declarations directly inside the class body (not in nested scopes)."""
    i = cls.open_index + 1
    end = cls.close_index if cls.close_index >= 0 else len(code)
    # Token ranges covered by nested child scopes, to skip method bodies.
    nested = [(c.open_index, c.close_index if c.close_index >= 0 else end)
              for c in cls.children]
    stmt_start = i
    depth = 0
    while i < end:
        # Skip nested scopes wholesale.
        skipped = False
        for (o, c) in nested:
            if i == o:
                i = c + 1
                stmt_start = i
                skipped = True
                break
        if skipped:
            continue
        t = code[i]
        if t.kind == PUNCT:
            if t.value in ("(", "[", "<"):
                depth += 1
            elif t.value in (")", "]", ">"):
                depth = max(0, depth - 1)
            elif t.value == ";" and depth == 0:
                _harvest_one(code[stmt_start:i], cls)
                stmt_start = i + 1
            elif t.value == ":" and depth == 0 and i > stmt_start and \
                    code[i - 1].kind == IDENT and \
                    code[i - 1].value in ("public", "private", "protected"):
                stmt_start = i + 1
        i += 1


_MEMBER_SKIP = {"static", "constexpr", "inline", "mutable", "const", "friend",
                "using", "typedef", "virtual", "explicit", "operator", "enum",
                "class", "struct", "template", "return"}


def _harvest_one(stmt: list[Token], cls: Scope) -> None:
    if not stmt:
        return
    words = [t.value for t in stmt if t.kind == IDENT]
    if any(w in ("using", "typedef", "friend", "template", "operator") for w in words):
        return
    # Reject declarations with parens before an '=' (functions, ctors), but
    # allow brace/equals initializers: `uint64_t epoch_ = 0;`.
    eq = next((k for k, t in enumerate(stmt)
               if t.kind == PUNCT and t.value == "="), len(stmt))
    head = stmt[:eq]
    # Strip trailing annotation macro call: `name_ MEDEA_GUARDED_BY(mu_)`.
    k = len(head)
    while k >= 2 and head[k - 1].kind == PUNCT and head[k - 1].value == ")":
        # find matching '('
        depth = 0
        m = k - 1
        while m >= 0:
            if head[m].value == ")":
                depth += 1
            elif head[m].value == "(":
                depth -= 1
                if depth == 0:
                    break
            m -= 1
        if m >= 1 and head[m - 1].kind == IDENT and \
                head[m - 1].value in _ANNOTATION_MACROS:
            head = head[:m - 1]
            k = len(head)
            continue
        return  # parens that aren't an annotation: a method decl, skip
    # Strip default member-initializer braces: `Foo f{...}` (already cut at
    # '=' for the = form). Find the declared name: last identifier.
    while head and head[-1].kind == PUNCT and head[-1].value in ("{", "}", ","):
        head = head[:-1]
    if len(head) < 2:
        return
    name_tok = head[-1]
    if name_tok.kind != IDENT or name_tok.value in _MEMBER_SKIP:
        return
    type_tokens = head[:-1]
    if not type_tokens:
        return
    type_words = [t for t in type_tokens
                  if not (t.kind == IDENT and t.value in _MEMBER_SKIP)]
    if not type_words:
        return
    spelling = _spell(type_words)
    if not spelling or spelling in ("}", "{"):
        return
    cls.members[name_tok.value] = spelling


def _spell(tokens: list[Token]) -> str:
    out = []
    for t in tokens:
        if t.kind == IDENT and out and out[-1] and out[-1][-1].isalnum():
            out.append(" " + t.value)
        else:
            out.append(t.value)
    return "".join(out)

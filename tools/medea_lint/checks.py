"""The Medea-specific checks.

Each check is a function taking the global Context (all parsed files plus
cross-file registries) and returning a list of Diagnostics. Check catalog,
rationale, and the conventions being enforced are documented in
docs/static_analysis.md ("medea-lint").

  raw-sync          raw std::mutex/std::thread/... outside src/common/sync/
  snapshot-mutation mutation (or const_cast escape) on state reached through
                    an EpochClusterState snapshot
  lock-order        acquires-while-holding graph must be acyclic and must
                    not contradict the documented order
  discarded-result  a call returning Result<T>/Status used as a bare
                    statement (complements [[nodiscard]])
  metric-name       metric-name string literals must appear in
                    docs/metric_names.txt
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from diagnostics import Diagnostic
from lexer import IDENT, PUNCT, STRING, Token, string_value
from structure import CLASS, FileModel, Scope

CHECKS = ("raw-sync", "snapshot-mutation", "lock-order",
          "discarded-result", "metric-name")

# ---------------------------------------------------------------------------
# Context shared by all checks.
# ---------------------------------------------------------------------------


@dataclass
class Context:
    repo_root: str
    files: list[FileModel]
    metric_registry_path: str = "docs/metric_names.txt"
    # Filled by prepare():
    metric_exact: set[str] = field(default_factory=set)
    metric_prefixes: list[str] = field(default_factory=list)
    metric_registry_found: bool = False
    cluster_mutators: set[str] = field(default_factory=set)
    result_returning: set[str] = field(default_factory=set)
    ambiguous_names: set[str] = field(default_factory=set)


# The documented lock order (docs/static_analysis.md, "How to annotate new
# code"): an extracted edge that is the *reverse* of one of these is an
# error even when it does not close a full cycle in the scanned set.
DOCUMENTED_ORDER = [
    ("PlacementService::task_mu_", "EpochClusterState::writer_mu_"),
    ("EpochClusterState::writer_mu_", "EpochClusterState::publish_mu_"),
]

# Raw primitives the sync layer wraps. Anything here outside
# src/common/sync/ bypasses the Clang Thread Safety annotations and the
# lock-order extraction, so it is an error (suppressible with reason).
RAW_SYNC_NAMES = {
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex",
    "condition_variable", "condition_variable_any",
    "thread", "jthread",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "call_once", "once_flag",
}
# std::thread::hardware_concurrency() is a pure query — it creates no thread
# and takes no lock, so it is allowed anywhere.
_RAW_SYNC_ALLOWED_MEMBERS = {"hardware_concurrency"}

_METRIC_SINKS = {
    # free helpers + registry accessors + RAII timer + bench accessor
    "Count", "Observe", "SetGauge",
    "CounterNamed", "GaugeNamed", "HistogramNamed",
    "ScopedLatencyTimer", "HistogramSnapshot",
}


def prepare(ctx: Context) -> None:
    _load_metric_registry(ctx)
    _collect_cluster_mutators(ctx)
    _collect_result_returning(ctx)


def run_all(ctx: Context, enabled: set[str]) -> list[Diagnostic]:
    prepare(ctx)
    out: list[Diagnostic] = []
    if "raw-sync" in enabled:
        out += check_raw_sync(ctx)
    if "snapshot-mutation" in enabled:
        out += check_snapshot_mutation(ctx)
    if "lock-order" in enabled:
        out += check_lock_order(ctx)
    if "discarded-result" in enabled:
        out += check_discarded_result(ctx)
    if "metric-name" in enabled:
        out += check_metric_name(ctx)
    return out


# ---------------------------------------------------------------------------
# Check 1: raw-sync
# ---------------------------------------------------------------------------


def check_raw_sync(ctx: Context) -> list[Diagnostic]:
    diags = []
    for fm in ctx.files:
        rel = _rel(ctx, fm.path)
        if rel.replace(os.sep, "/").startswith("src/common/sync/"):
            continue
        code = fm.code
        for i in range(len(code) - 2):
            if not (code[i].kind == IDENT and code[i].value == "std"
                    and code[i + 1].value == "::"
                    and code[i + 2].kind == IDENT
                    and code[i + 2].value in RAW_SYNC_NAMES):
                continue
            # std::thread::hardware_concurrency() and friends are queries.
            if (i + 4 < len(code) and code[i + 3].value == "::"
                    and code[i + 4].kind == IDENT
                    and code[i + 4].value in _RAW_SYNC_ALLOWED_MEMBERS):
                continue
            name = code[i + 2].value
            diags.append(Diagnostic(
                "raw-sync", fm.path, code[i].line, code[i].col,
                f"raw std::{name} outside src/common/sync/ — use the "
                f"annotated wrappers (sync::Mutex/MutexLock/CondVar/Thread) "
                f"so Clang Thread Safety Analysis and medea-lint's lock-order "
                f"extraction can see it"))
    return diags


# ---------------------------------------------------------------------------
# Check 2: snapshot-mutation
# ---------------------------------------------------------------------------


def _collect_cluster_mutators(ctx: Context) -> None:
    """Non-const public methods of ClusterState, parsed from
    src/cluster/cluster_state.h (falls back to a pinned list so fixture-only
    runs still enforce the check)."""
    mutators: set[str] = set()
    header = os.path.join(ctx.repo_root, "src/cluster/cluster_state.h")
    fm = _find_or_parse(ctx, header)
    if fm is not None:
        for cls in _iter_classes(fm.root):
            if cls.name not in ("ClusterState",):
                continue
            mutators |= _nonconst_methods(fm.code, cls)
    if not mutators:
        mutators = {"Allocate", "Release", "SetNodeUp", "AddNode",
                    "RemoveApplication", "Clear"}
    # Never treat obviously-const accessors as mutators even if the header
    # parse misfires.
    mutators -= {"ok", "size", "epoch"}
    ctx.cluster_mutators = mutators


def _nonconst_methods(code: list[Token], cls: Scope) -> set[str]:
    out = set()
    end = cls.close_index if cls.close_index >= 0 else len(code)
    i = cls.open_index + 1
    nested = [(c.open_index, c.close_index if c.close_index >= 0 else end)
              for c in cls.children]
    depth = 0
    while i < end:
        t = code[i]
        if t.kind == IDENT and i + 1 < end and code[i + 1].value == "(" and depth == 0:
            # Find matching ')' then look for trailing 'const'.
            j = _match_paren(code, i + 1)
            if j is not None and j < end:
                is_method = code[j + 1].value in (";", "{", "const", "noexcept", "override") \
                    or (code[j + 1].kind == IDENT and code[j + 1].value.startswith("MEDEA_"))
                inside_nested = any(o < i < c for (o, c) in nested)
                if is_method and not inside_nested:
                    k = j + 1
                    is_const = False
                    while k < end and not (code[k].value in (";", "{")):
                        if code[k].kind == IDENT and code[k].value == "const":
                            is_const = True
                        k += 1
                    prev = code[i - 1]
                    is_ctor_or_op = t.value == cls.name or prev.value in ("~", "operator")
                    if not is_const and not is_ctor_or_op:
                        out.add(t.value)
                    # Skip past the body if any.
                    if k < end and code[k].value == "{":
                        close = _match_brace(code, k)
                        i = close if close is not None else k
        if t.kind == PUNCT:
            if t.value in ("(", "["):
                depth += 1
            elif t.value in (")", "]"):
                depth = max(0, depth - 1)
        i += 1
    # Deleted special members & assignment operators never show as idents.
    return {m for m in out if not m.startswith("operator")}


def check_snapshot_mutation(ctx: Context) -> list[Diagnostic]:
    diags = []
    for fm in ctx.files:
        code = fm.code
        snap_vars = _find_snapshot_vars(code)
        i = 0
        while i < len(code):
            t = code[i]
            # const_cast escapes involving snapshot/cluster state.
            if t.kind == IDENT and t.value == "const_cast" \
                    and i + 1 < len(code) and code[i + 1].value == "<":
                j = _match_angle(code, i + 1)
                type_words = {c.value for c in code[i + 2:(j or i + 2)]
                              if c.kind == IDENT}
                target = _first_chain_ident(code, (j or i) + 1)
                if type_words & {"ClusterSnapshot", "ClusterState"} \
                        or (target in snap_vars):
                    diags.append(Diagnostic(
                        "snapshot-mutation", fm.path, t.line, t.col,
                        "const_cast escape on snapshot-reached cluster state; "
                        "published ClusterSnapshots are immutable by contract "
                        "(COW shards are shared with concurrent readers) — "
                        "mutate through EpochClusterState::Commit instead"))
                i = (j or i) + 1
                continue
            # Mutating member call through a snapshot variable:
            #   snap->state.Allocate(...), (*snap).state.Release(...),
            #   snap_var.state.<Mutator>(...)
            if t.kind == IDENT and t.value in snap_vars:
                d = _chain_mutator(code, i, ctx.cluster_mutators)
                if d is not None:
                    name, tok = d
                    diags.append(Diagnostic(
                        "snapshot-mutation", fm.path, tok.line, tok.col,
                        f"call to mutating ClusterState::{name}() through "
                        f"snapshot '{t.value}' acquired from "
                        f"EpochClusterState::Acquire(); snapshots are frozen "
                        f"— route mutations through the epoch commit path"))
            i += 1
    return diags


def _find_snapshot_vars(code: list[Token]) -> set[str]:
    """Names bound to EpochClusterState::Acquire() results or declared as
    shared_ptr<const ClusterSnapshot>."""
    out: set[str] = set()
    # `<name> = ....Acquire(` / `->Acquire(` within one statement.
    for i in range(len(code) - 1):
        if code[i].kind == IDENT and code[i].value == "Acquire" \
                and code[i + 1].value == "(":
            if i >= 1 and code[i - 1].value not in (".", "->", "::"):
                continue
            j = i - 2
            depth = 0
            name = None
            while j >= 0:
                v = code[j].value
                if v in (";", "{", "}"):
                    break
                if v == "=" and depth == 0:
                    if j >= 1 and code[j - 1].kind == IDENT:
                        name = code[j - 1].value
                    break
                if v in (")", "]"):
                    depth += 1
                elif v in ("(", "["):
                    depth -= 1
                j -= 1
            if name:
                out.add(name)
    # `shared_ptr < const ClusterSnapshot > name`
    for i in range(len(code)):
        if code[i].kind == IDENT and code[i].value == "shared_ptr":
            j = _match_angle(code, i + 1) if i + 1 < len(code) and \
                code[i + 1].value == "<" else None
            if j is None:
                continue
            inner = {c.value for c in code[i + 2:j] if c.kind == IDENT}
            if "ClusterSnapshot" in inner and j + 1 < len(code) \
                    and code[j + 1].kind == IDENT:
                out.add(code[j + 1].value)
    return out


def _chain_mutator(code, i, mutators) -> tuple[str, Token] | None:
    """Walks `var (->|.) field (->|.) Method(` and returns the first mutating
    method called anywhere along the chain."""
    j = i + 1
    while j + 1 < len(code):
        if code[j].kind == PUNCT and code[j].value in (".", "->"):
            nxt = code[j + 1]
            if nxt.kind != IDENT:
                return None
            if j + 2 < len(code) and code[j + 2].value == "(":
                if nxt.value in mutators:
                    return (nxt.value, nxt)
                # A const accessor call: keep walking after its ')'.
                close = _match_paren(code, j + 2)
                if close is None:
                    return None
                j = close + 1
                continue
            j += 2
            continue
        return None
    return None


# ---------------------------------------------------------------------------
# Check 3: lock-order
# ---------------------------------------------------------------------------


@dataclass
class _Edge:
    src: str
    dst: str
    file: str
    line: int


def check_lock_order(ctx: Context) -> list[Diagnostic]:
    # Per-function: direct acquisitions + call sites with held sets.
    summaries: dict[str, set[str]] = {}       # "Class::Fn" / "Fn" -> acquires
    calls: dict[str, list[tuple[str, frozenset, str, int]]] = {}
    edges: list[_Edge] = []

    # The wrapper layer itself (Mutex/MutexLock/CondVar) manipulates the
    # underlying primitive; its internals are the locking *mechanism*, not
    # ordering edges.
    wrapper_classes = {"Mutex", "MutexLock", "CondVar"}
    # Class members from every scanned file: a member function defined in a
    # .cc resolves the members its class declares in a header.
    all_members: dict[str, dict[str, str]] = {}
    for fm in ctx.files:
        for qual, members in fm.class_members.items():
            all_members.setdefault(qual, members)
    for fm in ctx.files:
        for fn in fm.functions:
            if fn.class_qual.split("::")[-1] in wrapper_classes:
                continue
            key = _fn_key(fn.class_qual, fn.name)
            acq, sites = _scan_function(fm, fn, edges, all_members)
            summaries.setdefault(key, set()).update(acq)
            calls.setdefault(key, []).extend(sites)

    # Fixpoint: propagate may-acquire through resolvable calls.
    changed = True
    rounds = 0
    while changed and rounds < 20:
        changed = False
        rounds += 1
        for key, sites in calls.items():
            for (callee, _held, _f, _l) in sites:
                add = summaries.get(callee)
                if add and not add <= summaries[key]:
                    summaries[key] |= add
                    changed = True

    # Edges from call sites: held -> everything the callee may acquire.
    for key, sites in calls.items():
        for (callee, held, f, line) in sites:
            for m in sorted(summaries.get(callee, ())):
                for h in sorted(held):
                    edges.append(_Edge(h, m, f, line))

    diags: list[Diagnostic] = []
    # Self-deadlock: sync::Mutex is non-reentrant.
    seen_self = set()
    for e in edges:
        if e.src == e.dst and (e.file, e.line, e.src) not in seen_self:
            seen_self.add((e.file, e.line, e.src))
            diags.append(Diagnostic(
                "lock-order", e.file, e.line, 1,
                f"acquires '{e.dst}' while already holding it "
                f"(sync::Mutex is non-reentrant: self-deadlock)"))
    graph: dict[str, dict[str, _Edge]] = {}
    for e in edges:
        if e.src != e.dst:
            graph.setdefault(e.src, {}).setdefault(e.dst, e)

    # Documented-order contradictions.
    for (first, second) in DOCUMENTED_ORDER:
        rev = graph.get(second, {}).get(first)
        if rev is not None:
            diags.append(Diagnostic(
                "lock-order", rev.file, rev.line, 1,
                f"acquires '{first}' while holding '{second}', contradicting "
                f"the documented lock order {first} → {second} "
                f"(docs/static_analysis.md)"))

    # Cycles (documented-order contradictions may or may not close one).
    for cycle in _find_cycles(graph):
        parts = []
        for (a, b) in zip(cycle, cycle[1:] + cycle[:1]):
            e = graph[a][b]
            parts.append(f"{a} → {b} ({_basename(e.file)}:{e.line})")
        first_e = graph[cycle[0]][cycle[1] if len(cycle) > 1 else cycle[0]]
        diags.append(Diagnostic(
            "lock-order", first_e.file, first_e.line, 1,
            "lock-order cycle (potential deadlock): " + ", ".join(parts)))
    return diags


def _fn_key(class_qual: str, name: str) -> str:
    cls = class_qual.split("::")[-1] if class_qual else ""
    return f"{cls}::{name}" if cls else name


def _scan_function(fm: FileModel, fn, edges: list[_Edge],
                   all_members: dict[str, dict[str, str]]):
    """Walks one function body tracking the held-mutex set per brace scope.
    Appends direct acquisition edges to `edges`; returns (direct_acquires,
    call_sites). Class members resolve from the function's own file first,
    then from `all_members` (every scanned file)."""
    code = fm.code
    cls = fn.scope.enclosing_class()
    short = fn.class_qual.split("::")[-1]
    members = dict(fm.class_members.get(fn.class_qual)
                   or fm.class_members.get(short)
                   or (cls.members if cls is not None else {})
                   or (all_members.get(fn.class_qual) if fn.class_qual else None)
                   or (all_members.get(short) if short else None)
                   or {})
    resolvable = dict(members)
    resolvable.update(_param_types(code, fn))

    def canon(expr_tokens: list[Token]) -> str | None:
        toks = [t.value for t in expr_tokens if t.value != "&"]
        if not toks:
            return None
        if len(toks) == 1:
            name = toks[0]
            owner = fn.class_qual.split("::")[-1] if fn.class_qual else ""
            if owner and (name in members or name.endswith("_")):
                return f"{owner}::{name}"
            return name
        # member_.mu_ / member_->mu_ / Type::mu_
        if toks[-2] in (".", "->") and len(toks) >= 3:
            base = toks[-3]
            base_type = resolvable.get(base, "")
            type_name = _last_type_ident(base_type) or base
            return f"{type_name}::{toks[-1]}"
        if toks[-2] == "::":
            return f"{toks[-3]}::{toks[-1]}" if len(toks) >= 3 else toks[-1]
        return "::".join(t for t in toks if t not in (".", "->"))

    start = fn.scope.open_index
    end = fn.scope.close_index if fn.scope.close_index >= 0 else len(code) - 1

    held0 = set()
    for macro in ("MEDEA_REQUIRES", "MEDEA_REQUIRES_SHARED", "MEDEA_ACQUIRE",
                  "MEDEA_ASSERT_CAPABILITY"):
        for arg in fn.annotations.get(macro, []):
            c = canon(_pseudo_tokens(arg))
            if c:
                held0.add(c)

    direct: set[str] = set()
    sites: list[tuple[str, frozenset, str, int]] = []
    # Stack of (brace_depth, lock_name) for RAII locks; manual Lock() entries
    # use depth -1 (released only by Unlock()).
    held: list[tuple[int, str]] = [(-2, h) for h in held0]
    depth = 0
    i = start + 1
    while i < end:
        t = code[i]
        if t.kind == PUNCT:
            if t.value == "{":
                depth += 1
            elif t.value == "}":
                held = [(d, m) for (d, m) in held if d < depth or d < 0]
                depth -= 1
            i += 1
            continue
        if t.kind != IDENT:
            i += 1
            continue
        # RAII acquisition: [sync::] MutexLock name(&expr);
        if t.value == "MutexLock":
            j = i + 1
            if j < end and code[j].kind == IDENT:
                j += 1
            if j < end and code[j].value == "(":
                close = _match_paren(code, j)
                m = canon(code[j + 1:close]) if close else None
                if m:
                    _acquire(m, held, depth, t, fm, edges, direct)
                i = (close or j) + 1
                continue
        # Manual acquisition / release: expr.Lock() / expr->Lock() / Unlock().
        if t.value in ("Lock", "Unlock") and i + 1 < end \
                and code[i + 1].value == "(" and i >= 2 \
                and code[i - 1].value in (".", "->"):
            expr_start = _chain_start(code, i - 2)
            m = canon(code[expr_start:i - 1])
            if m:
                if t.value == "Lock":
                    _acquire(m, held, -1, t, fm, edges, direct)
                else:
                    held = [(d, x) for (d, x) in held if x != m or d >= 0]
            i += 2
            continue
        # Call site: [recv . ] Name ( ...
        if i + 1 < end and code[i + 1].value == "(" \
                and t.value not in ("if", "for", "while", "switch", "return",
                                    "sizeof", "MEDEA_CHECK"):
            callee = None
            if code[i - 1].value in (".", "->") and code[i - 2].kind == IDENT:
                recv_type = resolvable.get(code[i - 2].value)
                if recv_type is not None:
                    type_name = _last_type_ident(recv_type)
                    if type_name:
                        callee = f"{type_name}::{t.value}"
            elif code[i - 1].value == "::" and code[i - 2].kind == IDENT:
                callee = f"{code[i - 2].value}::{t.value}"
            elif code[i - 1].value not in (".", "->"):
                if fn.class_qual:
                    callee = _fn_key(fn.class_qual, t.value)
                else:
                    callee = t.value
            if callee is not None:
                cur = frozenset(m for (_d, m) in held)
                if cur:
                    sites.append((callee, cur, fm.path, t.line))
        i += 1
    return direct, sites


def _param_types(code: list[Token], fn) -> dict[str, str]:
    """Parameter name -> type spelling, from the signature paren group, so
    `MutexLock lock(&shared->mu)` resolves `shared` to its declared type."""
    decl = code[fn.sig_start:fn.scope.open_index]
    # Find the signature '(': the one right after the function name.
    open_i = None
    for k in range(len(decl) - 1):
        if decl[k].kind == IDENT and decl[k].value == fn.name \
                and decl[k + 1].value == "(":
            open_i = k + 1
    if open_i is None:
        return {}
    depth = 0
    params: dict[str, str] = {}
    cur: list[Token] = []

    def flush():
        toks = [t for t in cur if not (t.kind == IDENT and t.value in (
            "const", "volatile", "struct", "class", "typename"))]
        # Drop a default-value tail `= ...`.
        for k, t in enumerate(toks):
            if t.kind == PUNCT and t.value == "=":
                toks = toks[:k]
                break
        if len(toks) >= 2 and toks[-1].kind == IDENT:
            type_part = "".join(t.value for t in toks[:-1])
            params[toks[-1].value] = type_part

    for k in range(open_i, len(decl)):
        t = decl[k]
        if t.kind == PUNCT and t.value == "(":
            depth += 1
            if depth > 1:
                cur.append(t)
            continue
        if t.kind == PUNCT and t.value == ")":
            depth -= 1
            if depth == 0:
                flush()
                break
            cur.append(t)
            continue
        if t.kind == PUNCT and t.value == "," and depth == 1:
            flush()
            cur = []
            continue
        if depth >= 1:
            cur.append(t)
    return params


def _acquire(m: str, held, depth, tok, fm, edges, direct):
    for (_d, h) in held:
        edges.append(_Edge(h, m, fm.path, tok.line))
    held.append((depth, m))
    direct.add(m)


def _find_cycles(graph: dict[str, dict[str, _Edge]]) -> list[list[str]]:
    """Returns each elementary cycle found by DFS, deduplicated by node set."""
    cycles: list[list[str]] = []
    seen_sets: set[frozenset] = set()
    nodes = sorted(graph)
    for root in nodes:
        stack = [(root, [root])]
        visited_local: set[str] = set()
        while stack:
            node, path = stack.pop()
            for nxt in sorted(graph.get(node, {})):
                if nxt == root and len(path) >= 1:
                    key = frozenset(path)
                    if key not in seen_sets:
                        seen_sets.add(key)
                        cycles.append(path[:])
                elif nxt not in path and nxt not in visited_local \
                        and len(path) < 12:
                    visited_local.add(nxt)
                    stack.append((nxt, path + [nxt]))
    # Keep one report per node-set; prefer the lexicographically smallest
    # rotation for determinism.
    out = []
    for c in cycles:
        k = min(range(len(c)), key=lambda i: c[i])
        out.append(c[k:] + c[:k])
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Check 4: discarded-result
# ---------------------------------------------------------------------------


def _collect_result_returning(ctx: Context) -> None:
    returning: set[str] = set()
    other: set[str] = set()
    for fm in ctx.files:
        code = fm.code
        for i, t in enumerate(code):
            if t.kind != IDENT or i + 1 >= len(code) or code[i + 1].value != "(":
                continue
            # Look backwards for the return type immediately before the name.
            j = i - 1
            if j >= 0 and code[j].value == "::":
                continue  # qualified call/definition — type is further left
            if j >= 0 and code[j].kind == IDENT and code[j].value == "Status" \
                    and t.value[0].isupper():
                if _is_decl_position(code, j):
                    returning.add(t.value)
                continue
            if j >= 0 and code[j].value == ">":
                open_i = _match_angle_back(code, j)
                if open_i is not None and open_i >= 1 \
                        and code[open_i - 1].kind == IDENT \
                        and code[open_i - 1].value == "Result" \
                        and _is_decl_position(code, open_i - 1):
                    returning.add(t.value)
                continue
    # Ambiguity guard: a same-named definition whose return type is NOT
    # Result/Status makes unqualified matching unsafe -> skip those names.
    for fm in ctx.files:
        for fn in fm.functions:
            if fn.name in returning:
                rt = _return_type_words(fm.code, fn)
                if rt and "Result" not in rt and "Status" not in rt:
                    other.add(fn.name)
    ctx.result_returning = returning
    ctx.ambiguous_names = other


def _return_type_words(code: list[Token], fn) -> set[str]:
    """Identifier words of the declared return type: the declaration tokens
    (fn.sig_start .. body brace) up to the function name."""
    decl = code[fn.sig_start:fn.scope.open_index]
    name_idx = None
    depth = 0
    for k, t in enumerate(decl):
        if t.kind == PUNCT:
            if t.value in ("(", "["):
                depth += 1
            elif t.value in (")", "]"):
                depth -= 1
        if depth == 0 and t.kind == IDENT and t.value == fn.name \
                and k + 1 < len(decl) and decl[k + 1].value == "(":
            name_idx = k
            break
    if name_idx is None:
        return set()
    return {t.value for t in decl[:name_idx] if t.kind == IDENT}


def _is_decl_position(code: list[Token], type_index: int) -> bool:
    """True if the Result/Status token at type_index begins a declaration
    (preceded by a statement boundary or declaration specifiers), rather
    than being a function call `Status(...)` or member access."""
    j = type_index - 1
    skip = {"inline", "static", "constexpr", "virtual", "explicit", "friend",
            "const", "medea", "typename"}
    while j >= 0:
        t = code[j]
        if t.kind == IDENT and t.value in skip:
            j -= 1
            continue
        if t.kind == PUNCT and t.value == "::" and j >= 1:
            j -= 2
            continue
        break
    if j < 0:
        return True
    v = code[j].value
    return v in (";", "{", "}", ":", ",", "(", "<", ">") or \
        (code[j].kind == IDENT and code[j].value in ("public", "private",
                                                     "protected", "return"))


def check_discarded_result(ctx: Context) -> list[Diagnostic]:
    diags = []
    names = ctx.result_returning - ctx.ambiguous_names
    for fm in ctx.files:
        code = fm.code
        for i, t in enumerate(code):
            if t.kind != IDENT or t.value not in names:
                continue
            if i + 1 >= len(code) or code[i + 1].value != "(":
                continue
            head = _chain_start(code, i)
            prev = code[head - 1].value if head >= 1 else ";"
            if prev not in (";", "{", "}"):
                continue
            close = _match_paren(code, i + 1)
            if close is None or close + 1 >= len(code):
                continue
            if code[close + 1].value != ";":
                continue
            # Skip declarations: `Status Foo(...);` — the chain head would be
            # the return type, not the call.
            if head < i and code[head].kind == IDENT \
                    and code[head].value in ("Status", "Result"):
                continue
            # Skip definitions/declarations where this IS the declared name:
            # previous token at head-1 being an IDENT means `Type Name(...)`.
            if head == i and i >= 1 and (code[i - 1].kind == IDENT
                                         or code[i - 1].value == ">"):
                continue
            diags.append(Diagnostic(
                "discarded-result", fm.path, t.line, t.col,
                f"result of '{t.value}()' (returns Result<T>/Status) is "
                f"discarded; check .ok()/propagate it, or cast to void with "
                f"a comment if the failure is genuinely irrelevant"))
    return diags


# ---------------------------------------------------------------------------
# Check 5: metric-name
# ---------------------------------------------------------------------------


def _load_metric_registry(ctx: Context) -> None:
    path = os.path.join(ctx.repo_root, ctx.metric_registry_path)
    ctx.metric_exact = set()
    ctx.metric_prefixes = []
    if not os.path.exists(path):
        ctx.metric_registry_found = False
        return
    ctx.metric_registry_found = True
    with open(path, encoding="utf-8") as f:
        for line in f:
            entry = line.split("#", 1)[0].strip()
            if not entry:
                continue
            if entry.endswith("*"):
                ctx.metric_prefixes.append(entry[:-1])
            else:
                ctx.metric_exact.add(entry)


def _registered(ctx: Context, name: str) -> bool:
    if name in ctx.metric_exact:
        return True
    return any(name.startswith(p) for p in ctx.metric_prefixes)


def _prefix_registered(ctx: Context, prefix: str) -> bool:
    # A dynamic name `"p." + x` is fine if a wildcard entry covers the
    # prefix: either `p.*` itself, or a broader wildcard `q*` with p
    # starting with q.
    return any(prefix.startswith(p) or p == prefix
               for p in ctx.metric_prefixes)


def check_metric_name(ctx: Context) -> list[Diagnostic]:
    diags = []
    for fm in ctx.files:
        code = fm.code
        for i, t in enumerate(code):
            if t.kind != IDENT or t.value not in _METRIC_SINKS:
                continue
            j = i + 1
            # `obs::ScopedLatencyTimer timer("...")` — skip the variable name.
            if t.value == "ScopedLatencyTimer" and j < len(code) \
                    and code[j].kind == IDENT:
                j += 1
            if j >= len(code) or code[j].value != "(":
                continue
            # Must look like a call/constructor, not a definition: the
            # definition sites live in src/obs which declares these names.
            k = j + 1
            if k >= len(code) or code[k].kind != STRING:
                continue  # dynamic name or not a string first arg
            name_parts = [string_value(code[k].value)]
            k += 1
            while k < len(code) and code[k].kind == STRING:
                name_parts.append(string_value(code[k].value))
                k += 1
            name = "".join(name_parts)
            nxt = code[k].value if k < len(code) else ")"
            if not ctx.metric_registry_found:
                diags.append(Diagnostic(
                    "metric-name", fm.path, code[j + 1].line, code[j + 1].col,
                    f"metric name \"{name}\" cannot be validated: registry "
                    f"file {ctx.metric_registry_path} not found"))
                continue
            if nxt == "+":
                if not _prefix_registered(ctx, name):
                    diags.append(Diagnostic(
                        "metric-name", fm.path, code[j + 1].line,
                        code[j + 1].col,
                        f"dynamic metric name with prefix \"{name}\" has no "
                        f"wildcard entry (\"{name}*\") in "
                        f"{ctx.metric_registry_path}; register the prefix so "
                        f"dashboards and benches can rely on it"))
            elif not _registered(ctx, name):
                diags.append(Diagnostic(
                    "metric-name", fm.path, code[j + 1].line, code[j + 1].col,
                    f"metric name \"{name}\" is not in "
                    f"{ctx.metric_registry_path}; add it (or fix the typo) — "
                    f"unregistered names silently drift from the dashboards "
                    f"and bench readers"))
    return diags


# ---------------------------------------------------------------------------
# Shared token utilities
# ---------------------------------------------------------------------------


def _match_paren(code, open_i):
    depth = 0
    for k in range(open_i, len(code)):
        v = code[k].value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return k
    return None


def _match_brace(code, open_i):
    depth = 0
    for k in range(open_i, len(code)):
        v = code[k].value
        if v == "{":
            depth += 1
        elif v == "}":
            depth -= 1
            if depth == 0:
                return k
    return None


def _match_angle(code, open_i):
    if open_i >= len(code) or code[open_i].value != "<":
        return None
    depth = 0
    for k in range(open_i, min(open_i + 200, len(code))):
        v = code[k].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return k
        elif v in (";", "{", "}"):
            return None
    return None


def _match_angle_back(code, close_i):
    depth = 0
    for k in range(close_i, max(close_i - 200, -1), -1):
        v = code[k].value
        if v == ">":
            depth += 1
        elif v == "<":
            depth -= 1
            if depth == 0:
                return k
        elif v in (";", "{", "}"):
            return None
    return None


def _chain_start(code, i):
    """Given the index of the last identifier of a chain `a.b->c`, walks back
    to the index of `a`."""
    k = i
    while k >= 2 and code[k - 1].kind == PUNCT \
            and code[k - 1].value in (".", "->", "::") \
            and code[k - 2].kind == IDENT:
        # Stop if the previous link is a call: `f().g` — keep walking past
        # the parens.
        k -= 2
    # Walk back over a closing paren chain: `f(x).g(` — treat start at f.
    while k >= 1 and code[k - 1].value == ")":
        open_i = None
        depth = 0
        m = k - 1
        while m >= 0:
            if code[m].value == ")":
                depth += 1
            elif code[m].value == "(":
                depth -= 1
                if depth == 0:
                    open_i = m
                    break
            m -= 1
        if open_i is None or open_i < 1 or code[open_i - 1].kind != IDENT:
            break
        k = open_i - 1
        while k >= 2 and code[k - 1].kind == PUNCT \
                and code[k - 1].value in (".", "->", "::") \
                and code[k - 2].kind == IDENT:
            k -= 2
    return k


def _first_chain_ident(code, i):
    while i < len(code) and code[i].kind == PUNCT and code[i].value == "(":
        i += 1
    if i < len(code) and code[i].kind == IDENT:
        return code[i].value
    return None


def _last_type_ident(type_spelling: str) -> str | None:
    import re as _re
    idents = _re.findall(r"[A-Za-z_][A-Za-z0-9_]*", type_spelling)
    idents = [w for w in idents if w not in ("const", "std", "sync", "medea",
                                             "runtime", "unique_ptr",
                                             "shared_ptr")]
    return idents[-1] if idents else None


def _pseudo_tokens(arg_spelling: str) -> list[Token]:
    from lexer import tokenize
    return [t for t in tokenize(arg_spelling)]


def _iter_classes(scope: Scope):
    for c in scope.children:
        if c.kind == CLASS:
            yield c
        yield from _iter_classes(c)


def _find_or_parse(ctx: Context, path: str) -> FileModel | None:
    norm = os.path.normpath(path)
    for fm in ctx.files:
        if os.path.normpath(fm.path) == norm:
            return fm
    if os.path.exists(norm):
        from lexer import tokenize
        import structure
        with open(norm, encoding="utf-8", errors="replace") as f:
            return structure.build(norm, tokenize(f.read()))
    return None


def _rel(ctx: Context, path: str) -> str:
    # FileModel paths are normally already repo-relative; only absolute
    # paths need rebasing (relpath on a relative path would resolve it
    # against the CWD, which under ctest is the build tree).
    if not os.path.isabs(path):
        return path
    try:
        return os.path.relpath(path, ctx.repo_root)
    except ValueError:
        return path


def _basename(p: str) -> str:
    return os.path.basename(p)

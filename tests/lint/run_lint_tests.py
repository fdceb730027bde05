#!/usr/bin/env python3
"""Fixture tests for medea-lint (tools/medea_lint).

Each fixture under tests/lint/fixtures/ — a .cc file, or a directory linted
as one unit (a header plus the .cc that uses it) — is linted on its own and
the outcome is compared against the expectation table below: which checks
must fire (with minimum counts), which must stay silent, the exit code, and
— for the suppression fixtures — the suppressed count. Every check has a violating
fixture and a clean sibling, so a check that stops firing (or starts
over-firing) fails this suite, not just CI's full-tree run.

Run directly:  python3 tests/lint/run_lint_tests.py
Via ctest:     ctest -R lint_fixtures
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "medea_lint")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture -> (exit code, {check: min count}, min suppressed).
# Checks not listed must not fire at all.
EXPECT = {
    "raw_sync_bad.cc": (1, {"raw-sync": 5}, 0),
    "raw_sync_good.cc": (0, {}, 0),
    "snapshot_mutation_bad.cc": (1, {"snapshot-mutation": 3}, 0),
    "snapshot_mutation_good.cc": (0, {}, 0),
    "lock_order_bad.cc": (1, {"lock-order": 3}, 0),
    "lock_order_good.cc": (0, {}, 0),
    "lock_order_header_bad": (1, {"lock-order": 1}, 0),
    "lock_order_header_good": (0, {}, 0),
    "discarded_result_bad.cc": (1, {"discarded-result": 2}, 0),
    "discarded_result_good.cc": (0, {}, 0),
    "metric_name_bad.cc": (1, {"metric-name": 4}, 0),
    "metric_name_good.cc": (0, {}, 0),
    "suppression_good.cc": (0, {}, 3),
    "suppression_bad.cc": (1, {"bad-suppression": 3, "raw-sync": 1}, 0),
}


def run_lint(fixture: str) -> tuple[int, dict]:
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json",
                                     delete=False) as tf:
        json_path = tf.name
    try:
        proc = subprocess.run(
            [sys.executable, LINT, os.path.join(FIXTURES, fixture),
             "--json", json_path],
            capture_output=True, text=True, cwd=REPO, timeout=120)
        with open(json_path, encoding="utf-8") as f:
            report = json.load(f)
    finally:
        os.unlink(json_path)
    return proc.returncode, report


def main() -> int:
    present = sorted(f for f in os.listdir(FIXTURES)
                     if f.endswith(".cc")
                     or os.path.isdir(os.path.join(FIXTURES, f)))
    failures: list[str] = []
    if set(present) != set(EXPECT):
        failures.append(
            f"fixture set mismatch: on disk {present} vs expected "
            f"{sorted(EXPECT)}")

    for fixture, (want_exit, want_counts, want_suppressed) in sorted(
            EXPECT.items()):
        if fixture not in present:
            continue
        rc, report = run_lint(fixture)
        counts = report.get("counts_by_check", {})
        suppressed = report.get("suppressed", 0)
        label = f"[{fixture}]"
        if rc != want_exit:
            failures.append(f"{label} exit {rc}, want {want_exit}")
        for check, n in want_counts.items():
            if counts.get(check, 0) < n:
                failures.append(
                    f"{label} check '{check}' fired {counts.get(check, 0)}x, "
                    f"want >= {n}")
        for check, n in counts.items():
            if check not in want_counts and n:
                failures.append(
                    f"{label} unexpected check '{check}' fired {n}x")
        if suppressed < want_suppressed:
            failures.append(
                f"{label} suppressed {suppressed}, want >= {want_suppressed}")
        status = "FAIL" if any(f.startswith(label) for f in failures) else "ok"
        print(f"{status:4s} {fixture}: exit={rc} counts={counts} "
              f"suppressed={suppressed}")

    # The full fixture directory linted at once must also be deterministic:
    # every bad fixture fires, every good one stays quiet.
    rc, report = run_lint(".")
    total = report.get("errors", 0)
    expected_total = 0
    for (_e, counts, _s) in EXPECT.values():
        expected_total += sum(counts.values())
    if total < expected_total:
        failures.append(
            f"[corpus] whole-directory run found {total} errors, want >= "
            f"{expected_total}")
    print(f"corpus: {total} errors across the directory "
          f"(floor {expected_total})")

    if failures:
        print("\nFAILURES:")
        for f in failures:
            print("  -", f)
        return 1
    print(f"\nall {len(EXPECT)} fixture expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())

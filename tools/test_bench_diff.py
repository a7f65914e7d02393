#!/usr/bin/env python3
"""Exit-status contract of tools/bench_diff.py on the fixtures in tests/bench_diff/.

A baseline diffed against medians inside every BENCHMARK.json bound exits 0;
against medians beyond a bound it exits 1 and names each regressed metric;
unreadable input exits 2.

  $ python3 tools/test_bench_diff.py

ctest runs it as `bench_diff`.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "bench_diff"

# (old, new, expected exit, names stderr must contain)
CASES = [
    ("baseline.json", "within.json", 0, []),
    ("baseline.json:parent", "baseline.json", 0, []),
    ("baseline.json", "beyond.json", 1,
     ["bsp_wren wall_s_per_sim_s", "brite_fleet plan_cost_mbps"]),
    ("baseline.json", "missing.json", 2, ["missing.json"]),
]


def main() -> int:
    failures = 0
    for old, new, want_exit, want_names in CASES:
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "bench_diff.py"),
             str(FIXTURES / old), str(FIXTURES / new)],
            capture_output=True, text=True, timeout=60)
        missing = [name for name in want_names if name not in proc.stderr]
        if proc.returncode != want_exit or missing:
            failures += 1
            print(f"  FAIL {old} -> {new}: exit {proc.returncode} (want {want_exit}), "
                  f"stderr {proc.stderr.strip()!r} lacks {missing}")
    print(f"test_bench_diff: {len(CASES) - failures}/{len(CASES)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Golden signatures and --seed contract of examples/chaos_cluster.

Seeds 42 and 7 must print the `signature:` line recorded in
tests/golden/chaos_signature_seed{42,7}.txt. A malformed --seed value is a
usage error: exit 2 naming the option, never an uncaught exception, a
truncated number, a wrapped negative or out-of-range value, or a read past
the end of argv.

  $ python3 tools/test_chaos_cli.py CHAOS_CLUSTER GOLDEN_DIR

ctest runs it as `chaos_cluster_cli` with the built example.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

SEEDS = ["42", "7"]
# Each entry is the argv tail after `--seed`: non-numeric, trailing garbage,
# negative, one past the u64 range, and no value at all.
BAD_SEEDS = [["abc"], ["7x"], ["-1"], ["18446744073709551616"], []]


def run(binary: str, args: list[str]) -> subprocess.CompletedProcess[str]:
    return subprocess.run([binary, *args], capture_output=True, text=True, timeout=120)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, golden_dir = argv[1], pathlib.Path(argv[2])
    failures = 0
    for seed in SEEDS:
        proc = run(binary, ["--seed", seed])
        got = [line for line in proc.stdout.splitlines() if line.startswith("signature:")]
        want = (golden_dir / f"chaos_signature_seed{seed}.txt").read_text().strip()
        if proc.returncode != 0 or got != [want]:
            failures += 1
            print(f"  FAIL --seed {seed}: exit {proc.returncode}, signature {got!r} "
                  f"(want exit 0 and {want!r})")
    for tail in BAD_SEEDS:
        proc = run(binary, ["--seed", *tail])
        if proc.returncode != 2 or "--seed" not in proc.stderr:
            failures += 1
            print(f"  FAIL --seed {' '.join(tail)}: exit {proc.returncode}, "
                  f"stderr {proc.stderr.strip()!r} (want exit 2 naming --seed)")
    total = len(SEEDS) + len(BAD_SEEDS)
    print(f"test_chaos_cli: {total - failures}/{total} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

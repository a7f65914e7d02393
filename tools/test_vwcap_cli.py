#!/usr/bin/env python3
"""Command-line contract of the vwcap-* tools.

A malformed option value is a usage error: the tool must exit 2 and name the
offending option, never abort on an uncaught exception or silently wrap the
value into range.

  $ python3 tools/test_vwcap_cli.py VWCAP_EXTRACT VWCAP_ANALYZE VWCAP_MATCH

ctest runs it as `vwcap_cli` with the built tool paths.
"""

from __future__ import annotations

import subprocess
import sys

# (tool index, argv tail, option the message must name)
BAD_VALUES = [
    # non-numeric
    (0, ["--src", "abc", "x.vwtrace"], "--src"),
    (1, ["x.vwtrace", "--interval", "zz"], "--interval"),
    (2, ["a.vwtrace", "b.vwtrace", "--expect-min-us", "q"], "--expect-min-us"),
    # trailing garbage
    (0, ["--src-port", "5x", "x.vwtrace"], "--src-port"),
    (0, ["--from", "1.5s", "x.vwtrace"], "--from"),
    (1, ["x.vwtrace", "--interval", "0.1 "], "--interval"),
    # out of range
    (0, ["--src-port", "70000", "x.vwtrace"], "--src-port"),
    (0, ["--dst-port", "65536", "x.vwtrace"], "--dst-port"),
    (0, ["--dst", "4294967296", "x.vwtrace"], "--dst"),
    (0, ["--to", "inf", "x.vwtrace"], "--to"),
    # negative node id
    (0, ["--src", "-1", "x.vwtrace"], "--src"),
    # missing value
    (0, ["x.vwtrace", "--dst"], "--dst"),
]

# Boundary values parse; the run then fails on the missing input file, which
# is an I/O error (exit 1), not a usage error.
GOOD_VALUES = [
    (0, ["--src-port", "65535", "--src", "4294967295", "--from", "-0.5",
         "missing.vwtrace"]),
    (1, ["missing.vwtrace", "--interval", "1e-3"]),
    (2, ["missing-a.vwtrace", "missing-b.vwtrace", "--expect-min-us", "12.5"]),
]


def run(tool: str, args: list[str]) -> subprocess.CompletedProcess[str]:
    return subprocess.run([tool, *args], capture_output=True, text=True, timeout=30)


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    tools = argv[1:]
    failures = 0
    for idx, args, option in BAD_VALUES:
        proc = run(tools[idx], args)
        ok = proc.returncode == 2 and option in proc.stderr
        if not ok:
            failures += 1
            print(f"  FAIL {tools[idx]} {' '.join(args)}: exit {proc.returncode}, "
                  f"stderr {proc.stderr.strip()!r} (want exit 2 naming {option})")
    for idx, args in GOOD_VALUES:
        proc = run(tools[idx], args)
        if proc.returncode != 1:
            failures += 1
            print(f"  FAIL {tools[idx]} {' '.join(args)}: exit {proc.returncode}, "
                  f"stderr {proc.stderr.strip()!r} (want exit 1: values parse, input missing)")
    total = len(BAD_VALUES) + len(GOOD_VALUES)
    print(f"test_vwcap_cli: {total - failures}/{total} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

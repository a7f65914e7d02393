#!/usr/bin/env python3
"""Telemetry smoke of examples/adaptive_cluster.

Runs the example with all three exports (metrics JSON, Chrome trace, events
JSONL) in a temporary directory, requires each file to exist, and
validates the metrics and trace with tools/check_metrics.py, requiring a
nonzero counter in every instrumented subsystem. A telemetry option without
its value is a usage error: exit 2 naming the option. An export that
cannot be written exits 1.

  $ python3 tools/test_adaptive_cli.py ADAPTIVE_CLUSTER

ctest runs it as `adaptive_cluster_cli` with the built example.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile

CHECK_METRICS = pathlib.Path(__file__).resolve().parent / "check_metrics.py"
EXPORTS = {"--metrics-json": "metrics.json", "--trace": "trace.json",
           "--events-jsonl": "events.jsonl"}
SUBSYSTEMS = "wren,transport,vnet,vttif,vadapt,virtuoso"


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(args, capture_output=True, text=True, timeout=120, cwd=cwd)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = str(pathlib.Path(argv[1]).resolve())
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        export_args = [arg for option, name in EXPORTS.items() for arg in (option, name)]
        proc = run([binary, *export_args], tmp)
        missing = [name for name in EXPORTS.values() if not (pathlib.Path(tmp) / name).is_file()]
        if proc.returncode != 0 or missing:
            failures += 1
            print(f"  FAIL exports: exit {proc.returncode}, missing {missing}\n{proc.stderr}")
        else:
            check = run([sys.executable, str(CHECK_METRICS), "metrics.json", "--trace",
                         "trace.json", "--require-nonzero", SUBSYSTEMS], tmp)
            if check.returncode != 0:
                failures += 1
                print(f"  FAIL check_metrics: exit {check.returncode}\n"
                      f"{check.stdout}{check.stderr}")
        for option in EXPORTS:
            proc = run([binary, option], tmp)
            if proc.returncode != 2 or option not in proc.stderr:
                failures += 1
                print(f"  FAIL {option} without a value: exit {proc.returncode}, "
                      f"stderr {proc.stderr.strip()!r} (want exit 2 naming {option})")
        proc = run([binary, "--metrics-json", "missing/metrics.json"], tmp)
        if proc.returncode != 1 or "cannot open" not in proc.stderr:
            failures += 1
            print(f"  FAIL unwritable export: exit {proc.returncode}, "
                  f"stderr {proc.stderr.strip()!r} (want exit 1, 'cannot open')")
    total = 3 + len(EXPORTS)
    print(f"test_adaptive_cli: {total - failures}/{total} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

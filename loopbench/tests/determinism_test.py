#!/usr/bin/env python3
"""Determinism self-test of the integrated-loop benchmark.

    python3 loopbench/tests/determinism_test.py PATH/TO/loopbench [WORKLOAD ...]

For each workload (default: all three), runs the loopbench binary twice with one seed
untraced and once traced, from the checkout root, and requires:
  * both untraced runs print identical simulated statistics (sim.events,
    packet counts, the chaos signature, plan_cost_mbps, wren_err_pct,
    app_goodput_mbps, ...);
  * the traced run prints the same statistics as the untraced runs, and its
    own "trace.observes_only" check (traced vs untraced iterations inside
    one process) passes, which proves tracing only observes;
  * every run exits 0, so every output check held;
  * the untraced result carries exactly BENCHMARK.json's end_to_end metrics
    and the traced one exactly its per_layer metrics, with their units.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 11
SCHEMA = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(binary: str, workload: str, trace: int) -> dict:
    out = subprocess.run([binary, "--workload", workload, "--seed", str(SEED),
                          "--seconds", "0.1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    sim = next(line["sim"] for line in lines if "sim" in line)
    result = lines[-1]
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload} trace={trace}: failed checks: {result}")
    declared = {m["name"]: m["unit"] for m in SCHEMA["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        raise AssertionError(f"{workload} trace={trace}: metrics differ from BENCHMARK.json:\n"
                             f"{sorted(set(printed.items()) ^ set(declared.items()))}")
    return sim


def main() -> int:
    binary = sys.argv[1]
    workloads = sys.argv[2:] or ["bsp_wren", "chaos_adapt", "brite_fleet"]
    failures = 0
    for workload in workloads:
        try:
            first = run(binary, workload, 0)
            second = run(binary, workload, 0)
            traced = run(binary, workload, 1)
            if first != second:
                raise AssertionError(f"{workload}: two untraced runs differ:\n{first}\n{second}")
            if first != traced:
                raise AssertionError(f"{workload}: traced run differs:\n{first}\n{traced}")
            print(f"determinism_test: {workload}: OK ({len(first)} iterations compared)")
        except AssertionError as exc:
            failures += 1
            print(f"determinism_test: FAIL {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

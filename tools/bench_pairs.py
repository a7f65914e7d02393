#!/usr/bin/env python3
"""Alternating parent/change pairs of the loopbench benchmark, summarised
in the BENCH_loopbench.json layout.

    tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--seed 1]
        [--workloads bsp_wren,chaos_adapt,brite_fleet] [--cpu 2]
        [--output BENCH_loopbench.json]

PARENT_DIR and CHANGE_DIR are two checkouts (for example `git archive`
exports of the parent commit and of the change). In each, the script runs
`python3 loopbench/run.py --workload W --seed N --seconds S --trace 0`
under `taskset -c CPU`, so run.py builds the checkout's own loopbench
first; one untimed warm-up run per checkout does that build before the
pairs start. S and the workloads are BENCHMARK.json's `run_seconds` and
`workloads`. For each workload, PAIRS (10) pairs run both sides back to
back, the parent first in odd pairs and the change first in even ones. It
reads each run's last stdout line (the loopbench JSON result) and never
edits loopbench/.

The output holds, per side, `workloads` (each end-to-end metric's median:
what tools/bench_diff.py compares), `quartiles` ([q1, median, q3] of every
run) and `failed_runs` (runs that were not correct or had failed checks).
`wins` holds, per workload and metric, how many pairs the change won (ties
count for neither side) and `gain`: true when there were at least PAIRS
pairs, the change won at least nine tenths of them and its median is
better than the parent's by more than the parent's interquartile range.
That is the rule a claimed gain must meet; a metric without a claim only
has to stay within its BENCHMARK.json bound.

Exit status: 0 when every run was correct, 1 when one was not or a run
produced no result, 2 on bad arguments. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest pairs a gain may be claimed from


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of `values`, interpolating between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def pair_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Wins of the change over the parent, pair by pair, and whether that
    is a gain: at least PAIRS pairs, 9/10 of them won, and the medians
    apart, in the better direction, by more than the parent's
    interquartile range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on both sides")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = sign * (p_med - c_med)
    return {
        "wins": wins,
        "pairs": len(parent),
        "ratio": c_med / p_med if p_med else None,
        "gain": len(parent) >= PAIRS and 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1,
    }


def aggregate(runs: dict, metrics: list[dict]) -> dict:
    """The per-side and per-metric summary of `runs`, which maps each
    workload to a list of pairs, each a {"parent": result, "change":
    result} of loopbench JSON results."""
    sides = {side: {"workloads": {}, "quartiles": {}, "failed_runs": {}}
             for side in ("parent", "change")}
    wins = {}
    for workload, pairs in runs.items():
        for side, out in sides.items():
            results = [pair[side] for pair in pairs]
            out["failed_runs"][workload] = sum(
                1 for r in results if not r.get("correct") or r.get("failed", 0))
            out["workloads"][workload] = {}
            out["quartiles"][workload] = {}
            for metric in metrics:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                out["workloads"][workload][metric["name"]] = statistics.median(values)
                out["quartiles"][workload][metric["name"]] = quartiles(values)
        wins[workload] = {}
        for metric in metrics:
            name = metric["name"]
            wins[workload][name] = pair_verdict(
                [pair["parent"]["metrics"][name]["value"] for pair in pairs],
                [pair["change"]["metrics"][name]["value"] for pair in pairs],
                metric["better"])
    return {**sides, "wins": wins}


def run_once(checkout: pathlib.Path, cpu: str, workload: str, seed: int,
             seconds: float) -> dict | None:
    """One pinned loopbench run in `checkout`; its JSON result, or None."""
    cmd = ["taskset", "-c", cpu, sys.executable, "loopbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def revision(checkout: pathlib.Path) -> str:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else checkout.name


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str]) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(known))
    ap.add_argument("--cpu", default="2", help="taskset CPU list for every run")
    ap.add_argument("--output", type=pathlib.Path, default=pathlib.Path("BENCH_loopbench.json"))
    ap.add_argument("--parent-revision", help="defaults to the checkout's git HEAD")
    ap.add_argument("--change-revision", help="defaults to the checkout's git HEAD")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if any(w not in known for w in workloads):
        ap.error(f"--workloads must be a subset of {','.join(known)}")
    checkouts = {"parent": args.parent, "change": args.change}

    for side, checkout in checkouts.items():
        if run_once(checkout, args.cpu, workloads[0], args.seed, 1.0) is None:
            print(f"bench_pairs: {side} checkout {checkout} did not build or run",
                  file=sys.stderr)
            return 1

    runs: dict = {}
    bad = 0
    for workload in workloads:
        runs[workload] = []
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {}
            for side in order:
                result = run_once(checkouts[side], args.cpu, workload, args.seed, seconds)
                if result is None:
                    print(f"bench_pairs: {workload} pair {i}: {side} gave no result",
                          file=sys.stderr)
                    return 1
                if not result.get("correct") or result.get("failed", 0):
                    bad += 1
                pair[side] = result
            runs[workload].append(pair)
            print(f"bench_pairs: {workload} pair {i}/{PAIRS}: wall_s_per_sim_s "
                  f"parent {pair['parent']['metrics']['wall_s_per_sim_s']['value']:.6g} "
                  f"change {pair['change']['metrics']['wall_s_per_sim_s']['value']:.6g}",
                  file=sys.stderr)

    summary = aggregate(runs, bench["end_to_end"])
    doc = {
        "bench": "loopbench",
        "command": f"python3 loopbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "method": "medians over alternating parent/change pairs run back to back on one "
                  "machine (odd pairs parent first), both sides pinned to one CPU with "
                  "taskset; end-to-end metrics only; compare with tools/bench_diff.py",
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "pairs": PAIRS,
    }
    for side, checkout in checkouts.items():
        label = getattr(args, f"{side}_revision") or revision(checkout)
        doc[side] = {"revision": label, **summary[side]}
    doc["wins"] = summary["wins"]
    args.output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, per_metric in summary["wins"].items():
        for name, verdict in per_metric.items():
            print(f"{workload} {name}: change/parent {verdict['ratio']}, "
                  f"{verdict['wins']}/{verdict['pairs']} pairs won, gain={verdict['gain']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

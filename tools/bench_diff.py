#!/usr/bin/env python3
"""Compare two loopbench baselines metric by metric against BENCHMARK.json.

    tools/bench_diff.py OLD NEW [--benchmark BENCHMARK.json]

OLD and NEW are baseline files: a `workloads` object mapping each workload
to its end-to-end metric medians. A file that holds both sides of a
measured change (BENCH_loopbench.json: `parent` and `change`) is read as
its `change` side; write FILE:parent or FILE:change to pick one. So

    tools/bench_diff.py BENCH_loopbench.json:parent BENCH_loopbench.json

replays the committed comparison, and a later change diffs its own
medians against the committed ones.

For every end-to-end metric BENCHMARK.json declares, on every workload OLD
has, the script prints NEW/OLD. A metric regresses when it moved the wrong
way (per its `better`) by more than its `bound`, a fraction of OLD: a
lower-is-better metric above OLD * (1 + bound), a higher-is-better one below
OLD * (1 - bound). Exit status: 0 when nothing regressed, 1 when a metric
regressed or is missing from NEW, 2 on unreadable input.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


class InputError(Exception):
    pass


def load_side(arg: str) -> tuple[str, dict]:
    """The (label, workloads) a FILE or FILE:SIDE argument names."""
    path, _, side = arg.partition(":")
    try:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if side or "change" in doc:
        side = side or "change"
        if side not in doc:
            raise InputError(f"{path}: no {side!r} side")
        doc = doc[side]
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict):
        raise InputError(f"{arg}: no 'workloads' object")
    return f"{arg} ({doc.get('revision', 'unknown revision')})", workloads


def regressed(old: float, new: float, better: str, bound: float) -> bool:
    if better == "lower":
        return new > old * (1 + bound)
    return new < old * (1 - bound)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(REPO / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    try:
        old_label, old = load_side(args.old)
        new_label, new = load_side(args.new)
        metrics = json.loads(pathlib.Path(args.benchmark).read_text(encoding="utf-8"))[
            "end_to_end"]
    except (InputError, OSError, ValueError, KeyError) as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2

    print(f"old: {old_label}\nnew: {new_label}")
    failures = []
    for workload in sorted(old):
        print(f"{workload}:")
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            if name not in old[workload]:
                continue
            before = old[workload][name]
            after = new.get(workload, {}).get(name)
            if after is None:
                failures.append(f"{workload} {name}: missing from new")
                print(f"  {name:<18} {before:>12.6g} -> missing")
                continue
            ratio = f"{after / before:.3f}x" if before else "n/a"
            verdict = ""
            if regressed(before, after, better, bound):
                verdict = f"  REGRESSED ({better} is better, bound {bound:g})"
                failures.append(f"{workload} {name}: {before:.6g} -> {after:.6g}")
            print(f"  {name:<18} {before:>12.6g} -> {after:<12.6g} {ratio}{verdict}")
    if failures:
        for failure in failures:
            print(f"bench_diff: {failure}", file=sys.stderr)
        return 1
    print("bench_diff: every metric within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

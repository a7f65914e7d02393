#!/usr/bin/env python3
"""Aggregation rules of tools/bench_pairs.py on synthetic pair results.

Quartiles interpolate between order statistics; a pair counts as a win
only when the change is strictly better; a gain needs at least ten pairs,
9/10 of them won, and medians apart by more than the parent's
interquartile range; and
the aggregated sides are baselines tools/bench_diff.py reads.

  $ python3 tools/test_bench_pairs.py

ctest runs it as `bench_pairs`.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_diff  # noqa: E402
import bench_pairs  # noqa: E402

LOWER = {"name": "wall_s_per_sim_s", "better": "lower"}
HIGHER = {"name": "app_goodput_mbps", "better": "higher"}


def result(wall: float, goodput: float, correct: bool = True) -> dict:
    return {"correct": correct, "failed": 0 if correct else 1,
            "metrics": {"wall_s_per_sim_s": {"value": wall},
                        "app_goodput_mbps": {"value": goodput}}}


def case_quartiles() -> None:
    assert bench_pairs.quartiles([float(v) for v in range(1, 11)]) == [3.25, 5.5, 7.75]
    assert bench_pairs.quartiles([4.0]) == [4.0, 4.0, 4.0]


def case_nine_of_ten_beyond_the_iqr_is_a_gain() -> None:
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
    change = [8.0] * 9 + [10.5]  # loses the last pair
    verdict = bench_pairs.pair_verdict(parent, change, "lower")
    assert verdict["wins"] == 9 and verdict["pairs"] == 10, verdict
    assert verdict["gain"], verdict
    assert abs(verdict["ratio"] - 0.8) < 1e-12, verdict


def case_eight_of_ten_is_not() -> None:
    parent = [10.0] * 10
    change = [8.0] * 8 + [10.0, 11.0]  # one tie, one loss
    verdict = bench_pairs.pair_verdict(parent, change, "lower")
    assert verdict["wins"] == 8 and not verdict["gain"], verdict


def case_every_pair_won_of_too_few_is_not_a_gain() -> None:
    verdict = bench_pairs.pair_verdict([10.0, 10.1, 9.9], [8.0, 8.0, 8.0], "lower")
    assert verdict["wins"] == 3 and verdict["pairs"] == 3, verdict
    assert not verdict["gain"], verdict


def case_ties_count_for_neither() -> None:
    verdict = bench_pairs.pair_verdict([5.0] * 10, [5.0] * 10, "lower")
    assert verdict["wins"] == 0 and not verdict["gain"], verdict


def case_every_pair_won_inside_the_parent_iqr_is_not_a_gain() -> None:
    parent = [10.0, 12.0, 14.0, 16.0, 18.0, 10.0, 12.0, 14.0, 16.0, 18.0]
    change = [p - 0.5 for p in parent]  # wins all ten by less than the IQR of 4
    verdict = bench_pairs.pair_verdict(parent, change, "lower")
    assert verdict["wins"] == 10 and not verdict["gain"], verdict


def case_higher_is_better_flips_the_direction() -> None:
    parent = [100.0] * 10
    up = bench_pairs.pair_verdict(parent, [120.0] * 10, "higher")
    down = bench_pairs.pair_verdict(parent, [80.0] * 10, "higher")
    assert up["wins"] == 10 and up["gain"], up
    assert down["wins"] == 0 and not down["gain"], down


def case_aggregate_sides_read_by_bench_diff() -> None:
    runs = {"chaos_adapt": [
        {"parent": result(10.0 + i, 35.0), "change": result(8.0 + i, 35.0, correct=i != 2)}
        for i in range(5)]}
    summary = bench_pairs.aggregate(runs, [LOWER, HIGHER])
    parent, change = summary["parent"], summary["change"]
    assert parent["workloads"]["chaos_adapt"]["wall_s_per_sim_s"] == 12.0, parent
    assert change["quartiles"]["chaos_adapt"]["wall_s_per_sim_s"] == [9.0, 10.0, 11.0], change
    assert parent["failed_runs"]["chaos_adapt"] == 0, parent
    assert change["failed_runs"]["chaos_adapt"] == 1, change
    assert summary["wins"]["chaos_adapt"]["wall_s_per_sim_s"]["wins"] == 5, summary
    assert summary["wins"]["chaos_adapt"]["app_goodput_mbps"]["wins"] == 0, summary
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "pairs.json"
        path.write_text(json.dumps({"parent": {"revision": "p", **parent},
                                    "change": {"revision": "c", **change}}))
        _, workloads = bench_diff.load_side(f"{path}:parent")
        assert workloads["chaos_adapt"]["app_goodput_mbps"] == 35.0, workloads
        _, workloads = bench_diff.load_side(str(path))
        assert workloads["chaos_adapt"]["wall_s_per_sim_s"] == 10.0, workloads


CASES = [value for name, value in sorted(globals().items()) if name.startswith("case_")]


def main() -> int:
    failures = 0
    for case in CASES:
        try:
            case()
        except AssertionError as exc:
            failures += 1
            print(f"  FAIL {case.__name__}: {exc}")
    print(f"test_bench_pairs: {len(CASES) - failures}/{len(CASES)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run a micro-benchmark suite and emit its BENCH_*.json summary.

Three suites:

  * ``vadapt`` (default) — wraps ``micro_vadapt_incremental`` into
    BENCH_vadapt.json: SA-iteration throughput (items_per_second) for the
    full-rescore and incremental evaluation backends at n_hosts=32 /
    n_vms=8, and their ratio. Both variants drive the annealer with the
    identical RNG stream and make bit-identical decisions
    (tests/vadapt_incremental_test.cpp proves this), so the ratio is a pure
    cost-structure speedup.

  * ``datapath`` — wraps ``micro_datapath`` into BENCH_datapath.json:
    scheduler ops/sec on the churn workload for the pre-overhaul baseline
    replica (std::function + hash-set cancellation, compiled into the same
    binary) and the slot-arena engine, their speedup, events/sec and ns per
    event on the RTO re-arm workload (reported, not gated), end-to-end star
    packets/sec and ns per packet at 8 and 32 hosts for 40 B (an ACK),
    576 B and 1500 B packets, and a ``routes`` block: milliseconds per
    Network::compute_routes on BRITE networks of 64, 256 and 1000 routers
    with one single-link host each. ``--gate`` (default 3.0 for this suite)
    makes the script exit nonzero when the scheduler speedup falls below the
    acceptance criterion, which is how CI enforces the perf gate; the route
    timings are reported, not gated.

  * ``vadapt_warm`` — wraps ``micro_vadapt_warm`` into
    BENCH_vadapt_warm.json: warm-start single-link re-adaptation time vs
    the from-scratch multi-start solve (the system's default cold
    configuration, serial) on BRITE overlays at 256 and 1024 daemons, plus
    a delta-size sweep (1/4/16/64 changed pairs at 1024). The gate: the
    1024-VM single-link speedup must clear ``--gate`` (default 10.0). Full
    runs measure ~20-35x; a warm adapt still does O(D) work in the demand
    count D, so its time grows with the problem and no scaling ratio is
    gated. Judge the gate on a full-length run, not ``--quick``.

Usage:
    tools/bench_to_json.py [--suite vadapt|datapath|vadapt_warm]
                           [--build-dir build] [--output FILE] [--quick]
                           [--gate X]

Only the standard library is used.
"""

import argparse
import json
import os
import subprocess
import sys


def run_benchmark(binary: str, quick: bool) -> dict:
    cmd = [binary, "--benchmark_format=json"]
    if quick:
        cmd.append("--benchmark_min_time=0.05")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=True,
        )
        return out.stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def items_per_second(benchmarks: list, name: str) -> float:
    for b in benchmarks:
        if b.get("name") == name and b.get("run_type", "iteration") == "iteration":
            return float(b.get("items_per_second", 0.0))
    raise KeyError(f"benchmark {name!r} not found in report")


def vadapt_summary(benchmarks: list) -> dict:
    def variant(prefix: str) -> dict:
        full = items_per_second(benchmarks, f"{prefix}/full")
        incremental = items_per_second(benchmarks, f"{prefix}/incremental")
        return {
            "full_rescore_iters_per_sec": full,
            "incremental_iters_per_sec": incremental,
            "speedup": incremental / full if full > 0 else None,
        }

    return {
        "problem": {"n_hosts": 32, "n_vms": 8, "demands": "8-VM ring @ 20 Mb/s"},
        "sa_iteration_throughput": {
            "residual_bw_eq1": variant("BM_AnnealingIteration"),
            "residual_bw_latency_eq3": variant("BM_AnnealingIterationEq3"),
        },
    }


STAR_HOSTS = (8, 32)
STAR_BYTES = (40, 576, 1500)


def datapath_summary(benchmarks: list) -> dict:
    baseline = items_per_second(benchmarks, "BM_SchedulerChurn_baseline")
    arena = items_per_second(benchmarks, "BM_SchedulerChurn_arena")
    rearm = items_per_second(benchmarks, "BM_SchedulerRearm")
    star = {
        f"hosts_{n}_bytes_{b}": items_per_second(benchmarks, f"BM_StarForwarding/{n}/{b}")
        for n in STAR_HOSTS
        for b in STAR_BYTES
    }
    return {
        "workload": {
            "scheduler_churn": "1024-timer batches, 2/3 cancelled before firing, "
            "Packet-sized (96 B) captures",
            "scheduler_rearm": "50 self-rescheduling events 1-21 us apart, each "
            "cancelling and re-arming one 200 ms timer (TCP RTO shape)",
            "star_forwarding": "fig4-style star, UDP ring traffic, "
            "packets delivered end to end, by host count and wire size",
            "routes": "BRITE Waxman routers (out-degree 2) plus one single-link "
            "host each; one Network::compute_routes",
        },
        "scheduler_churn": {
            # `baseline` replicates the pre-overhaul engine (std::function
            # events + pending/cancelled hash sets) inside the same binary,
            # so the speedup is a same-compiler same-machine comparison.
            "baseline_ops_per_sec": baseline,
            "arena_ops_per_sec": arena,
            "speedup": arena / baseline if baseline > 0 else None,
        },
        "scheduler_rearm": {
            "events_per_sec": rearm,
            "ns_per_event": 1e9 / rearm if rearm > 0 else None,
        },
        "star_forwarding_packets_per_sec": star,
        "star_forwarding_ns_per_packet": {
            key: 1e9 / pps if pps > 0 else None for key, pps in star.items()
        },
        "routes": {
            "compute_ms": {
                f"routers_{n}": real_time_seconds(benchmarks, f"BM_ComputeRoutes/{n}") * 1e3
                for n in (64, 256, 1000)
            },
        },
    }


def real_time_seconds(benchmarks: list, name: str) -> float:
    for b in benchmarks:
        if b.get("name") == name and b.get("run_type", "iteration") == "iteration":
            unit = b.get("time_unit", "ns")
            scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
            return float(b.get("real_time", 0.0)) * scale
    raise KeyError(f"benchmark {name!r} not found in report")


def vadapt_warm_summary(benchmarks: list) -> dict:
    cold = {n: real_time_seconds(benchmarks, f"BM_ColdFromScratch/{n}") for n in (256, 1024)}
    warm = {n: real_time_seconds(benchmarks, f"BM_WarmSingleLink/{n}") for n in (256, 1024)}
    sweep = {k: real_time_seconds(benchmarks, f"BM_WarmDeltaSize/{k}") for k in (1, 4, 16, 64)}
    return {
        "problem": {
            "topology": "BRITE Waxman overlay (complete daemon graph)",
            "demands": "n-VM ring @ 20 Mb/s, n_vms = n_hosts",
            "cold": "multi-start SA, system default params (4 chains x 5000 "
            "iters), serial, no trace",
            "warm": "WarmStartOptimizer.adapt, one changed directed pair per "
            "re-adaptation (delta-size sweep: 1/4/16/64 pairs)",
        },
        "adapt_time_seconds": {
            "cold_from_scratch": {f"hosts_{n}": t for n, t in cold.items()},
            "warm_single_link": {f"hosts_{n}": t for n, t in warm.items()},
            "warm_delta_sweep_1024": {f"pairs_{k}": t for k, t in sweep.items()},
        },
        "speedup_single_link_1024": cold[1024] / warm[1024] if warm[1024] > 0 else None,
        "speedup_single_link_256": cold[256] / warm[256] if warm[256] > 0 else None,
    }


SUITES = {
    "vadapt": {
        "binary": "micro_vadapt_incremental",
        "output": "BENCH_vadapt.json",
        "summarize": vadapt_summary,
        "default_gate": None,
    },
    "datapath": {
        "binary": "micro_datapath",
        "output": "BENCH_datapath.json",
        "summarize": datapath_summary,
        "default_gate": 3.0,
    },
    "vadapt_warm": {
        "binary": "micro_vadapt_warm",
        "output": "BENCH_vadapt_warm.json",
        "summarize": vadapt_warm_summary,
        "default_gate": 10.0,
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SUITES), default="vadapt")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--output", default=None,
                        help="defaults to the suite's BENCH_*.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short timing windows (CI smoke); numbers are noisier",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="minimum required speedup; exit 1 below it "
        "(datapath default: 3.0, vadapt default: off)",
    )
    args = parser.parse_args()

    suite = SUITES[args.suite]
    output = args.output or suite["output"]
    binary = os.path.join(args.build_dir, "bench", suite["binary"])
    if not os.path.exists(binary):
        print(f"error: {binary} not found (build the repo first)", file=sys.stderr)
        return 1

    report = run_benchmark(binary, args.quick)
    benchmarks = report.get("benchmarks", [])

    result = {
        "bench": suite["binary"],
        "git_revision": git_revision(),
        "quick": args.quick,
        **suite["summarize"](benchmarks),
        "context": report.get("context", {}),
        "benchmarks": benchmarks,
    }

    gate = args.gate if args.gate is not None else suite["default_gate"]
    gate_failures = []
    if args.suite == "vadapt_warm":
        times = result["adapt_time_seconds"]
        speedup = result["speedup_single_link_1024"]
        print(
            f"vadapt_warm: cold@1024={times['cold_from_scratch']['hosts_1024']:.3g} s, "
            f"warm@1024={times['warm_single_link']['hosts_1024']:.3g} s, "
            f"speedup={speedup:.1f}x"
        )
        if gate is not None and (speedup is None or speedup < gate):
            gate_failures.append(
                f"warm single-link @1024: {speedup:.1f}x < {gate:g}x vs from-scratch"
            )
    elif args.suite == "vadapt":
        for key, v in result["sa_iteration_throughput"].items():
            speedup = v["speedup"]
            print(
                f"{key}: full={v['full_rescore_iters_per_sec']:.3g} it/s, "
                f"incremental={v['incremental_iters_per_sec']:.3g} it/s, "
                f"speedup={speedup:.2f}x"
            )
            if gate is not None and (speedup is None or speedup < gate):
                gate_failures.append(f"{key}: {speedup:.2f}x < {gate:g}x")
    else:
        churn = result["scheduler_churn"]
        speedup = churn["speedup"]
        print(
            f"scheduler_churn: baseline={churn['baseline_ops_per_sec']:.3g} ops/s, "
            f"arena={churn['arena_ops_per_sec']:.3g} ops/s, "
            f"speedup={speedup:.2f}x"
        )
        rearm = result["scheduler_rearm"]
        print(f"scheduler_rearm: {rearm['events_per_sec']:.3g} events/s "
              f"({rearm['ns_per_event']:.0f} ns/event, not gated)")
        ns = result["star_forwarding_ns_per_packet"]
        for n in STAR_HOSTS:
            print(f"star_forwarding {n} hosts: " + ", ".join(
                f"{b} B={ns[f'hosts_{n}_bytes_{b}']:.0f} ns/pkt" for b in STAR_BYTES))
        routes = result["routes"]["compute_ms"]
        print("compute_routes: " + ", ".join(
            f"{key.split('_')[1]} routers={ms:.3g} ms" for key, ms in routes.items()))
        if gate is not None and (speedup is None or speedup < gate):
            gate_failures.append(f"scheduler_churn: {speedup:.2f}x < {gate:g}x")

    with open(output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    print(f"wrote {output}")
    if gate_failures:
        for failure in gate_failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

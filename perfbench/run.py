#!/usr/bin/env python3
"""The repository benchmark: three workloads, measured end to end or traced layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lp-default --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``lp-default`` -- ``lp`` at its default point; the only one that runs ``core/lp``.
* ``scaling-1000`` -- ``scaling`` at 1000 nodes with the incremental engine.
* ``serve-mix`` -- an open-loop, seeded submission schedule against ``repro serve``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs with the program's layers wrapped and prints the per-layer metrics.
``setup_s`` and the batch workloads' ``wall_s`` are in seconds of a
reference host: each reading is divided by the host speed that
``common.HostProbe`` measured on a spare vCPU while it ran, because on a
shared VM the host's speed drifts by more than the bounds over minutes.
The raw readings are printed as ``raw_setup_s`` and ``raw_wall_s``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run's numbers, the machine fingerprint and the pinned environment are
also written to ``.perfbench_work/manifests/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced runs): name -> unit.  A layer a workload does not
#: reach reports 0.
PER_LAYER = {
    "repro.import_s": "s",
    "experiments.build_grid_s": "s",
    "experiments.reduce_s": "s",
    "runtime.trials": "count",
    "runtime.sweep_s": "s",
    "runtime.overhead_s": "s",
    "network.topology_s": "s",
    "network.workload_s": "s",
    "network.generation_s": "s",
    "network.generation_calls": "count",
    "protocols.build_s": "s",
    "protocols.run_s": "s",
    "protocols.loop_self_s": "s",
    "protocols.consume_s": "s",
    "protocols.consume_calls": "count",
    "sim.rounds": "count",
    "sim.us_per_round": "us",
    "maxmin.setup_s": "s",
    "maxmin.balance_s": "s",
    "maxmin.rounds": "count",
    "maxmin.candidates_s": "s",
    "maxmin.candidate_calls": "count",
    "maxmin.candidates_found": "count",
    "maxmin.rebuild_scans": "count",
    "maxmin.rebuild_scan_s": "s",
    "maxmin.swaps": "count",
    "maxmin.swap_s": "s",
    "maxmin.us_per_swap": "us",
    "maxmin.useful_ratio": "ratio",
    "maxmin.ledger_mutations": "count",
    "maxmin.ledger_s": "s",
    "analysis.fairness_s": "s",
    "analysis.overhead_s": "s",
    "analysis.starvation_s": "s",
    "lp.programs": "count",
    "lp.build_s": "s",
    "lp.solve_s": "s",
    "lp.check_s": "s",
    "lp.nnz": "count",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.ack_ms_p50": "ms",
    "serve.ack_ms_p99": "ms",
    "serve.cold_ms_p50": "ms",
    "serve.hit_ms_p50": "ms",
    "serve.memo_hits": "count",
    "serve.coalesced": "count",
    "serve.computed": "count",
    "serve.hit_ratio": "ratio",
    "serve.rejected_admission": "count",
    "serve.rejected_queue_full": "count",
    "serve.queue_depth_max": "count",
    "serve.jobs_retained": "count",
    "serve.reject_rate": "ratio",
    "serve.rss_growth_mb": "MiB",
    "serve.generator_late_ms_p99": "ms",
    "bench.traced_wall_s": "s",
    "bench.untraced_share": "ratio",
    "bench.trace_overhead": "ratio",
}

WORKLOAD_NAMES = ("lp-default", "scaling-1000", "serve-mix")


def _print_human(workload: str, trace: bool, report: dict) -> None:
    print(f"perfbench {workload} ({'traced' if trace else 'end to end'}):")
    table = END_TO_END if not trace else PER_LAYER
    values = report.get("metrics" if not trace else "layers", {})
    for name, unit in table.items():
        if name in values:
            print(f"  {name:32s} {values[name]['value'] if not trace else values[name]:>16.6g} {unit}")
    for name, value in sorted(report.get("extra", {}).items()):
        print(f"  {name:32s} {value:>16.6g}")
    print(f"  attempted {report['attempted']}, failed {report['failed']}, correct {report['correct']}")
    for key, value in sorted(report.get("notes", {}).items()):
        print(f"  note {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.source_tree_present():
        print(f"perfbench: no program source at {common.SRC}; run from a full checkout", file=sys.stderr)
        return 2

    common.compile_sources()
    run_dir = common.make_run_dir(f"{args.workload}-s{args.seed}-t{args.trace}")
    env = common.pinned_env(run_dir)
    started = time.time()
    try:
        if args.workload == "serve-mix":
            import serve_mix

            report = serve_mix.run(args.seed, args.seconds, bool(args.trace), run_dir, env)
        else:
            import batch

            report = batch.run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir, env)
    finally:
        common.remove_tree(run_dir)

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "fingerprint": common.fingerprint(env),
        "report": report,
    }
    common.write_json(
        os.path.join(common.WORK, "manifests", f"{os.path.basename(run_dir)}.json"), manifest
    )
    _print_human(args.workload, bool(args.trace), report)

    if args.trace:
        layers = report.get("layers", {})
        metrics = {name: common.metric(float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    else:
        values = report.get("metrics", {})
        metrics = {name: values[name] for name in END_TO_END if name in values}
        if len(metrics) != len(END_TO_END):
            report["correct"] = False
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]),
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

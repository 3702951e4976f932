#!/usr/bin/env python3
"""Measure the serve daemon's capacity on the serve-mix schedule: a rate ladder.

Not part of a benchmark run.  It was run once to fix
``serve_mix.NOMINAL_RATE_HZ``; run it again from the root of a checkout to
see where that rate sits on another machine or commit::

    python3 perfbench/capacity.py --rates 15,30,60,90,120 --seconds 10 --seed 1

Each rate runs the serve-mix schedule untraced against a fresh daemon, with
as many regular users as keep each user's own rate at its nominal-rate
share.  A rate is sustained when the regular submissions' p99 latency (due
time to ``end``; refused ones count as over) is within ``--limit-ms`` and
the backlog in the last third of the window is no larger than in the first
third (plus one submission).
"""

from __future__ import annotations

import argparse
import sys

import common
import serve_mix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="15,30,60,90,120")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--limit-ms", type=float, default=250.0)
    args = parser.parse_args(argv)
    if not common.source_tree_present():
        print(f"capacity: no program source at {common.SRC}", file=sys.stderr)
        return 2

    common.compile_sources()
    print(f"{'rate_hz':>8} {'p50_ms':>9} {'p99_ms':>9} {'backlog_1st':>11} {'backlog_3rd':>11} "
          f"{'late_p99_ms':>11} {'correct':>7} sustained")
    sustained_rates = []
    for rate in (float(value) for value in args.rates.split(",")):
        run_dir = common.make_run_dir(f"capacity-{rate:g}")
        try:
            report = serve_mix.run(args.seed, args.seconds, False, run_dir, common.pinned_env(run_dir), rate)
        finally:
            common.remove_tree(run_dir)
        extra = report["extra"]
        sustained = (
            report["correct"]
            and extra["latency_p99_ms"] <= args.limit_ms
            and extra["backlog_last_third"] <= extra["backlog_first_third"] + 1.0
            and extra["outstanding_at_end"] == 0
        )
        if sustained:
            sustained_rates.append(rate)
        print(
            f"{rate:8g} {extra['latency_p50_ms']:9.1f} {extra['latency_p99_ms']:9.1f} "
            f"{extra['backlog_first_third']:11.2f} {extra['backlog_last_third']:11.2f} "
            f"{extra['generator_late_ms_p99']:11.2f} {str(report['correct']):>7} {sustained}",
            flush=True,
        )
    print(f"highest sustained rate: {max(sustained_rates) if sustained_rates else 'none'} 1/s "
          f"(p99 limit {args.limit_ms:g} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

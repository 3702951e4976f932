"""One measured execution in a fresh interpreter.

Run by the benchmark, never by hand::

    python perfbench/child.py --launched-at T --mode run --experiment lp --params '{}'

Modes:

* ``setup``: import the CLI, resolve and normalize the parameters and build
  the grid -- everything before the first trial -- then stop.
* ``run``: the same set-up, then time ``get_experiment(name).run(**params)``
  once, as a CLI user pays it, and digest the result.
* ``reference``: compute the one-shot result digest of each job in a list
  (used to check payloads the serve daemon returned).

``--trace FILE`` wraps the program's layers (:mod:`tracing`) after set-up,
writes the spans to FILE and adds the per-layer metrics to the output; in
``run`` mode the experiment then runs twice more, unwrapped and wrapped,
for the tracing overhead.
The output is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import common
import tracing


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(args) -> dict:
    import_started = time.perf_counter()
    import repro.cli  # noqa: F401  -- what a `repro <experiment>` invocation imports
    from repro.experiments import get_experiment

    import_s = time.perf_counter() - import_started
    params = json.loads(args.params)
    experiment = get_experiment(args.experiment)
    experiment.build_grid(experiment.normalize(experiment.resolve_params(dict(params))))
    setup_s = time.perf_counter() - args.launched_at
    output = {"ok": True, "setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        return output

    tracer = tracing.Tracer(run_id=os.path.basename(args.trace)) if args.trace else None
    result, output["wall_s"] = _timed_run(experiment, params, tracer)
    output["peak_rss_mb"] = _peak_rss_mb()
    exclude = json.loads(args.exclude_columns)
    output["digest"] = common.canonical_digest(result.to_payload(), exclude)
    if tracer is not None:
        output["traced_self_sum_s"] = tracer.self_time_sum()
        output["layers"] = tracing.layer_metrics(tracer)
        tracer.write_jsonl(
            args.trace,
            {"experiment": args.experiment, "params": params, "wall_s": output["wall_s"]},
        )
        # The tracing overhead, on two warm executions of the same input in
        # this process: untraced, then traced again.
        untraced, output["untraced_wall_s"] = _timed_run(experiment, params)
        retraced, output["retraced_wall_s"] = _timed_run(
            experiment, params, tracing.Tracer(run_id=tracer.run_id)
        )
        output["untraced_digest"] = common.canonical_digest(untraced.to_payload(), exclude)
        output["retraced_digest"] = common.canonical_digest(retraced.to_payload(), exclude)
    return output


def _timed_run(experiment, params, tracer=None):
    """``experiment.run(**params)`` and its wall time, with the layers wrapped by ``tracer``."""
    if tracer is not None:
        tracing.install(tracer, [type(experiment)])
    started = time.perf_counter()
    try:
        result = experiment.run(**params)
    finally:
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.restore()
    return result, wall_s


def _reference(args) -> dict:
    """Digest the one-shot in-process result of every (experiment, params) job.

    With ``--trace`` the same jobs run a second time with the layers wrapped,
    so the tracing overhead is measured on identical, equally warm work.
    """
    import_started = time.perf_counter()
    import repro.cli  # noqa: F401
    from repro.experiments import get_experiment

    import_s = time.perf_counter() - import_started
    with open(args.jobs, encoding="utf-8") as handle:
        jobs = json.load(handle)
    for name in sorted({job["experiment"] for job in jobs}):  # untimed warm-up
        get_experiment(name).run(**next(job["params"] for job in jobs if job["experiment"] == name))

    def run_all():
        started = time.perf_counter()
        results = [get_experiment(job["experiment"]).run(**job["params"]) for job in jobs]
        wall_s = time.perf_counter() - started
        return [common.canonical_digest(result.to_payload()) for result in results], wall_s

    digests, wall_s = run_all()
    output = {"ok": True, "digests": digests, "wall_s": wall_s, "import_s": import_s}
    if args.trace:
        tracer = tracing.Tracer(run_id=os.path.basename(args.trace))
        tracing.install(tracer, {type(get_experiment(job["experiment"])) for job in jobs})
        try:
            traced_digests, traced_wall_s = run_all()
        finally:
            tracer.restore()
        output["traced_digests"] = traced_digests
        output["traced_wall_s"] = traced_wall_s
        output["traced_self_sum_s"] = tracer.self_time_sum()
        output["layers"] = tracing.layer_metrics(tracer)
        tracer.write_jsonl(args.trace, {"jobs": len(jobs), "wall_s": traced_wall_s})
    return output


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "reference"), required=True)
    parser.add_argument("--experiment")
    parser.add_argument("--params", default="{}")
    parser.add_argument("--exclude-columns", default="[]")
    parser.add_argument("--jobs", help="JSON file of jobs for --mode reference")
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = parser.parse_args()
    if args.mode == "reference":
        output = _reference(args)
    else:
        output = _run(args)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())

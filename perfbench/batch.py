"""Batch workloads: one registered experiment, each execution in a fresh interpreter.

A run makes at least :data:`MIN_EXECUTIONS` fresh-process executions, and
starts another only while one more fits in ``--seconds``.  ``setup_s``,
``wall_s`` and ``peak_rss_mb`` are medians over executions that share no
warm state; ``setup_s`` gets extra set-up-only processes until it has
:data:`SETUP_SAMPLES` samples.  Each measured process runs on one vCPU and a
:class:`common.HostProbe` on the other, the two swapping from one process
to the next; both medians are divided by the host speed the probe read
over the run, so they are in seconds of the reference host.  The raw
medians are printed beside them as ``raw_setup_s`` and ``raw_wall_s``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Any, Dict, List

import common

#: Set-up time samples per run (executions plus set-up-only processes).
SETUP_SAMPLES = 5
#: Fewest executions per run: on a 2-vCPU VM one execution's wall time moves
#: by 15-20% (IQR over median) from one to the next, so a median needs several.
MIN_EXECUTIONS = 4
#: Per-process timeout; a traced lp-default child (three executions) takes
#: about 25 s.
CHILD_TIMEOUT_S = 150.0

#: workload -> experiment, parameters per input variant, and result columns
#: left out of the digest because they hold wall-clock readings.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "lp-default": {
        "experiment": "lp",
        "params": {"default": {}, "held-out": {"seed": common.HELD_OUT_SEED}},
        "exclude_columns": [],
    },
    "scaling-1000": {
        "experiment": "scaling",
        "params": {
            "default": {"sizes": [1000], "balancer": "incremental"},
            "held-out": {
                "sizes": [1000],
                "balancer": "incremental",
                "master_seed": common.HELD_OUT_SEED,
            },
        },
        "exclude_columns": ["seconds"],
    },
}


def variant_for(seed: int) -> str:
    return "held-out" if seed == common.HELD_OUT_SEED else "default"


def _child_args(spec: Dict[str, Any], params: Dict[str, Any], mode: str) -> List[str]:
    return [
        "--mode",
        mode,
        "--experiment",
        spec["experiment"],
        "--params",
        json.dumps(params),
        "--exclude-columns",
        json.dumps(spec["exclude_columns"]),
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: str, env) -> Dict[str, Any]:
    spec = WORKLOADS[workload]
    variant = variant_for(seed)
    params = spec["params"][variant]
    expected = common.load_digests().get(workload, {}).get(variant)
    if trace:
        with common.pinned(common.split_cpus(0)[0]):
            return _run_traced(spec, variant, params, expected, run_dir, env)
    return _run_untraced(spec, variant, params, expected, env, seconds)


def _run_untraced(spec, variant, params, expected, env, seconds) -> Dict[str, Any]:
    """Fresh-process executions for ``seconds``, read against the host probe."""
    started = time.perf_counter()
    executions: List[Dict[str, Any]] = []
    durations: List[float] = []
    launches = itertools.count()

    def launch(mode: str) -> Dict[str, Any]:
        child_cpu, probe_cpu = common.split_cpus(next(launches))
        host.move(probe_cpu)
        with common.pinned(child_cpu):
            return common.run_child(_child_args(spec, params, mode), env, CHILD_TIMEOUT_S)

    with common.HostProbe() as host:
        while True:
            launched = time.perf_counter()
            executions.append(launch("run"))
            durations.append(time.perf_counter() - launched)
            elapsed = time.perf_counter() - started
            if len(executions) >= MIN_EXECUTIONS and elapsed + common.median(durations) > seconds:
                break
        setups = [e["setup_s"] for e in executions if e.get("ok")]
        while len(setups) < SETUP_SAMPLES:
            sample = launch("setup")
            if not sample.get("ok"):
                executions.append(sample)
                break
            setups.append(sample["setup_s"])

    good = [e for e in executions if e.get("ok") and e.get("digest") == expected]
    failed = len(executions) - len(good)
    walls = [e["wall_s"] for e in good]
    report: Dict[str, Any] = {
        "correct": failed == 0 and expected is not None,
        "attempted": len(executions),
        "failed": failed,
        "notes": {
            "variant": variant,
            "expected_digest": expected,
            "digests": [e.get("digest") for e in executions],
            "errors": [e["error"] for e in executions if "error" in e],
            "raw_walls_s": walls,
            "raw_setups_s": setups,
        },
    }
    if not good:
        report["correct"] = False
        return report
    factor = host.factor()
    report["metrics"] = {
        "setup_s": common.metric(common.median(setups) / factor, "s"),
        "wall_s": common.metric(common.median(walls) / factor, "s"),
        "peak_rss_mb": common.metric(common.median([e["peak_rss_mb"] for e in good]), "MiB"),
    }
    report["extra"] = {
        "error_rate": failed / len(executions),
        "host_factor": factor,
        "raw_setup_s": common.median(setups),
        "raw_wall_s": common.median(walls),
    }
    return report


def _run_traced(spec, variant, params, expected, run_dir, env) -> Dict[str, Any]:
    """One traced execution, then an untraced and a traced one in the same process.

    The layer metrics are those of the first execution, as a CLI user pays
    it.  The tracing overhead is the traced over the untraced wall time of
    the two warm executions of the same code and input.  Every result is
    checked against the digest.
    """
    trace_path = os.path.join(common.WORK, "traces", f"{os.path.basename(run_dir)}.jsonl")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    args = _child_args(spec, params, "run") + ["--trace", trace_path]
    traced = common.run_child(args, env, CHILD_TIMEOUT_S)
    digests = [traced.get(key) for key in ("digest", "untraced_digest", "retraced_digest")]
    failed = sum(1 for digest in digests if not (traced.get("ok") and digest == expected))
    report: Dict[str, Any] = {
        "correct": failed == 0 and expected is not None,
        "attempted": len(digests),
        "failed": failed,
        "notes": {"variant": variant, "trace_file": os.path.relpath(trace_path, common.ROOT)},
    }
    if not traced.get("ok"):
        report["correct"] = False
        report["notes"]["errors"] = [traced.get("error")]
        return report
    wall = traced["wall_s"]
    gap_share = (wall - traced["traced_self_sum_s"]) / wall
    if gap_share > common.TRACE_GAP_TOLERANCE:
        report["correct"] = False
        report["notes"]["trace_gap"] = (
            f"wrapped layers explain only {1 - gap_share:.1%} of the traced wall time"
        )
    layers = dict(traced["layers"])
    layers["repro.import_s"] = traced["import_s"]
    layers["bench.traced_wall_s"] = wall
    layers["bench.untraced_share"] = gap_share
    layers["bench.trace_overhead"] = traced["retraced_wall_s"] / traced["untraced_wall_s"]
    report["layers"] = layers
    return report

"""Layer-by-layer tracing from inside the benchmark's own process.

:class:`Tracer` wraps public functions and methods of the program's layers
for the duration of one traced execution and restores them afterwards.
Every wrapped call is timed; a call's self time is its duration minus the
time its wrapped children took.  Coarse calls (one per trial, sweep, LP
program, ...) are also kept as span records -- name, start, end, parent,
run id -- and written as JSONL at the end.  Fine-grained calls (ledger
mutations, candidate scans, swaps) are only aggregated, so a figure4 trace
does not hold millions of records in memory.

``PairCountLedger.count`` is deliberately not wrapped: at ~35M calls per
figure4 run, a wrapper would dominate the trace.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # name -> [calls, inclusive seconds, self seconds]
        self.aggregate: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._stack: List[List[Any]] = []  # frames: [child seconds, span id or None]
        self._next_id = 0
        self._restore: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, original, name: str, record: bool, on_result=None, inner=None):
        """A timed stand-in for ``original``.

        ``inner`` is ``(attr, name)`` for a method: a call that reaches this
        definition explicitly (``Base.attr(self, ...)``) from an instance
        whose class overrides ``attr`` is an inner step of the override and
        is counted under that name instead, without ``on_result``.
        """
        stack = self._stack
        main_entry = self.aggregate.setdefault(name, [0, 0.0, 0.0])
        inner_entry = self.aggregate.setdefault(inner[1], [0, 0.0, 0.0]) if inner else None
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            entry, report = main_entry, on_result
            if inner_entry is not None and getattr(type(args[0]), inner[0]) is not traced:
                entry, report = inner_entry, None
            parent_id = None
            if record:
                for frame in reversed(stack):
                    if frame[1] is not None:
                        parent_id = frame[1]
                        break
                tracer._next_id += 1
                frame = [0.0, tracer._next_id]
            else:
                frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if record:
                    spans.append((frame[1], name, start, end, parent_id))
            if report is not None:
                report(tracer, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_function(self, module, attr: str, name: str, record: bool = False, on_result=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, record, on_result)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, traced)
                self._restore.append(lambda m=loaded, a=attr, o=original: setattr(m, a, o))

    def wrap_method(
        self, base: type, attr: str, name: str, record: bool = False, on_result=None, inner_name=None
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every loaded subclass that defines its own.

        With ``inner_name``, an override's explicit call of a base definition
        is counted under that name (see :meth:`_wrapper`).
        """
        inner = (attr, inner_name) if inner_name else None
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrapper(original, name, record, on_result, inner))
                self._restore.append(lambda c=cls, a=attr, o=original: setattr(c, a, o))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results --------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return int(self.aggregate.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.aggregate.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, *names: str) -> float:
        return sum(self.aggregate.get(name, (0, 0.0, 0.0))[2] for name in names)

    def self_time_sum(self) -> float:
        return sum(entry[2] for entry in self.aggregate.values())

    def write_jsonl(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", "run": self.run_id, **header}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "type": "span",
                            "run": self.run_id,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
            for name, (calls, total, self_s) in sorted(self.aggregate.items()):
                handle.write(
                    json.dumps(
                        {
                            "type": "aggregate",
                            "run": self.run_id,
                            "name": name,
                            "calls": int(calls),
                            "total_s": total,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )


def _count_rounds(tracer: Tracer, result) -> None:
    tracer.count("sim.rounds", result.rounds)


def _count_candidates(tracer: Tracer, result) -> None:
    tracer.count("maxmin.candidates_found", len(result))


def _count_nnz(tracer: Tracer, program) -> None:
    nnz = program.a_ub.nnz if program.a_ub is not None else 0
    if program.a_eq is not None:
        nnz += program.a_eq.nnz
    tracer.count("lp.nnz", nnz)


def install(tracer: Tracer, experiment_classes) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    from repro.analysis import fairness, overhead, starvation
    from repro.core.lp import formulation, solver, steady_state
    from repro.core.maxmin.balancer import MaxMinBalancer
    from repro.core.maxmin.ledger import PairCountLedger
    from repro.experiments import runner, scaling
    from repro.network import topologies
    from repro.network.generation import GenerationProcess
    from repro.protocols.base import SwappingProtocol
    from repro.runtime.sweep import SweepRunner

    # experiments
    for experiment_class in experiment_classes:
        tracer.wrap_method(experiment_class, "build_grid", "experiments.build_grid", record=True)
        tracer.wrap_method(experiment_class, "reduce", "experiments.reduce", record=True)
    # runtime
    tracer.wrap_method(SweepRunner, "run", "runtime.sweep", record=True)
    tracer.wrap_function(runner, "run_trial", "runtime.trial", record=True)
    # network
    tracer.wrap_function(runner, "build_topology", "network.topology", record=True)
    tracer.wrap_function(topologies, "topology_from_name", "network.topology", record=True)
    tracer.wrap_function(runner, "build_workload_requests", "network.workload", record=True)
    tracer.wrap_method(GenerationProcess, "pairs_for_round", "network.generation")
    # protocols / sim
    tracer.wrap_function(runner, "build_protocol", "protocols.build", record=True)
    tracer.wrap_method(SwappingProtocol, "run", "protocols.run", record=True, on_result=_count_rounds)
    tracer.wrap_method(MaxMinBalancer, "can_consume", "protocols.consume")
    tracer.wrap_method(MaxMinBalancer, "consume", "protocols.consume")
    # core/maxmin
    tracer.wrap_method(MaxMinBalancer, "__init__", "maxmin.setup")
    tracer.wrap_method(MaxMinBalancer, "run_round", "maxmin.round")
    # The incremental engine's candidate-set rebuilds call the naive
    # MaxMinBalancer.preferable_candidates explicitly; they are rebuild scans,
    # not further candidate queries.
    tracer.wrap_method(
        MaxMinBalancer,
        "preferable_candidates",
        "maxmin.candidates",
        on_result=_count_candidates,
        inner_name="maxmin.rebuild_scan",
    )
    tracer.wrap_method(MaxMinBalancer, "perform_swap", "maxmin.swap")
    tracer.wrap_method(PairCountLedger, "add", "maxmin.ledger")
    tracer.wrap_method(PairCountLedger, "remove", "maxmin.ledger")
    tracer.wrap_method(MaxMinBalancer, "balance_to_convergence", "maxmin.converge")
    # scaling: the seeded ledger is that experiment's workload
    tracer.wrap_function(scaling, "build_scaling_ledger", "network.workload", record=True)
    # analysis
    tracer.wrap_function(fairness, "balanced_fixed_point", "analysis.fairness", record=True)
    tracer.wrap_function(fairness, "count_imbalance", "analysis.fairness")
    tracer.wrap_function(overhead, "swap_overhead_from_result", "analysis.overhead", record=True)
    tracer.wrap_function(starvation, "starvation_report", "analysis.starvation", record=True)
    # core/lp
    tracer.wrap_method(
        formulation.PathObliviousFlowProgram, "build", "lp.build", record=True, on_result=_count_nnz
    )
    tracer.wrap_function(solver, "solve_linear_program", "lp.solve", record=True)
    tracer.wrap_function(steady_state, "compute_rates", "lp.check", record=True)
    tracer.wrap_function(steady_state, "verify_steady_state", "lp.check", record=True)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced execution (see BENCHMARK.json)."""
    sweep_s = tracer.total("runtime.sweep")
    run_s = tracer.total("protocols.run")
    rounds = tracer.counters.get("sim.rounds", 0)
    swaps = tracer.calls("maxmin.swap")
    candidate_calls = tracer.calls("maxmin.candidates")
    return {
        "experiments.build_grid_s": tracer.self_time("experiments.build_grid"),
        "experiments.reduce_s": tracer.self_time("experiments.reduce"),
        "runtime.trials": tracer.calls("runtime.trial"),
        "runtime.sweep_s": sweep_s,
        "runtime.overhead_s": sweep_s - tracer.total("runtime.trial") if sweep_s else 0.0,
        "network.topology_s": tracer.self_time("network.topology"),
        "network.workload_s": tracer.self_time("network.workload"),
        "network.generation_s": tracer.self_time("network.generation"),
        "network.generation_calls": tracer.calls("network.generation"),
        "protocols.build_s": tracer.self_time("protocols.build"),
        "protocols.run_s": run_s,
        "protocols.loop_self_s": tracer.self_time("protocols.run"),
        "protocols.consume_s": tracer.self_time("protocols.consume"),
        "protocols.consume_calls": tracer.calls("protocols.consume"),
        "sim.rounds": rounds,
        "sim.us_per_round": run_s * 1e6 / rounds if rounds else 0.0,
        "maxmin.setup_s": tracer.self_time("maxmin.setup"),
        "maxmin.balance_s": tracer.self_time("maxmin.round", "maxmin.converge"),
        "maxmin.rounds": tracer.calls("maxmin.round"),
        "maxmin.candidates_s": tracer.self_time("maxmin.candidates"),
        "maxmin.candidate_calls": candidate_calls,
        "maxmin.candidates_found": tracer.counters.get("maxmin.candidates_found", 0),
        "maxmin.rebuild_scans": tracer.calls("maxmin.rebuild_scan"),
        "maxmin.rebuild_scan_s": tracer.self_time("maxmin.rebuild_scan"),
        "maxmin.swaps": swaps,
        "maxmin.swap_s": tracer.self_time("maxmin.swap"),
        "maxmin.us_per_swap": tracer.total("maxmin.round") * 1e6 / swaps if swaps else 0.0,
        "maxmin.useful_ratio": swaps / candidate_calls if candidate_calls else 0.0,
        "maxmin.ledger_mutations": tracer.calls("maxmin.ledger"),
        "maxmin.ledger_s": tracer.self_time("maxmin.ledger"),
        "analysis.fairness_s": tracer.self_time("analysis.fairness"),
        "analysis.overhead_s": tracer.self_time("analysis.overhead"),
        "analysis.starvation_s": tracer.self_time("analysis.starvation"),
        "lp.programs": tracer.calls("lp.build"),
        "lp.build_s": tracer.self_time("lp.build"),
        "lp.solve_s": tracer.self_time("lp.solve"),
        "lp.check_s": tracer.self_time("lp.check"),
        "lp.nnz": tracer.counters.get("lp.nnz", 0),
    }

"""Shared pieces of the benchmark: paths, the pinned environment, the
machine fingerprint, result digests and small statistics helpers.

Nothing here imports the program under test; the parent benchmark process
stays light so that the work it measures runs in processes of its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one benchmark run: caches, sockets, traces, manifests.
WORK = os.path.join(ROOT, ".perfbench_work")

#: The seed whose inputs reproduce each experiment's registered default output.
DEFAULT_SEED = 1
#: The seed held out for checking claims: batch workloads switch to a second
#: reference input (with its own stored digest) only for this seed.
HELD_OUT_SEED = 7

#: Largest share of a traced wall time the wrapped layers may leave unexplained;
#: a larger gap means a blocking step runs outside every traced layer.
TRACE_GAP_TOLERANCE = 0.05

#: Variables that change what the program computes or adds work inside it:
#: REPRO_FULL turns figure4 into D in {1..4} and scaling into 200-1000 nodes,
#: REPRO_TELEMETRY adds spans inside the program, REPRO_WORKERS changes the
#: pool size, and REPRO_KERNELS is left to the program's own default.
CLEARED_ENV = ("REPRO_TELEMETRY", "REPRO_FULL", "REPRO_WORKERS", "REPRO_KERNELS")
#: Native thread pools held to one thread: the program runs with workers=1,
#: and idle BLAS/OpenMP threads otherwise take time on the second vCPU.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


#: Median readings of the host-speed probe's bursts (``perfbench/probe.py``),
#: in ms, on the 2-vCPU x86-64 VM the bounds were set on: a host that reads
#: these has speed 1.
PROBE_REFERENCE_MS = (4.6, 12.5)
#: Pause between two probe samples; a sample of both bursts takes ~17 ms.
PROBE_INTERVAL_S = 0.25


class HostProbe:
    """The host's speed over a run, read on a spare vCPU.

    On a shared VM the same execution's wall time drifts by up to ~40% over
    minutes as other tenants load the host (on the 2-vCPU VM the bounds were
    set on, lp-default's raw median went from 6.6 s to 8.5 s in a quarter of
    an hour), more than any bound may allow.  While the context is open, a
    probe process (``perfbench/probe.py``) times two fixed pure-Python
    bursts every :data:`PROBE_INTERVAL_S`, on the vCPU given to
    :meth:`move`, if any.  :meth:`factor` is the geometric mean over the
    bursts of their median reading over :data:`PROBE_REFERENCE_MS`; a time
    divided by it is in seconds of the reference host.  The probe follows
    that slow drift, not the 10-20% by which single executions differ, so a
    run reads it once over all its executions and takes medians for the rest.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, ...]] = []
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "HostProbe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), repr(PROBE_INTERVAL_S)],
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def move(self, cpu: Optional[int]) -> None:
        """Take the probe's next samples on ``cpu`` (anywhere for None)."""
        if cpu is not None:
            os.sched_setaffinity(self._proc.pid, {cpu})

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        output, _ = self._proc.communicate()
        for line in output.splitlines():
            fields = line.split()
            if len(fields) == len(PROBE_REFERENCE_MS):
                self.samples.append(tuple(float(field) for field in fields))

    def factor(self) -> float:
        ratios = [
            median([sample[index] for sample in self.samples]) / reference
            for index, reference in enumerate(PROBE_REFERENCE_MS)
        ]
        return math.prod(ratios) ** (1.0 / len(ratios))


def split_cpus(index: int) -> Tuple[Optional[int], Optional[int]]:
    """The vCPU for measured process ``index`` and the one for the probe meanwhile.

    Two vCPUs swap roles from one process to the next: a host neighbour
    slowing one of them for tens of seconds then falls on half the
    processes and half the probe's samples alike.  (None, None) with fewer
    than two vCPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[index % 2], cpus[(index + 1) % 2]


@contextlib.contextmanager
def pinned(cpu: Optional[int]):
    """Hold the calling thread, and every process it starts, to ``cpu`` (no-op for None)."""
    if cpu is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def source_tree_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def make_run_dir(label: str) -> str:
    """A fresh directory under the work area for one run's files."""
    path = os.path.join(WORK, "runs", f"{label}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def pinned_env(run_dir: str) -> Dict[str, str]:
    """The environment every measured process gets.

    The trial cache directory is a fresh empty directory of this run; no
    workload turns the trial cache on, so it only keeps any stray cache
    write inside the checkout.
    """
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env.update(SINGLE_THREAD_ENV)
    cache_dir = os.path.join(run_dir, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _package_version(name: str) -> Optional[str]:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _git_rev() -> str:
    """The commit of the checkout, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    try:
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def fingerprint(env: Dict[str, str]) -> Dict[str, Any]:
    """Machine and environment facts recorded next to every run's numbers."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _package_version("numpy"),
        "scipy": _package_version("scipy"),
        "git_rev": _git_rev(),
        "env": {
            key: env.get(key) for key in CLEARED_ENV + tuple(SINGLE_THREAD_ENV) + ("REPRO_CACHE_DIR",)
        },
    }


def compile_sources() -> None:
    """Byte-compile the package once, untimed, so no measured set-up pays for it."""
    import compileall

    compileall.compile_dir(SRC, quiet=1)


def canonical_digest(payload: Dict[str, Any], exclude_columns: Sequence[str] = ()) -> str:
    """SHA-256 of a result payload's canonical JSON, minus wall-clock columns."""
    if exclude_columns:
        payload = dict(payload)
        columns = list(payload["columns"])
        drop = [columns.index(name) for name in exclude_columns if name in columns]
        payload["columns"] = [c for i, c in enumerate(columns) if i not in drop]
        payload["rows"] = [[v for i, v in enumerate(row) if i not in drop] for row in payload["rows"]]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def run_child(args: List[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run ``perfbench/child.py`` in a fresh interpreter; return its JSON line.

    The launch instant is passed along so the child can report set-up time
    from before its interpreter started.
    """
    command = [sys.executable, os.path.join(HERE, "child.py"), "--launched-at"]
    launched_at = time.perf_counter()
    command.append(repr(launched_at))
    completed = subprocess.run(
        command + args, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {
            "ok": False,
            "error": f"child exited {completed.returncode}: {completed.stderr.strip()[-2000:]}",
        }
    return json.loads(lines[-1])


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def write_json(path: str, document: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


"""The serve-mix workload: an open-loop, seeded submission schedule against ``repro serve``.

The daemon runs its shipped defaults (Unix socket, 2 workers, queue depth
64, admission 10/s per client with a burst of 20).  One client process
holds at most two connections: the first carries every submission, the
second the health probes, the result fetches and (when traced) a poll of
the ``stats``, ``metrics`` and ``list`` verbs.

The schedule is drawn from the seed and sent on time whether or not
earlier submissions have finished (an open loop):

* regular users (distinct ``client`` ids) submit as a Poisson process at
  :data:`NOMINAL_RATE_HZ`: cold ``figure4 --smoke`` runs with fresh
  ``master_seed`` values, and repeats of earlier submissions, which the
  daemon answers from its memo or coalesces with a job still in flight;
* a fixed number of cold ``resilience --smoke`` jobs, one per about
  :data:`HEAVY_PERIOD_S`, so head-of-line blocking shows;
* one hot user sends bursts faster than its admission bucket refills, so
  the 429 path runs the same number of times in every run.

Latency runs from a submission's *due* time to its ``end`` event.  The
latency percentiles cover the regular users; a refused, failed or timed-out
regular submission counts as :data:`SUBMIT_TIMEOUT_S`, over any limit.
The hot user's refusals are the designed 429 share and are reported as the
reject rate instead.  Both percentiles are printed but carry no bound
(``serve.latency_p50_ms`` and ``serve.latency_p99_ms`` when traced): on a
2-vCPU VM the p50's spread was 29% of its median over ten seeds and 54%
over five runs of one seed, wider than any bound the benchmark may set; the
p99 has only a few samples beyond it in a run of this length.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import common

#: Regular users' offered submission rate, kept constant.  Set from a rate
#: ladder (``perfbench/capacity.py``, seed 1, 10 s per rate, 2-vCPU x86-64
#: VM) on the commit that introduced the benchmark.  Median backlog in the
#: first/last third of the window: 4/1 at 15/s, 1-2/3-4 at 30/s, 3/19 at
#: 45/s, 16/72 at 60/s; p99 0.4-0.7 s up to 30/s (a heavy job blocks a
#: worker), refusals and timeouts at 60/s.  The daemon saturates between
#: 30/s and 45/s.  At 15/s the p50 measures service rather than queueing:
#: its spread over five seeds was 17% there and 37% at 30/s.
NOMINAL_RATE_HZ = 15.0
#: Simulated regular users the Poisson stream is spread over (chosen): each
#: submits under 2/s, well inside its 10/s admission rate, so regular users
#: are never refused.
USERS = 8
#: Share of regular submissions that repeat an earlier one (chosen).  A repeat
#: is a memo hit or a coalesced job and ends far sooner than a cold one; with
#: cold submissions a clear majority, the p50 falls inside the cold latencies
#: rather than on the edge between the two groups.
REPEAT_SHARE = 0.25
#: About one cold heavy job per period (a whole number per window).
HEAVY_PERIOD_S = 7.5
#: The hot user sends bursts of cold jobs faster than its admission bucket
#: (burst 20, 10/s) refills, so about the last third of each burst is refused.
HOT_USER = "hot-user"
HOT_BURSTS = 2
HOT_BURST_SIZE = 30
HOT_BURST_GAP_S = 0.002
#: Longest a submission is waited for; also the latency a refused one counts as.
SUBMIT_TIMEOUT_S = 30.0
#: The generator is behind when the p99 of send minus due time exceeds this.
GENERATOR_LATE_BOUND_MS = 20.0
#: Set-up-only daemon spawns per run; ``setup_s`` is their median divided by
#: the host speed a :class:`common.HostProbe` read while they ran.
SETUP_SAMPLES = 5
#: Payloads checked against one-shot in-process runs of each submission's own
#: parameters, per kind of submission in the schedule.  A run whose schedule
#: holds fewer accepted submissions of a kind than its sample size fails.
CHECK_SAMPLE = {"cold": 16, "repeat": 8, "heavy": 1, "hot": 4}
#: Poll interval of the traced run's second connection.
POLL_INTERVAL_S = 0.25
SOCKET_NAME = "serve.sock"


class Connection:
    """One NDJSON connection to the daemon."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, message: Dict[str, Any]) -> None:
        self.sock.sendall((json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8"))

    def read(self) -> Optional[Dict[str, Any]]:
        line = self.reader.readline()
        return json.loads(line) if line else None

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.send(message)
        while True:
            reply = self.read()
            if reply is None:
                raise ConnectionError("serve daemon closed the connection")
            if "event" not in reply:
                return reply

    def close(self) -> None:
        # Shutting the socket down first wakes a thread blocked in read();
        # closing the buffered reader under it would wait for that read.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _proc_status(pid: int) -> Dict[str, float]:
    """VmRSS and VmHWM of a process, in MiB."""
    values = {}
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


class Daemon:
    """A ``repro serve`` subprocess on a Unix socket in the run directory."""

    def __init__(self, run_dir: str, env: Dict[str, str], cpu: Optional[int] = None):
        self.log = open(os.path.join(run_dir, "daemon.log"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", SOCKET_NAME],
            cwd=run_dir,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            if cpu is not None:
                # Before its imports finish, so every thread it starts inherits it.
                os.sched_setaffinity(self.proc.pid, {cpu})
            self.setup_s = self._wait_serving(started)
        except BaseException:
            self.stop()
            raise

    def _wait_serving(self, started: float) -> float:
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            try:
                connection = Connection(SOCKET_NAME)
            except OSError:
                time.sleep(0.005)
                continue
            try:
                state = connection.request({"op": "health"}).get("state")
            finally:
                connection.close()
            if state == "serving":
                return time.perf_counter() - started
            time.sleep(0.005)
        raise RuntimeError("serve daemon did not report serving within 60 s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Submission:
    __slots__ = (
        "index", "due", "user", "experiment", "params", "kind",
        "sent", "ack", "done", "job", "outcome", "category",
    )

    def __init__(self, index, due, user, experiment, params, kind):
        self.index = index
        self.due = due
        self.user = user
        self.experiment = experiment
        self.params = params
        self.kind = kind  # cold | repeat | heavy | hot
        self.sent = self.ack = self.done = None
        self.job = None
        self.outcome = None  # done | rejected | failed
        self.category = None  # cold | coalesced | hit (from the daemon's answer)


def build_schedule(seed: int, window: float, rate: float = NOMINAL_RATE_HZ) -> List[Submission]:
    """The seeded open-loop schedule over ``window`` seconds.

    Regular users submit ``rate`` per second in all.  Above the nominal rate
    there are more of them, so that no user's own rate comes nearer its
    admission limit than at the nominal rate.
    """
    rng = random.Random(seed)
    users = max(USERS, math.ceil(rate * USERS / NOMINAL_RATE_HZ))
    used_seeds = set()

    def fresh_seed() -> int:
        while True:
            value = rng.randrange(10**6, 10**9)
            if value not in used_seeds:
                used_seeds.add(value)
                return value

    slots = []
    t = rng.expovariate(rate)
    while t < window:
        slots.append((t, f"user-{rng.randrange(users)}", "repeat" if rng.random() < REPEAT_SHARE else "cold"))
        t += rng.expovariate(rate)
    # A fixed number of heavy jobs per window, so every run blocks as often.
    heavy_count = max(1, round(window / HEAVY_PERIOD_S))
    period = window / heavy_count
    phase = rng.uniform(0.0, period)
    for index in range(heavy_count):
        slots.append((phase + index * period, f"user-{rng.randrange(users)}", "heavy"))
    # The hot user's bursts overrun its admission bucket by the same count
    # every time: the bucket refills completely between bursts.
    period = window / HOT_BURSTS
    phase = rng.uniform(0.0, period - HOT_BURST_SIZE * HOT_BURST_GAP_S)
    for burst in range(HOT_BURSTS):
        for index in range(HOT_BURST_SIZE):
            slots.append((phase + burst * period + index * HOT_BURST_GAP_S, HOT_USER, "hot"))
    slots.sort()

    schedule: List[Submission] = []
    earlier: List[Submission] = []
    for due, user, kind in slots:
        if kind == "repeat" and earlier:
            source = earlier[rng.randrange(len(earlier))]
            experiment, params = source.experiment, source.params
        else:
            kind = "cold" if kind == "repeat" else kind
            experiment = "resilience" if kind == "heavy" else "figure4"
            params = {"smoke": True, "master_seed": fresh_seed()}
        submission = Submission(len(schedule), due, user, experiment, params, kind)
        schedule.append(submission)
        if kind in ("cold", "heavy"):
            earlier.append(submission)
    return schedule


class Collector:
    """Reads the submission connection: acks, refusals and ``end`` events."""

    def __init__(self, connection: Connection, schedule: List[Submission]):
        self.connection = connection
        self.schedule = schedule
        self.ended: Dict[str, tuple] = {}
        self.waiting: Dict[str, List[Submission]] = {}
        self.seen_jobs = set()
        self.finished = 0
        self.all_done = threading.Event()
        self.thread = threading.Thread(target=self._loop, name="perfbench-collector", daemon=True)

    def _finish(self, submission: Submission, when: float, outcome: str) -> None:
        submission.done = when
        submission.outcome = outcome
        self.finished += 1
        if self.finished == len(self.schedule):
            self.all_done.set()

    def _loop(self) -> None:
        while True:
            try:
                message = self.connection.read()
            except (OSError, ValueError):
                return
            if message is None:
                return
            now = time.perf_counter()
            if "event" in message:
                if message["event"] != "end":
                    continue
                job, state = message["job"], message.get("state")
                self.ended[job] = (now, state)
                for submission in self.waiting.pop(job, []):
                    self._finish(submission, now, "done" if state == "done" else "failed")
                continue
            submission = self.schedule[int(message["id"][2:])]
            submission.ack = now
            if not message.get("ok"):
                code = message.get("error", {}).get("code")
                self._finish(submission, now, "rejected" if code in (429, 503) else "failed")
                continue
            job = message["job"]
            submission.job = job
            if message.get("cached"):
                submission.category = "hit"  # its own end event follows the ack
                self.waiting.setdefault(job, []).append(submission)
                continue
            submission.category = "coalesced" if job in self.seen_jobs else "cold"
            self.seen_jobs.add(job)
            if job in self.ended:
                when, state = self.ended[job]
                self._finish(submission, now, "done" if state == "done" else "failed")
            else:
                self.waiting.setdefault(job, []).append(submission)


class Poller:
    """Traced runs: poll ``stats``, ``metrics`` and ``list`` on the second connection."""

    def __init__(self, connection: Connection):
        self.connection = connection
        self.stop = threading.Event()
        self.queue_depths: List[int] = []
        self.thread = threading.Thread(target=self._loop, name="perfbench-poller", daemon=True)

    def _loop(self) -> None:
        while not self.stop.wait(POLL_INTERVAL_S):
            stats = self.connection.request({"op": "stats"})["stats"]
            self.queue_depths.append(int(stats["queued"]))
            self.connection.request({"op": "metrics"})
            self.connection.request({"op": "list"})


def _warm_up(connection: Connection) -> None:
    """One job of each kind before the window, so lazy imports are not measured."""
    for experiment in ("figure4", "resilience"):
        reply = connection.request(
            {"op": "submit", "client": "warm-up", "experiment": experiment, "params": {"smoke": True}}
        )
        connection.request({"op": "result", "job": reply["job"], "wait": True, "timeout": SUBMIT_TIMEOUT_S})


def _check_payloads(
    connection: Connection, schedule: List[Submission], seed: int, run_dir: str
) -> Dict[str, Any]:
    """Fetch a fixed-size sample of served payloads for comparison with one-shot runs.

    The sample is drawn per kind of submission in the schedule, not from how
    the daemon answered, so a submission wrongly answered from the memo or
    coalesced onto another job is as likely to be checked as any other.
    """
    rng = random.Random(seed + 1)
    sample: List[Submission] = []
    short = []
    for kind, size in sorted(CHECK_SAMPLE.items()):
        pool = [s for s in schedule if s.kind == kind and s.job is not None]
        if len(pool) < size:
            short.append(f"{kind}: {len(pool)} accepted submissions, sample needs {size}")
        sample.extend(rng.sample(pool, min(size, len(pool))))
    served = []
    for submission in sample:
        reply = connection.request(
            {"op": "result", "job": submission.job, "wait": True, "timeout": SUBMIT_TIMEOUT_S}
        )
        served.append(common.canonical_digest(reply["result"]) if reply.get("ok") else None)
    jobs_path = os.path.join(run_dir, "reference-jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as handle:
        json.dump([{"experiment": s.experiment, "params": s.params} for s in sample], handle)
    return {"served": served, "jobs_path": jobs_path, "short_pools": short}


def _reference(jobs_path: str, trace_path: Optional[str], env) -> Dict[str, Any]:
    args = ["--mode", "reference", "--jobs", jobs_path]
    if trace_path:
        args += ["--trace", trace_path]
    return common.run_child(args, env, 120.0)


def run(
    seed: int,
    seconds: float,
    trace: bool,
    run_dir: str,
    env: Dict[str, str],
    rate: float = NOMINAL_RATE_HZ,
) -> Dict[str, Any]:
    window = float(seconds)
    schedule = build_schedule(seed, window, rate)
    previous_cwd = os.getcwd()
    os.chdir(run_dir)  # a relative socket path stays under the 108-byte limit
    daemon = collector = poller = None
    connections: List[Connection] = []
    try:
        # Set-up samples come from daemons held to one vCPU, with the probe on
        # the other (swapped from one to the next, as in the batch
        # workloads); the daemon that serves the traffic runs unpinned.
        setups = []
        with common.HostProbe() as host:
            for index in range(SETUP_SAMPLES):
                child_cpu, probe_cpu = common.split_cpus(index)
                host.move(probe_cpu)
                spawn = Daemon(run_dir, env, child_cpu)
                setups.append(spawn.setup_s)
                spawn.stop()
        host_factor = host.factor()
        daemon = Daemon(run_dir, env)
        submit_connection = Connection(SOCKET_NAME)
        side_connection = Connection(SOCKET_NAME)
        connections = [submit_connection, side_connection]
        _warm_up(side_connection)
        rss_after_warm_up = _proc_status(daemon.proc.pid)["VmRSS"]

        collector = Collector(submit_connection, schedule)
        collector.thread.start()
        poller = Poller(side_connection) if trace else None
        if poller is not None:
            poller.thread.start()

        start = time.perf_counter() + 0.05
        backlog = []  # (due, outstanding) at each send
        for submission in schedule:
            due = start + submission.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submission.sent = time.perf_counter()
            submit_connection.send(
                {
                    "op": "submit",
                    "id": f"s-{submission.index}",
                    "client": submission.user,
                    "experiment": submission.experiment,
                    "params": submission.params,
                    "stream": True,
                }
            )
            backlog.append((submission.due, submission.index + 1 - collector.finished))
        collector.all_done.wait(SUBMIT_TIMEOUT_S)
        if poller is not None:
            poller.stop.set()
            poller.thread.join()
        memory = _proc_status(daemon.proc.pid)
        stats = side_connection.request({"op": "stats"})["stats"]
        jobs_retained = len(side_connection.request({"op": "list"})["jobs"])
        check = _check_payloads(side_connection, schedule, seed, run_dir)
    finally:
        if poller is not None:
            poller.stop.set()
        for connection in connections:
            connection.close()
        for thread in (collector, poller):
            if thread is not None:
                thread.thread.join(timeout=10)
        if daemon is not None:
            daemon.stop()
        os.chdir(previous_cwd)

    trace_path = None
    if trace:
        # The daemon is not traced (REPRO_TELEMETRY stays unset): the layers
        # below `serve` are traced on the checked sample of the same job mix,
        # computed in-process.
        trace_path = os.path.join(common.WORK, "traces", f"{os.path.basename(run_dir)}.jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    reference = _reference(check["jobs_path"], trace_path, env)
    return _report(
        schedule, start, backlog, setups, host_factor, memory, rss_after_warm_up, stats,
        jobs_retained, check, reference, poller,
    )


def _report(schedule, start, backlog, setups, host_factor, memory, rss_after_warm_up, stats,
            jobs_retained, check, reference, poller) -> Dict[str, Any]:
    timeout_ms = SUBMIT_TIMEOUT_S * 1000.0
    regular = [s for s in schedule if s.user != HOT_USER]
    latencies = [
        (s.done - (start + s.due)) * 1000.0 if s.outcome == "done" else timeout_ms for s in regular
    ]
    rejected = sum(1 for s in schedule if s.outcome == "rejected")
    failed_requests = sum(1 for s in schedule if s.outcome in ("failed", None))
    mismatches = _mismatches(check["served"], reference.get("digests"))
    if "traced_digests" in reference:
        mismatches += _mismatches(check["served"], reference["traced_digests"])
    late_ms = [(s.sent - (start + s.due)) * 1000.0 for s in schedule]
    generator_late_p99 = common.percentile(late_ms, 99)
    window = max(s.due for s in schedule)
    first = [n for due, n in backlog if due < window / 3]
    last = [n for due, n in backlog if due >= 2 * window / 3]
    # Medians, so that a hot burst or heavy job draining in one third does
    # not read as a backlog that grows.
    backlog_first = common.median(first) if first else 0.0
    backlog_last = common.median(last) if last else 0.0
    finished = [s.done for s in schedule if s.done is not None]

    generator_ok = generator_late_p99 <= GENERATOR_LATE_BOUND_MS
    failed = failed_requests + mismatches
    notes = {
        "submissions": len(schedule),
        "regular_submissions": len(regular),
        "latency_samples_beyond_p99": len(regular) - int(0.99 * len(regular)),
        "payloads_checked": len(check["served"]),
        "payload_mismatches": mismatches,
        "generator_valid": generator_ok,
        "setup_samples": len(setups),
    }
    if not reference.get("ok"):
        notes["reference_error"] = reference.get("error")
    if check["short_pools"]:
        notes["short_check_pools"] = check["short_pools"]
    if not generator_ok:
        notes["invalid"] = (
            f"generator p99 lateness {generator_late_p99:.1f} ms exceeds "
            f"{GENERATOR_LATE_BOUND_MS:g} ms; this run is not a measurement"
        )
    report: Dict[str, Any] = {
        "correct": failed == 0 and generator_ok and not check["short_pools"],
        "attempted": len(schedule) + len(check["served"]),
        "failed": failed,
        "notes": notes,
        "metrics": {
            "setup_s": common.metric(common.median(setups) / host_factor, "s"),
            "wall_s": common.metric(max(finished) - start, "s"),
            "peak_rss_mb": common.metric(memory["VmHWM"], "MiB"),
        },
        "extra": {
            "host_factor": host_factor,
            "raw_setup_s": common.median(setups),
            "latency_p50_ms": common.percentile(latencies, 50),
            "latency_p99_ms": common.percentile(latencies, 99),
            "error_rate": failed / (len(schedule) + len(check["served"])),
            "reject_rate": rejected / len(schedule),
            "rss_growth_mb": memory["VmRSS"] - rss_after_warm_up,
            "generator_late_ms_p99": generator_late_p99,
            "outstanding_at_end": sum(1 for s in schedule if s.done is None),
            "backlog_first_third": backlog_first,
            "backlog_last_third": backlog_last,
        },
    }
    if poller is not None and reference.get("ok"):
        report["layers"] = _layers(schedule, stats, jobs_retained, poller, reference, report)
        gap_share = report["layers"]["bench.untraced_share"]
        if gap_share > common.TRACE_GAP_TOLERANCE:
            report["correct"] = False
            notes["trace_gap"] = f"wrapped layers explain only {1 - gap_share:.1%} of the traced wall time"
    return report


def _mismatches(served: List[Optional[str]], digests: Optional[List[str]]) -> int:
    if digests is None or len(digests) != len(served):
        return len(served)
    return sum(1 for mine, theirs in zip(served, digests) if mine is None or mine != theirs)


def _layers(schedule, stats, jobs_retained, poller, reference, report) -> Dict[str, float]:
    acked = [(s.ack - s.sent) * 1000.0 for s in schedule if s.ack is not None]
    cold = [(s.done - s.ack) * 1000.0 for s in schedule if s.category == "cold" and s.outcome == "done"]
    hits = [(s.done - s.ack) * 1000.0 for s in schedule if s.category == "hit" and s.outcome == "done"]
    looked_up = stats["result_cache_hits"] + stats["coalesced"] + stats["result_cache_misses"]
    traced_wall = reference["traced_wall_s"]
    layers = dict(reference["layers"])
    layers["repro.import_s"] = reference["import_s"]
    layers["bench.traced_wall_s"] = traced_wall
    layers["bench.untraced_share"] = (traced_wall - reference["traced_self_sum_s"]) / traced_wall
    layers["bench.trace_overhead"] = traced_wall / reference["wall_s"]
    layers.update(
        {
            "serve.ack_ms_p50": common.percentile(acked, 50) if acked else 0.0,
            "serve.ack_ms_p99": common.percentile(acked, 99) if acked else 0.0,
            "serve.cold_ms_p50": common.percentile(cold, 50) if cold else 0.0,
            "serve.hit_ms_p50": common.percentile(hits, 50) if hits else 0.0,
            "serve.memo_hits": stats["result_cache_hits"],
            "serve.coalesced": stats["coalesced"],
            "serve.computed": stats["completed"],
            "serve.hit_ratio": stats["result_cache_hits"] / looked_up if looked_up else 0.0,
            "serve.rejected_admission": stats["rejected_admission"],
            "serve.rejected_queue_full": stats["rejected_queue_full"],
            "serve.queue_depth_max": max(poller.queue_depths) if poller.queue_depths else 0,
            "serve.jobs_retained": jobs_retained,
            "serve.latency_p50_ms": report["extra"]["latency_p50_ms"],
            "serve.latency_p99_ms": report["extra"]["latency_p99_ms"],
            "serve.reject_rate": report["extra"]["reject_rate"],
            "serve.rss_growth_mb": report["extra"]["rss_growth_mb"],
            "serve.generator_late_ms_p99": report["extra"]["generator_late_ms_p99"],
        }
    )
    return layers

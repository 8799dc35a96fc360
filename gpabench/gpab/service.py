"""The two service workloads: a ``gpa-advise serve --workers 2`` daemon on
a warm cache, driven through ``ServiceClient``.

``service_closed_loop``: one client sends the 52 requests one at a time,
each as soon as the previous one is done, in a seed-shuffled order per
pass, polling its job every 2 ms.

``service_open_loop``: one generator process with two threads, each
holding at most one connection: a sender that submits each request at its
due time on a seeded Poisson schedule, whether or not earlier ones have
finished, and a poller that watches every outstanding job.  A request's
latency runs from its *due* time to the moment the poller sees it done,
so a stall in the sender counts against every request it delays; how
late the sender ran is reported as ``generator.lag_ms``.  The run offers
a low and a high fixed rate, then steps the rate up until the tail
latency leaves the limit or a backlog remains, and interpolates
``max_rate_rps`` between the last step that held and the first that did
not.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from gpab import mix
from gpab.check import OutputCheck, canonical_bytes, load_expected
from gpab.report import Outcome, add_latencies, add_rate, add_time, peak_rss_mb
from gpab.spans import SpanRecorder
from gpab.host import HostSpeed, scaled_starts
from gpab.stats import median, tail

WORKERS = 2
#: Fixed offered rates (requests/s): about half and 85% of the 30/s the
#: daemon sustains on a 2-core x86 host with two workers.
LOW_RATE = 15.0
HIGH_RATE = 25.0
#: Each search step offers this factor more than the step before it.
SEARCH_FACTOR = 1.1
SEARCH_STEPS = 4
#: The tail latency (and drain time) a step must stay within to hold.
#: The slowest warm requests (rodinia/myocyte) run for about 0.7 s alone.
LATENCY_LIMIT_MS = 1000.0
#: The poller's pause between sweeps over the outstanding jobs.
POLL_INTERVAL = 0.002
#: A job not done this long after its due time has timed out.
JOB_TIMEOUT = 60.0
#: Calibration samples taken before the open loop and after each step.
STEP_SAMPLES = 50
#: Daemon starts timed for ``setup_s``; the last one serves the run.
SETUP_STARTS = 3


# ----------------------------------------------------------------------
# The daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One ``gpa-advise serve`` subprocess with a warm cache."""

    def __init__(self, root: Path, workdir: Path, cache_dir: Path, number: int):
        self.ready_file = workdir / f"ready-{number}.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.advisor.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", str(WORKERS),
                "--cache-dir", str(cache_dir),
                "--ready-file", str(self.ready_file),
            ],
            cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.url: Optional[str] = None

    def wait_serving(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/v1/healthz`` reports serving."""
        from repro.service import ServiceClient
        from repro.service.errors import ServiceError

        deadline = time.monotonic() + timeout
        while self.url is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            try:
                host, port, _pid = self.ready_file.read_text().split()
                self.url = f"http://{host}:{port}"
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not become ready") from None
                time.sleep(0.005)
        client = ServiceClient(self.url, timeout=10.0)
        while True:
            try:
                if client.healthz().get("state") == "serving":
                    return time.perf_counter() - self.started
            except ServiceError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never reported serving")
            time.sleep(0.005)

    def tree_peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon and its worker processes."""
        total = 0.0
        for pid in [self.process.pid] + _children(self.process.pid):
            total += _vm_hwm_mb(pid)
        return total

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            # Anything of the daemon's session still alive (a pool worker
            # orphaned by a hard kill) goes with it.
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _tasks(pid: int) -> List[int]:
    try:
        return [int(task) for task in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return []


def pin_workers(daemon: Daemon) -> Optional[int]:
    """Put the daemon's pool workers on one core and the rest of the
    daemon and this process on the others; returns the workers' core, or
    ``None`` on a one-core host."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    core, rest = cores[-1], set(cores[:-1])
    for worker in _children(daemon.process.pid):
        for task in _tasks(worker):
            os.sched_setaffinity(task, {core})
    for task in _tasks(daemon.process.pid):
        os.sched_setaffinity(task, rest)
    os.sched_setaffinity(0, rest)
    return core


def sample_on(speed, core: Optional[int]) -> None:
    """One calibration sample on ``core`` (where this process is, if None)."""
    if core is None:
        speed.sample()
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        speed.sample()
    finally:
        os.sched_setaffinity(0, allowed)


def _children(pid: int) -> List[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as stream:
                found.extend(int(child) for child in stream.read().split())
        except OSError:
            continue
    return found


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Requests in flight
# ----------------------------------------------------------------------
@dataclass
class Sent:
    """One request sent to the daemon; times are ``perf_counter`` values."""

    key: str
    due: float
    sent: float
    job_id: Optional[str] = None
    done: Optional[float] = None
    polls: int = 0
    view: object = None
    error: Optional[str] = None
    #: Closed loop: ``done - due`` in reference-host seconds.
    scaled: Optional[float] = None


@dataclass
class Step:
    """One open-loop step at a fixed offered rate, or one closed-loop pass
    (rate 0)."""

    name: str
    rate: float
    requests: List[Sent] = field(default_factory=list)
    drain_s: float = 0.0

    @property
    def latencies(self) -> List[float]:
        return [item.done - item.due for item in self.requests
                if item.done is not None and item.error is None]

    @property
    def refused(self) -> int:
        return sum(1 for item in self.requests if item.error is not None)

    def tail_ms(self) -> float:
        latencies = self.latencies
        return tail(latencies)[1] * 1e3 if latencies else float("inf")

    def holds(self) -> bool:
        return (
            not self.refused
            and self.tail_ms() <= LATENCY_LIMIT_MS
            and self.drain_s * 1e3 <= LATENCY_LIMIT_MS
        )


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------
def run_step(client, requests: Dict[str, object], schedule: List[Tuple[float, str]],
             name: str, rate: float, recorder: Optional[SpanRecorder]) -> Step:
    """Offer ``schedule`` to the daemon and wait until every job settled."""
    from repro.service.errors import ServiceError

    step = Step(name, rate)
    outstanding: Dict[str, Sent] = {}
    lock = threading.Lock()
    sending_done = threading.Event()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        try:
            for offset, key in schedule:
                due = origin + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                item = Sent(key, due, time.perf_counter())
                try:
                    item.job_id = client.submit(requests[key])
                except ServiceError as exc:
                    item.error = f"refused: {type(exc).__name__}"
                    item.done = time.perf_counter()
                with lock:
                    step.requests.append(item)
                    if item.job_id is not None:
                        outstanding[item.job_id] = item
        finally:
            sending_done.set()

    def poller() -> None:
        while True:
            with lock:
                pending = list(outstanding.values())
            if not pending:
                if sending_done.is_set():
                    with lock:
                        if not outstanding:
                            return
                time.sleep(POLL_INTERVAL)
                continue
            for item in pending:
                try:
                    view = client.job(item.job_id)
                except ServiceError as exc:
                    item.error = f"poll failed: {type(exc).__name__}"
                    view = None
                item.polls += 1
                now = time.perf_counter()
                if view is not None and not view.terminal and now - item.due < JOB_TIMEOUT:
                    continue
                if view is None or not view.terminal:
                    item.error = item.error or "timed out"
                item.done = now
                item.view = view
                with lock:
                    del outstanding[item.job_id]
            time.sleep(POLL_INTERVAL)

    threads = [
        threading.Thread(target=_traced, args=(recorder, fn)) if recorder is not None
        else threading.Thread(target=fn)
        for fn in (sender, poller)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    last_due = origin + (schedule[-1][0] if schedule else 0.0)
    finished = [item.done for item in step.requests if item.done is not None]
    step.drain_s = max(0.0, max(finished, default=last_due) - last_due)
    return step


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def run_pass(client, requests: Dict[str, object], order: List[str], name: str,
             recorder: Optional[SpanRecorder],
             before_each: Optional[Callable[[], None]] = None) -> Step:
    """One client sends ``order``, each request as soon as the previous
    one is done, calling ``before_each`` before sending it."""
    from repro.service.errors import ServiceError

    step = Step(name, 0.0)
    span = recorder.open("generator.client") if recorder is not None else None
    try:
        for key in order:
            if before_each is not None:
                before_each()
            started = time.perf_counter()
            item = Sent(key, started, started)
            try:
                item.job_id = client.submit(requests[key])
                while True:
                    view = client.job(item.job_id)
                    item.polls += 1
                    if view.terminal:
                        item.view = view
                        break
                    if time.perf_counter() - started > JOB_TIMEOUT:
                        item.error = "timed out"
                        break
                    time.sleep(POLL_INTERVAL)
            except ServiceError as exc:
                item.error = f"refused: {type(exc).__name__}"
            item.done = time.perf_counter()
            step.requests.append(item)
    finally:
        if span is not None:
            recorder.close(span)
    return step


def _traced(recorder: SpanRecorder, fn) -> None:
    """Run a generator thread under one span, so client-side layer spans
    of that thread nest under it."""
    span = recorder.open(f"generator.{fn.__name__}")
    try:
        fn()
    finally:
        recorder.close(span)


# ----------------------------------------------------------------------
def run(root: Path, outcome: Outcome, seed: int, seconds: float, trace: bool,
        workdir: Path, recorder: Optional[SpanRecorder]) -> None:
    """Either service workload: start the daemon, prepare, drive it;
    fills ``outcome``."""
    from repro.service import ServiceClient

    workload = outcome.workload
    keys = mix.sweep_keys()
    requests = mix.build_requests(keys)
    checker = OutputCheck(load_expected())
    cache_dir = workdir / "cache"

    daemons: List[Daemon] = []

    def start() -> float:
        if daemons:
            daemons[-1].stop()
        daemons.append(Daemon(root, workdir, cache_dir, len(daemons)))
        return daemons[-1].wait_serving()

    try:
        setup_scaled, setup_raw = scaled_starts(start, SETUP_STARTS)
        daemon = daemons[-1]
        client = ServiceClient(daemon.url, timeout=30.0, rate_limit_patience=0.0)
        # Preparation: the daemon fills its cache with every request, and
        # each worker resolves the registry on its first job.  The results
        # are checked like every later one.
        job_ids = [client.submit(requests[key]) for key in keys]
        for key, job_id in zip(keys, job_ids):
            view = client.wait(job_id, timeout=JOB_TIMEOUT, poll_interval=0.01)
            if view.result is None:
                checker.checked += 1
                checker.mismatches.append(f"{key}: warm-up job {view.state}")
            else:
                checker.check(key, view.result)
        stats_before = client.stats()
        if workload == "service_open_loop":
            steps = _drive_open(client, requests, keys, seed, seconds, trace, recorder,
                                outcome.speed)
        else:
            steps = _drive_closed(daemon, client, requests, keys, seed, seconds, trace,
                                  recorder, outcome.speed)
        stats_after = client.stats()
        daemon_rss = daemon.tree_peak_rss_mb()
    finally:
        for daemon in daemons:
            daemon.stop()

    _check_outputs(outcome, steps, checker, recorder)
    if workload == "service_open_loop":
        _score_open(outcome, steps, trace)
    else:
        _score_closed(outcome, steps)
    add_time(outcome, "setup_s", median(setup_scaled), median(setup_raw))
    outcome.note(f"setup_s is the median of {len(setup_scaled)} daemon starts")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb() + daemon_rss, "MB")
    outcome.note("peak_rss_mb adds the daemon and its workers to the generator")
    service_layers = _service_layers(steps, stats_before, stats_after)
    if trace:
        from gpab.layers import layer_metrics

        outcome.layers.update(layer_metrics(recorder, service_layers))
        outcome.layers["tracing.overhead_ratio"] = (_overhead(workload, steps), "ratio")
    else:
        for name, (value, unit) in service_layers.items():
            outcome.note(f"{name} = {value:.6g} {unit}")


def _drive_open(client, requests, keys, seed, seconds, trace, recorder, speed) -> List[Step]:
    """Fixed-rate steps, then the rate search.  Host speed is sampled
    between steps only: a sample during a step would stall the generator."""
    from gpab.layers import LayerTracer

    for _ in range(STEP_SAMPLES):
        speed.sample()

    # Rounds of all 52 requests per step, sized from the run budget.
    rounds = max(1, round(seconds / 5.0))
    fixed = [("low", LOW_RATE, rounds), ("high", HIGH_RATE, rounds)]
    steps: List[Step] = []
    if trace:
        # The untraced low step is the overhead baseline.
        steps.append(run_step(client, requests, mix.arrivals(keys, seed, "low", LOW_RATE, rounds),
                              "low", LOW_RATE, None))
        with LayerTracer(recorder):
            for name, rate, count in fixed:
                steps.append(run_step(client, requests,
                                      mix.arrivals(keys, seed, name, rate, count),
                                      f"{name}.traced", rate, recorder))
        return steps
    search = [
        (f"search{index}", HIGH_RATE * SEARCH_FACTOR ** index, max(1, round(seconds / 20.0)))
        for index in range(1, SEARCH_STEPS + 1)
    ]
    for name, rate, count in fixed + search:
        step = run_step(client, requests, mix.arrivals(keys, seed, name, rate, count),
                        name, rate, None)
        steps.append(step)
        for _ in range(STEP_SAMPLES):
            speed.sample()
        if name != "low" and not step.holds():
            break
    return steps


def _drive_closed(daemon, client, requests, keys, seed, seconds, trace, recorder,
                  speed) -> List[Step]:
    """The closed-loop passes.  Host speed is sampled before each request,
    while the workers are idle (a sample taken while one runs would
    compete with it): ``speed`` on the workers' core, and a second probe
    on the core of the client and the daemon's other threads."""
    from gpab.inline import passes_for
    from gpab.layers import LayerTracer

    workers_core = pin_workers(daemon)
    client_speed = HostSpeed()

    def sample() -> None:
        sample_on(speed, workers_core)
        client_speed.sample()

    steps: List[Step] = []
    for index in range(passes_for("service_closed_loop", seconds)):
        # As inline: a traced run alternates untraced and traced passes,
        # and host speed is sampled in the untraced ones.
        traced = trace and index % 2 == 1
        order = mix.pass_order(keys, seed, "service_closed_loop", index)
        if traced:
            with LayerTracer(recorder):
                steps.append(run_pass(client, requests, order, f"pass{index}.traced",
                                      recorder))
        else:
            steps.append(run_pass(client, requests, order, f"pass{index}", None, sample))
    sample()
    for step in steps:
        for item in step.requests:
            if not step.name.endswith(".traced") and item.view is not None:
                item.scaled = _scaled(item, speed, client_speed)
    return steps


def _scaled(item: Sent, workers: HostSpeed, client: HostSpeed) -> float:
    """A closed-loop request's time in reference-host seconds: the time
    the job ran for scaled by the samples of the workers' core just
    before and after it, the rest by those of the client's core."""
    latency = item.done - item.due
    ran = min(latency, item.view.raw.get("ran_seconds") or 0.0)
    return (ran * workers.factor_around(item.due, item.done)
            + (latency - ran) * client.factor_around(item.due, item.done))


def _check_outputs(outcome: Outcome, steps: List[Step], checker: OutputCheck,
                   recorder: Optional[SpanRecorder]) -> None:
    """Every daemon result must match its digest.  The digests were
    recorded from inline sessions, so a match is byte identity with the
    inline result of the same request."""
    wire_bytes = 0
    for step in steps:
        counted = not step.name.startswith("search")
        for item in step.requests:
            result = item.view.result if item.view is not None else None
            if item.error is not None or result is None:
                # Refusals and time-outs are failures, except in a search
                # step, where they only end the search.
                if counted:
                    checker.checked += 1
                    checker.mismatches.append(f"{item.key}: {item.error or 'no result'}")
                continue
            data = canonical_bytes(result)
            if step.name.endswith(".traced"):
                wire_bytes += len(data)
            checker.check(item.key, result, data)
    if recorder is not None:
        recorder.count("wire.bytes", wire_bytes)
    outcome.attempted = checker.checked
    outcome.failed = len(checker.mismatches)
    outcome.mismatches = checker.mismatches


def _score_open(outcome: Outcome, steps: List[Step], trace: bool) -> None:
    # End-to-end numbers come from the untraced fixed-rate steps only.
    by_name = {step.name: step for step in steps}
    measured = [by_name[name] for name in ("low", "high") if name in by_name]
    # Speed was sampled between steps only (a sample during a step would
    # stall the generator), so times scale by the run's median sample.
    factor = outcome.speed.factor
    for name, suffix in (("low", ""), ("high", ".high")):
        if name in by_name:
            latencies = by_name[name].latencies
            add_latencies(outcome, [value * factor for value in latencies], latencies, suffix)
    completed = sum(len(step.latencies) for step in measured)
    wall = sum(_wall(step) for step in measured)
    add_rate(outcome, "requests_per_s", completed, wall * factor, wall, "1/s")
    if not trace:
        outcome.metrics["max_rate_rps"] = (_max_rate(outcome, steps), "1/s")
    for step in steps:
        outcome.note(
            f"step {step.name}: offered {step.rate:.2f}/s, {len(step.requests)} requests, "
            f"tail {step.tail_ms():.1f} ms, drain {step.drain_s * 1e3:.1f} ms, "
            f"refused {step.refused}, {'holds' if step.holds() else 'fails'}"
        )


def _score_closed(outcome: Outcome, steps: List[Step]) -> None:
    measured = [item for step in steps if not step.name.endswith(".traced")
                for item in step.requests if item.done is not None and item.error is None]
    scaled = [item.scaled for item in measured]
    raw = [item.done - item.due for item in measured]
    add_latencies(outcome, scaled, raw)
    add_rate(outcome, "requests_per_s", len(scaled), sum(scaled), sum(raw), "1/s")
    outcome.note(f"{len(steps)} passes x {len(steps[0].requests)} requests, "
                 "one client, closed loop")


def _wall(step: Step) -> float:
    """From the first request's due time to the last one's completion."""
    return max(item.done for item in step.requests) - min(item.due for item in step.requests)


def _overhead(workload: str, steps: List[Step]) -> float:
    """Traced against untraced: median latency at the low rate for the
    open loop, mean pass time for the closed loop (raw times: both sides
    ran on the same host within seconds of each other)."""
    if workload == "service_open_loop":
        by_name = {step.name: step for step in steps}
        untraced = median(by_name["low"].latencies)
        return (median(by_name["low.traced"].latencies) - untraced) / untraced
    plain = [sum(step.latencies) for step in steps if not step.name.endswith(".traced")]
    traced = [sum(step.latencies) for step in steps if step.name.endswith(".traced")]
    untraced = sum(plain) / len(plain)
    return (sum(traced) / len(traced) - untraced) / untraced


def _max_rate(outcome: Outcome, steps: List[Step]) -> float:
    """Interpolate, on the observed tail, the rate at which it reaches the
    limit between the last step that held and the first that did not."""
    held = None
    for step in steps:
        if step.holds():
            held = step
            continue
        if held is None:
            outcome.note("max_rate_rps: even the low rate misses the limit")
            return 0.0
        low_tail, high_tail = held.tail_ms(), min(step.tail_ms(), 1e9)
        share = (LATENCY_LIMIT_MS - low_tail) / max(high_tail - low_tail, 1e-9)
        return held.rate + min(1.0, max(0.0, share)) * (step.rate - held.rate)
    outcome.note("max_rate_rps: every step held; the value is a lower bound")
    return held.rate


def _service_layers(steps: List[Step], before: dict, after: dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers from job views, ``/v1/stats`` and the generator."""
    views = [item.view.raw for step in steps for item in step.requests
             if item.view is not None]
    waited = [view["waited_seconds"] * 1e3 for view in views
              if view.get("waited_seconds") is not None]
    ran = [view["ran_seconds"] * 1e3 for view in views if view.get("ran_seconds") is not None]
    lags = [(item.sent - item.due) * 1e3 for step in steps for item in step.requests]
    jobs = sum(len(step.requests) for step in steps)
    polls = sum(item.polls for step in steps for item in step.requests)
    submitted = after["jobs_submitted"] - before["jobs_submitted"]
    coalesced = after["jobs_coalesced"] - before["jobs_coalesced"]
    cache_after, cache_before = after.get("cache") or {}, before.get("cache") or {}
    hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    lookups = hits + cache_after.get("misses", 0) - cache_before.get("misses", 0)
    return {
        "service.queue_wait_ms.p50": (median(waited) if waited else 0.0, "ms"),
        "service.queue_wait_ms.tail": (tail(waited)[1] if waited else 0.0, "ms"),
        "service.run_ms.p50": (median(ran) if ran else 0.0, "ms"),
        "service.run_ms.tail": (tail(ran)[1] if ran else 0.0, "ms"),
        "service.http_calls": (jobs + polls, "count"),
        "service.polls_per_job": (polls / jobs if jobs else 0.0, "count"),
        "service.coalesced_ratio": (coalesced / submitted if submitted else 0.0, "ratio"),
        "service.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "service.rejected": (sum(step.refused for step in steps), "count"),
        "generator.lag_ms": (tail(lags)[1] if lags else 0.0, "ms"),
    }

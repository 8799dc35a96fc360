"""The three inline workloads: ``sweep_cold``, ``sweep_warm`` and
``whole_gpu_hierarchy``.

Each is a closed loop through one ``AdvisingSession``: one request at a
time, the next sent when the previous one returns, in a seed-shuffled
order per pass.  A run makes a fixed number of passes, sized from
``--seconds`` so that every run of a workload times the same work.
"""

from __future__ import annotations

import bisect
import gc
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from gpab import mix
from gpab.check import OutputCheck, load_expected
from gpab.layers import LayerTracer, layer_metrics
from gpab.report import Outcome, add_latencies, add_rate, peak_rss_mb
from gpab.spans import SpanRecorder

#: Seconds one pass takes at the speed of the commit that defined the
#: benchmark (2-core x86 host, Python 3.11): the pass count of a run is
#: ``--seconds`` divided by this, so every run times the same work.
NOMINAL_PASS_SECONDS = {
    "sweep_cold": 5.0,
    "sweep_warm": 1.8,
    "whole_gpu_hierarchy": 1.9,
    "service_closed_loop": 1.9,
}


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_SECONDS[workload]))


def workload_keys(workload: str) -> List[str]:
    return mix.gpu_keys() if workload == "whole_gpu_hierarchy" else mix.sweep_keys()


def build_session(workload: str, cache_dir: Optional[Path]):
    from repro import AdvisingSession

    if workload == "whole_gpu_hierarchy":
        return AdvisingSession(
            sample_period=mix.SAMPLE_PERIOD, cache=None, jobs=1,
            simulation_scope="whole_gpu", memory_model="hierarchy",
        )
    return AdvisingSession(
        sample_period=mix.SAMPLE_PERIOD, cache=str(cache_dir), jobs=1,
        simulation_scope="single_wave", memory_model="flat",
    )


class ProfileClock:
    """Host time and simulated SM cycles spent in ``Profiler.profile``.

    The only probe an untraced run installs, and only on the workloads
    that simulate; it adds two clock reads per request.
    """

    def __init__(self):
        #: ``(start, end)`` ``perf_counter`` readings of every call.
        self.calls: List[Tuple[float, float]] = []
        self.cycles = 0
        self._original = None

    def __enter__(self) -> "ProfileClock":
        from repro.sampling.profiler import Profiler

        original = self._original = Profiler.profile
        clock = self

        def timed(profiler, *args, **kwargs):
            started = time.perf_counter()
            profiled = original(profiler, *args, **kwargs)
            clock.calls.append((started, time.perf_counter()))
            simulation = profiled.simulation
            clock.cycles += getattr(simulation, "simulated_sm_cycles", simulation.wave_cycles)
            return profiled

        Profiler.profile = timed
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.sampling.profiler import Profiler

        Profiler.profile = self._original


class GcPauses:
    """Pauses of the cyclic garbage collector, timed through ``gc.callbacks``.

    A collection runs inside whichever request allocates past the
    collector's threshold, and lasts as long as the whole heap takes to
    scan, so which request pays for it depends on the seed's order, not
    on the request.  Latencies leave the pauses out; request rates keep
    them, and ``gc_pause_share`` reports them.
    """

    def __init__(self):
        self.ends: List[float] = []
        self._spent: List[float] = [0.0]
        self._began = 0.0

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, _info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._began = now
        else:
            self.ends.append(now)
            self._spent.append(self._spent[-1] + now - self._began)

    def within(self, start: float, end: float) -> float:
        """Seconds of collection between two ``perf_counter`` readings."""
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_left(self.ends, end)
        return self._spent[last] - self._spent[first]


def prepare_warm_cache(session, requests: Dict[str, object], checker: OutputCheck) -> None:
    """Fill the session's cache with every request, checking each result."""
    for key, request in requests.items():
        checker.check(key, session.advise(request))


def run(outcome: Outcome, seed: int, seconds: float, trace: bool, workdir: Path,
        recorder: Optional[SpanRecorder]) -> None:
    """Run the workload, filling ``outcome``."""
    workload = outcome.workload
    keys = workload_keys(workload)
    requests = mix.build_requests(keys)
    checker = OutputCheck(load_expected())
    session = build_session(workload, workdir / "cache")

    if workload == "sweep_warm":
        prepare_warm_cache(session, requests, checker)
        outcome.note(f"warm-cache preparation: {len(requests)} requests checked")

    tracer = LayerTracer(recorder) if trace else None
    passes = passes_for(workload, seconds)
    speed = outcome.speed
    # Per untraced request: (start, end) readings and whether it was right.
    requests_timed: List[Tuple[float, float]] = []
    correct = 0
    pass_seconds: Dict[bool, List[float]] = {False: [], True: []}
    clock = ProfileClock()
    pauses = GcPauses()
    warm_misses = session.cache.misses if workload == "sweep_warm" else 0
    simulates = workload != "sweep_warm"

    with pauses:
        for index in range(passes):
            # A traced run alternates untraced and traced passes: the
            # untraced ones give the end-to-end numbers and the overhead
            # baseline.  Host speed is sampled in untraced passes only, so
            # no sample lands inside a span.
            traced = trace and index % 2 == 1
            if workload == "sweep_cold":
                session.cache.clear()
            order = mix.pass_order(keys, seed, workload, index)
            with tracer if traced else speed, \
                    clock if simulates and not traced else nullcontext():
                timed, ok = _closed_loop(session, requests, order, checker,
                                         recorder if traced else None)
            pass_seconds[traced].append(sum(speed.net(*span) for span in timed))
            if not traced:
                requests_timed.extend(timed)
                correct += ok

    failed = len(checker.mismatches)
    if workload == "sweep_warm":
        misses = session.cache.misses - warm_misses
        if misses:
            checker.mismatches.append(f"{misses} cache misses on the warm cache")
            failed += misses
    outcome.attempted = checker.checked
    outcome.failed = failed
    outcome.mismatches = checker.mismatches
    raw = [speed.net(start, end) for start, end in requests_timed]
    factors = [speed.factor_around(start, end) for start, end in requests_timed]
    collected = [pauses.within(start, end) for start, end in requests_timed]
    latencies = [seconds - paused for seconds, paused in zip(raw, collected)]
    add_latencies(outcome, [seconds * factor for seconds, factor in zip(latencies, factors)],
                  latencies)
    add_rate(outcome, "requests_per_s", correct,
             sum(seconds * factor for seconds, factor in zip(raw, factors)), sum(raw), "1/s")
    outcome.metrics["gc_pause_share"] = (sum(collected) / sum(raw), "ratio")
    if simulates:
        raw = [speed.net(start, end) for start, end in clock.calls]
        scaled = sum(speed.factor_around(start, end) * seconds
                     for (start, end), seconds in zip(clock.calls, raw))
        add_rate(outcome, "sim_cycles_per_s", clock.cycles, scaled, sum(raw), "cycles/s")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.note(f"{passes} passes x {len(keys)} requests, seed-shuffled, closed loop")

    if trace:
        outcome.layers.update(layer_metrics(recorder))
        untraced = sum(pass_seconds[False]) / len(pass_seconds[False])
        traced_s = sum(pass_seconds[True]) / len(pass_seconds[True])
        outcome.layers["tracing.overhead_ratio"] = ((traced_s - untraced) / untraced, "ratio")


def _closed_loop(session, requests, order, checker: OutputCheck,
                 recorder: Optional[SpanRecorder]) -> Tuple[List[Tuple[float, float]], int]:
    """Send ``order`` one request at a time; returns each request's
    ``(start, end)`` ``perf_counter`` readings and how many results were
    correct.  Outputs are checked outside the timed calls and outside any
    span."""
    timed = []
    ok = 0
    for key in order:
        request = requests[key]
        if recorder is not None:
            span = recorder.open("request")
            started = time.perf_counter()
            result = session.advise(request)
            timed.append((started, time.perf_counter()))
            recorder.close(span)
            with recorder.paused():
                ok += checker.check(key, result)
        else:
            started = time.perf_counter()
            result = session.advise(request)
            timed.append((started, time.perf_counter()))
            ok += checker.check(key, result)
    return timed, ok

"""Tests of the benchmark itself: seeded inputs, the output check, span
arithmetic, the removal of the per-layer wrappers, and the host-speed and
garbage-collector probes.

Run with ``python -m pytest gpabench/tests`` from the repository root.
"""

import gc
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for _path in (BENCH.parent / "src", BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import repro.blame.attribution as attribution
import repro.pipeline.stages as stages
import repro.sampling.profiler as profiler
import repro.structure.program as program
from repro.optimizers.base import Optimizer
from repro.workloads.registry import case_by_name

from gpab import host, mix
from gpab.check import OutputCheck, canonical_bytes, digest
from gpab.inline import GcPauses
from gpab.layers import LayerTracer, layer_metrics
from gpab.spans import SpanRecorder
from gpab.stats import median, tail, tail_percentile


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_same_requests_and_order():
    keys = mix.sweep_keys()
    assert len(keys) == 52 and len(set(keys)) == 52
    first = mix.build_requests(keys)
    second = mix.build_requests(keys)
    assert [first[key].fingerprint() for key in keys] == [
        second[key].fingerprint() for key in keys
    ]
    assert mix.pass_order(keys, 7, "sweep_cold", 0) == mix.pass_order(keys, 7, "sweep_cold", 0)
    assert mix.pass_order(keys, 7, "sweep_cold", 0) != mix.pass_order(keys, 8, "sweep_cold", 0)
    assert sorted(mix.pass_order(keys, 7, "sweep_cold", 3)) == sorted(keys)


def test_same_seed_same_schedule():
    keys = mix.sweep_keys()
    schedule = mix.arrivals(keys, 3, "low", 15.0, 2)
    assert schedule == mix.arrivals(keys, 3, "low", 15.0, 2)
    assert schedule != mix.arrivals(keys, 4, "low", 15.0, 2)
    # Every round sends every request once, and the offered rate is exact.
    assert sorted(key for _, key in schedule) == sorted(keys * 2)
    assert abs(schedule[-1][0] - len(schedule) / 15.0) < 1e-9
    dues = [due for due, _ in schedule]
    assert dues == sorted(dues)


def test_gpu_requests_are_trimmed_multi_wave_launches():
    requests = mix.build_requests(mix.gpu_keys())
    for (_name, grid_blocks), key in zip(mix.GPU_CASES, mix.gpu_keys()):
        request = requests[key]
        assert request.config.grid_blocks == grid_blocks
        assert (request.arch_flag, request.simulation_scope, request.memory_model) == (
            mix.GPU_ARCH, "whole_gpu", "hierarchy")


# ----------------------------------------------------------------------
# The output check
# ----------------------------------------------------------------------
class FakeResult:
    def __init__(self, payload, duration=0.5, error=None):
        self.payload = payload
        self.duration = duration
        self.error = error

    @property
    def ok(self):
        return self.error is None

    def to_dict(self):
        return {**self.payload, "duration": self.duration}


def test_timing_fields_do_not_reach_the_digest():
    fast = FakeResult({"report": {"speedup": 1.25}}, duration=0.01)
    slow = FakeResult({"report": {"speedup": 1.25}}, duration=9.0)
    assert canonical_bytes(fast) == canonical_bytes(slow)


def test_corrupted_digest_counts_as_failure():
    result = FakeResult({"report": {"speedup": 1.25}})
    good = digest(canonical_bytes(result))
    assert OutputCheck({"case": good}).check("case", result)

    corrupted = ("0" if good[0] != "0" else "1") + good[1:]
    checker = OutputCheck({"case": corrupted})
    assert not checker.check("case", result)
    assert checker.checked == 1 and len(checker.mismatches) == 1


def test_changed_output_missing_record_and_error_all_fail():
    result = FakeResult({"report": {"speedup": 1.25}})
    checker = OutputCheck({"case": digest(canonical_bytes(result))})
    assert not checker.check("case", FakeResult({"report": {"speedup": 1.26}}))
    assert not checker.check("other", result)
    assert not checker.check("case", FakeResult({}, error="Traceback\nValueError: boom"))
    assert checker.checked == 3 and len(checker.mismatches) == 3


# ----------------------------------------------------------------------
# Spans and order statistics
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    root = recorder.open("request")          # 0 .. 10
    clock.now = 1.0
    blame = recorder.open("blame")            # 1 .. 7
    clock.now = 2.0
    graph = recorder.open("blame.graph")      # 2 .. 4
    clock.now = 4.0
    recorder.close(graph)
    clock.now = 5.0
    prune = recorder.open("blame.prune")      # 5 .. 6
    clock.now = 6.0
    recorder.close(prune)
    clock.now = 7.0
    recorder.close(blame)
    recorder.add_rollup("trace", 0.5)         # two hot calls under the root
    recorder.add_rollup("trace", 0.25)
    clock.now = 10.0
    recorder.close(root)

    totals = recorder.layer_totals()
    assert totals["blame.graph"].self_s == pytest.approx(2.0)
    assert totals["blame.prune"].self_s == pytest.approx(1.0)
    assert totals["blame"].total_s == pytest.approx(6.0)
    assert totals["blame"].self_s == pytest.approx(3.0)
    assert totals["trace"].calls == 2
    assert totals["trace"].self_s == pytest.approx(0.75)
    assert totals["request"].self_s == pytest.approx(10.0 - 6.0 - 0.75)
    # Every child names its parent and shares the root's request id.
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["blame.graph"].parent == by_name["blame"].span_id
    assert {span.request for span in recorder.spans} == {root.span_id}


def test_paused_thread_records_nothing():
    recorder = SpanRecorder()
    assert recorder.active()
    with recorder.paused():
        assert not recorder.active()
    assert recorder.active()


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 209))
    pct, value = tail(values)
    assert sum(1 for item in values if item > value) == 10
    assert pct == pytest.approx(100.0 * 198 / 208)
    # Too few samples for a tail above the median: the median stands in.
    assert tail_percentile(16) == 50.0
    assert tail(list(range(1, 17)))[1] == median(list(range(1, 17))) == 8


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _snapshot():
    optimizer_matches = {}
    pending = [Optimizer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        match = vars(cls).get("match")
        if match is not None and not getattr(match, "__isabstractmethod__", False):
            optimizer_matches[cls] = match
    return {
        "blame": vars(attribution.InstructionBlamer)["blame"],
        "structure": program.build_program_structure,
        "structure@stages": stages.build_program_structure,
        "structure@profiler": profiler.build_program_structure,
        "trace@profiler": profiler.generate_warp_trace,
        "optimizers": optimizer_matches,
    }


def test_wrappers_are_removed_after_a_traced_run():
    before = _snapshot()
    recorder = SpanRecorder()
    with LayerTracer(recorder) as tracer:
        assert tracer.installed
        during = _snapshot()
        assert during["blame"] is not before["blame"]
        assert during["structure@stages"] is not before["structure@stages"]
        assert during["trace@profiler"] is not before["trace@profiler"]
        assert all(during["optimizers"][cls] is not match
                   for cls, match in before["optimizers"].items())
        program.build_program_structure(case_by_name("rodinia/bfs:loop_unrolling")
                                        .build_baseline().cubin)
    assert not tracer.installed
    assert _snapshot() == before
    assert layer_metrics(recorder)["structure.calls"] == (1, "count")

    # A later untraced call records nothing.
    program.build_program_structure(case_by_name("rodinia/bfs:loop_unrolling")
                                    .build_baseline().cubin)
    assert len(recorder.spans) == 1


# ----------------------------------------------------------------------
# Host speed and collector pauses
# ----------------------------------------------------------------------
def _busy(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_sampling_time_is_taken_out_and_scales_the_interval():
    speed = host.HostSpeed()
    started = time.perf_counter()
    for _ in range(5):
        speed.sample()
    ended = time.perf_counter()
    # Nothing but samples ran in between.
    assert 0.0 <= speed.net(started, ended) < 0.2 * (ended - started)
    assert speed.net(ended, ended + 1.0) == pytest.approx(1.0)
    assert speed.factor_around(started, ended) == pytest.approx(
        host.REFERENCE_SAMPLE_S * 5 / sum(speed.samples))
    # After the last sample, only that one is next to the interval.
    assert speed.factor_around(ended, ended + 1.0) == pytest.approx(
        host.REFERENCE_SAMPLE_S / speed.samples[-1])


def test_timer_samples_only_inside_the_block():
    previous = signal.getsignal(signal.SIGALRM)
    speed = host.HostSpeed()
    with speed:
        _busy(6 * host.SAMPLE_EVERY_S)
    taken = len(speed.samples)
    assert taken >= 3
    assert speed.ends == sorted(speed.ends)
    _busy(3 * host.SAMPLE_EVERY_S)
    assert len(speed.samples) == taken
    assert signal.getsignal(signal.SIGALRM) == previous


def test_collector_pauses_are_timed_between_readings():
    pauses = GcPauses()
    with pauses:
        started = time.perf_counter()
        gc.collect()
        ended = time.perf_counter()
    assert 0.0 < pauses.within(started, ended) <= ended - started
    assert pauses.within(ended, ended + 1.0) == 0.0
    assert pauses._callback not in gc.callbacks


def test_starts_are_scaled_by_the_reference_processes_around_them(monkeypatch):
    references = iter([0.2, 0.4, 0.3])
    monkeypatch.setattr(host, "reference_process_s", lambda: next(references))
    scaled, raw = host.scaled_starts(lambda: 0.5, 2)
    assert raw == [0.5, 0.5]
    unit = host.REFERENCE_PROCESS_S
    assert scaled == pytest.approx([0.5 * unit / 0.3, 0.5 * unit / 0.35])


def test_reference_process_runs():
    assert 0.0 < host.reference_process_s() < 60.0

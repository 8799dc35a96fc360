"""Tests for the memory-hierarchy model (coalescing, L1/L2/DRAM, MSHRs)."""

import pytest

from repro.arch.machine import MemoryHierarchyParameters, VoltaV100
from repro.sampling.memory import (
    MEMORY_MODELS,
    MemoryHierarchy,
    MemoryStatistics,
    SectorCache,
    check_memory_model,
    sector_addresses,
)
from repro.sampling.simulator import SMSimulator
from repro.sampling.stall_reasons import StallReason
from repro.sampling.trace import TraceOp, generate_warp_trace
from repro.structure.program import build_program_structure
from repro.workloads.memory_patterns import (
    cache_resident_workload,
    memory_microbenchmark,
    strided_workload,
    streaming_workload,
)


def _params(**overrides) -> MemoryHierarchyParameters:
    defaults = dict(
        sector_bytes=32, l1_bytes=1024, l1_ways=2, l1_hit_latency=10,
        l1_sectors_per_cycle=4, l1_mshr_entries=4, l2_slice_bytes=4096,
        l2_ways=4, l2_hit_latency=50, dram_latency=200, dram_bytes_per_cycle=8,
    )
    defaults.update(overrides)
    return MemoryHierarchyParameters(**defaults)


def _access(hierarchy, address, stride, now):
    """Service one warp access of 32 threads with 32-byte sectors."""
    return hierarchy.access_sectors(sector_addresses(address, stride, 32, 32), now)


class TestCheckMemoryModel:
    def test_accepts_known_models(self):
        for model in MEMORY_MODELS:
            assert check_memory_model(model) == model

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown memory model"):
            check_memory_model("magic")


class TestSectorCache:
    def test_miss_then_hit(self):
        cache = SectorCache(1024, ways=2, sector_bytes=32)
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_within_a_set(self):
        cache = SectorCache(128, ways=2, sector_bytes=32)  # 2 sets x 2 ways
        set_stride = cache.num_sets * 32
        a, b, c = 0, set_stride, 2 * set_stride  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(c)          # evicts a (LRU)
        assert cache.access(b) is True
        assert cache.access(a) is False  # was evicted

    def test_capacity_must_hold_one_set(self):
        with pytest.raises(ValueError):
            SectorCache(32, ways=4, sector_bytes=32)


class TestCoalescing:
    def test_unit_stride_touches_four_sectors(self):
        sectors = sector_addresses(0, 4, 32, 32)
        # 32 threads x 4 bytes = 128 bytes = 4 aligned 32-byte sectors.
        assert sectors == (0, 32, 64, 96)

    def test_full_stride_touches_one_sector_per_thread(self):
        sectors = sector_addresses(0, 128, 32, 32)
        assert len(sectors) == 32

    def test_unaligned_access_spills_into_an_extra_sector(self):
        sectors = sector_addresses(30, 4, 32, 32)
        # The footprint [30, 158) covers sectors 0..4.
        assert sectors == (0, 32, 64, 96, 128)

    @pytest.mark.parametrize("address", [0, 3, 30, 0x1000, 0x1FFE])
    @pytest.mark.parametrize("stride", [1, 3, 4, 8, 31, 32, 33, 128, 4096])
    def test_matches_the_per_thread_footprint_in_first_touch_order(self, address, stride):
        expected = []
        for thread in range(32):
            start = address + thread * stride
            for index in range(start // 32, (start + 3) // 32 + 1):
                if index * 32 not in expected:
                    expected.append(index * 32)
        assert sector_addresses(address, stride, 32, 32) == tuple(expected)

    def test_ops_without_addresses_fall_back_to_transaction_count(self):
        hierarchy = MemoryHierarchy(_params())
        first = hierarchy.fallback_sectors(3)
        second = hierarchy.fallback_sectors(3)
        assert len(first) == len(second) == 3
        # The rolling cursor keeps fallback accesses from aliasing.
        assert not set(first) & set(second)


class TestHierarchyTiming:
    def test_l1_hit_is_faster_than_l2_hit_is_faster_than_dram(self):
        hierarchy = MemoryHierarchy(_params())
        dram = _access(hierarchy, 0, 4, 0)
        l1 = _access(hierarchy, 0, 4, 0)
        assert dram > l1
        assert hierarchy.statistics.l1_hits == 4
        assert hierarchy.statistics.dram_sectors == 4

    def test_dram_bandwidth_serializes_transfers(self):
        parameters = _params(dram_bytes_per_cycle=8)  # 4 cycles per sector
        hierarchy = MemoryHierarchy(parameters)
        first = _access(hierarchy, 0, 128, 0)
        hierarchy_idle = MemoryHierarchy(parameters)
        single = _access(hierarchy_idle, 0, 4, 0)
        # 32 queued sectors wait behind each other at 4 cycles each; a
        # 4-sector access on an idle channel completes much earlier.
        assert first > single

    def test_mshr_backpressure_reports_a_recheck_cycle(self):
        hierarchy = MemoryHierarchy(_params(l1_mshr_entries=4))
        _access(hierarchy, 0, 128, 0)  # 32 misses
        recheck = hierarchy.backpressure(1, commit=True)
        assert recheck is not None and recheck > 1
        # Once every miss completes the pipeline accepts requests again.
        assert hierarchy.backpressure(recheck + 10_000, commit=True) is None

    def test_observation_probe_does_not_mutate_mshrs(self):
        hierarchy = MemoryHierarchy(_params(l1_mshr_entries=4))
        _access(hierarchy, 0, 128, 0)
        before = list(hierarchy._mshrs)
        assert hierarchy.backpressure(10**9, commit=False) is None
        assert hierarchy._mshrs == before  # commit=True would have drained


class TestStatistics:
    def test_counters_are_level_consistent(self):
        hierarchy = MemoryHierarchy(_params())
        for index in range(64):
            _access(hierarchy, index * 128, 4, index)
        stats = hierarchy.statistics
        assert stats.l1_hits + stats.l1_misses == stats.sectors
        assert stats.l2_hits + stats.l2_misses == stats.l1_misses
        assert stats.dram_sectors == stats.l2_misses
        assert stats.dram_bytes == stats.dram_sectors * 32

    def test_merge_accumulates_and_roundtrips(self):
        a = MemoryStatistics(requests=2, sectors=8, l1_hits=4, l1_misses=4,
                             l2_hits=2, l2_misses=2, dram_bytes=64)
        b = MemoryStatistics(requests=1, sectors=4, l1_hits=0, l1_misses=4,
                             l2_hits=4, l2_misses=0)
        a.merge(b)
        assert a.requests == 3 and a.sectors == 12 and a.l2_hits == 6
        assert MemoryStatistics.from_dict(a.to_dict()).to_dict() == a.to_dict()

    def test_rates(self):
        stats = MemoryStatistics(requests=2, sectors=16, l1_hits=12, l1_misses=4,
                                 l2_hits=3, l2_misses=1)
        assert stats.l1_hit_rate == 0.75
        assert stats.l2_hit_rate == 0.75
        assert stats.transactions_per_request == 8.0


@pytest.fixture(scope="module")
def micro_setup():
    cubin = memory_microbenchmark()
    structure = build_program_structure(cubin)
    return cubin, structure


def _traces(structure, workload, num_warps=8):
    traces, blocks = [], []
    for warp in range(num_warps):
        traces.append(generate_warp_trace(
            structure, "memory_stream", workload, VoltaV100, warp, num_warps))
        blocks.append(warp // 4)
    return traces, blocks


class TestSimulatorIntegration:
    def test_flat_is_the_default_and_unchanged(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, streaming_workload())
        default = SMSimulator(VoltaV100, sample_period=8)
        explicit = SMSimulator(VoltaV100, sample_period=8, memory_model="flat")
        a = default.simulate("memory_stream", traces, blocks)
        b = explicit.simulate("memory_stream", traces, blocks)
        assert default.memory_model == "flat"
        assert a.wave_cycles == b.wave_cycles
        assert a.stall_counts == b.stall_counts
        assert a.memory is None and b.memory is None

    def test_hierarchy_changes_timing_and_records_statistics(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload())
        flat = SMSimulator(VoltaV100, sample_period=8).simulate(
            "memory_stream", traces, blocks)
        hier = SMSimulator(VoltaV100, sample_period=8, memory_model="hierarchy").simulate(
            "memory_stream", traces, blocks)
        assert hier.wave_cycles != flat.wave_cycles
        assert hier.memory is not None
        assert hier.memory.requests > 0
        assert hier.memory.transactions_per_request > 4.0  # uncoalesced

    def test_cache_resident_beats_streaming(self, micro_setup):
        _cubin, structure = micro_setup
        resident_traces, blocks = _traces(structure, cache_resident_workload())
        stream_traces, _ = _traces(structure, streaming_workload())
        simulator = SMSimulator(VoltaV100, sample_period=8, memory_model="hierarchy")
        resident = simulator.simulate("memory_stream", resident_traces, blocks)
        stream = simulator.simulate("memory_stream", stream_traces, blocks)
        assert resident.memory.l1_hit_rate > 0.5
        assert resident.memory.l1_hit_rate > stream.memory.l1_hit_rate
        assert resident.wave_cycles < stream.wave_cycles

    def test_strided_access_produces_memory_throttle_stalls(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload(), num_warps=16)
        result = SMSimulator(VoltaV100, sample_period=2, memory_model="hierarchy").simulate(
            "memory_stream", traces, blocks)
        reasons = {}
        for counts in result.stall_counts.values():
            for reason, count in counts.items():
                reasons[reason] = reasons.get(reason, 0) + count
        assert reasons.get(StallReason.MEMORY_THROTTLE, 0) > 0

    def test_hierarchy_sampling_is_observation_neutral(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, strided_workload())
        cycles = {
            period: SMSimulator(
                VoltaV100, sample_period=period, memory_model="hierarchy"
            ).simulate("memory_stream", traces, blocks).wave_cycles
            for period in (2, 8, 32, 128)
        }
        assert len(set(cycles.values())) == 1, cycles

    def test_hierarchy_is_deterministic(self, micro_setup):
        _cubin, structure = micro_setup
        traces, blocks = _traces(structure, streaming_workload())
        simulator = SMSimulator(VoltaV100, sample_period=8, memory_model="hierarchy")
        a = simulator.simulate("memory_stream", traces, blocks)
        b = simulator.simulate("memory_stream", traces, blocks)
        assert a.wave_cycles == b.wave_cycles
        assert a.memory.to_dict() == b.memory.to_dict()

    def test_rejects_unknown_memory_model(self):
        with pytest.raises(ValueError):
            SMSimulator(VoltaV100, memory_model="banked")


class TestTraceAddresses:
    def test_global_loads_carry_addresses_and_strides(self, micro_setup):
        _cubin, structure = micro_setup
        trace = generate_warp_trace(
            structure, "memory_stream", strided_workload(stride_bytes=64),
            VoltaV100, warp_id=0, num_warps=8)
        loads = [op for op in trace if op.opcode == "LDG"]
        assert loads
        assert all(op.stride_bytes == 64 for op in loads)
        # Consecutive accesses advance through the working set.
        assert len({op.address for op in loads}) > 1

    def test_addresses_do_not_perturb_flat_randomness(self, micro_setup):
        """Attaching addresses must not consume the workload's rng stream."""
        _cubin, structure = micro_setup
        workload = streaming_workload()
        with_addresses = generate_warp_trace(
            structure, "memory_stream", workload, VoltaV100, 0, 8)
        again = generate_warp_trace(
            structure, "memory_stream", workload, VoltaV100, 0, 8)
        assert [op.latency for op in with_addresses] == [op.latency for op in again]

    def test_default_trace_op_has_no_address_info(self):
        op = TraceOp(function="f", instruction=None)
        assert op.address == 0 and op.stride_bytes == 0

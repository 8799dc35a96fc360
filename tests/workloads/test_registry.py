"""Tests for the benchmark-case registry and the synthetic kernels."""

import dataclasses

import pytest

from repro.api.request import request_for_case
from repro.optimizers.registry import default_optimizers
from repro.workloads.registry import (
    all_cases,
    application_cases,
    case_by_name,
    case_names,
    is_registry_case,
    resolve_case,
    rodinia_cases,
)


def test_resolve_case_accepts_ids_and_case_objects():
    case = case_by_name("rodinia/hotspot:strength_reduction")
    assert resolve_case(case.case_id) is case
    assert resolve_case(case) is case
    with pytest.raises(KeyError):
        resolve_case("no/such:case")


def test_only_the_registrys_own_objects_are_registry_cases():
    case = case_by_name("rodinia/hotspot:strength_reduction")
    assert is_registry_case(case)
    assert not is_registry_case(dataclasses.replace(case))
    assert not is_registry_case(dataclasses.replace(case, name="custom/clone"))


def test_registry_reproduces_all_26_table3_rows():
    cases = all_cases()
    assert len(cases) == 26
    assert len(rodinia_cases()) == 19
    assert len(application_cases()) == 7


def test_case_ids_are_unique():
    names = case_names()
    assert len(names) == len(set(names))


def test_every_case_references_a_real_optimizer():
    optimizer_names = {optimizer.name for optimizer in default_optimizers()}
    for case in all_cases():
        assert case.optimizer_name in optimizer_names


def test_paper_numbers_recorded_for_every_case():
    for case in all_cases():
        assert case.paper_achieved_speedup >= 1.0
        assert case.paper_estimated_speedup >= 1.0
        assert case.paper_original_time


def test_lookup_by_id_name_and_kernel():
    assert case_by_name("rodinia/hotspot:strength_reduction").kernel == "calculate_temp"
    assert case_by_name("rodinia/gaussian").optimization == "Thread Increase"
    assert case_by_name("Fan2").name == "rodinia/gaussian"
    with pytest.raises(KeyError):
        case_by_name("not-a-benchmark")


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.case_id)
def test_baseline_and_optimized_setups_build(case):
    """Every Table 3 row provides buildable baseline and optimized kernels."""
    baseline = case.build_baseline()
    optimized = case.build_optimized()
    assert case.kernel in baseline.cubin.functions
    assert case.kernel in optimized.cubin.functions
    assert baseline.config.grid_blocks > 0
    assert baseline.cubin.function(case.kernel).instructions
    # The optimized variant differs from the baseline in code, workload or
    # launch configuration (otherwise there is nothing to measure).
    differs = (
        [i.render() for i in baseline.cubin.function(case.kernel).instructions]
        != [i.render() for i in optimized.cubin.function(case.kernel).instructions]
        or baseline.config != optimized.config
        or baseline.workload.loop_trip_counts.keys() != optimized.workload.loop_trip_counts.keys()
        or baseline.workload.uncoalesced_lines != optimized.workload.uncoalesced_lines
        or any(
            baseline.workload.trip_count(line, 0, 64) != optimized.workload.trip_count(line, 0, 64)
            or baseline.workload.trip_count(line, 1, 64) != optimized.workload.trip_count(line, 1, 64)
            for line in baseline.workload.loop_trip_counts
        )
    )
    assert differs, f"optimized variant of {case.case_id} is identical to the baseline"


@pytest.mark.parametrize("case", rodinia_cases()[:4], ids=lambda case: case.case_id)
def test_baseline_kernels_profile_cleanly(case, advising_session):
    profiled = advising_session.profile(request_for_case(case))
    assert profiled.profile.total_samples > 0
    assert profiled.simulation.issued_instructions > 0

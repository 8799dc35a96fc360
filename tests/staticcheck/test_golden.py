"""Golden lint reports: every registry case pinned byte-for-byte.

The same files back CI's ``lint-smoke`` job, which regenerates the reports
with ``gpa-advise lint --all --output json --output-dir`` and diffs the
directory against this tree — so an engine change that shifts any byte of
any report must regenerate the goldens in the same commit.
"""

from pathlib import Path

import pytest

from repro.arch.machine import get_architecture
from repro.arch.occupancy import OccupancyCalculator
from repro.staticcheck.engine import lint_case
from repro.staticcheck.report import StaticReport
from repro.workloads.registry import all_cases

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASE_IDS = sorted(case.case_id for case in all_cases())


def _slug(case_id: str) -> str:
    return case_id.replace("/", "__").replace(":", "__")


def test_every_case_has_a_golden_and_vice_versa():
    expected = {f"{_slug(case_id)}.json" for case_id in CASE_IDS}
    actual = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_golden_report_is_byte_stable(case_id):
    report = lint_case(case_id)
    golden = (GOLDEN_DIR / f"{_slug(case_id)}.json").read_text()
    assert report.to_json() == golden
    # The golden file itself must be loadable by the strict loader.
    assert StaticReport.from_json(golden).case_id == case_id


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_static_occupancy_matches_arch_calculator(case_id):
    """The report's declared-occupancy block is exactly ``arch/occupancy``."""
    from repro.workloads.registry import resolve_case

    case = resolve_case(case_id)
    setup = case.build_baseline()
    report = lint_case(case_id)

    architecture = get_architecture(setup.cubin.arch_flag)
    function = setup.cubin.functions[setup.kernel]
    expected = OccupancyCalculator(architecture).calculate(
        grid_blocks=setup.config.grid_blocks,
        threads_per_block=setup.config.threads_per_block,
        registers_per_thread=function.registers_per_thread,
        shared_memory_per_block=max(
            setup.config.shared_memory_bytes, function.shared_memory_bytes
        ),
    )
    declared = report.function_lint(setup.kernel).occupancy["declared"]
    assert declared["occupancy"] == expected.occupancy
    assert declared["limiter"] == expected.limiter
    assert declared["warps_per_sm"] == expected.warps_per_sm
    assert declared["blocks_per_sm"] == expected.blocks_per_sm
    assert declared["waves"] == expected.waves


def test_reports_are_deterministic_across_runs():
    case_id = CASE_IDS[0]
    assert lint_case(case_id).to_json() == lint_case(case_id).to_json()


def test_optimized_variant_lints_too():
    report = lint_case(CASE_IDS[0], variant="optimized")
    assert report.case_id == CASE_IDS[0]
    assert report.functions

"""The Table 3 harness over the advising session: pooling, caching, failures."""

import dataclasses

from repro.api.session import AdvisingSession
from repro.evaluation.table3 import Table3Result, evaluate_table3, format_table3
from repro.sampling.simulator import SMSimulator
from repro.workloads.registry import case_by_name

SUBSET = ["rodinia/backprop:warp_balance", "rodinia/gaussian:thread_increase"]

ROW_FIELDS = (
    "baseline_cycles",
    "optimized_cycles",
    "achieved_speedup",
    "estimated_speedup",
    "error",
    "optimizer_rank",
    "total_samples",
)


def row_values(row):
    return [getattr(row, name) for name in ROW_FIELDS]


class TestLazyRegistryImport:
    def test_import_repro_does_not_load_the_workload_registry(self):
        """`import repro` (and every spawned pool worker) must not pay for
        constructing the whole benchmark registry."""
        import subprocess
        import sys

        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; "
                "print(sum(m.startswith('repro.workloads') for m in sys.modules))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert loaded.stdout.strip() == "0"


class TestTable3Pipeline:
    def test_rows_keep_case_order(self):
        cases = [case_by_name(name) for name in reversed(SUBSET)]
        result = evaluate_table3(cases)
        assert [row.case.case_id for row in result.rows] == list(reversed(SUBSET))

    def test_sequential_and_parallel_rows_are_identical(self):
        cases = [case_by_name(name) for name in SUBSET]
        sequential = evaluate_table3(cases, session=AdvisingSession(jobs=1))
        parallel = evaluate_table3(cases, session=AdvisingSession(jobs=2))
        assert not sequential.failures and not parallel.failures
        assert [row.case for row in parallel.rows] == cases
        for seq, par in zip(sequential.rows, parallel.rows):
            assert row_values(seq) == row_values(par)

    def test_unregistered_case_falls_back_inline(self):
        case = case_by_name(SUBSET[0])
        clone = dataclasses.replace(case, name="custom/clone")
        result = evaluate_table3([clone], session=AdvisingSession(jobs=2))
        assert not result.failures
        (row,) = result.rows
        assert row.case.case_id == "custom/clone:warp_balance"
        (reference,) = evaluate_table3([case]).rows
        assert row_values(row) == row_values(reference)

    def test_warm_cache_run_is_bit_identical_without_simulation(
        self, tmp_path, monkeypatch
    ):
        cases = [case_by_name(name) for name in SUBSET]
        uncached = evaluate_table3(cases)
        cold = evaluate_table3(cases, session=AdvisingSession(cache=str(tmp_path)))

        def explode(self, *args, **kwargs):
            raise AssertionError("simulator invoked on a warm cache")

        monkeypatch.setattr(SMSimulator, "simulate", explode)
        warm = evaluate_table3(cases, session=AdvisingSession(cache=str(tmp_path)))
        assert not warm.failures
        for reference in (uncached, cold):
            for ref, row in zip(reference.rows, warm.rows):
                assert row_values(ref) == row_values(row)
        # The patch bites: without the cache every case must simulate.
        cold_again = evaluate_table3(cases)
        assert not cold_again.rows
        assert len(cold_again.failures) == len(cases)
        assert all("simulator invoked" in error for _, error in cold_again.failures)

    def test_progress_reports_both_variants_of_every_case(self):
        events = []
        evaluate_table3([case_by_name(SUBSET[0])], progress=events.append)
        assert [event.status for event in events] == ["start", "done"] * 2
        assert {event.total for event in events} == {2}

    def test_format_table3_surfaces_failures(self):
        result = Table3Result(failures=[("no/such:case", "KeyError: 'no/such:case'")])
        rendered = format_table3(result)
        assert "1 case(s) FAILED" in rendered
        assert "no/such:case: KeyError" in rendered

    def test_format_table3_tolerates_blank_error_text(self):
        rendered = format_table3(Table3Result(failures=[("x/y:z", " \n")]))
        assert "x/y:z: unknown error" in rendered

    def test_failure_lands_in_failures_not_exception(self):
        case = case_by_name(SUBSET[0])
        broken = dataclasses.replace(
            case,
            baseline=lambda: (_ for _ in ()).throw(RuntimeError("broken setup")),
        )
        result = evaluate_table3([broken, case_by_name(SUBSET[1])])
        assert [row.case.case_id for row in result.rows] == [SUBSET[1]]
        assert len(result.failures) == 1
        assert result.failures[0][0] == case.case_id
        assert "broken setup" in result.failures[0][1]

"""Tests for the batch driver, the runner and the refactored harnesses."""

import pytest

from repro.pipeline.batch import (
    BatchAdvisor,
    BatchConfig,
    advise_case,
    table3_case_worker,
)
from repro.pipeline.runner import PipelineRunner, PipelineStep
from repro.evaluation.table3 import evaluate_table3
from repro.sampling.simulator import SMSimulator
from repro.workloads.registry import case_by_name

SUBSET = ["rodinia/backprop:warp_balance", "rodinia/gaussian:thread_increase"]


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


class TestRunner:
    def test_execute_captures_per_step_failures(self):
        events = []
        plan = [
            PipelineStep("ok", lambda: 42),
            PipelineStep("boom", lambda: 1 / 0),
            PipelineStep("after", lambda: "still runs"),
        ]
        outcomes = PipelineRunner(events.append).execute(plan)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert outcomes[0].value == 42
        assert "ZeroDivisionError" in outcomes[1].error
        assert outcomes[2].value == "still runs"
        statuses = [(event.step, event.status) for event in events]
        assert ("boom", "error") in statuses
        assert ("after", "done") in statuses


class TestBatchAdvisor:
    def test_sequential_sweep_preserves_order(self):
        advisor = BatchAdvisor(BatchConfig(jobs=1))
        results = advisor.advise(SUBSET)
        assert [result.case_id for result in results] == SUBSET
        assert all(result.ok for result in results)
        for result in results:
            assert result.value["report"]["advice"]

    def test_bad_case_is_captured_not_raised(self):
        advisor = BatchAdvisor(BatchConfig(jobs=1))
        results = advisor.advise(["rodinia/backprop:warp_balance", "no/such:case"])
        assert results[0].ok
        assert not results[1].ok
        assert "KeyError" in results[1].error

    def test_parallel_sweep_matches_sequential(self):
        sequential = BatchAdvisor(BatchConfig(jobs=1)).advise(SUBSET)
        parallel = BatchAdvisor(BatchConfig(jobs=2)).advise(SUBSET)
        assert [result.case_id for result in parallel] == SUBSET
        for seq, par in zip(sequential, parallel):
            assert seq.value == par.value

    def test_parallel_error_capture(self):
        results = BatchAdvisor(BatchConfig(jobs=2)).advise(
            ["no/such:case", "rodinia/backprop:warp_balance"]
        )
        assert not results[0].ok and "KeyError" in results[0].error
        assert results[1].ok

    def test_pool_progress_pairs_start_with_completion(self):
        """Pool mode must not report every case as started at submission."""
        events = []
        BatchAdvisor(BatchConfig(jobs=2)).advise(SUBSET, progress=events.append)
        assert len(events) == 2 * len(SUBSET)
        for start, finish in zip(events[::2], events[1::2]):
            assert start.status == "start"
            assert finish.status in ("done", "error")
            assert start.step == finish.step

    def test_unregistered_case_falls_back_inline(self):
        import dataclasses

        case = case_by_name(SUBSET[0])
        clone = dataclasses.replace(case, name="custom/clone")
        advisor = BatchAdvisor(BatchConfig(jobs=4))
        results = advisor.run_cases(table3_case_worker, [clone])
        assert results[0].ok
        assert results[0].case_id == "custom/clone:warp_balance"


class TestTable3Pipeline:
    def test_sequential_and_parallel_rows_are_identical(self):
        cases = [case_by_name(name) for name in SUBSET]
        sequential = evaluate_table3(cases, jobs=1)
        parallel = evaluate_table3(cases, jobs=2)
        assert not sequential.failures and not parallel.failures
        for seq, par in zip(sequential.rows, parallel.rows):
            assert seq.baseline_cycles == par.baseline_cycles
            assert seq.optimized_cycles == par.optimized_cycles
            assert seq.achieved_speedup == par.achieved_speedup
            assert seq.estimated_speedup == par.estimated_speedup
            assert seq.error == par.error
            assert seq.optimizer_rank == par.optimizer_rank
            assert seq.total_samples == par.total_samples

    def test_warm_cache_run_is_bit_identical_without_simulation(
        self, tmp_path, monkeypatch
    ):
        cases = [case_by_name(name) for name in SUBSET]
        uncached = evaluate_table3(cases)
        cold = evaluate_table3(cases, cache_dir=tmp_path)

        def explode(self, *args, **kwargs):
            raise AssertionError("simulator invoked on a warm cache")

        monkeypatch.setattr(SMSimulator, "simulate", explode)
        warm = evaluate_table3(cases, cache_dir=tmp_path)
        assert not warm.failures
        for reference in (uncached, cold):
            for ref, row in zip(reference.rows, warm.rows):
                assert ref.baseline_cycles == row.baseline_cycles
                assert ref.optimized_cycles == row.optimized_cycles
                assert ref.achieved_speedup == row.achieved_speedup
                assert ref.estimated_speedup == row.estimated_speedup
                assert ref.total_samples == row.total_samples
        # The patch bites: without the cache every case must simulate.
        cold_again = evaluate_table3(cases)
        assert not cold_again.rows
        assert len(cold_again.failures) == len(cases)
        assert all("simulator invoked" in error for _, error in cold_again.failures)

    def test_format_table3_surfaces_failures(self):
        from repro.evaluation.table3 import Table3Result, format_table3

        result = Table3Result(failures=[("no/such:case", "KeyError: 'no/such:case'")])
        rendered = format_table3(result)
        assert "1 case(s) FAILED" in rendered
        assert "no/such:case: KeyError" in rendered

    def test_format_table3_tolerates_blank_error_text(self):
        from repro.evaluation.table3 import Table3Result, format_table3

        rendered = format_table3(Table3Result(failures=[("x/y:z", " \n")]))
        assert "x/y:z: unknown error" in rendered

    def test_failure_lands_in_failures_not_exception(self, monkeypatch):
        case = case_by_name(SUBSET[0])
        broken = type(case)(
            name=case.name,
            kernel=case.kernel,
            optimization=case.optimization,
            optimizer_name=case.optimizer_name,
            baseline=lambda: (_ for _ in ()).throw(RuntimeError("broken setup")),
            optimized=case.optimized,
        )
        result = evaluate_table3([broken, case_by_name(SUBSET[1])])
        assert len(result.rows) == 1
        assert len(result.failures) == 1
        assert "broken setup" in result.failures[0][1]


class TestMultiArchSweep:
    def test_turing_diverges_from_volta(self):
        config_volta = BatchConfig(arch_flag="sm_70")
        config_turing = BatchConfig(arch_flag="sm_75")
        payload = ("rodinia/gaussian:thread_increase", False)
        volta = advise_case(config_volta, payload)
        turing = advise_case(config_turing, payload)
        assert volta["report"]["statistics"] != turing["report"]["statistics"]

    def test_ampere_sweep_completes(self):
        results = BatchAdvisor(BatchConfig(arch_flag="sm_80")).advise(SUBSET)
        assert all(result.ok for result in results)

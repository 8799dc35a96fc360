"""Tests for the evaluation harness (Table 3, Figure 7, Figure 1)."""

import pytest

from repro.evaluation.figure1 import sampling_model_demo
from repro.evaluation.figure7 import evaluate_figure7, format_figure7
from repro.evaluation.metrics import geometric_mean, relative_error
from repro.evaluation.table3 import evaluate_case, evaluate_table3, format_table3
from repro.workloads.registry import case_by_name


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 1.0

    def test_relative_error(self):
        assert relative_error(1.2, 1.0) == pytest.approx(0.2)
        assert relative_error(1.0, 0.0) == 0.0


class TestTable3:
    @pytest.fixture(scope="class")
    def gaussian_row(self):
        return evaluate_case(case_by_name("rodinia/gaussian:thread_increase"))

    def test_row_contains_achieved_and_estimated_speedups(self, gaussian_row):
        assert gaussian_row.achieved_speedup > 1.0
        assert gaussian_row.estimated_speedup > 1.0
        assert gaussian_row.baseline_cycles > gaussian_row.optimized_cycles
        assert gaussian_row.error >= 0.0

    def test_gaussian_is_the_largest_win_as_in_the_paper(self, gaussian_row):
        assert gaussian_row.achieved_speedup > 2.0

    def test_expected_optimizer_is_ranked(self, gaussian_row):
        assert gaussian_row.optimizer_rank is not None
        assert gaussian_row.optimizer_rank <= 2

    def test_evaluate_subset_and_format(self):
        cases = [case_by_name("rodinia/backprop:warp_balance")]
        result = evaluate_table3(cases)
        assert len(result.rows) == 1
        assert result.geomean_achieved >= 1.0
        text = format_table3(result)
        assert "rodinia/backprop" in text
        assert "geomean" in text

    def test_aggregate_row_prints_the_geometric_mean_error(self):
        # The row is labeled "geomean", so every aggregate in it must be the
        # geometric mean — including the error column (regression: it used
        # to print the arithmetic mean_error under the geomean label).
        cases = [case_by_name("rodinia/backprop:warp_balance"),
                 case_by_name("rodinia/gaussian:thread_increase")]
        result = evaluate_table3(cases)
        assert len(result.rows) == 2
        geomean_line = format_table3(result).splitlines()[-1]
        assert geomean_line.startswith("geomean")
        assert f"{result.geomean_error * 100:6.1f}%" in geomean_line
        if abs(result.geomean_error - result.mean_error) * 100 >= 0.1:
            assert f"{result.mean_error * 100:6.1f}%" not in geomean_line

    def test_requests_run_through_the_given_session(self):
        from repro.api.session import AdvisingSession

        class RecordingSession(AdvisingSession):
            def advise_many(self, requests, progress=None):
                self.requests = list(requests)
                return super().advise_many(self.requests, progress=progress)

        session = RecordingSession(architecture="sm_75")
        result = evaluate_table3([case_by_name("rodinia/backprop:warp_balance")],
                                 session=session)
        assert len(result.rows) == 1
        assert [request.variant for request in session.requests] == [
            "baseline", "optimized"
        ]
        assert {request.arch_flag for request in session.requests} == {"sm_75"}


class TestFigure7:
    def test_coverage_rows_for_selected_benchmarks(self):
        cases = [case_by_name("rodinia/kmeans:loop_unrolling"),
                 case_by_name("rodinia/bfs:loop_unrolling")]
        rows = evaluate_figure7(cases)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.coverage_before <= 1.0
            assert 0.0 <= row.coverage_after <= 1.0
            assert row.coverage_after >= row.coverage_before
            assert row.edges_after <= row.edges_before
        text = format_figure7(rows)
        assert "rodinia/kmeans" in text and "mean" in text


class TestFigure1:
    def test_sampling_demo_quantities(self):
        demo = sampling_model_demo(sample_period=8)
        assert demo["total_samples"] == demo["active_samples"] + demo["latency_samples"]
        assert 0.0 <= demo["stall_ratio"] <= 1.0
        assert demo["stall_ratio"] + demo["active_ratio"] == pytest.approx(1.0)
        assert demo["stalls_by_reason"]
        assert demo["simulation_scope"] == "single_wave"

    def test_sampling_demo_runs_under_the_whole_gpu_scope(self):
        demo = sampling_model_demo(sample_period=32, simulation_scope="whole_gpu")
        assert demo["simulation_scope"] == "whole_gpu"
        assert demo["total_samples"] == demo["active_samples"] + demo["latency_samples"]
        # The sample stream now comes from every SM, so it is far denser
        # than the single-SM demo at the same period.
        single = sampling_model_demo(sample_period=32)
        assert demo["total_samples"] > single["total_samples"]
        assert demo["kernel_cycles"] >= demo["wave_cycles"]

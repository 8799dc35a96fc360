"""The stdlib HTML dashboard: content, series shaping, empty states."""

from repro.evaluation.fleet.report import (
    bench_reference_entry,
    bench_throughput_series,
    load_bench_history,
    render_report,
    sweep_error_series,
)


def artifact(error=0.07, failures=0, complete=True, key="single_wave+flat+sm_70+p8"):
    return {
        "kind": "fleet_sweep",
        "schema_version": 1,
        "cases": ["a/one", "b/two"],
        "units": 2,
        "complete": complete,
        "missing": [] if complete else [{"case": "b/two", "config": key}],
        "failures_total": failures,
        "configurations": [
            {
                "config": {},
                "key": key,
                "rows": [{"case": "a/one"}],
                "failures": (
                    [{"case": "b/two", "error": "RuntimeError: boom"}]
                    if failures
                    else []
                ),
                "cases_ok": 2 - failures,
                "cases_failed": failures,
                "geomean_achieved": 2.0,
                "geomean_estimated": 1.9,
                "geomean_error": error,
                "mean_error": error,
                "total_samples": 42,
                "total_baseline_cycles": 1000.0,
            }
        ],
    }


class TestSeriesShaping:
    def test_error_series_tracks_configurations_across_sweeps(self):
        sweeps = [
            ("night-1", artifact(error=0.10)),
            ("night-2", artifact(error=0.05)),
        ]
        series, labels = sweep_error_series(sweeps)
        assert labels == ["night-1", "night-2"]
        assert series["single_wave+flat+sm_70+p8"] == [10.0, 5.0]

    def test_configuration_gaps_become_none(self):
        sweeps = [
            ("night-1", artifact(key="single_wave+flat+sm_70+p8")),
            ("night-2", artifact(key="whole_gpu+hierarchy+sm_70+p8")),
        ]
        series, _ = sweep_error_series(sweeps)
        assert series["single_wave+flat+sm_70+p8"][1] is None
        assert series["whole_gpu+hierarchy+sm_70+p8"][0] is None

    def test_bench_series_keys_by_block_identity(self):
        history = [
            {
                "recorded": "2026-08-07T03:23:00Z",
                "blocks": [
                    {"simulation_scope": "single_wave", "memory_model": "flat",
                     "cycles_per_second": 120000},
                    {"simulation_scope": "whole_gpu", "memory_model": "hierarchy",
                     "cycles_per_second": 9000},
                ],
            }
        ]
        series, labels = bench_throughput_series(history)
        assert labels == ["2026-08-07"]
        assert series["single_wave+flat"] == [120000]
        assert series["whole_gpu+hierarchy"] == [9000]

    def test_history_loader_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text(
            '{"recorded": "a", "blocks": [{"cycles_per_second": 1}]}\n'
            "not json at all\n"
            '{"no_blocks": true}\n'
            '{"recorded": "b", "blocks": [{"cycles_per_second": 2}]}\n'
        )
        entries = load_bench_history(path)
        assert [e["recorded"] for e in entries] == ["a", "b"]
        assert load_bench_history(tmp_path / "missing.jsonl") == []

    def test_reference_fallback_is_one_pinned_entry(self):
        entry = bench_reference_entry(
            {"benchmark": "simulator_smoke",
             "measurements": [{"cycles_per_second": 5}]}
        )
        assert entry["recorded"] == "pinned"
        assert entry["blocks"][0]["cycles_per_second"] == 5
        assert bench_reference_entry({"benchmark": "other"}) is None


class TestPage:
    def test_full_page_contents(self):
        page = render_report(
            [("night-1", artifact(failures=1, complete=False))],
            bench_history=[{"recorded": "pinned",
                            "blocks": [{"cycles_per_second": 100000}]}],
            generated="run 42",
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "Fleet evaluation dashboard" in page
        assert page.count("<svg") == 2  # error trend + throughput trajectory
        assert "prefers-color-scheme: dark" in page
        assert "run 42" in page
        # Failure ledger and incomplete-coverage tile are visible.
        assert "RuntimeError: boom" in page
        assert "incomplete" in page
        # Every chart ships its data-table twin.
        assert page.count("Data table") == 2

    def test_empty_history_renders_without_charts(self):
        page = render_report([])
        assert "Fleet evaluation dashboard" in page
        assert "<svg" not in page

    def test_ninth_series_folds_into_the_table(self):
        # 9 configurations: only the 8 fixed palette slots are plotted; the
        # rest are named in a note and appear in the data table.
        sweeps = [(
            "night-1",
            {
                "configurations": [
                    {"key": f"config-{i}", "cases_ok": 1,
                     "geomean_error": 0.01 * (i + 1)}
                    for i in range(9)
                ],
                "units": 9, "complete": True, "missing": [],
                "failures_total": 0, "cases": [],
            },
        )]
        page = render_report(sweeps)
        assert "1 more series exceed the fixed palette" in page
        assert 'class="line s8"' not in page
        assert "config-8" in page  # still present, in the table

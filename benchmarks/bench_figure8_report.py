"""Figure 8: the ExaTENSOR advice-report excerpt.

Regenerates the report of Section 7.1 / Figure 8: the ranked optimizers for
the ExaTENSOR tensor-transpose kernel with per-hotspot def/use locations and
distances.  The benchmark times one full profile-and-advise pass.
"""

from __future__ import annotations

from repro.advisor.report import render_report
from repro.api.request import request_for_case
from repro.api.session import AdvisingSession


def test_figure8_exatensor_report(benchmark):
    session = AdvisingSession(sample_period=8)
    request = request_for_case("ExaTENSOR:strength_reduction")

    report = benchmark.pedantic(
        session.report_for, args=(request,), iterations=1, rounds=1,
    )

    text = render_report(report, top=3)
    print()
    print(text)

    # The structural elements of Figure 8.
    assert "GPUStrengthReductionOptimizer" in text
    assert "Avoid integer division" in text
    assert "estimate speedup" in text
    assert "distance" in text
    assert "ExaTENSOR/cuda2.cu" in text
    advice = report.advice_for("GPUStrengthReductionOptimizer")
    assert advice.hotspots, "the report lists def/use hotspots"

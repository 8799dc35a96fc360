#!/usr/bin/env python
"""Section 7: the four application case studies.

For each of Quicksilver, ExaTENSOR, PeleC and Minimod, profile the baseline
kernel, show GPA's top suggestions, apply the optimization the paper applied
(by building the hand-optimized variant of the synthetic kernel) and report
the achieved speedup next to the paper's.

Run with:  python examples/case_studies.py
"""

from repro import AdvisingSession, request_for_case
from repro.evaluation.table3 import evaluate_case
from repro.workloads.registry import application_cases


def main():
    session = AdvisingSession(sample_period=8)
    print(f"{'Application':14s} {'Kernel':24s} {'Optimization':30s} "
          f"{'Achieved':>9s} {'Estimated':>10s} {'Paper A/E':>13s}")
    print("-" * 106)
    for case in application_cases():
        row = evaluate_case(case, session)
        print(
            f"{case.name:14s} {case.kernel:24s} {case.optimization:30s} "
            f"{row.achieved_speedup:8.2f}x {row.estimated_speedup:9.2f}x "
            f"{case.paper_achieved_speedup:5.2f}/{case.paper_estimated_speedup:.2f}x"
        )

    print("\nTop advice for each application baseline:")
    seen = set()
    for case in application_cases():
        if case.name in seen:
            continue
        seen.add(case.name)
        report = session.report_for(request_for_case(case))
        top = [item for item in report.advice if item.applicable][:3]
        print(f"\n  {case.name} / {case.kernel}:")
        for rank, advice in enumerate(top, start=1):
            print(f"    {rank}. {advice.optimizer:42s} ratio {advice.ratio*100:5.1f}%  "
                  f"estimate {advice.estimated_speedup:.2f}x")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Figure 8 / Section 7.1: the ExaTENSOR tensor-transpose case study.

Reproduces the two-step optimization the paper walks through:

1. GPA analyzes the baseline kernel and (among its top suggestions) proposes
   Strength Reduction — replace the integer division in the index arithmetic
   with a multiplication by the reciprocal;
2. after applying that change, GPA is run again on the updated kernel and
   proposes Memory Transaction Reduction — replace redundant global reads of
   values shared by all threads with constant-memory reads.

Each step prints the (Figure 8 style) report excerpt and the achieved
speedup measured by re-simulating the changed kernel.

Run with:  python examples/exatensor_report.py
"""

from repro import AdvisingRequest, AdvisingSession, render_report
from repro.workloads.apps import exatensor


def profile_and_report(session, setup, title):
    profiled = session.profile(
        AdvisingRequest.builder()
        .binary(setup.cubin, setup.kernel, setup.config, setup.workload)
        .build()
    )
    report = session.advise_profiled(profiled)
    print("=" * 78)
    print(title)
    print(render_report(report, top=2, hotspots_per_advice=2))
    return profiled, report


def main():
    session = AdvisingSession(sample_period=8)

    baseline = exatensor.baseline()
    baseline_profiled, _ = profile_and_report(session, baseline, "Step 0: original kernel")

    step1 = exatensor.strength_reduced()
    step1_profiled, _ = profile_and_report(
        session, step1, "Step 1: integer division replaced by reciprocal multiply"
    )
    speedup1 = baseline_profiled.kernel_cycles / step1_profiled.kernel_cycles
    print(f"\n--> Strength Reduction achieved speedup: {speedup1:.2f}x "
          f"(paper: 1.07x)\n")

    step2 = exatensor.constant_memory()
    step2_profiled, _ = profile_and_report(
        session, step2, "Step 2: shared read-only data moved to constant memory"
    )
    speedup2 = step1_profiled.kernel_cycles / step2_profiled.kernel_cycles
    print(f"\n--> Memory Transaction Reduction achieved speedup: {speedup2:.2f}x "
          f"(paper: 1.03x)")


if __name__ == "__main__":
    main()

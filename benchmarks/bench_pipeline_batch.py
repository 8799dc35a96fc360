"""Table 3 batches: sequential vs. parallel vs. warm-cache wall time.

``pytest benchmarks/bench_pipeline_batch.py --benchmark-only`` sweeps a
representative Table 3 subset three ways, each through an
:class:`~repro.api.session.AdvisingSession` passed to
:func:`~repro.evaluation.table3.evaluate_table3`:

1. sequential, no cache (the seed code's behaviour),
2. parallel across 4 worker processes, cold cache,
3. sequential again on the warm cache (no simulator invocations at all),

and prints the three wall times side by side.  The timed benchmark is the
warm-cache run; the printed comparison verifies the speedup claims of the
staged pipeline and that all three produce identical rows.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.api.session import AdvisingSession
from repro.evaluation.table3 import evaluate_table3
from repro.workloads.registry import case_by_name

CASES = [
    "rodinia/hotspot:strength_reduction",
    "rodinia/backprop:warp_balance",
    "rodinia/kmeans:loop_unrolling",
    "rodinia/gaussian:thread_increase",
    "rodinia/particlefilter:block_increase",
    "Quicksilver:function_inlining",
]


def _rows_key(result):
    return [
        (
            row.case.case_id,
            row.baseline_cycles,
            row.optimized_cycles,
            row.achieved_speedup,
            row.estimated_speedup,
        )
        for row in result.rows
    ]


def test_pipeline_batch(benchmark):
    cases = [case_by_name(name) for name in CASES]
    cache_dir = tempfile.mkdtemp(prefix="gpa-bench-cache-")
    try:
        started = time.perf_counter()
        sequential = evaluate_table3(cases, session=AdvisingSession(jobs=1))
        sequential_s = time.perf_counter() - started

        started = time.perf_counter()
        parallel = evaluate_table3(
            cases, session=AdvisingSession(jobs=4, cache=cache_dir)
        )
        parallel_s = time.perf_counter() - started

        warm = benchmark.pedantic(
            evaluate_table3,
            args=(cases,),
            kwargs={"session": AdvisingSession(jobs=1, cache=cache_dir)},
            iterations=1,
            rounds=3,
        )
        started = time.perf_counter()
        evaluate_table3(cases, session=AdvisingSession(jobs=1, cache=cache_dir))
        warm_s = time.perf_counter() - started

        print()
        print(
            f"{len(cases)} cases: sequential {sequential_s:.2f}s, "
            f"parallel(4) {parallel_s:.2f}s, warm cache {warm_s:.2f}s "
            f"({sequential_s / max(warm_s, 1e-9):.0f}x)"
        )

        assert not sequential.failures
        assert _rows_key(sequential) == _rows_key(parallel) == _rows_key(warm)
        assert warm_s < sequential_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

"""Figure 7: single-dependency coverage before and after pruning cold edges.

For every Rodinia benchmark the harness profiles the baseline kernel, builds
the instruction dependency graph, measures single-dependency coverage, prunes
cold edges with the three heuristic rules and measures the coverage again.
The paper's qualitative claims: pruning raises coverage above roughly 0.8 for
most benchmarks, while bfs (64-bit addresses assembled from separately
defined registers) and nw (intricate fully-unrolled control flow) stay lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.blame.coverage import single_dependency_coverage
from repro.blame.graph import build_dependency_graph
from repro.blame.pruning import prune_cold_edges
from repro.pipeline.batch import BatchAdvisor, BatchConfig, resolve_case
from repro.pipeline.runner import ProgressCallback
from repro.workloads.base import BenchmarkCase
from repro.workloads.registry import rodinia_cases


@dataclass
class CoverageRow:
    """Coverage of one benchmark before/after pruning."""

    benchmark: str
    kernel: str
    coverage_before: float
    coverage_after: float
    edges_before: int
    edges_after: int
    nodes: int


def coverage_case_worker(config: BatchConfig, case_or_id) -> CoverageRow:
    """Batch worker: the coverage row of one benchmark's baseline kernel."""
    from repro.api.request import request_for_case

    case = resolve_case(case_or_id)
    session = config.build_session()
    profiled = session.profile(
        request_for_case(case, "baseline", arch_flag=config.arch_flag)
    )
    graph = build_dependency_graph(profiled.profile, profiled.structure)
    before = single_dependency_coverage(graph)
    edges_before = len(graph.edges)
    pruned = graph.copy()
    prune_cold_edges(pruned, profiled.structure, config.architecture)
    after = single_dependency_coverage(pruned)
    return CoverageRow(
        benchmark=case.name,
        kernel=case.kernel,
        coverage_before=before,
        coverage_after=after,
        edges_before=edges_before,
        edges_after=len(pruned.edges),
        nodes=len(graph.stalled_nodes()),
    )


def evaluate_figure7(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    sample_period: int = 8,
    jobs: int = 1,
    arch_flag: str = "sm_70",
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    simulation_scope: str = "single_wave",
    memory_model: str = "flat",
) -> List[CoverageRow]:
    """Compute coverage rows for every (unique) benchmark.

    Runs through the batch pipeline: ``jobs`` fans benchmarks out across
    processes, ``cache_dir`` replays already-simulated baseline profiles and
    ``simulation_scope`` selects the simulation engine and ``memory_model``
    the memory system the profiles are collected with.
    """
    unique: List[BenchmarkCase] = []
    seen = set()
    for case in cases if cases is not None else rodinia_cases():
        if case.name in seen:
            continue
        seen.add(case.name)
        unique.append(case)

    advisor = BatchAdvisor(
        BatchConfig(
            arch_flag=arch_flag,
            sample_period=sample_period,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            jobs=jobs,
            simulation_scope=simulation_scope,
            memory_model=memory_model,
        )
    )
    results = advisor.run_cases(coverage_case_worker, unique, progress=progress)
    failed = [result for result in results if not result.ok]
    if failed:
        raise RuntimeError(
            f"figure 7 sweep failed for {failed[0].case_id}:\n{failed[0].error}"
        )
    return [result.value for result in results]


def format_figure7(rows: Sequence[CoverageRow]) -> str:
    """Render the coverage comparison as an ASCII bar-chart-like table."""
    header = (
        f"{'Benchmark':24s} {'Kernel':28s} {'Before':>8s} {'After':>8s} "
        f"{'Edges':>12s} {'Stalled nodes':>14s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.benchmark:24s} {row.kernel:28s} {row.coverage_before:8.2f} "
            f"{row.coverage_after:8.2f} {row.edges_before:5d} ->{row.edges_after:4d} "
            f"{row.nodes:14d}"
        )
    if rows:
        mean_before = sum(r.coverage_before for r in rows) / len(rows)
        mean_after = sum(r.coverage_after for r in rows) / len(rows)
        lines.append("-" * len(header))
        lines.append(f"{'mean':24s} {'':28s} {mean_before:8.2f} {mean_after:8.2f}")
    return "\n".join(lines)

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
from typing import List, Optional, Sequence

from repro.api.request import request_for_case
from repro.api.session import AdvisingSession
from repro.blame.coverage import single_dependency_coverage
from repro.blame.graph import build_dependency_graph
from repro.blame.pruning import prune_cold_edges
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


def coverage_row(case: BenchmarkCase, session: AdvisingSession) -> CoverageRow:
    """The coverage row of one benchmark's baseline kernel."""
    profiled = session.profile(
        request_for_case(case, "baseline", arch_flag=session.arch_flag)
    )
    graph = build_dependency_graph(profiled.profile, profiled.structure)
    pruned = graph.copy()
    prune_cold_edges(pruned, profiled.structure, session.architecture)
    return CoverageRow(
        benchmark=case.name,
        kernel=case.kernel,
        coverage_before=single_dependency_coverage(graph),
        coverage_after=single_dependency_coverage(pruned),
        edges_before=len(graph.edges),
        edges_after=len(pruned.edges),
        nodes=len(graph.stalled_nodes()),
    )


def evaluate_figure7(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    session: Optional[AdvisingSession] = None,
) -> List[CoverageRow]:
    """Compute coverage rows for every (unique) benchmark.

    Baseline profiles come from ``session.profile``, so the session's cache,
    architecture, sample period, simulation scope and memory model apply.
    A failing profile raises.
    """
    session = session if session is not None else AdvisingSession()
    rows: List[CoverageRow] = []
    seen = set()
    for case in cases if cases is not None else rodinia_cases():
        if case.name not in seen:
            seen.add(case.name)
            rows.append(coverage_row(case, session))
    return rows


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

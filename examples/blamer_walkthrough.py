#!/usr/bin/env python
"""Section 4 walkthrough: how the instruction blamer attributes stalls.

Builds the b+tree-like kernel of Listing 2 (a load whose value is consumed
immediately inside a barrier-delimited loop), profiles it, and then shows
each stage of the blamer:

* the raw per-instruction stall profile (what plain PC sampling gives you),
* the dependency graph built from backward slicing (registers, barrier
  registers, predicates),
* the edges removed by the three pruning rules,
* the Equation-1 apportioning result: which *source* instructions are blamed,
  with the Figure 5 fine-grained classification,
* the single-dependency coverage before and after pruning (Figure 7's metric).

Run with:  python examples/blamer_walkthrough.py
"""

from repro import AdvisingRequest, AdvisingSession, InstructionBlamer, VoltaV100
from repro.blame.coverage import single_dependency_coverage
from repro.blame.graph import build_dependency_graph
from repro.blame.pruning import prune_cold_edges
from repro.workloads.rodinia import btree


def main():
    session = AdvisingSession(sample_period=8)
    setup = btree.baseline()
    profiled = session.profile(
        AdvisingRequest.builder()
        .binary(setup.cubin, setup.kernel, setup.config, setup.workload)
        .build()
    )
    profile, structure = profiled.profile, profiled.structure

    print("== Raw PC sampling profile (top stalled instructions) ==")
    stalled = sorted(profile.stall_samples(), key=lambda e: -e.total_stalls)[:5]
    for entry in stalled:
        location = structure.location(entry.function, entry.offset)
        reasons = {reason.value: count for reason, count in entry.stalls.items()}
        print(f"  {location.describe():55s} {reasons}")

    print("\n== Dependency graph before pruning ==")
    graph = build_dependency_graph(profile, structure)
    print(f"  nodes: {len(graph.nodes)}, edges: {len(graph.edges)}, "
          f"single-dependency coverage: {single_dependency_coverage(graph):.2f}")

    pruned = graph.copy()
    statistics = prune_cold_edges(pruned, structure, VoltaV100)
    print("\n== After pruning cold edges ==")
    print(f"  removed by opcode rule    : {statistics.removed_by_opcode}")
    print(f"  removed by dominator rule : {statistics.removed_by_dominator}")
    print(f"  removed by latency rule   : {statistics.removed_by_latency}")
    print(f"  remaining edges           : {statistics.remaining_edges}, "
          f"coverage: {single_dependency_coverage(pruned):.2f}")

    print("\n== Blamed sources (Equation 1 + Figure 5 classification) ==")
    blame = InstructionBlamer(VoltaV100).blame(profile, structure)
    for key, stalls in blame.top_sources(5):
        location = structure.location(*key)
        details = {detail.value: round(count, 1) for detail, count in blame.blamed[key].items()}
        print(f"  {location.describe():55s} blamed {stalls:7.1f} samples  {details}")

    print("\n== Hottest def/use pairs (what Code Reordering works on) ==")
    edges = sorted((e for e in blame.edges if not e.is_self_blame),
                   key=lambda e: -e.stalls)[:3]
    for edge in edges:
        source = structure.location(*edge.source)
        dest = structure.location(*edge.dest)
        print(f"  {edge.stalls:7.1f} stalls, distance {edge.distance}: "
              f"{source.describe()}  ->  {dest.describe()}")


if __name__ == "__main__":
    main()

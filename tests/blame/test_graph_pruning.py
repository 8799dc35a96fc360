"""Tests for dependency-graph construction and cold-edge pruning."""

import pytest

from repro.arch.machine import VoltaV100
from repro.blame.graph import build_dependency_graph
from repro.blame.pruning import edge_supports_reason, prune_cold_edges
from repro.isa.parser import parse_instruction
from repro.sampling.stall_reasons import StallReason


class TestDependencyGraph:
    def test_nodes_exist_for_profiled_instructions(self, toy_profiled):
        graph = build_dependency_graph(toy_profiled.profile, toy_profiled.structure)
        assert len(graph.nodes) > 0
        assert all(node.function == "toy_kernel" for node in graph.nodes.values())

    def test_stalled_use_has_incoming_edge_from_load(self, toy_profiled, toy_cubin):
        graph = build_dependency_graph(toy_profiled.profile, toy_profiled.structure)
        function = toy_cubin.function("toy_kernel")
        load_offset = [i.offset for i in function.instructions if i.opcode == "LDG"][0]
        use_offset = [i.offset for i in function.instructions
                      if i.opcode == "FFMA" and i.line == 14][0]
        edges = graph.in_edges(("toy_kernel", use_offset))
        assert any(edge.source == ("toy_kernel", load_offset) for edge in edges)

    def test_copy_is_independent(self, toy_profiled):
        graph = build_dependency_graph(toy_profiled.profile, toy_profiled.structure)
        copy = graph.copy()
        copy.remove_edges(list(copy.edges))
        assert len(copy.edges) == 0
        assert len(graph.edges) > 0

    def test_stalled_nodes_have_stalls(self, toy_blame):
        for node in toy_blame.graph.stalled_nodes():
            assert node.total_stalls > 0


class TestOpcodeRule:
    def test_memory_dependency_requires_load_source(self):
        load = parse_instruction("LDG.E.32 R0, [R2]")
        alu = parse_instruction("IMAD R0, R4, R5, R6")
        bar = parse_instruction("BAR.SYNC")
        assert edge_supports_reason(load, StallReason.MEMORY_DEPENDENCY)
        assert not edge_supports_reason(alu, StallReason.MEMORY_DEPENDENCY)
        assert not edge_supports_reason(bar, StallReason.MEMORY_DEPENDENCY)

    def test_synchronization_requires_sync_source(self):
        bar = parse_instruction("BAR.SYNC")
        load = parse_instruction("LDG.E.32 R0, [R2]")
        assert edge_supports_reason(bar, StallReason.SYNCHRONIZATION)
        assert not edge_supports_reason(load, StallReason.SYNCHRONIZATION)

    def test_execution_dependency_excludes_global_loads(self):
        load = parse_instruction("LDG.E.32 R0, [R2]")
        shared = parse_instruction("LDS.32 R0, [R16]")
        alu = parse_instruction("IMAD R0, R4, R5, R6")
        store = parse_instruction("STG.E.32 [R2], R5")
        assert not edge_supports_reason(load, StallReason.EXECUTION_DEPENDENCY)
        assert edge_supports_reason(shared, StallReason.EXECUTION_DEPENDENCY)
        assert edge_supports_reason(alu, StallReason.EXECUTION_DEPENDENCY)
        assert edge_supports_reason(store, StallReason.EXECUTION_DEPENDENCY)


class TestPruning:
    def test_pruning_removes_edges_and_reports_statistics(self, toy_profiled):
        graph = build_dependency_graph(toy_profiled.profile, toy_profiled.structure)
        before = len(graph.edges)
        statistics = prune_cold_edges(graph, toy_profiled.structure, VoltaV100)
        assert statistics.total_edges == before
        assert statistics.remaining_edges == len(graph.edges)
        assert statistics.removed_total == before - len(graph.edges)
        assert statistics.removed_total >= 0

    def test_pruning_never_increases_edges(self, toy_profiled):
        graph = build_dependency_graph(toy_profiled.profile, toy_profiled.structure)
        before = len(graph.edges)
        prune_cold_edges(graph, toy_profiled.structure, VoltaV100)
        assert len(graph.edges) <= before

    def test_figure4_opcode_pruning_removes_imad_for_memory_stall(self):
        """Figure 4c: the IMAD -> IADD edge is pruned for memory dependency stalls."""
        from repro.blame.graph import DependencyEdge, DependencyGraph, DependencyNode
        from repro.cfg.graph import build_cfg
        from repro.cubin.binary import Cubin, Function, FunctionVisibility
        from repro.isa.parser import parse_program
        from repro.structure.program import build_program_structure

        program = parse_program(
            """
            @P0 LDG.E.32 R0, [R2]
            @!P0 LDC.32 R0, [R4]
            IMAD R0, R4, R5, R6
            IADD R8, R0, R7
            EXIT
            """
        )
        function = Function("k", FunctionVisibility.GLOBAL, program)
        cubin = Cubin(arch_flag="sm_70")
        cubin.add_function(function)
        structure = build_program_structure(cubin)

        graph = DependencyGraph()
        use = DependencyNode("k", program[3].offset, program[3],
                             stalls={StallReason.MEMORY_DEPENDENCY: 8})
        graph.add_node(use)
        for source in program[:3]:
            graph.add_node(DependencyNode("k", source.offset, source))
            graph.add_edge(DependencyEdge(("k", source.offset), use.key,
                                          frozenset({("R", 0)})))
        statistics = prune_cold_edges(graph, structure, VoltaV100)
        remaining_sources = {edge.source[1] for edge in graph.in_edges(use.key)}
        assert program[2].offset not in remaining_sources  # IMAD pruned
        assert program[0].offset in remaining_sources      # LDG kept
        assert program[1].offset in remaining_sources      # LDC kept
        assert statistics.removed_by_opcode >= 1

    @staticmethod
    def _prune_single_edge(text, source_index, dest_index):
        """Prune one memory-dependency edge between two instructions of ``text``."""
        from repro.blame.graph import DependencyEdge, DependencyGraph, DependencyNode
        from repro.cubin.binary import Cubin, Function, FunctionVisibility
        from repro.isa.parser import parse_program
        from repro.structure.program import build_program_structure

        program = parse_program(text)
        cubin = Cubin(arch_flag="sm_70")
        cubin.add_function(Function("k", FunctionVisibility.GLOBAL, program))
        source, dest = program[source_index], program[dest_index]
        graph = DependencyGraph()
        graph.add_node(DependencyNode("k", dest.offset, dest,
                                      stalls={StallReason.MEMORY_DEPENDENCY: 8}))
        graph.add_node(DependencyNode("k", source.offset, source))
        graph.add_edge(DependencyEdge(("k", source.offset), ("k", dest.offset),
                                      frozenset({("R", 0)})))
        return prune_cold_edges(graph, build_program_structure(cubin), VoltaV100)

    def test_dominator_rule_removes_edge_behind_an_unpredicated_use(self):
        statistics = self._prune_single_edge(
            """
            LDG.E.32 R0, [R2]
            IADD R3, R0, R1
            IADD R4, R0, R1
            EXIT
            """,
            source_index=0, dest_index=2,
        )
        assert statistics.removed_by_dominator == 1

    def test_dominator_rule_keeps_edge_when_the_use_is_predicated(self):
        statistics = self._prune_single_edge(
            """
            LDG.E.32 R0, [R2]
            @P0 IADD R3, R0, R1
            IADD R4, R0, R1
            EXIT
            """,
            source_index=0, dest_index=2,
        )
        assert statistics.removed_by_dominator == 0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the dominator rule scans nothing for a loop-carried "
        "edge whose destination precedes its source in the same block",
    )
    def test_dominator_rule_removes_loop_carried_edge_behind_a_use(self):
        # 0x20 -> 0x10 runs 0x30 (an unpredicated use of R0) on every path
        # around the loop, so the stall would be observed there instead.
        statistics = self._prune_single_edge(
            """
            MOV32I R0, 1
            IADD R3, R0, R1
            LDG.E.32 R0, [R2]
            IADD R4, R0, R1
            @P0 BRA 0x10
            EXIT
            """,
            source_index=2, dest_index=1,
        )
        assert statistics.removed_by_dominator == 1

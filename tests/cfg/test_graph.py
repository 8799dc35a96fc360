"""Tests for CFG construction and path queries."""

import pytest

from repro.cfg.graph import build_cfg
from repro.isa.parser import parse_program


def simple_loop():
    return parse_program(
        """
        MOV32I R1, 0
        MOV32I R2, 16
        LOOP:
        IADD R1, R1, R3
        ISETP.LT.AND P0, R1, R2
        @P0 BRA LOOP
        STG.E.32 [R4], R1
        EXIT
        """
    )


def diamond():
    return parse_program(
        """
        ISETP.LT.AND P0, R1, R2
        @P0 BRA THEN
        IADD R3, R3, R1
        BRA JOIN
        THEN:
        IADD R3, R3, R2
        JOIN:
        STG.E.32 [R4], R3
        EXIT
        """
    )


class TestBuildCfg:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_cfg([])

    def test_loop_blocks_and_edges(self):
        cfg = build_cfg(simple_loop())
        # Entry block, loop body, exit block.
        assert len(cfg.blocks) == 3
        loop_block = cfg.block_containing(0x20)
        # Back edge to itself plus fall-through to the exit block.
        assert sorted(cfg.successors[loop_block.index]) == sorted(
            [loop_block.index, loop_block.index + 1]
        )

    def test_branch_target_starts_new_block(self):
        cfg = build_cfg(diamond())
        then_block = cfg.block_containing(0x40)
        assert then_block.start_offset == 0x40

    def test_exit_has_no_successors(self):
        cfg = build_cfg(simple_loop())
        exit_block = cfg.blocks[-1]
        assert exit_block.terminator.opcode == "EXIT"
        assert cfg.successors[exit_block.index] == []

    def test_predecessors_mirror_successors(self):
        cfg = build_cfg(diamond())
        for block in cfg.blocks:
            for successor in cfg.successors[block.index]:
                assert block.index in cfg.predecessors[successor]

    def test_instruction_lookup(self):
        cfg = build_cfg(simple_loop())
        assert cfg.instruction_at(0x20).opcode == "IADD"
        with pytest.raises(KeyError):
            cfg.instruction_at(0x1000)

    def test_reverse_post_order_starts_at_entry(self):
        cfg = build_cfg(diamond())
        order = cfg.reverse_post_order()
        assert order[0] == cfg.entry_index
        assert sorted(order) == sorted(block.index for block in cfg.blocks)


class TestPathQueries:
    def test_same_block_distance(self):
        cfg = build_cfg(simple_loop())
        # IADD (0x20) to ISETP (0x30): adjacent, 0 instructions in between.
        assert cfg.shortest_path_instructions(0x20, 0x30) == 0

    def test_cross_block_distance(self):
        cfg = build_cfg(diamond())
        # ISETP (0x0) to the store in the join block (0x50).
        shortest = cfg.shortest_path_instructions(0x0, 0x50)
        longest = cfg.longest_path_instructions(0x0, 0x50)
        assert shortest is not None and longest is not None
        assert shortest <= longest

    def test_no_path_returns_none(self):
        cfg = build_cfg(diamond())
        # From the store back to the entry compare: no forward path.
        assert cfg.shortest_path_instructions(0x50, 0x0) is None

    def test_backedge_path_exists(self):
        cfg = build_cfg(simple_loop())
        # From the branch (0x40) back to the loop header (0x20) via the back edge.
        assert cfg.instruction_path_exists(0x40, 0x20)

    def test_blocks_on_all_paths_includes_endpoints(self):
        cfg = build_cfg(diamond())
        blocks = cfg.blocks_on_all_paths(0x0, 0x50)
        assert cfg.block_containing(0x0).index in blocks
        assert cfg.block_containing(0x50).index in blocks
        # Neither arm of the diamond is on every path.
        then_index = cfg.block_containing(0x40).index
        else_index = cfg.block_containing(0x20).index
        assert then_index not in blocks
        assert else_index not in blocks

    def test_blocks_on_all_paths_hands_out_a_fresh_set(self):
        cfg = build_cfg(diamond())
        first = cfg.blocks_on_all_paths(0x0, 0x50)
        expected = set(first)
        first.clear()
        first.add(-1)
        assert cfg.blocks_on_all_paths(0x0, 0x50) == expected


class TestOffsetIndex:
    def test_position_of_unknown_offset_raises(self):
        cfg = build_cfg(simple_loop())
        with pytest.raises(KeyError):
            cfg.position_of(0x1000)

    def test_position_map_matches_block_enumeration_on_registry_cfgs(self):
        from repro.structure.program import build_program_structure
        from repro.workloads.registry import all_cases

        checked = 0
        for case in all_cases():
            for setup in (case.build_baseline(), case.build_optimized()):
                structure = build_program_structure(setup.cubin)
                for function in structure.functions.values():
                    cfg = function.cfg
                    for block in cfg.blocks:
                        for position, instruction in enumerate(block.instructions):
                            assert cfg.position_of(instruction.offset) == position
                            assert cfg.block_containing(instruction.offset) is block
                            checked += 1
        assert checked > 0

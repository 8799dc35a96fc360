"""Backward slicing for GPU instructions.

The slicer finds, for a *use* instruction, the immediate def instructions of
every resource it reads.  Three aspects distinguish it from classic CPU
binary slicing (Section 4, "Backward slicing"):

* **Virtual barrier registers.**  A write/read barrier index in a control
  code is treated as a def of the corresponding virtual barrier register
  ``B0``-``B5`` and a wait mask as a use, so dependencies carried only
  through control codes (Figure 3: a ``BRA`` that waits on the barrier set by
  an ``LDG`` without reading its destination register) are discovered by the
  same def-use machinery.

* **Predicates.**  The search along a path does not stop at the first def of
  a resource: it continues until the union of the encountered defs'
  predicates *covers* the predicate of the use instruction (Figure 4a — an
  unpredicated use of ``R0`` may depend on ``@P0 LDG R0`` *and* on
  ``@!P0 LDC R0`` earlier on the path).

* **Scope.**  Slicing is intra-function and finds only immediate dependency
  sources; transitive dependencies are unlikely to cause the observed stalls.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cfg.graph import ControlFlowGraph
from repro.isa.instruction import Instruction
from repro.isa.registers import Predicate

#: A sliced resource: ``("R", index)`` for a register, ``("B", index)`` for a
#: virtual barrier register.
Resource = Tuple[str, int]


@dataclass(frozen=True)
class DefSite:
    """One immediate dependency source found by the slicer."""

    offset: int
    instruction: Instruction
    resource: Resource
    #: Guard predicate of the def instruction.
    predicate: Predicate

    @property
    def opcode(self) -> str:
        return self.instruction.opcode


@dataclass
class ImmediateDependencies:
    """All immediate dependency sources of one use instruction."""

    use_offset: int
    use_instruction: Instruction
    #: Resource -> def sites that may have produced the value read.
    defs: Dict[Resource, List[DefSite]] = field(default_factory=dict)

    def all_sites(self) -> List[DefSite]:
        sites: List[DefSite] = []
        seen: Set[Tuple[int, Resource]] = set()
        for resource_sites in self.defs.values():
            for site in resource_sites:
                key = (site.offset, site.resource)
                if key not in seen:
                    seen.add(key)
                    sites.append(site)
        return sites

    def source_offsets(self) -> List[int]:
        return sorted({site.offset for site in self.all_sites()})

    def __bool__(self) -> bool:
        return any(self.defs.values())


def _predicate_union_covers(cover: FrozenSet[Tuple[int, bool]], use: Predicate) -> bool:
    """Whether the predicate union ``cover`` contains the use predicate.

    ``cover`` holds ``(index, negated)`` pairs; ``(-1, False)`` denotes the
    unconditional predicate ``_``.  Per the paper, ``P`` contains ``p'`` iff
    ``p' in P`` or ``_ in P``, and ``{p_i} ∪ {!p_i} = {_}``.
    """
    if (-1, False) in cover:
        return True
    indices = {index for index, _negated in cover if index >= 0}
    for index in indices:
        if (index, False) in cover and (index, True) in cover:
            return True
    if use.is_true_predicate:
        return False
    return (use.index, use.negated) in cover


def _def_positions(instructions: Sequence[Instruction]) -> Dict[Resource, List[int]]:
    positions: Dict[Resource, List[int]] = {}
    for position, instruction in enumerate(instructions):
        for resource in instruction.defined_resources:
            positions.setdefault(resource, []).append(position)
    return positions


class BackwardSlicer:
    """Intra-function backward slicer over one control flow graph."""

    def __init__(self, cfg: ControlFlowGraph, max_visited_blocks: int = 512):
        self.cfg = cfg
        self.max_visited_blocks = max_visited_blocks
        self._cache: Dict[int, ImmediateDependencies] = {}
        # Per block index: resource -> ascending positions of its defs.
        self._def_positions: List[Dict[Resource, List[int]]] = [
            _def_positions(block.instructions) for block in cfg.blocks
        ]

    # ------------------------------------------------------------------
    def slice_instruction(self, use_offset: int) -> ImmediateDependencies:
        """Immediate dependency sources of the instruction at ``use_offset``."""
        if use_offset in self._cache:
            return self._cache[use_offset]
        use_instruction = self.cfg.instruction_at(use_offset)
        dependencies = ImmediateDependencies(
            use_offset=use_offset, use_instruction=use_instruction
        )
        for resource in sorted(use_instruction.used_resources):
            sites = self._find_defs(use_offset, use_instruction, resource)
            if sites:
                dependencies.defs[resource] = sites
        self._cache[use_offset] = dependencies
        return dependencies

    # ------------------------------------------------------------------
    def _find_defs(
        self, use_offset: int, use_instruction: Instruction, resource: Resource
    ) -> List[DefSite]:
        """Backward search for defs of ``resource`` reaching ``use_offset``."""
        cfg = self.cfg
        use_block = cfg.block_containing(use_offset)
        use_predicate = use_instruction.predicate

        found: Dict[int, DefSite] = {}
        empty_cover: FrozenSet[Tuple[int, bool]] = frozenset()

        def predicate_key(predicate: Predicate) -> Tuple[int, bool]:
            if predicate.is_true_predicate:
                return (-1, False)
            return (predicate.index, predicate.negated)

        def scan_block(
            block_index: int, start_position: Optional[int], cover: FrozenSet[Tuple[int, bool]]
        ) -> Tuple[FrozenSet[Tuple[int, bool]], bool]:
            """Scan a block backwards from ``start_position`` (exclusive).

            Returns the updated predicate cover and whether the search along
            this path is complete (the cover contains the use predicate).
            """
            instructions = cfg.blocks[block_index].instructions
            positions = self._def_positions[block_index].get(resource, ())
            end = len(positions) if start_position is None else bisect_left(positions, start_position)
            current = set(cover)
            for position in reversed(positions[:end]):
                candidate = instructions[position]
                found.setdefault(
                    candidate.offset,
                    DefSite(
                        offset=candidate.offset,
                        instruction=candidate,
                        resource=resource,
                        predicate=candidate.predicate,
                    ),
                )
                current.add(predicate_key(candidate.predicate))
                if _predicate_union_covers(frozenset(current), use_predicate):
                    return frozenset(current), True
            return frozenset(current), False

        use_position = cfg.position_of(use_offset)

        visited: Set[Tuple[int, FrozenSet[Tuple[int, bool]]]] = set()
        stack: List[Tuple[int, Optional[int], FrozenSet[Tuple[int, bool]]]] = [
            (use_block.index, use_position, empty_cover)
        ]
        visited_blocks = 0

        while stack and visited_blocks < self.max_visited_blocks:
            block_index, start_position, cover = stack.pop()
            state = (block_index, cover) if start_position is None else (-block_index - 1, cover)
            if state in visited:
                continue
            visited.add(state)
            visited_blocks += 1

            new_cover, complete = scan_block(block_index, start_position, cover)
            if complete:
                continue
            for predecessor in self.cfg.predecessors.get(block_index, []):
                stack.append((predecessor, None, new_cover))

        return sorted(found.values(), key=lambda site: site.offset)

"""The :class:`Kernel` — a complete CDFG plus its interface to the host.

A kernel is what the paper's profiler+frontend hands to the scheduler:
live-in locals (params), live-out locals (results), heap arrays accessed
via DMA, and the region tree.  ``validate`` checks the structural
invariants the scheduler relies on; ``to_flat_graph`` exports the
Fig. 11-style flat CDFG view (data edges, control edges, loop-carried
edges with weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.ir.nodes import ArrayRef, Node, Var
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)

__all__ = ["Kernel", "KernelFacts", "ValidationError"]


class ValidationError(Exception):
    """The kernel violates a CDFG structural invariant."""


@dataclass(frozen=True, eq=False)
class KernelFacts:
    """What scheduling needs of a kernel, computed once per shape.

    :meth:`Kernel.facts` keeps these on the kernel object, so they die
    with it and travel with it when it is pickled.
    """

    #: the kernel as it was validated (see :meth:`Kernel.facts`)
    shape: Tuple[Any, ...]
    alu_opcodes: FrozenSet[str]
    #: kernel-only data later layers derive once (the scheduler's
    #: superblock skeletons); dropped together with the facts
    memo: Dict[Any, Any] = field(default_factory=dict)


@dataclass(eq=False)
class Kernel:
    name: str
    params: List[Var]
    results: List[Var]
    arrays: List[ArrayRef]
    body: SeqRegion
    variables: Dict[str, Var] = field(default_factory=dict)

    # -- iteration ------------------------------------------------------

    def blocks(self) -> Iterator[BlockRegion]:
        return self.body.blocks()

    def nodes(self) -> Iterator[Node]:
        return self.body.nodes()

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def opcode_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for node in self.nodes():
            hist[node.opcode] = hist.get(node.opcode, 0) + 1
        return hist

    def used_alu_opcodes(self) -> Set[str]:
        """PE opcodes the kernel needs (for composition compatibility)."""
        out: Set[str] = set()
        for node in self.nodes():
            if node.opcode == "VARREAD":
                continue
            if node.opcode == "VARWRITE":
                out.add("MOVE")  # an unfused pWRITE executes as a move
                continue
            out.add(node.opcode)
        return out

    def loops(self) -> List[LoopRegion]:
        return [r for r in self.body.walk() if isinstance(r, LoopRegion)]

    def max_loop_depth(self) -> int:
        def depth(region: Region) -> int:
            best = 0
            for child in region.children():
                d = depth(child)
                best = max(best, d)
            if isinstance(region, LoopRegion):
                best += 1
            return best

        return depth(self.body)

    # -- variable access sets --------------------------------------------

    @staticmethod
    def written_vars(region: Region) -> Set[Var]:
        return {
            n.var  # type: ignore[misc]
            for n in region.nodes()
            if n.opcode == "VARWRITE"
        }

    @staticmethod
    def read_vars(region: Region) -> Set[Var]:
        return {
            n.var  # type: ignore[misc]
            for n in region.nodes()
            if n.opcode == "VARREAD"
        }

    # -- validation --------------------------------------------------------

    def facts(self) -> KernelFacts:
        """Validate once per shape; return the facts kept on the kernel.

        The shape lists the interface and every region and node of the
        tree by identity.  So the in-place transforms of
        :mod:`repro.ir.transform`, which replace nodes and regions, get
        fresh facts, and the old ones (with their memo) are dropped.
        After editing an existing node's operands or deps in place, call
        :meth:`validate`, which also drops them.
        """
        shape: List[Any] = []
        for group in (self.params, self.results, self.arrays, self.variables.values()):
            shape.append(len(group))
            shape.extend(group)
        _region_shape(self.body, shape)
        facts = self.__dict__.get("_facts")
        if facts is None or facts.shape != tuple(shape):
            self.validate()
            facts = KernelFacts(tuple(shape), frozenset(self.used_alu_opcodes()))
            self.__dict__["_facts"] = facts
        return facts

    def validate(self) -> None:
        """Check CDFG structural invariants; raise :class:`ValidationError`.

        * every node lives in exactly one block,
        * operand/dep edges stay within one block (cross-region dataflow
          must go through variables),
        * compare-node statuses feed conditions, never value operands,
        * condition leaves live in the region's own cond block / header,
        * referenced variables and arrays are declared.

        Drops the facts :meth:`facts` keeps on the kernel.
        """
        self.__dict__.pop("_facts", None)
        owner: Dict[int, BlockRegion] = {}
        for block in self.blocks():
            for node in block.node_list:
                if node.id in owner:
                    raise ValidationError(f"{node!r} appears in two blocks")
                owner[node.id] = block

        declared_vars = set(self.variables.values())
        declared_arrays = set(self.arrays)

        for block in self.blocks():
            for node in block.node_list:
                for pred in node.predecessors():
                    if pred.id not in owner:
                        raise ValidationError(
                            f"{node!r} references {pred!r} which is not in "
                            "any block"
                        )
                    if owner[pred.id] is not block:
                        raise ValidationError(
                            f"{node!r} references {pred!r} from another "
                            "block; cross-region dataflow must use variables"
                        )
                for op in node.operands:
                    if op.is_compare:
                        raise ValidationError(
                            f"{node!r} consumes the value of compare "
                            f"{op!r}; statuses feed the C-Box only"
                        )
                if node.var is not None and node.var not in declared_vars:
                    raise ValidationError(
                        f"{node!r} references undeclared variable "
                        f"{node.var.name}"
                    )
                if node.array is not None and node.array not in declared_arrays:
                    raise ValidationError(
                        f"{node!r} references undeclared array "
                        f"{node.array.name}"
                    )

        for region in self.body.walk():
            if isinstance(region, IfRegion):
                cond_home: Sequence[BlockRegion] = (region.cond_block,)
            elif isinstance(region, LoopRegion):
                cond_home = (region.header,)
            else:
                continue
            for leaf in region.cond.leaves():
                if owner.get(leaf.node.id) not in cond_home:
                    raise ValidationError(
                        f"condition of {type(region).__name__} references "
                        f"{leaf.node!r} outside its condition block"
                    )

        for var in self.params + self.results:
            if var not in declared_vars:
                raise ValidationError(f"undeclared interface variable {var}")

    # -- flat CDFG export (Fig. 11) ----------------------------------------

    def to_flat_graph(self) -> "nx.DiGraph":
        """Flat CDFG: Fig. 11's view of the kernel.

        Nodes are CDFG nodes (keyed by id, with ``opcode``/``label``
        attributes).  Edges carry ``kind``:

        * ``data``    — operand flow (black edges),
        * ``dep``     — ordering hazards,
        * ``control`` — condition compare -> controlled node (grey),
        * loop-carried dependencies get ``weight=1`` (the annotated
          edges of Fig. 11): a VARWRITE inside a loop feeding a VARREAD
          of the same variable at or before it in the next iteration.
        """
        g = nx.DiGraph()
        for node in self.nodes():
            label = node.opcode
            if node.var is not None:
                label += f" {node.var.name}"
            if node.array is not None:
                label += f" {node.array.name}"
            if node.opcode == "CONST":
                label += f" {node.value}"
            g.add_node(node.id, opcode=node.opcode, label=label, obj=node)

        for node in self.nodes():
            for op in node.operands:
                g.add_edge(op.id, node.id, kind="data", weight=0)
            for dep in node.deps:
                if not g.has_edge(dep.id, node.id):
                    g.add_edge(dep.id, node.id, kind="dep", weight=0)

        # control edges: compare nodes of a region's condition dominate
        # the controlled bodies (grey edges in Fig. 11)
        for region in self.body.walk():
            if isinstance(region, IfRegion):
                cmps = [leaf.node for leaf in region.cond.leaves()]
                targets: List[Node] = list(region.then_body.nodes()) + list(
                    region.else_body.nodes()
                )
            elif isinstance(region, LoopRegion):
                cmps = [leaf.node for leaf in region.cond.leaves()]
                targets = list(region.body.nodes())
            else:
                continue
            for cmp_node in cmps:
                for tgt in targets:
                    if not g.has_edge(cmp_node.id, tgt.id):
                        g.add_edge(cmp_node.id, tgt.id, kind="control", weight=0)

        # loop-carried edges (weight 1)
        for loop in self.loops():
            order: Dict[int, int] = {}
            for pos, node in enumerate(loop.nodes()):
                order[node.id] = pos
            writes: Dict[Var, List[Node]] = {}
            for node in loop.nodes():
                if node.opcode == "VARWRITE":
                    writes.setdefault(node.var, []).append(node)  # type: ignore[arg-type]
            for node in loop.nodes():
                if node.opcode != "VARREAD":
                    continue
                for w in writes.get(node.var, ()):  # type: ignore[arg-type]
                    if order[w.id] >= order[node.id]:
                        g.add_edge(w.id, node.id, kind="data", weight=1)
        return g

    def summary(self) -> str:
        hist = self.opcode_histogram()
        return (
            f"kernel {self.name}: {self.node_count()} nodes, "
            f"{len(self.loops())} loops (max depth {self.max_loop_depth()}), "
            f"{len(self.params)} live-in, {len(self.results)} live-out, "
            f"{len(self.arrays)} arrays; ops: "
            + ", ".join(f"{k}={v}" for k, v in sorted(hist.items()))
        )


def _region_shape(region: Region, out: List[Any]) -> None:
    """Append ``region``, its condition and its subtree to ``out``."""
    out.append(region)
    if isinstance(region, BlockRegion):
        out.append(len(region.node_list))
        out.extend(region.node_list)
        return
    if isinstance(region, (IfRegion, LoopRegion)):
        out.append(region.cond)
    children = region.children()
    out.append(len(children))
    for child in children:
        _region_shape(child, out)

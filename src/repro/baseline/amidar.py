"""Sequential IR interpreter with the AMIDAR cost model.

Executes a :class:`~repro.ir.cdfg.Kernel` exactly (32-bit wrap
semantics, same heap model as the CGRA simulator) while accumulating
the baseline cycle count.  Because it interprets the *same IR* the
scheduler consumes, it serves double duty:

* the performance baseline of Section VI-A (AMIDAR executes the
  bytecode sequence directly), and
* an independent reference executor for differential testing of the
  frontend + scheduler + simulator chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.arch.operations import OPS, evaluate, wrap32
from repro.baseline.costs import AMIDAR_COSTS, BRANCH_COST, LOOP_OVERHEAD
from repro.ir.cdfg import Kernel
from repro.ir.nodes import Node, Var
from repro.ir.regions import (
    BlockRegion,
    CondBin,
    CondExpr,
    CondLeaf,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.sim.memory import Heap

__all__ = ["AmidarInterpreter", "BaselineResult", "run_baseline"]


class BaselineError(Exception):
    pass


@dataclass
class LoopProfile:
    """Dynamic statistics of one loop (the AMIDAR hardware profiler's
    view, Section III / [17])."""

    entries: int = 0
    iterations: int = 0
    cycles: int = 0  # spent inside, including nested loops

    def share_of(self, total: int) -> float:
        return self.cycles / total if total else 0.0


@dataclass
class BaselineResult:
    results: Dict[str, int]
    cycles: int
    #: dynamic opcode histogram
    executed: Dict[str, int]
    heap: Heap
    #: per-loop dynamic statistics, keyed by the LoopRegion object
    loop_profiles: Dict["LoopRegion", "LoopProfile"] = None  # type: ignore[assignment]

    def hottest_loops(self, threshold: float = 0.5):
        """Loops consuming at least ``threshold`` of total cycles —
        the profiler's candidate sequences for CGRA synthesis (Fig. 1)."""
        if not self.loop_profiles:
            return []
        hot = [
            (loop, prof)
            for loop, prof in self.loop_profiles.items()
            if prof.share_of(self.cycles) >= threshold
        ]
        hot.sort(key=lambda lp: -lp[1].cycles)
        return hot


class AmidarInterpreter:
    def __init__(self, kernel: Kernel, *, max_nodes: int = 100_000_000) -> None:
        kernel.facts()  # validated once per kernel shape
        self.kernel = kernel
        self.max_nodes = max_nodes

    def run(
        self,
        livein: Mapping[str, int],
        heap: Optional[Heap] = None,
    ) -> BaselineResult:
        env: Dict[Var, int] = {var: 0 for var in self.kernel.variables.values()}
        for name, value in livein.items():
            var = self.kernel.variables.get(name)
            if var is None or not var.is_param:
                raise KeyError(f"kernel has no live-in variable {name!r}")
            env[var] = wrap32(value)
        missing = [
            v.name for v in self.kernel.params if v.name not in livein
        ]
        if missing:
            raise KeyError(f"missing live-in values: {missing}")
        state = _ExecState(
            env=env,
            heap=heap if heap is not None else Heap(),
            budget=self.max_nodes,
        )
        _exec_region(self.kernel.body, state)
        results = {var.name: state.env[var] for var in self.kernel.results}
        return BaselineResult(
            results=results,
            cycles=state.cycles,
            executed=dict(state.executed),
            heap=state.heap,
            loop_profiles=dict(state.loop_profiles),
        )


@dataclass
class _ExecState:
    env: Dict[Var, int]
    heap: Heap
    budget: int
    cycles: int = 0
    executed: Dict[str, int] = field(default_factory=dict)
    #: node id -> value, for the current block only
    values: Dict[int, int] = field(default_factory=dict)
    loop_profiles: Dict[LoopRegion, LoopProfile] = field(default_factory=dict)

    def charge(self, opcode: str) -> None:
        self.cycles += AMIDAR_COSTS[opcode]
        self.executed[opcode] = self.executed.get(opcode, 0) + 1
        self.budget -= 1
        if self.budget < 0:
            raise BaselineError("node budget exceeded (runaway loop?)")


def _exec_node(node: Node, state: _ExecState) -> None:
    state.charge(node.opcode)
    opcode = node.opcode
    if opcode == "CONST":
        state.values[node.id] = wrap32(node.value)  # type: ignore[arg-type]
        return
    if opcode == "VARREAD":
        state.values[node.id] = state.env[node.var]  # type: ignore[index]
        return
    if opcode == "VARWRITE":
        state.env[node.var] = state.values[node.operands[0].id]  # type: ignore[index]
        return
    if opcode == "DMA_LOAD":
        index = state.values[node.operands[0].id]
        state.values[node.id] = state.heap.load(node.array.handle, index)  # type: ignore[union-attr]
        return
    if opcode == "DMA_STORE":
        index = state.values[node.operands[0].id]
        value = state.values[node.operands[1].id]
        state.heap.store(node.array.handle, index, value)  # type: ignore[union-attr]
        return
    operands = [state.values[o.id] for o in node.operands]
    spec = OPS[opcode]
    result = spec.apply(*operands)
    state.values[node.id] = result


def _exec_block(block: BlockRegion, state: _ExecState) -> None:
    state.values = {}
    for node in block.node_list:
        _exec_node(node, state)


def _eval_cond(cond: CondExpr, state: _ExecState) -> bool:
    if isinstance(cond, CondLeaf):
        value = bool(state.values[cond.node.id])
        return value != cond.negate
    if isinstance(cond, CondBin):
        left = _eval_cond(cond.left, state)
        right = _eval_cond(cond.right, state)
        return (left and right) if cond.op == "and" else (left or right)
    raise BaselineError(f"unknown condition {type(cond).__name__}")


def _cond_statuses(block: BlockRegion, cond: CondExpr, state: _ExecState) -> bool:
    _exec_block(block, state)
    return _eval_cond(cond, state)


def _exec_region(region: Region, state: _ExecState) -> None:
    if isinstance(region, BlockRegion):
        _exec_block(region, state)
    elif isinstance(region, SeqRegion):
        for child in region.items:
            _exec_region(child, state)
    elif isinstance(region, IfRegion):
        taken = _cond_statuses(region.cond_block, region.cond, state)
        state.cycles += BRANCH_COST
        _exec_region(region.then_body if taken else region.else_body, state)
    elif isinstance(region, LoopRegion):
        profile = state.loop_profiles.setdefault(region, LoopProfile())
        profile.entries += 1
        start_cycles = state.cycles
        while True:
            cont = _cond_statuses(region.header, region.cond, state)
            state.cycles += BRANCH_COST
            if not cont:
                break
            profile.iterations += 1
            _exec_region(region.body, state)
            state.cycles += LOOP_OVERHEAD
        profile.cycles += state.cycles - start_cycles
    else:  # pragma: no cover
        raise BaselineError(f"unknown region {type(region).__name__}")


def run_baseline(
    kernel: Kernel,
    livein: Mapping[str, int],
    arrays: Optional[Mapping[str, Sequence[int]]] = None,
) -> BaselineResult:
    """Convenience wrapper mirroring :func:`repro.sim.invoke_kernel`."""
    heap = Heap()
    supplied = dict(arrays or {})
    for ref in kernel.arrays:
        data = supplied.pop(ref.name, None)
        if data is None:
            raise KeyError(f"missing contents for array {ref.name!r}")
        heap.allocate(ref.handle, data)
    if supplied:
        raise KeyError(f"unknown arrays supplied: {sorted(supplied)}")
    return AmidarInterpreter(kernel).run(livein, heap)

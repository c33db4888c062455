"""Hybrid host + CGRA co-execution ("invocation", Sections III/IV-A.3).

The host (the AMIDAR-cost interpreter) executes the kernel, but when it
enters a loop that has been mapped onto the CGRA, the execution is
forwarded: live-in locals are transferred (2 cycles each), the CGRA runs
autonomously ("during CGRA execution the AMIDAR processor is idle"), the
changed locals are written back, and the host continues.  The cycle
accounting keeps both sides separate, exactly the quantities the paper's
speedup compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.arch.composition import Composition
from repro.arch.operations import wrap32
from repro.baseline.amidar import (
    BaselineError,
    _ExecState,
    _cond_statuses,
    _exec_region,
)
from repro.baseline.costs import BRANCH_COST, LOOP_OVERHEAD
from repro.context.generator import generate_contexts
from repro.flow.extract import ExtractedKernel, extract_loop
from repro.ir.cdfg import Kernel
from repro.ir.nodes import Var
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.sched.scheduler import schedule_kernel
from repro.sim.invocation import TRANSFER_CYCLES_PER_VAR
from repro.sim.machine import CGRASimulator
from repro.sim.memory import Heap

__all__ = ["MappedLoop", "HybridResult", "HybridExecutor", "accelerate"]


@dataclass
class MappedLoop:
    extracted: ExtractedKernel
    program: object  # ContextProgram


@dataclass
class HybridResult:
    results: Dict[str, int]
    host_cycles: int
    cgra_cycles: int
    transfer_cycles: int
    invocations: int
    heap: Heap

    @property
    def total_cycles(self) -> int:
        return self.host_cycles + self.cgra_cycles + self.transfer_cycles


class HybridExecutor:
    """Executes a kernel with selected loops offloaded to a CGRA."""

    def __init__(
        self,
        kernel: Kernel,
        comp: Composition,
        hot_loops: Sequence[LoopRegion],
        *,
        max_cycles: int = 50_000_000,
    ) -> None:
        kernel.facts()  # validated once per kernel shape
        self.kernel = kernel
        self.comp = comp
        self.max_cycles = max_cycles
        self.mapped: Dict[LoopRegion, MappedLoop] = {}
        for loop in hot_loops:
            extracted = extract_loop(kernel, loop)
            schedule = schedule_kernel(extracted.kernel, comp)
            program = generate_contexts(schedule, comp, extracted.kernel)
            self.mapped[loop] = MappedLoop(extracted=extracted, program=program)

    def run(
        self,
        livein: Mapping[str, int],
        heap: Optional[Heap] = None,
    ) -> HybridResult:
        env: Dict[Var, int] = {v: 0 for v in self.kernel.variables.values()}
        for name, value in livein.items():
            var = self.kernel.variables.get(name)
            if var is None or not var.is_param:
                raise KeyError(f"kernel has no live-in variable {name!r}")
            env[var] = wrap32(value)
        missing = [v.name for v in self.kernel.params if v.name not in livein]
        if missing:
            raise KeyError(f"missing live-in values: {missing}")

        heap = heap if heap is not None else Heap()
        state = _ExecState(env=env, heap=heap, budget=10**9)
        counters = {"cgra": 0, "transfer": 0, "invocations": 0}
        self._exec(self.kernel.body, state, counters)
        results = {v.name: env[v] for v in self.kernel.results}
        return HybridResult(
            results=results,
            host_cycles=state.cycles,
            cgra_cycles=counters["cgra"],
            transfer_cycles=counters["transfer"],
            invocations=counters["invocations"],
            heap=heap,
        )

    # -- the host's region walk with offload points -----------------------

    def _exec(self, region: Region, state: _ExecState, counters) -> None:
        if isinstance(region, LoopRegion) and region in self.mapped:
            self._invoke(region, state, counters)
            return
        if isinstance(region, SeqRegion):
            for child in region.items:
                self._exec(child, state, counters)
            return
        if isinstance(region, IfRegion):
            taken = _cond_statuses(region.cond_block, region.cond, state)
            state.cycles += BRANCH_COST
            self._exec(
                region.then_body if taken else region.else_body,
                state,
                counters,
            )
            return
        if isinstance(region, LoopRegion):
            while True:
                cont = _cond_statuses(region.header, region.cond, state)
                state.cycles += BRANCH_COST
                if not cont:
                    return
                self._exec(region.body, state, counters)
                state.cycles += LOOP_OVERHEAD
            return
        # plain block (or unmapped leaf): the interpreter handles it
        _exec_region(region, state)

    def _invoke(self, loop: LoopRegion, state: _ExecState, counters) -> None:
        """One invocation: transfer live-ins, run, write back (Fig. 6)."""
        mapped = self.mapped[loop]
        extracted = mapped.extracted
        sim = CGRASimulator(
            self.comp, mapped.program, state.heap, max_cycles=self.max_cycles
        )
        by_name = {
            var.name: loc
            for var, loc in mapped.program.livein_map.items()
        }
        for original in extracted.livein_vars:
            pe, slot = by_name[original.name]
            sim.write_livein(pe, slot, state.env[original])
        run = sim.run()
        for var, (pe, slot) in mapped.program.liveout_map.items():
            original = next(
                o for o, c in extracted.var_map.items() if c is var
            )
            state.env[original] = sim.read_liveout(pe, slot)
        counters["cgra"] += run.cycles
        counters["transfer"] += TRANSFER_CYCLES_PER_VAR * (
            len(mapped.program.livein_map) + len(mapped.program.liveout_map)
        )
        counters["invocations"] += 1


def accelerate(
    kernel: Kernel,
    comp: Composition,
    livein: Mapping[str, int],
    arrays: Optional[Mapping[str, Sequence[int]]] = None,
    *,
    threshold: float = 0.5,
) -> Tuple[HybridExecutor, "HybridResult", "HybridResult"]:
    """The full Fig. 1 flow on a representative input.

    Profiles the kernel on the baseline, maps every loop whose cycle
    share exceeds ``threshold`` (outermost such loops only), and runs
    the hybrid.  Returns ``(executor, baseline_as_hybrid, hybrid)`` —
    the baseline result is wrapped in :class:`HybridResult` form
    (cgra_cycles = 0) for uniform comparison.
    """
    from repro.baseline import run_baseline

    def build_heap() -> Heap:
        heap = Heap()
        supplied = dict(arrays or {})
        for ref in kernel.arrays:
            data = supplied.pop(ref.name, None)
            if data is None:
                raise KeyError(f"missing contents for array {ref.name!r}")
            heap.allocate(ref.handle, list(data))
        if supplied:
            raise KeyError(f"unknown arrays supplied: {sorted(supplied)}")
        return heap

    base = run_baseline(
        kernel, livein, {r.name: list((arrays or {})[r.name]) for r in kernel.arrays}
    )
    hot = [loop for loop, _ in base.hottest_loops(threshold)]
    # outermost hot loops only: a mapped loop subsumes its children
    from repro.ir.loops import LoopGraph

    lg = LoopGraph(kernel)
    outermost = [
        loop
        for loop in hot
        if not any(parent in hot for parent in _ancestors(lg, loop))
    ]
    executor = HybridExecutor(kernel, comp, outermost)
    hybrid = executor.run(livein, build_heap())
    base_wrapped = HybridResult(
        results=base.results,
        host_cycles=base.cycles,
        cgra_cycles=0,
        transfer_cycles=0,
        invocations=0,
        heap=base.heap,
    )
    return executor, base_wrapped, hybrid


def _ancestors(lg, loop: LoopRegion) -> List[LoopRegion]:
    out = []
    parent = lg.parent(loop)
    while parent is not None:
        out.append(parent)
        parent = lg.parent(parent)
    return out

"""Per-region scheduling strategies and region analysis.

:func:`~repro.sched.scheduler.schedule_kernel` runs a *region analysis*
pass before placement: every loop region of the kernel is
assigned a :class:`LoopDecision` naming the strategy that will realise
it.  Placement then dispatches each loop through its strategy:

* :class:`ListStrategy` — the paper's iteration-at-a-time realisation
  (header superblock, guarded exit, body, unconditional back branch).
* ``ModuloStrategy`` (:mod:`repro.sched.modulo`) — software pipelining
  via loop rotation for innermost loops with superblock-shaped bodies.

Strategies are chosen per region, so one kernel may mix both: a
``scheduler_mode="modulo"`` run still realises non-pipelineable loops
(nested loops, loop-carrying ifs in the body) with the list strategy,
and a strategy that fails *during* placement rolls the region back
(:class:`repro.sched.state.SchedCheckpoint`) and falls back to the list
strategy, so every kernel that scheduled before still schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.ir.cdfg import Kernel
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.sched.schedule import LoopSpan, PlannedBranch, SchedulingError
from repro.arch.ccu import BranchKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.scheduler import RegionScheduler

__all__ = [
    "SCHEDULER_MODES",
    "DEFAULT_SCHEDULER_MODE",
    "validate_scheduler_mode",
    "spec_compatible",
    "LoopDecision",
    "RegionPlan",
    "analyze_regions",
    "SchedulingStrategy",
    "ListStrategy",
    "LIST_STRATEGY",
    "strategy_for",
]

#: the three scheduler modes threaded through eval/serve/explore:
#: ``list`` — every loop iteration-at-a-time (the paper's Algorithm 1),
#: ``modulo`` — software-pipeline every eligible innermost loop,
#: ``auto`` — per loop, keep the modulo realisation only when its
#: achieved II beats the list realisation's iteration span.
SCHEDULER_MODES = ("list", "modulo", "auto")
DEFAULT_SCHEDULER_MODE = "list"


def validate_scheduler_mode(mode: str) -> str:
    if mode not in SCHEDULER_MODES:
        raise ValueError(
            f"unknown scheduler_mode {mode!r}; expected one of "
            f"{', '.join(SCHEDULER_MODES)}"
        )
    return mode


def spec_compatible(region: IfRegion, *, under_pred: bool) -> bool:
    """Can this if/else be speculated (Section V-B)?

    Requirements beyond being loop-free: the condition must be
    evaluable by the C-Box's one-stored-one-incoming combine chain,
    and — because nested predicates are FORKed from the enclosing
    pair one status at a time — any condition evaluated *under* a
    predicate must be a single compare.  Ifs that fail the test are
    realised with real CCNT branches instead.
    """
    from repro.ir.regions import UnsupportedConditionError

    if not region.is_speculatable():
        return False
    try:
        steps = region.cond.linearize()
    except UnsupportedConditionError:
        return False
    if under_pred and len(steps) > 1:
        return False
    for sub in region.then_body.walk():
        if isinstance(sub, IfRegion) and len(sub.cond.leaves()) > 1:
            return False
    for sub in region.else_body.walk():
        if isinstance(sub, IfRegion) and len(sub.cond.leaves()) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# region analysis (before placement)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopDecision:
    """Region-analysis verdict for one loop region."""

    strategy: str  # "list" | "modulo"
    #: why (an eligibility rejection, or "eligible" / "mode")
    reason: str


class RegionPlan:
    """Per-loop strategy decisions keyed by region object identity."""

    def __init__(self, mode: str, decisions: Dict[int, LoopDecision]) -> None:
        self.mode = mode
        self._decisions = decisions

    def decision_for(self, loop: LoopRegion) -> LoopDecision:
        return self._decisions.get(
            id(loop), LoopDecision("list", "unanalysed")
        )

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for decision in self._decisions.values():
            out[decision.strategy] = out.get(decision.strategy, 0) + 1
        return out


def _walk_loops(region: Region):
    if isinstance(region, SeqRegion):
        for item in region.items:
            yield from _walk_loops(item)
    elif isinstance(region, IfRegion):
        yield from _walk_loops(region.then_body)
        yield from _walk_loops(region.else_body)
    elif isinstance(region, LoopRegion):
        yield region
        yield from _walk_loops(region.body)


def analyze_regions(
    kernel: Kernel, *, mode: str, speculate: bool = True
) -> RegionPlan:
    """Pipeline pass 1: pick a strategy for every loop region."""
    validate_scheduler_mode(mode)
    decisions: Dict[int, LoopDecision] = {}
    for loop in _walk_loops(kernel.body):
        if mode == "list":
            decisions[id(loop)] = LoopDecision("list", "mode")
            continue
        from repro.sched.modulo import modulo_eligibility

        reason = modulo_eligibility(loop, speculate=speculate)
        if reason is None:
            decisions[id(loop)] = LoopDecision("modulo", "eligible")
        else:
            decisions[id(loop)] = LoopDecision("list", reason)
    return RegionPlan(mode, decisions)


# ---------------------------------------------------------------------------
# strategies (placement dispatch)
# ---------------------------------------------------------------------------


class SchedulingStrategy:
    """Realises one loop region on a :class:`RegionScheduler`."""

    name = "abstract"

    def schedule_loop(
        self, sched: "RegionScheduler", loop: LoopRegion
    ) -> None:
        raise NotImplementedError


class ListStrategy(SchedulingStrategy):
    """The paper's realisation: iterations execute back-to-back.

    Per iteration the header superblock evaluates the condition, a
    conditional branch exits when it is false, the body runs, and an
    unconditional branch returns to the header.
    """

    name = "list"

    def schedule_loop(
        self, sched: "RegionScheduler", loop: LoopRegion
    ) -> None:
        for node in loop.header.node_list:
            if node.opcode in ("VARWRITE", "DMA_STORE"):
                raise SchedulingError(
                    "loop headers must be side-effect free (writes belong "
                    "in the loop body)"
                )
        written = Kernel.written_vars(loop)
        # copies made before the loop of variables written inside it go
        # stale on the back edge — invalidate on entry (Section V-D)
        sched.vars.invalidate_copies(sorted(written, key=lambda v: v.name))

        header_start = sched.frontier
        pair = sched.planner.plan_condition(loop.cond, None)
        sched._sched_superblock([loop.header], None)

        exit_branch, exit_label = sched._emit_cond_exit_branch(pair)

        var_snap = sched.vars.snapshot()
        const_snap = sched.consts.snapshot()

        sched._sched_seq(loop.body, None)

        back_cycle = sched._branch_cycle()
        sched.res.branches[back_cycle] = PlannedBranch(
            back_cycle, BranchKind.UNCONDITIONAL, target=header_start
        )
        sched._bound_targets.add(header_start)
        sched.frontier = back_cycle + 1
        sched._bind(exit_label, sched.frontier)
        sched.loop_spans.append(LoopSpan(header_start, back_cycle))

        # the body may have run zero times: merge its state with the
        # state at loop entry (copies/consts survive only if identical)
        other_vars = sched.vars.restore(var_snap)
        sched.vars.merge(other_vars)
        sched.vars.merge(var_snap)
        other_consts = sched.consts.restore(const_snap)
        sched.consts.merge(other_consts)


LIST_STRATEGY = ListStrategy()


def strategy_for(decision: LoopDecision) -> SchedulingStrategy:
    if decision.strategy == "modulo":
        from repro.sched.modulo import ModuloStrategy

        return ModuloStrategy()
    return LIST_STRATEGY

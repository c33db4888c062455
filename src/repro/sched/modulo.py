"""Iterative modulo scheduling for innermost loops (software pipelining).

The list strategy realises a loop as ``[header | guard] [body | back
branch]`` and executes iterations back-to-back, paying the header span
and two branch cycles every iteration.  This module software-pipelines
eligible loops via *loop rotation*:

* **prologue** — the header superblock evaluates the condition for
  iteration 0; a conditional guard branch skips the whole loop when it
  is false (zero-trip counts never enter the kernel).
* **steady-state kernel** — ONE superblock merging the body of
  iteration *k* with the header of iteration *k+1*, closed by a
  conditional back branch taken while the (freshly combined) condition
  holds.  Header and body operations overlap freely inside the span,
  and the guard + back branch collapse into a single branch cycle per
  iteration.
* **epilogue** — empty: the rotated pipeline has a single stage, so the
  exit falls straight through the back branch.

Rotation also removes all speculation from the kernel: entering the
span *implies* the previous condition check passed, so body effects
need no predication and no squash handling.

The initiation interval is searched upward from
``MII = max(ResMII, RecMII, PathMII)`` (Rau's iterative modulo
scheduling): each candidate II bounds placement with a deadline of
``II`` cycles.  The kernel-span superblock is built once per loop and
every attempt schedules a copy of it; an attempt stops as soon as some
unplaced item's critical tail can no longer finish by the deadline.
Unless some probe of the attempt missed the deadline, the next II
would replay the same placements up to that point, so the search
raises the II in place and placement goes on (:class:`_IISearch`).
Only an attempt in which a probe missed the deadline (an opcode slower
on some eligible PEs than on others) rolls the region back
(:class:`repro.sched.state.SchedCheckpoint`) and retries with II+1.
Infeasible loops (or, in ``auto`` mode, loops where no II beats the
list realisation's iteration span, or whose rotated form homes a
variable on another PE than the list form) fall back to the list
strategy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.arch.ccu import BranchKind
from repro.ir.cdfg import Kernel
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    UnsupportedConditionError,
)
from repro.sched.schedule import (
    LoopSpan,
    ModuloLoopInfo,
    PlannedBranch,
    PredRef,
    SchedulingError,
)
from repro.sched.state import SchedCheckpoint
from repro.sched.strategy import (
    LIST_STRATEGY,
    SchedulingStrategy,
    spec_compatible,
)
from repro.sched.superblock import Superblock, build_superblock

__all__ = [
    "IIBounds",
    "ModuloInfeasible",
    "ModuloStrategy",
    "modulo_eligibility",
    "compute_mii",
]

#: II values tried beyond MII before declaring the loop infeasible
MAX_II_ATTEMPTS = 48


class ModuloInfeasible(SchedulingError):
    """No feasible II found; the caller falls back to the list strategy.

    ``attempts`` counts the II values tried before giving up (0 when the
    loop was rejected before the search started).
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------


def modulo_eligibility(
    loop: LoopRegion, *, speculate: bool = True
) -> Optional[str]:
    """``None`` if ``loop`` can be software-pipelined, else the reason.

    Pipelineable loops are *innermost* (no nested loops), have a
    side-effect-free header with a C-Box-evaluable condition, and a body
    whose leaf regions form one superblock: blocks, plus speculatable
    ifs when speculation is enabled.  Everything else — data-dependent
    inner loops, loop-carrying ifs — keeps the list realisation.
    """
    for node in loop.header.node_list:
        if node.opcode in ("VARWRITE", "DMA_STORE"):
            return "header-side-effects"
    try:
        loop.cond.linearize()
    except UnsupportedConditionError:
        return "unsupported-condition"
    from repro.sched.scheduler import RegionScheduler

    for item in RegionScheduler._leaf_regions(loop.body):
        if isinstance(item, BlockRegion):
            continue
        if isinstance(item, LoopRegion):
            return "nested-loop"
        if isinstance(item, IfRegion):
            if not speculate:
                return "speculation-disabled"
            if not spec_compatible(item, under_pred=False):
                return "non-speculatable-if"
            continue
        return f"unsupported-region-{type(item).__name__}"
    return None


# ---------------------------------------------------------------------------
# MII = max(ResMII, RecMII, PathMII)
# ---------------------------------------------------------------------------


class IIBounds(NamedTuple):
    """Lower bounds on the II of one kernel span (see :func:`compute_mii`)."""

    res_mii: int
    rec_mii: int
    path_mii: int
    #: item key -> its minimum duration plus its longest successor chain
    tails: Dict[int, int]

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii, self.path_mii)


def _min_duration(sched, opcode: str, pes: Tuple[int, ...]) -> int:
    exec_opcode = "MOVE" if opcode == "VARWRITE" else opcode
    return min(sched.comp.pes[pe].duration(exec_opcode) for pe in pes)


def _issue_weight(sched, opcode: str, pes: Tuple[int, ...]) -> int:
    """Cycles one op of ``opcode`` occupies its cheapest eligible PE."""
    exec_opcode = "MOVE" if opcode == "VARWRITE" else opcode
    best = None
    for pe in pes:
        desc = sched.comp.pes[pe]
        w = 1 if desc.pipelined else desc.duration(exec_opcode)
        best = w if best is None else min(best, w)
    return best if best is not None else 1


def compute_mii(sched, sb: Superblock) -> IIBounds:
    """ResMII, RecMII and PathMII lower bounds for one kernel span.

    ResMII: per-opcode-class issue pressure over the eligible PEs (an
    op on a non-pipelined PE occupies it for its duration), total items
    over the fabric width, and one C-Box combine per cycle.  RecMII:
    for every loop-carried variable (read and written inside the span)
    the cycle ``read@k -> ... -> write@k``/``write@k -> read@k+1``
    forces ``II >= longest read-to-write path latency``.  PathMII: the
    whole span must fit in II cycles, and an item only issues after its
    predecessors finish, so ``II >= longest dependence chain`` over
    ``sb.succs`` (each item weighted by its minimum duration on its
    eligible PEs).  All three are conservative *lower* bounds — the
    achieved II is whatever bounded placement first succeeds at.

    The per-item chain lengths behind PathMII come back as ``tails``;
    the bounded placement uses them to abort an attempt early.
    """
    comp = sched.comp
    demand: Dict[str, int] = {}
    eligible: Dict[str, int] = {}
    combines = 0
    for item in sb.items.values():
        pes = sched._pe_base_list(item.opcode)
        if not pes:
            raise SchedulingError(
                f"no PE of {comp.name} can execute {item.opcode}"
            )
        demand[item.opcode] = demand.get(item.opcode, 0) + _issue_weight(
            sched, item.opcode, pes
        )
        eligible[item.opcode] = len(pes)
        if item.cond_step is not None:
            combines += 1
    res_mii = 1
    for opcode, need in demand.items():
        res_mii = max(res_mii, -(-need // eligible[opcode]))
    res_mii = max(res_mii, -(-len(sb.items) // comp.n_pes), combines)

    # -- RecMII over loop-carried variable recurrences ---------------------
    durations = {
        key: _min_duration(sched, item.opcode, sched._pe_base_list(item.opcode))
        for key, item in sb.items.items()
    }
    preds: Dict[int, List[int]] = {k: [] for k in sb.items}
    for k, succs in sb.succs.items():
        for s in succs:
            preds[s].append(k)
    topo: List[int] = []
    indeg = {k: len(preds[k]) for k in sb.items}
    ready = [k for k, d in indeg.items() if d == 0]
    while ready:
        k = ready.pop()
        topo.append(k)
        for s in sb.succs.get(k, ()):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)

    readers: Dict[object, List[int]] = {}
    writers: Dict[object, List[int]] = {}
    for key, item in sb.items.items():
        if item.dest_var is not None:
            writers.setdefault(item.dest_var, []).append(key)
        for spec in item.operands:
            if spec.kind == "var":
                readers.setdefault(spec.var, []).append(key)

    rec_mii = 1
    for var, writer_keys in writers.items():
        reader_keys = readers.get(var)
        if not reader_keys:
            continue
        # longest path latency from any reader of var to each node
        lp: Dict[int, int] = {}
        sources = set(reader_keys)
        for k in topo:
            best = durations[k] if k in sources else None
            for p in preds[k]:
                if p in lp:
                    cand = lp[p] + durations[k]
                    best = cand if best is None else max(best, cand)
            if best is not None:
                lp[k] = best
        for w in writer_keys:
            if w in lp:
                rec_mii = max(rec_mii, lp[w])

    # -- PathMII over the longest dependence chain --------------------------
    tails: Dict[int, int] = {}
    for k in reversed(topo):
        tails[k] = durations[k] + max(
            (tails[s] for s in sb.succs.get(k, ())), default=0
        )
    path_mii = max(tails.values(), default=1)
    return IIBounds(res_mii, rec_mii, path_mii, tails)


# ---------------------------------------------------------------------------
# the strategy
# ---------------------------------------------------------------------------


def _var_homes(sched) -> Dict[object, int]:
    """Variable -> home PE for every variable homed so far."""
    return {
        var: st.home_pe
        for var, st in sched.vars.all_vars()
        if st.home_pe is not None
    }


class _IISearch:
    """The II values one loop's search has tried.

    ``ii`` is the II the running attempt places for and ``attempts``
    counts every II tried so far, the ones skipped in place included.
    """

    def __init__(self, sched, span_start: int, mii: int, cap: int) -> None:
        self.sched = sched
        self.span_start = span_start
        self.cap = cap
        self.ii = mii
        self.attempts = 0

    def raise_to(self, reach: int, cycle: int) -> Optional[int]:
        """The deadline the attempt continues under, or None to abort it.

        Called when the reach check at the top of ``cycle`` finds that
        some unplaced item cannot finish before ``reach``.  Placement
        reads the deadline only there and in the per-probe finish check.
        If no probe of this attempt missed the deadline, each II up to
        the smallest one whose deadline covers ``reach`` would replay
        every placement so far from the checkpoint and fail here again,
        so those IIs count as tried and the attempt goes on in place.
        Past ``cap`` every remaining II fails the same way: they all
        count, and the attempt aborts.
        """
        sched = self.sched
        if sched._deadline_rejected:
            return None
        ii = min(reach - self.span_start + 1, self.cap)
        if ii > self.ii:
            if sched.obs_tracer.enabled:
                sched.obs_tracer.event(
                    "sched.modulo.raise", from_ii=self.ii, to_ii=ii, cycle=cycle
                )
            self.attempts += ii - self.ii
            self.ii = ii
        deadline = self.span_start + ii - 1
        return deadline if reach <= deadline else None


class ModuloStrategy(SchedulingStrategy):
    """Software-pipeline one loop; falls back to the list strategy."""

    name = "modulo"

    def schedule_loop(self, sched, loop: LoopRegion) -> None:
        metrics = sched.obs_metrics
        entry = SchedCheckpoint(sched)
        max_ii: Optional[int] = None
        list_homes: Optional[Dict[object, int]] = None
        if sched.scheduler_mode == "auto":
            # auto keeps the rotated form only when its II strictly
            # beats the list realisation's iteration span: with equal
            # prologues, that makes auto at least as good as list for
            # every trip count.
            LIST_STRATEGY.schedule_loop(sched, loop)
            span = sched.loop_spans[-1]
            max_ii = span.end - span.start  # list span length - 1
            list_homes = _var_homes(sched)
            entry.rollback(sched)
        try:
            info = self._pipeline_loop(sched, loop, max_ii=max_ii)
            # homes are global: a variable first written in the loop but
            # homed elsewhere than under the list realisation moves every
            # later access to it, which can cost cycles after the loop
            # even when the loop never runs — auto keeps list then
            if list_homes is not None and _var_homes(sched) != list_homes:
                raise ModuloInfeasible(
                    "rotated form homes variables off the list PEs",
                    attempts=info.attempts,
                )
        except SchedulingError as exc:
            attempts = exc.attempts if isinstance(exc, ModuloInfeasible) else 0
            if metrics.enabled:
                metrics.inc("sched.modulo.fallback")
                metrics.inc("sched.modulo.attempts", attempts)
            if sched.obs_tracer.enabled:
                sched.obs_tracer.event(
                    "sched.modulo.fallback", reason=str(exc), attempts=attempts
                )
            entry.rollback(sched)
            LIST_STRATEGY.schedule_loop(sched, loop)
            return
        if metrics.enabled:
            metrics.inc("sched.modulo.loops")
            metrics.inc("sched.modulo.attempts", info.attempts)
            metrics.observe("sched.modulo.ii", info.ii)

    def _pipeline_loop(
        self, sched, loop: LoopRegion, *, max_ii: Optional[int]
    ) -> ModuloLoopInfo:
        reason = modulo_eligibility(loop, speculate=sched.speculate)
        if reason is not None:
            raise ModuloInfeasible(f"loop not pipelineable: {reason}")
        written = Kernel.written_vars(loop)
        sched.vars.invalidate_copies(sorted(written, key=lambda v: v.name))

        # -- prologue: header for iteration 0 + zero-trip guard -----------
        prologue_start = sched.frontier
        pair = sched.planner.plan_condition(loop.cond, None)
        sched._sched_superblock([loop.header], None)
        _, exit_label = sched._emit_cond_exit_branch(pair)

        var_snap = sched.vars.snapshot()
        const_snap = sched.consts.snapshot()
        # copies of loop-written variables made while scheduling the
        # prologue go stale on the back edge exactly like pre-loop ones
        sched.vars.invalidate_copies(sorted(written, key=lambda v: v.name))

        from repro.sched.scheduler import RegionScheduler

        span_regions: List[Region] = list(
            RegionScheduler._leaf_regions(loop.body)
        ) + [loop.header]

        # -- the kernel-span superblock, built once per loop.  The build
        # registers body-if condition pairs with the planner, so the
        # checkpoint every failed attempt rolls back to is taken after it
        span_start = sched.frontier
        sb = build_superblock(span_regions, None, sched.planner, sched._skeletons)
        bounds = compute_mii(sched, sb)
        checkpoint = SchedCheckpoint(sched)
        mii = bounds.mii

        cap = mii + MAX_II_ATTEMPTS
        if max_ii is not None:
            cap = min(cap, max_ii)
        if cap < mii:
            raise ModuloInfeasible(
                f"II budget {cap} below MII {mii} (ResMII {bounds.res_mii}, "
                f"RecMII {bounds.rec_mii}, PathMII {bounds.path_mii})"
            )

        # -- iterative II search: raised in place, replayed only when a
        # probe missed the deadline -------------------------------------
        search = _IISearch(sched, span_start, mii, cap)
        back_cycle: Optional[int] = None
        while search.ii <= cap:
            search.attempts += 1
            try:
                back_cycle = self._attempt_span(
                    sched, sb, bounds.tails, pair, search
                )
                break
            except SchedulingError:
                checkpoint.rollback(sched)
                search.ii += 1
        if back_cycle is None:
            raise ModuloInfeasible(
                f"no feasible II in [{mii}, {cap}] for loop kernel span",
                attempts=search.attempts,
            )
        achieved = back_cycle - span_start + 1

        sched.frontier = back_cycle + 1
        sched._bind(exit_label, sched.frontier)
        sched.loop_spans.append(LoopSpan(span_start, back_cycle))
        info = ModuloLoopInfo(
            prologue_start=prologue_start,
            kernel_start=span_start,
            kernel_end=back_cycle,
            ii=achieved,
            res_mii=bounds.res_mii,
            rec_mii=bounds.rec_mii,
            attempts=search.attempts,
            path_mii=bounds.path_mii,
        )
        sched.modulo_loops.append(info)

        # -- post-loop state: the guard may skip the kernel entirely ------
        other_vars = sched.vars.restore(var_snap)
        sched.vars.merge(other_vars)
        sched.vars.merge(var_snap)
        other_consts = sched.consts.restore(const_snap)
        sched.consts.merge(other_consts)
        return info

    def _attempt_span(
        self,
        sched,
        sb: Superblock,
        tails: Dict[int, int],
        pair: int,
        search: _IISearch,
    ) -> int:
        """One bounded placement attempt; returns the back-branch cycle.

        Starts at ``search.ii``, which the attempt may raise in place.
        Places a shallow copy of ``sb``: dynamic unfuse inserts items
        into the dict it schedules, and the next attempt must start
        from the built superblock again.
        """
        span_start = search.span_start
        sched._deadline = span_start + search.ii - 1
        sched._deadline_tails = tails
        sched._deadline_raise = search.raise_to
        sched._deadline_rejected = False
        try:
            sched._place_superblock(replace(sb, items=dict(sb.items)))
            deadline = sched._deadline
        finally:
            sched._deadline = None
            sched._deadline_raise = None
        back_cycle = sched._branch_cycle()
        if back_cycle > deadline:
            raise SchedulingError(
                f"kernel span needs more than II={search.ii} cycles"
            )
        combine = sched.planner.combined_at.get(pair)
        if combine is None:  # pragma: no cover - structural
            raise SchedulingError("loop condition never combined in span")
        if back_cycle == combine:
            sel: object = "fresh_pos"
        else:
            sel = PredRef(pair, True)
            if not sched.planner.read_allowed(PredRef(pair, True), back_cycle):
                raise SchedulingError(
                    "back branch before its condition is stored"
                )
        sched.res.cbox_outctrl[back_cycle] = sel
        sched.res.branches[back_cycle] = PlannedBranch(
            back_cycle, BranchKind.CONDITIONAL, target=span_start
        )
        sched._bound_targets.add(span_start)
        return back_cycle

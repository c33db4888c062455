"""The region-driven list scheduler (Section V, Algorithm 1).

The paper's Algorithm 1 is a time-stepped list scheduler: per time step
the candidate nodes (all predecessors handled) are visited in priority
order (longest path weight); each candidate tries the PEs in attraction
order and is placed on the first compatible, non-busy PE whose operands
can be made accessible — copying values across the interconnect when
needed, "before the current time step if it is possible".

The *check loop compatibility* step of Algorithm 1 demands that nodes of
an inner loop only start once every predecessor of every node in that
loop has finished, and that nodes of the outer loop run either before or
after the inner loop (Section V-C).  We realise exactly this constraint
set by walking the region tree: maximal runs of blocks and loop-free
if/else regions form *superblocks* that are list-scheduled as one DAG
(with both if-paths speculated and pWRITEs predicated, Section V-B),
while loops and loop-carrying ifs become context regions delimited by
CCU branches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.arch.composition import Composition
from repro.ir.cdfg import Kernel
from repro.ir.nodes import Node, Var
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.obs import get_metrics, get_tracer
from repro.perf.fingerprint import composition_fingerprint
from repro.sched.predication import PredPlanner
from repro.sched.routing import AccessPlan, Router
from repro.sched.schedule import (
    LoopSpan,
    ModuloLoopInfo,
    OperandSource,
    PlacedOp,
    PlannedBranch,
    PlannedCBoxOp,
    PredRef,
    Schedule,
    SchedulingError,
    ValueKind,
)
from repro.sched.state import (
    ConstTracker,
    ResourceState,
    Txn,
    ValueTable,
    VarTracker,
)
from repro.sched.strategy import (
    DEFAULT_SCHEDULER_MODE,
    RegionPlan,
    analyze_regions,
    spec_compatible,
    strategy_for,
    validate_scheduler_mode,
)
from repro.sched.superblock import OperandSpec, SBItem, Superblock, build_superblock
from repro.arch.ccu import BranchKind

__all__ = ["RegionScheduler", "schedule_kernel"]

#: composition digest -> opcode -> eligible-PE base list
#: (:meth:`RegionScheduler._pe_base_list`); keyed by content, so equal
#: compositions share one entry and a dead one's list is never served
_PE_LISTS: Dict[str, Dict[str, Tuple[int, ...]]] = {}

#: opcodes whose effects must be predicated under speculation
_PREDICATED_EFFECTS = ("VARWRITE", "DMA_LOAD", "DMA_STORE")


class _Label:
    """Forward branch target, patched once the cycle is known."""

    def __init__(self) -> None:
        self.cycle: Optional[int] = None
        self.pending: List[PlannedBranch] = []

    def bind(self, cycle: int) -> None:
        self.cycle = cycle
        for br in self.pending:
            br.target = cycle

    def attach(self, branch: PlannedBranch) -> None:
        if self.cycle is not None:
            branch.target = self.cycle
        else:
            self.pending.append(branch)


class RegionScheduler:
    def __init__(
        self,
        kernel: Kernel,
        comp: Composition,
        *,
        enforce_context_size: bool = True,
        max_stall: int = 2000,
        use_attraction: bool = True,
        speculate: bool = True,
        scheduler_mode: str = DEFAULT_SCHEDULER_MODE,
        region_plan: Optional[RegionPlan] = None,
    ) -> None:
        """Map ``kernel`` onto ``comp``.

        ``use_attraction`` / ``speculate`` exist for ablation studies:
        disabling attraction falls back to connectivity-ordered PE
        selection; disabling speculation realises *every* if/else with
        real CCNT branches instead of predicated execution.

        ``scheduler_mode`` selects the per-region loop strategy
        (``list`` / ``modulo`` / ``auto``, see repro.sched.strategy);
        ``region_plan`` injects a precomputed region-analysis result
        (the pipeline's pass 1) and defaults to analysing here.
        """
        facts = kernel.facts()
        validate_scheduler_mode(scheduler_mode)
        missing = comp.validate_for_kernel_ops(facts.alu_opcodes)
        if missing:
            raise SchedulingError(
                f"composition {comp.name} supports no PE for: {missing}"
            )
        self.kernel = kernel
        self.comp = comp
        self.enforce_context_size = enforce_context_size
        self.max_stall = max_stall
        self.use_attraction = use_attraction
        self.speculate = speculate
        self.scheduler_mode = scheduler_mode
        #: pass-1 result: which strategy realises each loop region
        self.region_plan = (
            region_plan
            if region_plan is not None
            else analyze_regions(kernel, mode=scheduler_mode, speculate=speculate)
        )

        #: observability hooks captured at construction; both default to
        #: inert no-ops (see repro.obs), so the hot path pays ~nothing
        self.obs_tracer = get_tracer()
        self.obs_metrics = get_metrics()

        self.values = ValueTable()
        self.res = ResourceState(comp.n_pes)
        self.vars = VarTracker(self.values)
        self.consts = ConstTracker(self.values)
        self.planner = PredPlanner()
        self.router = Router(comp, self.values)

        self.frontier = 0
        #: cycles some emitted branch jumps to; a region-end branch must
        #: not be placed *before* such a cycle (jumpers would skip it)
        self._bound_targets: set = set()
        self.loop_spans: List[LoopSpan] = []
        self.modulo_loops: List[ModuloLoopInfo] = []
        #: bounded placement (modulo II search): no item may finish past
        #: this cycle; None disables the bound (list scheduling)
        self._deadline: Optional[int] = None
        #: item key -> fewest cycles from its issue to the end of its
        #: longest successor chain (sched.modulo.compute_mii); read only
        #: under a deadline, which aborts once an item can no longer make it
        self._deadline_tails: Dict[int, int] = {}
        #: called with (reach, cycle) when the reach check fails; returns
        #: a later deadline covering ``reach`` to continue in place, or
        #: None to abort (the modulo II search's in-place raise)
        self._deadline_raise: Optional[Callable[[int, int], Optional[int]]] = None
        #: some probe of the running attempt missed the deadline
        self._deadline_rejected = False
        #: node value locations: node id -> [(pe, vid, ready)]
        self.node_locs: Dict[int, List[Tuple[int, int, int]]] = {}
        #: attraction criterion (Section V-G): (item key, pe) -> score
        self.attraction: Dict[Tuple[int, int], int] = {}
        self._pending_unfused: List[Tuple[int, SBItem]] = []
        #: opcode -> eligible-PE base list (support + DMA filters are
        #: static per composition; only the attraction re-sort changes
        #: between placement attempts).  Pre-sorted in connectivity
        #: order, the attraction-free tie-break.  Shared by every
        #: scheduler of an equal composition.
        self._pe_base = _PE_LISTS.setdefault(composition_fingerprint(comp), {})
        #: superblock skeletons of this kernel (repro.sched.superblock)
        self._skeletons = facts.memo

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(self) -> Schedule:
        with self.obs_tracer.span(
            "sched.kernel",
            kernel=self.kernel.name,
            composition=self.comp.name,
        ):
            schedule = self._run()
        metrics = self.obs_metrics
        if metrics.enabled:
            metrics.inc("sched.kernels")
            metrics.inc("sched.ops.placed", len(schedule.ops))
            metrics.inc("sched.loop.spans", len(schedule.loop_spans))
            metrics.inc("sched.pred.pairs", schedule.n_pred_pairs)
            metrics.observe("sched.schedule.cycles", schedule.n_cycles)
        return schedule

    def _run(self) -> Schedule:
        self._sched_seq(self.kernel.body, None)
        # ensure every interface variable is homed (unused params/results)
        rr = 0
        for var in list(self.kernel.params) + list(self.kernel.results):
            st = self.vars.state(var)
            if st.home_pe is None:
                self.vars.assign_home(var, rr % self.comp.n_pes)
                rr += 1
        # live-in values are present from cycle 0; live-outs are read at
        # the end of the run
        for var in self.kernel.params:
            vid = self.vars.state(var).home_vid
            assert vid is not None
            self.values.note_def(vid, 0)
        halt_cycle = self.frontier
        for var in self.kernel.results:
            vid = self.vars.state(var).home_vid
            assert vid is not None
            self.values.note_use(vid, halt_cycle)
        self.res.branches[halt_cycle] = PlannedBranch(halt_cycle, BranchKind.HALT)
        n_cycles = halt_cycle + 1

        if self.enforce_context_size and n_cycles > self.comp.context_size:
            raise SchedulingError(
                f"schedule needs {n_cycles} contexts but composition "
                f"{self.comp.name} has {self.comp.context_size}"
            )

        cbox = self._merge_cbox_plans()
        schedule = Schedule(
            kernel_name=self.kernel.name,
            composition_name=self.comp.name,
            n_cycles=n_cycles,
            ops=sorted(self.res.ops, key=lambda o: (o.cycle, o.pe)),
            cbox=cbox,
            branches=dict(self.res.branches),
            values=self.values.all(),
            var_homes={
                var: st.home_vid
                for var, st in self.vars.all_vars()
                if st.home_vid is not None
            },
            outport_bookings=dict(self.res.outports),
            loop_spans=list(self.loop_spans),
            n_pred_pairs=self.planner.n_pairs,
            modulo_loops=list(self.modulo_loops),
        )
        schedule.validate(self.comp)
        return schedule

    def _merge_cbox_plans(self) -> Dict[int, PlannedCBoxOp]:
        cbox = dict(self.res.cbox_combine)
        for cycle, pred in self.res.cbox_outpe.items():
            entry = cbox.setdefault(cycle, PlannedCBoxOp(cycle=cycle))
            entry.out_pe = pred
        for cycle, sel in self.res.cbox_outctrl.items():
            entry = cbox.setdefault(cycle, PlannedCBoxOp(cycle=cycle))
            entry.out_ctrl = sel
        return cbox

    # ------------------------------------------------------------------
    # region walking
    # ------------------------------------------------------------------

    @staticmethod
    def _leaf_regions(seq: SeqRegion):
        """Iterate non-Seq children, flattening nested sequences."""
        for item in seq.items:
            if isinstance(item, SeqRegion):
                yield from RegionScheduler._leaf_regions(item)
            else:
                yield item

    def _sched_seq(self, seq: SeqRegion, pred: Optional[PredRef]) -> None:
        run: List[Region] = []

        def flush() -> None:
            if run:
                self._sched_superblock(list(run), pred)
                run.clear()

        for item in self._leaf_regions(seq):
            if isinstance(item, BlockRegion):
                run.append(item)
            elif (
                isinstance(item, IfRegion)
                and self.speculate
                and self._spec_compatible(item, under_pred=pred is not None)
            ):
                run.append(item)
            elif isinstance(item, IfRegion):
                flush()
                if pred is not None:  # pragma: no cover - structural
                    raise SchedulingError(
                        "loop-carrying if under a speculation predicate"
                    )
                self._sched_if_real(item)
            elif isinstance(item, LoopRegion):
                flush()
                if pred is not None:  # pragma: no cover - structural
                    raise SchedulingError("loop under a speculation predicate")
                self._sched_loop(item)
            else:  # pragma: no cover - future region kinds
                raise SchedulingError(f"unknown region {type(item).__name__}")
        flush()

    def _spec_compatible(self, region: IfRegion, *, under_pred: bool) -> bool:
        """Can this if/else be speculated (Section V-B)?

        Delegates to :func:`repro.sched.strategy.spec_compatible`, which
        region analysis shares for modulo-eligibility checks.
        """
        return spec_compatible(region, under_pred=under_pred)

    def _sched_loop(self, loop: LoopRegion) -> None:
        """Realise one loop through its region-analysis strategy.

        Pass 1 (repro.sched.strategy.analyze_regions) decided per loop
        whether the list or the modulo strategy applies; a modulo
        attempt that fails during placement rolls back and re-runs the
        loop with the list strategy, so kernels never regress.
        """
        decision = self.region_plan.decision_for(loop)
        strategy_for(decision).schedule_loop(self, loop)

    def _sched_if_real(self, region: IfRegion) -> None:
        pair = self.planner.plan_condition(region.cond, None)
        self._sched_superblock([region.cond_block], None)
        else_branch, else_label = self._emit_cond_exit_branch(pair)

        var_snap = self.vars.snapshot()
        const_snap = self.consts.snapshot()

        self._sched_seq(region.then_body, None)
        end_cycle_br = self._branch_cycle()
        end_branch = PlannedBranch(end_cycle_br, BranchKind.UNCONDITIONAL)
        end_label = _Label()
        end_label.attach(end_branch)
        self.res.branches[end_cycle_br] = end_branch
        self.frontier = end_cycle_br + 1
        self._bind(else_label, self.frontier)

        then_vars = self.vars.restore(var_snap)
        then_consts = self.consts.restore(const_snap)

        self._sched_seq(region.else_body, None)
        self._bind(end_label, self.frontier)

        self.vars.merge(then_vars)
        self.consts.merge(then_consts)

    def _emit_cond_exit_branch(self, pair: int) -> Tuple[PlannedBranch, _Label]:
        """Branch taken when the condition is FALSE, after its combine."""
        combine = self.planner.combined_at.get(pair)
        if combine is None:  # pragma: no cover - structural
            raise SchedulingError("condition was never combined")
        cycle = self._branch_cycle()
        if cycle == combine:
            sel: Union[PredRef, str] = "fresh_neg"
        else:
            sel = PredRef(pair, False)
            if not self.planner.read_allowed(PredRef(pair, False), cycle):
                raise SchedulingError("branch before its condition is stored")
        self.res.cbox_outctrl[cycle] = sel
        label = _Label()
        branch = PlannedBranch(cycle, BranchKind.CONDITIONAL)
        label.attach(branch)
        self.res.branches[cycle] = branch
        self.frontier = cycle + 1
        return branch, label

    def _bind(self, label: "_Label", cycle: int) -> None:
        label.bind(cycle)
        self._bound_targets.add(cycle)

    def _branch_cycle(self) -> int:
        """Last cycle of the current region if branch-free, else a new one.

        Sharing the final cycle is illegal when some inner branch
        already targets ``frontier`` ("after this region"): a branch at
        ``frontier - 1`` would be skipped by those jumpers.
        """
        candidate = max(self.frontier - 1, 0)
        if (
            self.frontier > 0
            and self.frontier not in self._bound_targets
            and candidate not in self.res.branches
            and candidate not in self.res.cbox_outctrl
            and candidate >= self.router.region_start
        ):
            return candidate
        return self.frontier

    # ------------------------------------------------------------------
    # superblock list scheduling (Algorithm 1)
    # ------------------------------------------------------------------

    def _sched_superblock(
        self, regions: Sequence[Region], pred: Optional[PredRef]
    ) -> None:
        self._place_superblock(
            build_superblock(regions, pred, self.planner, self._skeletons)
        )

    def _place_superblock(self, sb: Superblock) -> None:
        """List-schedule an already built superblock from the frontier."""
        if not sb.items:
            return
        with self.obs_tracer.span(
            "sched.superblock", start=self.frontier, items=len(sb.items)
        ) as sb_span:
            self._sched_superblock_items(sb, sb_span)

    def _sched_superblock_items(self, sb: Superblock, sb_span) -> None:
        if self.obs_metrics.enabled:
            self.obs_metrics.inc("sched.superblocks")
            self.obs_metrics.inc("sched.superblock.items", len(sb.items))
        self.router.region_start = start = self.frontier
        self.node_locs = {}
        self._pending_unfused: List[Tuple[int, SBItem]] = []
        self._fused_done: List[int] = []

        remaining: Dict[int, SBItem] = dict(sb.items)
        preds = {key: self._preds(item, sb) for key, item in remaining.items()}
        done: Dict[int, int] = {}  # item key -> final cycle
        max_cycle = start - 1
        t = start
        stall = 0
        deadline, tails = self._deadline, self._deadline_tails

        while remaining:
            if deadline is not None:
                # an unplaced item issues at t or later, then its longest
                # successor chain runs; an unfused pWRITE that re-entered
                # the pool (no tail of its own) needs at least one cycle
                need = max(tails.get(key, 1) for key in remaining)
                reach = t + need - 1
                if reach > deadline:
                    raise_to = self._deadline_raise
                    raised = None if raise_to is None else raise_to(reach, t)
                    if raised is None:
                        raise SchedulingError(
                            f"deadline {deadline} out of reach at cycle {t}: "
                            f"items {sorted(remaining)} need {need} more cycles"
                        )
                    deadline = self._deadline = raised
            candidates = [
                item
                for key, item in remaining.items()
                if all(d in done and done[d] < t for d in preds[key])
            ]
            candidates.sort(key=lambda it: (-it.priority, it.key))
            placed_any = False
            for item in candidates:
                placed = self._try_place(item, t, sb)
                if placed is None:
                    continue
                del remaining[item.key]
                done[item.key] = placed.final_cycle
                # a committed fusion also completes the absorbed pWRITE
                for wkey in self._fused_done:
                    done[wkey] = placed.final_cycle
                self._fused_done.clear()
                max_cycle = max(max_cycle, placed.final_cycle)
                self._update_attraction(item, placed.pe, sb)
                placed_any = True
            # dynamically unfused pWRITEs re-enter the candidate pool
            for key, unfused in self._pending_unfused:
                remaining[key] = unfused
                preds[key] = self._preds(unfused, sb)
            self._pending_unfused.clear()
            if not placed_any and self.obs_metrics.enabled:
                self.obs_metrics.inc("sched.stall.steps")
            stall = 0 if placed_any else stall + 1
            if stall > self.max_stall:
                blocked = sorted(remaining)
                if self.obs_tracer.enabled:
                    self.obs_tracer.event(
                        "sched.stall.abort", cycle=t, blocked=blocked
                    )
                raise SchedulingError(
                    f"scheduler stalled at cycle {t} with items {blocked} "
                    f"unplaceable on {self.comp.name} (unreachable values "
                    "or insufficient resources)"
                )
            t += 1

        self.frontier = max(max_cycle + 1, start)
        sb_span.set(end=self.frontier)

    def _preds(self, item: SBItem, sb: Superblock) -> Set[int]:
        preds = set(item.deps)
        for op in item.operands:
            if op.kind == "node" and op.node.id in sb.items:
                preds.add(op.node.id)
        preds.discard(item.key)
        return preds

    def _update_attraction(self, item: SBItem, pe: int, sb: Superblock) -> None:
        """Section V-G: successors are attracted to PEs that can access
        the result's register file — the PE itself and its readers."""
        accessors = (pe,) + self.comp.interconnect.sinks_of(pe)
        for succ in sb.succs.get(item.key, ()):
            for p in accessors:
                key = (succ, p)
                self.attraction[key] = self.attraction.get(key, 0) + 1

    # -- PE ordering ------------------------------------------------------

    def _pe_base_list(self, item_opcode: str) -> Tuple[int, ...]:
        """Eligible PEs for an opcode, in connectivity order (cached).

        The support and DMA filters depend only on the composition, so
        the base list is computed once per opcode and composition
        content (:data:`_PE_LISTS`); ``_pe_order`` then
        only applies the per-item work (home filter, attraction sort).
        """
        base = self._pe_base.get(item_opcode)
        if base is None:
            exec_opcode = "MOVE" if item_opcode == "VARWRITE" else item_opcode
            pes = [
                pe
                for pe in range(self.comp.n_pes)
                if self.comp.pes[pe].supports(exec_opcode)
            ]
            if item_opcode in ("DMA_LOAD", "DMA_STORE"):
                pes = [pe for pe in pes if self.comp.pes[pe].has_dma]
            icn = self.comp.interconnect
            pes.sort(key=lambda pe: (-icn.degree(pe), pe))
            base = self._pe_base[item_opcode] = tuple(pes)
        return base

    def _pe_order(self, item: SBItem) -> List[int]:
        pes = list(self._pe_base_list(item.opcode))
        if item.opcode == "VARWRITE":
            # unfused pWRITE "must ultimately be done on its assigned PE"
            home = self.vars.state(item.dest_var).home_pe  # type: ignore[arg-type]
            if home is not None:
                pes = [pe for pe in pes if pe == home]
        if not pes:
            raise SchedulingError(
                f"no PE of {self.comp.name} can execute {item.opcode}"
            )
        if self.use_attraction:
            # the base list is already in connectivity order, the exact
            # tie-break of the full key, so the stable sort only has to
            # consult the attraction scores
            attraction = self.attraction
            key = item.key
            pes.sort(key=lambda pe: -attraction.get((key, pe), 0))
        # else: ablation keeps the connectivity order of the base list
        # fused pWRITE: prefer the variable's home so fusing succeeds
        if item.fused_write is not None and item.dest_var is not None:
            home = self.vars.state(item.dest_var).home_pe
            if home is not None and home in pes:
                pes.remove(home)
                pes.insert(0, home)
        return pes

    # -- placement ----------------------------------------------------------

    def _try_place(
        self, item: SBItem, t: int, sb: Superblock
    ) -> Optional[PlacedOp]:
        metrics = self.obs_metrics
        for pe in self._pe_order(item):
            if metrics.enabled:
                metrics.inc("sched.placement.attempts")
            op = self._try_place_on(item, pe, t, sb)
            if op is not None:
                if metrics.enabled:
                    metrics.inc("sched.placement.accepted")
                if self.obs_tracer.enabled:
                    self.obs_tracer.event(
                        "sched.place.accept",
                        node=item.key,
                        opcode=item.opcode,
                        pe=pe,
                        cycle=t,
                        final=op.final_cycle,
                    )
                return op
        return None

    def _reject(self, reason: str, item: SBItem, pe: int, t: int) -> None:
        """Record one per-PE placement rejection; always returns None."""
        if self.obs_metrics.enabled:
            self.obs_metrics.inc("sched.placement.rejected", reason=reason)
        if self.obs_tracer.enabled:
            self.obs_tracer.event(
                "sched.place.reject",
                node=item.key,
                opcode=item.opcode,
                pe=pe,
                cycle=t,
                reason=reason,
            )
        return None

    def _try_place_on(
        self, item: SBItem, pe: int, t: int, sb: Superblock
    ) -> Optional[PlacedOp]:
        pe_desc = self.comp.pes[pe]
        exec_opcode = "MOVE" if item.opcode == "VARWRITE" else item.opcode
        duration = pe_desc.duration(exec_opcode)
        final = t + duration - 1
        if self._deadline is not None and final > self._deadline:
            self._deadline_rejected = True
            return self._reject("deadline", item, pe, t)

        txn = Txn(self.res)
        if pe_desc.pipelined:
            # pipelined PE: only the issue slot and the finish slot
            # (single write port) are exclusive
            if not txn.pe_free(pe, t, 1) or not txn.finish_free(pe, final):
                return self._reject("pe_busy", item, pe, t)
        elif not txn.pe_free(pe, t, duration):
            return self._reject("pe_busy", item, pe, t)

        # --- condition combine feasibility
        step = item.cond_step
        if step is not None:
            if final in self.res.cbox_combine:
                return self._reject("cbox_combine_busy", item, pe, t)
            if step.read is not None and not self.planner.read_allowed(
                step.read, final
            ):
                return self._reject("cond_read_order", item, pe, t)

        # --- home bookkeeping for the written variable
        pending_home: Optional[Tuple[Var, int]] = None
        home_vid: Optional[int] = None
        dest_var = item.dest_var
        if dest_var is not None:
            st = self.vars.state(dest_var)
            if st.home_pe is None:
                if item.opcode == "VARWRITE" or item.fused_write is not None:
                    pending_home = (dest_var, pe)
            elif item.fused_write is not None and st.home_pe != pe:
                # fusing failed on this PE: schedule the producer plainly
                # and let a separate pWRITE follow (dynamic unfuse)
                dest_var = None
            elif item.opcode == "VARWRITE" and st.home_pe != pe:
                return self._reject("home_mismatch", item, pe, t)
            if dest_var is not None and st.home_vid is not None:
                home_vid = st.home_vid

        # --- predication feasibility
        write_predicated = item.pred is not None and (
            dest_var is not None or item.opcode in _PREDICATED_EFFECTS
        )
        if write_predicated:
            if not self.planner.read_allowed(item.pred, final):  # type: ignore[arg-type]
                return self._reject("pred_not_readable", item, pe, t)
            booked = self.res.cbox_outpe.get(final)
            if booked is not None and booked != item.pred:
                return self._reject("pred_broadcast_conflict", item, pe, t)

        # --- operands
        srcs: List[OperandSource] = []
        pending_copy_regs: List[Tuple[str, object, int, int, int]] = []
        pending_home_reads: Dict[Var, int] = {}
        for spec in item.operands:
            plan = self._plan_operand(txn, spec, pe, t, pending_home_reads)
            if plan is None:
                return self._reject("operand_unroutable", item, pe, t)
            access, copy_regs = plan
            srcs.append(access.source)
            for booking in access.port_bookings:
                txn.book_outport(*booking)
            pending_copy_regs.extend(copy_regs)
            txn.value_uses.append((access.source.vid, t))

        # --- destination value
        dest_vid: Optional[int] = None
        immediate: Optional[int] = None
        if item.opcode == "DMA_STORE":
            dest_vid = None
        elif dest_var is not None:
            if pending_home is not None:
                if dest_var in pending_home_reads:
                    # the operand pass just homed this variable here (a
                    # read-and-write first touch, e.g. "v = v + 1"):
                    # write into that same home entry
                    dest_vid = pending_home_reads[dest_var]
                    pending_home = None
                else:
                    # mint the home value now; registered on commit
                    dest_vid = self.values.new(ValueKind.HOME, pe, dest_var)
            else:
                if home_vid is None:  # pragma: no cover - defensive
                    raise SchedulingError("homed variable without a vid")
                dest_vid = home_vid
        elif item.node.produces_value or item.opcode == "DMA_LOAD":
            dest_vid = self.values.new(ValueKind.NODE, pe, item.node)
        if item.node.array is not None:
            immediate = item.node.array.handle

        predicate = item.pred if write_predicated else None
        op = PlacedOp(
            cycle=t,
            pe=pe,
            opcode=exec_opcode,
            duration=duration,
            srcs=tuple(srcs),
            dest_vid=dest_vid,
            immediate=immediate,
            array=item.node.array,
            predicate=predicate,
            node=item.node,
            issue_only=pe_desc.pipelined,
        )
        txn.add_op(op)
        if dest_vid is not None:
            txn.value_defs.append((dest_vid, final))

        # ---- commit ------------------------------------------------------
        txn.commit()
        if self.obs_metrics.enabled or self.obs_tracer.enabled:
            self._note_committed(op, txn)
        for vid, cycle in txn.value_defs:
            self.values.note_def(vid, cycle)
        for vid, cycle in txn.value_uses:
            self.values.note_use(vid, cycle)
        for kind, origin, vid, hpe, ready in pending_copy_regs:
            if kind == "var":
                self.vars.add_copy(origin, hpe, vid, ready)  # type: ignore[arg-type]
            elif kind == "const":
                self.consts.register(hpe, origin, vid, ready)  # type: ignore[arg-type]
            else:  # node
                self.node_locs.setdefault(origin.id, []).append(  # type: ignore[union-attr]
                    (hpe, vid, ready)
                )
        for var, home_pe in [pending_home] if pending_home else []:
            st = self.vars.state(var)
            st.home_pe = home_pe
            st.home_vid = dest_vid
        for var, vid in pending_home_reads.items():
            st = self.vars.state(var)
            st.home_pe = self.values.info(vid).pe
            st.home_vid = vid
            self.values.note_def(vid, 0)

        if predicate is not None:
            self.res.cbox_outpe[final] = predicate
        if step is not None:
            plan = PlannedCBoxOp(
                cycle=final,
                status_pe=pe,
                func=step.func,
                read=step.read,
                write_pair=step.write_pair,
                swap_writes=step.swap_writes,
            )
            self.res.cbox_combine[final] = plan
            self.planner.note_combined(step.write_pair, final)

        if dest_var is not None and dest_vid is not None:
            self.vars.note_write(dest_var, final + 1)
            st = self.vars.state(dest_var)
            st.home_ready = max(st.home_ready, final + 1)
        elif dest_vid is not None:
            self.node_locs.setdefault(item.node.id, []).append(
                (pe, dest_vid, final + 1)
            )

        # fusion bookkeeping: either the absorbed pWRITE completed with
        # this op, or it re-enters the pool as its own item (the
        # producer landed off-home: dynamic unfuse)
        if item.fused_write is not None:
            write_node = item.fused_write
            if dest_var is not None:
                if self.obs_metrics.enabled:
                    self.obs_metrics.inc("sched.pwrite.fused")
                self._fused_done.append(write_node.id)
            else:
                if self.obs_metrics.enabled:
                    self.obs_metrics.inc("sched.pwrite.unfused")
                unfused = SBItem(
                    node=write_node,
                    pred=item.pred,
                    operands=(OperandSpec.of_node(item.node),),
                    deps=frozenset({item.key}),
                    dest_var=write_node.var,
                    priority=item.priority,
                )
                sb.items[write_node.id] = unfused
                self._readd_unfused(write_node.id, unfused)

        return op

    def _readd_unfused(self, key: int, item: SBItem) -> None:
        """Hook point used by _sched_superblock's remaining map."""
        self._pending_unfused.append((key, item))

    def _note_committed(self, op: PlacedOp, txn: Txn) -> None:
        """Account the auxiliary operations committed alongside ``op``:
        copy-chain MOVEs (Floyd-path routing) and retroactive CONST
        materialisations.  Counted here — not at plan time — so the
        numbers reflect only placements that actually succeeded."""
        metrics, tracer = self.obs_metrics, self.obs_tracer
        for aux in txn.ops:
            if aux is op:
                continue
            if aux.opcode == "MOVE":
                if metrics.enabled:
                    metrics.inc("route.copies.inserted")
                if tracer.enabled:
                    src = aux.srcs[0].pe if aux.srcs else None
                    tracer.event(
                        "route.copy", from_pe=src, to_pe=aux.pe, cycle=aux.cycle
                    )
            elif aux.opcode == "CONST":
                if metrics.enabled:
                    metrics.inc("sched.const.materialised")
                if tracer.enabled:
                    tracer.event(
                        "sched.const",
                        pe=aux.pe,
                        cycle=aux.cycle,
                        value=aux.immediate,
                    )

    # -- operand planning -----------------------------------------------------

    def _plan_operand(
        self,
        txn: Txn,
        spec: OperandSpec,
        pe: int,
        t: int,
        pending_home_reads: Dict[Var, int],
    ) -> Optional[Tuple[AccessPlan, List[Tuple[str, object, int, int, int]]]]:
        if spec.kind == "node":
            holders = self.node_locs.get(spec.node.id)
            if not holders:
                raise SchedulingError(
                    f"operand {spec.node!r} has no scheduled producer"
                )
            plan = self.router.plan_access(
                txn, pe, t, holders, ValueKind.COPY, spec.node
            )
            if plan is None:
                return None
            regs = [("node", spec.node, vid, hpe, ready) for vid, hpe, ready in plan.new_copies]
            return plan, regs

        if spec.kind == "var":
            var = spec.var
            st = self.vars.state(var)
            if st.home_pe is None:
                # first touch is a read: home the variable here
                # (Section V-D first-consumer heuristic)
                if var in pending_home_reads:
                    vid = pending_home_reads[var]
                    home_pe = self.values.info(vid).pe
                    plan = self.router.plan_access(
                        txn, pe, t, [(home_pe, vid, 0)], ValueKind.COPY, var
                    )
                    if plan is None:
                        return None
                    regs = [("var", var, vid2, hpe, ready) for vid2, hpe, ready in plan.new_copies]
                    return plan, regs
                vid = self.values.new(ValueKind.HOME, pe, var)
                pending_home_reads[var] = vid
                return AccessPlan(OperandSource(pe, vid), [], [], []), []
            holders = [(st.home_pe, st.home_vid, st.home_ready)]
            holders.extend(self.vars.valid_copies(var))
            plan = self.router.plan_access(
                txn, pe, t, holders, ValueKind.COPY, var
            )
            if plan is None:
                return None
            regs = [("var", var, vid, hpe, ready) for vid, hpe, ready in plan.new_copies]
            return plan, regs

        # constant
        const = spec.const
        assert const is not None
        local = self.consts.lookup(pe, const)
        if local is not None and local[1] <= t:
            return AccessPlan(OperandSource(pe, local[0]), [], [], []), []
        holders = self.consts.holders(const)
        # neighbour port read
        for hpe, vid, ready in holders:
            if (
                ready <= t
                and self.comp.interconnect.has_link(hpe, pe)
                and txn.outport_compatible(hpe, t, vid)
            ):
                txn.book_outport(hpe, t, vid)
                return (
                    AccessPlan(OperandSource(hpe, vid), [(hpe, t, vid)], [], []),
                    [],
                )
        # retroactive local materialisation (a CONST context entry)
        cycle = self._find_free_cycle(txn, pe, self.router.region_start, t - 1)
        if cycle is not None:
            duration = self.comp.pes[pe].duration("CONST")
            if cycle + duration - 1 <= t - 1:
                vid = self.values.new(ValueKind.CONST, pe, const)
                cop = PlacedOp(
                    cycle=cycle,
                    pe=pe,
                    opcode="CONST",
                    duration=duration,
                    dest_vid=vid,
                    immediate=const,
                    issue_only=self.comp.pes[pe].pipelined,
                )
                txn.add_op(cop)
                txn.value_defs.append((vid, cycle + duration - 1))
                return (
                    AccessPlan(OperandSource(pe, vid), [], [cop], []),
                    [("const", const, vid, pe, cycle + duration)],
                )
        # copy chain from a remote holder
        if holders:
            plan = self.router.plan_access(
                txn, pe, t, holders, ValueKind.CONST, const
            )
            if plan is not None:
                regs = [
                    ("const", const, vid, hpe, ready)
                    for vid, hpe, ready in plan.new_copies
                ]
                return plan, regs
        return None

    def _find_free_cycle(
        self, txn: Txn, pe: int, earliest: int, latest: int
    ) -> Optional[int]:
        duration = self.comp.pes[pe].duration("CONST")
        pipelined = self.comp.pes[pe].pipelined
        for c in range(earliest, latest + 1):
            if c + duration - 1 > latest:
                return None
            if pipelined:
                if txn.pe_free(pe, c, 1) and txn.finish_free(pe, c + duration - 1):
                    return c
            elif txn.pe_free(pe, c, duration):
                return c
        return None


def schedule_kernel(
    kernel: Kernel,
    comp: Composition,
    *,
    enforce_context_size: bool = True,
    use_attraction: bool = True,
    speculate: bool = True,
    scheduler_mode: str = DEFAULT_SCHEDULER_MODE,
) -> Schedule:
    """Schedule ``kernel`` onto ``comp`` and return the :class:`Schedule`."""
    return RegionScheduler(
        kernel,
        comp,
        enforce_context_size=enforce_context_size,
        use_attraction=use_attraction,
        speculate=speculate,
        scheduler_mode=scheduler_mode,
    ).run()

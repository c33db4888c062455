"""Schedule -> contexts (Fig. 10's last stage).

Two passes after placement:

* :func:`allocate_contexts` — left-edge allocation of register files
  (per PE) and C-Box condition slots, returning an :class:`Allocation`;
* :func:`emit_contexts` — materialises the per-cycle context entries
  the simulator and the Verilog generator consume from a schedule plus
  its allocation.

:func:`generate_contexts` composes the two and is the stable
entry point for callers that do not need the allocation itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.arch.cbox import FRESH, FRESH_NEG, CBoxFunc, CBoxOp
from repro.arch.ccu import BranchKind, CCUEntry
from repro.arch.composition import Composition
from repro.ir.cdfg import Kernel
from repro.sched.liveness import condition_pair_lifetimes, value_lifetimes
from repro.sched.regalloc import AllocationError, left_edge
from repro.sched.schedule import PredRef, Schedule, SchedulingError
from repro.context.words import ContextProgram, PEContext, SrcSel

__all__ = [
    "Allocation",
    "allocate_contexts",
    "emit_contexts",
    "generate_contexts",
]


@dataclass
class Allocation:
    """Physical slot assignments produced by the regalloc pass."""

    #: value id -> RF slot on its holding PE
    slot_of: Dict[int, int] = field(default_factory=dict)
    #: RF entries consumed per PE (Table I utilisation metric)
    rf_used: List[int] = field(default_factory=list)
    #: condition pair -> (pos slot, neg slot) in C-Box memory
    pair_slots: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: C-Box condition slots consumed
    cbox_used: int = 0


def _allocate_rf(
    schedule: Schedule, comp: Composition
) -> Tuple[Dict[int, int], List[int]]:
    """Left-edge per PE; returns (vid -> slot, used entries per PE)."""
    lifetimes = value_lifetimes(schedule)
    slot_of: Dict[int, int] = {}
    used: List[int] = []
    for pe in range(comp.n_pes):
        intervals = {
            vid: iv
            for vid, iv in lifetimes.items()
            if schedule.values[vid].pe == pe
        }
        try:
            assignment, n_used = left_edge(
                intervals,
                comp.pes[pe].regfile_size,
                what=f"register file of PE {pe}",
            )
        except AllocationError as exc:
            raise SchedulingError(str(exc)) from exc
        slot_of.update(assignment)
        used.append(n_used)
    return slot_of, used


def _allocate_pairs(
    schedule: Schedule, comp: Composition
) -> Tuple[Dict[int, Tuple[int, int]], int]:
    """Left-edge over condition pairs; each pair occupies two slots."""
    lifetimes = condition_pair_lifetimes(schedule)
    try:
        assignment, used = left_edge(
            lifetimes, comp.cbox_slots // 2, what="C-Box condition memory"
        )
    except AllocationError as exc:
        raise SchedulingError(str(exc)) from exc
    pair_slots = {
        pair: (2 * track, 2 * track + 1) for pair, track in assignment.items()
    }
    return pair_slots, 2 * used


def _pred_slot(
    pair_slots: Dict[int, Tuple[int, int]], pred: PredRef
) -> int:
    pos, neg = pair_slots[pred.pair]
    return pos if pred.positive else neg


def allocate_contexts(schedule: Schedule, comp: Composition) -> Allocation:
    """Pipeline pass: assign physical RF and C-Box slots (left-edge)."""
    slot_of, rf_used = _allocate_rf(schedule, comp)
    pair_slots, cbox_used = _allocate_pairs(schedule, comp)
    return Allocation(
        slot_of=slot_of,
        rf_used=rf_used,
        pair_slots=pair_slots,
        cbox_used=cbox_used,
    )


def emit_contexts(
    schedule: Schedule,
    comp: Composition,
    allocation: Allocation,
    kernel: Optional[Kernel] = None,
) -> ContextProgram:
    """Pipeline pass: materialise context words from schedule + slots.

    Mutates ``allocation.slot_of`` / ``rf_used`` only to assign fresh
    slots to untouched live-in homes (no lifetime, hence skipped by
    left-edge).  Every emitted program is re-checked by the independent
    verifier unless ``REPRO_VERIFY=0`` / ``set_verify_enabled(False)``.
    """
    slot_of = allocation.slot_of
    rf_used = allocation.rf_used
    pair_slots = allocation.pair_slots
    cbox_used = allocation.cbox_used
    n = schedule.n_cycles

    pe_contexts: List[List[Optional[PEContext]]] = [
        [None] * n for _ in range(comp.n_pes)
    ]

    # out-port exposures (context's out_addr field)
    out_addr: Dict[Tuple[int, int], int] = {}
    for (pe, cycle), vid in schedule.outport_bookings.items():
        if vid not in slot_of:  # pragma: no cover - defensive
            raise SchedulingError(f"out-port exposes unallocated value {vid}")
        out_addr[(pe, cycle)] = slot_of[vid]

    for op in schedule.ops:
        srcs = []
        for src in op.srcs:
            if src.pe == op.pe:
                srcs.append(SrcSel.rf(slot_of[src.vid]))
            else:
                srcs.append(SrcSel.port(src.pe))
        entry = PEContext(
            opcode=op.opcode,
            srcs=tuple(srcs),
            dest_slot=slot_of[op.dest_vid] if op.dest_vid is not None else None,
            predicated=op.predicate is not None,
            out_addr=out_addr.get((op.pe, op.cycle)),
            immediate=op.immediate,
            duration=op.duration,
        )
        if pe_contexts[op.pe][op.cycle] is not None:
            raise SchedulingError(
                f"PE {op.pe} has two context entries at cycle {op.cycle}"
            )
        pe_contexts[op.pe][op.cycle] = entry

    # idle cycles that still expose a value on the out-port
    for (pe, cycle), slot in out_addr.items():
        if pe_contexts[pe][cycle] is None:
            pe_contexts[pe][cycle] = PEContext(opcode="NOP", out_addr=slot)
        elif pe_contexts[pe][cycle].out_addr != slot:  # pragma: no cover
            raise SchedulingError("inconsistent out-port booking")

    # C-Box contexts
    cbox_contexts: List[Optional[CBoxOp]] = [None] * n

    def resolve_out(sel) -> Optional[int]:
        if sel is None:
            return None
        if isinstance(sel, str):
            return FRESH if sel == "fresh_pos" else FRESH_NEG
        return _pred_slot(pair_slots, sel)

    for cycle, plan in schedule.cbox.items():
        read_pos = read_neg = None
        if plan.read is not None:
            if plan.func is CBoxFunc.FORK_AND:
                read_pos = _pred_slot(pair_slots, plan.read)
            else:
                pos, neg = pair_slots[plan.read.pair]
                read_pos, read_neg = (pos, neg) if plan.read.positive else (neg, pos)
        write_pos = write_neg = None
        if plan.write_pair is not None:
            pos, neg = pair_slots[plan.write_pair]
            write_pos, write_neg = (neg, pos) if plan.swap_writes else (pos, neg)
        cbox_contexts[cycle] = CBoxOp(
            status_pe=plan.status_pe,
            func=plan.func,
            read_pos=read_pos,
            read_neg=read_neg,
            write_pos=write_pos,
            write_neg=write_neg,
            out_pe_slot=resolve_out(plan.out_pe),
            out_ctrl_slot=resolve_out(plan.out_ctrl),
        )

    # CCU contexts
    ccu_contexts: List[CCUEntry] = [CCUEntry() for _ in range(n)]
    for cycle, br in schedule.branches.items():
        ccu_contexts[cycle] = CCUEntry(br.kind, br.target)

    # host interface maps
    livein: Dict = {}
    liveout: Dict = {}
    for var, vid in schedule.var_homes.items():
        if vid not in slot_of:
            # variable never touched by the schedule and without a
            # lifetime; give it a fresh slot beyond the allocated ones
            pe = schedule.values[vid].pe
            slot_of[vid] = rf_used[pe]
            rf_used[pe] += 1
            if rf_used[pe] > comp.pes[pe].regfile_size:
                raise SchedulingError(f"register file of PE {pe} overflow")
        pe = schedule.values[vid].pe
        if var.is_param:
            livein[var] = (pe, slot_of[vid])
        if var.is_result:
            liveout[var] = (pe, slot_of[vid])

    program = ContextProgram(
        kernel_name=schedule.kernel_name,
        composition_name=schedule.composition_name,
        n_cycles=n,
        pe_contexts=pe_contexts,
        cbox_contexts=cbox_contexts,
        ccu_contexts=ccu_contexts,
        livein_map=livein,
        liveout_map=liveout,
        rf_used=rf_used,
        cbox_slots_used=cbox_used,
        arrays=list(kernel.arrays) if kernel is not None else [],
    )

    # Post-emission assertion: every program leaving the generator is
    # re-checked by the independent verifier (repro.verify), so a
    # miscompile surfaces here instead of as a wrong simulation result.
    # Disable via REPRO_VERIFY=0 / set_verify_enabled(False).
    import repro.verify as _verify

    if _verify.verify_enabled():
        _verify.assert_verified(program, comp)
    return program


def generate_contexts(
    schedule: Schedule,
    comp: Composition,
    kernel: Optional[Kernel] = None,
) -> ContextProgram:
    """Allocate and emit in one call."""
    return emit_contexts(
        schedule, comp, allocate_contexts(schedule, comp), kernel
    )

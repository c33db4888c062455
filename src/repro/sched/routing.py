"""Data locality and routing (Section V-G).

When an operand is not accessible to the PE a candidate is being placed
on, the scheduler copies the value across the interconnect along the
Floyd shortest path, preferably *before* the current time step "to
prevent extension of the schedule".  Copies are MOVE operations on the
intermediate PEs; the final hop is read through the last holder's
out-port in the consuming cycle.

All plans are made inside a :class:`~repro.sched.state.Txn` so a failed
placement leaves no residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.arch.composition import Composition
from repro.obs import get_metrics
from repro.sched.schedule import OperandSource, PlacedOp, ValueKind
from repro.sched.state import Txn, ValueTable

__all__ = ["AccessPlan", "Router"]


@dataclass
class AccessPlan:
    """Result of planning one operand access at (pe, cycle)."""

    source: OperandSource
    #: (pe, cycle, vid) out-port bookings required (including the final
    #: read-through, when the source is remote)
    port_bookings: List[Tuple[int, int, int]]
    #: MOVE copies added (already in the txn)
    moves: List[PlacedOp]
    #: (vid, holder_pe, ready) of new copy values to register on commit
    new_copies: List[Tuple[int, int, int]]


class Router:
    def __init__(
        self,
        comp: Composition,
        values: ValueTable,
    ) -> None:
        self.comp = comp
        self.icn = comp.interconnect
        self.values = values
        #: plan-level metrics (attempt counts include plans later
        #: discarded by a failed placement; committed-copy counts live
        #: in the scheduler's commit path)
        self.obs_metrics = get_metrics()
        #: earliest cycle retroactive copies may be placed at (the
        #: current superblock's start — earlier regions are sealed);
        #: the scheduler sets it when it starts placing a superblock
        self.region_start = 0

    # -- public ---------------------------------------------------------

    def plan_access(
        self,
        txn: Txn,
        pe: int,
        cycle: int,
        holders: Sequence[Tuple[int, int, int]],
        copy_kind: ValueKind,
        copy_origin,
    ) -> Optional[AccessPlan]:
        """Plan reading a value on ``pe`` at ``cycle``.

        ``holders`` lists ``(holder_pe, vid, ready)`` locations of the
        value.  ``copy_kind``/``copy_origin`` describe copy values to
        mint if a copy chain is needed.  Returns ``None`` if impossible
        at this cycle.
        """
        metrics = self.obs_metrics
        if metrics.enabled:
            metrics.inc("route.plan.requests")
        ready_holders = [h for h in holders if h[2] <= cycle]

        # 1. local RF
        for hpe, vid, _ready in ready_holders:
            if hpe == pe:
                if metrics.enabled:
                    metrics.inc("route.plan.resolved", kind="local")
                return AccessPlan(OperandSource(pe, vid), [], [], [])

        # 2. direct neighbour through its out-port
        for hpe, vid, _ready in sorted(
            ready_holders, key=lambda h: self.icn.degree(h[0])
        ):
            if self.icn.has_link(hpe, pe) and txn.outport_compatible(hpe, cycle, vid):
                if metrics.enabled:
                    metrics.inc("route.plan.resolved", kind="port")
                return AccessPlan(
                    OperandSource(hpe, vid), [(hpe, cycle, vid)], [], []
                )

        # 3. copy chain along the shortest path (Section V-G: "the value
        #    is copied if the required resources have empty time steps")
        dist_to_pe = self.icn.distances_to(pe)
        candidates = sorted(
            (h for h in holders),
            key=lambda h: (dist_to_pe[h[0]], h[2]),
        )
        for into_dst in (False, True):
            for hpe, vid, ready in candidates:
                plan = self._plan_chain(
                    txn, hpe, vid, ready, pe, cycle, copy_kind, copy_origin,
                    into_dst=into_dst,
                )
                if plan is not None:
                    if metrics.enabled:
                        metrics.inc("route.plan.resolved", kind="chain")
                        metrics.observe("route.chain.hops", len(plan.moves))
                    return plan
        if metrics.enabled:
            metrics.inc("route.plan.unroutable")
        return None

    # -- copy chains -------------------------------------------------------

    def _plan_chain(
        self,
        txn: Txn,
        src_pe: int,
        src_vid: int,
        src_ready: int,
        dst_pe: int,
        cycle: int,
        copy_kind: ValueKind,
        copy_origin,
        *,
        into_dst: bool = False,
    ) -> Optional[AccessPlan]:
        path = self.icn.path(src_pe, dst_pe)
        if path is None or len(path) < 2:
            return None
        # Without into_dst, hops run on path[1:-1] and the final link is
        # a port read at `cycle`; with into_dst, the value is moved all
        # the way into the destination's RF (needed when the last
        # holder's out-port is contended at `cycle`).
        intermediates = path[1:] if into_dst else path[1:-1]
        region_start = self.region_start

        moves: List[PlacedOp] = []
        ports: List[Tuple[int, int, int]] = []
        new_copies: List[Tuple[int, int, int]] = []
        cur_pe, cur_vid, cur_ready = src_pe, src_vid, src_ready

        for hop_pe in intermediates:
            hop_cycle = self._find_hop_cycle(
                txn, cur_pe, cur_vid, cur_ready, hop_pe, region_start, cycle - 1
            )
            if hop_cycle is None:
                return None
            new_vid = self.values.new(copy_kind, hop_pe, copy_origin)
            move = PlacedOp(
                cycle=hop_cycle,
                pe=hop_pe,
                opcode="MOVE",
                duration=self.comp.pes[hop_pe].duration("MOVE"),
                srcs=(OperandSource(cur_pe, cur_vid),),
                dest_vid=new_vid,
                issue_only=self.comp.pes[hop_pe].pipelined,
            )
            txn.add_op(move)
            txn.book_outport(cur_pe, hop_cycle, cur_vid)
            txn.value_uses.append((cur_vid, hop_cycle))
            finish = hop_cycle + move.duration - 1
            txn.value_defs.append((new_vid, finish))
            moves.append(move)
            ports.append((cur_pe, hop_cycle, cur_vid))
            new_copies.append((new_vid, hop_pe, finish + 1))
            cur_pe, cur_vid, cur_ready = hop_pe, new_vid, finish + 1

        if into_dst:
            # the value now sits in dst_pe's own RF: the last hop is onto
            # dst_pe and every hop finishes by cycle - 1
            return AccessPlan(
                OperandSource(dst_pe, cur_vid), ports, moves, new_copies
            )
        # final read-through at `cycle`
        if cur_ready > cycle or not txn.outport_compatible(cur_pe, cycle, cur_vid):
            return None
        ports.append((cur_pe, cycle, cur_vid))
        return AccessPlan(OperandSource(cur_pe, cur_vid), ports, moves, new_copies)

    def _find_hop_cycle(
        self,
        txn: Txn,
        from_pe: int,
        from_vid: int,
        from_ready: int,
        hop_pe: int,
        earliest: int,
        latest: int,
    ) -> Optional[int]:
        """Earliest cycle a MOVE onto ``hop_pe`` can run."""
        if not self.comp.pes[hop_pe].supports("MOVE"):
            return None
        duration = self.comp.pes[hop_pe].duration("MOVE")
        pipelined = self.comp.pes[hop_pe].pipelined
        c = max(earliest, from_ready)
        while c <= latest:
            busy_ok = (
                txn.pe_free(hop_pe, c, 1) and txn.finish_free(hop_pe, c + duration - 1)
                if pipelined
                else txn.pe_free(hop_pe, c, duration)
            )
            if (
                busy_ok
                and txn.outport_compatible(from_pe, c, from_vid)
                and c + duration - 1 <= latest
            ):
                return c
            c += 1
        return None

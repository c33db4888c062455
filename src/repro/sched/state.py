"""Mutable scheduling state: resources, value locations, variable homes.

The scheduler books three kinds of per-cycle resources (Section V):

* PE execution slots (one operation per PE per cycle; multi-cycle
  operations occupy their PE for ``duration`` cycles),
* PE out-ports (one exposed RF value per PE per cycle — several
  consumers may read the *same* value),
* the C-Box (one combine per cycle, one ``outPE`` selection, one
  ``outctrl`` selection) and the CCU (one branch per cycle).

Placement of an operation may require auxiliary operations (constant
materialisation, copy chains along Floyd paths).  Those are planned in a
:class:`Txn` overlay and committed only if the whole placement succeeds.

Variable state follows Section V-D: each variable has a *home* PE/RF
entry assigned on first use; copies on other PEs are tracked with a
version counter and invalidated by writes.  If/else path divergence is
handled with snapshot/merge (both paths' copies must agree to survive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.ir.nodes import Node, Var
from repro.obs import get_metrics
from repro.sched.schedule import (
    OperandSource,
    PlacedOp,
    PlannedBranch,
    PlannedCBoxOp,
    PredRef,
    SchedulingError,
    ValueInfo,
    ValueKind,
)

__all__ = [
    "ValueTable",
    "ResourceState",
    "Txn",
    "VarState",
    "VarTracker",
    "ConstTracker",
    "SchedCheckpoint",
]


class ValueTable:
    """Registry of symbolic RF values."""

    def __init__(self) -> None:
        self._values: Dict[int, ValueInfo] = {}
        self._next = 0

    def new(self, kind: ValueKind, pe: int, origin=None) -> int:
        vid = self._next
        self._next += 1
        self._values[vid] = ValueInfo(vid=vid, kind=kind, pe=pe, origin=origin)
        metrics = get_metrics()
        if metrics.enabled:
            # includes vids minted during placements later aborted — the
            # gap to committed defs measures speculative planning waste
            metrics.inc("sched.values.minted", kind=kind.name.lower())
        return vid

    def info(self, vid: int) -> ValueInfo:
        return self._values[vid]

    def note_def(self, vid: int, cycle: int) -> None:
        self._values[vid].defs.append(cycle)

    def note_use(self, vid: int, cycle: int) -> None:
        self._values[vid].uses.append(cycle)

    def all(self) -> Dict[int, ValueInfo]:
        return self._values


# ---------------------------------------------------------------------------
# Resources
# ---------------------------------------------------------------------------


class ResourceState:
    """Base resource bookings (committed)."""

    def __init__(self, n_pes: int) -> None:
        self.n_pes = n_pes
        self.pe_ops: Dict[Tuple[int, int], PlacedOp] = {}
        #: (pe, cycle) -> op finishing there (single write port / status)
        self.finishes: Dict[Tuple[int, int], PlacedOp] = {}
        self.outports: Dict[Tuple[int, int], int] = {}
        self.cbox_combine: Dict[int, PlannedCBoxOp] = {}
        self.cbox_outpe: Dict[int, PredRef] = {}
        self.cbox_outctrl: Dict[int, Union[PredRef, str]] = {}
        self.branches: Dict[int, PlannedBranch] = {}
        self.ops: List[PlacedOp] = []

    # -- queries (no txn) ---------------------------------------------

    def pe_free(self, pe: int, cycle: int, duration: int = 1) -> bool:
        return all((pe, c) not in self.pe_ops for c in range(cycle, cycle + duration))

    def outport_at(self, pe: int, cycle: int) -> Optional[int]:
        return self.outports.get((pe, cycle))


@dataclass
class _PlannedPlacement:
    op: PlacedOp
    outport_bookings: List[Tuple[int, int, int]] = field(default_factory=list)


class Txn:
    """Tentative overlay over :class:`ResourceState`.

    Records additional bookings made while planning one candidate
    placement (the operation itself, copy-chain MOVEs, constant
    materialisations, out-port bookings).  ``commit`` merges them into
    the base state; dropping the Txn aborts.
    """

    def __init__(self, base: ResourceState) -> None:
        self.base = base
        self.pe_ops: Dict[Tuple[int, int], PlacedOp] = {}
        self.finishes: Dict[Tuple[int, int], PlacedOp] = {}
        self.outports: Dict[Tuple[int, int], int] = {}
        self.ops: List[PlacedOp] = []
        self.value_defs: List[Tuple[int, int]] = []  # (vid, cycle)
        self.value_uses: List[Tuple[int, int]] = []
        #: deferred location registrations: callables run on commit
        self.on_commit: List = []

    # -- combined views --------------------------------------------------

    def pe_free(self, pe: int, cycle: int, duration: int = 1) -> bool:
        for c in range(cycle, cycle + duration):
            if (pe, c) in self.base.pe_ops or (pe, c) in self.pe_ops:
                return False
        return True

    def finish_free(self, pe: int, cycle: int) -> bool:
        """No other operation finishes on ``pe`` at ``cycle`` (pipelined
        PEs share issue slots but have a single write port)."""
        key = (pe, cycle)
        return key not in self.base.finishes and key not in self.finishes

    def outport_at(self, pe: int, cycle: int) -> Optional[int]:
        key = (pe, cycle)
        if key in self.outports:
            return self.outports[key]
        return self.base.outports.get(key)

    def outport_compatible(self, pe: int, cycle: int, vid: int) -> bool:
        current = self.outport_at(pe, cycle)
        return current is None or current == vid

    # -- tentative bookings ------------------------------------------------

    def add_op(self, op: PlacedOp) -> None:
        busy_until = op.cycle + 1 if op.issue_only else op.cycle + op.duration
        for c in range(op.cycle, busy_until):
            key = (op.pe, c)
            if key in self.pe_ops or key in self.base.pe_ops:
                raise SchedulingError(f"internal: double booking {key}")
            self.pe_ops[key] = op
        fkey = (op.pe, op.final_cycle)
        if op.issue_only:
            if not self.finish_free(op.pe, op.final_cycle):
                raise SchedulingError(f"internal: finish-slot conflict {fkey}")
        self.finishes[fkey] = op
        self.ops.append(op)

    def book_outport(self, pe: int, cycle: int, vid: int) -> None:
        if not self.outport_compatible(pe, cycle, vid):
            raise SchedulingError(
                f"internal: out-port conflict on PE {pe} at {cycle}"
            )
        self.outports[(pe, cycle)] = vid

    def commit(self) -> None:
        self.base.pe_ops.update(self.pe_ops)
        self.base.finishes.update(self.finishes)
        self.base.outports.update(self.outports)
        self.base.ops.extend(self.ops)
        for hook in self.on_commit:
            hook()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("sched.txn.commits")
            metrics.inc("sched.txn.ops_committed", len(self.ops))


# ---------------------------------------------------------------------------
# Variables (Section V-D)
# ---------------------------------------------------------------------------


@dataclass
class VarState:
    home_pe: Optional[int] = None
    home_vid: Optional[int] = None
    version: int = 0
    #: valid copies: pe -> (vid, version, ready_cycle).  Treated as
    #: copy-on-write: a snapshot *shares* this dict with its source
    #: (both flagged ``_copies_shared``), and every mutation path goes
    #: through :meth:`own_copies` / :meth:`drop_copies`, which unshare
    #: first.  Nested-region scheduling therefore stops deep-copying
    #: the copy maps of untouched variables on every snapshot.
    copies: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    #: cycle from which the home value is readable
    home_ready: int = 0
    _copies_shared: bool = field(default=False, repr=False, compare=False)

    def snapshot(self) -> "VarState":
        """O(1) copy: scalars are duplicated, ``copies`` is shared COW."""
        self._copies_shared = True
        clone = VarState(
            home_pe=self.home_pe,
            home_vid=self.home_vid,
            version=self.version,
            copies=self.copies,
            home_ready=self.home_ready,
        )
        clone._copies_shared = True
        return clone

    def own_copies(self) -> Dict[int, Tuple[int, int, int]]:
        """The ``copies`` dict, unshared and safe to mutate in place."""
        if self._copies_shared:
            self.copies = dict(self.copies)
            self._copies_shared = False
        return self.copies

    def drop_copies(self) -> None:
        """Replace ``copies`` with a fresh empty dict (cheap unshare)."""
        self.copies = {}
        self._copies_shared = False

    def set_copies(self, copies: Dict[int, Tuple[int, int, int]]) -> None:
        self.copies = copies
        self._copies_shared = False


class VarTracker:
    """Home assignment + copy/version tracking for all variables."""

    def __init__(self, values: ValueTable) -> None:
        self.values = values
        self._state: Dict[Var, VarState] = {}

    def state(self, var: Var) -> VarState:
        if var not in self._state:
            self._state[var] = VarState()
        return self._state[var]

    def assign_home(self, var: Var, pe: int) -> int:
        """Assign the home PE (first-touch heuristic); returns home vid."""
        st = self.state(var)
        if st.home_pe is not None:
            raise SchedulingError(f"variable {var.name} already homed")
        st.home_pe = pe
        st.home_vid = self.values.new(ValueKind.HOME, pe, var)
        return st.home_vid

    def note_write(self, var: Var, cycle_ready: int) -> None:
        """A write to the home entry: bump version, drop all copies."""
        st = self.state(var)
        st.version += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("sched.vars.writes")
            if st.copies:
                metrics.inc("sched.vars.copies_invalidated", len(st.copies))
        if st.copies:
            st.drop_copies()
        st.home_ready = max(st.home_ready, cycle_ready)

    def add_copy(self, var: Var, pe: int, vid: int, ready: int) -> None:
        st = self.state(var)
        st.own_copies()[pe] = (vid, st.version, ready)

    def valid_copies(self, var: Var) -> List[Tuple[int, int, int]]:
        """(pe, vid, ready) of copies still at the current version."""
        st = self.state(var)
        return [
            (pe, vid, ready)
            for pe, (vid, version, ready) in st.copies.items()
            if version == st.version
        ]

    def invalidate_copies(self, variables: Sequence[Var]) -> None:
        """Drop copies of ``variables`` (loop-entry/exit conservatism)."""
        for var in variables:
            st = self.state(var)
            if st.copies:
                st.drop_copies()

    # -- if/else divergence ------------------------------------------------

    def snapshot(self) -> Dict[Var, VarState]:
        return {var: st.snapshot() for var, st in self._state.items()}

    def restore(self, snap: Dict[Var, VarState]) -> Dict[Var, VarState]:
        """Swap in ``snap``; returns the displaced state.

        Home assignments are *global* naming decisions (a variable owns
        exactly one RF entry for the whole schedule, Section V-D), so
        homes assigned since the snapshot are grafted into the restored
        state — only copies/versions/readiness roll back.
        """
        current = self._state
        self._state = {var: st.snapshot() for var, st in snap.items()}
        for var, st in current.items():
            if st.home_pe is None:
                continue
            mine = self.state(var)
            if mine.home_pe is None:
                mine.home_pe = st.home_pe
                mine.home_vid = st.home_vid
        return current

    def merge(self, other: Dict[Var, VarState]) -> None:
        """Merge the current state with ``other`` (end of if/else).

        Homes are global and must agree.  Versions take the max (+1 if
        they diverged, forcing home reads).  Copies survive only if
        present in both paths with the same vid and both still valid.
        """
        all_vars = set(self._state) | set(other)
        for var in all_vars:
            mine = self.state(var)
            theirs = other.get(var, VarState())
            if theirs.home_pe is not None and mine.home_pe is None:
                mine.home_pe = theirs.home_pe
                mine.home_vid = theirs.home_vid
            elif (
                theirs.home_pe is not None
                and mine.home_pe is not None
                and theirs.home_pe != mine.home_pe
            ):
                raise SchedulingError(
                    f"variable {var.name} homed differently on two paths"
                )
            if theirs.version != mine.version:
                mine.version = max(mine.version, theirs.version) + 1
                mine.drop_copies()
                mine.home_ready = max(mine.home_ready, theirs.home_ready)
                continue
            mine.home_ready = max(mine.home_ready, theirs.home_ready)
            merged: Dict[int, Tuple[int, int, int]] = {}
            for pe, (vid, version, ready) in mine.copies.items():
                other_entry = theirs.copies.get(pe)
                if (
                    other_entry is not None
                    and other_entry[0] == vid
                    and other_entry[1] == version
                ):
                    merged[pe] = (vid, version, max(ready, other_entry[2]))
            mine.set_copies(merged)

    def all_vars(self) -> Iterator[Tuple[Var, VarState]]:
        return iter(self._state.items())


class SchedCheckpoint:
    """Full rollback point over a :class:`RegionScheduler`'s state.

    Strategy backtracking (modulo II search, per-region fallback to the
    list strategy, auto-mode comparison runs) needs to abort a partially
    scheduled region and retry.  ``VarTracker.restore`` is *not* usable
    for that: it grafts homes assigned since the snapshot into the
    restored state (correct for if/else path divergence where both paths
    are kept, wrong for an aborted attempt whose minted value ids are
    being discarded).

    The capture relies on scheduling being *extensional*: committed
    placements only add dict keys, append to lists (``ResourceState.ops``,
    ``ValueInfo.defs``/``uses``) and mint increasing value/pair ids — so
    a checkpoint can restore by truncating back to the captured sizes
    and re-instating captured mappings.  ``attraction`` scores and
    planner ``pair_ready``/``combined_at`` entries are overwritten in
    place, so those are captured as full copies.

    A checkpoint stays valid across multiple rollbacks (each rollback
    hands out fresh dict/``VarState`` copies).
    """

    def __init__(self, sched) -> None:
        values = sched.values
        self._values_next = values._next
        self._value_lens = {
            vid: (len(info.defs), len(info.uses))
            for vid, info in values._values.items()
        }
        res = sched.res
        self._pe_ops = dict(res.pe_ops)
        self._finishes = dict(res.finishes)
        self._outports = dict(res.outports)
        self._cbox_combine = dict(res.cbox_combine)
        self._cbox_outpe = dict(res.cbox_outpe)
        self._cbox_outctrl = dict(res.cbox_outctrl)
        self._branches = dict(res.branches)
        self._n_ops = len(res.ops)
        self._vars = {var: st.snapshot() for var, st in sched.vars._state.items()}
        self._consts = dict(sched.consts._locs)
        planner = sched.planner
        self._next_pair = planner._next_pair
        self._pair_ready = dict(planner.pair_ready)
        self._combined_at = dict(planner.combined_at)
        self._steps = dict(planner.steps)
        self._frontier = sched.frontier
        self._region_start = sched.router.region_start
        self._bound_targets = set(sched._bound_targets)
        self._n_loop_spans = len(sched.loop_spans)
        self._n_modulo_loops = len(sched.modulo_loops)
        self._attraction = dict(sched.attraction)
        self._node_locs = {k: list(v) for k, v in sched.node_locs.items()}

    def rollback(self, sched) -> None:
        values = sched.values
        for vid in range(self._values_next, values._next):
            values._values.pop(vid, None)
        values._next = self._values_next
        for vid, (n_defs, n_uses) in self._value_lens.items():
            info = values._values[vid]
            del info.defs[n_defs:]
            del info.uses[n_uses:]
        res = sched.res
        res.pe_ops = dict(self._pe_ops)
        res.finishes = dict(self._finishes)
        res.outports = dict(self._outports)
        res.cbox_combine = dict(self._cbox_combine)
        res.cbox_outpe = dict(self._cbox_outpe)
        res.cbox_outctrl = dict(self._cbox_outctrl)
        res.branches = dict(self._branches)
        del res.ops[self._n_ops:]
        sched.vars._state = {
            var: st.snapshot() for var, st in self._vars.items()
        }
        sched.consts._locs = dict(self._consts)
        planner = sched.planner
        planner._next_pair = self._next_pair
        planner.pair_ready = dict(self._pair_ready)
        planner.combined_at = dict(self._combined_at)
        planner.steps = dict(self._steps)
        sched.frontier = self._frontier
        sched.router.region_start = self._region_start
        sched._bound_targets = set(self._bound_targets)
        del sched.loop_spans[self._n_loop_spans:]
        del sched.modulo_loops[self._n_modulo_loops:]
        sched.attraction = dict(self._attraction)
        sched.node_locs = {k: list(v) for k, v in self._node_locs.items()}
        sched._pending_unfused = []
        sched._fused_done = []
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("sched.checkpoint.rollbacks")


class ConstTracker:
    """Materialised (pseudo-)constants per PE (Section V-D).

    "Constants and pseudo-constants may be copied to multiple different
    PEs ... there is no need to store it back."
    """

    def __init__(self, values: ValueTable) -> None:
        self.values = values
        #: (pe, const) -> (vid, ready_cycle)
        self._locs: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def lookup(self, pe: int, const: int) -> Optional[Tuple[int, int]]:
        return self._locs.get((pe, const))

    def holders(self, const: int) -> List[Tuple[int, int, int]]:
        """(pe, vid, ready) of every PE holding ``const``."""
        return [
            (pe, vid, ready)
            for (pe, c), (vid, ready) in self._locs.items()
            if c == const
        ]

    def register(self, pe: int, const: int, vid: int, ready: int) -> None:
        self._locs[(pe, const)] = (vid, ready)

    def snapshot(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        return dict(self._locs)

    def restore(self, snap) -> Dict[Tuple[int, int], Tuple[int, int]]:
        current = self._locs
        self._locs = dict(snap)
        return current

    def merge(self, other: Dict[Tuple[int, int], Tuple[int, int]]) -> None:
        """Keep only constants materialised on both if/else paths."""
        merged = {}
        for key, (vid, ready) in self._locs.items():
            entry = other.get(key)
            if entry is not None and entry[0] == vid:
                merged[key] = (vid, max(ready, entry[1]))
        self._locs = merged

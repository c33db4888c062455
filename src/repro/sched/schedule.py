"""Schedule data structures — the scheduler's output.

A :class:`Schedule` is a linear program of cycles (contexts): per-PE
placed operations, per-cycle C-Box plans and CCU branches, plus the
symbolic *value* bookkeeping (who holds what, from when, used where)
that register allocation (left-edge) consumes.

Values are symbolic RF entries identified by integer ids; each value
lives on exactly one PE.  Kinds:

* ``node``  — result of a dataflow node,
* ``home``  — the home RF entry of a local variable (Section V-D),
* ``copy``  — a routed copy of another value,
* ``const`` — a materialised (pseudo-)constant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.cbox import CBoxFunc
from repro.arch.ccu import BranchKind
from repro.ir.nodes import ArrayRef, Node, Var

__all__ = [
    "SchedulingError",
    "ValueKind",
    "ValueInfo",
    "OperandSource",
    "PredRef",
    "PlacedOp",
    "PlannedCBoxOp",
    "PlannedBranch",
    "LoopSpan",
    "ModuloLoopInfo",
    "Schedule",
]


class SchedulingError(Exception):
    """The kernel cannot be mapped onto the composition."""


class ValueKind(enum.Enum):
    NODE = "node"
    HOME = "home"
    COPY = "copy"
    CONST = "const"


@dataclass
class ValueInfo:
    vid: int
    kind: ValueKind
    pe: int
    #: origin: Node for NODE, Var for HOME, int for CONST, source vid for COPY
    origin: Union[Node, Var, int, None] = None
    #: cycles at which the value is written / read (for lifetime analysis)
    defs: List[int] = field(default_factory=list)
    uses: List[int] = field(default_factory=list)

    def interval(self) -> Optional[Tuple[int, int]]:
        events = self.defs + self.uses
        if not events:
            return None
        return min(events), max(events)


@dataclass(frozen=True)
class OperandSource:
    """Where a placed op reads one operand.

    ``pe`` is the PE *holding* the value.  If it equals the executing
    PE, the operand comes from the local RF; otherwise it is consumed
    through the holder's out-port (which must be booked for that cycle).
    """

    pe: int
    vid: int


@dataclass(frozen=True)
class PredRef:
    """Reference to one side of a C-Box condition pair.

    ``pair`` is the symbolic pair id; ``positive`` selects the pos slot
    (then-predicate / loop-continue) or the neg slot.
    """

    pair: int
    positive: bool


@dataclass
class PlacedOp:
    """One operation placed on a PE at a cycle."""

    cycle: int
    pe: int
    opcode: str
    duration: int
    srcs: Tuple[OperandSource, ...] = ()
    dest_vid: Optional[int] = None
    immediate: Optional[int] = None
    array: Optional[ArrayRef] = None
    predicate: Optional[PredRef] = None
    node: Optional[Node] = None
    #: pipelined PE: the op occupies its PE only at the issue cycle
    issue_only: bool = False

    @property
    def final_cycle(self) -> int:
        return self.cycle + self.duration - 1

    @property
    def is_compare(self) -> bool:
        from repro.arch.operations import COMPARE_OPS

        return self.opcode in COMPARE_OPS


@dataclass
class PlannedCBoxOp:
    """C-Box activity at one cycle (symbolic pair ids, see Section V-H)."""

    cycle: int
    #: PE whose status is ingested this cycle (None = no combine)
    status_pe: Optional[int] = None
    func: Optional[CBoxFunc] = None
    #: stored operand (pair side) for binary funcs / FORK_AND
    read: Optional[PredRef] = None
    #: pair receiving (pos, neg) results
    write_pair: Optional[int] = None
    #: swap pos/neg destinations (FORK_AND of a negated leaf)
    swap_writes: bool = False
    #: predication broadcast: stored slot side, or "fresh_pos"/"fresh_neg"
    out_pe: Optional[Union[PredRef, str]] = None
    #: branch-selection output
    out_ctrl: Optional[Union[PredRef, str]] = None


@dataclass
class PlannedBranch:
    cycle: int
    kind: BranchKind
    target: Optional[int] = None  # resolved cycle index


@dataclass(frozen=True)
class LoopSpan:
    """Context span of one loop: header start .. back-branch cycle."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("loop span end before start")

    def contains(self, cycle: int) -> bool:
        return self.start <= cycle <= self.end


@dataclass(frozen=True)
class ModuloLoopInfo:
    """One software-pipelined (rotated) loop emitted by sched.modulo.

    ``prologue_start .. kernel_start-1`` holds the rotated prologue (the
    loop header evaluating the condition for iteration 0, plus the guard
    branch that skips the loop on a zero-trip count).  The steady-state
    kernel occupies ``kernel_start .. kernel_end`` and repeats every
    ``ii`` cycles: it merges the body of iteration *k* with the header
    of iteration *k+1* and ends in a conditional back branch.  The
    rotated form has a zero-length epilogue (single-stage pipeline), so
    the loop exit falls through to ``kernel_end + 1``.
    """

    prologue_start: int
    kernel_start: int
    kernel_end: int
    #: achieved initiation interval (kernel span length in cycles)
    ii: int
    #: resource-constrained lower bound on the II
    res_mii: int
    #: recurrence-constrained lower bound on the II
    rec_mii: int
    #: II values tried before one was feasible
    attempts: int
    #: critical-path lower bound on the II: the longest dependence chain
    #: of the kernel span (defaults to 1 for schedules pickled before
    #: the bound existed)
    path_mii: int = 1

    @property
    def mii(self) -> int:
        """The minimum II the search started from."""
        return max(self.res_mii, self.rec_mii, self.path_mii)


@dataclass
class Schedule:
    """Complete schedule of a kernel on a composition."""

    kernel_name: str
    composition_name: str
    n_cycles: int
    ops: List[PlacedOp]
    cbox: Dict[int, PlannedCBoxOp]
    branches: Dict[int, PlannedBranch]
    values: Dict[int, ValueInfo]
    #: var -> home value id (its PE is ValueInfo.pe)
    var_homes: Dict[Var, int]
    #: (pe, cycle) -> vid exposed on the out-port
    outport_bookings: Dict[Tuple[int, int], int]
    loop_spans: List[LoopSpan]
    #: total condition pairs allocated
    n_pred_pairs: int
    #: software-pipelined loops (empty in pure list mode)
    modulo_loops: List[ModuloLoopInfo] = field(default_factory=list)

    # -- queries ---------------------------------------------------------

    def ops_at(self, cycle: int) -> List[PlacedOp]:
        return [op for op in self.ops if op.cycle == cycle]

    def ops_on(self, pe: int) -> List[PlacedOp]:
        return [op for op in self.ops if op.pe == pe]

    def used_contexts(self) -> int:
        """Number of contexts the schedule occupies (Table I metric)."""
        return self.n_cycles

    def home_of(self, var: Var) -> Tuple[int, int]:
        """(pe, vid) of a variable's home RF entry."""
        vid = self.var_homes[var]
        return self.values[vid].pe, vid

    def op_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for op in self.ops:
            hist[op.opcode] = hist.get(op.opcode, 0) + 1
        return hist

    def validate(self, composition) -> None:
        """Structural invariants: no double-booked resources.

        Used heavily by tests and by property-based scheduling checks.
        """
        pe_cycles: Dict[Tuple[int, int], PlacedOp] = {}
        finishes: Dict[Tuple[int, int], PlacedOp] = {}
        for op in self.ops:
            if not composition.pes[op.pe].supports(
                op.opcode if op.opcode != "VARWRITE" else "MOVE"
            ):
                raise SchedulingError(
                    f"PE {op.pe} does not support {op.opcode} ({op})"
                )
            busy_until = op.cycle + 1 if op.issue_only else op.cycle + op.duration
            for c in range(op.cycle, busy_until):
                key = (op.pe, c)
                if key in pe_cycles:
                    raise SchedulingError(
                        f"PE {op.pe} double-booked at cycle {c}: "
                        f"{pe_cycles[key]} vs {op}"
                    )
                pe_cycles[key] = op
            fkey = (op.pe, op.final_cycle)
            if fkey in finishes:
                raise SchedulingError(
                    f"PE {op.pe} has two operations finishing at cycle "
                    f"{op.final_cycle} (single write port)"
                )
            finishes[fkey] = op
        for (pe, cycle), vid in self.outport_bookings.items():
            info = self.values[vid]
            if info.pe != pe:
                raise SchedulingError(
                    f"out-port of PE {pe} exposes value {vid} held on "
                    f"PE {info.pe}"
                )
        for op in self.ops:
            for src in op.srcs:
                if src.pe != op.pe:
                    booked = self.outport_bookings.get((src.pe, op.cycle))
                    if booked != src.vid:
                        raise SchedulingError(
                            f"{op} reads value {src.vid} via PE {src.pe}'s "
                            f"out-port, but that port is booked for {booked}"
                        )
                    if not composition.interconnect.has_link(src.pe, op.pe):
                        raise SchedulingError(
                            f"{op} reads from PE {src.pe} without a link"
                        )
        for cycle, br in self.branches.items():
            if br.kind in (BranchKind.UNCONDITIONAL, BranchKind.CONDITIONAL):
                # contexts are 0..n_cycles-1; a branch *to* n_cycles would
                # fall off the end of context memory
                if not 0 <= (br.target or 0) < self.n_cycles:
                    raise SchedulingError(f"branch target out of range: {br}")

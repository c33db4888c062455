"""Ahead-of-time compiled simulator backend.

The context program is entirely static (Section V: fixed per-CCNT
PE/C-Box/CCU words), so what the per-cycle interpreter in
:mod:`repro.sim.machine` re-derives on every dynamic cycle is hoisted
to a one-time compile:

* **Issue records** — per CCNT, only the PEs that issue an operation,
  with operands pre-resolved to flat ``(pe, slot)`` register-file reads
  (a neighbour out-port read becomes the producer's exposed RF slot).
* **Static checks** — links, out-port exposure, operand arity, RF/C-Box
  slot ranges and branch-selection wiring are verified once.
* **Generated traces** — CCNT runs between CCU branch/halt points fuse
  into traces keyed on the entry CCNT plus the *in-flight signature*,
  the (remaining cycles, issue record) of each multi-cycle operation
  running at entry.  Under that key all but data is static (busy PEs,
  finish order, the write port, C-Box status presence, predication
  signals), so on first entry each trace is lowered to one Python
  function: operand reads become ``rX[s]``, commits assignments, each
  operation's 32-bit semantics an inline expression (:data:`_INLINE`,
  no call), a DMA access a bounds-guarded subscript of the array bound
  at entry, the C-Box combine is inlined and a static fault a ``raise``
  at its cycle.  One budget check at entry covers every cycle; a run
  whose budget ends inside the trace replays it through a per-cycle
  guarded twin, lowered only then.  Operations still in flight at exit
  pass to the successor trace.  A process-wide LRU of
  :data:`_CODE_SIZE` functions shares them by source.

``RunResult`` (bit-equal ``energy`` summed at halt from per-trace
integer constants), live-outs, heap contents and errors match the
interpreter, the reference oracle (``tests/sim/test_compiled.py``).
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.arch.cbox import FRESH, FRESH_NEG, CBoxFunc
from repro.arch.ccu import BranchKind
from repro.arch.composition import Composition
from repro.arch.operations import ENERGY_SCALE, OPS, energy_units, wrap32
from repro.context.words import ContextProgram
from repro.obs import get_metrics, get_tracer
from repro.sim.machine import (
    RunResult,
    SimulationError,
    _err_suffix,
    emit_context_profile,
)
from repro.sim.memory import Heap

__all__ = ["CompiledProgram", "compile_program"]

# commit kinds of an issue record
_K_VALUE = 0  # func(*operands) -> rf[dest_slot]
_K_STATUS = 1  # func(*operands) -> C-Box status input
_K_CONST = 2  # pre-wrapped immediate -> rf[dest_slot]
_K_LOAD = 3  # heap.load(handle, operands[0]) -> rf[dest_slot]
_K_STORE = 4  # heap.store(handle, operands[0], operands[1])
_K_VOID = 5  # no commit
_NO_COMMIT = (_K_STATUS, _K_VOID)

# CCU terminal kinds of a step
_B_NONE = 0
_B_UNCOND = 1
_B_COND = 2
_B_HALT = 3
_B_OF = dict(zip(
    (BranchKind.UNCONDITIONAL, BranchKind.CONDITIONAL, BranchKind.HALT),
    (_B_UNCOND, _B_COND, _B_HALT),
))

# C-Box output selector modes
_M_OFF = 0
_M_FRESH = 1
_M_FRESH_NEG = 2
_M_SLOT = 3


class _Issue:
    """One PE's pre-compiled context entry (one operation issue)."""

    __slots__ = (
        "pe", "opcode", "srcs", "duration", "energy", "kind", "dest_slot",
        "value", "handle", "predicated", "pipelined",
    )


class _CBox:
    """Pre-validated C-Box context entry."""

    __slots__ = (
        "status_pe", "func", "read_pos", "read_neg", "write_pos",
        "write_neg", "needs_read", "pe_mode", "pe_slot", "ctrl_mode",
        "ctrl_slot",
    )


class _Step:
    """One CCNT value: issues + C-Box entry + CCU terminal."""

    __slots__ = ("ccnt", "issues", "cbox", "kind", "target", "taken_is_branch")


class _Trace:
    """One (entry CCNT, in-flight signature) lowered to a function.

    ``fn(rf, bits, heap, left, fl)`` runs ``n`` cycles (``left`` is the
    cycle budget, ``fl`` the in-flight operands in and out) and returns
    the successor index: 0 falls through, 1 takes a branch, -1 halts,
    and -2, before touching any state, when ``left < n``.  ``guarded``
    is then the twin that checks the budget every cycle (None until a
    run first needs it).
    """

    __slots__ = (
        "fn", "n", "succ", "keys", "energy", "ops", "ccnts", "source", "key",
        "guarded",
    )


class _Fault(Exception):
    """Generated code's static fault (message) or runaway guard (none)."""


#: globals of generated code.  No per-program name, so the source text
#: alone keys :data:`_CODE`.
_NS: Dict[str, object] = {"_F": _Fault}


def _w(x: str) -> str:
    """``wrap32(x)`` inline: ``((x + 2**31) & (2**32 - 1)) - 2**31`` holds
    for every Python int.  ``x`` must bind at least as tightly as ``+``."""
    return f"({x} + 2147483648 & 4294967295) - 2147483648"


def _cmp(op: str) -> str:
    """Signed compare of wrapped operands: ``wrap32(x) + 2**31`` is
    ``(x + 2**31) & (2**32 - 1)``, which keeps their order."""
    a, b = (f"{{{x}}} + 2147483648 & 4294967295" for x in "ab")
    return f"(1 if {a} {op} {b} else 0)"


#: opcode -> expression over operands ``{a}``/``{b}`` equal to its
#: ``OpSpec.func`` for any Python ints (``tests/sim/test_compiled.py``).
#: Kept apart from :mod:`repro.arch.operations`, so the interpreter's
#: semantics stay an independent oracle.  Statuses are ints, never bools.
_INLINE: Dict[str, str] = {
    "IADD": _w("{a} + {b}"),
    "ISUB": _w("{a} - {b}"),
    "IMUL": _w("{a} * {b}"),
    "INEG": _w("-{a}"),
    "IMIN": f"min({_w('{a}')}, {_w('{b}')})",
    "IMAX": f"max({_w('{a}')}, {_w('{b}')})",
    "IABS": _w(f"abs({_w('{a}')})"),
    "IAND": _w("({a} & {b})"),
    "IOR": _w("({a} | {b})"),
    "IXOR": _w("({a} ^ {b})"),
    "INOT": _w("~{a}"),
    "ISHL": _w("({a} << ({b} & 31))"),
    "ISHR": f"{_w('{a}')} >> ({{b}} & 31)",
    "IUSHR": _w("(({a} & 4294967295) >> ({b} & 31))"),
    "IFEQ": "(0 if {a} - {b} & 4294967295 else 1)",
    "IFNE": "(1 if {a} - {b} & 4294967295 else 0)",
    "IFLT": _cmp("<"),
    "IFLE": _cmp("<="),
    "IFGT": _cmp(">"),
    "IFGE": _cmp(">="),
    "MOVE": _w("{a}"),
}


def _inline(opcode: str, args: List[str]) -> str:
    """``opcode`` applied to the operand expressions ``args``, inline."""
    return _INLINE[opcode].format(**dict(zip("ab", args)))


#: generated source -> function, a process-wide LRU of ``_CODE_SIZE``
#: entries.  Lock-free: a lost race only compiles a source twice.
_CODE: Dict[str, object] = {}
_CODE_SIZE = 1024

#: CBoxFunc -> (pos, neg) over stored ``{rp}``/``{rn}`` and status ``s``
_COMBINE = {
    CBoxFunc.STORE: ("s", "1 - s"),
    CBoxFunc.STORE_NOT: ("1 - s", "s"),
    CBoxFunc.AND: ("{rp} & s", "{rn} | (1 - s)"),
    CBoxFunc.OR: ("{rp} | s", "{rn} & (1 - s)"),
    CBoxFunc.AND_NOT: ("{rp} & (1 - s)", "{rn} | s"),
    CBoxFunc.OR_NOT: ("{rp} | (1 - s)", "{rn} & s"),
    CBoxFunc.FORK_AND: ("{rp} & s", "{rp} & (1 - s)"),
}


def _function(source: str):
    """The function ``source`` defines (memoised in :data:`_CODE`)."""
    fn = _CODE.pop(source, None)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc(f"sim.compile.codegen.{'miss' if fn is None else 'hit'}")
    if fn is None:
        scope: Dict[str, object] = {}
        exec(compile(source, "<cgra-trace>", "exec"), _NS, scope)
        fn = scope["_t"]
    _CODE[source] = fn  # (re)inserted as the most recently used
    try:
        while len(_CODE) > _CODE_SIZE:
            del _CODE[next(iter(_CODE))]
    except (KeyError, RuntimeError):  # raced with another thread
        pass
    return fn


def _sel(mode: int, slot: int) -> str:  # a C-Box output selector
    return {_M_FRESH: "p", _M_FRESH_NEG: "q"}.get(mode, f"bits[{slot}]")


class _Lowering:
    """Generates one trace's function body, cycle by cycle.

    A flight is ``[remaining, seq, rec, operand expressions]``.  Operands
    are read inline where the operation commits, or into locals ``vN`` at
    issue when it is multi-cycle or an earlier commit overwrites one.
    """

    def __init__(self, sig: tuple, guarded: bool) -> None:
        self.guarded = guarded  # budget check per cycle, not at entry
        self.rows = set()  # RF rows bound as locals rN
        self.handles: Dict[int, str] = {}  # heap handle -> local hN
        self.body: List[str] = []
        self.n_vals = 0
        self.flights = [
            [rem, seq, rec, self.fresh(len(rec.srcs))]
            for seq, (rem, rec) in enumerate(sig)
        ]
        self.carried_in = [a for f in self.flights for a in f[3]]
        self.seq = len(sig)
        self.energy = 0
        self.ops: Dict[int, int] = {}
        self.keys = None  # successor keys; None if the code always raises

    def fresh(self, n: int) -> List[str]:
        self.n_vals += n
        return [f"v{i}" for i in range(self.n_vals - n, self.n_vals)]

    def read(self, src: Tuple[int, int]) -> str:
        self.rows.add(src[0])
        return f"r{src[0]}[{src[1]}]"

    def capture(self, srcs) -> List[str]:
        names = self.fresh(len(srcs))
        if names:
            reads = ", ".join(map(self.read, srcs))
            self.body.append(f"{', '.join(names)}, = {reads},")
        return names

    def fault(self, message: str, exc: str = "_F") -> bool:
        self.body.append(f"raise {exc}({message!r})")
        return False

    def step(self, k: int, step: _Step, last: bool) -> bool:
        """Lower one cycle; False once it raised a static fault."""
        body = self.body
        if self.guarded:
            body.append(f"if left <= {k}: raise _F")
        busy = {f[2].pe for f in self.flights}
        fin = []
        for f in self.flights:  # finish countdown; duration < 1 never ends
            f[0] = f[0] - 1 if f[0] > 0 else -1
            if not f[0]:
                fin.append(f)
        self.flights = [f for f in self.flights if f[0]]
        ccnt = step.ccnt
        for rec in step.issues:
            if rec.pe in busy and not rec.pipelined:
                return self.fault(
                    f"PE {rec.pe} issued {rec.opcode} at ccnt {ccnt} "
                    "while busy"
                )
            self.energy += rec.energy
            self.ops[rec.pe] = self.ops.get(rec.pe, 0) + 1
            self.seq += 1
            if rec.duration == 1:
                fin.append([0, self.seq, rec, None])
            else:
                rem = rec.duration - 1 if rec.duration > 1 else -1
                args = self.capture(rec.srcs)
                self.flights.append([rem, self.seq, rec, args])
        # the interpreter commits in ascending-PE order, issue order within
        fin.sort(key=lambda f: (f[2].pe, f[1]))
        for a, b in zip(fin, fin[1:]):
            if a[2].pe == b[2].pe:
                done = sum(1 for f in fin if f[2].pe == a[2].pe)
                return self.fault(
                    f"PE {a[2].pe} finishes {done} operations in one cycle "
                    "(single write port)"
                )
        written = set()  # cells an earlier commit of this cycle writes
        for f in fin:
            rec = f[2]
            if f[3] is None:
                if written.intersection(rec.srcs):
                    f[3] = self.capture(rec.srcs)
                else:
                    f[3] = [self.read(s) for s in rec.srcs]
            if rec.kind not in _NO_COMMIT and rec.dest_slot is not None:
                written.add((rec.pe, rec.dest_slot))

        pred = None  # outPE expression; None while the C-Box drives none
        cb = step.cbox
        if cb is not None:
            if cb.func is not None:
                status = [
                    f for f in fin
                    if f[2].pe == cb.status_pe and f[2].kind == _K_STATUS
                ]
                if not status:  # the interpreter's C-Box raises this
                    return self.fault(
                        f"C-Box selected status of PE {cb.status_pe} but "
                        "that PE produced no status this cycle",
                        "RuntimeError",
                    )
                rec, args = status[0][2], status[0][3]
                body.append(f"s = {_inline(rec.opcode, args)}")
                rp = f"bits[{cb.read_pos}]"
                rn = "0" if cb.read_neg is None else f"bits[{cb.read_neg}]"
                for name, form in zip("pq", _COMBINE[cb.func]):
                    body.append(f"{name} = {form.format(rp=rp, rn=rn)}")
            if cb.pe_mode and any(
                f[2].predicated and f[2].kind not in _NO_COMMIT for f in fin
            ):
                body.append(f"o = {_sel(cb.pe_mode, cb.pe_slot)}")
                pred = "o"
            if last and step.kind == _B_COND and step.taken_is_branch:
                body.append(f"c = {_sel(cb.ctrl_mode, cb.ctrl_slot)}")
            if cb.func is not None:
                for name, slot in (("p", cb.write_pos), ("q", cb.write_neg)):
                    if slot is not None:
                        body.append(f"bits[{slot}] = {name}")

        for f in fin:  # commits
            pe, rec, args = f[2].pe, f[2], f[3]
            if rec.kind in _NO_COMMIT:
                continue
            if rec.predicated and pred is None:
                return self.fault(
                    f"predicated {rec.opcode} on PE {pe} committed at "
                    f"ccnt {ccnt} without a predication signal"
                )
            if rec.kind == _K_STORE:
                # out of range or unknown handle (bound to ()): the heap
                # raises the interpreter's HeapError
                h, i, v = self.bind(rec.handle), args[0], args[1]
                on, other = (
                    (f"{pred} and ", f"elif {pred}") if rec.predicated
                    else ("", "else")
                )
                body.append(f"if {on}0 <= {i} < len({h}): {h}[{i}] = {_w(v)}")
                body.append(f"{other}: heap.store({rec.handle}, {i}, {v})")
                continue
            self.rows.add(pe)
            if rec.kind == _K_VALUE:
                value = _inline(rec.opcode, args)
            elif rec.kind == _K_CONST:
                value = str(rec.value)
            else:
                h, i = self.bind(rec.handle), args[0]
                value = (
                    f"{h}[{i}] if 0 <= {i} < len({h}) "
                    f"else heap.load({rec.handle}, {i})"
                )
            on = f"if {pred}: " if rec.predicated else ""
            body.append(f"{on}r{pe}[{rec.dest_slot}] = {value}")
        return True

    def bind(self, handle: int) -> str:  # (handles may be negative)
        return self.handles.setdefault(handle, f"h{len(self.handles)}")

    def terminal(self, step: _Step) -> None:
        """The CCU word of the trace's last step: next trace or halt."""
        if step.kind == _B_HALT:
            if self.flights:
                self.fault("halt with operations in flight")
            else:
                self.body.append("return -1")
            return
        out = [a for f in self.flights for a in f[3]]
        if out:
            self.body.append(f"fl[:] = ({', '.join(out)},)")
        exit_sig = tuple((f[0], f[2]) for f in self.flights)
        self.keys = ((step.ccnt + 1, exit_sig), (step.target, exit_sig))
        if not step.taken_is_branch:  # also every _B_NONE
            self.body.append("return 0")
        else:
            cond = "" if step.kind == _B_UNCOND else " if c else 0"
            self.body.append(f"return 1{cond}")


def _lower(
    steps: Tuple[_Step, ...], sig: tuple, guarded: bool = False
) -> _Trace:
    """Lower ``steps`` entered with ``sig`` in flight to a :class:`_Trace`.

    ``guarded`` checks the cycle budget before every cycle instead of
    returning -2 at entry when it cannot cover them all.
    """
    low = _Lowering(sig, guarded)
    for k, step in enumerate(steps):
        if not low.step(k, step, step is steps[-1]):
            break  # the generated code raises here
    else:
        low.terminal(steps[-1])
    head = ["def _t(rf, bits, heap, left, fl):"]
    if not guarded:
        head.append(f"if left < {len(steps)}: return -2")
    head += [f"r{p} = rf[{p}]" for p in sorted(low.rows)]
    head += [f"{h} = heap.get({n})" for n, h in low.handles.items()]
    if low.carried_in:
        head.append(f"{', '.join(low.carried_in)}, = fl")
    tr = _Trace()
    tr.source = "\n    ".join(head + low.body) + "\n"
    tr.fn = _function(tr.source)
    tr.n = len(steps)
    tr.succ = [None, None]
    tr.key = (steps[0].ccnt, sig)
    tr.guarded = None
    tr.keys = low.keys
    tr.energy = low.energy
    tr.ops = tuple(low.ops.items())
    tr.ccnts = tuple(s.ccnt for s in steps)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("sim.compile.traces")
    return tr


class CompiledProgram:
    """A context program lowered to step records and generated traces."""

    def __init__(
        self, program: ContextProgram, comp: Composition, steps: List[_Step]
    ) -> None:
        # weak: the memo holds this object strongly, so a strong back-
        # reference would keep every program alive and its weakref
        # eviction could never fire.  A caller *running* the compiled
        # program holds the program itself, so the deref cannot fail.
        self._program_ref = weakref.ref(program)
        self.comp = comp
        self.steps = steps
        #: entry ccnt -> tuple of steps up to the next branch/halt point
        self._traces: Dict[int, Tuple[_Step, ...]] = {}
        #: (entry ccnt, in-flight signature) -> generated trace
        self._lowered: Dict[tuple, _Trace] = {}
        self._ctx = _err_suffix(program)

    @property
    def program(self) -> ContextProgram:
        program = self._program_ref()
        if program is None:
            raise ReferenceError(
                "context program was garbage-collected; a CompiledProgram "
                "only outlives its program inside the compile memo"
            )
        return program

    # -- traces ----------------------------------------------------------

    def _build_trace(self, entry: int) -> Tuple[_Step, ...]:
        steps = self.steps
        if not 0 <= entry < len(steps):
            raise SimulationError(
                f"CCNT {entry} out of program range{self._ctx}"
            )
        end = entry
        while steps[end].kind == _B_NONE and end < len(steps) - 1:
            end += 1
        trace = self._traces[entry] = tuple(steps[entry : end + 1])
        return trace

    def _trace(self, key: tuple) -> _Trace:
        tr = self._lowered.get(key)
        if tr is None:
            steps = self._traces.get(key[0]) or self._build_trace(key[0])
            tr = self._lowered[key] = _lower(steps, key[1])
        return tr

    def _guarded(self, tr: _Trace):
        """``tr``'s per-cycle budget-checked twin (lowered on first use)."""
        if tr.guarded is None:
            ccnt, sig = tr.key
            tr.guarded = _lower(self._traces[ccnt], sig, guarded=True).fn
        return tr.guarded

    def _unlink(self) -> None:
        """Drop the successor links, which loops make cyclic, so the
        traces die by reference counting, without the collector."""
        for tr in self._lowered.values():
            tr.succ = [None, None]

    def trace_source(self, entry: int) -> str:
        """Generated source of the trace entered idle at CCNT ``entry``."""
        return self._trace((entry, ())).source

    # -- execution -------------------------------------------------------

    def execute(
        self,
        rf: List[List[int]],
        heap: Heap,
        cbox_bits: List[int],
        *,
        start_ccnt: int = 0,
        max_cycles: int,
        tracer=None,
    ):
        """Run to halt; returns a :class:`~repro.sim.machine.RunResult`.

        ``rf`` and ``cbox_bits`` are the live simulator state (mutated
        in place, exactly like the interpreter's phases would).
        """
        tr = self._trace((start_ccnt, ()))
        fl: list = []
        seen: List[_Trace] = []  # traces run since the last fold
        tally: Counter = Counter()
        cycles = taken = 0
        try:
            while True:
                i = tr.fn(rf, cbox_bits, heap, max_cycles - cycles, fl)
                if i < 0:
                    if i == -1:
                        cycles += tr.n
                        seen.append(tr)
                        break
                    # -2: the budget ends inside this trace; the twin
                    # raises the runaway fault at that cycle, after the
                    # cycles before it committed
                    self._guarded(tr)(
                        rf, cbox_bits, heap, max_cycles - cycles, fl
                    )
                    raise AssertionError("guarded trace outran its budget")
                cycles += tr.n
                seen.append(tr)
                if i:
                    taken += 1
                    if len(seen) > 4096:  # bounds memory on long loops
                        tally.update(seen)
                        seen.clear()
                nxt = tr.succ[i]
                if nxt is None:
                    nxt = tr.succ[i] = self._trace(tr.keys[i])
                tr = nxt
        except _Fault as exc:
            runaway = f"exceeded {max_cycles} cycles (runaway loop?)"
            message = exc.args[0] if exc.args else runaway
            raise SimulationError(message + self._ctx) from None
        tally.update(seen)
        ops_executed = [0] * self.comp.n_pes
        energy = 0  # integer micro-units (ENERGY_SCALE)
        visits: Optional[List[int]] = None
        if (tracer is not None and tracer.enabled) or get_metrics().enabled:
            visits = [0] * len(self.steps)
        for t, n in tally.items():
            energy += t.energy * n
            for pe, count in t.ops:
                ops_executed[pe] += count * n
            if visits is not None:
                for ccnt in t.ccnts:
                    visits[ccnt] += n
        if visits is not None:
            emit_context_profile(tracer, self.program, visits, cycles)
        return RunResult(cycles, ops_executed, energy / ENERGY_SCALE, taken)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

#: id(program) -> [(composition, compiled)].  Keyed by identity (the
#: schedule cache shares programs by reference) and evicted by a
#: ``weakref.finalize`` when the program dies, so the program object
#: itself stays pickle-clean and the memo cannot leak; the weakref
#: callback fires during deallocation, before the id can be reused.
_COMPILED: Dict[int, list] = {}


def _memo_count(event: str) -> None:
    """``sim.compile.memo.{hit,miss,evict}`` counters (no-op when off)."""
    try:
        metrics = get_metrics()
    except Exception:  # interpreter teardown (weakref finalizer path)
        return
    if metrics.enabled:
        metrics.inc(f"sim.compile.memo.{event}")


def _memo_evict(key: int) -> None:
    for _, compiled in _COMPILED.pop(key, ()):
        compiled._unlink()
    _memo_count("evict")


def compile_program(
    program: ContextProgram, comp: Composition
) -> CompiledProgram:
    """Compile (memoised per program identity and equal composition)."""
    key = id(program)
    entries = _COMPILED.get(key)
    if entries is not None:
        # identity first; equality catches the fresh but equal
        # Composition that unpickling every served job yields
        for cached_comp, compiled in entries:
            if cached_comp is comp or cached_comp == comp:
                _memo_count("hit")
                return compiled
    _memo_count("miss")
    tracer = get_tracer()
    with tracer.span(
        "sim.compile",
        kernel=program.kernel_name,
        composition=program.composition_name,
    ):
        compiled = _compile(program, comp)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("sim.compile.count")
        metrics.inc("sim.compile.steps", len(compiled.steps))
    _COMPILED.setdefault(key, []).append((comp, compiled))
    if entries is None:
        weakref.finalize(program, _memo_evict, key)
    return compiled


def _compile(program: ContextProgram, comp: Composition) -> CompiledProgram:
    ctx = _err_suffix(program)

    def err(message: str) -> SimulationError:
        return SimulationError(message + ctx)

    n_pes = comp.n_pes
    pes = comp.pes
    steps: List[_Step] = []
    for ccnt in range(program.n_cycles):
        issues: List[_Issue] = []
        for pe in range(n_pes):
            entry = program.pe_contexts[pe][ccnt]
            if entry is None or entry.opcode == "NOP":
                continue
            opcode = entry.opcode
            rec = _Issue()
            rec.pe = pe
            rec.opcode = opcode
            rec.duration = entry.duration
            rec.energy = energy_units(pes[pe].energy(opcode))
            rec.predicated = entry.predicated
            rec.pipelined = pes[pe].pipelined
            rec.dest_slot = entry.dest_slot
            rec.value = rec.handle = None
            srcs = []
            rf_size = pes[pe].regfile_size
            for sel in entry.srcs:
                if sel.is_local:
                    if not 0 <= sel.slot < rf_size:
                        raise err(
                            f"PE {pe} reads RF slot {sel.slot} at ccnt "
                            f"{ccnt}, register file has {rf_size} entries"
                        )
                    srcs.append((pe, sel.slot))
                    continue
                src_pe = sel.pe
                producer = None
                if 0 <= src_pe < n_pes:
                    producer = program.pe_contexts[src_pe][ccnt]
                if producer is None or producer.out_addr is None:
                    raise err(
                        f"PE {pe} reads PE {src_pe}'s out-port at ccnt "
                        f"{ccnt}, but no value is exposed"
                    )
                if not comp.interconnect.has_link(src_pe, pe):
                    raise err(f"PE {pe} has no input from PE {src_pe}")
                srcs.append((src_pe, producer.out_addr))
            rec.srcs = tuple(srcs)
            where = f"{opcode} on PE {pe} at ccnt {ccnt}"
            if opcode == "CONST":
                if entry.immediate is None or entry.dest_slot is None:
                    raise err(f"{where} lacks an immediate or destination")
                rec.kind = _K_CONST
                rec.value = wrap32(entry.immediate)
            elif opcode == "DMA_LOAD":
                if entry.immediate is None or entry.dest_slot is None:
                    raise err(f"{where} lacks a handle or destination")
                rec.kind = _K_LOAD
                rec.handle = entry.immediate
            elif opcode == "DMA_STORE":
                if entry.immediate is None:
                    raise err(f"{where} lacks a heap handle")
                rec.kind = _K_STORE
                rec.handle = entry.immediate
            else:
                spec = OPS[opcode]
                if len(srcs) != spec.arity:
                    raise err(
                        f"{where} has {len(srcs)} operands, expects "
                        f"{spec.arity}"
                    )
                if spec.produces_status:
                    rec.kind = _K_STATUS
                elif spec.produces_value:
                    if entry.dest_slot is None:
                        raise err(f"{where} has no destination slot")
                    rec.kind = _K_VALUE
                else:
                    rec.kind = _K_VOID
            if rec.dest_slot is not None and not 0 <= rec.dest_slot < rf_size:
                raise err(
                    f"PE {pe} writes RF slot {rec.dest_slot} at ccnt "
                    f"{ccnt}, register file has {rf_size} entries"
                )
            issues.append(rec)

        cbox = _compile_cbox(program, comp, ccnt, err)
        ccu = program.ccu_contexts[ccnt]
        step = _Step()
        step.ccnt = ccnt
        step.issues = tuple(issues)
        step.cbox = cbox
        step.target, step.taken_is_branch = -1, False
        step.kind = _B_OF.get(ccu.kind, _B_NONE)
        if step.kind == _B_COND and (cbox is None or cbox.ctrl_mode == _M_OFF):
            raise err(
                f"conditional branch at ccnt {ccnt} has no "
                "branch-selection signal from the C-Box"
            )
        if step.kind in (_B_UNCOND, _B_COND):
            step.target = ccu.target
            step.taken_is_branch = ccu.target != ccnt + 1
            if not 0 <= step.target < program.n_cycles:
                raise err(
                    f"branch at ccnt {ccnt} targets CCNT {step.target}, "
                    "out of program range"
                )
        steps.append(step)
    return CompiledProgram(program, comp, steps)


def _compile_cbox(
    program: ContextProgram, comp: Composition, ccnt: int, err
) -> Optional[_CBox]:
    entry = program.cbox_contexts[ccnt]
    if entry is None or entry.is_idle:
        return None
    slots = comp.cbox_slots

    def check_slot(slot: Optional[int], role: str) -> None:
        if slot is not None and not 0 <= slot < slots:
            raise err(
                f"C-Box {role} slot {slot} at ccnt {ccnt} out of range "
                f"(size {slots})"
            )

    if entry.func is not None and not 0 <= entry.status_pe < comp.n_pes:
        raise err(
            f"C-Box selects status of PE {entry.status_pe} at ccnt "
            f"{ccnt}, composition has {comp.n_pes} PEs"
        )
    for slot in (entry.read_pos, entry.read_neg):
        check_slot(slot, "read")
    for slot in (entry.write_pos, entry.write_neg):
        check_slot(slot, "write")
    cb = _CBox()
    for name in _CBox.__slots__[:6]:  # status_pe .. write_neg, as given
        setattr(cb, name, getattr(entry, name))
    cb.needs_read = entry.func is not None and entry.func.needs_read

    def mode_of(sel: Optional[int], role: str) -> Tuple[int, int]:
        if sel is None:
            return _M_OFF, 0
        if sel == FRESH:
            return _M_FRESH, 0
        if sel == FRESH_NEG:
            return _M_FRESH_NEG, 0
        check_slot(sel, role)
        return _M_SLOT, sel

    cb.pe_mode, cb.pe_slot = mode_of(entry.out_pe_slot, "outPE")
    cb.ctrl_mode, cb.ctrl_slot = mode_of(entry.out_ctrl_slot, "outctrl")
    return cb

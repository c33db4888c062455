"""Differential tests: compiled backend vs the interpreter oracle.

The AOT-compiled executor (:mod:`repro.sim.compiled`) must be
observationally identical to the per-cycle interpreter: same
:class:`RunResult` (cycles, per-PE op counts, energy — bit-equal, not
approximate — and branch counts), same live-out values, same final heap
contents, and the same :class:`SimulationError`s on malformed programs.
Every bundled kernel runs on several compositions through both backends
from one shared schedule, so any divergence is the simulator's fault,
not the scheduler's.
"""

import random
import sys

import pytest

from repro.arch.cbox import FRESH_NEG, CBoxFunc, CBoxOp
from repro.arch.ccu import BranchKind, CCUEntry
from repro.arch.library import irregular_composition, mesh_composition
from repro.arch.operations import OPS
from repro.context.generator import generate_contexts
from repro.context.words import ContextProgram, PEContext, SrcSel
from repro.ir.frontend import compile_kernel
from repro.kernels import adpcm, crc32, dotp, fir, gcd, histogram, matmul, sort
from repro.obs import observe
from repro.sched.scheduler import schedule_kernel
from repro.sim.compiled import _INLINE, _Trace, _inline, compile_program
from repro.sim.invocation import invoke_kernel, run_invocation
from repro.sim.machine import CGRASimulator, SimulationError
from repro.sim.memory import Heap, HeapError

COMPS = {
    "mesh4": mesh_composition(4),
    "mesh9": mesh_composition(9),
    "irrF": irregular_composition("F"),
}


def _workloads():
    """(id, kernel builder, livein, arrays) for every bundled kernel."""
    xs, ys = dotp.sample_inputs(12)
    fir_xs = [((i * 31) % 17) - 8 for i in range(12)]
    fir_coeffs = [1, -2, 3]
    fir_n = len(fir_xs) - len(fir_coeffs) + 1
    packed, _ = adpcm.encoded_reference(24)
    return [
        ("gcd", gcd.build_kernel, {"a": 1071, "b": 462}, {}),
        ("dotp", dotp.build_kernel, {"n": 12}, {"xs": xs, "ys": ys}),
        (
            "fir",
            fir.build_kernel,
            {"n": fir_n, "taps": len(fir_coeffs)},
            {"xs": fir_xs, "coeffs": fir_coeffs, "ys": [0] * fir_n},
        ),
        (
            "sort",
            sort.build_kernel,
            {"n": 6},
            {"data": [5, 1, 4, 2, 8, 2]},
        ),
        (
            "matmul",
            matmul.build_kernel,
            {"n": 3},
            {
                "a": [1, 2, 3, 4, 5, 6, 7, 8, 9],
                "b": [9, 8, 7, 6, 5, 4, 3, 2, 1],
                "c": [0] * 9,
            },
        ),
        (
            "histogram",
            histogram.build_kernel,
            {"n": 10, "nbins": 4},
            {"data": [0, 3, 1, -2, 7, 2, 2, 0, 5, 1], "bins": [0] * 4},
        ),
        ("crc32", crc32.build_kernel, {"n": 8}, {"data": list(range(8))}),
        (
            "adpcm",
            adpcm.build_decoder_kernel,
            {"n": 24, "gain": 4096},
            {
                "inp": packed,
                "outp": [0] * 24,
                "steptab": list(adpcm.STEP_TABLE),
                "indextab": list(adpcm.INDEX_TABLE),
            },
        ),
    ]


WORKLOADS = _workloads()


def _both_backends(kernel, comp, livein, arrays, **kw):
    """Run one schedule through both backends; return the two results."""
    schedule = schedule_kernel(kernel, comp)
    program = generate_contexts(schedule, comp, kernel)
    out = []
    for backend in ("interpreter", "compiled"):
        out.append(
            invoke_kernel(
                kernel,
                comp,
                dict(livein),
                {k: list(v) for k, v in arrays.items()},
                program=program,
                backend=backend,
                **kw,
            )
        )
    return out


def _assert_identical(kernel, ref, got):
    assert got.results == ref.results
    assert got.run_cycles == ref.run_cycles
    assert got.total_cycles == ref.total_cycles
    assert got.run.cycles == ref.run.cycles
    assert got.run.ops_executed == ref.run.ops_executed
    assert got.run.branches_taken == ref.run.branches_taken
    # bit-equal, not approx: both backends sum integer micro-units
    assert got.run.energy == ref.run.energy
    for ref_arr in kernel.arrays:
        assert got.heap.array(ref_arr.handle) == ref.heap.array(
            ref_arr.handle
        )


class TestDifferential:
    """Every kernel x composition, one schedule, two backends."""

    @pytest.mark.parametrize("comp_name", list(COMPS))
    @pytest.mark.parametrize(
        "name,build,livein,arrays",
        WORKLOADS,
        ids=[w[0] for w in WORKLOADS],
    )
    def test_backends_agree(self, comp_name, name, build, livein, arrays):
        kernel = build()
        ref, got = _both_backends(kernel, COMPS[comp_name], livein, arrays)
        _assert_identical(kernel, ref, got)

    def test_dual_cycle_multiplier_agrees(self):
        kernel = matmul.build_kernel()
        ref, got = _both_backends(
            kernel,
            mesh_composition(9, mul_duration=2),
            {"n": 3},
            {
                "a": [2, 0, 1, 3, 5, 8, 1, 1, 4],
                "b": [1, 4, 1, 5, 9, 2, 6, 5, 3],
                "c": [0] * 9,
            },
        )
        _assert_identical(kernel, ref, got)


def _mul_chain(a: int, b: int, c: int, d: int) -> int:
    p1 = a * b
    p2 = c * d
    p3 = a * d
    p4 = b * c
    total = p1 + p2 + p3 + p4
    return total


class TestPipelined:
    """Multiple operations in flight per PE under the compiled backend."""

    def test_mul_chain_on_pipelined_mesh(self):
        kernel = compile_kernel(_mul_chain)
        ref, got = _both_backends(
            kernel,
            mesh_composition(4, pipelined=True, mul_duration=2),
            {"a": 3, "b": 5, "c": 7, "d": 11},
            {},
        )
        _assert_identical(kernel, ref, got)
        assert got.results["total"] == 3 * 5 + 7 * 11 + 3 * 11 + 5 * 7

    def test_adpcm_on_pipelined_mesh(self):
        kernel = adpcm.build_decoder_kernel()
        packed, expect = adpcm.encoded_reference(16)
        ref, got = _both_backends(
            kernel,
            mesh_composition(9, pipelined=True),
            {"n": 16, "gain": 4096},
            {
                "inp": packed,
                "outp": [0] * 16,
                "steptab": list(adpcm.STEP_TABLE),
                "indextab": list(adpcm.INDEX_TABLE),
            },
        )
        _assert_identical(kernel, ref, got)
        assert got.heap.array(kernel.arrays[1].handle) == expect

    def test_back_to_back_issue_overlaps_in_flight(self):
        """Two 2-cycle IMULs issued on consecutive cycles: the compiled
        backend must keep both in flight and commit them one per cycle
        (single write port), like the interpreter."""
        comp = mesh_composition(4, pipelined=True, mul_duration=2)
        prog = _empty(comp, 6)
        prog.pe_contexts[0][0] = PEContext("CONST", immediate=6, dest_slot=0)
        prog.pe_contexts[0][1] = PEContext("CONST", immediate=7, dest_slot=1)
        prog.pe_contexts[0][2] = PEContext(
            "IMUL", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=2, duration=2
        )
        prog.pe_contexts[0][3] = PEContext(
            "IMUL", srcs=(SrcSel.rf(1), SrcSel.rf(1)), dest_slot=3, duration=2
        )
        prog.ccu_contexts[5] = CCUEntry(BranchKind.HALT)
        for backend in ("interpreter", "compiled"):
            sim = CGRASimulator(comp, prog, backend=backend)
            res = sim.run()
            assert sim.rf[0][2] == 36 and sim.rf[0][3] == 49
            assert res.ops_executed[0] == 4

    def test_write_port_conflict_detected(self):
        """A 2-cycle and a 1-cycle op finishing together must raise."""
        comp = mesh_composition(4, pipelined=True, mul_duration=2)
        prog = _empty(comp, 3)
        prog.pe_contexts[0][0] = PEContext(
            "IMUL", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=0, duration=2
        )
        prog.pe_contexts[0][1] = PEContext("CONST", immediate=1, dest_slot=1)
        prog.ccu_contexts[2] = CCUEntry(BranchKind.HALT)
        for backend in ("interpreter", "compiled"):
            with pytest.raises(SimulationError, match="single write port"):
                CGRASimulator(comp, prog, backend=backend).run()


def _empty(comp, n_cycles):
    return ContextProgram(
        kernel_name="hand",
        composition_name=comp.name,
        n_cycles=n_cycles,
        pe_contexts=[[None] * n_cycles for _ in range(comp.n_pes)],
        cbox_contexts=[None] * n_cycles,
        ccu_contexts=[CCUEntry() for _ in range(n_cycles)],
        livein_map={},
        liveout_map={},
        rf_used=[0] * comp.n_pes,
        cbox_slots_used=0,
    )


class TestPredication:
    def _pred_program(self, comp, status_value, *, dma=False):
        """PE0 computes a compare; a predicated op rides on its outcome."""
        prog = _empty(comp, 5 if dma else 4)
        prog.pe_contexts[0][0] = PEContext(
            "CONST", immediate=status_value, dest_slot=0
        )
        prog.pe_contexts[1][0] = PEContext("CONST", immediate=55, dest_slot=3)
        prog.pe_contexts[0][1] = PEContext(
            "IFGT", srcs=(SrcSel.rf(0), SrcSel.rf(1)), dest_slot=None
        )
        prog.cbox_contexts[1] = CBoxOp(
            status_pe=0, func=CBoxFunc.STORE, write_pos=0, write_neg=1
        )
        if dma:
            dma_pe = comp.dma_pes()[0]
            prog.pe_contexts[dma_pe][2] = PEContext(
                "DMA_STORE",
                srcs=(SrcSel.rf(0), SrcSel.rf(1)),
                immediate=7,
                duration=2,
                predicated=True,
            )
            # the store finishes at ccnt 3: outPE must be driven there
            prog.cbox_contexts[3] = CBoxOp(out_pe_slot=0)
            prog.ccu_contexts[4] = CCUEntry(BranchKind.HALT)
        else:
            prog.pe_contexts[1][2] = PEContext(
                "MOVE", srcs=(SrcSel.rf(3),), dest_slot=4, predicated=True
            )
            prog.cbox_contexts[2] = CBoxOp(out_pe_slot=0)
            prog.ccu_contexts[3] = CCUEntry(BranchKind.HALT)
        return prog

    @pytest.mark.parametrize("status,expect", [(1, 55), (0, 0)])
    def test_rf_write_predicated(self, status, expect):
        comp = mesh_composition(4)
        sim = CGRASimulator(
            comp, self._pred_program(comp, status), backend="compiled"
        )
        sim.run()
        assert sim.rf[1][4] == expect

    @pytest.mark.parametrize("status", [1, 0])
    def test_dma_store_squash(self, status):
        """A squashed DMA_STORE must not touch the heap (out_pe == 0)."""
        comp = mesh_composition(4)
        results = []
        for backend in ("interpreter", "compiled"):
            heap = Heap()
            heap.allocate(7, [10, 20, 30])
            prog = self._pred_program(comp, status, dma=True)
            CGRASimulator(comp, prog, heap, backend=backend).run()
            results.append(heap.array(7))
        assert results[0] == results[1]
        if status == 0:
            assert results[1] == [10, 20, 30]
        else:
            assert results[1] != [10, 20, 30]

    def test_predicated_without_signal_fails(self):
        comp = mesh_composition(4)
        prog = _empty(comp, 2)
        prog.pe_contexts[0][0] = PEContext(
            "CONST", immediate=1, dest_slot=0, predicated=True
        )
        prog.ccu_contexts[1] = CCUEntry(BranchKind.HALT)
        with pytest.raises(SimulationError, match="predication"):
            CGRASimulator(comp, prog, backend="compiled").run()


class TestControlFlow:
    def test_conditional_loop_matches_interpreter(self):
        comp = mesh_composition(4)
        prog = _empty(comp, 5)
        prog.pe_contexts[0][0] = PEContext("CONST", immediate=3, dest_slot=0)
        prog.pe_contexts[0][1] = PEContext("CONST", immediate=1, dest_slot=1)
        prog.pe_contexts[0][2] = PEContext(
            "IFGT", srcs=(SrcSel.rf(0), SrcSel.rf(2))
        )
        prog.cbox_contexts[2] = CBoxOp(
            status_pe=0,
            func=CBoxFunc.STORE,
            write_pos=0,
            write_neg=1,
            out_ctrl_slot=FRESH_NEG,
        )
        prog.ccu_contexts[2] = CCUEntry(BranchKind.CONDITIONAL, 4)
        prog.pe_contexts[0][3] = PEContext(
            "ISUB", srcs=(SrcSel.rf(0), SrcSel.rf(1)), dest_slot=0
        )
        prog.ccu_contexts[3] = CCUEntry(BranchKind.UNCONDITIONAL, 2)
        prog.ccu_contexts[4] = CCUEntry(BranchKind.HALT)
        runs = []
        for backend in ("interpreter", "compiled"):
            sim = CGRASimulator(comp, prog, backend=backend)
            res = sim.run()
            assert sim.rf[0][0] == 0
            runs.append(res)
        ref, got = runs
        assert (got.cycles, got.branches_taken) == (
            ref.cycles,
            ref.branches_taken,
        )
        assert got.energy == ref.energy

    def test_trace_fusion_covers_straight_line_runs(self):
        """Contiguous CCNTs up to a branch/halt fuse into one trace."""
        comp = mesh_composition(4)
        prog = _empty(comp, 5)
        prog.ccu_contexts[2] = CCUEntry(BranchKind.UNCONDITIONAL, 0)
        prog.ccu_contexts[4] = CCUEntry(BranchKind.HALT)
        compiled = compile_program(prog, comp)
        trace = compiled._build_trace(0)
        assert [s.ccnt for s in trace] == [0, 1, 2]
        trace = compiled._build_trace(3)
        assert [s.ccnt for s in trace] == [3, 4]

    def test_runaway_guard_names_kernel(self):
        comp = mesh_composition(4)
        prog = _empty(comp, 1)
        prog.ccu_contexts[0] = CCUEntry(BranchKind.UNCONDITIONAL, 0)
        sim = CGRASimulator(comp, prog, max_cycles=100, backend="compiled")
        with pytest.raises(SimulationError, match="100") as exc:
            sim.run()
        assert "kernel='hand'" in str(exc.value)


class TestCompileTimeErrors:
    """Static program defects surface at compile time, with context."""

    def test_port_read_without_exposure(self):
        comp = mesh_composition(4)
        prog = _empty(comp, 2)
        prog.pe_contexts[1][0] = PEContext(
            "MOVE", srcs=(SrcSel.port(0),), dest_slot=0
        )
        prog.ccu_contexts[1] = CCUEntry(BranchKind.HALT)
        with pytest.raises(SimulationError, match="out-port") as exc:
            compile_program(prog, comp)
        assert "kernel='hand'" in str(exc.value)

    def test_port_read_without_link(self):
        comp = mesh_composition(4)
        prog = _empty(comp, 2)
        prog.pe_contexts[0][0] = PEContext("NOP", out_addr=0)
        prog.pe_contexts[3][0] = PEContext(
            "MOVE", srcs=(SrcSel.port(0),), dest_slot=0
        )
        prog.ccu_contexts[1] = CCUEntry(BranchKind.HALT)
        with pytest.raises(SimulationError, match="no input"):
            compile_program(prog, comp)

    def test_issue_while_busy_still_dynamic(self):
        """Busy conflicts depend on dynamic arrival; still detected."""
        comp = mesh_composition(4, mul_duration=2)
        prog = _empty(comp, 3)
        prog.pe_contexts[0][0] = PEContext(
            "IMUL", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=1, duration=2
        )
        prog.pe_contexts[0][1] = PEContext("CONST", immediate=1, dest_slot=0)
        prog.ccu_contexts[2] = CCUEntry(BranchKind.HALT)
        with pytest.raises(SimulationError, match="busy"):
            CGRASimulator(comp, prog, backend="compiled").run()

    def test_halt_with_inflight(self):
        comp = mesh_composition(4, mul_duration=2)
        prog = _empty(comp, 1)
        prog.pe_contexts[0][0] = PEContext(
            "IMUL", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=1, duration=2
        )
        prog.ccu_contexts[0] = CCUEntry(BranchKind.HALT)
        with pytest.raises(SimulationError, match="in flight"):
            CGRASimulator(comp, prog, backend="compiled").run()


class TestPlumbing:
    def test_max_cycles_through_run_invocation(self):
        kernel = gcd.build_kernel()
        comp = mesh_composition(4)
        schedule = schedule_kernel(kernel, comp)
        program = generate_contexts(schedule, comp, kernel)
        for backend in ("interpreter", "compiled"):
            with pytest.raises(SimulationError, match="runaway"):
                run_invocation(
                    program,
                    comp,
                    {"a": 1, "b": 100},
                    max_cycles=3,
                    backend=backend,
                )

    def test_unknown_backend_rejected(self):
        kernel = gcd.build_kernel()
        with pytest.raises(ValueError, match="backend"):
            invoke_kernel(
                kernel, mesh_composition(4), {"a": 4, "b": 2}, backend="jit"
            )

    def test_compile_is_memoised(self):
        kernel = gcd.build_kernel()
        comp = mesh_composition(4)
        schedule = schedule_kernel(kernel, comp)
        program = generate_contexts(schedule, comp, kernel)
        first = compile_program(program, comp)
        assert compile_program(program, comp) is first


def _outcome(comp, prog, backend, heap=None, **kw):
    """(result or error, RF, heap contents) of one run on ``backend``."""
    sim = CGRASimulator(comp, prog, heap, backend=backend, **kw)
    try:
        result = sim.run()
    except (SimulationError, RuntimeError, HeapError) as exc:
        result = (type(exc), str(exc))
    heap_state = sorted((h, list(a)) for h, a in sim.heap.items())
    return result, [list(row) for row in sim.rf], heap_state


def _assert_backends_agree(comp, prog, arrays=None, **kw):
    """Both backends, each on a fresh heap holding ``arrays``."""
    outcomes = []
    for backend in ("interpreter", "compiled"):
        heap = Heap()
        for handle, data in (arrays or {}).items():
            heap.allocate(handle, data)
        outcomes.append(_outcome(comp, prog, backend, heap, **kw))
    ref, got = outcomes
    assert got == ref
    return got


def _branch_with_mul_in_flight(comp, status_value, tail):
    """IMUL (duration 2) issued with a conditional branch, so it
    finishes in the first cycle of whichever successor trace runs.

    ``tail(prog)`` fills in what both successors issue at CCNT 3/4.
    """
    prog = _empty(comp, 6)
    prog.pe_contexts[0][0] = PEContext(
        "CONST", immediate=status_value, dest_slot=0
    )
    prog.pe_contexts[1][0] = PEContext("CONST", immediate=6, dest_slot=0)
    prog.pe_contexts[0][1] = PEContext("CONST", immediate=5, dest_slot=1)
    prog.pe_contexts[1][1] = PEContext("CONST", immediate=7, dest_slot=1)
    prog.pe_contexts[0][2] = PEContext(
        "IFGT", srcs=(SrcSel.rf(0), SrcSel.rf(1))
    )
    prog.pe_contexts[1][2] = PEContext(
        "IMUL", srcs=(SrcSel.rf(0), SrcSel.rf(1)), dest_slot=2, duration=2
    )
    prog.cbox_contexts[2] = CBoxOp(
        status_pe=0,
        func=CBoxFunc.STORE,
        write_pos=0,
        write_neg=1,
        out_ctrl_slot=FRESH_NEG,
    )
    prog.ccu_contexts[2] = CCUEntry(BranchKind.CONDITIONAL, 4)
    prog.ccu_contexts[3] = CCUEntry(BranchKind.UNCONDITIONAL, 5)
    prog.pe_contexts[1][5] = PEContext(
        "IADD", srcs=(SrcSel.rf(2), SrcSel.rf(0)), dest_slot=3
    )
    prog.ccu_contexts[5] = CCUEntry(BranchKind.HALT)
    tail(prog)
    return prog


class TestInFlightAcrossTraces:
    """Traces entered with a multi-cycle operation still in flight."""

    @pytest.mark.parametrize("status", [9, 1])  # falls through / branches
    def test_mul_finishes_in_either_successor(self, status):
        comp = mesh_composition(4, mul_duration=2)

        def tail(prog):
            prog.pe_contexts[2][3] = PEContext(
                "CONST", immediate=1, dest_slot=0
            )
            prog.pe_contexts[2][4] = PEContext(
                "CONST", immediate=2, dest_slot=0
            )

        prog = _branch_with_mul_in_flight(comp, status, tail)
        result, rf, _ = _assert_backends_agree(comp, prog)
        assert rf[1][2] == 42 and rf[1][3] == 48
        assert rf[2][0] == (1 if status > 5 else 2)
        lowered = compile_program(prog, comp)._lowered
        entry = 3 if status > 5 else 4
        assert [len(sig) for ccnt, sig in lowered if ccnt == entry] == [1]

    @pytest.mark.parametrize("status", [9, 1])
    def test_busy_conflict_across_boundary(self, status):
        comp = mesh_composition(4, mul_duration=2)

        def tail(prog):  # PE 1 issues while its IMUL is still running
            for ccnt in (3, 4):
                prog.pe_contexts[1][ccnt] = PEContext(
                    "CONST", immediate=1, dest_slot=4
                )

        prog = _branch_with_mul_in_flight(comp, status, tail)
        (kind, message), _, _ = _assert_backends_agree(comp, prog)
        assert kind is SimulationError and "while busy" in message

    @pytest.mark.parametrize("status", [9, 1])
    def test_write_port_conflict_across_boundary(self, status):
        comp = mesh_composition(4, mul_duration=2, pipelined=True)

        def tail(prog):  # a 1-cycle op finishing with the IMUL
            for ccnt in (3, 4):
                prog.pe_contexts[1][ccnt] = PEContext(
                    "CONST", immediate=1, dest_slot=4
                )

        prog = _branch_with_mul_in_flight(comp, status, tail)
        (kind, message), _, _ = _assert_backends_agree(comp, prog)
        assert kind is SimulationError and "single write port" in message

    @pytest.mark.parametrize("max_cycles", [9, 10, 11])
    def test_runaway_guard_mid_trace(self, max_cycles):
        """A 4-cycle loop body: the guard fires inside the trace, after
        the cycles before it committed."""
        comp = mesh_composition(4)
        prog = _empty(comp, 4)
        prog.pe_contexts[1][0] = PEContext("CONST", immediate=1, dest_slot=0)
        for ccnt in range(1, 4):  # r1[0] doubles every cycle
            prog.pe_contexts[1][ccnt] = PEContext(
                "IADD", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=0
            )
        for ccnt in range(4):
            prog.pe_contexts[2][ccnt] = PEContext(
                "CONST", immediate=ccnt + 1, dest_slot=ccnt
            )
        prog.ccu_contexts[3] = CCUEntry(BranchKind.UNCONDITIONAL, 0)
        (kind, message), rf, _ = _assert_backends_agree(
            comp, prog, max_cycles=max_cycles
        )
        assert kind is SimulationError and str(max_cycles) in message
        assert rf[1][0] == 2 ** ((max_cycles - 1) % 4)

    def test_one_program_from_four_threads(self):
        """``serve --workers 0`` and the pool's thread fallback run one
        shared CompiledProgram concurrently; lowering races included."""
        from concurrent.futures import ThreadPoolExecutor

        kernel = adpcm.build_decoder_kernel()
        comp = mesh_composition(9, pipelined=True)
        schedule = schedule_kernel(kernel, comp)
        program = generate_contexts(schedule, comp, kernel)
        packed, expect = adpcm.encoded_reference(16)

        def run(gain):
            return invoke_kernel(
                kernel,
                comp,
                {"n": 16, "gain": gain},
                {
                    "inp": list(packed),
                    "outp": [0] * 16,
                    "steptab": list(adpcm.STEP_TABLE),
                    "indextab": list(adpcm.INDEX_TABLE),
                },
                program=program,
                backend="compiled",
            )

        gains = [4096, 2048, 1024, 512] * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch mid-trace and mid-lowering
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(run, gains, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for gain, got in zip(gains, threaded):
            ref = run(gain)
            assert got.run == ref.run
            assert got.results == ref.results
            out = kernel.arrays[1].handle
            assert got.heap.array(out) == ref.heap.array(out)
        assert threaded[0].heap.array(kernel.arrays[1].handle) == expect


class TestGeneratedCode:
    def test_equal_composition_hits_memo(self):
        """A pool worker unpickles a fresh but equal Composition per job;
        it must reuse the compiled program, not append another."""
        import pickle

        from repro import obs
        from repro.sim.compiled import _COMPILED

        kernel = gcd.build_kernel()
        comp = mesh_composition(4)
        schedule = schedule_kernel(kernel, comp)
        program = generate_contexts(schedule, comp, kernel)
        first = compile_program(program, comp)
        with obs.observe() as session:
            for _ in range(5):
                fresh = pickle.loads(pickle.dumps(comp))
                assert fresh is not comp and fresh == comp
                assert compile_program(program, fresh) is first
        assert session.metrics.counter_value("sim.compile.memo.hit") == 5
        assert session.metrics.counter_value("sim.compile.memo.miss") == 0
        assert len(_COMPILED[id(program)]) == 1

    def test_trace_source_and_counters(self):
        """Equal programs share generated code through the source memo."""
        from repro import obs

        kernel = gcd.build_kernel()
        comp = mesh_composition(4)
        schedule = schedule_kernel(kernel, comp)
        counts = []
        for _ in range(2):
            program = generate_contexts(schedule, comp, kernel)
            with obs.observe() as session:
                run_invocation(
                    program, comp, {"a": 1071, "b": 462}, backend="compiled"
                )
            counts.append(
                [
                    session.metrics.counter_value(f"sim.compile.{name}")
                    for name in ("traces", "codegen.hit", "codegen.miss")
                ]
            )
        (traces, _, _), (traces2, hit2, miss2) = counts
        assert traces == traces2 == sum(counts[0][1:]) > 1
        assert (hit2, miss2) == (traces, 0)
        source = compile_program(program, comp).trace_source(0)
        assert source.startswith("def _t(rf, bits, heap, left, fl):")
        compile(source, "<trace>", "exec")

    def test_reads_see_values_from_before_the_cycle(self):
        """PE 1 reads PE 0's out-port in the cycle PE 0 overwrites the
        exposed slot: the read sees the old value (phase 1 before 3)."""
        comp = mesh_composition(4)
        prog = _empty(comp, 2)
        prog.pe_contexts[0][0] = PEContext("CONST", immediate=5, dest_slot=1)
        prog.pe_contexts[0][1] = PEContext(
            "CONST", immediate=9, dest_slot=1, out_addr=1
        )
        prog.pe_contexts[1][1] = PEContext(
            "MOVE", srcs=(SrcSel.port(0),), dest_slot=0
        )
        prog.ccu_contexts[1] = CCUEntry(BranchKind.HALT)
        _, rf, _ = _assert_backends_agree(comp, prog)
        assert (rf[0][1], rf[1][0]) == (9, 5)

    def test_code_memo_is_bounded(self, monkeypatch):
        """The process-wide code memo evicts its least recently used
        functions beyond its size; evicted traces keep running."""
        from repro.sim import compiled

        monkeypatch.setattr(compiled, "_CODE", {})
        monkeypatch.setattr(compiled, "_CODE_SIZE", 2)
        kernel = gcd.build_kernel()
        comp = mesh_composition(4)
        program = generate_contexts(
            schedule_kernel(kernel, comp), comp, kernel
        )
        for a, b in ((1071, 462), (7, 13)):
            ref = run_invocation(program, comp, {"a": a, "b": b})
            got = run_invocation(
                program, comp, {"a": a, "b": b}, backend="compiled"
            )
            assert got.results == ref.results and got.run == ref.run
        assert len(compile_program(program, comp)._lowered) > 2
        assert len(compiled._CODE) == 2


def test_compile_memo_counters():
    """sim.compile.memo.{hit,miss,evict} track the weakref-finalized
    compile memo in repro.sim.compiled."""
    import gc

    build = WORKLOADS[0][1]
    kernel = build()
    comp = COMPS["mesh4"]
    schedule = schedule_kernel(kernel, comp)
    with observe() as session:
        program = generate_contexts(schedule, comp, kernel)
        run_invocation(program, comp, {"a": 48, "b": 18}, backend="compiled")
        miss0 = session.metrics.counter_value("sim.compile.memo.miss")
        assert miss0 >= 1
        assert session.metrics.counter_value("sim.compile.memo.hit") == 0
        run_invocation(program, comp, {"a": 7, "b": 13}, backend="compiled")
        assert session.metrics.counter_value("sim.compile.memo.hit") == 1
        assert session.metrics.counter_value("sim.compile.memo.miss") == miss0
        assert session.metrics.counter_value("sim.compile.memo.evict") == 0
        del program
        gc.collect()
        assert session.metrics.counter_value("sim.compile.memo.evict") >= 1


#: operands the inline forms must treat like ``OpSpec.func``: edges of
#: the 32-bit range, values beyond it, and seeded random ints
_EDGES = [0, 1, -1, 2**31 - 1, -(2**31), 2**32 + 5, -(2**40)]
_RNG = random.Random(27)
_OPERANDS = _EDGES + [
    _RNG.randint(-(2**40), 2**40) >> _RNG.randrange(41) for _ in range(200)
]
_SHIFTS = [0, 31, 32, 33, -1]


class TestInlineSemantics:
    def test_every_operation_has_an_inline_form(self):
        assert set(_INLINE) == {op for op, spec in OPS.items() if spec.func}

    @pytest.mark.parametrize("opcode", sorted(_INLINE))
    def test_inline_form_equals_operation(self, opcode):
        spec = OPS[opcode]
        params = ["a", "b"][: spec.arity]
        inline = eval(f"lambda {', '.join(params)}: {_inline(opcode, params)}")
        if spec.arity == 1:
            cases = [(a,) for a in _OPERANDS]
        else:
            rng = random.Random(opcode)
            cases = [(a, b) for a in _EDGES for b in _OPERANDS]
            cases += [(b, a) for a, b in cases]
            cases += [(a, b) for a in _OPERANDS for b in _SHIFTS]
            cases += [
                (rng.choice(_OPERANDS), rng.choice(_OPERANDS))
                for _ in range(200)
            ]
        for args in cases:
            got = inline(*args)
            assert got == spec.func(*args), (opcode, args)
            assert type(got) is int, (opcode, args)  # stored into bits/RF

    def test_adpcm_traces_call_no_operation(self):
        kernel, livein, arrays = next(
            (build(), li, ar) for name, build, li, ar in WORKLOADS
            if name == "adpcm"
        )
        comp = COMPS["mesh4"]
        program = generate_contexts(
            schedule_kernel(kernel, comp), comp, kernel
        )
        invoke_kernel(
            kernel, comp, dict(livein),
            {k: list(v) for k, v in arrays.items()},
            program=program, backend="compiled",
        )
        sources = [
            tr.source for tr in compile_program(program, comp)._lowered.values()
        ]
        assert len(sources) > 1
        for source in sources:
            for opcode in OPS:
                assert f"_{opcode}(" not in source
            assert "load(" not in source.replace("heap.load(", "")


def _dma_program(comp, opcode, index, handle, dma_pe):
    """``dma_pe`` loads ``handle[index]`` (or stores 99 there), the DMA
    committing at ccnt 3 next to CONST commits on PEs 1 and 2."""
    prog = _empty(comp, 5)
    prog.pe_contexts[dma_pe][0] = PEContext(
        "CONST", immediate=index, dest_slot=0
    )
    prog.pe_contexts[dma_pe][1] = PEContext("CONST", immediate=99, dest_slot=1)
    srcs = (SrcSel.rf(0), SrcSel.rf(1))
    prog.pe_contexts[dma_pe][2] = (
        PEContext("DMA_LOAD", srcs=srcs[:1], immediate=handle, dest_slot=2,
                  duration=2)
        if opcode == "DMA_LOAD"
        else PEContext("DMA_STORE", srcs=srcs, immediate=handle, duration=2)
    )
    for pe in (1, 2):
        prog.pe_contexts[pe][3] = PEContext(
            "CONST", immediate=pe, dest_slot=5
        )
    prog.ccu_contexts[4] = CCUEntry(BranchKind.HALT)
    return prog


class TestInlineDMA:
    """Bounds-guarded DMA in generated code raises the interpreter's
    HeapError at the same cycle, after the same commits."""

    @pytest.mark.parametrize("dma_pe", [0, 3])  # commits before / after
    @pytest.mark.parametrize("opcode", ["DMA_LOAD", "DMA_STORE"])
    @pytest.mark.parametrize(
        "index,handle",
        [(1, 7), (2, 7), (3, 7), (-1, 7), (2**31 - 1, 7), (0, 8), (0, -7)],
    )
    def test_dma_access(self, dma_pe, opcode, index, handle):
        comp = mesh_composition(4)
        assert dma_pe in comp.dma_pes()
        prog = _dma_program(comp, opcode, index, handle, dma_pe)
        result, rf, heap = _assert_backends_agree(
            comp, prog, arrays={7: [10, 20, 30]}
        )
        if 0 <= index < 3 and handle == 7:
            assert rf[1][5] == 1 and rf[2][5] == 2
            stored = 99 if opcode == "DMA_STORE" else 10 * (index + 1)
            assert heap[0][1][index] == stored
        else:
            assert result[0] is HeapError
            assert rf[1][5] == (1 if dma_pe == 3 else 0)

    @pytest.mark.parametrize("status", [0, 1])
    @pytest.mark.parametrize("index", [1, 5, -1])
    def test_predicated_store_out_of_range(self, status, index):
        """A squashed store never checks its index; a committed one does."""
        comp = mesh_composition(4)
        dma_pe = comp.dma_pes()[-1]
        prog = _empty(comp, 5)
        prog.pe_contexts[0][0] = PEContext(
            "CONST", immediate=status, dest_slot=0
        )
        prog.pe_contexts[dma_pe][0] = PEContext(
            "CONST", immediate=index, dest_slot=0
        )
        prog.pe_contexts[0][1] = PEContext(
            "IFGT", srcs=(SrcSel.rf(0), SrcSel.rf(1))
        )
        prog.cbox_contexts[1] = CBoxOp(
            status_pe=0, func=CBoxFunc.STORE, write_pos=0, write_neg=1
        )
        prog.pe_contexts[dma_pe][1] = PEContext(
            "CONST", immediate=99, dest_slot=1
        )
        prog.pe_contexts[dma_pe][2] = PEContext(
            "DMA_STORE",
            srcs=(SrcSel.rf(0), SrcSel.rf(1)),
            immediate=7,
            duration=2,
            predicated=True,
        )
        prog.cbox_contexts[3] = CBoxOp(out_pe_slot=0)
        prog.ccu_contexts[4] = CCUEntry(BranchKind.HALT)
        result, _, heap = _assert_backends_agree(
            comp, prog, arrays={7: [10, 20, 30]}
        )
        if status == 0:
            assert heap == [(7, [10, 20, 30])] and result.cycles == 5
        elif index == 1:
            assert heap == [(7, [10, 99, 30])]
        else:
            assert result[0] is HeapError


def _inflight_loop(comp):
    """A 3-cycle loop body entered with a 3-cycle IMUL in flight: the
    IMUL issued in the body's last cycle finishes in the next pass."""
    prog = _empty(comp, 4)
    prog.pe_contexts[1][0] = PEContext("CONST", immediate=1, dest_slot=0)
    prog.pe_contexts[2][0] = PEContext("CONST", immediate=3, dest_slot=0)
    for ccnt in (1, 2):  # r1[0] doubles every cycle
        prog.pe_contexts[1][ccnt] = PEContext(
            "IADD", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=0
        )
    prog.pe_contexts[2][3] = PEContext(
        "IMUL", srcs=(SrcSel.rf(0), SrcSel.rf(0)), dest_slot=0, duration=3
    )
    prog.ccu_contexts[3] = CCUEntry(BranchKind.UNCONDITIONAL, 1)
    return prog


class TestEntryBudgetCheck:
    @pytest.mark.parametrize("max_cycles", range(1, 12))
    def test_budget_ends_inside_an_inflight_trace(self, max_cycles):
        comp = mesh_composition(4, mul_duration=3)
        prog = _inflight_loop(comp)
        (kind, message), rf, _ = _assert_backends_agree(
            comp, prog, max_cycles=max_cycles
        )
        assert kind is SimulationError and str(max_cycles) in message
        lowered = compile_program(prog, comp)._lowered
        assert [len(sig) for ccnt, sig in lowered] == [0, 1][: len(lowered)]
        if max_cycles >= 4:  # the loop trace was entered; its twin raised
            assert len(lowered) == 2

    def test_guarded_twin_lowered_only_when_the_budget_runs_out(self):
        comp = mesh_composition(4)
        prog = _dma_program(comp, "DMA_LOAD", 1, 7, 0)
        heap = Heap()
        heap.allocate(7, [10, 20, 30])
        CGRASimulator(comp, prog, heap, backend="compiled").run()
        (tr,) = compile_program(prog, comp)._lowered.values()
        assert tr.guarded is None
        assert tr.source.splitlines()[1].strip() == "if left < 5: return -2"
        assert "raise" not in tr.source
        result, _, _ = _assert_backends_agree(
            comp, prog, arrays={7: [10, 20, 30]}, max_cycles=4
        )
        assert result[0] is SimulationError and tr.guarded is not None


def test_freed_programs_leave_no_trace_garbage():
    """Loops link traces into cycles; evicting a freed program's compiled
    form unlinks them, so nothing is left for the cycle collector."""
    import gc

    kernel = gcd.build_kernel()
    comp = COMPS["mesh4"]
    schedule = schedule_kernel(kernel, comp)

    def traces():
        return sum(type(o) is _Trace for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = traces()
        for a in range(20):
            program = generate_contexts(schedule, comp, kernel)
            result = run_invocation(
                program, comp, {"a": 1071 + a, "b": 462}, backend="compiled"
            )
            assert result.run.branches_taken > 1
            assert len(compile_program(program, comp)._lowered) > 1
            del program
        after = traces()
    finally:
        gc.enable()
    assert after == before

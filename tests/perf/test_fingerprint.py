"""Content-address sensitivity: equal problems collide, unequal don't."""

from __future__ import annotations

import pytest

from repro.arch.library import (
    all_paper_compositions,
    irregular_composition,
    mesh_composition,
)
from repro.context.generator import generate_contexts
from repro.kernels import dotp, fir, gcd
from repro.perf.fingerprint import (
    composition_fingerprint,
    flags_fingerprint,
    kernel_fingerprint,
    program_bytes,
    schedule_cache_key,
)
from repro.sched.scheduler import schedule_kernel
from repro.verify.workloads import WORKLOADS, get_workload


class TestKernelFingerprint:
    def test_stable_across_rebuilds(self):
        # frontend temps carry process-unique suffixes; the canonical
        # encoding renumbers them so rebuilds address the same entry
        for mod in (gcd, dotp, fir):
            assert kernel_fingerprint(mod.build_kernel()) == (
                kernel_fingerprint(mod.build_kernel())
            )

    def test_distinct_kernels_differ(self):
        fps = {
            kernel_fingerprint(mod.build_kernel())
            for mod in (gcd, dotp, fir)
        }
        assert len(fps) == 3

    def test_transform_changes_fingerprint(self):
        from repro.ir.transform import unroll_inner_loops

        plain = dotp.build_kernel()
        unrolled = dotp.build_kernel()
        unroll_inner_loops(unrolled, 2)
        assert kernel_fingerprint(plain) != kernel_fingerprint(unrolled)


class TestCompositionFingerprint:
    def test_stable_across_rebuilds(self):
        assert composition_fingerprint(mesh_composition(6)) == (
            composition_fingerprint(mesh_composition(6))
        )

    def test_parameters_matter(self):
        base = composition_fingerprint(mesh_composition(6))
        assert base != composition_fingerprint(mesh_composition(4))
        assert base != composition_fingerprint(
            mesh_composition(6, mul_duration=1)
        )
        assert base != composition_fingerprint(
            mesh_composition(6, regfile_size=32)
        )
        assert base != composition_fingerprint(irregular_composition("C"))


class TestFlagsAndKey:
    def test_flags_order_insensitive(self):
        assert flags_fingerprint(a=1, b="x") == flags_fingerprint(b="x", a=1)
        assert flags_fingerprint(a=1) != flags_fingerprint(a=2)

    def test_cache_key_covers_all_three_inputs(self):
        k, c = gcd.build_kernel(), mesh_composition(4)
        base = schedule_cache_key(k, c, fmt=1)
        assert base == schedule_cache_key(gcd.build_kernel(), c, fmt=1)
        assert base != schedule_cache_key(dotp.build_kernel(), c, fmt=1)
        assert base != schedule_cache_key(k, mesh_composition(6), fmt=1)
        assert base != schedule_cache_key(k, c, fmt=2)

    def test_carried_kernel_fingerprint_gives_the_same_key(self):
        k, c = gcd.build_kernel(), mesh_composition(4)
        fp = kernel_fingerprint(k)
        assert schedule_cache_key(k, c, kernel_fp=fp, fmt=1) == (
            schedule_cache_key(k, c, fmt=1)
        )


def _repr_program_bytes(program):
    """The earlier ``program_bytes``: every entry through its dataclass
    ``repr``.  Kept as the oracle of the field-by-field encoder."""
    lines = [
        f"{program.kernel_name} on {program.composition_name}",
        f"cycles={program.n_cycles}",
        "livein="
        + repr(sorted((v.name, loc) for v, loc in program.livein_map.items())),
        "liveout="
        + repr(sorted((v.name, loc) for v, loc in program.liveout_map.items())),
        f"rf_used={program.rf_used!r}",
        f"cbox_slots_used={program.cbox_slots_used}",
        "arrays=" + repr(sorted((a.name, a.handle) for a in program.arrays)),
    ]
    for pe, rows in enumerate(program.pe_contexts):
        for cycle, entry in enumerate(rows):
            if entry is not None:
                lines.append(f"pe{pe}@{cycle}: {entry!r}")
    for cycle, cb in enumerate(program.cbox_contexts):
        if cb is not None:
            lines.append(f"cbox@{cycle}: {cb!r}")
    for cycle, ccu in enumerate(program.ccu_contexts):
        lines.append(f"ccu@{cycle}: {ccu!r}")
    return "\n".join(lines).encode("utf-8")


class TestProgramBytes:
    @pytest.mark.parametrize("mode", ("list", "modulo", "auto"))
    def test_equals_the_repr_encoder_on_every_pinned_cell(self, mode):
        """The 96 cells of each mode pinned in tests/integration/regressions."""
        for name in WORKLOADS:
            kernel = get_workload(name).build()
            for comp in all_paper_compositions().values():
                schedule = schedule_kernel(kernel, comp, scheduler_mode=mode)
                program = generate_contexts(schedule, comp, kernel)
                assert program_bytes(program) == _repr_program_bytes(program), (
                    name, comp.name, mode
                )

    def test_entry_shapes_beyond_the_grid(self):
        """Zero, one and two operand selectors, every C-Box function and
        branch kind, a predicated write and a FRESH output."""
        from repro.arch.cbox import FRESH, CBoxFunc, CBoxOp
        from repro.arch.ccu import BranchKind, CCUEntry
        from repro.context.words import ContextProgram, PEContext, SrcSel

        pe_rows = [
            [
                PEContext("NOP", out_addr=3),
                PEContext("IADD", (SrcSel.rf(0),), dest_slot=1, predicated=True),
                PEContext("IMUL", (SrcSel.port(2), SrcSel.rf(5)), 4, duration=2),
                None,
                PEContext("CONST", dest_slot=0, immediate=-(2**31)),
            ]
        ]
        cbox = [
            CBoxOp(status_pe=0, func=func, read_pos=0, read_neg=1,
                   write_pos=2, write_neg=3, out_ctrl_slot=FRESH)
            for func in CBoxFunc
        ] + [None]
        ccu = [CCUEntry(kind, 0 if kind in (BranchKind.UNCONDITIONAL,
                                            BranchKind.CONDITIONAL) else None)
               for kind in BranchKind]
        program = ContextProgram(
            "k", "c", len(ccu), pe_rows, cbox, ccu, {}, {}, [6], 4
        )
        assert program_bytes(program) == _repr_program_bytes(program)

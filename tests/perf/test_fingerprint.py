"""Content-address sensitivity: equal problems collide, unequal don't."""

from __future__ import annotations

from repro.arch.library import irregular_composition, mesh_composition
from repro.kernels import dotp, fir, gcd
from repro.perf.fingerprint import (
    composition_fingerprint,
    flags_fingerprint,
    kernel_fingerprint,
    schedule_cache_key,
)


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

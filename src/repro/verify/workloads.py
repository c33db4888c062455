"""Workload registry for the verification tooling.

Each :class:`Workload` bundles a kernel factory with several *input
vectors* (live-in scalars + heap array contents).  The mutation
harness (:mod:`repro.verify.mutate`) runs every mutant against every
vector: a single input often leaves a corrupted program looking
healthy (a flipped predicate whose condition happens to hold, a
swapped operand that reads an equal value), so vector diversity is
what keeps the *escaped* count at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.ir.cdfg import Kernel

__all__ = ["InputVector", "Workload", "WORKLOADS", "get_workload"]


@dataclass(frozen=True)
class InputVector:
    """One concrete invocation input: live-in scalars + array contents."""

    livein: Dict[str, int]
    arrays: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def fresh_arrays(self) -> Dict[str, List[int]]:
        """Array contents as fresh mutable lists (heaps are mutated)."""
        return {name: list(data) for name, data in self.arrays.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], Kernel]
    vectors: Tuple[InputVector, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError(f"workload {self.name!r} needs >= 1 input vector")


def _gcd() -> Workload:
    from repro.kernels import gcd

    return Workload(
        "gcd",
        gcd.build_kernel,
        (
            InputVector({"a": 1071, "b": 462}),
            InputVector({"a": 21, "b": 6}),
            InputVector({"a": 17, "b": 5}),
        ),
    )


def _adpcm() -> Workload:
    from repro.eval.tables import adpcm_arrays, adpcm_kernel

    arrays, _expect = adpcm_arrays(16)
    frozen = {name: tuple(data) for name, data in arrays.items()}

    def with_inp(packed: Sequence[int]) -> Dict[str, Tuple[int, ...]]:
        alt = dict(frozen)
        alt["inp"] = tuple(packed)
        return alt

    return Workload(
        "adpcm",
        adpcm_kernel,
        (
            InputVector({"n": 16, "gain": 4096}, frozen),
            InputVector({"n": 11, "gain": 2048}, frozen),
            # adversarial nibble streams: alternating sign bits and
            # extreme deltas drive the decoder's predicates (sign,
            # delta bits, index/valpred clamps) down both sides
            InputVector(
                {"n": 16, "gain": 4096},
                with_inp((0x8F, 0x71, 0xF8, 0x17, 0xFF, 0x00, 0x9E, 0x63)),
            ),
            InputVector(
                {"n": 16, "gain": 1024},
                with_inp((0x70, 0x07, 0xB4, 0x4B, 0x2D, 0xD2, 0x59, 0x95)),
            ),
            # sustained maximum deltas saturate the decoder: the step
            # index rails to 88 and valpred clamps at +32767 then
            # -32768, finally underflowing the index — reaching the
            # clamp branches no natural waveform exercises
            InputVector(
                {"n": 16, "gain": 4096},
                with_inp((0x77, 0x77, 0x77, 0x77, 0xFF, 0xFF, 0xFF, 0x88)),
            ),
            InputVector(
                {"n": 16, "gain": 4096},
                with_inp((0x77,) * 8),
            ),
            # boundary iteration counts: n=0 leaves the prologue's
            # initial values live at the exit-path reads (a misdirected
            # init write is only visible when the loop never overwrites
            # it); n=1 stops mid-byte with bufferstep toggled once
            InputVector({"n": 0, "gain": 4096}, frozen),
            InputVector({"n": 1, "gain": 4096}, frozen),
        ),
    )


def _dotp() -> Workload:
    from repro.kernels import dotp

    xs, ys = dotp.sample_inputs(8)
    return Workload(
        "dotp",
        dotp.build_kernel,
        (
            InputVector({"n": 8}, {"xs": tuple(xs), "ys": tuple(ys)}),
            InputVector(
                {"n": 5},
                {"xs": (3, -1, 4, 1, -5, 9, 2, 6), "ys": (2, 7, 1, -8, 2, 8, 1, 8)},
            ),
        ),
    )


def _sort() -> Workload:
    from repro.kernels import sort

    return Workload(
        "sort",
        sort.build_kernel,
        (
            InputVector({"n": 8}, {"data": (5, 3, 8, 1, 9, 2, 7, 4)}),
            InputVector({"n": 6}, {"data": (2, 2, -7, 40, 0, 1, 9, 9)}),
        ),
    )


def _crc32() -> Workload:
    from repro.kernels import crc32

    return Workload(
        "crc32",
        crc32.build_kernel,
        (
            InputVector({"n": 4}, {"data": (0x12, 0x34, 0x56, 0x78)}),
            InputVector({"n": 3}, {"data": (0xFF, 0x00, 0xA5, 0x5A)}),
        ),
    )


def _histogram() -> Workload:
    from repro.kernels import histogram

    return Workload(
        "histogram",
        histogram.build_kernel,
        (
            InputVector(
                {"n": 8, "nbins": 4},
                {"data": (0, 1, 2, 3, 3, 2, 1, 0), "bins": (0, 0, 0, 0)},
            ),
            InputVector(
                {"n": 6, "nbins": 4},
                {"data": (3, 3, 3, 0, 1, 0, 2, 2), "bins": (0, 0, 0, 0)},
            ),
        ),
    )


def _matmul() -> Workload:
    from repro.kernels import matmul

    return Workload(
        "matmul",
        matmul.build_kernel,
        (
            InputVector(
                {"n": 3},
                {
                    "a": tuple(range(1, 10)),
                    "b": tuple(range(9, 0, -1)),
                    "c": (0,) * 9,
                },
            ),
            InputVector(
                {"n": 2},
                {
                    "a": (2, -3, 5, 7, 0, 0, 0, 0, 0),
                    "b": (1, 4, -6, 8, 0, 0, 0, 0, 0),
                    "c": (0,) * 9,
                },
            ),
        ),
    )


def _fir() -> Workload:
    from repro.kernels import fir

    return Workload(
        "fir",
        fir.build_kernel,
        (
            # n + taps - 1 must not exceed len(xs): the kernel reads
            # xs[i + k] for i < n, k < taps (n=8 here overran xs[8])
            InputVector(
                {"n": 6, "taps": 3},
                {
                    "xs": (3, 1, 4, 1, 5, 9, 2, 6),
                    "coeffs": (1, 2, 1),
                    "ys": (0,) * 8,
                },
            ),
            InputVector(
                {"n": 7, "taps": 2},
                {
                    "xs": (-2, 0, 7, 7, -1, 3, 8, 5),
                    "coeffs": (3, -1, 0),
                    "ys": (0,) * 8,
                },
            ),
        ),
    )


_FACTORIES: Dict[str, Callable[[], Workload]] = {
    "gcd": _gcd,
    "adpcm": _adpcm,
    "dotp": _dotp,
    "sort": _sort,
    "crc32": _crc32,
    "histogram": _histogram,
    "matmul": _matmul,
    "fir": _fir,
}

#: workload names available to ``python -m repro.verify``
WORKLOADS: Tuple[str, ...] = tuple(sorted(_FACTORIES))


def get_workload(name: str) -> Workload:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}"
        ) from None
    return factory()

"""Seeded inputs and golden checks for the eight kernels.

Each generator draws from a ``random.Random`` the caller seeds.  It keeps
the kernel's preconditions (array lengths, index bounds, ``a, b >= 1``
for the subtraction gcd) and fixes the sizes that set the amount of
work, so two seeds cost about the same and only the values differ.

``check`` compares one job's outputs with the kernel module's own golden
model (``repro.kernels.*.golden`` / ``golden_decode``), never with the
simulator.  ``reference`` returns the fixed input every schedule-quality
count is taken on: vector 0 of ``repro.verify.workloads``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.kernels import adpcm, crc32, dotp, fir, gcd, histogram, matmul, sort

KERNELS: Tuple[str, ...] = (
    "gcd", "dotp", "sort", "crc32", "histogram", "matmul", "fir", "adpcm",
)

#: kernels whose loops the modulo scheduler pipelines (gcd and adpcm
#: fall back to list scheduling region by region)
PIPELINEABLE: Tuple[str, ...] = (
    "dotp", "sort", "crc32", "histogram", "matmul", "fir",
)

#: samples per ADPCM job where the workload does not say otherwise
ADPCM_SAMPLES = 16


class Inputs(NamedTuple):
    """One invocation's inputs (plus the ADPCM build parameter)."""

    livein: Dict[str, int]
    arrays: Dict[str, List[int]]
    params: Tuple[Tuple[str, int], ...] = ()


def _ints(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def adpcm_inputs(rng: random.Random, n: int) -> Inputs:
    """A seeded ``reference_signal`` stream of ``n`` samples, encoded."""
    signal = adpcm.reference_signal(n, seed=rng.randint(1, 2**31 - 2))
    return Inputs(
        {"n": n, "gain": 4096},
        {
            "inp": adpcm.golden_encode(signal),
            "outp": [0] * n,
            "steptab": list(adpcm.STEP_TABLE),
            "indextab": list(adpcm.INDEX_TABLE),
        },
        (("n_samples", n),),
    )


def generate(kernel: str, rng: random.Random) -> Inputs:
    """Seeded inputs for ``kernel`` at the benchmark's fixed sizes."""
    if kernel == "gcd":
        return Inputs({"a": rng.randint(1, 200), "b": rng.randint(1, 200)}, {})
    if kernel == "dotp":
        xs, ys = dotp.sample_inputs(8, seed=rng.randint(1, 2**31 - 1))
        return Inputs({"n": 8}, {"xs": xs, "ys": ys})
    if kernel == "sort":
        return Inputs({"n": 8}, {"data": _ints(rng, 8, -500, 500)})
    if kernel == "crc32":
        return Inputs({"n": 4}, {"data": _ints(rng, 4, 0, 255)})
    if kernel == "histogram":
        # values outside [0, nbins) exercise both clipping branches
        return Inputs(
            {"n": 8, "nbins": 4},
            {"data": _ints(rng, 8, -2, 5), "bins": [0] * 4},
        )
    if kernel == "matmul":
        return Inputs(
            {"n": 3},
            {"a": _ints(rng, 9, -50, 50), "b": _ints(rng, 9, -50, 50),
             "c": [0] * 9},
        )
    if kernel == "fir":
        # the kernel reads xs[i + k] for i < n, k < taps: n + taps - 1
        # must not exceed len(xs)
        return Inputs(
            {"n": 6, "taps": 3},
            {"xs": _ints(rng, 8, -100, 100), "coeffs": _ints(rng, 3, -8, 8),
             "ys": [0] * 8},
        )
    if kernel == "adpcm":
        return adpcm_inputs(rng, ADPCM_SAMPLES)
    raise KeyError(f"unknown kernel {kernel!r}")


def reference(kernel: str) -> Inputs:
    """The fixed input schedule-quality counts are measured on."""
    from repro.verify.workloads import get_workload

    vec = get_workload(kernel).vectors[0]
    params = (("n_samples", vec.livein["n"]),) if kernel == "adpcm" else ()
    return Inputs(dict(vec.livein), vec.fresh_arrays(), params)


def expected(kernel: str, inputs: Inputs) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
    """(live-outs, final array prefixes) the golden model predicts."""
    li, ar = inputs.livein, inputs.arrays
    if kernel == "gcd":
        return {"a": gcd.golden(li["a"], li["b"])}, {}
    if kernel == "dotp":
        n = li["n"]
        return {"acc": dotp.golden(ar["xs"][:n], ar["ys"][:n])}, {}
    if kernel == "sort":
        n = li["n"]
        return {}, {"data": sort.golden(ar["data"][:n])}
    if kernel == "crc32":
        return {"result": crc32.golden(ar["data"][: li["n"]])}, {}
    if kernel == "histogram":
        bins, clipped = histogram.golden(ar["data"][: li["n"]], li["nbins"])
        return {"clipped": clipped}, {"bins": bins}
    if kernel == "matmul":
        return {}, {"c": matmul.golden(ar["a"], ar["b"], li["n"])}
    if kernel == "fir":
        return {}, {"ys": fir.golden(ar["xs"], ar["coeffs"][: li["taps"]], li["n"])}
    if kernel == "adpcm":
        return {}, {"outp": adpcm.golden_decode(ar["inp"], li["n"], li["gain"])}
    raise KeyError(f"unknown kernel {kernel!r}")


def check(
    kernel: str,
    inputs: Inputs,
    results: Mapping[str, int],
    heap: Mapping[str, List[int]],
) -> Optional[str]:
    """``None`` when the outputs match the golden model, else why not."""
    want_results, want_heap = expected(kernel, inputs)
    for name, value in want_results.items():
        if results.get(name) != value:
            return f"{kernel}: live-out {name}={results.get(name)} != {value}"
    for name, data in want_heap.items():
        got = list(heap.get(name, []))[: len(data)]
        if got != list(data):
            return f"{kernel}: array {name} = {got} != {list(data)}"
    return None

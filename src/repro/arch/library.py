"""Library of the compositions evaluated in the paper (Figs. 13 and 14).

Homogeneous meshes with 4, 6, 8, 9, 12 and 16 PEs (Section VI-B) and six
irregular / inhomogeneous 8-PE compositions A–F (Section VI-C).  Grey
PEs in the paper's figures own a DMA interface; the exact grey positions
and the A–F interconnect graphs are only shown as small figures, so we
reconstruct topologies that match the paper's *described* properties:

* B has "little interconnect available" and performs worst,
* C and D are richly connected and perform best,
* F reuses D's interconnect but only two PEs support multiplication
  ("only the black PEs support multiplication"), trading a marginal
  slowdown for a 75 % DSP reduction.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Sequence, Tuple

from repro.arch.composition import Composition
from repro.arch.description import load_composition
from repro.arch.interconnect import Interconnect
from repro.arch.pe import PEDescription

__all__ = [
    "MESH_SIZES",
    "IRREGULAR_NAMES",
    "mesh_composition",
    "irregular_composition",
    "paper_mesh_compositions",
    "paper_irregular_compositions",
    "all_paper_compositions",
    "resolve_composition",
]

#: PE counts of the paper's homogeneous meshes (Fig. 13).
MESH_SIZES: Tuple[int, ...] = (4, 6, 8, 9, 12, 16)

#: Mesh dimensions for each PE count.
_MESH_DIMS: Dict[int, Tuple[int, int]] = {
    4: (2, 2),
    6: (2, 3),
    8: (2, 4),
    9: (3, 3),
    12: (3, 4),
    16: (4, 4),
}

IRREGULAR_NAMES: Tuple[str, ...] = ("A", "B", "C", "D", "E", "F")


def _dma_positions(n: int) -> Tuple[int, ...]:
    """Spread-out DMA PEs (grey in Fig. 13), at most four per composition."""
    if n <= 4:
        return (0, n - 1)
    if n <= 6:
        return (0, n - 1)
    quarter = n // 4
    return tuple(sorted({0, quarter, n - 1 - quarter, n - 1}))[:4]


def _build(
    name: str,
    icn: Interconnect,
    *,
    dma: Sequence[int],
    mul_duration: int,
    regfile_size: int,
    no_mul: Sequence[int] = (),
    context_size: int = 256,
    cbox_slots: int = 32,
    pipelined: bool = False,
) -> Composition:
    pes: List[PEDescription] = []
    for i in range(icn.n):
        pes.append(
            PEDescription.homogeneous(
                name=f"PE{i}" + ("_mem" if i in dma else ""),
                regfile_size=regfile_size,
                has_dma=i in dma,
                mul_duration=mul_duration,
                exclude_ops=("IMUL",) if i in no_mul else (),
                pipelined=pipelined,
            )
        )
    return Composition(
        name=name,
        pes=tuple(pes),
        interconnect=icn,
        context_size=context_size,
        cbox_slots=cbox_slots,
    )


def mesh_composition(
    n_pes: int,
    *,
    mul_duration: int = 2,
    regfile_size: int = 128,
    context_size: int = 256,
    pipelined: bool = False,
) -> Composition:
    """One of the paper's homogeneous mesh compositions (Fig. 13).

    ``mul_duration=2`` is the block multiplier of Table II,
    ``mul_duration=1`` the single-cycle multiplier of Table III;
    ``pipelined=True`` models the Section-VII pipeline-stage variant.
    """
    try:
        rows, cols = _MESH_DIMS[n_pes]
    except KeyError:
        raise ValueError(
            f"no paper mesh with {n_pes} PEs; choose one of {MESH_SIZES}"
        ) from None
    icn = Interconnect.mesh(rows, cols)
    return _build(
        f"mesh{n_pes}" + ("p" if pipelined else ""),
        icn,
        dma=_dma_positions(n_pes),
        mul_duration=mul_duration,
        regfile_size=regfile_size,
        context_size=context_size,
        pipelined=pipelined,
    )


# -- Irregular 8-PE interconnects (Fig. 14 reconstructions) ----------------

def _bidir(pairs: Sequence[Tuple[int, int]], n: int = 8) -> Interconnect:
    srcs: List[set] = [set() for _ in range(n)]
    for a, b in pairs:
        srcs[a].add(b)
        srcs[b].add(a)
    return Interconnect.from_sources(srcs)


def _irregular_interconnect(name: str) -> Interconnect:
    if name == "A":
        # Ring with one chord: moderate connectivity.
        return _bidir(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (1, 5)]
        )
    if name == "B":
        # Sparse chain with a stub — "little interconnect available".
        return _bidir([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
    if name == "C":
        # 2x4 mesh enriched with diagonals.
        base = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        diag = [(0, 5), (1, 6), (2, 7), (1, 4), (2, 5), (3, 6)]
        return _bidir(base + diag)
    if name in ("D", "F"):
        # Two fully connected clusters of four, bridged twice: short
        # intra-cluster paths, the best performer of Section VI-C.
        cluster0 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        cluster1 = [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
        bridges = [(1, 4), (3, 6)]
        return _bidir(cluster0 + cluster1 + bridges)
    if name == "E":
        # Two hubs with leaves: most traffic squeezes through the hubs.
        return _bidir(
            [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4), (3, 7)]
        )
    raise ValueError(f"unknown irregular composition '{name}'")


def irregular_composition(
    name: str,
    *,
    mul_duration: int = 2,
    regfile_size: int = 128,
    context_size: int = 256,
) -> Composition:
    """One of the paper's irregular 8-PE compositions A–F (Fig. 14)."""
    name = name.upper()
    icn = _irregular_interconnect(name)
    no_mul: Tuple[int, ...] = ()
    if name == "F":
        # Only two "black" PEs keep their multiplier (Section VI-C);
        # choose one per cluster so both halves can multiply locally.
        no_mul = tuple(i for i in range(8) if i not in (1, 6))
    return _build(
        f"irregular{name}",
        icn,
        dma=(0, 7) if name != "E" else (0, 4),
        mul_duration=mul_duration,
        regfile_size=regfile_size,
        no_mul=no_mul,
        context_size=context_size,
    )


def paper_mesh_compositions(*, mul_duration: int = 2) -> Dict[int, Composition]:
    """All six Fig. 13 meshes keyed by PE count."""
    return {n: mesh_composition(n, mul_duration=mul_duration) for n in MESH_SIZES}


def paper_irregular_compositions(*, mul_duration: int = 2) -> Dict[str, Composition]:
    """All six Fig. 14 compositions keyed by letter."""
    return {
        name: irregular_composition(name, mul_duration=mul_duration)
        for name in IRREGULAR_NAMES
    }


def all_paper_compositions(*, mul_duration: int = 2) -> Dict[str, Composition]:
    """Every composition of the evaluation, keyed by its table label."""
    out: Dict[str, Composition] = {}
    for n, comp in paper_mesh_compositions(mul_duration=mul_duration).items():
        out[f"{n} PEs"] = comp
    for name, comp in paper_irregular_compositions(mul_duration=mul_duration).items():
        out[f"8 PEs {name}"] = comp
    return out


#: library name -> its composition, shared by every caller that names
#: it.  Compositions are immutable and the library names are finite
#: (``MESH_SIZES`` + ``IRREGULAR_NAMES``), so the table needs no bound.
_NAMED: Dict[str, Composition] = {}


def resolve_composition(spec: str) -> Composition:
    """A composition from a JSON file path or a library name.

    Accepts a path to a ``compositions/*.json`` file, ``mesh<N>`` for
    the Fig. 13 meshes, or ``irregular<X>`` / ``<X>`` for the Fig. 14
    irregular compositions A-F.  Equal library names return the same
    object (so its carried fingerprint is computed once per process);
    a JSON file is loaded afresh on every call, so an edited file is
    always seen.  Raises :class:`ValueError` for anything else.
    """
    if os.path.isfile(spec):
        return load_composition(spec)
    m = re.fullmatch(r"mesh(\d+)", spec)
    if m and int(m.group(1)) in MESH_SIZES:
        name = f"mesh{int(m.group(1))}"
    else:
        m = re.fullmatch(r"(?:irregular)?([A-Fa-f])", spec)
        if not (m and m.group(1).upper() in IRREGULAR_NAMES):
            raise ValueError(
                f"unknown composition {spec!r}: expected a JSON file path, "
                f"mesh{{{','.join(str(n) for n in MESH_SIZES)}}}, or "
                f"irregular{{A..F}}"
            )
        name = f"irregular{m.group(1).upper()}"
    comp = _NAMED.get(name)
    if comp is None:
        comp = (
            mesh_composition(int(name[4:]))
            if name.startswith("mesh")
            else irregular_composition(name[-1])
        )
        # concurrent first builds (thread workers) converge on one entry
        comp = _NAMED.setdefault(name, comp)
    return comp

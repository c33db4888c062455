"""Stable content fingerprints for schedule-cache keys.

A schedule is fully determined by three inputs: the kernel CDFG, the
composition, and the scheduler flags.  Each gets a *canonical* encoding
— plain JSON-serialisable structures with deterministic ordering and
**local** node numbering (``Node.id`` comes from a process-global
counter, so two structurally identical kernels built at different times
carry different raw ids; the encoder renumbers nodes in region-tree
walk order instead).  The SHA-256 over the canonical encoding is the
content address: equal digest ⇒ equal scheduling problem ⇒ the cached
schedule/contexts may be reused verbatim.

:func:`program_bytes` canonically serialises a generated
:class:`~repro.context.words.ContextProgram`; byte equality of two
programs is the determinism oracle used by ``tests/perf`` and the cache
integrity check.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.arch.cbox import CBoxFunc
from repro.arch.ccu import BranchKind
from repro.arch.composition import Composition
from repro.context.words import ContextProgram, SrcSel
from repro.ir.cdfg import Kernel
from repro.ir.nodes import Node
from repro.ir.regions import (
    BlockRegion,
    CondBin,
    CondExpr,
    CondLeaf,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)

__all__ = [
    "kernel_fingerprint",
    "composition_fingerprint",
    "flags_fingerprint",
    "schedule_cache_key",
    "program_bytes",
    "program_digest",
]


def _digest(obj: Any) -> str:
    """SHA-256 hex digest of a JSON-canonicalised structure."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def _var_names(kernel: Kernel) -> Dict[str, str]:
    """Canonical variable names: interface names verbatim, temps renumbered.

    Frontend-generated temporaries carry a process-unique suffix
    (``__t3_7696``), so raw names would make structurally equal kernels
    hash differently.  Params/results keep their real names (the
    simulator resolves live-in/live-out by name, so they are part of
    the problem identity); every other variable is renamed ``%k`` in
    first-appearance walk order.  ``%`` cannot occur in a real
    identifier, so canonical names never collide with interface names.
    """
    names: Dict[str, str] = {}
    for v in list(kernel.params) + list(kernel.results):
        names.setdefault(v.name, v.name)
    for node in kernel.nodes():
        if node.var is not None:
            names.setdefault(node.var.name, f"%{len(names)}")
    for name in kernel.variables:
        names.setdefault(name, f"%{len(names)}")
    return names


def _encode_node(
    node: Node, local: Dict[int, int], names: Dict[str, str]
) -> List[Any]:
    return [
        node.opcode,
        names[node.var.name] if node.var is not None else None,
        [node.array.name, node.array.handle] if node.array is not None else None,
        node.value,
        [local[op.id] for op in node.operands],
        [local[dep.id] for dep in node.deps],
    ]


def _encode_cond(cond: CondExpr, local: Dict[int, int]) -> List[Any]:
    if isinstance(cond, CondLeaf):
        return ["leaf", local[cond.node.id], cond.negate]
    if isinstance(cond, CondBin):
        return [
            cond.op,
            _encode_cond(cond.left, local),
            _encode_cond(cond.right, local),
        ]
    raise TypeError(f"unknown condition {type(cond).__name__}")


def _encode_region(
    region: Region, local: Dict[int, int], names: Dict[str, str]
) -> List[Any]:
    if isinstance(region, BlockRegion):
        return [
            "block",
            [_encode_node(n, local, names) for n in region.node_list],
        ]
    if isinstance(region, SeqRegion):
        return [
            "seq", [_encode_region(r, local, names) for r in region.items]
        ]
    if isinstance(region, IfRegion):
        return [
            "if",
            _encode_cond(region.cond, local),
            _encode_region(region.cond_block, local, names),
            _encode_region(region.then_body, local, names),
            _encode_region(region.else_body, local, names),
        ]
    if isinstance(region, LoopRegion):
        return [
            "loop",
            _encode_cond(region.cond, local),
            _encode_region(region.header, local, names),
            _encode_region(region.body, local, names),
        ]
    raise TypeError(f"unknown region {type(region).__name__}")


def _encode_kernel(kernel: Kernel) -> List[Any]:
    # renumber nodes in deterministic walk order: two structurally equal
    # kernels encode identically regardless of global Node.id state
    local: Dict[int, int] = {}
    for node in kernel.nodes():
        local.setdefault(node.id, len(local))
    names = _var_names(kernel)
    return [
        kernel.name,
        [[v.name, v.is_param, v.is_result] for v in kernel.params],
        [[v.name, v.is_param, v.is_result] for v in kernel.results],
        [[a.name, a.handle] for a in kernel.arrays],
        sorted(
            [names[name], v.is_param, v.is_result]
            for name, v in kernel.variables.items()
        ),
        _encode_region(kernel.body, local, names),
    ]


def kernel_fingerprint(kernel: Kernel) -> str:
    """Content digest of a kernel's CDFG (structure, not object ids)."""
    return _digest(_encode_kernel(kernel))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _encode_composition(comp: Composition) -> List[Any]:
    pes = []
    for pe in comp.pes:
        ops = sorted(
            [op, cost.duration, cost.energy] for op, cost in pe.ops.items()
        )
        pes.append(
            [pe.name, pe.regfile_size, pe.has_dma, pe.pipelined, ops]
        )
    return [
        comp.name,
        pes,
        [list(row) for row in comp.interconnect.sources],
        comp.context_size,
        comp.cbox_slots,
    ]


def composition_fingerprint(comp: Composition) -> str:
    """Content digest of a composition (PEs, interconnect, memories).

    A composition is immutable, so the digest is computed once and kept
    on the object (like ``Interconnect``'s ``_floyd_cache``).  It lives
    outside the dataclass fields: ``==``, ``hash``, ``repr`` and
    :func:`_encode_composition` never see it, ``dataclasses.replace``
    drops it, and default pickling carries it to pool workers.
    """
    digest = comp.__dict__.get("_fingerprint")
    if digest is None:
        digest = _digest(_encode_composition(comp))
        object.__setattr__(comp, "_fingerprint", digest)
    return digest


# ---------------------------------------------------------------------------
# Flags and combined key
# ---------------------------------------------------------------------------


def flags_fingerprint(**flags: Any) -> str:
    """Digest of scheduler/pipeline flags (kwargs, order-insensitive)."""
    return _digest(sorted([k, repr(v)] for k, v in flags.items()))


def schedule_cache_key(
    kernel: Kernel,
    comp: Composition,
    *,
    kernel_fp: Optional[str] = None,
    **flags: Any,
) -> str:
    """The content address of one scheduling problem.

    ``kernel_fp`` is ``kernel_fingerprint(kernel)`` when the caller
    already holds it; the CDFG is hashed only when it is not given.
    """
    return _digest(
        [
            kernel_fp if kernel_fp is not None else kernel_fingerprint(kernel),
            composition_fingerprint(comp),
            flags_fingerprint(**flags),
        ]
    )


# ---------------------------------------------------------------------------
# Context-program serialisation (the determinism oracle)
# ---------------------------------------------------------------------------


def program_bytes(program: ContextProgram) -> bytes:
    """Canonical byte serialisation of a generated context program.

    Two programs are *the same schedule* iff their ``program_bytes``
    are equal: the encoding covers every context entry (PE, C-Box,
    CCU), the live-in/live-out placements (sorted by variable name, so
    object identity and dict insertion order cannot leak in), the RF
    occupancy, and the referenced arrays.  Each entry is written as the
    text of its dataclass ``repr``, built field by field: the generated
    ``__repr__`` passes through a recursion guard on every call.
    """
    lines: List[str] = [
        f"{program.kernel_name} on {program.composition_name}",
        f"cycles={program.n_cycles}",
        "livein="
        + repr(
            sorted(
                (v.name, loc) for v, loc in program.livein_map.items()
            )
        ),
        "liveout="
        + repr(
            sorted(
                (v.name, loc) for v, loc in program.liveout_map.items()
            )
        ),
        f"rf_used={program.rf_used!r}",
        f"cbox_slots_used={program.cbox_slots_used}",
        "arrays="
        + repr(sorted((a.name, a.handle) for a in program.arrays)),
    ]
    for pe, rows in enumerate(program.pe_contexts):
        for cycle, e in enumerate(rows):
            if e is not None:
                lines.append(
                    f"pe{pe}@{cycle}: PEContext(opcode={e.opcode!r}, "
                    f"srcs={_srcs_text(e.srcs)}, dest_slot={e.dest_slot!r}, "
                    f"predicated={e.predicated!r}, out_addr={e.out_addr!r}, "
                    f"immediate={e.immediate!r}, duration={e.duration!r})"
                )
    for cycle, cb in enumerate(program.cbox_contexts):
        if cb is not None:
            lines.append(
                f"cbox@{cycle}: CBoxOp(status_pe={cb.status_pe!r}, "
                f"func={_ENUM_TEXT[cb.func]}, read_pos={cb.read_pos!r}, "
                f"read_neg={cb.read_neg!r}, write_pos={cb.write_pos!r}, "
                f"write_neg={cb.write_neg!r}, out_pe_slot={cb.out_pe_slot!r}, "
                f"out_ctrl_slot={cb.out_ctrl_slot!r})"
            )
    for cycle, ccu in enumerate(program.ccu_contexts):
        lines.append(
            f"ccu@{cycle}: CCUEntry(kind={_ENUM_TEXT[ccu.kind]}, "
            f"target={ccu.target!r})"
        )
    return "\n".join(lines).encode("utf-8")


#: ``repr`` of every enum member (and ``None``) an entry field can hold
_ENUM_TEXT = {None: "None", **{m: repr(m) for m in (*CBoxFunc, *BranchKind)}}


def _srcs_text(srcs: Tuple[SrcSel, ...]) -> str:
    """``repr(srcs)`` for a tuple of operand selectors."""
    if not srcs:
        return "()"
    inner = ", ".join([f"SrcSel(pe={s.pe!r}, slot={s.slot!r})" for s in srcs])
    return f"({inner},)" if len(srcs) == 1 else f"({inner})"


def program_digest(program: Optional[ContextProgram]) -> Optional[str]:
    """SHA-256 hex digest of :func:`program_bytes` (None passes through)."""
    if program is None:
        return None
    return hashlib.sha256(program_bytes(program)).hexdigest()

"""Kernel-only scheduling work is done once per kernel, and safely.

A kernel carries its validation, its opcode set and its superblock
skeletons (:meth:`repro.ir.cdfg.Kernel.facts`); every composition and
scheduler mode binds the same skeletons.  These tests pin that:

* a skeleton is never changed by the schedules that use it, and those
  schedules stay byte-identical;
* the carried facts go when the kernel changes shape in place (CSE,
  unrolling, a hand edit) and die with the kernel;
* the eligible-PE lists are shared by content-equal compositions only.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.arch.library import all_paper_compositions, mesh_composition
from repro.context.generator import generate_contexts
from repro.eval.tables import adpcm_kernel
from repro.ir.builder import KernelBuilder
from repro.ir.cdfg import ValidationError
from repro.ir.transform import eliminate_common_subexpressions, unroll_inner_loops
from repro.kernels.adpcm import build_decoder_kernel
from repro.perf.fingerprint import program_bytes
from repro.sched.scheduler import RegionScheduler, schedule_kernel
from repro.sched.superblock import SBItem, Skeleton, Superblock
from repro.verify.workloads import get_workload

COMPOSITIONS = list(all_paper_compositions().values())
MODES = ("list", "modulo", "auto")
COMP = mesh_composition(4)


def _program(kernel, comp, mode="list"):
    schedule = schedule_kernel(kernel, comp, scheduler_mode=mode)
    return program_bytes(generate_contexts(schedule, comp, kernel))


def _grid(kernel, order=1):
    """Program bytes (or the error's type) of every composition x mode
    cell, visited in ``order`` (1 or -1)."""
    out = {}
    for comp in COMPOSITIONS[::order]:
        for mode in MODES[::order]:
            try:
                out[comp.name, mode] = _program(kernel, comp, mode)
            except Exception as exc:
                out[comp.name, mode] = type(exc).__name__
    return out


def _snapshot(memo):
    """Every field of every skeleton, copied out of the shared objects."""
    return {
        (tuple(map(id, regions)), plain): (
            list(sk.conds),
            [
                (
                    key,
                    item.node,
                    item.pred,
                    item.operands,
                    item.deps,
                    item.dest_var,
                    item.fused_write,
                    item.cond_step,
                    item.priority,
                )
                for key, item in sk.items.items()
            ],
            dict(sk.fused_writes),
            {
                shape: (dict(prio), {k: list(v) for k, v in succs.items()})
                for shape, (prio, succs) in sk.ranks.items()
            },
        )
        for (regions, plain), sk in memo.items()
    }


@pytest.mark.parametrize("name", ("gcd", "sort", "adpcm"))
def test_shared_skeletons_are_unchanged_by_use(name):
    kernel = get_workload(name).build()
    first = _grid(kernel)  # builds every skeleton and chain ranking
    memo = kernel.facts().memo
    assert memo and all(isinstance(sk, Skeleton) for sk in memo.values())
    before = _snapshot(memo)
    # the other way round: each skeleton is bound last under other pair
    # numbers than before, which a skeleton changed by binding would show
    assert _grid(kernel, order=-1) == first
    assert kernel.facts().memo is memo
    assert _snapshot(memo) == before


def test_in_place_transforms_reschedule_like_a_fresh_kernel():
    kernel = build_decoder_kernel()
    for mode in MODES:
        _program(kernel, COMP, mode)
    eliminate_common_subexpressions(kernel)
    fresh = build_decoder_kernel()
    eliminate_common_subexpressions(fresh)
    for mode in MODES:
        assert _program(kernel, COMP, mode) == _program(fresh, COMP, mode), mode
    unroll_inner_loops(kernel, 2)
    fresh = adpcm_kernel(unroll=2)
    for mode in MODES:
        assert _program(kernel, COMP, mode) == _program(fresh, COMP, mode), mode


def test_cse_in_place_drops_stale_skeletons():
    """CSE merges the two equal IADDs, so the sum now has two consumers
    and can no longer be fused into either write: a skeleton kept from
    before would still place two fused IADDs."""

    def build():
        kb = KernelBuilder("twice")
        a, b = kb.param("a"), kb.param("b")
        p, q = kb.local("p"), kb.local("q")
        kb.write(p, kb.binop("IADD", kb.read(a), kb.read(b)))
        kb.write(q, kb.binop("IADD", kb.read(a), kb.read(b)))
        return kb.finish(results=[p, q])

    kernel = build()
    before = _program(kernel, COMP)
    assert eliminate_common_subexpressions(kernel) > 0
    fresh = build()
    eliminate_common_subexpressions(fresh)
    assert _program(kernel, COMP) == _program(fresh, COMP) != before


def test_kernel_made_invalid_after_validation_still_raises():
    kernel = get_workload("gcd").build()
    schedule_kernel(kernel, COMP)
    blocks = list(kernel.blocks())
    # the same node now lives in two blocks
    blocks[-1].node_list.append(blocks[0].node_list[0])
    with pytest.raises(ValidationError, match="appears in two blocks"):
        schedule_kernel(kernel, COMP)


def test_facts_are_carried_until_validate():
    kernel = get_workload("fir").build()
    facts = kernel.facts()
    assert kernel.facts() is facts
    assert facts.alu_opcodes == kernel.used_alu_opcodes()
    schedule_kernel(kernel, COMP)
    assert kernel.facts() is facts and facts.memo
    kernel.validate()  # the hook after an in-place edit of a node
    assert kernel.facts() is not facts


def _live_superblock_objects():
    return sum(
        isinstance(o, (Superblock, SBItem, Skeleton)) for o in gc.get_objects()
    )


def test_dropped_kernels_leave_no_superblocks():
    names = ("gcd", "sort", "fir", "histogram")
    schedule_kernel(get_workload("gcd").build(), COMP)  # import-time state
    gc.collect()
    # kernels other tests share (the job layer's lowered kernels) keep
    # their own skeletons alive
    before = _live_superblock_objects()
    gc.disable()
    try:
        for i in range(20):
            kernel = get_workload(names[i % len(names)]).build()
            for mode in MODES:
                schedule_kernel(kernel, COMP, scheduler_mode=mode)
            assert kernel.facts().memo
            del kernel
        after = _live_superblock_objects()
    finally:
        gc.enable()
    assert after == before


def test_pe_lists_are_shared_by_equal_compositions_only():
    kernel = get_workload("gcd").build()
    twin = dataclasses.replace(COMP)  # equal content, another object
    assert twin is not COMP
    assert (
        RegionScheduler(kernel, twin)._pe_base
        is RegionScheduler(kernel, COMP)._pe_base
    )
    other = mesh_composition(6)
    assert (
        RegionScheduler(kernel, other)._pe_base
        is not RegionScheduler(kernel, COMP)._pe_base
    )

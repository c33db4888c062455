"""The modulo II search skips only work it can prove is wasted.

* A bounded placement attempt whose critical path cannot meet its
  deadline aborts before probing a single PE; with a reachable deadline
  it places exactly what the unbounded list placement places.
* A loop that falls back to the list strategy after trying N IIs still
  reports those N attempts in ``sched.modulo.attempts``.
* Raising the II in place gives exactly what rolling back and replaying
  every II gives; replay still happens when a probe missed the deadline.
"""

import dataclasses

import pytest

from repro import obs
from repro.arch.library import (
    all_paper_compositions,
    irregular_composition,
    mesh_composition,
)
from repro.arch.operations import OpCost
from repro.ir.builder import KernelBuilder
from repro.sched import modulo
from repro.sched.modulo import compute_mii
from repro.sched.schedule import SchedulingError
from repro.sched.scheduler import RegionScheduler, schedule_kernel
from repro.sched.superblock import build_superblock
from repro.verify.workloads import get_workload

COMP = mesh_composition(4)


def chain_kernel():
    """``a = ((a + b) * c + d) * c``: one dependence chain, no branches."""
    kb = KernelBuilder("chain")
    a, b, c, d = (kb.param(n) for n in "abcd")
    v = kb.binop("IADD", kb.read(a), kb.read(b))
    v = kb.binop("IMUL", v, kb.read(c))
    v = kb.binop("IADD", v, kb.read(d))
    v = kb.binop("IMUL", v, kb.read(c))
    kb.write(a, v)
    return kb.finish(results=[a])


def _place(kernel, metrics, deadline_offset=None):
    """Place the kernel's only superblock; ``deadline_offset`` bounds it
    at ``frontier + offset`` the way one modulo II attempt does."""
    with obs.observe(metrics=metrics):
        sched = RegionScheduler(kernel, COMP)
        sb = build_superblock(list(kernel.body.items), None, sched.planner)
        bounds = compute_mii(sched, sb)
        if deadline_offset is not None:
            sched._deadline = sched.frontier + deadline_offset
            sched._deadline_tails = bounds.tails
        sched._place_superblock(sb)
    return sched, bounds


def test_chain_path_bound_sums_min_durations():
    _, bounds = _place(chain_kernel(), obs.MetricsRegistry())
    # IADD (1) -> IMUL (2) -> IADD (1) -> IMUL (2), fused write included
    assert bounds.path_mii == 6
    assert max(bounds.tails.values()) == bounds.path_mii


def test_unreachable_deadline_aborts_before_any_probe():
    kernel = chain_kernel()
    _, bounds = _place(kernel, obs.MetricsRegistry())
    metrics = obs.MetricsRegistry()
    with pytest.raises(SchedulingError, match="out of reach at cycle 0"):
        _place(kernel, metrics, deadline_offset=bounds.path_mii - 2)
    assert metrics.counter_total("sched.placement.attempts") == 0


def test_reachable_deadline_places_like_the_unbounded_list():
    kernel = chain_kernel()
    free, bounds = _place(kernel, obs.MetricsRegistry())
    span = free.frontier
    assert span >= bounds.path_mii
    # the tightest deadline the unbounded placement itself meets
    metrics = obs.MetricsRegistry()
    bounded, _ = _place(kernel, metrics, deadline_offset=span - 1)
    assert bounded.res.ops == free.res.ops
    assert bounded.frontier == free.frontier
    assert metrics.counter_total("sched.placement.attempts") > 0


def test_fallback_attempts_are_counted():
    # adpcm on irregularB: auto tries several IIs, none beats the list
    # iteration span, and the loop falls back to the list strategy
    kernel = get_workload("adpcm").build()
    comp = irregular_composition("B")
    with obs.observe() as session:
        schedule = schedule_kernel(kernel, comp, scheduler_mode="auto")
    assert not schedule.modulo_loops
    metrics = session.metrics
    assert metrics.counter_total("sched.modulo.fallback") == 1
    (event,) = [
        r
        for r in session.tracer.records
        if r.get("name") == "sched.modulo.fallback"
    ]
    attempts = event["args"]["attempts"]
    assert attempts >= 1
    assert metrics.counter_total("sched.modulo.attempts") == attempts


# -- in-place II raise vs rollback and replay --------------------------------

PIPELINEABLE = ("dotp", "sort", "crc32", "histogram", "matmul", "fir")


def _schedule(kernel, comp, mode, *, replay=False):
    """Schedule with metrics and trace on; ``replay`` declines every
    in-place raise, so each II is a fresh attempt from the checkpoint."""
    with pytest.MonkeyPatch.context() as mp:
        if replay:
            mp.setattr(modulo._IISearch, "raise_to", lambda self, reach, cycle: None)
        with obs.observe() as session:
            schedule = schedule_kernel(kernel, comp, scheduler_mode=mode)
    return schedule, session


def _assert_same(a, b):
    assert a.ops == b.ops
    assert a.n_cycles == b.n_cycles
    assert a.modulo_loops == b.modulo_loops


@pytest.mark.parametrize("mode", ["modulo", "auto"])
@pytest.mark.parametrize("wname", PIPELINEABLE)
def test_in_place_raise_equals_replaying_every_ii(wname, mode):
    kernel = get_workload(wname).build()
    for comp in all_paper_compositions().values():
        fast, _ = _schedule(kernel, comp, mode)
        replayed, _ = _schedule(kernel, comp, mode, replay=True)
        _assert_same(fast, replayed)


def test_crc32_mesh8_raises_without_rollback():
    kernel = get_workload("crc32").build()
    comp = mesh_composition(8)
    schedule, session = _schedule(kernel, comp, "modulo")
    (info,) = schedule.modulo_loops
    mii = max(info.res_mii, info.rec_mii, info.path_mii)
    assert info.attempts == 5 and info.ii == mii + 4
    assert session.metrics.counter_total("sched.checkpoint.rollbacks") == 0
    # the trace still shows every II tried, as a chain of raises
    raises = [
        r["args"]
        for r in session.tracer.records
        if r.get("name") == "sched.modulo.raise"
    ]
    assert raises[0]["from_ii"] == mii and raises[-1]["to_ii"] == info.ii
    for prev, nxt in zip(raises, raises[1:]):
        assert nxt["from_ii"] == prev["to_ii"]
    _, replay_session = _schedule(kernel, comp, "modulo", replay=True)
    assert replay_session.metrics.counter_total("sched.checkpoint.rollbacks") == 4


def _slow_even_multipliers():
    """irregularB whose even PEs multiply in 4 cycles, the odd ones in 2."""
    comp = irregular_composition("B")
    pes = tuple(
        dataclasses.replace(pe, ops={**pe.ops, "IMUL": OpCost(pe.ops["IMUL"].energy, 4)})
        if i % 2 == 0
        else pe
        for i, pe in enumerate(comp.pes)
    )
    return dataclasses.replace(comp, pes=pes, name="irregularB-imul4")


@pytest.mark.parametrize("wname", ["dotp", "matmul"])
def test_deadline_rejection_falls_back_to_replay(wname):
    # a probe on a slow multiplier can miss the deadline where a fast
    # one would not: the placements so far depend on the deadline, so
    # the next II replays them from the checkpoint
    kernel = get_workload(wname).build()
    comp = _slow_even_multipliers()
    schedule, session = _schedule(kernel, comp, "modulo")
    metrics = session.metrics
    assert metrics.counter_value("sched.placement.rejected", reason="deadline") > 0
    assert metrics.counter_total("sched.checkpoint.rollbacks") >= 1
    replayed, _ = _schedule(kernel, comp, "modulo", replay=True)
    _assert_same(schedule, replayed)

"""Property-based invariants of the modulo scheduler (Hypothesis).

Random kernels (the same generator as the baseline-vs-CGRA differential
suite) pin two guarantees of the II search and the auto strategy:

* every software-pipelined loop achieves
  ``II >= max(ResMII, RecMII, PathMII)`` — the search never reports an
  II below its own lower bounds, the recorded bounds are positive and
  self-consistent, and the search tried exactly the IIs from its bound
  up to the achieved one (none below, none skipped);
* ``auto`` mode never schedules worse than pure list mode: its probe
  keeps the modulo realisation only when the achieved II undercuts the
  list iteration span, so simulated cycles can only improve — and the
  results stay bit-equal.
"""

import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch.library import mesh_composition
from repro.sched.schedule import SchedulingError
from repro.sched.scheduler import schedule_kernel
from repro.sim.invocation import invoke_kernel

from ..integration.kernelgen import ARRAY_LEN, VARS, lower, programs

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "60"))

COMP = mesh_composition(4, context_size=2048)

_SETTINGS = dict(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.differing_executors,
    ],
)


@given(program=programs)
@settings(**_SETTINGS)
def test_achieved_ii_at_least_mii(program):
    kernel, _arr = lower(program)
    try:
        schedule = schedule_kernel(kernel, COMP, scheduler_mode="modulo")
    except SchedulingError as exc:
        # a capacity-limited example is not a modulo property; any other
        # scheduling failure is a bug
        assume("overflow" not in str(exc))
        raise
    for info in schedule.modulo_loops:
        assert info.res_mii >= 1
        assert info.rec_mii >= 0
        assert info.path_mii >= 1
        mii = max(info.res_mii, info.rec_mii, info.path_mii)
        assert info.mii == mii
        assert info.ii >= mii, (
            f"achieved II {info.ii} below MII max({info.res_mii}, "
            f"{info.rec_mii}, {info.path_mii})"
        )
        # the search starts at its bound and stops at the first success
        assert info.attempts == info.ii - mii + 1
        # the steady-state kernel really spans II contexts
        assert info.kernel_end - info.kernel_start + 1 == info.ii


@given(
    program=programs,
    inputs=st.tuples(*(st.integers(-100, 100) for _ in VARS)),
    seed=st.integers(0, 2**16),
)
@settings(**_SETTINGS)
def test_auto_never_worse_than_list(program, inputs, seed):
    kernel, arr = lower(program)
    livein = dict(zip(VARS, inputs))
    initial = [((seed * (i + 3)) % 201) - 100 for i in range(ARRAY_LEN)]
    try:
        s_list = schedule_kernel(kernel, COMP)
        s_auto = schedule_kernel(kernel, COMP, scheduler_mode="auto")
        # Context generation can still fail on a fixed hardware resource
        # (C-Box condition memory, register files) even when placement
        # succeeded — a pipelined loop carries lifetimes across the II
        # boundary that the list realisation releases earlier.  Like the
        # baseline differential suite, reject capacity-limited examples
        # instead of shrinking onto an uninformative resource wall.
        ref = invoke_kernel(
            kernel, COMP, livein, {"arr": list(initial)}, schedule=s_list
        )
        got = invoke_kernel(
            kernel, COMP, livein, {"arr": list(initial)}, schedule=s_auto
        )
    except SchedulingError as exc:
        assume("overflow" not in str(exc))
        raise
    assert got.results == ref.results
    assert got.heap.array(arr.handle) == ref.heap.array(arr.handle)
    assert got.run_cycles <= ref.run_cycles, (
        f"auto {got.run_cycles} cycles > list {ref.run_cycles} "
        f"({len(s_auto.modulo_loops)} pipelined loops)"
    )


def test_auto_keeps_the_list_homes():
    """Regression: the inner loop's rotated form homed ``v0`` on another
    PE than its list form.  The outer loop never runs, yet the write of
    ``v0`` after it needed a fresh constant on the new home and cost one
    cycle; auto must keep the list realisation there."""
    inner = [
        (
            "assign",
            "v0",
            ("bin", "IADD", ("const", -2),
             ("bin", "IADD", ("const", 0), ("const", -1))),
        )
    ]
    program = [
        ("dynwhile", "v1", 2, [("loop", 1, inner)]),
        ("assign", "v0", ("const", 0)),
    ]
    kernel, arr = lower(program)
    livein = dict.fromkeys(VARS, 0)
    initial = [-100] * ARRAY_LEN
    s_list = schedule_kernel(kernel, COMP)
    s_auto = schedule_kernel(kernel, COMP, scheduler_mode="auto")
    ref = invoke_kernel(
        kernel, COMP, livein, {"arr": list(initial)}, schedule=s_list
    )
    got = invoke_kernel(
        kernel, COMP, livein, {"arr": list(initial)}, schedule=s_auto
    )
    assert got.results == ref.results
    assert got.run_cycles <= ref.run_cycles
    assert {v: s_auto.home_of(v)[0] for v in s_auto.var_homes} == {
        v: s_list.home_of(v)[0] for v in s_list.var_homes
    }

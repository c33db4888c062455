"""The resolve memo shares one lowered kernel across jobs: prove it safe.

:func:`~repro.serve.jobs.resolve_workload` lowers each built-in workload
once per process and hands the same kernel object to every job.  That is
only sound if nothing downstream mutates a kernel, and if each job still
gets its own inputs.  These tests pin both.
"""

from __future__ import annotations

import copy

import pytest

from repro.arch.library import all_paper_compositions, mesh_composition
from repro.context.generator import generate_contexts
from repro.eval.tables import adpcm_kernel
from repro.obs import MetricsRegistry, set_metrics
from repro.perf.cache import ScheduleCache
from repro.perf.fingerprint import kernel_fingerprint, program_bytes
from repro.sched.scheduler import schedule_kernel
from repro.serve.jobs import (
    _EXTRA_WORKLOADS,
    JobSpec,
    ResolvedJob,
    execute_job,
    register_workload,
    resolve_workload,
)
from repro.sim.invocation import invoke_kernel
from repro.verify.workloads import WORKLOADS, get_workload

COMPOSITIONS = list(all_paper_compositions().values())
MODES = ("list", "modulo", "auto")
#: the default 416-sample ADPCM stream is needlessly long here
PARAMS = {"adpcm": (("n_samples", 16),)}


def _spec(name, comp=None, **kw):
    return JobSpec(
        workload=name,
        composition=comp if comp is not None else mesh_composition(4),
        params=PARAMS.get(name, ()),
        **kw,
    )


def _fresh_kernel(name):
    return adpcm_kernel() if name == "adpcm" else get_workload(name).build()


@pytest.mark.parametrize("name", WORKLOADS)
def test_pipeline_never_mutates_the_shared_kernel(name):
    job = resolve_workload(_spec(name))
    before = kernel_fingerprint(job.kernel)
    runs = 0
    for comp in COMPOSITIONS:
        for mode in MODES:
            fresh = resolve_workload(_spec(name, comp))
            assert fresh.kernel is job.kernel
            schedule = schedule_kernel(
                fresh.kernel, comp, scheduler_mode=mode
            )
            program = generate_contexts(schedule, comp, fresh.kernel)
            invoke_kernel(
                fresh.kernel, comp, fresh.livein, fresh.arrays,
                program=program,
            )
            assert kernel_fingerprint(job.kernel) == before, (
                f"{name} on {comp.name} ({mode}) mutated the kernel"
            )
            runs += 1
    assert runs == len(COMPOSITIONS) * len(MODES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_shared_kernel_schedules_like_a_fresh_one(name):
    comp = mesh_composition(6)
    for _ in range(2):  # other jobs use the shared kernel first
        execute_job(_spec(name, comp, scheduler_mode="modulo"))
    shared = resolve_workload(_spec(name, comp)).kernel
    fresh = _fresh_kernel(name)
    assert fresh is not shared
    for mode in MODES:
        got = generate_contexts(
            schedule_kernel(shared, comp, scheduler_mode=mode), comp, shared
        )
        want = generate_contexts(
            schedule_kernel(fresh, comp, scheduler_mode=mode), comp, fresh
        )
        assert program_bytes(got) == program_bytes(want), (name, mode)


@pytest.mark.parametrize("name", WORKLOADS)
def test_job_carries_the_kernels_fingerprint(name):
    job = resolve_workload(_spec(name))
    assert job.fingerprint == kernel_fingerprint(job.kernel)
    assert job.fingerprint == kernel_fingerprint(_fresh_kernel(name))


@pytest.mark.parametrize("name", ("gcd", "dotp", "adpcm"))
def test_per_job_inputs_are_fresh_copies(name):
    first = resolve_workload(_spec(name))
    want = copy.deepcopy((first.livein, first.arrays, first.expect))
    for key in first.livein:
        first.livein[key] += 1
    for data in first.arrays.values():
        data.append(7)
        if data:
            data[0] ^= 1
    if first.expect is not None:
        first.expect[1].append(7)
    again = resolve_workload(_spec(name))
    assert again.kernel is first.kernel
    assert (again.livein, again.arrays, again.expect) == want


def test_default_input_adpcm_job_keeps_its_oracle():
    result = execute_job(_spec("adpcm"))
    assert result.correct is True
    # an explicit input set drops the oracle but still runs
    arrays = resolve_workload(_spec("adpcm")).arrays
    spec = _spec("adpcm", arrays=JobSpec.freeze_arrays(arrays))
    assert resolve_workload(spec).expect is None
    assert execute_job(spec).heap == result.heap


def test_partial_array_override_keeps_the_other_defaults():
    default = resolve_workload(_spec("adpcm"))
    spec = _spec("adpcm", arrays=(("outp", (0,) * 16),))
    job = resolve_workload(spec)
    assert job.arrays == default.arrays
    assert job.expect is None


def test_registered_builder_runs_on_every_job():
    calls = []
    wl = get_workload("gcd")

    def builder(params):
        calls.append(params)
        return ResolvedJob(
            kernel=wl.build(),
            livein=dict(wl.vectors[0].livein),
            arrays={},
        )

    register_workload("counted-gcd", builder)
    try:
        cache = ScheduleCache()
        for _ in range(3):
            execute_job(_spec("counted-gcd"), cache=cache)
        assert len(calls) == 3
        assert cache.stats()["hits"] == 2
    finally:
        _EXTRA_WORKLOADS.pop("counted-gcd", None)


def test_memo_counters_and_cached_digest():
    resolve_workload(_spec("gcd"))  # warm
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        cache = ScheduleCache()
        direct = execute_job(_spec("gcd"))
        first = execute_job(_spec("gcd"), cache=cache)
        second = execute_job(_spec("gcd"), cache=cache)
    finally:
        set_metrics(previous)
    assert registry.counter_total("jobs.resolve.memo.hit") == 3
    assert registry.counter_total("jobs.resolve.memo.miss") == 0
    assert (first.cache_hit, second.cache_hit) == (False, True)
    assert direct.program_digest == first.program_digest
    assert second.program_digest == first.program_digest

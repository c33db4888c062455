"""Reusable job layer: spec, executor and result envelope.

One *job* is one trip through the pipeline — resolve a named workload
to a kernel, schedule it onto a composition (through the shared
content-addressed :class:`~repro.perf.cache.ScheduleCache` when
enabled), generate contexts, simulate one invocation — packaged so the
same code path serves three callers:

* the grid evaluator (:func:`repro.eval.tables.run_grid`) fans
  :func:`execute_job` out over a :class:`~repro.perf.parallel.ParallelEvaluator`;
* the scheduling server (:mod:`repro.serve.server`) submits specs to
  its warm worker pool one request at a time;
* tests and benchmarks call :func:`execute_job` directly.

A :class:`JobSpec` is picklable (pool workers rebuild the kernel from
the workload registry — kernels themselves never cross the process
boundary) and *content-addressed*: :meth:`JobSpec.fingerprint` digests
the canonical spec via :mod:`repro.perf.fingerprint`, which is what the
server's single-flight dedupe keys on.  Equal fingerprints ⇒ equal
jobs ⇒ byte-identical :class:`JobResult` (same ``program_digest``,
cycles, energy, live-outs — see ``tests/serve/test_differential.py``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.arch.composition import Composition
from repro.arch.operations import energy_units
from repro.context.generator import generate_contexts
from repro.ir.cdfg import Kernel
from repro.obs import get_metrics
from repro.obs.ledger import get_ledger, pipeline_record
from repro.obs.timing import timed
from repro.perf.cache import ScheduleCache, shared_cache
from repro.perf.fingerprint import (
    composition_fingerprint,
    kernel_fingerprint,
    program_digest,
)
from repro.sched.scheduler import schedule_kernel
from repro.sched.strategy import DEFAULT_SCHEDULER_MODE, validate_scheduler_mode
from repro.sim.invocation import invoke_kernel
from repro.sim.machine import DEFAULT_MAX_CYCLES
from repro.verify import verify_enabled

__all__ = [
    "JobSpec",
    "JobResult",
    "ResolvedJob",
    "execute_job",
    "register_workload",
    "resolve_workload",
    "job_payload",
]

#: cache-format tag for programs cached through the jobs layer (bump to
#: invalidate cached programs when their format changes; shared with
#: the historical ``repro.eval.tables.CACHE_FORMAT``)
CACHE_FORMAT = 1

#: grid/server jobs simulate on the AOT-compiled backend by default
DEFAULT_SIM_BACKEND = "compiled"


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of work, picklable and content-addressed.

    ``livein``/``arrays`` of ``None`` mean "use the workload's default
    input vector"; ``params`` are workload-builder parameters (the
    ADPCM grid workload takes ``n_samples``/``unroll``).  All mapping
    fields are stored as sorted tuples so equal content compares (and
    pickles, and fingerprints) equal.
    """

    workload: str
    composition: Composition
    label: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()
    livein: Optional[Tuple[Tuple[str, int], ...]] = None
    arrays: Optional[Tuple[Tuple[str, Tuple[int, ...]], ...]] = None
    backend: str = DEFAULT_SIM_BACKEND
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: scheduling strategy selector ("list" | "modulo" | "auto");
    #: result-relevant, so it MUST enter :meth:`fingerprint` and the
    #: schedule-cache key — a cached list-mode program must never
    #: satisfy a modulo-mode request
    scheduler_mode: str = DEFAULT_SCHEDULER_MODE
    #: route scheduling through :func:`repro.perf.cache.shared_cache`
    cached: bool = False
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    #: ledger record kind for this job ("grid.cell" for the grid
    #: evaluator, "serve.job" for server-executed jobs)
    ledger_kind: str = "grid.cell"

    @staticmethod
    def freeze_livein(livein: Optional[Mapping[str, int]]):
        if livein is None:
            return None
        return tuple(sorted(livein.items()))

    @staticmethod
    def freeze_arrays(arrays: Optional[Mapping[str, Any]]):
        if arrays is None:
            return None
        return tuple(
            sorted((name, tuple(data)) for name, data in arrays.items())
        )

    def fingerprint(self) -> str:
        """Content address of this job (the single-flight/dedupe key).

        Covers everything that can change the result: workload name +
        build params, composition content (via
        :func:`~repro.perf.fingerprint.composition_fingerprint`),
        explicit inputs, backend and cycle bound.  Cache routing knobs
        (``cached``/``cache_dir``/…) and the display ``label`` are
        excluded — they change *how* the result is computed, never the
        result itself.
        """
        payload = json.dumps(
            [
                self.workload,
                sorted([k, repr(v)] for k, v in self.params),
                composition_fingerprint(self.composition),
                self.livein,
                self.arrays,
                self.backend,
                self.max_cycles,
                self.scheduler_mode,
            ],
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class JobResult:
    """Everything a caller may want back from one executed job.

    The determinism-relevant signature is (``program_digest``,
    ``run_cycles``, ``energy_units``, ``results``, ``heap``): equal
    specs must produce equal signatures whether the job ran serially,
    in a pool worker, or behind the server (the differential suite's
    oracle).  ``cache_hits_delta``/``cache_misses_delta`` let a parent
    process fold pool workers' schedule-cache statistics.
    """

    label: str
    workload: str
    composition: str
    program_digest: str
    used_contexts: int
    max_rf_entries: int
    schedule_seconds: float
    cache_hit: Optional[bool]
    sim_seconds: float
    results: Dict[str, int]
    run_cycles: int
    total_cycles: int
    #: per-PE dynamic operation counts (the RunResult field verbatim)
    ops_executed: List[int]
    branches_taken: int
    energy: float
    #: ``energy`` in exact integer micro-units (bit-equal across
    #: backends and processes, unlike the derived float)
    energy_units: int
    heap: Dict[str, List[int]] = field(default_factory=dict)
    correct: Optional[bool] = None
    cache_hits_delta: int = 0
    cache_misses_delta: int = 0


@dataclass
class ResolvedJob:
    """A workload materialised into concrete pipeline inputs.

    ``livein``/``arrays``/``expect`` are fresh per job.  ``kernel`` may
    be shared with other jobs (see :func:`resolve_workload`): it is
    read-only.
    """

    kernel: Kernel
    livein: Dict[str, int]
    arrays: Dict[str, List[int]]
    #: optional correctness oracle: (array name, expected final contents)
    expect: Optional[Tuple[str, List[int]]] = None
    #: ``kernel_fingerprint(kernel)`` when known, so the schedule-cache
    #: key need not hash the CDFG again
    fingerprint: Optional[str] = None


#: extension point: name -> builder(params) -> ResolvedJob (tests and
#: embedders register synthetic workloads here; checked first)
_EXTRA_WORKLOADS: Dict[str, Callable[[Dict[str, Any]], ResolvedJob]] = {}


def register_workload(
    name: str, builder: Callable[[Dict[str, Any]], ResolvedJob]
) -> None:
    """Register (or replace) a custom workload builder."""
    _EXTRA_WORKLOADS[name] = builder


#: process-wide memo of lowered kernels: (workload name, parameters
#: that shape the kernel) -> (kernel, its fingerprint).  The key space
#: is bounded by workloads x unroll factors; forked pool workers
#: inherit it warm.
_KERNELS: Dict[Tuple[Any, ...], Tuple[Kernel, str]] = {}


def _lowered(
    key: Tuple[Any, ...], build: Callable[[], Kernel]
) -> Tuple[Kernel, str]:
    """The memoised (kernel, fingerprint) for ``key``, built on a miss.

    Concurrent first builds (thread workers) converge on one entry.
    """
    entry = _KERNELS.get(key)
    event = "hit"
    if entry is None:
        kernel = build()
        entry = _KERNELS.setdefault(key, (kernel, kernel_fingerprint(kernel)))
        event = "miss"
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc(f"jobs.resolve.memo.{event}")
    return entry


def _uses_default_arrays(spec: JobSpec, kernel: Kernel) -> bool:
    """Whether any default array survives ``spec``'s array overrides."""
    if spec.arrays is None:
        return True
    given = {name for name, _data in spec.arrays}
    return any(ref.name not in given for ref in kernel.arrays)


def _adpcm_job(spec: JobSpec, params: Dict[str, Any]) -> ResolvedJob:
    # lazy import: repro.eval.tables consumes this module
    from repro.eval.tables import adpcm_arrays, adpcm_kernel
    from repro.kernels.adpcm import N_SAMPLES

    n_samples = int(params.get("n_samples", N_SAMPLES))
    unroll = int(params.get("unroll", 2))
    kernel, fp = _lowered(("adpcm", unroll), lambda: adpcm_kernel(unroll))
    job = ResolvedJob(
        kernel=kernel,
        livein={"n": n_samples, "gain": int(params.get("gain", 4096))},
        arrays={},
        fingerprint=fp,
    )
    if _uses_default_arrays(spec, kernel):
        job.arrays, expect = adpcm_arrays(n_samples)
        job.expect = ("outp", expect)
    return job


def _registry_job(spec: JobSpec) -> ResolvedJob:
    from repro.verify.workloads import get_workload

    name = spec.workload
    kernel, fp = _lowered((name,), lambda: get_workload(name).build())
    job = ResolvedJob(kernel=kernel, livein={}, arrays={}, fingerprint=fp)
    if spec.livein is None or _uses_default_arrays(spec, kernel):
        vec = get_workload(name).vectors[0]
        job.livein = dict(vec.livein)
        job.arrays = vec.fresh_arrays()
    return job


def resolve_workload(spec: JobSpec) -> ResolvedJob:
    """Materialise ``spec`` into kernel + concrete invocation inputs.

    Resolution order: custom registrations, the parameterised ADPCM
    evaluation workload, then the :mod:`repro.verify.workloads`
    registry (whose first input vector supplies default inputs).
    Explicit ``spec.livein``/``spec.arrays`` override the defaults —
    overriding drops the built-in correctness oracle, since the
    expected output was computed for the default inputs.

    Built-in workloads are lowered once per process: every job shares
    the memoised kernel and its fingerprint, and default inputs are
    built only when the spec's overrides leave some of them in use.
    Registered builders run on every job.
    """
    params = dict(spec.params)
    if spec.workload in _EXTRA_WORKLOADS:
        job = _EXTRA_WORKLOADS[spec.workload](params)
    elif spec.workload == "adpcm":
        job = _adpcm_job(spec, params)
    else:
        job = _registry_job(spec)
    if spec.livein is not None:
        job.livein = dict(spec.livein)
        job.expect = None
    if spec.arrays is not None:
        arrays = dict(job.arrays)
        arrays.update(
            {name: list(data) for name, data in spec.arrays}
        )
        job.arrays = arrays
        job.expect = None
    return job


def execute_job(
    spec: JobSpec, *, cache: Optional[ScheduleCache] = None
) -> JobResult:
    """Run one job end to end; module-level so pools can pickle it.

    ``cache`` injects a pre-resolved :class:`ScheduleCache` (the
    direct-call path); otherwise the spec's ``cached``/``cache_dir``
    resolve one via :func:`shared_cache` — which is how forked pool
    workers share the parent's warm in-memory layer and the on-disk
    artifact store.
    """
    job = resolve_workload(spec)
    kernel, comp = job.kernel, spec.composition
    validate_scheduler_mode(spec.scheduler_mode)
    if cache is None and (spec.cached or spec.cache_dir is not None):
        cache = shared_cache(
            spec.cache_dir, max_bytes=spec.cache_max_bytes
        )
    before = (cache.hits, cache.misses) if cache else (0, 0)
    cache_hit: Optional[bool] = None
    label = spec.label or f"{spec.workload} on {comp.name}"
    with timed("sched.walltime", label=label) as timer:
        if cache is None:
            schedule = schedule_kernel(
                kernel, comp, scheduler_mode=spec.scheduler_mode
            )
            program = generate_contexts(schedule, comp, kernel)
            digest = None
        else:
            # content-addressed: a hit skips scheduling + context
            # generation entirely (byte-identical program, see
            # tests/perf/test_determinism.py)
            def _compute():
                schedule = schedule_kernel(
                    kernel, comp, scheduler_mode=spec.scheduler_mode
                )
                return generate_contexts(schedule, comp, kernel)

            program, cache_hit, digest = cache.get_or_compute_program(
                kernel,
                comp,
                _compute,
                kernel_fp=job.fingerprint,
                fmt=CACHE_FORMAT,
                scheduler_mode=spec.scheduler_mode,
            )
    after = (cache.hits, cache.misses) if cache else (0, 0)
    if digest is None:
        digest = program_digest(program)
    sim_t0 = time.perf_counter()
    result = invoke_kernel(
        kernel,
        comp,
        dict(job.livein),
        {name: list(data) for name, data in job.arrays.items()},
        program=program,
        backend=spec.backend,
        max_cycles=spec.max_cycles,
    )
    sim_seconds = time.perf_counter() - sim_t0
    heap = {
        ref.name: list(result.heap.array(ref.handle))
        for ref in kernel.arrays
    }
    correct: Optional[bool] = None
    if job.expect is not None:
        name, expected = job.expect
        correct = heap[name] == list(expected)
    ledger = get_ledger()
    if ledger.enabled:
        ledger.record(
            spec.ledger_kind,
            label=label,
            **pipeline_record(
                kernel,
                comp,
                program,
                schedule_seconds=timer.seconds,
                cache_hit=cache_hit,
                backend=spec.backend,
                sim_seconds=sim_seconds,
                cycles=result.run_cycles,
                correct=correct,
                energy=result.run.energy,
                verifier=(
                    "ok"
                    if cache_hit is not True and verify_enabled()
                    else None
                ),
            ),
        )
    return JobResult(
        label=label,
        workload=spec.workload,
        composition=comp.name,
        program_digest=digest,
        used_contexts=program.used_contexts,
        max_rf_entries=program.max_rf_entries,
        schedule_seconds=timer.seconds,
        cache_hit=cache_hit,
        sim_seconds=sim_seconds,
        results=dict(result.results),
        run_cycles=result.run_cycles,
        total_cycles=result.total_cycles,
        ops_executed=list(result.run.ops_executed),
        branches_taken=result.run.branches_taken,
        energy=result.run.energy,
        energy_units=energy_units(result.run.energy),
        heap=heap,
        correct=correct,
        cache_hits_delta=after[0] - before[0],
        cache_misses_delta=after[1] - before[1],
    )


def job_payload(result: JobResult) -> Dict[str, Any]:
    """A JSON-safe response payload from one :class:`JobResult`."""
    return {
        "label": result.label,
        "workload": result.workload,
        "composition": result.composition,
        "program_digest": result.program_digest,
        "used_contexts": result.used_contexts,
        "max_rf_entries": result.max_rf_entries,
        "schedule_seconds": round(result.schedule_seconds, 6),
        "cache_hit": result.cache_hit,
        "sim_seconds": round(result.sim_seconds, 6),
        "results": dict(result.results),
        "run_cycles": result.run_cycles,
        "total_cycles": result.total_cycles,
        "ops_executed": result.ops_executed,
        "branches_taken": result.branches_taken,
        "energy": result.energy,
        "energy_units": result.energy_units,
        "heap": {name: list(data) for name, data in result.heap.items()},
        "correct": result.correct,
    }

"""The six workloads: set-up, the measured loop, and their metrics.

Every workload is generated from the seed; the program receives only the
generated inputs.  Timings are taken around calls into public functions,
and the counts come from fields the program already returns.  A traced
run adds spans around the layers (:mod:`spans`) and an enabled
``repro.obs`` metrics registry.

All direct workloads run whole *rounds*: each round is one seeded
permutation of the workload's cells (kernel x composition), so every
seed runs the same mix and only order and input values differ.  Counts
reported by a traced run are taken over the first round, which always
completes, so a seed repeats them exactly.

Set-up runs every cell once on a fixed reference input per kernel (the
*quality pass*).  It is the warm-up that lets the program's lazy state
fill before timing, it gives the schedule-quality counts
(``sim_cycles_total``, ``contexts_total``, the same for every seed), and
its programs are the reference every measured and traced job of the
same cell must reproduce.

Job times are scaled to the reference host (:mod:`hostspeed`); the
per-layer times of a traced run are left as measured and reported next
to the run's ``bench.host_speed``.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import inputs as kin
import spans
from hostspeed import HostSpeed

from repro.arch.library import (
    IRREGULAR_NAMES,
    MESH_SIZES,
    all_paper_compositions,
    irregular_composition,
    mesh_composition,
)
from repro.context.generator import generate_contexts
from repro.eval.tables import run_grid
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.perf.cache import ScheduleCache
from repro.perf.fingerprint import program_digest
from repro.sched.scheduler import schedule_kernel
from repro.serve.jobs import JobSpec, execute_job
from repro.sim.invocation import invoke_kernel
from repro.verify.mutate import classify_mutants, enumerate_mutants
from repro.verify.workloads import InputVector, Workload, get_workload

#: wire name -> composition, for the 12 compositions of the paper's
#: Tables I-II (meshes of 4..16 PEs, irregular 8-PE compositions A-F)
COMPOSITIONS: Dict[str, Any] = {
    **{f"mesh{n}": mesh_composition(n) for n in MESH_SIZES},
    **{f"irregular{x}": irregular_composition(x) for x in IRREGULAR_NAMES},
}

NPROC = os.cpu_count() or 1

#: traced runs fail when more of a direct job's time than this falls
#: outside every wrapped layer
UNATTRIBUTED_LIMIT = 0.05

#: the layers each workload must reach in a traced run
_COMPILE_LAYERS = (
    "jobs.resolve", "perf.fingerprint", "sched.region", "sched.place",
    "context.regalloc", "context.emit", "verify", "sim.compile", "sim.exec",
)
REQUIRED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "compile-cold": _COMPILE_LAYERS,
    "modulo-sweep": _COMPILE_LAYERS,
    "adpcm-stream": (
        "jobs.resolve", "perf.fingerprint", "perf.cache", "sim.compile",
        "sim.exec",
    ),
    "grid-parallel": _COMPILE_LAYERS,
    "mutation-campaign": (
        "sched.region", "sched.place", "context.regalloc", "context.emit",
        "verify", "verify.mutate", "sim.exec",
    ),
}

#: workloads whose job time the wrapped layers must account for
DIRECT = ("compile-cold", "modulo-sweep", "adpcm-stream")

#: registry counters a traced run reports over its first round
COUNTERS = (
    "sched.placement.attempts",
    "sched.placement.accepted",
    "sched.checkpoint.rollbacks",
    "sched.modulo.attempts",
    "sched.modulo.fallback",
    "route.copies.inserted",
    "verify.programs",
    "sim.compile.count",
    "perf.cache.hits",
    "perf.cache.misses",
    "perf.pool.fallbacks",
)

Cell = Tuple[str, str]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Latencies, busy time and checked outputs of one measured loop.

    Job times are scaled to the reference host (:mod:`hostspeed`); the
    loop calls ``host.poll()`` between jobs, never inside one.
    """

    latencies_ms: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)

    def job(self, seconds: float) -> None:
        """Record one job that took ``seconds`` of wall time."""
        scaled = seconds * self.host.factor()
        self.latencies_ms.append(scaled * 1e3)
        self.busy_s += scaled

    def verdict(self, problem: Optional[str]) -> None:
        """Count one checked output; ``problem`` says what was wrong."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)

    def absorb(self, other: "Tally") -> None:
        """Add another loop's checked outputs to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]


@dataclass
class Quality:
    """Each cell once on its kernel's reference input (set-up)."""

    cycles: int = 0
    contexts: int = 0
    digests: Dict[Cell, str] = field(default_factory=dict)
    #: one checked output per cell: ``None`` or what was wrong
    problems: List[Optional[str]] = field(default_factory=list)

    def mismatch(self, cell: Cell, digest: str) -> Optional[str]:
        """Why a measured job's program is not the reference's, if so."""
        if self.digests.get(cell) == digest:
            return None
        return f"{cell[0]} on {cell[1]}: program differs from the reference run"


def quality_pass(
    cells: Sequence[Cell], mode: str, cache: Optional[ScheduleCache] = None
) -> Quality:
    quality = Quality()
    for kernel, comp in sorted(cells):
        inp = kin.reference(kernel)
        res = execute_job(job_spec(kernel, comp, inp, mode), cache=cache)
        quality.problems.append(kin.check(kernel, inp, res.results, res.heap))
        quality.digests[(kernel, comp)] = res.program_digest
        quality.cycles += res.run_cycles
        quality.contexts += res.used_contexts
    return quality


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> Tuple[float, float]:
    """(this process, largest reaped child) peak RSS in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return own / scale, kids / scale


def tail_percentile(samples: int) -> float:
    """The highest percentile with ten samples beyond it, up to 99.

    99 wherever a run has 1,000 jobs; about 91 on grid-parallel, whose
    ~110 grid calls would otherwise make the p99 its slowest call.
    """
    return min(99.0, 100.0 * (1.0 - 10.0 / max(samples, 10)))


def latency_metrics(tally: Tally, jobs: int) -> Dict[str, float]:
    lat = tally.latencies_ms
    return {
        "jobs_per_s": jobs / tally.busy_s,
        "job_p50_ms": percentile(lat, 50),
        "job_p99_ms": percentile(lat, tail_percentile(len(lat))),
    }


def result(
    tally: Tally, quality: Quality, metrics: Dict[str, float]
) -> Dict[str, Any]:
    """The child's result: checked-output counts plus metric values."""
    for problem in quality.problems:
        tally.verdict(problem)
    own, kids = peak_rss_mb()
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {
            "sim_cycles_total": quality.cycles,
            "contexts_total": quality.contexts,
            "peak_rss_mb": max(own, kids),
            "bench.host_speed": tally.host.speed(),
            **metrics,
        },
    }


def rounds(
    seed: int,
    cells: Sequence[Cell],
    draw: Callable[[str, random.Random], kin.Inputs],
) -> Iterator[Tuple[str, str, kin.Inputs]]:
    """Endless seeded job stream: one permutation of ``cells`` per round."""
    rng = random.Random(seed)
    while True:
        order = list(cells)
        rng.shuffle(order)
        for kernel, comp in order:
            yield kernel, comp, draw(kernel, rng)


def job_spec(kernel: str, comp: str, inp: kin.Inputs, mode: str) -> JobSpec:
    return JobSpec(
        workload=kernel,
        composition=COMPOSITIONS[comp],
        params=inp.params,
        livein=JobSpec.freeze_livein(inp.livein),
        arrays=JobSpec.freeze_arrays(inp.arrays),
        scheduler_mode=mode,
    )


def counters(registry: MetricsRegistry) -> Dict[str, float]:
    return {name: registry.counter_total(name) for name in COUNTERS}


class Traced:
    """A traced phase: spans around the layers plus a metrics registry.
    The spans are written to ``path`` when the phase ends."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.recorder = spans.Recorder()
        self.registry = MetricsRegistry()

    def __enter__(self) -> "Traced":
        self._undo = spans.install(self.recorder)
        self._previous = set_metrics(self.registry)
        return self

    def __exit__(self, *exc) -> None:
        self._undo()
        set_metrics(self._previous)
        self.recorder.write(self.path)


def job_span(traced: Optional[Traced], job_id: int):
    """The bench's span around one unit of work (a no-op untraced)."""
    return traced.recorder.job(job_id) if traced is not None else nullcontext()


def overhead(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Extra time of the traced phase over the same leading jobs."""
    k = min(len(untraced), len(traced))
    base = sum(untraced[:k])
    return sum(traced[:k]) / base - 1.0 if base else 0.0


def traced_metrics(
    workload: str, traced: Traced, jobs: int, first_round: Dict[str, float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric a non-serving workload reports."""
    spans.guard(traced.recorder, REQUIRED_LAYERS[workload])
    out = spans.layer_metrics(traced.recorder, jobs)
    unattributed = out["bench.unattributed.share"]
    if workload in DIRECT and unattributed > UNATTRIBUTED_LIMIT:
        raise RuntimeError(
            f"{workload}: {unattributed:.1%} of job time falls outside "
            f"every wrapped layer (limit {UNATTRIBUTED_LIMIT:.0%})"
        )
    c = first_round
    out.update({name: c[name] for name in COUNTERS if not name.startswith("perf.cache.")})
    attempts = c["sched.placement.attempts"]
    out["sched.placement.accept_ratio"] = (
        c["sched.placement.accepted"] / attempts if attempts else 0.0
    )
    lookups = c["perf.cache.hits"] + c["perf.cache.misses"]
    out["perf.cache.hit_ratio"] = c["perf.cache.hits"] / lookups if lookups else 0.0
    sim_exec_s = out["sim.exec.ms"] * jobs / 1e3
    cycles = traced.registry.counter_total("sim.cycles")
    out["sim.cycles_per_s"] = cycles / sim_exec_s if sim_exec_s else 0.0
    out["bench.trace_overhead"] = trace_overhead
    return out


# ---------------------------------------------------------------------------
# Direct workloads: compile-cold, modulo-sweep, adpcm-stream
# ---------------------------------------------------------------------------


@dataclass
class Direct:
    name: str
    seed: int
    cells: List[Cell]
    mode: str
    draw: Callable[[str, random.Random], kin.Inputs]
    quality: Quality
    cache: Optional[ScheduleCache] = None


def _draw_stream(kernel: str, rng: random.Random) -> kin.Inputs:
    # a job costs about 0.17 ms per sample on a 2-CPU host: this range
    # gives the 1,000 jobs a run needs for a p99 with ten samples beyond
    return kin.adpcm_inputs(rng, rng.randint(32, 128))


def setup_direct(name: str, seed: int, smoke: bool) -> Direct:
    comps = ["mesh4", "irregularB"] if smoke else list(COMPOSITIONS)
    if name == "compile-cold":
        cells = [(k, c) for k in kin.KERNELS for c in comps]
        return Direct(name, seed, cells, "list", kin.generate,
                      quality_pass(cells, "list"))
    if name == "modulo-sweep":
        cells = [(k, c) for k in kin.PIPELINEABLE for c in comps]
        return Direct(name, seed, cells, "modulo", kin.generate,
                      quality_pass(cells, "modulo"))
    # adpcm-stream: the quality pass warms the cache every job then hits
    cells = [("adpcm", c) for c in comps]
    cache = ScheduleCache()
    return Direct(name, seed, cells, "list", _draw_stream,
                  quality_pass(cells, "list", cache), cache)


def job_list(state: Direct, n: int) -> List[Tuple[str, str, kin.Inputs]]:
    """The first ``n`` jobs of the workload's seeded stream."""
    stream = rounds(state.seed, state.cells, state.draw)
    return [next(stream) for _ in range(n)]


def _direct_loop(
    state: Direct, seconds: float, traced: Optional[Traced] = None,
) -> Tuple[Tally, Dict[str, float]]:
    """Jobs until ``seconds`` pass, and at least one round."""
    tally = Tally()
    first_round: Dict[str, float] = {}
    round_len = len(state.cells)
    stop = time.perf_counter() + seconds
    stream = rounds(state.seed, state.cells, state.draw)
    for i, (kernel, comp, inp) in enumerate(stream):
        if traced is not None and i == round_len:
            first_round = counters(traced.registry)
        if i >= round_len and time.perf_counter() >= stop:
            break
        tally.host.poll()
        spec = job_spec(kernel, comp, inp, state.mode)
        try:
            with job_span(traced, i):
                t0 = time.perf_counter()
                res = execute_job(spec, cache=state.cache)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed job is counted, not fatal
            tally.verdict(f"{kernel} on {comp}: {type(exc).__name__}: {exc}")
            continue
        tally.job(dt)
        tally.verdict(
            kin.check(kernel, inp, res.results, res.heap)
            or state.quality.mismatch((kernel, comp), res.program_digest)
        )
    return tally, first_round


def run_direct(
    state: Direct, seconds: float, spans_path: Optional[str]
) -> Dict[str, Any]:
    if spans_path is None:
        tally, _ = _direct_loop(state, seconds)
        return result(
            tally, state.quality,
            latency_metrics(tally, len(tally.latencies_ms)),
        )
    plain, _ = _direct_loop(state, seconds / 3)
    with Traced(spans_path) as traced:
        tally, first_round = _direct_loop(state, seconds - seconds / 3, traced)
    tally.absorb(plain)
    return result(tally, state.quality, traced_metrics(
        state.name, traced, len(tally.latencies_ms), first_round,
        overhead(plain.latencies_ms, tally.latencies_ms),
    ))


# ---------------------------------------------------------------------------
# grid-parallel
# ---------------------------------------------------------------------------

GRID_SAMPLES = 64


@dataclass
class Grid:
    items: List[Tuple[str, Any]]
    rng: random.Random
    #: label -> (cycles, contexts) of the set-up call; every call repeats it
    reference: Dict[str, Tuple[int, int]]
    quality: Quality


def _grid_call(state: Grid, jobs: int) -> Tuple[float, Dict[str, Any]]:
    """One cold ``run_grid`` over the grid in a seeded order."""
    order = list(state.items)
    state.rng.shuffle(order)
    t0 = time.perf_counter()
    runs = run_grid(order, n_samples=GRID_SAMPLES, jobs=jobs)
    return time.perf_counter() - t0, runs


def setup_grid(seed: int, smoke: bool) -> Grid:
    items = list(all_paper_compositions(mul_duration=2).items())
    if smoke:
        items = items[:3]
    state = Grid(items, random.Random(seed), {}, Quality())
    # one untimed call: the quality counts, and the warm-up
    _, runs = _grid_call(state, NPROC)
    for label, run in sorted(runs.items()):
        state.reference[label] = (run.cycles, run.used_contexts)
        state.quality.cycles += run.cycles
        state.quality.contexts += run.used_contexts
        state.quality.problems.append(
            None if run.correct else f"grid cell {label}: wrong output"
        )
    return state


def _grid_loop(
    state: Grid, seconds: float, jobs: int, tally: Tally,
    traced: Optional[Traced] = None, min_calls: int = 1,
) -> List[float]:
    """Repeated grid calls; returns their raw times.  Every cell must be
    correct and repeat the set-up call's cycles and contexts (run_grid
    returns no program digest)."""
    calls: List[float] = []
    stop = time.perf_counter() + seconds
    while len(calls) < min_calls or time.perf_counter() < stop:
        tally.host.poll()
        with job_span(traced, len(calls)):
            dt, runs = _grid_call(state, jobs)
        calls.append(dt)
        tally.job(dt)
        for label, run in sorted(runs.items()):
            got = (run.cycles, run.used_contexts)
            tally.verdict(
                None if run.correct and got == state.reference[label]
                else f"grid cell {label}: correct={run.correct}, cycles and "
                     f"contexts {got} != {state.reference[label]}"
            )
    return calls


def run_grid_workload(
    state: Grid, seconds: float, spans_path: Optional[str]
) -> Dict[str, Any]:
    tally = Tally()
    cells = len(state.items)
    if spans_path is None:
        calls = _grid_loop(state, seconds, NPROC, tally)
        return result(tally, state.quality, latency_metrics(tally, cells * len(calls)))
    # untraced serial and pool grids for the speedup, in separate blocks:
    # a serial call right after a pool call runs slower while the pool
    # winds down
    serial = _grid_loop(state, seconds / 6, 1, tally)
    parallel = _grid_loop(state, seconds / 6, NPROC, tally)
    with Traced(spans_path) as traced:
        # counts over the first grid call; times over all of them
        traced_serial = _grid_loop(state, 0, 1, tally, traced)
        first_round = counters(traced.registry)
        traced_serial += _grid_loop(
            state, seconds / 2, 1, tally, traced, min_calls=0
        )
        _grid_loop(state, 0, NPROC, tally)
        first_round["perf.pool.fallbacks"] = traced.registry.counter_total(
            "perf.pool.fallbacks"
        )
    out = traced_metrics(
        "grid-parallel", traced, cells * len(traced_serial), first_round,
        statistics.median(traced_serial) / statistics.median(serial) - 1.0,
    )
    out["perf.parallel.speedup"] = (
        statistics.median(serial) / statistics.median(parallel)
    )
    return result(tally, state.quality, out)


# ---------------------------------------------------------------------------
# mutation-campaign
# ---------------------------------------------------------------------------

#: the CI acceptance cells: a mesh and an irregular composition
MUTATION_COMPS = ("mesh4", "irregularB")
#: seeded vectors added to each kernel's registry vectors
MUTATION_EXTRA_VECTORS = 2
OUTCOMES = ("caught_static", "caught_dynamic", "equivalent", "escaped")


@dataclass
class Mutation:
    cells: List[Tuple[Workload, str]]
    quality: Quality


def _mutation_workload(kernel: str, rng: random.Random) -> Workload:
    """The registry workload plus seeded vectors (registry vectors keep
    the escaped count at zero; the extra ones vary with the seed)."""
    base = get_workload(kernel)
    extra = tuple(
        InputVector(inp.livein, {k: tuple(v) for k, v in inp.arrays.items()})
        for inp in (
            kin.generate(kernel, rng) for _ in range(MUTATION_EXTRA_VECTORS)
        )
    )
    return Workload(base.name, base.build, base.vectors + extra)


def setup_mutation(seed: int, smoke: bool) -> Mutation:
    rng = random.Random(seed)
    kernels = ("gcd",) if smoke else ("gcd", "adpcm")
    wls = {k: _mutation_workload(k, rng) for k in kernels}
    # fixed order: the mix of cells inside a time-bounded run is the
    # same for every seed
    cells = [(wls[k], c) for c in MUTATION_COMPS for k in kernels]
    return Mutation(
        cells, quality_pass([(wl.name, c) for wl, c in cells], "list")
    )


class TimedMutants(Sequence):
    """Mutant list that times each mutant until ``classify_mutants``
    takes the next one, samples the host's speed between mutants, and
    ends early once ``deadline`` has passed."""

    def __init__(
        self, mutants: Sequence[Any], deadline: Optional[float], host: HostSpeed
    ) -> None:
        self.mutants = mutants
        self.deadline = deadline
        self.host = host
        #: scaled seconds per classified mutant
        self.latencies: List[float] = []
        #: wall seconds of the same mutants, and of sampling the host
        self.mutants_s = 0.0
        self.sampling_s = 0.0

    def __len__(self) -> int:
        return len(self.mutants)

    def __getitem__(self, index):
        return self.mutants[index]

    def _done(self, started: float) -> None:
        took = time.perf_counter() - started
        self.mutants_s += took
        self.latencies.append(took * self.host.factor())

    def __iter__(self):
        started = None
        for mutant in self.mutants:
            if started is not None:
                self._done(started)
            if self.deadline is not None and time.perf_counter() >= self.deadline:
                return
            self.sampling_s += self.host.poll()
            started = time.perf_counter()
            yield mutant
        if started is not None:
            self._done(started)


def _baseline_check(workload: Workload, comp: str, program, tally: Tally) -> None:
    """The unmutated program's outputs on every vector vs the golden."""
    kernel = workload.build()
    for vec in workload.vectors:
        inp = kin.Inputs(dict(vec.livein), vec.fresh_arrays())
        run = invoke_kernel(
            kernel, COMPOSITIONS[comp], inp.livein, inp.arrays,
            program=program, backend="compiled",
        )
        heap = {ref.name: list(run.heap.array(ref.handle)) for ref in kernel.arrays}
        tally.verdict(kin.check(workload.name, inp, run.results, heap))


def _mutation_loop(
    state: Mutation, seconds: float, min_cells: int,
    traced: Optional[Traced] = None,
) -> Tuple[Tally, Dict[str, float]]:
    """Cells in order until ``seconds`` pass (at least ``min_cells``);
    one job is one classified mutant."""
    tally = Tally()
    outcomes = {outcome: 0 for outcome in OUTCOMES}
    first_round: Dict[str, float] = {}
    stop = time.perf_counter() + seconds
    index = 0
    while index < min_cells or time.perf_counter() < stop:
        workload, comp = state.cells[index % len(state.cells)]
        composition = COMPOSITIONS[comp]
        deadline = None if index < min_cells else stop
        # the same public calls run_mutation_campaign makes per cell,
        # made here so the mutant list can be timed as it is consumed
        with job_span(traced, index):
            t0 = time.perf_counter()
            kernel = workload.build()
            schedule = schedule_kernel(kernel, composition)
            program = generate_contexts(schedule, composition, kernel)
            mutants = TimedMutants(
                enumerate_mutants(program, composition), deadline, tally.host
            )
            results = classify_mutants(
                program, composition, workload.vectors, mutants=mutants
            )
            wall = time.perf_counter() - t0
        # each mutant at its own host speed; the cell's set-up (schedule,
        # enumeration, baseline runs) at the speed of the cell's end
        rest = wall - mutants.sampling_s - mutants.mutants_s
        tally.busy_s += sum(mutants.latencies) + rest * tally.host.factor()
        tally.latencies_ms += [s * 1e3 for s in mutants.latencies]
        tally.verdict(state.quality.mismatch(
            (workload.name, comp), program_digest(program)
        ))
        _baseline_check(workload, comp, program, tally)
        for res in results:
            outcomes[res.outcome] += 1
            tally.verdict(
                f"escaped mutant {res.description} on {workload.name}/{comp}"
                if res.outcome == "escaped" else None
            )
        index += 1
        if traced is not None and index == len(state.cells):
            first_round = counters(traced.registry)
            first_round.update(
                {f"verify.mutants.{k}": v for k, v in outcomes.items()}
            )
    return tally, first_round


def run_mutation(
    state: Mutation, seconds: float, spans_path: Optional[str]
) -> Dict[str, Any]:
    if spans_path is None:
        tally, _ = _mutation_loop(state, seconds, 1)
        return result(
            tally, state.quality,
            latency_metrics(tally, len(tally.latencies_ms)),
        )
    plain, _ = _mutation_loop(state, seconds / 3, 1)
    with Traced(spans_path) as traced:
        tally, first_round = _mutation_loop(state, 0, len(state.cells), traced)
    tally.absorb(plain)
    out = traced_metrics(
        "mutation-campaign", traced, len(tally.latencies_ms), first_round,
        overhead(plain.latencies_ms, tally.latencies_ms),
    )
    out.update(
        {k: v for k, v in first_round.items() if k.startswith("verify.mutants.")}
    )
    return result(tally, state.quality, out)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, smoke: bool = False):
    if name in DIRECT:
        return setup_direct(name, seed, smoke)
    if name == "grid-parallel":
        return setup_grid(seed, smoke)
    if name == "mutation-campaign":
        return setup_mutation(seed, smoke)
    if name == "serve-zipf":
        import serveload

        return serveload.setup(seed, smoke)
    raise KeyError(f"unknown workload {name!r}")


def teardown(name: str, state) -> None:
    if name == "serve-zipf":
        import serveload

        serveload.teardown(state)


def measure(
    name: str, state, seconds: float, spans_path: Optional[str] = None
) -> Dict[str, Any]:
    """Run the measured loop; traced when ``spans_path`` is given (the
    file the spans are written to)."""
    if name in DIRECT:
        return run_direct(state, seconds, spans_path)
    if name == "grid-parallel":
        return run_grid_workload(state, seconds, spans_path)
    if name == "mutation-campaign":
        return run_mutation(state, seconds, spans_path)
    import serveload

    # the server runs in other processes: its layers come from the
    # fields of its responses, not from spans
    return serveload.run(state, seconds, spans_path is not None)

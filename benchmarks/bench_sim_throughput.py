"""Simulator backends — dynamic-cycle throughput comparison.

Each kernel is scheduled once; the resulting context program then runs
through the interpreter and the AOT-compiled executor, and the
dynamic-cycle throughput (simulated cycles per wall-clock second) of
each is recorded in ``extra_info``.  Headline assertions on the paper's
evaluation kernel, anchored on the interpreter (the reference
semantics, which the compiled backend may not change):

* the AOT-compiled executor simulates ADPCM at >= 3x the interpreter's
  throughput *including* its one-off cost — compile plus generating
  the code of every trace the run enters, timed as the first cold
  invocation — and that cost amortises within a single Table II grid
  cell;
* warm, the compiled executor runs at >= 24x the interpreter (it measured
  ~32x on a 2-CPU x86_64 host; ~19x before operations were inlined).
"""

import time

from repro.arch.library import mesh_composition
from repro.context.generator import generate_contexts
from repro.eval.tables import adpcm_workload
from repro.kernels import crc32, dotp, gcd, sort
from repro.sched.scheduler import schedule_kernel
from repro.sim.compiled import _CODE
from repro.sim.invocation import invoke_kernel

#: enough samples for the run to dominate scheduling noise, small
#: enough to keep the bench under a minute
_N_SAMPLES = 64

#: floor for the headline kernel, one-off compile and codegen included
_MIN_ADPCM_SPEEDUP = 3.0

#: floor for warm compiled runs of the headline kernel
_MIN_ADPCM_WARM_SPEEDUP = 24.0


def _workloads():
    xs, ys = dotp.sample_inputs(64)
    return {
        "gcd": (gcd.build_kernel(), {"a": 1, "b": 377}, {}),
        "dotp": (dotp.build_kernel(), {"n": 64}, {"xs": xs, "ys": ys}),
        "crc32": (
            crc32.build_kernel(),
            {"n": 16},
            {"data": [(i * 37) & 0xFF for i in range(16)]},
        ),
        "sort": (
            sort.build_kernel(),
            {"n": 24},
            {"data": [(i * 29) % 97 for i in range(24)]},
        ),
    }


def _run(kernel, comp, program, livein, arrays, backend, rounds=1):
    """Best-of-``rounds`` wall-clock of one invocation; (seconds, result).

    Best-of (not mean) so a scheduler hiccup in one round cannot sink
    the asserted speedup ratio on a loaded CI box.
    """
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        res = invoke_kernel(
            kernel,
            comp,
            dict(livein),
            {k: list(v) for k, v in arrays.items()},
            program=program,
            backend=backend,
        )
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, res


def test_adpcm_compiled_speedup(benchmark):
    """Headline: ADPCM (Table II workload) >= 3x with the one-off
    compile and code generation included, >= 24x warm."""
    kernel, arrays, expect = adpcm_workload(_N_SAMPLES)
    comp = mesh_composition(9)
    schedule = schedule_kernel(kernel, comp)
    program = generate_contexts(schedule, comp, kernel)
    livein = {"n": _N_SAMPLES, "gain": 4096}

    interp_seconds, interp = _run(
        kernel, comp, program, livein, arrays, "interpreter", rounds=3
    )

    # cold: the first invocation compiles and generates every trace it
    # enters; drop the process-wide code memo so no earlier benchmark
    # run of the same traces makes it look cheaper
    _CODE.clear()
    cold_seconds, _ = _run(kernel, comp, program, livein, arrays, "compiled")

    compiled_seconds, compiled = benchmark.pedantic(
        lambda: _run(
            kernel, comp, program, livein, arrays, "compiled", rounds=3
        ),
        rounds=1,
        iterations=1,
    )

    # both backends decode correctly and agree bit-for-bit
    assert compiled.heap.array(kernel.arrays[1].handle) == expect
    assert compiled.run_cycles == interp.run_cycles
    assert compiled.run.energy == interp.run.energy
    assert compiled.run.ops_executed == interp.run.ops_executed

    cycles = interp.run.cycles
    speedup = interp_seconds / cold_seconds
    warm_speedup = interp_seconds / compiled_seconds
    compile_seconds = max(cold_seconds - compiled_seconds, 0.0)
    benchmark.extra_info["sim_cycles"] = cycles
    benchmark.extra_info["interpreter_cycles_per_sec"] = round(
        cycles / interp_seconds
    )
    benchmark.extra_info["compiled_cycles_per_sec"] = round(
        cycles / compiled_seconds
    )
    benchmark.extra_info["compile_seconds"] = round(compile_seconds, 4)
    benchmark.extra_info["speedup_with_compile"] = round(speedup, 2)
    benchmark.extra_info["warm_speedup"] = round(warm_speedup, 2)
    print(
        f"\nadpcm x{_N_SAMPLES}: {cycles} cycles — interpreter "
        f"{cycles / interp_seconds:,.0f} cyc/s, compiled "
        f"{cycles / compiled_seconds:,.0f} cyc/s ({warm_speedup:.2f}x "
        f"warm), compile + codegen {compile_seconds * 1e3:.1f} ms "
        f"({speedup:.2f}x incl.)"
    )
    assert speedup >= _MIN_ADPCM_SPEEDUP, (
        f"compiled backend only {speedup:.2f}x incl. compile + codegen"
    )
    assert warm_speedup >= _MIN_ADPCM_WARM_SPEEDUP, (
        f"compiled backend only {warm_speedup:.2f}x warm"
    )
    # amortisation: one Table II grid cell = compile once + run once;
    # the cell must already be ahead of the interpreter
    assert cold_seconds < interp_seconds


def test_per_kernel_throughput(benchmark):
    """Record cycles/sec + speedup for the smaller kernels (no floor:
    short runs are compile-dominated; numbers land in the JSON)."""
    comp = mesh_composition(9)
    rows = {}

    def measure():
        for name, (kernel, livein, arrays) in _workloads().items():
            schedule = schedule_kernel(kernel, comp)
            program = generate_contexts(schedule, comp, kernel)
            interp_s, interp = _run(
                kernel, comp, program, livein, arrays, "interpreter", rounds=3
            )
            # first compiled invocation pays the compile; time warm runs
            _run(kernel, comp, program, livein, arrays, "compiled")
            comp_s, compiled = _run(
                kernel, comp, program, livein, arrays, "compiled", rounds=3
            )
            assert compiled.results == interp.results
            assert compiled.run.energy == interp.run.energy
            rows[name] = {
                "sim_cycles": interp.run.cycles,
                "interpreter_cycles_per_sec": round(
                    interp.run.cycles / interp_s
                ),
                "compiled_cycles_per_sec": round(compiled.run.cycles / comp_s),
                "warm_speedup": round(interp_s / comp_s, 2),
            }
        return rows

    benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["kernels"] = rows
    for name, row in rows.items():
        print(
            f"\n{name}: {row['sim_cycles']} cycles — interpreter "
            f"{row['interpreter_cycles_per_sec']:,} cyc/s, compiled "
            f"{row['compiled_cycles_per_sec']:,} cyc/s "
            f"({row['warm_speedup']:.2f}x warm)"
        )
        assert row["warm_speedup"] > 1.0, f"{name} slower when compiled"

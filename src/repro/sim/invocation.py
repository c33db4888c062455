"""Invocation protocol (Section IV-A.3, Fig. 6).

"We introduce the term invocation for the sequence of receiving local
variables, executing a schedule and returning results.  The actual
computation is called a run."  Local-variable transfers take two cycles
each (both directions); the run is the simulated context execution.

:func:`invoke_kernel` is the one-call convenience path:
kernel + composition + inputs -> schedule -> contexts -> simulate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.arch.composition import Composition
from repro.context.generator import generate_contexts
from repro.context.words import ContextProgram
from repro.ir.cdfg import Kernel
from repro.ir.nodes import Var
from repro.obs.ledger import get_ledger
from repro.sched.schedule import Schedule
from repro.sim.machine import (
    DEFAULT_MAX_CYCLES,
    CGRASimulator,
    RunResult,
)
from repro.sim.memory import Heap

__all__ = [
    "InvocationResult",
    "run_invocation",
    "invoke_kernel",
]

#: "The transfer (both receive and send) of local variables takes 2
#: cycles" per variable.
TRANSFER_CYCLES_PER_VAR = 2


@dataclass
class InvocationResult:
    #: live-out variable name -> value
    results: Dict[str, int]
    #: cycles of the actual run (context execution)
    run_cycles: int
    #: run + local-variable transfer overhead
    total_cycles: int
    run: RunResult
    heap: Heap


def run_invocation(
    program: ContextProgram,
    comp: Composition,
    livein: Mapping[str, int],
    heap: Optional[Heap] = None,
    *,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    backend: str = "interpreter",
) -> InvocationResult:
    """Execute one invocation of an already-generated context program.

    ``backend`` selects the per-cycle interpreter (the reference
    semantics) or the ahead-of-time compiled executor
    (:mod:`repro.sim.compiled`); results are identical.
    """
    sim = CGRASimulator(
        comp, program, heap, max_cycles=max_cycles, backend=backend
    )
    by_name = {var.name: (var, loc) for var, loc in program.livein_map.items()}
    for name, value in livein.items():
        if name not in by_name:
            raise KeyError(f"kernel has no live-in variable {name!r}")
        _, (pe, slot) = by_name[name]
        sim.write_livein(pe, slot, value)
    missing = set(by_name) - set(livein)
    if missing:
        raise KeyError(f"missing live-in values: {sorted(missing)}")

    run = sim.run()

    results = {
        var.name: sim.read_liveout(pe, slot)
        for var, (pe, slot) in program.liveout_map.items()
    }
    transfers = len(program.livein_map) + len(program.liveout_map)
    return InvocationResult(
        results=results,
        run_cycles=run.cycles,
        total_cycles=run.cycles + TRANSFER_CYCLES_PER_VAR * transfers,
        run=run,
        heap=sim.heap,
    )


def invoke_kernel(
    kernel: Kernel,
    comp: Composition,
    livein: Mapping[str, int],
    arrays: Optional[Mapping[str, Sequence[int]]] = None,
    *,
    schedule: Optional[Schedule] = None,
    program: Optional[ContextProgram] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    backend: str = "interpreter",
    scheduler_mode: str = "list",
) -> InvocationResult:
    """Schedule (if needed), generate contexts and run one invocation.

    ``arrays`` maps array parameter names to initial contents; the final
    contents are reachable through ``result.heap``.  ``scheduler_mode``
    selects the per-region strategy ("list" | "modulo" | "auto") when no
    pre-built ``schedule``/``program`` is supplied.
    """
    schedule_seconds = None
    if program is None:
        t0 = time.perf_counter()
        if schedule is None:
            from repro.sched.scheduler import schedule_kernel

            schedule = schedule_kernel(
                kernel, comp, scheduler_mode=scheduler_mode
            )
        program = generate_contexts(schedule, comp, kernel)
        schedule_seconds = time.perf_counter() - t0
    heap = Heap()
    arrays = dict(arrays or {})
    for ref in kernel.arrays:
        data = arrays.pop(ref.name, None)
        if data is None:
            raise KeyError(f"missing contents for array {ref.name!r}")
        heap.allocate(ref.handle, data)
    if arrays:
        raise KeyError(f"unknown arrays supplied: {sorted(arrays)}")
    t0 = time.perf_counter()
    result = run_invocation(
        program, comp, livein, heap, max_cycles=max_cycles, backend=backend
    )
    ledger = get_ledger()
    if ledger.enabled:
        from repro.obs.ledger import pipeline_record
        from repro.verify import verify_enabled

        ledger.record(
            "pipeline.run",
            **pipeline_record(
                kernel,
                comp,
                program,
                schedule_seconds=schedule_seconds,
                backend=backend,
                sim_seconds=time.perf_counter() - t0,
                cycles=result.run_cycles,
                energy=result.run.energy,
                # contexts emitted here passed the always-on post-emission
                # checker (it raises on findings); a supplied program was
                # verified wherever it was generated
                verifier=(
                    ("ok" if verify_enabled() else "disabled")
                    if schedule_seconds is not None
                    else "precomputed"
                ),
            ),
        )
    return result

"""Functional CGRA simulator.

Executes generated context programs cycle by cycle: PE array with
register files and out-ports, C-Box condition memory, CCU context
counter with conditional branches, and DMA access to a host heap —
the runtime half of the paper's toolchain (the AMIDAR simulator's CGRA
functional unit, Section IV-B).
"""

from repro.sim.memory import Heap
from repro.sim.machine import (
    DEFAULT_MAX_CYCLES,
    SIM_BACKENDS,
    CGRASimulator,
    RunResult,
    SimulationError,
)
from repro.sim.compiled import CompiledProgram, compile_program
from repro.sim.invocation import (
    invoke_kernel,
    InvocationResult,
    run_invocation,
)

__all__ = [
    "Heap",
    "CGRASimulator",
    "CompiledProgram",
    "compile_program",
    "RunResult",
    "SimulationError",
    "SIM_BACKENDS",
    "DEFAULT_MAX_CYCLES",
    "invoke_kernel",
    "InvocationResult",
    "run_invocation",
]

"""In-memory spans around the program's public functions (traced runs).

The traced run replaces the public functions below with wrappers that
record one span per call: (layer, start, end, parent, job).  It patches
module attributes and class attributes only; no file under ``src/``
changes.  A function imported by name into other modules is replaced in
every module that holds it.

A layer's self time is its spans' duration minus the part their child
spans cover.  The bench's own ``job`` span encloses one unit of work, so
its self time is the part of a job no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: layer -> public functions whose calls it times, as "module:qualname"
LAYERS: Dict[str, Tuple[str, ...]] = {
    "jobs.resolve": ("repro.serve.jobs:resolve_workload",),
    "perf.fingerprint": (
        "repro.perf.fingerprint:kernel_fingerprint",
        "repro.perf.fingerprint:composition_fingerprint",
        "repro.perf.fingerprint:program_digest",
        "repro.serve.jobs:JobSpec.fingerprint",
    ),
    "perf.cache": (
        "repro.perf.cache:ScheduleCache.get",
        "repro.perf.cache:ScheduleCache.put",
    ),
    "sched.region": ("repro.sched.strategy:analyze_regions",),
    # schedule_kernel also covers building the scheduler's state, which
    # runs region analysis (a child span) and then placement
    "sched.place": (
        "repro.sched.scheduler:schedule_kernel",
        "repro.sched.scheduler:RegionScheduler.run",
    ),
    "context.regalloc": ("repro.context.generator:allocate_contexts",),
    # the verifier runs inside emission; its own spans are children,
    # so emission's self time excludes it
    "context.emit": ("repro.context.generator:emit_contexts",),
    "verify": (
        "repro.verify.checker:assert_verified",
        "repro.verify.checker:verify_program",
    ),
    "sim.compile": ("repro.sim.compiled:compile_program",),
    "sim.exec": (
        "repro.sim.invocation:invoke_kernel",
        "repro.sim.invocation:run_invocation",
        "repro.sim.machine:CGRASimulator.run",
    ),
    "verify.mutate": (
        "repro.verify.mutate:enumerate_mutants",
        "repro.verify.mutate:classify_mutants",
    ),
}

JOB = "job"


class Recorder:
    """Spans kept in memory; written out once the run ends."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index or -1, job id]
        self.spans: List[list] = []
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._stack: List[int] = []
        self._job = -1

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def job(self, job_id: int) -> "_JobSpan":
        """Context manager for the span of one unit of work."""
        return _JobSpan(self, job_id)

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """(layer -> self seconds, total job seconds) over the spans
        inside a job; calls the bench makes between jobs (its golden
        checks, say) are left out."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        out[JOB] = 0.0
        total = 0.0
        for i, (layer, start, end, _parent, job) in enumerate(self.spans):
            if job < 0:
                continue
            out[layer] += (end - start) - child[i]
            if layer == JOB:
                total += end - start
        return out, total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for layer, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "name": layer, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")


class _JobSpan:
    def __init__(self, recorder: Recorder, job_id: int) -> None:
        self.recorder = recorder
        self.job_id = job_id

    def __enter__(self) -> "_JobSpan":
        self.recorder._job = self.job_id
        self.index = self.recorder.open(JOB)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)
        self.recorder._job = -1


def _wrap(recorder: Recorder, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.calls[layer] += 1
        index = recorder.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every function in :data:`LAYERS`; returns the undo call.

    Raises ``AttributeError`` (or ``KeyError`` for a method) when a named
    function no longer exists, so a rename under ``src/`` fails the
    traced run instead of reporting a layer as 0 ms.
    """
    undo: List[Tuple[object, str, object]] = []

    def uninstall() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    try:
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    undo.append((cls, attr, original))
                    setattr(cls, attr, _wrap(recorder, layer, original))
                    continue
                original = getattr(module, qualname)
                wrapper = _wrap(recorder, layer, original)
                for holder in list(sys.modules.values()):
                    if getattr(holder, "__dict__", {}).get(qualname) is original:
                        undo.append((holder, qualname, original))
                        setattr(holder, qualname, wrapper)
    except BaseException:
        uninstall()
        raise
    return uninstall


def guard(recorder: Recorder, required: Sequence[str]) -> None:
    """Fail when a layer the workload must reach was never called."""
    missing = [layer for layer in required if recorder.calls[layer] == 0]
    if missing:
        raise RuntimeError(
            "traced run never reached layer(s) "
            + ", ".join(f"{m} ({', '.join(LAYERS[m])})" for m in missing)
            + ": a wrapped function was renamed or bypassed"
        )


def layer_metrics(recorder: Recorder, jobs: int) -> Dict[str, float]:
    """``<layer>.ms`` (mean self ms per job) and ``<layer>.share`` (of
    job wall time), plus the share no layer accounts for.  ``jobs``
    counts jobs, which differ from job spans where one span covers
    several (a grid call, a mutation cell)."""
    self_s, total = recorder.self_times()
    jobs = max(1, jobs)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.ms"] = self_s[layer] * 1e3 / jobs
        out[f"{layer}.share"] = self_s[layer] / total if total else 0.0
    out["bench.unattributed.share"] = self_s[JOB] / total if total else 0.0
    return out

"""Process-pool fan-out with deterministic result ordering.

:class:`ParallelEvaluator` maps a picklable task function over a list
of items using ``concurrent.futures.ProcessPoolExecutor``.  Results are
returned **in item order regardless of completion order**, so a
parallel run is a drop-in replacement for the serial loop — same
results, same order, different wall-clock.

Fallbacks keep the evaluator safe everywhere:

* ``jobs=1`` (the default) runs the plain serial loop in-process — no
  pool, no pickling, bit-for-bit the historical code path;
* if the pool cannot be created or a task cannot be pickled (sandboxed
  environments, exotic payloads), the evaluator falls back to the
  serial loop for that call.  Pool failures are *budgeted*, not
  latched: the next call tries a fresh pool again (a long-lived server
  must survive a worker crash), and only ``max_pool_failures``
  consecutive failures degrade the evaluator to serial for good.  A
  successful pooled run resets the budget.

Besides the batch :meth:`ParallelEvaluator.map`, the evaluator offers
a *persistent* single-task path for long-lived services
(:mod:`repro.serve`): :meth:`start_pool` pre-forks a warm worker pool
once, :meth:`submit` ships one task to it (returning a
``concurrent.futures.Future``), and :meth:`close` tears it down.  The
persistent pool is re-created transparently after a crash, inside the
same failure budget.

On POSIX the pool uses the ``fork`` start method when available: workers
inherit the parent's hash seed (identical set/dict iteration order ⇒
identical schedules) and its warm in-memory caches.

Pool statistics are mirrored into the ``repro.obs`` metrics registry:
``perf.pool.tasks`` (counter), ``perf.pool.workers`` (gauge).

**Cross-process observability.**  When the parent has an enabled
tracer, metrics registry or run ledger, each task is wrapped so the
worker runs it under *fresh* per-task obs sinks and ships their raw
state back with the result.  The parent folds everything in submission
order: counters add, histograms merge bucket-exactly, trace records
land on per-worker pid lanes of the parent tracer (one merged Chrome
trace), and ledger records are re-sequenced into the parent ledger.
Totals therefore equal the serial run's (see
``tests/perf/test_obs_merge.py``); only ``perf.pool.workers`` reflects
the actual pool width.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs import get_metrics, get_tracer
from repro.obs.ledger import RunLedger, get_ledger, set_ledger
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, set_tracer

__all__ = ["ParallelEvaluator", "WorkerHangError", "resolve_jobs"]


class WorkerHangError(TimeoutError):
    """A pooled task missed its deadline; its workers were killed."""


def _obs_task(payload: Tuple) -> Tuple[Any, Optional[dict]]:
    """Run one task under fresh per-task obs sinks (worker side).

    The worker process forked from the parent *inherits* the parent's
    enabled registries — recording into them would strand the data in
    the worker (and double-count the inherited baseline if shipped
    wholesale).  Fresh sinks capture exactly this task's contribution;
    the returned raw dumps are what the parent folds back in.

    ``payload`` may carry a decided fault action (the *parent* draws
    from the armed :class:`~repro.faults.FaultPlan` at submit time so
    injection accounting stays in one process); the worker suffers it
    before the task runs — a crash/hang therefore never leaves a
    half-recorded obs dump behind.
    """
    fn, item, want_metrics, want_trace, want_ledger, epoch_ns = payload[:6]
    fault = payload[6] if len(payload) > 6 else None
    faults.perform_task_fault(fault)
    metrics = MetricsRegistry() if want_metrics else None
    tracer = Tracer(epoch_ns=epoch_ns) if want_trace else None
    ledger = RunLedger() if want_ledger else None
    prev_metrics = set_metrics(metrics) if want_metrics else None
    prev_tracer = set_tracer(tracer) if want_trace else None
    prev_ledger = set_ledger(ledger) if want_ledger else None
    try:
        result = fn(item)
    finally:
        if want_metrics:
            set_metrics(prev_metrics)
        if want_trace:
            set_tracer(prev_tracer)
        if want_ledger:
            set_ledger(prev_ledger)
    obs = {
        "pid": os.getpid(),
        "metrics": metrics.dump() if metrics is not None else None,
        "trace": tracer.records if tracer is not None else None,
        "ledger": ledger.records if ledger is not None else None,
    }
    return result, obs


def _plain_task(payload: Tuple) -> Tuple[Any, None]:
    """Uncaptured single task: ``(fn(item), None)`` (see :meth:`submit`)."""
    fn, item = payload[:2]
    faults.perform_task_fault(payload[2] if len(payload) > 2 else None)
    return fn(item), None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` = all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _warm_task(_item) -> int:
    """No-op warm-up task: forces the pool to fork its workers."""
    return os.getpid()


#: exceptions that mean "the pool (not the task) is unusable"
_POOL_ERRORS = (
    OSError,
    ImportError,
    PermissionError,
    pickle.PicklingError,
    # CPython reports unpicklable payloads as AttributeError
    # ("Can't pickle local object ...") or TypeError, not only
    # PicklingError; a task that genuinely raises one of these
    # re-raises it from the serial fallback, so catching them costs
    # at most a redundant serial pass
    AttributeError,
    TypeError,
    BrokenProcessPool,
)


@contextmanager
def _frozen_heap():
    """Hide the parent's objects from the collector while a pool forks.

    Forked workers share the parent's memory copy-on-write; a collection
    in a worker would touch, and so copy, every inherited object.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class ParallelEvaluator:
    """Ordered map over a process pool, with serial fallback."""

    def __init__(
        self, jobs: Optional[int] = 1, *, max_pool_failures: int = 3
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        #: consecutive pool failures tolerated before degrading to the
        #: serial loop permanently (a success resets the count)
        self.max_pool_failures = max_pool_failures
        self._pool_failures = 0
        #: persistent executor behind :meth:`submit` (server mode)
        self._persistent: Optional[ProcessPoolExecutor] = None
        self._thread_fallback: Optional[ThreadPoolExecutor] = None
        #: whether the most recent :meth:`map` actually used the pool
        #: (callers aggregate worker-side counters only in that case —
        #: serial tasks already updated the in-process registry)
        self.last_used_pool = False
        #: whether the most recent :meth:`map` folded worker obs state
        #: (metrics/trace/ledger) back into the parent sinks — when
        #: True, worker-side ``repro.obs`` data is already accounted
        #: for and callers must not re-add it
        self.last_obs_folded = False

    # -- pool-health accounting ------------------------------------------

    @property
    def pool_broken(self) -> bool:
        """Whether the failure budget is exhausted (serial from now on)."""
        return self._pool_failures >= self.max_pool_failures

    def record_pool_failure(self, exc: Optional[BaseException] = None) -> None:
        """Count one pool failure and discard the persistent pool.

        Callers that observe a :class:`BrokenProcessPool` on a future
        returned by :meth:`submit` report it here; the next
        :meth:`submit`/:meth:`map` re-creates the pool unless the
        failure budget is exhausted.
        """
        self._pool_failures += 1
        self._discard_persistent()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(
                "perf.pool.fallbacks",
                reason=type(exc).__name__ if exc is not None else "reported",
            )

    def reset_pool(self) -> None:
        """Forget past failures; the next call may use a pool again."""
        self._pool_failures = 0

    # -- internals -------------------------------------------------------

    @staticmethod
    def _mp_context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def _discard_persistent(self) -> None:
        pool, self._persistent = self._persistent, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _map_serial(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        return [fn(item) for item in items]

    # -- public ----------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """``[fn(item) for item in items]`` — possibly across processes.

        ``fn`` must be a module-level function and every item/result
        picklable when ``jobs > 1``.  Exceptions raised by ``fn``
        propagate to the caller in both modes.
        """
        items = list(items)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("perf.pool.tasks", len(items))
        self.last_used_pool = False
        self.last_obs_folded = False
        if self.jobs <= 1 or len(items) <= 1 or self.pool_broken:
            if metrics.enabled:
                metrics.set_max("perf.pool.workers", 1)
            return self._map_serial(fn, items)

        tracer = get_tracer()
        ledger = get_ledger()
        capture_obs = metrics.enabled or tracer.enabled or ledger.enabled
        inject = faults.armed()
        workers = min(self.jobs, len(items))
        try:
            with _frozen_heap(), ProcessPoolExecutor(
                max_workers=workers, mp_context=self._mp_context()
            ) as pool:
                if capture_obs:
                    epoch = tracer.epoch_ns if tracer.enabled else None
                    futures = [
                        pool.submit(
                            _obs_task,
                            (
                                fn,
                                item,
                                metrics.enabled,
                                tracer.enabled,
                                ledger.enabled,
                                epoch,
                                faults.decide("pool.task"),
                            ),
                        )
                        for item in items
                    ]
                elif inject:
                    futures = [
                        pool.submit(
                            _plain_task,
                            (fn, item, faults.decide("pool.task")),
                        )
                        for item in items
                    ]
                else:
                    futures = [pool.submit(fn, item) for item in items]
                # collect by submission index: deterministic ordering
                # no matter which worker finishes first
                results = [f.result() for f in futures]
        except _POOL_ERRORS as exc:
            # pool unavailable (sandbox, fd limits, worker crash):
            # degrade this call to serial and count the failure — only
            # a run of max_pool_failures consecutive failures latches
            # serial for good
            self._pool_failures += 1
            if metrics.enabled:
                metrics.inc("perf.pool.fallbacks", reason=type(exc).__name__)
                metrics.set_max("perf.pool.workers", 1)
            return self._map_serial(fn, items)
        self._pool_failures = 0
        if metrics.enabled:
            metrics.set_max("perf.pool.workers", workers)
        self.last_used_pool = True
        if not capture_obs and inject:
            # _plain_task wrapped results as (result, None)
            return [result for result, _ in results]
        if capture_obs:
            # fold worker obs state in submission order: the merged
            # sinks end up identical to what the serial loop would have
            # recorded (modulo perf.pool.workers)
            plain = []
            for result, obs in results:
                plain.append(result)
                self.fold_obs(obs)
            self.last_obs_folded = True
            return plain
        return results

    def fold_obs(self, obs: Optional[dict]) -> None:
        """Fold one worker's raw obs dumps into the parent sinks.

        ``obs`` is the second element of an :func:`_obs_task` result
        (``None`` when the task ran without capture).  Counters add,
        histograms merge bucket-exactly, trace records land on the
        worker's pid lane, ledger records are re-sequenced.
        """
        if obs is None:
            return
        if obs["metrics"] is not None:
            get_metrics().merge(obs["metrics"])
        if obs["trace"] is not None:
            get_tracer().add_foreign_records(
                obs["trace"],
                pid=obs["pid"],
                label=f"worker-{obs['pid']}",
            )
        if obs["ledger"] is not None:
            get_ledger().extend(obs["ledger"])

    # -- persistent single-task path (server mode) -----------------------

    def start_pool(self) -> int:
        """Pre-fork the persistent worker pool; returns its width.

        Submits one warm-up task per worker so the fork happens *now*
        (workers inherit the parent's imports and warm in-memory
        caches) instead of on the first real request.  Unlike
        :meth:`map` — where ``jobs == 1`` means the serial loop — a
        single-worker *pool* is real here: server mode needs an
        isolated, killable worker process even at width 1.  Returns 0
        only when the failure budget is already exhausted —
        :meth:`submit` then runs tasks on a small thread pool instead.
        """
        if self.pool_broken:
            return 0
        try:
            pool = self._ensure_persistent()
            for f in [
                pool.submit(_warm_task, i) for i in range(self.jobs)
            ]:
                f.result()
        except _POOL_ERRORS as exc:
            self.record_pool_failure(exc)
            return 0
        self._pool_failures = 0
        metrics = get_metrics()
        if metrics.enabled:
            metrics.set_max("perf.pool.workers", self.jobs)
        return self.jobs

    def _ensure_persistent(self) -> ProcessPoolExecutor:
        if self._persistent is None:
            self._persistent = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=self._mp_context()
            )
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("perf.pool.recreations")
        return self._persistent

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_fallback is None:
            self._thread_fallback = ThreadPoolExecutor(
                max_workers=max(1, min(self.jobs, 4)),
                thread_name_prefix="repro-serial",
            )
        return self._thread_fallback

    def submit(self, fn: Callable[[Any], Any], item: Any) -> "Future":
        """Ship one task to the persistent pool; ``Future`` of
        ``(result, obs)``.

        ``obs`` is a raw worker obs dump to pass to :meth:`fold_obs`
        (``None`` when the task ran in-process, where it already
        recorded into the parent sinks directly).  When the pool is
        unavailable the task runs on a small thread pool instead, so
        callers in an event loop never block.  A worker crash surfaces
        as :class:`BrokenProcessPool` from the future — report it via
        :meth:`record_pool_failure` and resubmit; the pool is then
        re-created within the failure budget.
        """
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("perf.pool.tasks")
        # the parent draws the task's fault here (deterministic per-site
        # stream, accounted in this process) and ships the action along
        fault = faults.decide("pool.task")
        # note: jobs == 1 still uses a real (single-process) pool here —
        # submit() is the server path, where worker isolation and
        # killability matter more than fork overhead
        if not self.pool_broken:
            tracer = get_tracer()
            ledger = get_ledger()
            capture = metrics.enabled or tracer.enabled or ledger.enabled
            try:
                pool = self._ensure_persistent()
                if capture:
                    epoch = tracer.epoch_ns if tracer.enabled else None
                    return pool.submit(
                        _obs_task,
                        (
                            fn,
                            item,
                            metrics.enabled,
                            tracer.enabled,
                            ledger.enabled,
                            epoch,
                            fault,
                        ),
                    )
                return pool.submit(_plain_task, (fn, item, fault))
            except _POOL_ERRORS as exc:
                self.record_pool_failure(exc)
        return self._threads().submit(_plain_task, (fn, item, fault))

    def submit_with_deadline(
        self, fn: Callable[[Any], Any], item: Any, *, timeout: float
    ):
        """:meth:`submit` + bounded wait + hung-worker recovery (sync).

        Returns the task's ``(result, obs)`` pair.  If the task does
        not finish within ``timeout`` seconds the pool's workers are
        killed (a hung worker holds the pool hostage otherwise), the
        failure is budgeted, and :class:`WorkerHangError` is raised;
        the next submit re-forks a fresh pool.  Async callers
        (:mod:`repro.serve.server`) implement the same protocol with
        ``asyncio.wait_for`` + :meth:`kill_hung_workers`.
        """
        future = self.submit(fn, item)
        try:
            result = future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            # consume the eventual BrokenProcessPool so the abandoned
            # future never warns about an unretrieved exception
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            killed = self.kill_hung_workers()
            self.record_pool_failure(WorkerHangError("deadline"))
            raise WorkerHangError(
                f"pooled task exceeded {timeout}s deadline "
                f"({killed} workers killed)"
            ) from None
        self.note_pool_success()
        return result

    def kill_hung_workers(self) -> int:
        """SIGKILL the persistent pool's workers; returns the count.

        A worker stuck in an endless task ignores a polite shutdown —
        the whole pool is discarded and its processes killed so the
        next :meth:`submit` starts from a fresh fork.  Pending futures
        on the killed pool complete with :class:`BrokenProcessPool`.
        """
        pool, self._persistent = self._persistent, None
        if pool is None:
            return 0
        procs = list(getattr(pool, "_processes", {}).values())
        for proc in procs:
            try:
                proc.kill()
            except (OSError, AttributeError):  # already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        metrics = get_metrics()
        if metrics.enabled and procs:
            metrics.inc("perf.pool.worker_kills", len(procs))
        return len(procs)

    def note_pool_success(self) -> None:
        """A pooled task completed: forgive past consecutive failures."""
        self._pool_failures = 0

    def close(self) -> None:
        """Shut down the persistent executors (idempotent)."""
        self._discard_persistent()
        threads, self._thread_fallback = self._thread_fallback, None
        if threads is not None:
            threads.shutdown(wait=False)

"""Sweep executor for (workload x design x config) grids.

The paper parallelised its fork-and-pre-execute methodology across "10
processes" (Section 5.1); the same observation applies one level up:
every cell of an evaluation grid is an independent deterministic
simulation, so a figure's (workload x design) matrix fans out across
cores and hosts. :class:`SweepExecutor` runs a grid one of two ways:

* **In-process** - with ``max_workers=1`` and no broker (or a single
  pending cell), cells run one after another on the calling thread.
  Every differential uses this path as its reference.
* **Through the broker** - with ``max_workers=N>1`` or an attached
  :class:`~repro.runtime.distributed.SweepBroker`, cells are leased to
  worker processes over loopback or the network. The broker starts
  ``N`` local workers itself (a private broker on ``127.0.0.1:0`` when
  none is attached); an attached broker also serves remote
  ``repro worker`` hosts, and with ``max_workers=1`` only those. Local
  and remote sweeps share one lease, retry, timeout and reclaim
  implementation (see :mod:`repro.runtime.distributed`).

Either way the executor guarantees:

* **Deterministic ordering** - ``run(tasks)[i]`` is always the result of
  ``tasks[i]``, whatever order the workers finished in.
* **Bit-identical results** - workers execute exactly the same
  :func:`run_task` code path as a serial run, so parallelism never
  changes a number. Retries re-run the same deterministic cell, so they
  never change a number either.
* **Fault tolerance** - a :class:`RetryPolicy` re-runs cells that
  crashed (:class:`~repro.runtime.faults.InjectedFaultError`, a worker
  that died holding the cell), hung (:class:`SweepTimeoutError`) or
  returned corrupt payloads, with jitterless exponential backoff; with
  local workers the final attempt runs in-process. Exhausted cells
  either fail the sweep (``on_exhausted="raise"``) or land as
  :class:`FailedCell` markers (``on_exhausted="record"``) so one
  poisoned cell cannot lose a figure.
* **Checkpoint/resume** - with a
  :class:`~repro.runtime.checkpoint.SweepCheckpoint` attached, every
  completed cell is durably recorded; a resumed sweep skips completed
  cells by fetching them from the result cache.
* **No leaked workers** - a local worker holding a cell past
  ``task_timeout_s`` is terminated and replaced, and every local worker
  is reaped before :meth:`SweepExecutor.run` returns or raises.

Cells are transparently memoised through
:class:`~repro.runtime.cache.ResultCache` when one is supplied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

from repro.config import SimConfig

if TYPE_CHECKING:  # spans are optional; the import stays off the hot path
    from repro.obs.trace import Span, Tracer
from repro.core.objectives import Objective
from repro.runtime.cache import ResultCache, describe_objective, task_key
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.distributed import SweepBroker
from repro.runtime.faults import (
    CorruptResult,
    CorruptResultError,
    InjectedFaultError,
    active_fault_plan,
)
from repro.runtime.progress import (
    SOURCE_CACHE,
    SOURCE_RESUMED,
    SOURCE_SERIAL,
    CellRecord,
    SweepInstrumentation,
)


class SweepTimeoutError(RuntimeError):
    """A sweep cell exceeded the per-task timeout."""


@dataclass(frozen=True)
class SweepTask:
    """One self-contained sweep cell.

    Carries names and config - not live simulator objects - so the task
    pickles cheaply to a worker process, which rebuilds the workload and
    controller locally via :func:`run_task`.
    """

    workload: str
    design: str
    config: SimConfig
    scale: float = 0.4
    max_epochs: int = 400
    oracle_sample_freqs: Optional[int] = 4
    collect_accuracy: bool = False
    objective: Optional[Objective] = None

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.design}"

    def cache_fields(self) -> Dict[str, object]:
        """Everything the simulation result depends on (see cache.py)."""
        return {
            "workload": self.workload,
            "design": self.design,
            "config": self.config,
            "scale": self.scale,
            "max_epochs": self.max_epochs,
            "oracle_sample_freqs": self.oracle_sample_freqs,
            "collect_accuracy": self.collect_accuracy,
            "objective": describe_objective(self.objective),
        }

    def key(self) -> str:
        return task_key(self.cache_fields())


def run_task(task: SweepTask, recorder=None, tracer=None):
    """Execute one cell to completion (runs in worker processes too).

    ``recorder`` is an optional
    :class:`~repro.telemetry.recorder.EpochTraceRecorder` attached to
    the simulation (used by ``repro trace`` / ``repro report``);
    ``tracer`` an optional :class:`~repro.obs.trace.Tracer` for span
    timing. Both are deliberately *not* part of :class:`SweepTask` -
    observability never enters the result-cache key because it never
    changes the result.
    """
    # Local imports keep worker start-up lean and avoid import cycles.
    from repro.dvfs.designs import make_controller
    from repro.dvfs.simulation import DvfsSimulation
    from repro.workloads import build_workload, workload

    kernels = build_workload(workload(task.workload), scale=task.scale)
    ctrl = make_controller(task.design, task.config, task.objective)
    sim = DvfsSimulation(
        kernels,
        ctrl,
        task.config,
        design_name=task.design,
        workload_name=task.workload,
        collect_accuracy=task.collect_accuracy,
        max_epochs=task.max_epochs,
        oracle_sample_freqs=task.oracle_sample_freqs,
        telemetry=recorder,
        tracer=tracer,
    )
    return sim.run()


def _run_task_timed(
    task: SweepTask, attempt: int = 1, span_ctx: Optional[Dict[str, str]] = None
) -> Tuple[object, float, Optional[List[Dict[str, object]]]]:
    """One attempt at one cell, with the active fault plan consulted.

    Runs in worker processes (which inherit ``REPRO_FAULT_PLAN`` from the
    parent's environment) and in-process for serial execution. A planned
    ``raise`` fault surfaces here as :class:`InjectedFaultError`; a
    ``hang`` fault sleeps before running (so the parent's timeout fires,
    or - untimed - the cell still produces its correct result); a
    ``corrupt`` fault returns a :class:`CorruptResult` marker the
    collector turns into :class:`CorruptResultError`.

    ``span_ctx`` is a wire-form :class:`~repro.obs.trace.SpanContext`
    (the parent's cell span). When given, a worker-side tracer joins
    that trace, the simulation's run/epoch/oracle spans nest under it,
    and the finished records travel back as the third element of the
    return value for the parent to :meth:`~repro.obs.trace.Tracer.adopt`
    - the same ship-back-and-merge pattern the sweep instrumentation
    uses. When None (tracing off) no tracer object is built and the
    third element is None.
    """
    t0 = time.perf_counter()
    tracer = None
    if span_ctx is not None:
        from repro.obs.trace import SpanContext, Tracer

        tracer = Tracer.from_context(SpanContext.from_wire(span_ctx))
    plan = active_fault_plan()
    if plan is not None:
        corrupt = plan.apply(task.label, attempt)
        if corrupt is not None:
            return (
                corrupt,
                time.perf_counter() - t0,
                tracer.collect() if tracer is not None else None,
            )
    result = run_task(task, tracer=tracer)
    return (
        result,
        time.perf_counter() - t0,
        tracer.collect() if tracer is not None else None,
    )


#: ``RetryPolicy.on_exhausted`` values.
ON_EXHAUSTED_RAISE = "raise"
ON_EXHAUSTED_RECORD = "record"


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a failed sweep cell.

    Backoff is *jitterless*: the delay before attempt ``n`` is exactly
    ``min(backoff_base_s * backoff_factor**(n - 2), backoff_max_s)``,
    and retries are re-submitted in task order, so a seeded fault plan
    produces the same schedule every run.
    """

    #: Total tries per cell (1 = fail on first error, the old behaviour).
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Exception types worth re-running the cell for. Everything else
    #: is final. (A cell reclaimed from a dead worker, ``LeaseExpired``,
    #: is always retried.)
    retryable: Tuple[Type[BaseException], ...] = (
        InjectedFaultError,
        CorruptResultError,
        SweepTimeoutError,
    )
    #: Run the last attempt in-process instead of on a local worker:
    #: immune to dying workers and timeouts, the strongest guarantee the
    #: runtime can offer a repeatedly unlucky cell. A remote-only sweep
    #: (a broker with ``max_workers=1``) never computes on its own host,
    #: so there the final attempt goes to a worker like any other.
    serial_final_attempt: bool = True
    #: ``"raise"``: an exhausted cell fails the sweep (callers see the
    #: original error). ``"record"``: it becomes a :class:`FailedCell`
    #: in the results and the sweep carries on.
    on_exhausted: str = ON_EXHAUSTED_RAISE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.on_exhausted not in (ON_EXHAUSTED_RAISE, ON_EXHAUSTED_RECORD):
            raise ValueError(f"unknown on_exhausted {self.on_exhausted!r}")

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retryable)

    def delay_for(self, attempt: int) -> float:
        """Deterministic pre-attempt delay (attempt numbering from 1)."""
        if attempt <= 1:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 2),
            self.backoff_max_s,
        )


#: The pre-retry behaviour: any failure is immediately sweep-fatal.
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class FailedCell:
    """Placeholder result for a cell that exhausted its retry budget."""

    label: str
    key: str
    attempts: int
    error: str

    def __bool__(self) -> bool:  # failed cells are falsy in filters
        return False


@dataclass
class SweepExecutor:
    """Runs sweep cells in-process or through a broker, with caching and
    retries."""

    #: Local worker processes; 1 runs cells in-process (or, with a
    #: broker attached, on remote workers only).
    max_workers: int = 1
    cache: Optional[ResultCache] = None
    progress: SweepInstrumentation = field(default_factory=SweepInstrumentation)
    #: Per-attempt timeout in seconds, measured from the moment a worker
    #: leases the cell; None disables the guard. In-process attempts
    #: cannot be timed out (there is no process to abandon).
    task_timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Durable manifest of completed cells (see checkpoint.py); cells
    #: recorded there are skipped on resume by loading from the cache.
    checkpoint: Optional[SweepCheckpoint] = None
    #: Optional span tracer (see :mod:`repro.obs.trace`). The sweep, each
    #: cell attempt, and - via context propagation into the workers -
    #: each run/epoch/oracle_sample become spans. None (the default)
    #: costs one ``is None`` branch per site and changes nothing.
    tracer: Optional["Tracer"] = None
    #: A :class:`~repro.runtime.distributed.SweepBroker` that also
    #: serves the grid to remote workers. Cache hits and checkpoint
    #: resume are handled identically with or without one.
    broker: Optional[SweepBroker] = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.progress.max_workers = max(self.progress.max_workers, self.max_workers)
        self._sweep_span: Optional["Span"] = None

    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> List:
        """Execute every task; ``run(tasks)[i]`` belongs to ``tasks[i]``."""
        tasks = list(tasks)
        started_here = self.progress._t_start is None
        if started_here:
            self.progress.start()
        tr = self.tracer
        outer_span = self._sweep_span
        if tr is not None:
            self._sweep_span = tr.start(
                "sweep", parent=outer_span, n_tasks=len(tasks),
                max_workers=self.max_workers,
            )
        try:
            results: List[Optional[object]] = [None] * len(tasks)
            pending: List[int] = []
            for i, task in enumerate(tasks):
                if self._load_completed(task, results, i):
                    continue
                pending.append(i)

            if self.broker is None and (self.max_workers <= 1 or len(pending) <= 1):
                self._run_serial(tasks, pending, results)
            elif pending:
                broker = self.broker or SweepBroker(port=0)
                broker.serve(self, tasks, pending, results)
            return results  # type: ignore[return-value]
        finally:
            if tr is not None:
                tr.finish(self._sweep_span)
                self._sweep_span = outer_span
            if started_here:
                self.progress.finish()

    # -- span helpers (no-ops when no tracer is attached) ---------------

    def _start_cell(
        self, task: SweepTask, attempt: int
    ) -> Tuple[Optional["Span"], Optional[Dict[str, str]]]:
        """Open a cell-attempt span; returns (span, wire context)."""
        tr = self.tracer
        if tr is None:
            return None, None
        span = tr.start(
            "cell", parent=self._sweep_span, label=task.label, attempt=attempt
        )
        return span, tr.context(span).to_wire()

    def _end_cell(
        self,
        span: Optional["Span"],
        status: str,
        worker_records: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """Merge shipped worker spans and close the cell span."""
        if span is None:
            return
        tr = self.tracer
        if worker_records:
            tr.adopt(worker_records)
        if not span.done:
            tr.finish(span, status=status)

    def run_one(self, task: SweepTask):
        return self.run([task])[0]

    # ------------------------------------------------------------------

    def _load_completed(self, task: SweepTask, results: List, i: int) -> bool:
        """Fill ``results[i]`` from the checkpoint manifest or cache."""
        if self.cache is None:
            return False
        key = task.key()
        resumed = self.checkpoint is not None and key in self.checkpoint
        cached = self.cache.get(key)
        if cached is None:
            # A manifest entry without a cache entry (cache cleared,
            # version bump) is simply stale: re-run the cell.
            return False
        results[i] = cached
        source = SOURCE_RESUMED if resumed else SOURCE_CACHE
        if self.tracer is not None:
            self.tracer.event(
                "cell_cached", parent=self._sweep_span,
                label=task.label, source=source,
            )
        if self.checkpoint is not None:
            self.checkpoint.record(key, task.label, source)
        self.progress.record_cell(
            CellRecord(
                task.label, task.workload, task.design, 0.0, source,
                hotpath=getattr(cached, "hotpath", None),
            )
        )
        return True

    def _finish_cell(
        self,
        task: SweepTask,
        result: object,
        elapsed: float,
        source: str,
        attempts: int = 1,
    ) -> None:
        if self.cache is not None or self.checkpoint is not None:
            key = task.key()
            if self.cache is not None:
                self.cache.put(key, result)
            if self.checkpoint is not None:
                self.checkpoint.record(key, task.label, source, elapsed)
        self.progress.record_cell(
            CellRecord(
                task.label, task.workload, task.design, elapsed, source,
                hotpath=getattr(result, "hotpath", None),
                attempts=attempts,
            )
        )

    # -- failure bookkeeping -------------------------------------------

    def _exhausted(self, task: SweepTask, attempts: int, exc: BaseException):
        """A cell ran out of attempts: record it or fail the sweep."""
        self.progress.record_failure(task.label, attempts, exc)
        if self.retry.on_exhausted == ON_EXHAUSTED_RECORD:
            return FailedCell(task.label, task.key(), attempts, repr(exc))
        raise exc

    def _backoff(self, attempt: int) -> None:
        delay = self.retry.delay_for(attempt)
        if delay > 0:
            time.sleep(delay)

    # -- serial execution ----------------------------------------------

    def _run_serial(
        self, tasks: Sequence[SweepTask], pending: Sequence[int], results: List
    ) -> None:
        for i in pending:
            results[i] = self._run_cell_serial(tasks[i])

    def _run_cell_serial(self, task: SweepTask):
        """One cell, in-process, with the full retry loop."""
        attempt = 0
        while True:
            attempt += 1
            span, ctx = self._start_cell(task, attempt)
            try:
                result, elapsed, spans = _run_task_timed(task, attempt, ctx)
                if isinstance(result, CorruptResult):
                    raise CorruptResultError(
                        f"corrupt result for {task.label} (attempt {attempt})"
                    )
            except self.retry.retryable as exc:
                if attempt >= self.retry.max_attempts:
                    self._end_cell(span, "exhausted")
                    return self._exhausted(task, attempt, exc)
                self._end_cell(span, "retry")
                self.progress.record_retry(
                    task.label, attempt, exc, self.retry.delay_for(attempt + 1)
                )
                self._backoff(attempt + 1)
                continue
            self._end_cell(span, "ok", spans)
            self._finish_cell(task, result, elapsed, SOURCE_SERIAL, attempts=attempt)
            return result


__all__ = [
    "NO_RETRY",
    "ON_EXHAUSTED_RAISE",
    "ON_EXHAUSTED_RECORD",
    "FailedCell",
    "RetryPolicy",
    "SweepExecutor",
    "SweepTask",
    "SweepTimeoutError",
    "run_task",
]

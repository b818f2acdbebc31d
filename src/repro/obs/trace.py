"""Hierarchical span tracing for the offline sweep and online service.

A :class:`Tracer` produces :class:`Span` records - named wall-clock
intervals with parent/child links - covering the full stack::

    sweep                       (SweepExecutor.run)
      cell comd/PCSTALL #1      (one attempt of one sweep cell)
        run                     (DvfsSimulation.run, possibly in a worker)
          epoch 0..N            (one per executed epoch)
          oracle_sample         (fork-and-pre-execute truth sampling)

    session 3                   (DecisionService connection)
      request                   (one admitted observation)
        decision                (controller observe + decide)

Design constraints, in priority order:

* **Zero overhead when off.** Every instrumented site holds an
  ``Optional[Tracer]`` and pays one ``is None`` branch when tracing is
  disabled; no tracer, span, or record object is allocated. Results
  are bit-identical either way - spans only *observe* wall time, they
  never feed back into a simulation or a decision.
* **Monotonic ids, cross-process safe.** Span ids are dot-free
  monotonic integers rendered under a tracer-local prefix
  (``"7"``, ``"7.1"``, ``"7.2"`` for spans a worker opened under
  parent span 7), so ids stay unique when a sweep fans cells across
  worker processes and the worker's spans are merged back.
* **Wall-clock alignment.** Timing uses ``time.perf_counter_ns`` for
  precision, re-anchored to ``time.time_ns`` at tracer creation, so
  spans from different processes land on one shared timeline and can
  be rendered next to each other (``repro trace --perfetto``).
* **One stream.** Finished spans go to a ring buffer (and a JSONL
  sink when configured): the ring keeps the recent past for
  drill-down, the JSONL archives everything. The simulation's ``run``
  and ``epoch`` spans carry the per-epoch decision digest as
  attributes (see :mod:`repro.telemetry.schema`), so one stream
  answers both "where did the time go" and "why this frequency".

Cross-process propagation mirrors ``SweepInstrumentation``'s merge
pattern: the parent ships a :class:`SpanContext` (trace id + parent
span id) in the task payload, the worker builds a :class:`Tracer` from
it via :meth:`Tracer.from_context`, and the finished span records come
back with the result to be folded in with :meth:`Tracer.adopt`.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from repro.telemetry.metrics import MetricsRegistry

#: Record type emitted for every finished span (see telemetry.schema).
SPAN_RECORD_TYPE = "span"


class Span:
    """One named wall-clock interval; finished via :meth:`Tracer.finish`."""

    __slots__ = ("name", "span_id", "parent_id", "t_start_ns", "t_end_ns", "attrs")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str,
        t_start_ns: int,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start_ns = t_start_ns
        self.t_end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def done(self) -> bool:
        return self.t_end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.t_end_ns is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.t_end_ns - self.t_start_ns

    def as_record(self, trace_id: str) -> Dict[str, object]:
        return {
            "type": SPAN_RECORD_TYPE,
            "trace_id": trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start_ns": self.t_start_ns,
            "t_end_ns": self.t_end_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # debugging aid only
        state = f"{self.duration_ns}ns" if self.done else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class SpanContext:
    """What crosses a process boundary: the trace id + a parent span id."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: Dict[str, str]) -> "SpanContext":
        return cls(str(wire["trace_id"]), str(wire["span_id"]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __repr__(self) -> str:
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"


class Tracer:
    """Creates, times, and sinks spans for one trace.

    One tracer per process per trace: the root tracer (``Tracer()``)
    mints a fresh trace id and writes the stream header; worker-side
    tracers (:meth:`from_context`) join an existing trace under a
    shipped parent span and hold their records for the parent to
    :meth:`adopt`.
    """

    def __init__(
        self,
        ring_size: int = 4096,
        jsonl_path: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        trace_id: Optional[str] = None,
        observations: bool = False,
        _prefix: str = "",
        _parent_id: str = "",
    ) -> None:
        if ring_size < 0:
            raise ValueError("ring_size must be non-negative")
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.registry = registry
        #: Attach each epoch's complete predictor input (the wire
        #: ``EpochResult`` plus oracle truth lines) to its ``epoch``
        #: span and the full ``sim_config`` to the ``run`` span -
        #: everything ``repro replay`` and ``repro learn extract`` need.
        self.observations = observations
        #: Finished-span records, most recent ``ring_size`` (0 = unbounded;
        #: worker tracers use that so every record ships back intact).
        self.records: Deque[Dict[str, object]] = deque(
            maxlen=ring_size if ring_size > 0 else None
        )
        self.jsonl_path = jsonl_path
        self._fh = None
        self._prefix = _prefix
        self._root_parent = _parent_id
        self._next_id = 0
        self.total_spans = 0
        #: Records of any type evicted from the ring (the JSONL keeps them).
        self.dropped = 0
        #: Active context-manager span chain (``with tracer.span(...)``).
        self._stack: List[Span] = []
        # Map the monotonic perf clock onto the shared unix epoch once,
        # so spans from every process land on one comparable timeline.
        self._unix_anchor_ns = time.time_ns()
        self._perf_anchor_ns = time.perf_counter_ns()
        if not _prefix:
            self._emit_record(self._header_record())

    # ------------------------------------------------------------------
    # Construction across process boundaries

    @classmethod
    def from_context(cls, ctx: SpanContext) -> "Tracer":
        """Worker-side tracer continuing a shipped trace.

        Records are kept unbounded (``ring_size=0``) because the whole
        point is to ship them all back; no header record and no JSONL -
        the parent owns the sinks.
        """
        return cls(
            ring_size=0,
            trace_id=ctx.trace_id,
            _prefix=ctx.span_id,
            _parent_id=ctx.span_id,
        )

    def context(self, span: Optional[Span] = None) -> SpanContext:
        """The propagation context of ``span`` (or the current span)."""
        if span is None:
            span = self._stack[-1] if self._stack else None
        return SpanContext(
            self.trace_id, span.span_id if span is not None else self._root_parent
        )

    # ------------------------------------------------------------------
    # Span lifecycle

    def _now_ns(self) -> int:
        return self._unix_anchor_ns + (
            time.perf_counter_ns() - self._perf_anchor_ns
        )

    def _mint_id(self) -> str:
        self._next_id += 1
        n = str(self._next_id)
        return f"{self._prefix}.{n}" if self._prefix else n

    def start(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> Span:
        """Open a span. ``parent=None`` nests under the current
        context-manager span (or the tracer's root parent)."""
        if parent is not None:
            parent_id = parent.span_id
        elif self._stack:
            parent_id = self._stack[-1].span_id
        else:
            parent_id = self._root_parent
        return Span(name, self._mint_id(), parent_id, self._now_ns(), attrs)

    def finish(self, span: Span, **attrs: object) -> Span:
        """Stamp the end time and sink the record (idempotence guarded)."""
        if span.done:
            raise ValueError(f"span {span.name!r} already finished")
        if attrs:
            span.attrs.update(attrs)
        span.t_end_ns = self._now_ns()
        self.total_spans += 1
        if self.registry is not None:
            self.registry.inc("trace_spans_total")
            self.registry.inc(f"trace_spans_{span.name}")
        self._emit_record(span.as_record(self.trace_id))
        return span

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """``with tracer.span("epoch", epoch=3):`` - nested via a stack."""
        s = self.start(name, **attrs)
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            self.finish(s)

    def event(self, name: str, **attrs: object) -> Span:
        """A zero-duration point-in-time span (e.g. a drift alert)."""
        s = self.start(name, **attrs)
        now = self._now_ns()
        s.t_end_ns = now if now > s.t_start_ns else s.t_start_ns
        self.total_spans += 1
        if self.registry is not None:
            self.registry.inc("trace_spans_total")
        self._emit_record(s.as_record(self.trace_id))
        return s

    # ------------------------------------------------------------------
    # Sinks + cross-process merge

    def emit(self, record: Dict[str, object]) -> None:
        """Sink a non-span record into the span stream (drift alerts)."""
        self._emit_record(record)

    def collect(self) -> List[Dict[str, object]]:
        """Drain every held record (worker side, to ship with a result)."""
        out = list(self.records)
        self.records.clear()
        return out

    def adopt(self, records: Iterable[Dict[str, object]]) -> int:
        """Fold a worker tracer's shipped records into this tracer's
        sinks; returns how many were adopted."""
        n = 0
        for record in records:
            n += 1
            if record.get("type") == SPAN_RECORD_TYPE:
                self.total_spans += 1
                if self.registry is not None:
                    self.registry.inc("trace_spans_total")
                    self.registry.inc(f"trace_spans_{record.get('name')}")
            self._emit_record(record)
        return n

    def _header_record(self) -> Dict[str, object]:
        from repro.telemetry.schema import build_meta

        return {"type": "trace", "trace_id": self.trace_id, **build_meta()}

    def _emit_record(self, record: Dict[str, object]) -> None:
        if self.records.maxlen is not None and (
            len(self.records) == self.records.maxlen
        ):
            self.dropped += 1
        self.records.append(record)
        if self.jsonl_path is not None:
            if self._fh is None:
                self._fh = open(self.jsonl_path, "w", encoding="utf-8")
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        """Flush and close the JSONL sink, if one is open."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def span_records(tracer: Optional[Tracer]) -> List[Dict[str, object]]:
    """The tracer's held records, or ``[]`` for a disabled tracer."""
    return list(tracer.records) if tracer is not None else []


__all__ = ["Span", "SpanContext", "Tracer", "SPAN_RECORD_TYPE", "span_records"]

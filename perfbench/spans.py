"""Parent-aware spans around the program's public entry points.

The traced run wraps a fixed set of methods at class level, so every
call - in the simulation loop, inside the oracle's forks and on the
decision service's event-loop thread - records one span: name, start,
end and the span that was open on the same thread when it began. Spans
stay in memory and are written out once, when the benchmark ends.

A layer's self time is its spans' duration minus the part covered by
their child spans. ``gpu.run_epoch`` calls made under
``dvfs.oracle.sample`` are the oracle's pre-executions; they are kept
apart as ``gpu.run_epoch.fork``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, class, method, span name) for every traced entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.gpu.gpu", "Gpu", "run_epoch", "gpu.run_epoch"),
    ("repro.dvfs.oracle", "OracleSampler", "sample", "dvfs.oracle.sample"),
    ("repro.core.controller", "DvfsController", "decide", "core.controller.decide"),
    ("repro.core.controller", "DvfsController", "observe", "core.controller.observe"),
    ("repro.power.energy", "EnergyAccountant", "add_epoch", "power.add_epoch"),
)

#: Span the benchmark opens around each operation it times.
OP_SPAN = "bench.op"
#: Span around each timing of the host's reference loop.
CALIBRATE_SPAN = "bench.calibrate"
FORK_SPAN = "gpu.run_epoch.fork"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class SpanTracer:
    """Collects spans from any thread; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1))

    def _wrap(self, original, name: str):
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Wrap every entry point; restore the originals on exit."""
        patched = []
        try:
            for module, cls_name, attr, name in ENTRY_POINTS:
                owner = getattr(importlib.import_module(module), cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
        for owner, attr, original in patched:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")

    def write(self, path: str) -> None:
        rows = [[s.sid, s.parent, s.name, s.t0, s.t1] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["sid", "parent", "name", "t0", "t1"], "spans": rows}, fh)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per span name, with oracle forks split out.

    Also returns ``wall``: the summed duration of the ``bench.op``
    spans, less the reference-loop timings inside them. On one thread,
    the self times of the ``bench.op`` spans and of every traced layer
    below them sum to it exactly.
    """
    by_id = {s.sid: s for s in spans}
    covered: Dict[int, float] = defaultdict(float)
    calibrating: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
            if s.name == CALIBRATE_SPAN:
                calibrating[s.parent] += s.duration

    def under_oracle(s: Span) -> bool:
        parent = by_id.get(s.parent) if s.parent is not None else None
        while parent is not None:
            if parent.name == "dvfs.oracle.sample":
                return True
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return False

    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        name = FORK_SPAN if s.name == "gpu.run_epoch" and under_oracle(s) else s.name
        totals[name] += s.duration - covered[s.sid]
        if s.name == OP_SPAN:
            totals["wall"] += s.duration - calibrating[s.sid]
    return dict(totals)


def call_counts(spans: List[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s.name] += 1
    return dict(counts)


__all__ = [
    "CALIBRATE_SPAN",
    "ENTRY_POINTS",
    "FORK_SPAN",
    "OP_SPAN",
    "Span",
    "SpanTracer",
    "call_counts",
    "self_times",
]

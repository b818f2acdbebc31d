"""Trace exporters: Chrome-trace/Perfetto JSON from a trace stream.

The exported file loads directly in https://ui.perfetto.dev (or
``chrome://tracing``). The ``epoch`` spans' decision digest renders on
the simulated clock:

* each V/f **domain** is a named thread (``tid = domain + 1``),
* each recorded **epoch** is a complete slice (``ph: "X"``) on its
  domain's track, named after the chosen frequency and carrying the
  prediction/actual/error detail in ``args``,
* per-domain **frequency residency** and the GPU-wide **epoch energy**
  are counter tracks (``ph: "C"``) - the staircase the paper's Figure 16
  aggregates,
* **mispredictions** (chosen != oracle-best frequency) are thread-scoped
  instant events (``ph: "i"``), so error clusters are visible at a
  glance.

Timestamps are simulated nanoseconds divided by 1000 (the trace format
counts microseconds), so one 1 µs epoch renders as one 1-unit slice.

Every **span** record also renders on the wall clock, as a second
process ("repro spans"): each span is a complete slice, carrying its
scalar attrs, whose track (tid) is its lane - one lane for spans minted by the
root tracer, one per worker prefix, so parallel sweep cells sit on
parallel tracks. Span timestamps are *wall*-clock nanoseconds
re-anchored so the earliest span starts at ts 0, putting the wall
timeline on the same scale as the simulated one. Drift **alert**
records carry no clock of their own and render as process-scoped
instants at the end of the last span seen before them in the stream.

:func:`validate_trace_events` is the contract checker for all of the
above - CI runs it over exported artifacts so a malformed event (missing
``ph``/``ts``/``pid``, unmatched ``B``/``E``, negative duration,
non-monotone track) fails the build before a trace viewer rejects it.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.telemetry.schema import attrs_of, span_attrs, trace_meta

PathLike = Union[str, pathlib.Path]

_PID = 0
#: Span records render as their own process so the wall-clock span
#: timeline never interleaves with the sim-clock epoch tracks.
_SPAN_PID = 1


def _us(ns: float) -> float:
    return ns / 1000.0


def _span_lane(span_id: str) -> str:
    """The track key of a span: worker spans (``"7.3"``) group under
    their prefix (``"7"``); root-tracer spans share one lane."""
    return span_id.split(".", 1)[0] if "." in span_id else ""


def perfetto_trace(records: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Convert a trace stream to a Chrome-trace JSON object."""
    records = list(records)
    meta = trace_meta(records)
    events: List[Dict[str, object]] = []

    epochs = span_attrs(records, "epoch")
    domains = {int(dom["domain"]) for attrs in epochs for dom in attrs["domains"]}
    span_anchor_ns: Optional[float] = None
    lanes: Dict[str, int] = {}
    for rec in records:
        if rec.get("type") == "span":
            t0 = float(rec["t_start_ns"])
            if span_anchor_ns is None or t0 < span_anchor_ns:
                span_anchor_ns = t0
            lane = _span_lane(str(rec["span_id"]))
            if lane not in lanes:
                lanes[lane] = len(lanes) + 1

    events.append(
        {"ph": "M", "name": "process_name", "pid": _PID,
         "args": {"name": "repro DVFS epochs"}}
    )
    for d in sorted(domains):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": _PID, "tid": d + 1,
             "args": {"name": f"domain {d}"}}
        )
    if lanes:
        events.append(
            {"ph": "M", "name": "process_name", "pid": _SPAN_PID,
             "args": {"name": "repro spans"}}
        )
        for lane, tid in lanes.items():
            events.append(
                {"ph": "M", "name": "thread_name", "pid": _SPAN_PID, "tid": tid,
                 "args": {"name": f"spans {lane}" if lane else "spans"}}
            )

    for attrs in epochs:
        t0_ns, t1_ns = float(attrs["t_start_ns"]), float(attrs["t_end_ns"])
        t0, dur = _us(t0_ns), _us(t1_ns - t0_ns)
        events.append(
            {"ph": "C", "name": "epoch energy", "pid": _PID, "ts": t0,
             "args": {"energy": attrs.get("energy", 0.0)}}
        )
        for dom in attrs["domains"]:
            tid = int(dom["domain"]) + 1
            freq = dom.get("freq_ghz")
            events.append(
                {
                    "ph": "X",
                    "name": f"{freq:.2f} GHz" if freq is not None else "epoch",
                    "cat": "epoch",
                    "pid": _PID,
                    "tid": tid,
                    "ts": t0,
                    "dur": dur,
                    "args": {
                        "epoch": dom["epoch"],
                        "pred_commits": dom.get("pred_commits"),
                        "actual_commits": dom.get("actual_commits"),
                        "rel_error": dom.get("rel_error"),
                        "oracle_freq_ghz": dom.get("oracle_freq_ghz"),
                        "busy_ns": dom.get("busy_ns"),
                        "stall_ns": dom.get("stall_ns"),
                    },
                }
            )
            events.append(
                {"ph": "C", "name": f"freq domain {dom['domain']}", "pid": _PID,
                 "ts": t0, "args": {"GHz": freq}}
            )
            if dom.get("mispredicted"):
                events.append(
                    {
                        "ph": "i",
                        "name": "mispredict",
                        "s": "t",
                        "pid": _PID,
                        "tid": tid,
                        "ts": t0,
                        "args": {
                            "chosen_ghz": freq,
                            "oracle_ghz": dom.get("oracle_freq_ghz"),
                        },
                    }
                )

    last_span_end_us = 0.0
    for rec in records:
        rtype = rec.get("type")
        if rtype == "span":
            t0_ns = float(rec["t_start_ns"]) - (span_anchor_ns or 0.0)
            dur_ns = float(rec["t_end_ns"]) - float(rec["t_start_ns"])
            last_span_end_us = _us(t0_ns + dur_ns)
            # Scalars only: the epoch digest and observations already
            # render on the sim-clock tracks above.
            args = {
                k: v for k, v in attrs_of(rec).items()
                if not isinstance(v, (dict, list))
            }
            args["span_id"] = rec["span_id"]
            if rec.get("parent_id"):
                args["parent_id"] = rec["parent_id"]
            events.append(
                {
                    "ph": "X",
                    "name": str(rec["name"]),
                    "cat": "span",
                    "pid": _SPAN_PID,
                    "tid": lanes[_span_lane(str(rec["span_id"]))],
                    "ts": _us(t0_ns),
                    "dur": _us(dur_ns),
                    "args": args,
                }
            )
        elif rtype == "alert":
            # Alerts carry an observation index, not a clock: pin the
            # instant to the end of the last span seen before it.
            events.append(
                {
                    "ph": "i",
                    "name": f"drift {rec.get('signal')} ({rec.get('kind')})",
                    "s": "p",
                    "pid": _SPAN_PID,
                    "ts": last_span_end_us,
                    "args": {
                        "signal": rec.get("signal"),
                        "kind": rec.get("kind"),
                        "value": rec.get("value"),
                        "threshold": rec.get("threshold"),
                    },
                }
            )

    # Stable-sort samples by timestamp (metadata first) so every track
    # is monotone - viewers tolerate disorder, the contract checker
    # doesn't have to.
    events.sort(key=lambda e: (0, 0.0) if e["ph"] == "M" else (1, float(e["ts"])))
    trace: Dict[str, object] = {"traceEvents": events, "displayTimeUnit": "ns"}
    if meta is not None:
        trace["otherData"] = meta
    return trace


def save_perfetto_json(
    records: Iterable[Mapping[str, object]], path: PathLike
) -> int:
    """Write the Perfetto trace; returns the number of trace events."""
    trace = perfetto_trace(records)
    pathlib.Path(path).write_text(json.dumps(trace, sort_keys=True))
    return len(trace["traceEvents"])  # type: ignore[arg-type]


#: Event phases this exporter's contract admits, and what each needs.
_KNOWN_PHASES = frozenset("MXCiBE")


def validate_trace_events(
    events: Iterable[Mapping[str, object]]
) -> Dict[str, int]:
    """Validate Chrome-trace events against the viewer contract.

    Checks, raising ``ValueError`` on the first violation:

    * every event has ``ph`` (a known phase), ``name`` and ``pid``;
    * every non-metadata event has a numeric, non-negative ``ts``;
    * ``X`` (complete) events carry a ``tid`` and a numeric ``dur >= 0``;
    * ``B``/``E`` (duration) events match up per ``(pid, tid)`` - every
      ``E`` closes the most recent open ``B`` of the same name, nothing
      is left open at the end;
    * per ``(pid, tid)`` track, timestamps are non-decreasing.

    Returns per-phase event counts (CI logs them next to the artifact).
    """
    counts: Dict[str, int] = {}
    last_ts: Dict[Tuple[object, object], float] = {}
    open_b: Dict[Tuple[object, object], List[str]] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        if "name" not in event:
            raise ValueError(f"event {i} ({ph}): missing name")
        if "pid" not in event:
            raise ValueError(f"event {i} ({ph}): missing pid")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i} ({ph} {event.get('name')!r}): bad ts {ts!r}")
        track = (event["pid"], event.get("tid"))
        if ts < last_ts.get(track, 0.0):
            raise ValueError(
                f"event {i} ({ph} {event.get('name')!r}): ts {ts} goes "
                f"backwards on track {track}"
            )
        last_ts[track] = float(ts)
        if ph == "X":
            if "tid" not in event:
                raise ValueError(f"event {i} (X {event.get('name')!r}): missing tid")
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"event {i} (X {event.get('name')!r}): bad dur {dur!r}"
                )
        elif ph == "B":
            open_b.setdefault(track, []).append(str(event.get("name")))
        elif ph == "E":
            stack = open_b.get(track)
            if not stack:
                raise ValueError(
                    f"event {i} (E {event.get('name')!r}): no open B on {track}"
                )
            opened = stack.pop()
            if "name" in event and str(event["name"]) != opened:
                raise ValueError(
                    f"event {i}: E {event['name']!r} closes B {opened!r} on {track}"
                )
    for track, stack in open_b.items():
        if stack:
            raise ValueError(f"unclosed B events on track {track}: {stack}")
    return counts


def validate_trace_json(path: PathLike) -> Dict[str, int]:
    """Load an exported trace file and validate its events."""
    data = json.loads(pathlib.Path(path).read_text())
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array")
    return validate_trace_events(events)


__all__ = [
    "perfetto_trace",
    "save_perfetto_json",
    "validate_trace_events",
    "validate_trace_json",
]

"""Chrome-trace/Perfetto exporter contract.

The exported JSON must satisfy the viewer contract (required
``ph``/``ts``/``pid``/``name`` fields, non-negative durations, monotone
per-track timestamps, matched ``B``/``E`` pairs) - pinned here both for
real exports (epoch spans' decision digest, span timelines, alerts) and for
:func:`~repro.telemetry.exporters.validate_trace_events` itself, which
CI runs over uploaded artifacts.
"""

from __future__ import annotations

import json

import pytest

from repro.config import small_config
from repro.obs import Tracer
from repro.runtime.executor import SweepTask, run_task
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    perfetto_trace,
    save_perfetto_json,
    validate_trace_events,
    validate_trace_json,
)


def record_small_run():
    """A completed dgemm/PCSTALL run's trace records."""
    task = SweepTask(
        "dgemm",
        "PCSTALL",
        small_config(n_cus=2, waves_per_cu=4),
        scale=0.12,
        max_epochs=40,
        oracle_sample_freqs=3,
        collect_accuracy=True,
    )
    tracer = Tracer(ring_size=0)
    assert run_task(task, tracer=tracer).completed
    return list(tracer.records)


SPAN_RECORDS = [
    {"type": "trace", "trace_id": "t1", "schema_version": TRACE_SCHEMA_VERSION,
     "repro_version": "0"},
    {"type": "span", "trace_id": "t1", "span_id": "1", "parent_id": "",
     "name": "sweep", "t_start_ns": 1_000_000, "t_end_ns": 9_000_000,
     "attrs": {"n_tasks": 2}},
    {"type": "span", "trace_id": "t1", "span_id": "2", "parent_id": "1",
     "name": "cell", "t_start_ns": 1_500_000, "t_end_ns": 5_000_000,
     "attrs": {}},
    {"type": "span", "trace_id": "t1", "span_id": "2.1", "parent_id": "2",
     "name": "run", "t_start_ns": 2_000_000, "t_end_ns": 4_000_000,
     "attrs": {}},
    {"type": "alert", "signal": "rel_error", "kind": "alert", "value": 0.8,
     "threshold": 0.5, "window_count": 16, "at_index": 40},
]


class TestEpochExport:
    def test_real_export_passes_the_contract(self):
        trace = perfetto_trace(record_small_run())
        counts = validate_trace_events(trace["traceEvents"])
        assert counts["M"] >= 3  # process + one thread per domain
        assert counts["X"] > 0 and counts["C"] > 0
        assert trace["otherData"]["workload"] == "dgemm"

    def test_domain_slices_carry_decision_args(self):
        trace = perfetto_trace(record_small_run())
        slices = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "epoch"]
        assert slices
        for event in slices:
            assert event["pid"] == 0 and event["tid"] >= 1
            assert event["dur"] >= 0
            assert "pred_commits" in event["args"]
            assert "rel_error" in event["args"]

    def test_save_round_trips_through_file_validator(self, tmp_path):
        path = tmp_path / "trace.json"
        n = save_perfetto_json(record_small_run(), path)
        counts = validate_trace_json(path)
        assert sum(counts.values()) == n


class TestSpanExport:
    def test_spans_render_on_their_own_process(self):
        trace = perfetto_trace(SPAN_RECORDS)
        events = trace["traceEvents"]
        validate_trace_events(events)

        procs = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "repro spans" in procs
        slices = {e["args"]["span_id"]: e for e in events
                  if e["ph"] == "X" and e.get("cat") == "span"}
        assert set(slices) == {"1", "2", "2.1"}
        # Wall timestamps are re-anchored: the earliest span starts at 0.
        assert slices["1"]["ts"] == 0.0
        assert slices["1"]["dur"] == pytest.approx(8000.0)  # us
        # Root-tracer spans and the worker ("2.*") get separate lanes.
        assert slices["1"]["tid"] == slices["2"]["tid"]
        assert slices["2.1"]["tid"] != slices["1"]["tid"]
        assert slices["2.1"]["args"]["parent_id"] == "2"

    def test_alert_renders_as_instant_pinned_to_last_span(self):
        trace = perfetto_trace(SPAN_RECORDS)
        (instant,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "drift rel_error (alert)"
        assert instant["s"] == "p"
        # Pinned to the end of the last span in stream order (the run
        # span, ending 3 ms after the anchor).
        assert instant["ts"] == pytest.approx(3000.0)
        assert instant["args"]["value"] == 0.8

    def test_merged_epoch_and_span_streams_validate(self, tmp_path):
        """One trace renders both the sim-clock epoch tracks and the
        wall-clock span timeline, and the two validate together."""
        path = tmp_path / "merged.json"
        save_perfetto_json(record_small_run(), path)
        counts = validate_trace_json(path)
        events = json.loads(path.read_text())["traceEvents"]
        run_spans = [
            e for e in events if e.get("cat") == "span" and e["name"] == "run"
        ]
        assert len(run_spans) == 1
        # Span args keep the scalars; the digest renders on epoch tracks.
        assert run_spans[0]["args"]["workload"] == "dgemm"
        assert "pc" not in run_spans[0]["args"]
        assert any(e.get("cat") == "epoch" for e in events)
        assert counts["X"] > counts["M"]


class TestValidator:
    def base(self):
        return [
            {"ph": "M", "name": "process_name", "pid": 0,
             "args": {"name": "p"}},
            {"ph": "X", "name": "a", "pid": 0, "tid": 1, "ts": 0.0,
             "dur": 5.0},
            {"ph": "X", "name": "b", "pid": 0, "tid": 1, "ts": 2.0,
             "dur": 1.0},
        ]

    def test_accepts_well_formed_events(self):
        assert validate_trace_events(self.base()) == {"M": 1, "X": 2}

    def test_matched_b_e_pairs_accepted(self):
        events = [
            {"ph": "B", "name": "outer", "pid": 0, "tid": 1, "ts": 0.0},
            {"ph": "B", "name": "inner", "pid": 0, "tid": 1, "ts": 1.0},
            {"ph": "E", "name": "inner", "pid": 0, "tid": 1, "ts": 2.0},
            {"ph": "E", "name": "outer", "pid": 0, "tid": 1, "ts": 3.0},
        ]
        assert validate_trace_events(events) == {"B": 2, "E": 2}

    @pytest.mark.parametrize("mutate,complaint", [
        (lambda e: e[1].__setitem__("ph", "Z"), "unknown phase"),
        (lambda e: e[1].pop("name"), "missing name"),
        (lambda e: e[1].pop("pid"), "missing pid"),
        (lambda e: e[1].pop("ts"), "bad ts"),
        (lambda e: e[1].__setitem__("ts", -1.0), "bad ts"),
        (lambda e: e[2].__setitem__("ts", -0.5), "bad ts"),
        (lambda e: e[1].__setitem__("ts", 3.0), "goes backwards"),
        (lambda e: e[1].pop("tid"), "missing tid"),
        (lambda e: e[1].pop("dur"), "bad dur"),
        (lambda e: e[1].__setitem__("dur", -2.0), "bad dur"),
    ])
    def test_rejects_contract_violations(self, mutate, complaint):
        events = self.base()
        mutate(events)
        with pytest.raises(ValueError, match=complaint):
            validate_trace_events(events)

    def test_rejects_unmatched_duration_events(self):
        with pytest.raises(ValueError, match="no open B"):
            validate_trace_events([
                {"ph": "E", "name": "x", "pid": 0, "tid": 1, "ts": 0.0},
            ])
        with pytest.raises(ValueError, match="unclosed B"):
            validate_trace_events([
                {"ph": "B", "name": "x", "pid": 0, "tid": 1, "ts": 0.0},
            ])
        with pytest.raises(ValueError, match="closes B"):
            validate_trace_events([
                {"ph": "B", "name": "x", "pid": 0, "tid": 1, "ts": 0.0},
                {"ph": "E", "name": "y", "pid": 0, "tid": 1, "ts": 1.0},
            ])

    def test_validate_json_requires_event_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": []}))
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_trace_json(path)

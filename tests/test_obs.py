"""Observability stack: span tracing, drift monitoring, Prometheus, logs.

The two contracts this suite anchors:

* **Zero overhead when off** - with no tracer attached, no tracing
  object is ever constructed and RunResults are bit-identical to a
  traced run's.
* **Strictly observational when on** - a traced sweep / a traced
  serving session produces exactly the results and decisions an
  untraced one does; spans, alerts and metrics only describe them.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import threading

import pytest

from repro.config import small_config
from repro.obs import (
    DriftConfig,
    DriftMonitor,
    ExpositionError,
    IntervalSummary,
    SpanContext,
    Tracer,
    diff_metrics,
    iter_jsonl,
    parse_exposition,
    render_prometheus,
    sanitise_name,
    span_records,
    summarize_records,
)
from repro.obs.log import JsonFormatter, configure_logging, get_logger
from repro.runtime.executor import SweepExecutor, SweepTask, run_task
from repro.runtime.progress import SweepInstrumentation
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import validate_records


def small_task(design="PCSTALL", workload="dgemm", max_epochs=40):
    return SweepTask(
        workload,
        design,
        small_config(n_cus=2, waves_per_cu=4),
        scale=0.12,
        max_epochs=max_epochs,
        oracle_sample_freqs=3,
        collect_accuracy=True,
    )


# ----------------------------------------------------------------------
# Tracer unit behaviour


class TestTracer:
    def test_ids_are_monotonic_and_parented(self):
        tr = Tracer(ring_size=0)
        a = tr.start("sweep")
        b = tr.start("cell", parent=a)
        c = tr.start("cell", parent=a)
        assert (a.span_id, b.span_id, c.span_id) == ("1", "2", "3")
        assert b.parent_id == a.span_id and c.parent_id == a.span_id
        for span in (c, b, a):
            tr.finish(span)
        assert tr.total_spans == 3

    def test_context_manager_nests(self):
        tr = Tracer(ring_size=0)
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            plain = tr.start("sibling")
            assert plain.parent_id == outer.span_id
            tr.finish(plain)
        names = [r["name"] for r in tr.records if r["type"] == "span"]
        assert names == ["inner", "sibling", "outer"]

    def test_finish_twice_raises(self):
        tr = Tracer(ring_size=0)
        span = tr.start("x")
        tr.finish(span)
        with pytest.raises(ValueError, match="already finished"):
            tr.finish(span)

    def test_ring_bounds_memory(self):
        tr = Tracer(ring_size=4)
        for i in range(10):
            tr.finish(tr.start("s", i=i))
        assert len(tr.records) == 4
        assert tr.total_spans == 10
        assert tr.dropped > 0

    def test_every_ring_eviction_is_counted(self):
        """A non-span record (an alert) that evicts from a full ring -
        here the stream header - counts as dropped like any other."""
        tr = Tracer(ring_size=2)
        tr.finish(tr.start("s"))
        tr.emit({"type": "alert", "signal": "rel_error", "kind": "alert"})
        assert [r["type"] for r in tr.records] == ["span", "alert"]
        assert tr.dropped == 1

    def test_event_is_zero_or_positive_duration(self):
        tr = Tracer(ring_size=0)
        span = tr.event("alert", signal="rel_error")
        assert span.done and span.duration_ns >= 0

    def test_header_and_jsonl_sink_validate(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with Tracer(ring_size=0, jsonl_path=str(path)) as tr:
            with tr.span("cell"):
                tr.finish(tr.start("step", step=0))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "trace"
        assert records[0]["trace_id"] == tr.trace_id
        assert records[0]["repro_version"]
        validate_records(records)  # raises on any schema violation

    def test_registry_counts_spans(self):
        reg = MetricsRegistry()
        tr = Tracer(ring_size=0, registry=reg)
        tr.finish(tr.start("epoch"))
        tr.finish(tr.start("epoch"))
        assert reg.counter("trace_spans_total").value == 2
        assert reg.counter("trace_spans_epoch").value == 2

    def test_cross_process_propagation_round_trip(self):
        parent = Tracer(ring_size=0)
        cell = parent.start("cell")
        wire = parent.context(cell).to_wire()
        assert SpanContext.from_wire(wire) == parent.context(cell)

        worker = Tracer.from_context(SpanContext.from_wire(wire))
        assert worker.trace_id == parent.trace_id
        run = worker.start("run")
        worker.finish(run)
        shipped = worker.collect()
        assert not worker.records  # collect() drains

        parent.adopt(shipped)
        parent.finish(cell)
        spans = {r["name"]: r for r in parent.records if r["type"] == "span"}
        # The worker's span id is minted under the cell's prefix and
        # parents onto the shipped cell span - unique without any
        # cross-process coordination.
        assert spans["run"]["span_id"] == f"{cell.span_id}.1"
        assert spans["run"]["parent_id"] == cell.span_id
        assert spans["run"]["trace_id"] == parent.trace_id

    def test_span_records_helper_handles_none(self):
        assert span_records(None) == []
        tr = Tracer(ring_size=0)
        tr.finish(tr.start("x"))
        assert len(span_records(tr)) == 2  # header + span


# ----------------------------------------------------------------------
# The zero-overhead / bit-identical contract


class TestTracingContract:
    def test_off_is_allocation_free_and_bit_identical(self, monkeypatch):
        import repro.obs.trace as trace_mod

        task = small_task()
        with Tracer(ring_size=0) as tracer:
            traced = run_task(task, tracer=tracer)
        assert tracer.total_spans > 0

        def boom(self, *args, **kwargs):
            raise AssertionError("tracing-off path built a tracing object")

        monkeypatch.setattr(trace_mod.Tracer, "__init__", boom)
        monkeypatch.setattr(trace_mod.Span, "__init__", boom)
        untraced = run_task(task)
        assert untraced == traced

    def test_traced_run_spans_cover_every_epoch(self):
        task = small_task()
        with Tracer(ring_size=0) as tr:
            result = run_task(task, tracer=tr)
        spans = [r for r in tr.records if r["type"] == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["run"]) == 1
        run = by_name["run"][0]
        assert run["attrs"]["workload"] == "dgemm"
        assert len(by_name["epoch"]) == result.epochs
        assert all(s["parent_id"] == run["span_id"] for s in by_name["epoch"])
        # collect_accuracy=True forces oracle sampling every epoch.
        assert len(by_name["oracle_sample"]) == result.epochs
        epoch_ids = {s["span_id"] for s in by_name["epoch"]}
        assert all(
            s["parent_id"] in epoch_ids for s in by_name["oracle_sample"]
        )
        for span in spans:
            assert span["t_end_ns"] >= span["t_start_ns"]


class TestTracedSweep:
    def test_parallel_sweep_spans_and_results(self):
        tasks = [small_task(design=d) for d in ("PCSTALL", "STALL")]
        plain = [run_task(t) for t in tasks]

        tracer = Tracer(ring_size=0)
        executor = SweepExecutor(
            max_workers=2,
            cache=None,
            progress=SweepInstrumentation(max_workers=2),
            tracer=tracer,
        )
        results = executor.run(tasks)
        assert results == plain  # tracing never perturbs results

        spans = [r for r in tracer.records if r["type"] == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (sweep,) = by_name["sweep"]
        cells = by_name["cell"]
        assert len(cells) == 2
        assert all(c["parent_id"] == sweep["span_id"] for c in cells)
        assert {c["attrs"]["status"] for c in cells} == {"ok"}
        cell_ids = {c["span_id"] for c in cells}
        runs = by_name["run"]
        assert len(runs) == 2
        for run in runs:
            # Worker-minted ids live under their cell span's prefix.
            assert run["parent_id"] in cell_ids
            assert run["span_id"].startswith(f"{run['parent_id']}.")
        assert len(by_name["epoch"]) == sum(r.epochs for r in results)


# ----------------------------------------------------------------------
# Drift monitoring


class _LogStub:
    def __init__(self):
        self.warnings = []
        self.infos = []

    def warning(self, msg, **kwargs):
        self.warnings.append(msg)

    def info(self, msg, **kwargs):
        self.infos.append(msg)


class TestDrift:
    def test_no_alert_below_min_count(self):
        monitor = DriftMonitor(DriftConfig(window=8, min_count=4))
        for _ in range(3):
            assert monitor.observe_error(1.0) is None
        assert monitor.alert_count == 0

    def test_alert_fires_on_threshold_crossing(self):
        monitor = DriftMonitor(DriftConfig(window=8, min_count=4))
        for _ in range(4):
            monitor.observe_error(0.1)
        assert monitor.alert_count == 0
        alert = None
        for _ in range(8):
            alert = monitor.observe_error(1.0) or alert
        assert alert is not None and alert.kind == "alert"
        assert alert.signal == "rel_error"
        assert alert.value > alert.threshold == 0.5
        assert "drift" in alert.render()

    def test_cooldown_suppresses_then_realerting(self):
        monitor = DriftMonitor(DriftConfig(window=4, min_count=2))
        fired = [
            i for i in range(10) if monitor.observe_error(1.0) is not None
        ]
        # First alert once min_count is met; the next only after a full
        # window of fresh evidence (cooldown defaults to the window).
        assert fired == [1, 5, 9]

    def test_recovery_announced_once(self):
        log = _LogStub()
        monitor = DriftMonitor(DriftConfig(window=4, min_count=2), log=log)
        for _ in range(4):
            monitor.observe_error(1.0)
        for _ in range(8):
            monitor.observe_error(0.0)
        kinds = [a.kind for a in monitor.alerts]
        assert kinds.count("alert") >= 1
        assert kinds.count("recovered") == 1
        assert len(log.warnings) == kinds.count("alert")
        assert len(log.infos) == 1

    def test_unknown_signal_needs_threshold(self):
        monitor = DriftMonitor(DriftConfig(thresholds={"latency_ms": 5.0}))
        assert monitor.observe("latency_ms", 1.0) is None
        with pytest.raises(ValueError, match="no threshold"):
            monitor.observe("unconfigured", 1.0)

    def test_shed_and_retry_signals(self):
        monitor = DriftMonitor(DriftConfig(window=4, min_count=4))
        for _ in range(4):
            monitor.observe_shed(True)
            monitor.observe_retry(False)
        assert monitor.mean("shed_rate") == 1.0
        assert monitor.mean("retry_rate") == 0.0
        assert [a.signal for a in monitor.alerts] == ["shed_rate"]

    def test_observe_trace_feeds_scored_errors_in_order(self):
        """Every scored domain's rel_error, epoch then domain order;
        unscored domains and other spans feed nothing."""
        def epoch(*errs):
            return {"type": "span", "name": "epoch",
                    "attrs": {"domains": [{"rel_error": e} for e in errs]}}

        records = [epoch(0.9, None), {"type": "span", "name": "oracle_sample"},
                   epoch(0.1, 0.2)]
        monitor = DriftMonitor()
        seen = []
        monitor.observe_error = seen.append
        monitor.observe_trace(records)
        assert seen == [0.9, 0.1, 0.2]

    def test_alert_fans_out_to_every_sink(self, tmp_path):
        """The acceptance scenario: synthetic accuracy degradation must
        surface in the span JSONL, the registry, and ``repro monitor``'s
        summary - all three."""
        path = tmp_path / "spans.jsonl"
        registry = MetricsRegistry()
        tracer = Tracer(ring_size=0, jsonl_path=str(path), registry=registry)
        monitor = DriftMonitor(
            DriftConfig(window=16, min_count=8),
            registry=registry,
            tracer=tracer,
        )
        for _ in range(8):
            monitor.observe_error(0.05)  # healthy phase
        assert monitor.alert_count == 0
        for _ in range(16):
            monitor.observe_error(0.9)  # degraded phase
        assert monitor.alert_count >= 1
        tracer.close()

        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["type"] == "alert" for r in records)
        assert any(
            r["type"] == "span" and r["name"] == "drift_alert" for r in records
        )
        assert registry.counter("drift_alerts_total").value >= 1
        assert registry.counter("drift_alerts_rel_error").value >= 1
        assert registry.gauge("drift_rel_error_level").value > 0.5

        summary = summarize_records(records)
        assert summary.alerts >= 1
        assert "ALERTS=" in summary.render()
        assert "rel_error" in summary.render()


# ----------------------------------------------------------------------
# Prometheus exposition


class TestPrometheus:
    def build_registry(self):
        reg = MetricsRegistry()
        reg.inc("service_requests", 7)
        reg.inc("weird name!", 1)
        reg.gauge("service_sessions").set(3)
        hist = reg.histogram("service_batch_size", (1.0, 2.0, 4.0))
        for v in (1, 1, 3, 9):
            hist.observe(v)
        return reg

    def test_render_parse_round_trip(self):
        text = render_prometheus(self.build_registry())
        samples = parse_exposition(text)
        assert samples[("service_requests", "")] == 7
        assert samples[("service_sessions", "")] == 3
        assert samples[("weird_name_", "")] == 1
        # Buckets are cumulative with +Inf == _count.
        assert samples[("service_batch_size_bucket", "le=1")] == 2
        assert samples[("service_batch_size_bucket", "le=2")] == 2
        assert samples[("service_batch_size_bucket", "le=4")] == 3
        assert samples[("service_batch_size_bucket", "le=+Inf")] == 4
        assert samples[("service_batch_size_count", "")] == 4
        assert samples[("service_batch_size_sum", "")] == 14

    def test_constant_labels_attach_everywhere(self):
        text = render_prometheus(
            self.build_registry(), labels={"config_hash": "abc123"}
        )
        samples = parse_exposition(text)
        assert all("config_hash=abc123" in key[1] for key in samples)

    def test_renders_snapshot_dict_identically(self):
        reg = self.build_registry()
        assert render_prometheus(reg.to_dict()) == render_prometheus(reg)

    def test_sweep_retry_metrics_expose_as_histogram(self):
        progress = SweepInstrumentation()
        for attempt in (1, 2):
            progress.record_retry("dgemm/PCSTALL", attempt,
                                  RuntimeError("boom"), 0.05 * attempt)
        samples = parse_exposition(render_prometheus(progress.registry))
        assert samples[("sweep_retries_total", "")] == 2
        assert samples[("sweep_retry_backoff_s_count", "")] == 2
        assert any(
            name == "sweep_retry_backoff_s_bucket" for name, _ in samples
        )

    def test_sanitise_name(self):
        assert sanitise_name("ok_name:sub") == "ok_name:sub"
        assert sanitise_name("99 problems") == "_99_problems"

    @pytest.mark.parametrize("body,complaint", [
        ("orphan 1\n", "lacks a preceding TYPE"),
        ("# TYPE x counter\nx 1\nx 2\n", "duplicate sample"),
        ("# TYPE x wibble\n", "unknown type"),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\nh_sum 1\nh_count 5\n',
            "not cumulative",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\nh_sum 1\nh_count 2\n',
            r"\+Inf",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\nh_bucket{le="+Inf"} 3\nh_sum 1\nh_count 2\n',
            "!= _count",
        ),
    ])
    def test_parse_rejects_contract_violations(self, body, complaint):
        with pytest.raises(ExpositionError, match=complaint):
            parse_exposition(body)


# ----------------------------------------------------------------------
# Monitor engine


class TestMonitor:
    def test_interval_summary_dispatch_and_render(self):
        summary = IntervalSummary()
        summary.add({"type": "span", "name": "epoch",
                     "t_start_ns": 0, "t_end_ns": 1_000_000,
                     "attrs": {"epoch": 0, "observation": {"result": {}},
                               "domains": [
                                   {"rel_error": 0.5, "mispredicted": True},
                                   {"rel_error": 0.1, "mispredicted": False},
                               ]}})
        summary.add({"type": "span", "name": "run",
                     "t_start_ns": 0, "t_end_ns": 2_000_000})
        summary.add({"type": "alert", "signal": "rel_error", "kind": "alert"})
        summary.add({"type": "alert", "signal": "rel_error",
                     "kind": "recovered"})
        line = summary.render("12:00:00")
        assert line.startswith("[12:00:00] records=4")
        assert "epochs=1" in line
        assert "spans=2" in line
        assert summary.domains == 2 and summary.observations == 1
        assert "err=0.300" in line
        assert "miss=1/2" in line
        assert "ALERTS=1(rel_error)" in line
        assert "recovered=1" in line
        assert "slowest=run:2.00ms" in line

    def test_iter_jsonl_skips_torn_tail(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"type": "epoch"}\n{"type": "dom')  # torn write
        with open(path) as fh:
            records = [r for r in iter_jsonl(fh) if r is not None]
        assert records == [{"type": "epoch"}]

    def test_iter_jsonl_follow_idles_out(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"type": "epoch"}\n')
        with open(path) as fh:
            seen = list(iter_jsonl(fh, follow=True, poll_s=0.01,
                                   idle_limit_s=0.05))
        assert {"type": "epoch"} in seen
        assert seen[-1] is None  # idle polls surface as None markers

    def test_diff_metrics_deltas(self):
        prev = {"counters": {"service_requests": 10, "service_decisions": 8},
                "sessions": 1, "gauges": {}}
        cur = {"counters": {"service_requests": 15, "service_decisions": 11,
                            "service_shed": 2, "drift_alerts_total": 1},
               "sessions": 2,
               "gauges": {"drift_shed_rate_level": 0.25, "other": 9}}
        line = diff_metrics(prev, cur)
        assert "req=+5" in line and "dec=+3" in line
        assert "shed=+2" in line and "ALERTS=+1" in line
        assert "sessions=2" in line
        assert "shed_rate=0.250" in line
        assert "other" not in line

    def test_diff_metrics_first_sample(self):
        line = diff_metrics(None, {"counters": {"service_requests": 4}})
        assert "req=+4" in line


# ----------------------------------------------------------------------
# Structured logging


class TestLogging:
    def test_json_lines_carry_extras(self):
        stream = io.StringIO()
        configure_logging("info", json_mode=True, stream=stream)
        try:
            get_logger("sweep").info("cell done", extra={"cell": "a/b"})
        finally:
            configure_logging("warning")  # restore the default
        payload = json.loads(stream.getvalue().strip())
        assert payload["msg"] == "cell done"
        assert payload["logger"] == "repro.sweep"
        assert payload["level"] == "info"
        assert payload["cell"] == "a/b"

    def test_line_format_inlines_extras(self):
        stream = io.StringIO()
        configure_logging("warning", json_mode=False, stream=stream)
        try:
            get_logger("service").warning("shed", extra={"session": 3})
        finally:
            configure_logging("warning")
        line = stream.getvalue()
        assert "repro.service: shed" in line and "session=3" in line

    def test_reconfigure_replaces_handler(self):
        configure_logging("info")
        root = configure_logging("warning")
        try:
            ours = [h for h in root.handlers
                    if getattr(h, "_repro_handler", False)]
            assert len(ours) == 1
        finally:
            configure_logging("warning")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_json_formatter_survives_unserialisable_extra(self):
        record = logging.LogRecord("repro.x", logging.INFO, "f", 1, "m",
                                   (), None)
        record.weird = object()
        payload = json.loads(JsonFormatter().format(record))
        assert payload["weird"].startswith("<object object")


# ----------------------------------------------------------------------
# Traced serving: bit-identical decisions + scrapeable metrics


class _ServerThread:
    """A DecisionService (with obs attachments) on a daemon thread."""

    def __init__(self, service):
        self.service = service
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def _http_get(port, path, accept=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        headers = {"Accept": accept} if accept else {}
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), \
            response.read().decode("utf-8")
    finally:
        conn.close()


class TestTracedService:
    def test_traced_serving_is_bit_identical_and_scrapeable(self, tmp_path):
        from repro.service.replay import replay_trace
        from repro.service.server import DecisionService, ServiceConfig
        trace_path = tmp_path / "offline.jsonl"
        task = small_task(max_epochs=20)
        with Tracer(jsonl_path=str(trace_path), observations=True) as offline:
            run_task(task, tracer=offline)

        registry = MetricsRegistry()
        tracer = Tracer(ring_size=0, registry=registry)
        drift = DriftMonitor(DriftConfig(window=8, min_count=4),
                             registry=registry, tracer=tracer)
        service = DecisionService(
            ServiceConfig(port=0, health_port=0),
            registry=registry, tracer=tracer, drift=drift,
        )
        server = _ServerThread(service)
        try:
            report = replay_trace(str(trace_path), port=service.port)
            assert report.bit_identical, report.render()
            assert report.decisions_compared > 0

            health_port = service.health_port
            status, ctype, text = _http_get(
                health_port, "/metrics?format=prometheus"
            )
            assert status == 200 and ctype.startswith("text/plain")
            samples = parse_exposition(text)
            assert any(
                name == "service_batch_size_bucket" for name, _ in samples
            )
            decisions = next(
                v for (name, _), v in samples.items()
                if name == "service_decisions"
            )
            assert decisions == report.decisions_compared
        finally:
            server.stop()

        spans = [r for r in tracer.records if r["type"] == "span"]
        names = {s["name"] for s in spans}
        assert {"connect", "session", "request", "decision"} <= names
        requests = [s for s in spans if s["name"] == "request"]
        assert len(requests) == report.decisions_compared
        session_ids = {s["span_id"] for s in spans if s["name"] == "session"}
        assert all(r["parent_id"] in session_ids for r in requests)
        decisions = [s for s in spans if s["name"] == "decision"]
        request_ids = {r["span_id"] for r in requests}
        assert all(d["parent_id"] in request_ids for d in decisions)
        # Admitted observations feed the shed_rate window.
        assert drift.mean("shed_rate") == 0.0


# ----------------------------------------------------------------------
# CLI surface


class TestObsCli:
    def test_metrics_from_snapshot_checks_and_renders(self, tmp_path, capsys):
        from repro.cli import main

        reg = MetricsRegistry()
        reg.inc("sweep_cells_total", 5)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(reg.to_dict()))
        assert main(["metrics", str(path), "--check"]) == 0
        out = capsys.readouterr()
        assert "exposition OK" in out.err
        assert parse_exposition(out.out)[("sweep_cells_total", "")] == 5

    def test_metrics_requires_one_source(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="exactly one"):
            main(["metrics"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["metrics", "x.json", "--url", "h:1"])

    def test_monitor_summarises_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "stream.jsonl"
        with Tracer(ring_size=0, jsonl_path=str(path)) as tr:
            tr.finish(tr.start("run"))
        assert main(["monitor", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records=2" in out and "spans=1" in out

    def test_trace_cli_spans_and_drift(self, tmp_path, capsys):
        from repro.cli import main

        spans = tmp_path / "trace.jsonl"
        perfetto = tmp_path / "trace.json"
        rc = main([
            "trace", "dgemm", "--design", "PCSTALL",
            "--cus", "2", "--waves", "4", "--scale", "0.12",
            "--max-epochs", "40", "--no-cache",
            "--jsonl", str(spans), "--drift", "--perfetto", str(perfetto),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans streamed" in out and "drift:" in out

        records = [json.loads(line)
                   for line in spans.read_text().splitlines()]
        counts = validate_records(records)
        assert counts["trace"] == 1
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"run", "epoch", "oracle_sample"} <= names

        from repro.telemetry import validate_trace_json

        counts = validate_trace_json(perfetto)
        assert counts["X"] > 0

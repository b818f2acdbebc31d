"""Telemetry subsystem: metrics, epoch digest on spans, exporters, accuracy.

The two contracts that matter most are pinned here:

* **Off means off** - a simulation without a tracer produces
  bit-identical results to one with a tracer attached, and never
  allocates a telemetry object (enforced by poisoning the constructors).
* **Mergeable** - registries merged from split runs equal a single
  run's registry, the property the parallel sweep runtime relies on.
"""

import json

import pytest

from repro.config import small_config
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.obs import Tracer
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    AccuracyReport,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunDigest,
    build_meta,
    check_meta,
    load_trace_jsonl,
    merge_all,
    percentile,
    perfetto_trace,
    save_perfetto_json,
    span_attrs,
    trace_meta,
    validate_records,
    validate_trace_file,
)
from repro.workloads import build_workload, workload

from test_engine_equivalence import result_signature

CFG = small_config(n_cus=2, waves_per_cu=4)
N_DOMAINS = CFG.gpu.n_domains


def run_sim(tracer=None, design="PCSTALL", name="dgemm", max_epochs=40):
    kernels = build_workload(workload(name), scale=0.15)
    ctrl = make_controller(design, CFG)
    sim = DvfsSimulation(
        kernels, ctrl, CFG, design_name=design, workload_name=name,
        collect_accuracy=True, max_epochs=max_epochs, oracle_sample_freqs=3,
        tracer=tracer,
    )
    return sim.run()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One PCSTALL run traced to ring + JSONL, spans counted."""
    path = tmp_path_factory.mktemp("telemetry") / "trace.jsonl"
    registry = MetricsRegistry()
    with Tracer(ring_size=0, jsonl_path=str(path), registry=registry) as tr:
        result = run_sim(tracer=tr)
    return tr, result, path


def domains_of(records):
    return [d for attrs in span_attrs(records, "epoch") for d in attrs["domains"]]


class TestMetrics:
    def test_counter_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7

    def test_gauge_merge_keeps_max(self):
        a, b = Gauge(), Gauge()
        a.set(2.0)
        b.set(5.0)
        a.merge(b)
        assert a.value == 5.0

    def test_histogram_quantile_and_mean(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.total == 4
        assert h.mean == pytest.approx(1.625)
        assert 0.0 < h.quantile(0.5) <= 2.0

    def test_histogram_merge_bounds_mismatch_raises(self):
        with pytest.raises(ValueError, match="bounds"):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_registry_redeclared_histogram_bounds_raise(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", (3.0,))

    def test_registry_roundtrip_through_dict(self):
        reg = MetricsRegistry()
        reg.inc("cells", 5)
        reg.gauge("peak").set(7.0)
        reg.histogram("wall", (0.1, 1.0)).observe(0.5)
        clone = MetricsRegistry.from_dict(json.loads(json.dumps(reg.to_dict())))
        assert clone.to_dict() == reg.to_dict()

    def test_split_merge_equals_single(self):
        """The parallel-sweep property: per-worker registries merged
        equal one registry that saw every observation."""
        whole = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(3)]
        # Binary-exact values: summation order cannot perturb the sums.
        for i, v in enumerate([0.25, 0.5, 1.5, 0.125, 2.0, 0.75]):
            for reg in (whole, workers[i % 3]):
                reg.inc("n")
                reg.histogram("err").observe(v)
                reg.gauge("peak").set(max(v, reg.gauge("peak").value))
        assert merge_all(workers).to_dict() == whole.to_dict()

    def test_percentile_exact(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestRecorder:
    """The per-epoch decision digest, recorded on the run/epoch spans."""

    def test_record_stream_shape(self, recorded):
        tr, result, _ = recorded
        assert result.completed
        counts = validate_records(tr.records)
        assert counts["trace"] == 1
        assert len(span_attrs(tr.records, "epoch")) == result.epochs
        assert len(domains_of(tr.records)) == result.epochs * N_DOMAINS
        (run,) = span_attrs(tr.records, "run")
        assert run["epochs"] == result.epochs
        assert run["pc"]  # PCSTALL attributes error to PCs

    def test_jsonl_stream_validates_and_matches_ring(self, recorded):
        tr, result, path = recorded
        counts = validate_trace_file(path)
        assert counts["span"] == len(tr.records) - 1
        records = load_trace_jsonl(path)
        assert records == json.loads(json.dumps(list(tr.records)))
        assert records[0]["type"] == "trace"
        # The run span finishes after its epochs and the summary.
        assert records[-1]["name"] == "run"

    def test_run_header_meta(self, recorded):
        tr, _, _ = recorded
        meta = check_meta(trace_meta(tr.records))
        assert meta["schema_version"] == TRACE_SCHEMA_VERSION
        assert meta["config_hash"]
        assert meta["engine"] == CFG.gpu.engine
        assert meta["workload"] == "dgemm"

    def test_domain_records_score_against_oracle(self, recorded):
        tr, _, _ = recorded
        domains = domains_of(tr.records)
        scored = [r for r in domains if r["rel_error"] is not None]
        assert scored, "PCSTALL must make scorable predictions"
        assert all(r["rel_error"] >= 0.0 for r in scored)
        with_oracle = [r for r in domains if r["oracle_freq_ghz"] is not None]
        assert with_oracle
        for r in with_oracle:
            assert r["mispredicted"] == (
                abs(r["freq_ghz"] - r["oracle_freq_ghz"]) > 1e-6
            )

    def test_stall_breakdown_partitions_epoch(self, recorded):
        tr, _, _ = recorded
        per = CFG.gpu.cus_per_domain
        epoch_ns = CFG.dvfs.epoch_ns
        for r in domains_of(tr.records):
            assert r["busy_ns"] >= 0.0
            assert r["stall_ns"] >= 0.0
            assert r["busy_ns"] + r["stall_ns"] == pytest.approx(epoch_ns * per)

    def test_pc_table_deltas_sum_to_cumulative(self, recorded):
        tr, result, _ = recorded
        epochs = span_attrs(tr.records, "epoch")
        assert all("pc_lookups" in r for r in epochs)
        assert all(r["pc_lookups"] >= 0 for r in epochs)
        total_hits = sum(r["pc_hits"] for r in epochs)
        total_lookups = sum(r["pc_lookups"] for r in epochs)
        assert 0 < total_lookups
        assert result.pc_hit_ratio == pytest.approx(total_hits / total_lookups)

    def test_pc_attribution_aggregates(self, recorded):
        tr, _, _ = recorded
        (run,) = span_attrs(tr.records, "run")
        for stat in run["pc"]:
            assert stat["samples"] > 0
            assert stat["weighted_error"] >= 0.0
        weights = [stat["weighted_error"] for stat in run["pc"]]
        assert weights == sorted(weights, reverse=True)

    def test_registry_counters(self, recorded):
        tr, result, _ = recorded
        counters = tr.registry.counter_values("trace_spans_")
        assert counters["trace_spans_run"] == 1
        assert counters["trace_spans_epoch"] == result.epochs
        assert counters["trace_spans_oracle_sample"] == result.epochs

    def test_ring_bounds_memory_but_jsonl_keeps_all(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        with Tracer(ring_size=6, jsonl_path=str(path)) as tr:
            result = run_sim(tracer=tr)
        assert len(tr.records) <= 6
        assert tr.dropped > 0
        counts = validate_trace_file(path)  # the stream archived fully
        assert counts["span"] == tr.total_spans
        assert len(span_attrs(load_trace_jsonl(path), "epoch")) == result.epochs

    def test_final_records_never_evict_epochs(self):
        """The end-of-run PC attribution rides on the one run span, so
        a ring with room for the header, two spans per epoch (epoch +
        oracle_sample) and the run span holds the whole run."""
        max_epochs = 40
        tr = Tracer(ring_size=1 + 2 * max_epochs + 1)
        result = run_sim(tracer=tr, max_epochs=max_epochs)
        assert tr.dropped == 0
        assert len(span_attrs(tr.records, "epoch")) == result.epochs
        (run,) = span_attrs(tr.records, "run")
        assert run["pc"]

    def test_negative_ring_size_rejected(self):
        with pytest.raises(ValueError):
            Tracer(ring_size=-1)


class TestOffPath:
    def test_disabled_results_bit_identical(self):
        baseline = result_signature(run_sim(tracer=None))
        traced = result_signature(run_sim(tracer=Tracer(observations=True)))
        assert baseline == traced

    def test_disabled_run_allocates_no_telemetry_objects(self, monkeypatch):
        """With tracer=None the loop must never touch the telemetry
        classes; poisoned constructors prove it."""

        def boom(self, *a, **kw):
            raise AssertionError("telemetry object allocated on the off path")

        monkeypatch.setattr(Tracer, "__init__", boom)
        monkeypatch.setattr(RunDigest, "__init__", boom)
        monkeypatch.setattr(MetricsRegistry, "__init__", boom)
        result = run_sim(tracer=None)
        assert result.epochs > 0


class TestPerfetto:
    def test_trace_structure(self, recorded):
        tr, result, _ = recorded
        trace = perfetto_trace(tr.records)
        assert trace["displayTimeUnit"] == "ns"
        assert trace["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C"} <= phases
        slices = [e for e in events if e["ph"] == "X" and e["cat"] == "epoch"]
        assert len(slices) == result.epochs * N_DOMAINS
        for e in slices:
            assert e["dur"] >= 0
            assert e["ts"] >= 0

    def test_counter_tracks_cover_every_domain(self, recorded):
        tr, _, _ = recorded
        counters = {
            e["name"] for e in perfetto_trace(tr.records)["traceEvents"]
            if e["ph"] == "C"
        }
        for d in range(N_DOMAINS):
            assert f"freq domain {d}" in counters
        assert "epoch energy" in counters

    def test_save_writes_loadable_json(self, recorded, tmp_path):
        tr, _, _ = recorded
        path = tmp_path / "trace.perfetto.json"
        n = save_perfetto_json(tr.records, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == n > 0


class TestAccuracyReport:
    def test_ring_and_jsonl_agree(self, recorded):
        tr, _, path = recorded
        from_ring = AccuracyReport.from_records(tr.records)
        from_file = AccuracyReport.from_records(load_trace_jsonl(path))
        assert from_ring.error_percentiles() == from_file.error_percentiles()
        assert from_ring.confusion == from_file.confusion
        assert from_ring.pc_attribution == from_file.pc_attribution
        assert from_ring.pc_attribution

    def test_agreement_and_decisions(self, recorded):
        tr, result, _ = recorded
        rep = AccuracyReport.from_records(tr.records)
        assert rep.decisions == result.epochs * N_DOMAINS
        assert 0.0 <= rep.agreement <= 1.0

    def test_confusion_grid_conserves_counts(self, recorded):
        tr, _, _ = recorded
        rep = AccuracyReport.from_records(tr.records)
        _, grid = rep.confusion_grid()
        assert sum(sum(row) for row in grid) == rep.decisions

    def test_merge_sums(self, recorded):
        tr, _, _ = recorded
        a = AccuracyReport.from_records(tr.records)
        b = AccuracyReport.from_records(tr.records)
        decisions = a.decisions
        merged = a.merge(b)
        assert merged.decisions == 2 * decisions
        assert merged.epochs == 2 * b.epochs

    def test_renderings_are_tables(self, recorded):
        tr, _, _ = recorded
        rep = AccuracyReport.from_records(tr.records, label="dgemm/PCSTALL")
        assert "confusion" in rep.render_confusion()
        assert "PCs" in rep.render_top_pcs(3)


HEADER = {"type": "trace", "trace_id": "t", **build_meta()}
SPAN = {"type": "span", "trace_id": "t", "span_id": "1", "parent_id": "",
        "name": "cell", "t_start_ns": 0, "t_end_ns": 1, "attrs": {}}
EPOCH_ATTRS = {"epoch": 0, "t_start_ns": 0.0, "t_end_ns": 1.0, "energy": 1.0,
               "transitions": 0, "committed": 3, "domains": []}
RUN_ATTRS = {"workload": "w", "design": "d", "n_domains": 1, "epoch_ns": 1.0,
             "frequencies_ghz": [1.0], "epochs": 1, "delay_ns": 1.0,
             "energy_total": 1.0, "pc": []}


class TestSchema:
    def test_meta_check_rejects_wrong_version(self):
        meta = build_meta()
        meta["schema_version"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            check_meta(meta)

    def test_meta_check_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            check_meta(None)

    def test_stream_must_start_with_trace_header(self):
        with pytest.raises(ValueError, match="trace header"):
            validate_records([SPAN])

    def test_second_trace_header_rejected(self):
        with pytest.raises(ValueError, match="second trace header"):
            validate_records([HEADER, SPAN, HEADER])

    @pytest.mark.parametrize("name,attrs,complaint", [
        ("epoch", {}, "epoch span attrs missing"),
        ("epoch", {**EPOCH_ATTRS, "domains": "x"}, "not a list"),
        ("epoch", {**EPOCH_ATTRS, "domains": [{"domain": 0}]},
         "domains entry missing"),
        ("epoch", {**EPOCH_ATTRS, "observation": {"truth": None}},
         "observation lacks its result"),
        ("run", {**RUN_ATTRS, "pc": [{"pc_idx": 1}]}, "pc entry missing"),
        ("run", {k: v for k, v in RUN_ATTRS.items() if k != "energy_total"},
         "run span attrs missing"),
    ])
    def test_run_and_epoch_span_attrs_checked(self, name, attrs, complaint):
        span = {**SPAN, "name": name, "attrs": attrs}
        with pytest.raises(ValueError, match=complaint):
            validate_records([HEADER, span])

    def test_recorded_span_attrs_validate(self):
        span = {**SPAN, "name": "epoch", "attrs": EPOCH_ATTRS}
        run = {**SPAN, "name": "run", "attrs": RUN_ATTRS}
        assert validate_records([HEADER, span, run]) == {"trace": 1, "span": 2}

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type"):
            validate_records([{"type": "mystery"}])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_records([])

    def test_config_hash_stamps_platform(self):
        from dataclasses import replace

        a = build_meta(CFG)["config_hash"]
        same = build_meta(small_config(n_cus=2, waves_per_cu=4))["config_hash"]
        other = build_meta(
            replace(CFG, dvfs=replace(CFG.dvfs, epoch_ns=2000.0))
        )["config_hash"]
        assert a == same
        assert a != other

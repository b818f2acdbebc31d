"""Telemetry: a zero-overhead-when-off observability layer.

Five pieces, threaded through the simulation loop, controller,
predictors, PC table, oracle and sweep runtime:

* :mod:`repro.telemetry.metrics` - :class:`MetricsRegistry`: mergeable
  counters/gauges/fixed-bucket histograms, the common sink the sweep
  instrumentation and hot-path profiler report through.
* :mod:`repro.telemetry.digest` - :class:`RunDigest`: the per-epoch
  decision digest (chosen frequency per V/f domain, predicted vs
  actual commits, oracle truth, PC-table deltas, stall/busy split,
  energy) that the simulation's ``run``/``epoch`` spans carry; the
  :class:`~repro.obs.trace.Tracer` is the one sink.
* :mod:`repro.telemetry.schema` - the stream's record schema, meta
  header and validators.
* :mod:`repro.telemetry.exporters` - Chrome-trace/Perfetto JSON export
  (``repro trace --perfetto``).
* :mod:`repro.telemetry.accuracy` - prediction-error percentiles,
  decision confusion matrix vs the oracle, per-PC error attribution
  (``repro report --accuracy``).

When no tracer is attached, the simulation pays a single ``is None``
test per epoch and allocates nothing - tier-1 results stay bit-identical
(see ``tests/test_telemetry.py``).
"""

from repro.telemetry.accuracy import AccuracyReport, percentile
from repro.telemetry.exporters import (
    perfetto_trace,
    save_perfetto_json,
    validate_trace_events,
    validate_trace_json,
)
from repro.telemetry.metrics import (
    BATCH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_all,
)
from repro.telemetry.digest import PcErrorStat, RunDigest
from repro.telemetry.schema import (
    TRACE_SCHEMA_VERSION,
    build_meta,
    check_meta,
    epoch_result_to_wire,
    load_trace_jsonl,
    sim_config_to_wire,
    span_attrs,
    trace_meta,
    validate_records,
    validate_trace_file,
)

__all__ = [
    "AccuracyReport",
    "percentile",
    "perfetto_trace",
    "save_perfetto_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_all",
    "PcErrorStat",
    "RunDigest",
    "BATCH_BUCKETS",
    "TRACE_SCHEMA_VERSION",
    "build_meta",
    "check_meta",
    "epoch_result_to_wire",
    "load_trace_jsonl",
    "sim_config_to_wire",
    "span_attrs",
    "trace_meta",
    "validate_records",
    "validate_trace_file",
    "validate_trace_events",
    "validate_trace_json",
]

"""Performance-regression benchmark suite (``repro bench``).

Microbenchmarks for the simulator's hot paths, a versioned
machine-readable ``BENCH_*.json`` report format, and the baseline
comparison gate CI runs on every push. See :mod:`repro.bench.micro`
for the benchmarks and :mod:`repro.bench.baseline` for the schema.
"""

from repro.bench.baseline import (
    BENCH_SCHEMA_VERSION,
    GATED_METRICS,
    BenchComparison,
    CounterMismatch,
    MetricDelta,
    compare_reports,
    load_bench_json,
    save_bench_json,
    validate_bench_report,
)
from repro.bench.micro import (
    BENCHMARK_NAMES,
    BENCHMARKS,
    BenchResult,
    BenchSettings,
    render_report,
    run_benchmarks,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "BenchComparison",
    "BenchResult",
    "BenchSettings",
    "CounterMismatch",
    "GATED_METRICS",
    "MetricDelta",
    "compare_reports",
    "load_bench_json",
    "render_report",
    "run_benchmarks",
    "save_bench_json",
    "validate_bench_report",
]

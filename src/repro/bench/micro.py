"""Microbenchmarks for the simulator's hot paths (``repro bench``).

Five benchmarks, each isolating one layer of the per-epoch cost stack:

* ``core_engine``    - a single resident wavefront running straight-line
  compute loops on one CU: the batched-issue fast path, nothing else.
* ``issue_scan``     - many resident waves mixing compute and memory on
  two CUs: the ready-heap scan path plus memory completions.
* ``oracle_sampling``- the fork-and-pre-execute loop (snapshot + restore
  + pre-execution per grid frequency), the multiplier on everything.
* ``predictor_update`` - PCSTALL's controller step (``observe`` +
  ``decide``: estimate, PC-table update and lookup, ED2P argmin) over
  recorded epoch results: pure controller-side work, no simulation.
* ``end_to_end``     - one quick workload x design cell through the real
  executor, the number users actually feel.

Each benchmark is run ``repeats`` times from a fresh deterministic setup
and reports the *best* wall time (the run least disturbed by the OS);
instruction counts are identical across repeats, so throughput metrics
stay deterministic up to the clock. Wall time is measured with
``time.perf_counter`` around the timed region only - setup and warmup
are excluded.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.baseline import BENCH_SCHEMA_VERSION
from repro.config import SimConfig, small_config
from repro.gpu.gpu import Gpu
from repro.gpu.isa import ProgramBuilder, load, valu, waitcnt
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.runtime.profiling import collect_gpu, collect_hotpath


@dataclass(frozen=True)
class BenchSettings:
    """Knobs shared by every benchmark."""

    quick: bool = True
    engine: str = "event"
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.engine not in ("event", "reference"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")


@dataclass
class BenchResult:
    """One benchmark's measurements (see the module docstring)."""

    name: str
    wall_s: float
    #: Simulated epochs (or epoch-equivalents) inside the timed region.
    epochs: int
    #: Instructions committed inside the timed region (0 where N/A).
    committed: int
    #: Wall nanoseconds per simulated epoch.
    ns_per_epoch: float
    #: Committed instructions per wall second; None where not meaningful.
    instr_per_sec: Optional[float]
    #: Fraction of commits retired through the batched-issue fast path.
    batched_issue_ratio: float
    #: HotPathCounters delta over the timed region.
    hotpath: Dict[str, int] = field(default_factory=dict)
    #: Bench-specific throughputs (samples/s, updates/s, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Workload sizing, for traceability of archived numbers.
    params: Dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "epochs": self.epochs,
            "committed": self.committed,
            "ns_per_epoch": self.ns_per_epoch,
            "instr_per_sec": self.instr_per_sec,
            "batched_issue_ratio": self.batched_issue_ratio,
            "hotpath": dict(self.hotpath),
            "extra": dict(self.extra),
            "params": dict(self.params),
            "config_hash": self.config_hash,
        }


def _engine_config(cfg: SimConfig, engine: str) -> SimConfig:
    if cfg.gpu.engine == engine:
        return cfg
    return replace(cfg, gpu=replace(cfg.gpu, engine=engine))


def _compute_program(n_valu: int, trips: int, name: str = "bench-compute"):
    b = ProgramBuilder()
    top = b.label()
    for _ in range(n_valu):
        b.emit(valu())
    b.loop_back(top, trips=trips)
    return b.build(name)


def _mixed_program(n_valu: int, n_loads: int, trips: int, name: str = "bench-mixed"):
    b = ProgramBuilder()
    top = b.label()
    for _ in range(n_valu):
        b.emit(valu())
    for _ in range(n_loads):
        b.emit(load(0.6, 0.5))
    b.emit(waitcnt(0))
    b.loop_back(top, trips=trips)
    return b.build(name)


def _best_of(repeats: int, make_run: Callable[[], Callable[[], Dict[str, Any]]]):
    """Best wall time over fresh runs; payload from the fastest run.

    ``make_run`` builds a fresh deterministic setup (untimed) and returns
    the closure to time. Payload counts are identical across repeats.
    """
    best_wall: Optional[float] = None
    best_payload: Dict[str, Any] = {}
    for _ in range(repeats):
        run = make_run()
        t0 = time.perf_counter()
        payload = run()
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall, best_payload = wall, payload
    assert best_wall is not None
    return best_wall, best_payload


def _finish(
    name: str,
    s: BenchSettings,
    cfg: SimConfig,
    wall: float,
    payload: Dict[str, Any],
    params: Dict[str, Any],
    instr_per_sec: Optional[float] = None,
    extra: Optional[Dict[str, float]] = None,
) -> BenchResult:
    from repro.runtime.cache import config_hash

    epochs = int(payload.get("epochs", 0))
    committed = int(payload.get("committed", 0))
    hotpath = dict(payload.get("hotpath", {}))
    batched = int(hotpath.get("batched_instructions", 0))
    if instr_per_sec is None and committed:
        instr_per_sec = committed / wall if wall > 0 else None
    return BenchResult(
        name=name,
        wall_s=wall,
        epochs=epochs,
        committed=committed,
        ns_per_epoch=(wall * 1e9 / epochs) if epochs else 0.0,
        instr_per_sec=instr_per_sec,
        batched_issue_ratio=(batched / committed) if committed else 0.0,
        hotpath=hotpath,
        extra=dict(extra or {}),
        params=dict(params),
        config_hash=config_hash(cfg),
    )


# ----------------------------------------------------------------------
# Benchmark bodies


def bench_core_engine(s: BenchSettings) -> BenchResult:
    """Single wave, straight-line compute: the batched-issue fast path."""
    epochs = 60 if s.quick else 250
    n_valu, trips = 32, 20_000
    cfg = _engine_config(small_config(n_cus=1, waves_per_cu=1), s.engine)
    program = _compute_program(n_valu, trips)
    kernel = Kernel.homogeneous(program, WorkgroupGeometry(1, 1))
    epoch_ns = cfg.dvfs.epoch_ns

    def make_run():
        gpu = Gpu(cfg.gpu)
        gpu.load_kernel(kernel)
        gpu.run_epoch(epoch_ns)  # warmup (excluded)
        base = collect_gpu(gpu).as_dict()

        def run():
            committed = 0
            done = 0
            for _ in range(epochs):
                committed += gpu.run_epoch(epoch_ns).total_committed()
                done += 1
                if gpu.done:  # pragma: no cover - sized not to finish
                    break
            hot = collect_gpu(gpu).as_dict()
            return {
                "epochs": done,
                "committed": committed,
                "hotpath": {k: hot[k] - base.get(k, 0) for k in hot},
            }

        return run

    wall, payload = _best_of(s.repeats, make_run)
    return _finish("core_engine", s, cfg, wall, payload,
                   params={"epochs": epochs, "n_valu": n_valu, "trips": trips})


def bench_issue_scan(s: BenchSettings) -> BenchResult:
    """Many waves, mixed compute/memory: the ready-scan issue path."""
    epochs = 40 if s.quick else 150
    cfg = _engine_config(small_config(n_cus=2, waves_per_cu=8), s.engine)
    program = _mixed_program(n_valu=6, n_loads=2, trips=8_000)
    kernel = Kernel.homogeneous(program, WorkgroupGeometry(4, 4))
    epoch_ns = cfg.dvfs.epoch_ns

    def make_run():
        gpu = Gpu(cfg.gpu)
        gpu.load_kernel(kernel)
        gpu.run_epoch(epoch_ns)
        base = collect_gpu(gpu).as_dict()

        def run():
            committed = 0
            done = 0
            for _ in range(epochs):
                committed += gpu.run_epoch(epoch_ns).total_committed()
                done += 1
                if gpu.done:  # pragma: no cover - sized not to finish
                    break
            hot = collect_gpu(gpu).as_dict()
            return {
                "epochs": done,
                "committed": committed,
                "hotpath": {k: hot[k] - base.get(k, 0) for k in hot},
            }

        return run

    wall, payload = _best_of(s.repeats, make_run)
    return _finish("issue_scan", s, cfg, wall, payload,
                   params={"epochs": epochs, "workgroups": 4, "waves_per_wg": 4})


def bench_oracle_sampling(s: BenchSettings) -> BenchResult:
    """Fork-and-pre-execute: snapshot, restore, pre-run per frequency."""
    from repro.dvfs.oracle import OracleSampler

    samples = 8 if s.quick else 25
    n_sample_freqs = 4
    cfg = _engine_config(small_config(n_cus=2, waves_per_cu=4), s.engine)
    program = _mixed_program(n_valu=6, n_loads=2, trips=20_000)
    kernel = Kernel.homogeneous(program, WorkgroupGeometry(2, 4))
    epoch_ns = cfg.dvfs.epoch_ns

    def make_run():
        gpu = Gpu(cfg.gpu)
        gpu.load_kernel(kernel)
        for _ in range(3):  # warmup: move past the cold start (excluded)
            gpu.run_epoch(epoch_ns)
        sampler = OracleSampler(cfg, n_sample_freqs=n_sample_freqs)

        def run():
            committed = 0
            for _ in range(samples):
                sample = sampler.sample(gpu, epoch_ns)
                committed += sum(c for dom in sample.points for _, c in dom)
            return {
                # One pre-execution per sampled frequency = one epoch each.
                "epochs": samples * len(sampler.sample_grid),
                "committed": committed,
                "hotpath": collect_hotpath(gpu, sampler),
            }

        return run

    wall, payload = _best_of(s.repeats, make_run)
    return _finish(
        "oracle_sampling", s, cfg, wall, payload,
        params={"samples": samples, "n_sample_freqs": n_sample_freqs},
        extra={"samples_per_sec": samples / wall if wall > 0 else 0.0},
    )


def bench_predictor_update(s: BenchSettings) -> BenchResult:
    """PCSTALL's controller step over recorded epochs (no simulation).

    Each update is one ``DvfsController.observe`` + ``decide``: the
    WF-STALL estimates and PC-table writes, the table lookups and the
    ED2P frequency argmin - the decision path ``repro serve`` runs per
    observation. The hot path carries the PC-table counters, so
    ``--against`` gates the decision path's work exactly.
    """
    from repro.dvfs.designs import make_controller

    updates = 150 if s.quick else 600
    cfg = small_config(n_cus=2, waves_per_cu=4)  # engine-independent work
    program = _mixed_program(n_valu=6, n_loads=2, trips=20_000)
    kernel = Kernel.homogeneous(program, WorkgroupGeometry(2, 4))
    epoch_ns = cfg.dvfs.epoch_ns

    gpu = Gpu(cfg.gpu)
    gpu.load_kernel(kernel)
    results = [gpu.run_epoch(epoch_ns) for _ in range(4)]
    records = sum(len(cu) for r in results for cu in r.wave_records)

    def make_run():
        ctrl = make_controller("PCSTALL", cfg)

        def run():
            n = len(results)
            for i in range(updates):
                ctrl.observe(results[i % n])
                ctrl.decide()
            stats = ctrl.predictor.table_stats()
            return {
                "epochs": updates,
                "committed": 0,
                "hotpath": {f"pc_{k}": v for k, v in stats.items()},
            }

        return run

    wall, payload = _best_of(s.repeats, make_run)
    return _finish(
        "predictor_update", s, cfg, wall, payload,
        params={"updates": updates, "wave_records_per_pass": records // max(1, len(results))},
        extra={"updates_per_sec": updates / wall if wall > 0 else 0.0},
    )


def bench_end_to_end(s: BenchSettings) -> BenchResult:
    """One quick workload x design cell through the real executor."""
    from repro.runtime import SweepTask
    from repro.runtime.executor import run_task

    max_epochs = 40 if s.quick else 120
    cfg = _engine_config(small_config(n_cus=2, waves_per_cu=4), s.engine)
    task = SweepTask(
        workload="comd",
        design="PCSTALL",
        config=cfg,
        scale=0.12,
        max_epochs=max_epochs,
        oracle_sample_freqs=3,
    )

    def make_run():
        def run():
            result = run_task(task)
            return {
                "epochs": result.epochs,
                "committed": result.total_committed,
                "hotpath": dict(result.hotpath or {}),
            }

        return run

    wall, payload = _best_of(s.repeats, make_run)
    epochs = int(payload["epochs"])
    return _finish(
        "end_to_end", s, cfg, wall, payload,
        params={"workload": "comd", "design": "PCSTALL", "max_epochs": max_epochs},
        extra={"epochs_per_sec": epochs / wall if wall > 0 else 0.0},
    )


#: Registry, in report order.
BENCHMARKS: Dict[str, Callable[[BenchSettings], BenchResult]] = {
    "core_engine": bench_core_engine,
    "issue_scan": bench_issue_scan,
    "oracle_sampling": bench_oracle_sampling,
    "predictor_update": bench_predictor_update,
    "end_to_end": bench_end_to_end,
}

BENCHMARK_NAMES: Tuple[str, ...] = tuple(BENCHMARKS)


def run_benchmarks(
    quick: bool = True,
    engine: str = "event",
    only: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the suite and return a validated bench report dict."""
    from repro.telemetry.schema import build_meta

    names = list(only) if only else list(BENCHMARK_NAMES)
    for name in names:
        if name not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {name!r} (have {BENCHMARK_NAMES})")
    settings = BenchSettings(
        quick=quick, engine=engine,
        repeats=repeats if repeats is not None else (2 if quick else 3),
    )
    results: Dict[str, Any] = {}
    for name in names:
        if log:
            log(f"  bench {name} ...")
        res = BENCHMARKS[name](settings)
        results[name] = res.as_dict()
        if log:
            ips = "-" if res.instr_per_sec is None else f"{res.instr_per_sec:,.0f}/s"
            log(f"  bench {name}: {res.wall_s:.3f}s, instr {ips}, "
                f"batched {res.batched_issue_ratio:.2f}")
    report = {
        "meta": build_meta(
            None,
            python=platform.python_version(),
            implementation=platform.python_implementation(),
            machine=platform.machine(),
        ),
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "suite": "quick" if quick else "full",
        "engine": engine,
        "results": results,
    }
    from repro.bench.baseline import validate_bench_report

    return validate_bench_report(report)


def render_report(report: Dict[str, Any]) -> str:
    """The report's results as the repo's standard table."""
    from repro.analysis.report import format_table

    rows = []
    for name, res in report["results"].items():
        ips = res["instr_per_sec"]
        extra = ", ".join(f"{k}={v:,.1f}" for k, v in sorted(res["extra"].items()))
        rows.append([
            name,
            f"{res['wall_s']:.3f}",
            res["epochs"],
            "-" if ips is None else f"{ips:,.0f}",
            f"{res['batched_issue_ratio']:.2f}",
            f"{res['ns_per_epoch']:,.0f}",
            extra or "-",
        ])
    return format_table(
        ["bench", "wall (s)", "epochs", "instr/s", "batched", "ns/epoch", "extra"],
        rows,
        title=f"repro bench ({report['suite']} suite, {report['engine']} engine)",
    )


__all__ = [
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "BenchResult",
    "BenchSettings",
    "render_report",
    "run_benchmarks",
]

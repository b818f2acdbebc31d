"""Parallel sweep executor, on-disk result cache, instrumentation."""

import dataclasses
import pickle

import pytest

from repro.analysis.trace_io import run_result_to_dict
from repro.config import small_config
from repro.core.objectives import EDnPObjective, PerformanceCapObjective
from repro.runtime.cache import ResultCache, describe_objective, task_key
from repro.runtime.executor import (
    NO_RETRY,
    RetryPolicy,
    SweepExecutor,
    SweepTask,
    SweepTimeoutError,
    run_task,
)
from repro.runtime.progress import SOURCE_CACHE, CellRecord, SweepInstrumentation


CFG = small_config(n_cus=2, waves_per_cu=4)


def make_task(workload="comd", design="STATIC@1.7", scale=0.05, max_epochs=150, **kw):
    return SweepTask(
        workload=workload, design=design, config=CFG, scale=scale,
        max_epochs=max_epochs, oracle_sample_freqs=3, **kw
    )


GRID = [
    make_task(w, d)
    for w in ("comd", "xsbench")
    for d in ("STATIC@1.7", "PCSTALL")
]


class TestCacheKey:
    def test_identical_tasks_same_key(self):
        assert make_task().key() == make_task().key()

    def test_each_field_changes_key(self):
        base = make_task().key()
        assert make_task(workload="xsbench").key() != base
        assert make_task(design="STALL").key() != base
        assert make_task(scale=0.2).key() != base
        assert make_task(max_epochs=151).key() != base
        assert make_task(collect_accuracy=True).key() != base

    def test_config_change_changes_key(self):
        cfg2 = dataclasses.replace(
            CFG, dvfs=dataclasses.replace(CFG.dvfs, epoch_ns=2000.0)
        )
        changed = SweepTask("comd", "STATIC@1.7", cfg2, scale=0.05, max_epochs=150,
                            oracle_sample_freqs=3)
        assert changed.key() != make_task().key()

    def test_objective_state_changes_key(self):
        a = make_task(objective=EDnPObjective(1)).key()
        b = make_task(objective=EDnPObjective(2)).key()
        c = make_task(objective=PerformanceCapObjective(0.05)).key()
        assert len({a, b, c, make_task().key()}) == 4

    def test_objective_description_is_stable(self):
        assert describe_objective(EDnPObjective(2)) == describe_objective(
            EDnPObjective(2)
        )
        assert describe_objective(None) is None

    def test_key_is_hex_digest(self):
        key = task_key({"x": 1})
        assert len(key) == 64
        int(key, 16)


class TestResultCache:
    def test_empty_cache_dir_env_means_unset(self, monkeypatch):
        from repro.runtime.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, default_cache_dir

        monkeypatch.setenv(CACHE_DIR_ENV, "")
        assert default_cache_dir() == __import__("pathlib").Path(DEFAULT_CACHE_DIR)

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"answer": 42})
        assert cache.get("k") == {"answer": 42}
        assert cache.hits == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_corrupted_entry_recomputes_not_crashes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", [1, 2, 3])
        cache.path_for("k").write_bytes(b"not a pickle")
        assert cache.get("k") is None

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", list(range(100)))
        blob = cache.path_for("k").read_bytes()
        cache.path_for("k").write_bytes(blob[: len(blob) // 2])
        assert cache.get("k") is None

    def test_corrupted_cell_recomputed_by_executor(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        first = SweepExecutor(cache=cache).run_one(task)
        cache.path_for(task.key()).write_bytes(b"\x80garbage")
        again = SweepExecutor(cache=ResultCache(tmp_path)).run_one(task)
        assert run_result_to_dict(first) == run_result_to_dict(again)


class TestExecutor:
    def test_run_one_matches_direct_run(self):
        direct = run_task(make_task())
        via_executor = SweepExecutor().run_one(make_task())
        assert run_result_to_dict(direct) == run_result_to_dict(via_executor)

    def test_parallel_results_bit_identical_to_serial(self):
        serial = SweepExecutor(max_workers=1).run(GRID)
        parallel = SweepExecutor(max_workers=2).run(GRID)
        for s, p in zip(serial, parallel):
            assert run_result_to_dict(s) == run_result_to_dict(p)
            assert s.delay_ns == p.delay_ns
            assert s.energy.total == p.energy.total

    def test_result_order_matches_task_order(self):
        results = SweepExecutor(max_workers=2).run(GRID)
        for task, result in zip(GRID, results):
            assert result.workload == task.workload
            assert result.design == task.design

    def test_rerun_hits_cache_with_identical_results(self, tmp_path):
        first = SweepExecutor(max_workers=2, cache=ResultCache(tmp_path)).run(GRID)
        cache = ResultCache(tmp_path)
        second = SweepExecutor(max_workers=2, cache=cache).run(GRID)
        assert cache.hits == len(GRID)
        assert cache.misses == 0
        for a, b in zip(first, second):
            assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_unpicklable_grid_falls_back_to_serial(self):
        obj = EDnPObjective(2)
        obj.hook = lambda: None  # lambdas cannot cross the process boundary
        tasks = [make_task(design="STALL", objective=obj),
                 make_task(workload="xsbench", design="STALL", objective=obj)]
        ex = SweepExecutor(max_workers=2)
        results = ex.run(tasks)
        assert all(r is not None for r in results)
        assert ex.progress.events  # the fallback was recorded

    def test_task_timeout_raises(self):
        # NO_RETRY restores the pre-retry contract: first timeout is fatal.
        slow = [make_task(scale=0.5, max_epochs=400),
                make_task(workload="xsbench", scale=0.5, max_epochs=400)]
        ex = SweepExecutor(max_workers=2, task_timeout_s=1e-4, retry=NO_RETRY)
        with pytest.raises(SweepTimeoutError):
            ex.run(slow)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(max_workers=0)


class TestInstrumentation:
    def test_counters_and_summary(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = SweepExecutor(cache=cache)
        ex.run(GRID[:2])
        prog = SweepInstrumentation(name="again")
        ex2 = SweepExecutor(cache=ResultCache(tmp_path), progress=prog)
        ex2.run(GRID[:2])
        assert prog.cache_hits == 2
        assert prog.cache_misses == 0
        text = prog.summary()
        assert "cache hits" in text
        assert "again" in text

    def test_cell_records_track_source(self):
        prog = SweepInstrumentation()
        prog.record_cell(CellRecord("a/b", "a", "b", 0.0, SOURCE_CACHE))
        assert prog.cache_hits == 1
        assert prog.compute_s == 0.0

    def test_utilisation_bounded(self):
        prog = SweepInstrumentation(max_workers=4)
        prog.start()
        prog.record_cell(CellRecord("a/b", "a", "b", 1e6, "serial"))
        prog.finish()
        assert 0.0 <= prog.utilisation <= 1.0


class TestMetricsSink:
    """The telemetry registry as the sweep's common metrics sink."""

    def test_record_cell_feeds_registry(self):
        prog = SweepInstrumentation()
        prog.record_cell(
            CellRecord("a/b", "a", "b", 0.5, "serial", hotpath={"cycles": 7})
        )
        prog.record_cell(CellRecord("c/d", "c", "d", 0.0, SOURCE_CACHE))
        counters = prog.registry.counter_values()
        assert counters["sweep_cells_total"] == 2
        assert counters["sweep_cells_serial"] == 1
        assert counters["sweep_cells_cache"] == 1
        assert counters["hotpath_cycles"] == 7
        from repro.telemetry.metrics import SECONDS_BUCKETS

        assert prog.registry.histogram("sweep_cell_wall_s", SECONDS_BUCKETS).total == 2

    def test_as_dict_carries_metrics(self):
        prog = SweepInstrumentation()
        prog.record_cell(CellRecord("a/b", "a", "b", 0.0, SOURCE_CACHE))
        data = prog.as_dict()
        assert data["metrics"]["counters"]["sweep_cells_total"] == 1

    def test_split_sweep_registries_merge_to_whole(self):
        """Satellite of the parallel runtime: metrics from two half
        sweeps merged equal one whole sweep's metrics (counters are
        deterministic work counts; wall-time histograms are timing and
        are compared by observation count only)."""
        from repro.telemetry import merge_all

        whole = SweepExecutor(max_workers=1)
        whole.run(GRID)
        halves = [SweepExecutor(max_workers=1) for _ in range(2)]
        halves[0].run(GRID[:2])
        halves[1].run(GRID[2:])

        merged = merge_all([h.progress.registry for h in halves])
        assert merged.counter_values() == whole.progress.registry.counter_values()
        assert (
            merged.to_dict()["histograms"]["sweep_cell_wall_s"]["total"]
            == whole.progress.registry.to_dict()["histograms"]["sweep_cell_wall_s"][
                "total"
            ]
        )

    def test_parallel_sweep_counters_match_serial(self):
        """Cell/hotpath counters must be independent of how cells were
        scheduled; only the source labels may differ."""

        def work_counters(reg):
            return {
                k: v for k, v in reg.counter_values().items()
                if k == "sweep_cells_total" or k.startswith("hotpath_")
            }

        serial = SweepExecutor(max_workers=1)
        serial.run(GRID)
        parallel = SweepExecutor(max_workers=2)
        parallel.run(GRID)
        assert work_counters(parallel.progress.registry) == work_counters(
            serial.progress.registry
        )

    def test_hotpath_to_registry_prefix(self):
        from repro.runtime.profiling import HotPathCounters
        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        HotPathCounters(cycles=3, clones=2).to_registry(reg)
        assert reg.counter_values("hotpath_")["hotpath_cycles"] == 3
        assert reg.counter_values("hotpath_")["hotpath_clones"] == 2


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3)
        assert p.delay_for(1) == 0.0  # first attempt is never delayed
        assert p.delay_for(2) == pytest.approx(0.1)
        assert p.delay_for(3) == pytest.approx(0.2)
        assert p.delay_for(4) == pytest.approx(0.3)  # capped
        assert p.delay_for(9) == pytest.approx(0.3)
        # Jitterless: the schedule is a pure function of the attempt.
        assert [p.delay_for(n) for n in range(1, 6)] == [
            p.delay_for(n) for n in range(1, 6)
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(on_exhausted="explode")

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1

    def test_retryable_classification(self):
        from repro.runtime.distributed import LeaseExpired
        from repro.runtime.faults import CorruptResultError, InjectedFaultError

        p = RetryPolicy()
        for exc in (InjectedFaultError("x"), CorruptResultError("x"),
                    SweepTimeoutError("x")):
            assert p.is_retryable(exc)
        assert not p.is_retryable(ValueError("x"))
        # A worker that dies holding a cell is reclaimed as LeaseExpired,
        # which the broker retries whatever the policy lists.
        assert not p.is_retryable(LeaseExpired("x"))


class TestTimeoutReapsPool:
    """A timed-out sweep must terminate and reap its local worker
    processes instead of leaking busy workers behind the raised
    SweepTimeoutError."""

    def test_timeout_cancels_and_shuts_down(self):
        import multiprocessing

        ex = SweepExecutor(max_workers=2, task_timeout_s=0.01, retry=NO_RETRY)
        with pytest.raises(SweepTimeoutError):
            ex.run(GRID)
        assert multiprocessing.active_children() == []

    def test_timeout_with_retries_exhausts_and_records(self):
        """All-timeout grid + on_exhausted='record': the sweep completes
        with FailedCell markers instead of dying, and every worker was
        reaped."""
        import multiprocessing

        from repro.runtime.executor import FailedCell

        policy = RetryPolicy(
            max_attempts=2, backoff_base_s=0.0, serial_final_attempt=False,
            on_exhausted="record",
        )
        ex = SweepExecutor(max_workers=2, task_timeout_s=0.01, retry=policy)
        results = ex.run(GRID)
        assert all(isinstance(r, FailedCell) for r in results)
        assert not any(results)  # FailedCell is falsy
        assert ex.progress.failures == len(GRID)
        assert ex.progress.retries >= 1
        assert multiprocessing.active_children() == []

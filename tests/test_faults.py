"""Deterministic fault injection and the executor's retry machinery."""

import pytest

from repro.analysis.trace_io import run_result_to_dict
from repro.config import small_config
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    FailedCell,
    RetryPolicy,
    SweepExecutor,
    SweepTask,
)
from repro.runtime.faults import (
    FAULT_PLAN_ENV,
    CorruptResult,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    active_fault_plan,
)
from repro.runtime.progress import SweepInstrumentation

CFG = small_config(n_cus=2, waves_per_cu=4)


def make_task(workload="comd", design="STATIC@1.7", **kw):
    kw.setdefault("scale", 0.05)
    kw.setdefault("max_epochs", 150)
    return SweepTask(
        workload=workload, design=design, config=CFG,
        oracle_sample_freqs=3, **kw
    )


GRID = [
    make_task(w, d)
    for w in ("comd", "xsbench")
    for d in ("STATIC@1.7", "PCSTALL")
]

#: Retries without sleeping - the machinery, not the wall clock.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


class TestFaultSpec:
    def test_exact_and_wildcard_matching(self):
        assert FaultSpec("comd/PCSTALL").matches("comd/PCSTALL")
        assert not FaultSpec("comd/PCSTALL").matches("comd/STALL")
        assert FaultSpec("*/PCSTALL").matches("xsbench/PCSTALL")
        assert not FaultSpec("*/PCSTALL").matches("xsbench/STALL")
        assert FaultSpec("comd/*").matches("comd/STATIC@1.7")
        assert FaultSpec("*").matches("anything at all")

    def test_attempt_window(self):
        spec = FaultSpec("x", attempts=2)
        assert spec.active_on(1) and spec.active_on(2)
        assert not spec.active_on(3)

    def test_permanent_fault(self):
        spec = FaultSpec("x", attempts=None)
        assert spec.active_on(1) and spec.active_on(99)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", mode="explode")


class TestFaultPlan:
    def test_apply_raise(self):
        plan = FaultPlan((FaultSpec("a/b", "raise", attempts=1),))
        with pytest.raises(InjectedFaultError):
            plan.apply("a/b", 1)
        assert plan.apply("a/b", 2) is None  # fault expired
        assert plan.apply("other/cell", 1) is None

    def test_apply_corrupt(self):
        plan = FaultPlan((FaultSpec("a/b", "corrupt", attempts=1),))
        got = plan.apply("a/b", 1)
        assert isinstance(got, CorruptResult)
        assert got.label == "a/b" and got.attempt == 1

    def test_apply_hang_falls_through(self):
        # A hung cell eventually produces its normal result, which is
        # what lets an untimed serial final attempt still succeed.
        plan = FaultPlan((FaultSpec("a/b", "hang", attempts=1, hang_s=0.01),))
        assert plan.apply("a/b", 1) is None

    def test_json_round_trip(self):
        plan = FaultPlan(
            (FaultSpec("a/b", "hang", attempts=None, hang_s=2.5),
             FaultSpec("*/PCSTALL", "corrupt", attempts=3)),
            seed=7, fraction=0.25, fraction_mode="corrupt",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert active_fault_plan() is None
        plan = FaultPlan((FaultSpec("a/b", attempts=1),), seed=3)
        with plan:
            assert active_fault_plan() == plan
        assert active_fault_plan() is None

    def test_malformed_env_plan_is_ignored(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        assert active_fault_plan() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, '{"specs": [{"cell": "x", "mode": "bad"}]}')
        assert active_fault_plan() is None

    def test_fraction_sampling_is_deterministic(self):
        labels = [f"w{i}/d{j}" for i in range(8) for j in range(4)]
        plan = FaultPlan(seed=1, fraction=0.5)
        picked = [lb for lb in labels if plan.fault_for(lb, 1)]
        assert picked  # a 50% sample of 32 labels is never empty
        assert picked == [lb for lb in labels if plan.fault_for(lb, 1)]
        assert all(plan.fault_for(lb, 1) for lb in labels) is False

    def test_fraction_extremes(self):
        labels = ["a/b", "c/d", "e/f"]
        everything = FaultPlan(fraction=1.0)
        nothing = FaultPlan(fraction=0.0)
        assert all(everything.fault_for(lb, 1) for lb in labels)
        assert not any(nothing.fault_for(lb, 1) for lb in labels)


class TestRetryUnderFaults:
    def test_crash_twice_then_succeed_matches_clean_run(self):
        clean = SweepExecutor(retry=FAST_RETRY).run(GRID)
        plan = FaultPlan((FaultSpec("comd/STATIC@1.7", "raise", attempts=2),))
        progress = SweepInstrumentation()
        with plan:
            faulted = SweepExecutor(retry=FAST_RETRY, progress=progress).run(GRID)
        assert [run_result_to_dict(r) for r in faulted] == [
            run_result_to_dict(r) for r in clean
        ]
        assert progress.retries == 2  # exactly the two injected crashes
        counters = progress.registry.counter_values("sweep_")
        assert counters["sweep_retries_total"] == 2
        assert counters["sweep_faults_injected"] == 2
        assert counters.get("sweep_cells_failed", 0) == 0

    def test_corrupt_result_retried_to_correct_value(self):
        clean = SweepExecutor(retry=FAST_RETRY).run_one(GRID[0])
        plan = FaultPlan((FaultSpec("comd/STATIC@1.7", "corrupt", attempts=1),))
        progress = SweepInstrumentation()
        with plan:
            got = SweepExecutor(retry=FAST_RETRY, progress=progress).run_one(GRID[0])
        assert run_result_to_dict(got) == run_result_to_dict(clean)
        assert progress.retries == 1

    def test_permanent_fault_exhausts_and_raises(self):
        plan = FaultPlan((FaultSpec("comd/*", "raise", attempts=None),))
        with plan, pytest.raises(InjectedFaultError):
            SweepExecutor(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)).run(
                GRID
            )

    def test_permanent_fault_recorded_not_raised(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_base_s=0.0, on_exhausted="record"
        )
        plan = FaultPlan((FaultSpec("comd/STATIC@1.7", "raise", attempts=None),))
        progress = SweepInstrumentation()
        with plan:
            results = SweepExecutor(retry=policy, progress=progress).run(GRID)
        assert isinstance(results[0], FailedCell)
        assert not results[0]  # failed cells are falsy
        assert results[0].attempts == 2
        assert "comd/STATIC@1.7" in results[0].label
        for r in results[1:]:  # collateral cells unaffected
            assert not isinstance(r, FailedCell)
        assert progress.failures == 1
        assert progress.registry.counter_values("sweep_")["sweep_cells_failed"] == 1

    def test_retry_counters_deterministic_across_runs(self):
        plan = FaultPlan((FaultSpec("*/PCSTALL", "raise", attempts=1),))
        counts = []
        for _ in range(2):
            progress = SweepInstrumentation()
            with plan:
                SweepExecutor(retry=FAST_RETRY, progress=progress).run(GRID)
            counts.append(
                (progress.retries,
                 [(lb, at) for lb, at, *_ in progress.retry_events])
            )
        assert counts[0] == counts[1]
        assert counts[0][0] == 2  # one first-attempt crash per PCSTALL cell

    def test_fault_plan_does_not_change_cache_keys(self, tmp_path):
        # Faults are an environment property, not a task property: a
        # result computed under injection (and retried to success) must
        # be a cache hit for the clean re-run.
        cache = ResultCache(tmp_path)
        plan = FaultPlan((FaultSpec("comd/STATIC@1.7", "raise", attempts=1),))
        with plan:
            SweepExecutor(cache=cache, retry=FAST_RETRY).run_one(GRID[0])
        progress = SweepInstrumentation()
        SweepExecutor(cache=ResultCache(tmp_path), progress=progress).run_one(GRID[0])
        assert progress.cache_hits == 1


class TestHangTimeoutIntegration:
    def test_hung_cell_times_out_then_completes_serially(self):
        # The hung cell trips the parallel per-cell timeout twice; the
        # final attempt runs in-process without a timeout, where the
        # hang delays but does not prevent the correct result.
        clean = SweepExecutor().run(GRID[:2])
        plan = FaultPlan(
            (FaultSpec("comd/STATIC@1.7", "hang", attempts=None, hang_s=1.0),)
        )
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        progress = SweepInstrumentation()
        with plan:
            results = SweepExecutor(
                max_workers=2, task_timeout_s=0.4, retry=policy, progress=progress
            ).run(GRID[:2])
        assert [run_result_to_dict(r) for r in results] == [
            run_result_to_dict(r) for r in clean
        ]
        assert progress.retries >= 1
        assert any("timeout" in note or "final attempt" in note
                   for note in progress.events)

"""Benchmark suite: report schema, baseline gate, CLI plumbing."""

import copy
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BENCHMARK_NAMES,
    compare_reports,
    load_bench_json,
    run_benchmarks,
    save_bench_json,
    validate_bench_report,
)
from repro.cli import main


@pytest.fixture(scope="module")
def quick_report():
    """One real (tiny) bench run shared by the schema/gate tests."""
    return run_benchmarks(quick=True, only=["core_engine", "predictor_update"],
                          repeats=1)


class TestReportSchema:
    def test_quick_run_validates(self, quick_report):
        validate_bench_report(quick_report)
        assert quick_report["bench_schema_version"] == BENCH_SCHEMA_VERSION
        assert quick_report["suite"] == "quick"
        assert set(quick_report["results"]) == {"core_engine", "predictor_update"}

    def test_results_carry_throughputs_and_hotpath(self, quick_report):
        core = quick_report["results"]["core_engine"]
        assert core["instr_per_sec"] > 0
        assert 0.0 <= core["batched_issue_ratio"] <= 1.0
        assert core["hotpath"]["batched_instructions"] > 0
        assert core["config_hash"]
        # predictor_update has no meaningful instruction throughput.
        assert quick_report["results"]["predictor_update"]["instr_per_sec"] is None

    def test_save_load_round_trip(self, quick_report, tmp_path):
        path = save_bench_json(quick_report, tmp_path / "BENCH_test.json")
        assert load_bench_json(path) == json.loads(path.read_text())

    def test_wrong_schema_version_rejected(self, quick_report):
        bad = dict(quick_report, bench_schema_version=BENCH_SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="schema version"):
            validate_bench_report(bad)

    def test_missing_result_field_rejected(self, quick_report):
        bad = copy.deepcopy(quick_report)
        del bad["results"]["core_engine"]["instr_per_sec"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_bench_report(bad)

    def test_unknown_benchmark_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(only=["not_a_bench"])

    def test_registry_names_stable(self):
        assert BENCHMARK_NAMES == ("core_engine", "issue_scan", "oracle_sampling",
                                   "predictor_update", "end_to_end")


class TestBaselineGate:
    def test_identical_reports_pass(self, quick_report):
        cmp = compare_reports(quick_report, quick_report, gate=0.20)
        assert cmp.ok
        assert not cmp.missing_in_current and not cmp.missing_in_baseline

    def test_synthetic_regression_fails_the_gate(self, quick_report):
        slower = copy.deepcopy(quick_report)
        core = slower["results"]["core_engine"]
        core["instr_per_sec"] = core["instr_per_sec"] * 0.5
        cmp = compare_reports(slower, quick_report, gate=0.20)
        assert not cmp.ok
        assert [(d.bench, d.metric) for d in cmp.regressions] == [
            ("core_engine", "instr_per_sec")
        ]
        assert "REGRESSED" in cmp.render()

    def test_drop_within_gate_passes(self, quick_report):
        slightly = copy.deepcopy(quick_report)
        core = slightly["results"]["core_engine"]
        core["instr_per_sec"] = core["instr_per_sec"] * 0.85
        assert compare_reports(slightly, quick_report, gate=0.20).ok

    def test_renamed_benchmark_is_listed_not_failed(self, quick_report):
        renamed = copy.deepcopy(quick_report)
        res = renamed["results"].pop("predictor_update")
        renamed["results"]["predictor_update_v2"] = dict(res, name="predictor_update_v2")
        cmp = compare_reports(renamed, quick_report, gate=0.20)
        assert cmp.ok
        assert cmp.missing_in_current == ["predictor_update"]
        assert cmp.missing_in_baseline == ["predictor_update_v2"]

    def test_bad_gate_rejected(self, quick_report):
        with pytest.raises(ValueError, match="gate"):
            compare_reports(quick_report, quick_report, gate=1.5)


class TestCounterGate:
    def test_identical_reports_compare_counters_and_pass(self, quick_report):
        cmp = compare_reports(quick_report, quick_report)
        assert cmp.counters_compared
        assert cmp.counter_mismatches == []
        assert cmp.ok

    def test_perturbed_waves_scanned_fails(self, quick_report):
        changed = copy.deepcopy(quick_report)
        changed["results"]["core_engine"]["hotpath"]["waves_scanned"] += 1
        cmp = compare_reports(changed, quick_report)
        assert not cmp.ok
        assert not cmp.regressions  # the throughput gate is not what failed
        assert [(m.bench, m.counter) for m in cmp.counter_mismatches] == [
            ("core_engine", "hotpath.waves_scanned")
        ]
        assert "core_engine.hotpath.waves_scanned" in cmp.render()

    def test_perturbed_committed_fails(self, quick_report):
        changed = copy.deepcopy(quick_report)
        changed["results"]["core_engine"]["committed"] += 1
        cmp = compare_reports(changed, quick_report)
        assert [(m.bench, m.counter) for m in cmp.counter_mismatches] == [
            ("core_engine", "committed")
        ]

    def test_different_suites_are_not_compared(self, quick_report):
        full = copy.deepcopy(quick_report)
        full["suite"] = "full"
        full["results"]["core_engine"]["hotpath"]["waves_scanned"] += 1
        cmp = compare_reports(full, quick_report)
        assert not cmp.counters_compared
        assert cmp.ok
        assert "not compared" in cmp.render()

    def test_quick_suite_counters_equal_committed_baseline(self):
        import pathlib

        path = (pathlib.Path(__file__).parent.parent / "benchmarks" / "baselines"
                / "BENCH_post_change.json")
        baseline = load_bench_json(path)
        # end_to_end times a fixed 40-epoch window of comd/PCSTALL.
        with pytest.warns(RuntimeWarning, match="truncated at max_epochs=40"):
            report = run_benchmarks(quick=True, repeats=1)
        assert set(report["results"]) == set(baseline["results"])
        cmp = compare_reports(report, baseline)
        assert cmp.counters_compared
        assert cmp.counter_mismatches == []


class TestCli:
    def test_bench_writes_report_and_gates_against_itself(self, tmp_path, capsys):
        path = tmp_path / "BENCH_ci.json"
        assert main(["bench", "--quick", "--only", "predictor_update",
                     "--repeats", "1", "--quiet", "--json", str(path)]) == 0
        report = load_bench_json(path)
        assert set(report["results"]) == {"predictor_update"}
        assert main(["bench", "--quick", "--only", "predictor_update",
                     "--repeats", "1", "--quiet", "--against", str(path)]) == 0
        out = capsys.readouterr().out
        assert "baseline comparison" in out

    def test_bench_fails_on_regression(self, tmp_path, capsys):
        path = tmp_path / "BENCH_base.json"
        report = run_benchmarks(quick=True, only=["predictor_update"], repeats=1)
        inflated = copy.deepcopy(report)
        extra = inflated["results"]["predictor_update"]["extra"]
        # Gate on a metric the next run cannot possibly reach.
        inflated["results"]["predictor_update"]["batched_issue_ratio"] = 100.0
        assert extra is not None
        save_bench_json(inflated, path)
        assert main(["bench", "--quick", "--only", "predictor_update",
                     "--repeats", "1", "--quiet", "--against", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_committed_baseline_is_valid(self):
        import pathlib

        base = pathlib.Path(__file__).parent.parent / "benchmarks" / "baselines"
        for f in sorted(base.glob("BENCH_*.json")):
            load_bench_json(f)

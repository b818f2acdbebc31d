"""scripts/ab.py: the verdict rules and the exit status, on synthetic runs."""

import contextlib
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Ten parent runs with median 102 and an interquartile range of 2.5.
PARENT = [100.0, 100.0, 101.0, 101.0, 102.0, 102.0, 103.0, 103.0, 104.0, 104.0]


def _shifted(wins, ties=0, by=10.0):
    """The parent's runs, ``by`` higher in the first ``wins`` pairs, equal
    in the next ``ties``, and 1 lower in the rest."""
    return [p + by if i < wins else p if i < wins + ties else p - 1
            for i, p in enumerate(PARENT)]


def test_gain_needs_nine_wins_in_ten(ab):
    v = ab.verdict(PARENT, _shifted(9), "higher", 0.25)
    assert (v["wins"], v["ties"], v["losses"], v["verdict"]) == (9, 0, 1, "gain")
    assert v["ratio"] > 1.0
    assert ab.verdict(PARENT, _shifted(8), "higher", 0.25)["verdict"] == "flat"


def test_ties_count_for_neither_side(ab):
    v = ab.verdict(PARENT, _shifted(9, ties=1), "higher", 0.25)
    assert (v["wins"], v["ties"], v["losses"], v["verdict"]) == (9, 1, 0, "gain")
    v = ab.verdict(PARENT, _shifted(8, ties=2), "higher", 0.25)
    assert (v["wins"], v["ties"], v["losses"], v["verdict"]) == (8, 2, 0, "flat")
    v = ab.verdict(PARENT, PARENT, "higher", 0.25)
    assert (v["ties"], v["ratio"], v["verdict"]) == (10, 1.0, "flat")


def test_gain_needs_medians_apart_by_more_than_the_parent_iqr(ab):
    v = ab.verdict(PARENT, _shifted(10, by=2.0), "higher", 0.25)
    assert v["wins"] == 10 and v["iqr"] == 2.5
    assert v["verdict"] == "flat"


def test_lower_is_better(ab):
    assert ab.verdict(PARENT, [p - 10 for p in PARENT], "lower", 0.25)["verdict"] == "gain"
    assert ab.verdict(PARENT, _shifted(10), "lower", 0.25)["verdict"] == "flat"
    v = ab.verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)
    assert (v["losses"], v["verdict"]) == (10, "regressed")


def test_regressed_past_the_bound(ab):
    assert ab.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["verdict"] \
        == "regressed"
    assert ab.verdict(PARENT, [p * 0.8 for p in PARENT], "higher", 0.25)["verdict"] \
        == "flat"


def test_unresolved_when_the_parent_spread_exceeds_the_bound(ab):
    wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    v = ab.verdict(wide, list(reversed(wide)), "higher", 0.25)
    assert v["iqr"] > 0.25 * 100.0
    assert v["verdict"] == "unresolved"
    # Every change run better than every parent run: resolved after all.
    assert ab.verdict(wide, [w + 200.0 for w in wide], "higher", 0.25)["verdict"] == "gain"


def _stub_runs(ab, monkeypatch, tmp_path, incorrect=()):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    calls = []

    def run_perfbench(command, tree, workload, seed, seconds):
        side = "parent" if tree == tmp_path else "change"
        calls.append((side, seed))
        return {
            "correct": (side, seed) not in incorrect,
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared},
        }

    monkeypatch.setattr(ab, "worktree", lambda rev: contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(ab, "run_perfbench", run_perfbench)
    return calls


def test_pairs_share_a_seed_and_alternate_order(ab, monkeypatch, tmp_path, capsys):
    calls = _stub_runs(ab, monkeypatch, tmp_path)
    assert ab.main(["HEAD", "--workload", "serve_closed_loop"]) == 0
    assert calls[:4] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert len(calls) == 2 * ab.PAIRS
    out = capsys.readouterr().out
    assert "ops_per_s" in out and "flat" in out


def test_an_incorrect_run_exits_nonzero(ab, monkeypatch, tmp_path, capsys):
    _stub_runs(ab, monkeypatch, tmp_path, incorrect={("change", 3)})
    assert ab.main(["HEAD", "--workload", "serve_closed_loop"]) == 1
    assert "1 run(s) not correct" in capsys.readouterr().out

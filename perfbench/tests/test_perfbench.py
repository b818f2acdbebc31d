"""Self-tests of the benchmark: shape of its output and its checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
Workloads are shrunk to one or two apps so each test takes seconds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import run, spans, workloads
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    wl = WORKLOADS[name]
    shrink = {
        "sim_designs": dict(apps=("BwdBN",), setup_repeats=1),
        "sim_oracle": dict(apps=("comd",), setup_repeats=1),
        "serve_closed_loop": dict(apps=("comd",), setup_repeats=1),
        "sweep_grid": dict(apps=("BwdBN", "FwdSoft"), setup_repeats=1),
    }[name]
    return replace(wl, **shrink)


@pytest.fixture(autouse=True)
def one_pass(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)


def execute(capsys, wl, trace=False, seed=5):
    code = run.execute(wl, seed, 0.01, trace)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert setup in BENCHMARK["end_to_end"]


@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, name, trace):
    code, lines, result = execute(capsys, tiny(name), trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\b"
        assert re.search(row, table, re.M)
    if not trace:
        assert result["metrics"]["ok_ops_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tampered_expected(monkeypatch, key):
    original = workloads.load_expected

    def tampered(name):
        data = copy.deepcopy(original(name))
        cells = data.get("cells") or data["variants"][str(workloads.variant_of(5))]
        for expected in cells.values():
            expected[key] += 1
        return data

    monkeypatch.setattr(workloads, "load_expected", tampered)


@pytest.mark.parametrize("name", ["sim_designs", "sweep_grid"])
def test_tampered_expected_value_counts_as_failed(capsys, monkeypatch, name):
    _tampered_expected(monkeypatch, "committed")
    code, _, result = execute(capsys, tiny(name))
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ops_frac"]["value"] < 1.0


def test_tampered_decision_counts_as_failed(capsys, monkeypatch):
    original = workloads.record_stream

    def tampered(*args, **kwargs):
        stream, result = original(*args, **kwargs)
        stream.decisions[3] = [f + 0.1 for f in stream.decisions[3]]
        return stream, result

    monkeypatch.setattr(workloads, "record_stream", tampered)
    code, _, result = execute(capsys, tiny("serve_closed_loop"))
    assert code != 0 and result["failed"] >= 1
    assert result["metrics"]["ok_ops_frac"]["value"] < 1.0


def test_traced_self_times_sum_to_wall_and_originals_return():
    from repro.gpu.gpu import Gpu

    original = Gpu.__dict__["run_epoch"]
    wl = tiny("sim_oracle")
    state = wl.setup(5)
    untraced = wl.run_pass(state)
    tracer = spans.SpanTracer()
    with tracer.installed():
        assert Gpu.__dict__["run_epoch"] is not original
        traced = wl.run_pass(state, tracer)
    assert Gpu.__dict__["run_epoch"] is original
    assert traced.results == untraced.results and traced.failed == 0

    st = spans.self_times(tracer.spans)
    layers = [spans.OP_SPAN, "gpu.run_epoch", spans.FORK_SPAN, "dvfs.oracle.sample",
              "core.controller.decide", "core.controller.observe", "power.add_epoch"]
    assert sorted(k for k in st if k not in ("wall", spans.CALIBRATE_SPAN)) == sorted(layers)
    assert all(st[k] > 0 for k in layers)
    assert sum(st[k] for k in layers) == pytest.approx(st["wall"], rel=1e-9)


def test_seed_selects_a_generated_variant():
    def program_lengths(variant):
        kernels = workloads.generated_kernels("hacc", variant, 0.2)
        return [len(p) for k in kernels for p in k.variants]

    assert workloads.variant_of(3) == workloads.variant_of(3 + workloads.N_VARIANTS)
    assert program_lengths(1) == program_lengths(1)
    assert program_lengths(1) != program_lengths(2)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_designs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

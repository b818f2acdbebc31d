"""Hot-path profiling: counters, collection, formatting, CLI surface."""

import json

import pytest

from repro.cli import main
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.runtime import HotPathCounters, collect_hotpath, format_hotpath, maybe_cprofile
from repro.runtime.profiling import collect_gpu
from repro.runtime.progress import SOURCE_SERIAL, CellRecord, SweepInstrumentation

from helpers import make_loop_program


class TestHotPathCounters:
    def test_merge_adds_fieldwise(self):
        a = HotPathCounters(cycles=3, waves_scanned=10)
        a.merge({"cycles": 2, "clone_bytes": 7})
        assert a.cycles == 5
        assert a.waves_scanned == 10
        assert a.clone_bytes == 7

    def test_merge_accepts_counters_instance(self):
        a = HotPathCounters(snapshots=1)
        a.merge(HotPathCounters(snapshots=2, restores=4))
        assert a.snapshots == 3
        assert a.restores == 4

    def test_dict_round_trip(self):
        a = HotPathCounters(cycles=9, oracle_samples=2)
        assert HotPathCounters.from_dict(a.as_dict()) == a

    def test_from_dict_ignores_unknown_keys(self):
        c = HotPathCounters.from_dict({"cycles": 1, "not_a_counter": 99})
        assert c.cycles == 1


class TestCollection:
    def test_collect_gpu_counts_work(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=500), WorkgroupGeometry(4, 2))
        )
        gpu.run_epoch(1000.0)
        counters = collect_gpu(gpu)
        assert counters.cycles > 0
        assert counters.waves_scanned > 0
        assert counters.completions_delivered > 0

    def test_collect_hotpath_without_sampler(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=200), WorkgroupGeometry(4, 2))
        )
        gpu.run_epoch(1000.0)
        hp = collect_hotpath(gpu)
        assert hp["oracle_samples"] == 0
        assert hp["cycles"] == collect_gpu(gpu).cycles

    def test_clone_and_snapshot_byte_accounting(self, tiny_config):
        gpu = Gpu(tiny_config.gpu)
        gpu.load_kernel(
            Kernel.homogeneous(make_loop_program(trips=200), WorkgroupGeometry(4, 2))
        )
        gpu.run_epoch(1000.0)
        gpu.clone()
        snap = gpu.snapshot()
        assert gpu.ctr_clones == 1
        assert gpu.ctr_clone_bytes >= gpu.ctr_snapshot_bytes > 0
        assert snap.nbytes == gpu.ctr_snapshot_bytes


class TestFormatting:
    def test_format_hotpath_renders_counters(self):
        text = format_hotpath({"cycles": 1234567}, title="engine work")
        assert "engine work" in text
        assert "1,234,567" in text


class TestMaybeCprofile:
    def test_noop_without_path(self):
        with maybe_cprofile(None) as prof:
            assert prof is None
        with maybe_cprofile("") as prof:
            assert prof is None

    def test_writes_pstats_file(self, tmp_path):
        import pstats

        out = tmp_path / "prof.pstats"
        with maybe_cprofile(str(out)) as prof:
            assert prof is not None
            sum(range(1000))
        assert out.exists()
        pstats.Stats(str(out))  # parses as valid profile data


class TestSweepAggregation:
    def test_hotpath_totals_merge_across_cells(self):
        instr = SweepInstrumentation()
        instr.record_cell(
            CellRecord("a/X", "a", "X", 1.0, SOURCE_SERIAL, hotpath={"cycles": 5})
        )
        instr.record_cell(
            CellRecord("b/X", "b", "X", 1.0, SOURCE_SERIAL,
                       hotpath={"cycles": 7, "clones": 2})
        )
        totals = instr.hotpath_totals()
        assert totals["cycles"] == 12
        assert totals["clones"] == 2
        assert "hotpath: cycles" in instr.summary()
        assert instr.as_dict()["hotpath"]["cycles"] == 12

    def test_hotpath_totals_empty_without_counters(self):
        instr = SweepInstrumentation()
        instr.record_cell(CellRecord("a/X", "a", "X", 1.0, SOURCE_SERIAL))
        assert instr.hotpath_totals() == {}
        assert instr.as_dict()["hotpath"] == {}


class TestTraceIo:
    def test_run_json_carries_hotpath(self, tmp_path):
        from repro.analysis.trace_io import load_run_json, save_run_json
        from repro.config import small_config
        from repro.dvfs.designs import make_controller
        from repro.dvfs.simulation import DvfsSimulation

        cfg = small_config(n_cus=2, waves_per_cu=4)
        ks = [Kernel.homogeneous(make_loop_program(trips=500), WorkgroupGeometry(4, 2))]
        r = DvfsSimulation(
            ks, make_controller("STALL", cfg), cfg, max_epochs=100,
            oracle_sample_freqs=3,
        ).run()
        path = tmp_path / "run.json"
        save_run_json(r, path)
        data = load_run_json(path)
        assert data["hotpath"]["cycles"] > 0


class TestCli:
    """``repro profile --hotpath`` profiles a fixed 10-epoch window."""

    def test_profile_hotpath_prints_counters(self, capsys):
        with pytest.warns(RuntimeWarning, match="truncated"):
            rc = main([
                "profile", "comd", "--hotpath", "--cus", "2", "--waves", "4",
                "--scale", "0.1", "--max-epochs", "10",
            ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hot-path counters" in out
        assert "waves_scanned" in out

    def test_profile_hotpath_json_and_cprofile(self, capsys, tmp_path):
        counters = tmp_path / "hot.json"
        stats = tmp_path / "prof.pstats"
        with pytest.warns(RuntimeWarning, match="truncated"):
            rc = main([
                "profile", "comd", "--hotpath", "--cus", "2", "--waves", "4",
                "--scale", "0.1", "--max-epochs", "10", "--engine", "reference",
                "--json", str(counters), "--cprofile", str(stats),
            ])
        assert rc == 0
        assert stats.exists()
        data = json.loads(counters.read_text())
        assert data["engine"] == "reference"
        assert data["hotpath"]["cycles"] > 0

    def test_engine_flag_switches_engines(self, capsys, tmp_path):
        scans = {}
        for engine in ("event", "reference"):
            path = tmp_path / f"{engine}.json"
            with pytest.warns(RuntimeWarning, match="truncated"):
                assert main([
                    "profile", "comd", "--hotpath", "--cus", "2", "--waves", "4",
                    "--scale", "0.1", "--max-epochs", "10", "--engine", engine,
                    "--json", str(path),
                ]) == 0
            scans[engine] = json.loads(path.read_text())["hotpath"]["waves_scanned"]
        assert scans["reference"] > scans["event"]

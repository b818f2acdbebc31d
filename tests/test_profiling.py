"""Hot-path profiling: counters, collection, formatting, CLI surface."""

import json

import pytest

from repro.cli import main
from repro.config import small_config
from repro.gpu.gpu import Gpu
from repro.gpu.isa import ProgramBuilder, valu
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


# ----------------------------------------------------------------------
# Work-counter pins. Five small workloads, each isolating one layer of an
# epoch's cost: single-wave batched issue, the multi-wave ready scan, the
# oracle's fork loop, PCSTALL's observe + decide (its PC-table counts),
# and one executor cell. The counts are deterministic, so they are pinned
# exactly; an engine speed-up leaves them as they are. A change that moves
# one is an algorithmic change: it updates the pin and says why in
# CHANGES.md.


def _mixed_program(trips):
    return make_loop_program(n_valu=6, n_loads=2, l1_hit=0.6, trips=trips,
                             name="bench-mixed")


def _engine_window(cfg, kernel, epochs):
    """Counts over ``epochs`` epochs after a one-epoch warmup."""
    gpu = Gpu(cfg.gpu)
    gpu.load_kernel(kernel)
    gpu.run_epoch(cfg.dvfs.epoch_ns)
    base = collect_gpu(gpu).as_dict()
    committed = sum(gpu.run_epoch(cfg.dvfs.epoch_ns).total_committed()
                    for _ in range(epochs))
    hot = collect_gpu(gpu).as_dict()
    return epochs, committed, {k: v - base[k] for k, v in hot.items()}


def _core_engine():
    b = ProgramBuilder()
    top = b.label()
    for _ in range(32):
        b.emit(valu())
    b.loop_back(top, trips=20_000)
    kernel = Kernel.homogeneous(b.build("bench-compute"), WorkgroupGeometry(1, 1))
    return _engine_window(small_config(n_cus=1, waves_per_cu=1), kernel, 60)


def _issue_scan():
    kernel = Kernel.homogeneous(_mixed_program(8_000), WorkgroupGeometry(4, 4))
    return _engine_window(small_config(n_cus=2, waves_per_cu=8), kernel, 40)


def _oracle_sampling():
    from repro.dvfs.oracle import OracleSampler

    cfg = small_config(n_cus=2, waves_per_cu=4)
    gpu = Gpu(cfg.gpu)
    gpu.load_kernel(Kernel.homogeneous(_mixed_program(20_000), WorkgroupGeometry(2, 4)))
    for _ in range(3):
        gpu.run_epoch(cfg.dvfs.epoch_ns)
    sampler = OracleSampler(cfg, n_sample_freqs=4)
    committed = 0
    for _ in range(8):
        sample = sampler.sample(gpu, cfg.dvfs.epoch_ns)
        committed += sum(c for dom in sample.points for _, c in dom)
    # One pre-execution per sampled frequency counts as one epoch.
    return 8 * len(sampler.sample_grid), committed, collect_hotpath(gpu, sampler)


def _predictor_update():
    from repro.dvfs.designs import make_controller

    cfg = small_config(n_cus=2, waves_per_cu=4)
    gpu = Gpu(cfg.gpu)
    gpu.load_kernel(Kernel.homogeneous(_mixed_program(20_000), WorkgroupGeometry(2, 4)))
    results = [gpu.run_epoch(cfg.dvfs.epoch_ns) for _ in range(4)]
    ctrl = make_controller("PCSTALL", cfg)
    for i in range(150):
        ctrl.observe(results[i % len(results)])
        ctrl.decide()
    stats = ctrl.predictor.table_stats()
    return 150, 0, {f"pc_{k}": v for k, v in stats.items()}


def _end_to_end():
    from repro.runtime import SweepTask
    from repro.runtime.executor import run_task

    task = SweepTask("comd", "PCSTALL", small_config(n_cus=2, waves_per_cu=4),
                     scale=0.12, max_epochs=40, oracle_sample_freqs=3)
    # A fixed 40-epoch window of comd, which runs longer.
    with pytest.warns(RuntimeWarning, match="truncated at max_epochs=40"):
        result = run_task(task)
    return result.epochs, result.total_committed, dict(result.hotpath)


def _gpu_counts(**nonzero):
    return HotPathCounters(**nonzero).as_dict()


@pytest.mark.parametrize("run,epochs,committed,hotpath", [
    pytest.param(_core_engine, 60, 26093, _gpu_counts(
        cycles=32093, batched_instructions=26093), id="core_engine"),
    pytest.param(_issue_scan, 40, 77019, _gpu_counts(
        cycles=102624, waves_scanned=75151, batched_instructions=10427,
        completions_delivered=17112), id="issue_scan"),
    pytest.param(_oracle_sampling, 32, 34576, _gpu_counts(
        cycles=5058, waves_scanned=28480, batched_instructions=13552,
        completions_delivered=8322, snapshots=8, snapshot_bytes=22208,
        restores=32, oracle_samples=8, oracle_cycles=52768), id="oracle_sampling"),
    pytest.param(_predictor_update, 150, 0, {
        "pc_lookups": 1200, "pc_hits": 1191, "pc_updates": 1200, "pc_evictions": 0,
    }, id="predictor_update"),
    pytest.param(_end_to_end, 40, 33142, _gpu_counts(
        cycles=52985, waves_scanned=26339, batched_instructions=8981,
        completions_delivered=4538), id="end_to_end"),
])
def test_work_counters_are_pinned(run, epochs, committed, hotpath):
    assert run() == (epochs, committed, hotpath)

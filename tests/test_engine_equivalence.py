"""Event engine vs reference engine: bit-identical results, fewer scans.

The event-driven fast path in :mod:`repro.gpu.cu` must reproduce the
pre-change per-cycle scheduler *exactly* - same floats, same commit
counts, same residency - for every workload class. The reference loop is
kept in-tree (``GpuConfig.engine = "reference"``) precisely so these
golden-trace comparisons never rot.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GpuConfig, MemoryConfig, small_config
from repro.dvfs.designs import make_controller
from repro.dvfs.simulation import DvfsSimulation
from repro.gpu.gpu import Gpu
from repro.gpu.isa import Program, branch, endpgm, load, store, valu, waitcnt
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.workloads import build_workload, workload

from helpers import make_loop_program
from test_compiled import programs

#: One representative per workload class (HPC compute, HPC memory,
#: MI GEMM, MI layer op) - see repro.workloads.suite.
WORKLOADS = ("comd", "xsbench", "dgemm", "BwdBN")


def engine_pair(base_cfg):
    return (
        replace(base_cfg, gpu=replace(base_cfg.gpu, engine="event")),
        replace(base_cfg, gpu=replace(base_cfg.gpu, engine="reference")),
    )


def cu_state(gpu):
    """Everything scheduling-visible, compared with exact ==: each CU's
    clock and epoch stats, every resident wave's full captured state
    (pc, loop counters, readiness, blocking, memory bookkeeping, epoch
    stats), the completions heap and the pending workgroups."""
    return [
        (
            cu.now,
            cu.stats.capture(),
            tuple(wf.capture() for wf in cu.waves),
            tuple(cu.completions),
            tuple(cu.pending_workgroups),
        )
        for cu in gpu.cus
    ]


def result_signature(r):
    return (
        r.delay_ns,
        r.energy.total,
        r.energy.cu_dynamic_and_leakage,
        r.energy.memory,
        r.energy.transitions,
        r.total_committed,
        r.epochs,
        r.completed,
        r.prediction_accuracy,
        r.pc_hit_ratio,
        r.total_transitions,
        tuple(sorted(r.frequency_residency.items())),
    )


class TestLockstep:
    """Epoch-by-epoch state equality on the raw GPU (no controller)."""

    @pytest.mark.parametrize("with_barrier", [False, True])
    def test_loop_kernel_lockstep(self, tiny_config, with_barrier):
        prog = make_loop_program(trips=2000, with_barrier=with_barrier)
        kern = Kernel.homogeneous(prog, WorkgroupGeometry(6, 2))
        cfg_e, cfg_r = engine_pair(tiny_config)
        ge, gr = Gpu(cfg_e.gpu), Gpu(cfg_r.gpu)
        ge.load_kernel(kern)
        gr.load_kernel(kern)
        for _ in range(25):
            ge.run_epoch(1000.0)
            gr.run_epoch(1000.0)
            assert cu_state(ge) == cu_state(gr)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_lockstep(self, tiny_config, name):
        kern = build_workload(workload(name), scale=0.15)[0]
        cfg_e, cfg_r = engine_pair(tiny_config)
        ge, gr = Gpu(cfg_e.gpu), Gpu(cfg_r.gpu)
        ge.load_kernel(kern)
        gr.load_kernel(kern)
        for _ in range(30):
            ge.run_epoch(1000.0)
            gr.run_epoch(1000.0)
        assert cu_state(ge) == cu_state(gr)


#: Two CUs in separate V/f domains, room for one 4-wave workgroup plus
#: a 2-wave one: exercises pending dispatch and shared-memory contention.
DIFF_GPU = GpuConfig(n_cus=2, waves_per_cu=6, cus_per_domain=1,
                     memory=MemoryConfig(n_l2_banks=2))

#: Per-epoch domain frequencies (GHz): a change between epochs moves the
#: cycle period mid-run, so the cost tables are read at several periods.
DIFF_FREQS = ((1.7, 1.7), (1.3, 2.2), (2.2, 1.0), (1.7, 1.3))


def run_differential(prog, n_workgroups, waves_per_wg, epoch_ns=100.0, max_epochs=200):
    """Run ``prog`` on both engines in epoch lockstep; also fork the event
    engine each epoch (snapshot, run, restore, re-run) and require the
    re-run to land on the same state. Returns the epochs run."""
    kern = Kernel.homogeneous(prog, WorkgroupGeometry(n_workgroups, waves_per_wg))
    ge = Gpu(replace(DIFF_GPU, engine="event"))
    gr = Gpu(replace(DIFF_GPU, engine="reference"))
    ge.load_kernel(kern)
    gr.load_kernel(kern)
    epochs = 0
    while not (ge.done and gr.done) and epochs < max_epochs:
        freqs = DIFF_FREQS[epochs % len(DIFF_FREQS)]
        ge.set_domain_frequencies(freqs)
        gr.set_domain_frequencies(freqs)
        snap = ge.snapshot()
        ge.run_epoch(epoch_ns)
        forked = cu_state(ge)
        ge.restore(snap)
        ge.run_epoch(epoch_ns)
        assert cu_state(ge) == forked, f"fork re-run diverged at epoch {epochs}"
        gr.run_epoch(epoch_ns)
        assert cu_state(ge) == cu_state(gr), f"engines diverged at epoch {epochs}"
        epochs += 1
    assert ge.done == gr.done
    return epochs


class TestGeneratedPrograms:
    """Engine differential over generated programs (mixed VALU/SALU,
    loads/stores, WAITCNT, BARRIER, nested backward branches)."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        prog=programs(),
        outer_trips=st.integers(0, 8),
        n_workgroups=st.integers(1, 3),
        waves_per_wg=st.integers(2, 4),
    )
    def test_generated_program_lockstep(self, prog, outer_trips, n_workgroups, waves_per_wg):
        # Wrap the body in an outer loop so runs span many epochs.
        body = list(prog.instructions[:-1])
        looped = Program.from_list(body + [branch(0, outer_trips), endpgm()], name=prog.name)
        run_differential(looped, n_workgroups, waves_per_wg)

    @pytest.mark.parametrize(
        "body",
        [
            # Every wave blocked on memory most of the time.
            [load(0.2, 0.3), waitcnt(0)],
            # A wave runnable but mid-instruction across whole quanta.
            [valu(cycles=48), store(0.5, 0.5), load(0.2, 0.3), waitcnt(0)],
        ],
        ids=["load-waitcnt", "long-valu"],
    )
    def test_idle_quanta_lockstep(self, body):
        """Loops whose quanta mostly issue nothing: the case the event
        engine's idle-quantum exit short-cuts."""
        prog = Program.from_list(body + [branch(0, 40), endpgm()], name="idle")
        assert run_differential(prog, n_workgroups=3, waves_per_wg=2) > 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGoldenRuns:
    """Full DVFS runs (controller + oracle) must be bit-identical, compared
    over completed runs so the tail (retire, later dispatches) counts."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_run_result_bit_identical(self, name):
        results = {}
        for cfg in engine_pair(small_config(n_cus=2, waves_per_cu=4)):
            kernels = build_workload(workload(name), scale=0.15)
            ctrl = make_controller("PCSTALL", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="PCSTALL", workload_name=name,
                collect_accuracy=True, oracle_sample_freqs=3,
            )
            results[cfg.gpu.engine] = sim.run()
        assert results["event"].completed
        assert result_signature(results["event"]) == result_signature(
            results["reference"]
        )

    def test_static_design_bit_identical(self):
        results = {}
        for cfg in engine_pair(small_config(n_cus=2, waves_per_cu=4)):
            kernels = build_workload(workload("comd"), scale=0.15)
            ctrl = make_controller("STATIC@1.7", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="STATIC@1.7", workload_name="comd",
                oracle_sample_freqs=3,
            )
            results[cfg.gpu.engine] = sim.run()
        assert results["event"].completed
        assert result_signature(results["event"]) == result_signature(
            results["reference"]
        )


class TestScanReduction:
    def test_event_engine_scans_at_least_3x_fewer_waves(self):
        """The headline win: on the experiment drivers' platform the
        ready-queue + batching cut wavefront-scan events >= 3x (measured
        5.5x-37x per workload at small_config defaults)."""
        scans = {}
        for cfg in engine_pair(small_config()):
            kernels = build_workload(workload("comd"), scale=0.3)
            ctrl = make_controller("PCSTALL", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="PCSTALL", workload_name="comd",
                max_epochs=25, oracle_sample_freqs=3,
            )
            # The scan counts compare one fixed 25-epoch window.
            with pytest.warns(RuntimeWarning, match="truncated"):
                r = sim.run()
            scans[cfg.gpu.engine] = r.hotpath["waves_scanned"]
        assert scans["reference"] >= 3 * scans["event"]

    def test_event_engine_clones_nothing_per_sample(self):
        """Oracle sampling restores into a persistent scratch GPU: zero
        clone bytes, while the reference path clones per sample."""
        hot = {}
        for cfg in engine_pair(small_config(n_cus=2, waves_per_cu=4)):
            kernels = build_workload(workload("comd"), scale=0.15)
            ctrl = make_controller("PCSTALL", cfg)
            sim = DvfsSimulation(
                kernels, ctrl, cfg, design_name="PCSTALL", workload_name="comd",
                collect_accuracy=True, max_epochs=20, oracle_sample_freqs=3,
            )
            # Clone/snapshot bytes compare one fixed 20-epoch window.
            with pytest.warns(RuntimeWarning, match="truncated"):
                hot[cfg.gpu.engine] = sim.run().hotpath
        assert hot["event"]["clone_bytes"] == 0
        assert hot["event"]["snapshot_bytes"] > 0
        assert hot["reference"]["clone_bytes"] > hot["event"]["snapshot_bytes"]


class TestEngineConfig:
    def test_unknown_engine_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="engine"):
            replace(tiny_config.gpu, engine="warp-speed")

    def test_engine_flows_into_cache_key(self, tiny_config):
        from repro.runtime import SweepTask, task_key

        keys = {
            cfg.gpu.engine: task_key(
                SweepTask("comd", "PCSTALL", cfg).cache_fields()
            )
            for cfg in engine_pair(tiny_config)
        }
        assert keys["event"] != keys["reference"]

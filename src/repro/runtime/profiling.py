"""Zero-dependency hot-path profiling for the simulation engine.

The hot objects count the work they do (`plain int` attributes, bumped
on the hot path, never read by the timing model) and this module
collects, merges and formats those counters. They are deterministic, so
they are compared exactly (the pins in ``tests/test_profiling.py``,
``perfbench``'s expected outputs): a change to them is an algorithmic
change, whereas an engine speed-up leaves them as they are. Wall-clock
speed is measured by same-machine A/B runs of ``perfbench/``
(``scripts/ab.py``), not by these counters.

* ``cycles``                 - scheduler steps simulated across all CUs.
* ``waves_scanned``          - wavefront readiness examinations. The
  reference engine examines every resident wave each cycle (issue scan
  plus the ``_next_wakeup`` scan); the event engine only pops waves that
  can actually issue, at least 3x fewer on the experiment scripts'
  platform.
* ``batched_instructions``   - instructions retired through the
  single-wave straight-line batch path (no per-cycle rescan at all).
* ``completions_delivered``  - memory completions delivered to waves.
* ``clones`` / ``clone_bytes``         - deep ``Gpu.clone()`` traffic.
* ``snapshots`` / ``snapshot_bytes``   - flat ``Gpu.snapshot()`` traffic.
* ``restores``               - snapshot replays into the scratch GPU.
* ``oracle_samples``         - fork-and-pre-execute rounds.
* ``oracle_cycles``          - scheduler steps spent inside pre-execution.

``RunResult.hotpath`` carries the collected dict out of a simulation;
``SweepInstrumentation`` aggregates it across sweep cells; the
``repro profile --hotpath`` CLI prints it for one workload x design.
An opt-in :func:`maybe_cprofile` wrapper covers the cases where a real
profile is wanted (``repro profile --cprofile FILE``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Dict, Iterator, Mapping, Optional


@dataclass
class HotPathCounters:
    """A mergeable bundle of hot-path event counts."""

    cycles: int = 0
    waves_scanned: int = 0
    batched_instructions: int = 0
    completions_delivered: int = 0
    clones: int = 0
    clone_bytes: int = 0
    snapshots: int = 0
    snapshot_bytes: int = 0
    restores: int = 0
    oracle_samples: int = 0
    oracle_cycles: int = 0

    def merge(self, other: Mapping[str, int]) -> "HotPathCounters":
        """Add another counter mapping into this one (in place)."""
        for f in fields(self):
            inc = other.get(f.name, 0) if isinstance(other, Mapping) else getattr(other, f.name, 0)
            setattr(self, f.name, getattr(self, f.name) + int(inc))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "HotPathCounters":
        known = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in known})

    def to_registry(self, registry, prefix: str = "hotpath_") -> None:
        """Add these counts into a telemetry
        :class:`~repro.telemetry.metrics.MetricsRegistry` (the common
        sink the sweep instrumentation aggregates through)."""
        for f in fields(self):
            registry.inc(f"{prefix}{f.name}", getattr(self, f.name))


def collect_gpu(gpu) -> HotPathCounters:
    """Harvest the counters of one :class:`~repro.gpu.gpu.Gpu`."""
    out = HotPathCounters(
        clones=gpu.ctr_clones,
        clone_bytes=gpu.ctr_clone_bytes,
        snapshots=gpu.ctr_snapshots,
        snapshot_bytes=gpu.ctr_snapshot_bytes,
        restores=gpu.ctr_restores,
    )
    for cu in gpu.cus:
        out.cycles += cu.ctr_cycles
        out.waves_scanned += cu.ctr_waves_scanned
        out.batched_instructions += cu.ctr_batched
        out.completions_delivered += cu.ctr_completions
    return out


def collect_hotpath(gpu, sampler=None) -> Dict[str, int]:
    """Harvest main-GPU counters plus the oracle's scratch-side work.

    ``sampler`` is an :class:`~repro.dvfs.oracle.OracleSampler` (or None
    for designs without oracle truth). The oracle's restores happen on
    its scratch GPU, and its pre-executed cycles are reported separately
    as ``oracle_cycles`` so per-epoch fork cost stays visible.
    """
    out = collect_gpu(gpu)
    if sampler is not None:
        out.oracle_samples = getattr(sampler, "ctr_samples", 0)
        # Work done in discarded forks (reference clone-per-sample path,
        # or a retired scratch GPU), absorbed by the sampler.
        out.oracle_cycles += getattr(sampler, "ctr_fork_cycles", 0)
        out.waves_scanned += getattr(sampler, "ctr_fork_scans", 0)
        out.batched_instructions += getattr(sampler, "ctr_fork_batched", 0)
        out.completions_delivered += getattr(sampler, "ctr_fork_completions", 0)
        scratch = getattr(sampler, "_scratch", None)
        if scratch is not None:
            side = collect_gpu(scratch)
            out.oracle_cycles += side.cycles
            out.waves_scanned += side.waves_scanned
            out.batched_instructions += side.batched_instructions
            out.completions_delivered += side.completions_delivered
            out.restores += scratch.ctr_restores
    return out.as_dict()


def format_hotpath(counters: Mapping[str, int], title: str = "hot-path counters") -> str:
    """Render a counter mapping as the repo's standard table."""
    from repro.analysis.report import format_table

    rows = [[name, f"{int(value):,}"] for name, value in counters.items()]
    return format_table(["event", "count"], rows, title=title)


@contextlib.contextmanager
def maybe_cprofile(path: Optional[str]) -> Iterator[Optional[object]]:
    """Opt-in ``cProfile`` wrapper: a no-op when ``path`` is falsy.

    Usage::

        with maybe_cprofile(args.cprofile):
            run_the_workload()

    When ``path`` is given, profile stats are dumped there in the binary
    ``pstats`` format (inspect with ``python -m pstats <path>``).
    """
    if not path:
        yield None
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(path)


__all__ = [
    "HotPathCounters",
    "collect_gpu",
    "collect_hotpath",
    "format_hotpath",
    "maybe_cprofile",
]

"""The per-epoch decision digest that the ``run`` and ``epoch`` spans carry.

When a :class:`~repro.obs.trace.Tracer` is attached,
:class:`~repro.dvfs.simulation.DvfsSimulation` builds one
:class:`RunDigest` per run and asks it for span attributes:

* :meth:`RunDigest.run_attrs` - the ``run`` span's identity: workload,
  design, objective, domain count, epoch length, frequency grid,
  engine and config hash, plus the full ``sim_config`` when the tracer
  records observations;
* :meth:`RunDigest.epoch_attrs` - one elapsed epoch: the sim-clock
  window, energy, V/f transitions, commits, PC-table deltas, one
  ``domains`` entry per V/f domain (chosen frequency, predicted line
  and commits, actual commits, relative error, oracle truth and
  oracle-best frequency, stall/busy split), and the ``observation``
  when the tracer records observations;
* :meth:`RunDigest.summary_attrs` - the run result's digest plus the
  run's per-PC prediction-error attribution (``pc``).

The field lists are pinned in :mod:`repro.telemetry.schema`. Without a
tracer the simulation never builds a digest. This module imports
nothing from :mod:`repro.dvfs` or :mod:`repro.gpu`; it reads public
attributes of the result objects it is handed, which keeps the
dependency arrow pointing from the simulation into telemetry only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.schema import epoch_result_to_wire, sim_config_to_wire

#: Frequency comparison slack (GHz); matches the oracle's grid tolerance.
_FREQ_ABS_TOL_GHZ = 1e-6

#: Cumulative PC-table counter names diffed into per-epoch deltas.
_PC_STAT_KEYS = ("lookups", "hits", "updates", "evictions")


@dataclass
class PcErrorStat:
    """Accumulated prediction error attributed to one start PC."""

    pc_idx: int
    samples: int = 0
    committed: int = 0
    #: Sum of (domain relative error x wavefront commit share); the
    #: run-level ranking weight for "which PCs mispredict".
    weighted_error: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "pc_idx": self.pc_idx,
            "samples": self.samples,
            "committed": self.committed,
            "weighted_error": self.weighted_error,
        }


class RunDigest:
    """Turns one run's elapsed epochs into ``run``/``epoch`` span attrs."""

    def __init__(self, sim_config, observations: bool = False) -> None:
        self.config = sim_config
        self.observations = observations
        self._n_domains = sim_config.gpu.n_domains
        self._cus_per_domain = sim_config.gpu.cus_per_domain
        self._last_pc_cumulative: Optional[Dict[str, int]] = None
        self.pc_stats: Dict[int, PcErrorStat] = {}

    def run_attrs(
        self, workload: str, design: str, objective: str = ""
    ) -> Dict[str, object]:
        """The ``run`` span's start attributes (the run's identity)."""
        from repro.runtime.cache import config_hash

        cfg = self.config
        attrs: Dict[str, object] = {
            "workload": workload,
            "design": design,
            "objective": objective,
            "n_domains": self._n_domains,
            "epoch_ns": cfg.dvfs.epoch_ns,
            "frequencies_ghz": list(cfg.dvfs.frequencies_ghz),
            "engine": cfg.gpu.engine,
            "config_hash": config_hash(cfg),
        }
        if self.observations:
            attrs["sim_config"] = sim_config_to_wire(cfg)
        return attrs

    def epoch_attrs(
        self,
        epoch_index: int,
        result,
        chosen_freqs: Sequence[float],
        predictions: Sequence[Any],
        actual_per_domain: Sequence[int],
        sample=None,
        oracle_freqs: Optional[Sequence[float]] = None,
        epoch_energy: float = 0.0,
        pc_cumulative: Optional[Dict[str, int]] = None,
    ) -> Dict[str, object]:
        """Digest one elapsed epoch into ``epoch`` span attributes.

        ``result`` is an :class:`~repro.gpu.gpu.EpochResult`;
        ``predictions`` the controller's per-domain sensitivity lines
        (None where the design made no prediction); ``sample`` the
        elapsed epoch's :class:`~repro.dvfs.oracle.OracleSample` when
        truth sampling ran; ``oracle_freqs`` the frequency the objective
        would have chosen per domain given the true line;
        ``pc_cumulative`` the predictor's cumulative PC-table counters
        (diffed into per-epoch deltas here).
        """
        duration = result.duration_ns
        attrs: Dict[str, object] = {
            "epoch": epoch_index,
            "t_start_ns": result.t_start,
            "t_end_ns": result.t_end,
            "energy": epoch_energy,
            "transitions": result.transitions,
            "committed": result.total_committed(),
        }
        if pc_cumulative is not None:
            last = self._last_pc_cumulative or {k: 0 for k in _PC_STAT_KEYS}
            for k in _PC_STAT_KEYS:
                attrs[f"pc_{k}"] = pc_cumulative.get(k, 0) - last.get(k, 0)
            self._last_pc_cumulative = dict(pc_cumulative)

        per = self._cus_per_domain
        rel_errors: List[Optional[float]] = []
        domains: List[Dict[str, object]] = []
        for d in range(self._n_domains):
            line = predictions[d] if d < len(predictions) else None
            actual = int(actual_per_domain[d])
            chosen = float(chosen_freqs[d])
            pred_commits = line.predict(chosen) if line is not None else None
            rel_error: Optional[float] = None
            if pred_commits is not None and actual > 0:
                rel_error = abs(pred_commits - actual) / actual
            rel_errors.append(rel_error)

            busy = 0.0
            issued = 0
            committed = 0
            for cu_id in range(d * per, (d + 1) * per):
                stats = result.cu_stats[cu_id]
                split = stats.stall_breakdown(duration)
                busy += split["busy_ns"]
                issued += stats.issued
                committed += stats.committed

            dom: Dict[str, object] = {
                "epoch": epoch_index,
                "domain": d,
                "freq_ghz": chosen,
                "pred_i0": line.i0 if line is not None else None,
                "pred_slope": line.slope if line is not None else None,
                "pred_commits": pred_commits,
                "actual_commits": actual,
                "rel_error": rel_error,
                "oracle_freq_ghz": None,
                "oracle_i0": None,
                "oracle_slope": None,
                "oracle_r2": None,
                "oracle_commits": None,
                "mispredicted": None,
                "busy_ns": busy,
                "stall_ns": duration * per - busy,
                "issued": issued,
                "committed": committed,
            }
            if sample is not None:
                fit = sample.fits[d]
                dom["oracle_i0"] = fit.model.i0
                dom["oracle_slope"] = fit.model.slope
                dom["oracle_r2"] = fit.r_squared
                dom["oracle_commits"] = sample.commits_at(d, chosen)
            if oracle_freqs is not None:
                oracle_f = float(oracle_freqs[d])
                dom["oracle_freq_ghz"] = oracle_f
                dom["mispredicted"] = not math.isclose(
                    chosen, oracle_f, abs_tol=_FREQ_ABS_TOL_GHZ
                )
            domains.append(dom)
        attrs["domains"] = domains

        if self.observations:
            # The complete predictor input for this epoch; with the run
            # span's sim_config this is sufficient to replay the run
            # decision-for-decision (repro replay).
            attrs["observation"] = {
                "result": epoch_result_to_wire(result),
                "truth": (
                    [[ln.i0, ln.slope] for ln in sample.lines]
                    if sample is not None
                    else None
                ),
            }

        self._attribute_pcs(result, rel_errors)
        return attrs

    def _attribute_pcs(
        self, result, rel_errors: Sequence[Optional[float]]
    ) -> None:
        """Distribute each domain's error over the PCs its waves ran."""
        per = self._cus_per_domain
        for d, rel_error in enumerate(rel_errors):
            if rel_error is None:
                continue
            cu_ids = range(d * per, (d + 1) * per)
            domain_committed = sum(
                r.stats.committed
                for cu_id in cu_ids
                for r in result.wave_records[cu_id]
            )
            if domain_committed <= 0:
                continue
            for cu_id in cu_ids:
                for record in result.wave_records[cu_id]:
                    stat = self.pc_stats.get(record.start_pc_idx)
                    if stat is None:
                        stat = self.pc_stats[record.start_pc_idx] = PcErrorStat(
                            record.start_pc_idx
                        )
                    share = record.stats.committed / domain_committed
                    stat.samples += 1
                    stat.committed += record.stats.committed
                    stat.weighted_error += rel_error * share

    def summary_attrs(self, run_result) -> Dict[str, object]:
        """The ``run`` span's finish attributes: result digest + PC list."""
        return {
            "workload": run_result.workload,
            "design": run_result.design,
            "epochs": run_result.epochs,
            "delay_ns": run_result.delay_ns,
            "energy_total": run_result.energy.total,
            # Conservation targets for the validation auditors: the
            # epoch spans' committed counts and energies must sum to
            # these (see repro.validation.invariants).
            "elapsed_ns": run_result.energy.elapsed_ns,
            "total_committed": run_result.total_committed,
            "prediction_accuracy": run_result.prediction_accuracy,
            "pc_hit_ratio": run_result.pc_hit_ratio,
            "completed": run_result.completed,
            "pc": [
                stat.as_dict()
                for stat in sorted(
                    self.pc_stats.values(), key=lambda s: -s.weighted_error
                )
            ],
        }


__all__ = ["PcErrorStat", "RunDigest"]

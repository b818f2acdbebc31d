"""Held-out evaluation: does the trained model actually decide well?

Two complementary views, matching how the paper judges predictors:

**Offline** (:func:`offline_metrics`) - on the dataset's held-out rows,
evaluate each predicted line at the frequency the next epoch really ran
at and compare against the commits it really achieved: the same
relative-error metric the simulator scores live predictions with,
summarised with the same exact percentiles
(:func:`repro.telemetry.accuracy.percentile`).

**Online** (:func:`evaluate_design` / :func:`compare_designs`) - replay
the full :class:`~repro.dvfs.simulation.DvfsSimulation` closed loop
with the trained model making every decision, next to the hand-built
baselines (PCSTALL / CRISP / HISTORY / STATIC) and the ORACLE upper
bound, all with oracle scoring on. Each run carries an in-memory
:class:`~repro.obs.trace.Tracer` so the standard
:class:`~repro.telemetry.accuracy.AccuracyReport` drill-down (error
percentiles, oracle agreement) comes out of the same machinery the
``repro report`` CLI uses, and EDP/ED2P deltas are quoted against the
ORACLE run of the same workload.

Closed-loop evaluation is the one that matters: a model with mediocre
pointwise error can still rank frequencies correctly (and decide well),
and a sharp-looking offline fit can fall apart once its own decisions
shift the feature distribution. ``repro learn eval`` prints both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import SimConfig
from repro.core.controller import DvfsController
from repro.core.objectives import EDnPObjective, Objective
from repro.dvfs.simulation import DvfsSimulation, RunResult
from repro.learn.dataset import Dataset
from repro.learn.models import LearnedPredictor, SensitivityModel
from repro.telemetry.accuracy import AccuracyReport, percentile
from repro.obs.trace import Tracer

#: The hand-built designs a learned model is compared against.
DEFAULT_BASELINES = ("STATIC@1.7", "CRISP", "HISTORY", "PCSTALL")


def offline_metrics(
    model: SensitivityModel, dataset: Dataset, split: str = "eval"
) -> Dict[str, float]:
    """Pointwise accuracy of the model on a dataset split.

    ``rel_*`` keys summarise ``|I_pred(f_next) - commits_next| /
    commits_next`` (zero-commit epochs are scored 1.0 when the model
    claims commits, skipped when it agrees - the simulator's rule).
    """
    mask = dataset.rows(split)
    n = int(mask.sum())
    if n == 0:
        raise ValueError(f"dataset has no rows in split {split!r}")
    lines = model.predict_rows(dataset.features[mask])
    freqs = dataset.next_f[mask]
    actual = dataset.next_commits[mask]
    predicted = np.maximum(0.0, lines[:, 0] + lines[:, 1] * freqs)
    errors: List[float] = []
    for pred, act in zip(predicted, actual):
        if act <= 0:
            if pred > 0.0:
                errors.append(1.0)
            continue
        errors.append(abs(pred - act) / act)
    out: Dict[str, float] = {
        "rows": float(n),
        "scored": float(len(errors)),
        "rel_mean": sum(errors) / len(errors) if errors else 0.0,
    }
    for q in (50.0, 90.0, 99.0):
        out[f"rel_p{q:g}"] = percentile(errors, q)
    # Label-line fit (against the oracle truth the labels carry).
    label_err = np.abs(lines - dataset.labels[mask])
    out["i0_mae"] = float(label_err[:, 0].mean())
    out["slope_mae"] = float(label_err[:, 1].mean())
    return out


@dataclass
class DesignEval:
    """One design's closed-loop run plus its accuracy drill-down."""

    design: str
    result: RunResult
    accuracy: AccuracyReport

    @property
    def edp(self) -> float:
        return self.result.edp

    @property
    def ed2p(self) -> float:
        return self.result.ed2p


@dataclass
class EvalReport:
    """Closed-loop comparison of LEARNED vs baselines on one workload."""

    workload: str
    rows: List[DesignEval]
    #: Offline held-out metrics, when a dataset was supplied.
    offline: Optional[Dict[str, float]] = None

    def row(self, design: str) -> Optional[DesignEval]:
        for r in self.rows:
            if r.design == design:
                return r
        return None

    def oracle_edp(self) -> Optional[float]:
        oracle = self.row("ORACLE")
        return oracle.edp if oracle is not None else None

    def render(self) -> str:
        from repro.analysis.report import format_table

        oracle_edp = self.oracle_edp()
        table_rows = []
        for r in self.rows:
            pcts = r.accuracy.error_percentiles()
            delta = (
                f"{(r.edp / oracle_edp - 1.0) * 100.0:+.1f}%"
                if oracle_edp else "-"
            )
            acc = r.result.prediction_accuracy
            table_rows.append([
                r.design,
                f"{r.edp:.3e}",
                f"{r.ed2p:.3e}",
                delta,
                f"{acc:.3f}" if acc is not None else "-",
                f"{r.accuracy.agreement:.1%}",
                f"{pcts['p50']:.3f}",
                f"{pcts['p90']:.3f}",
            ])
        return format_table(
            ["design", "EDP", "ED2P", "EDP vs oracle", "accuracy",
             "agreement", "err p50", "err p90"],
            table_rows,
            title=f"{self.workload}: learned model vs baselines",
        )


def _run_with_accuracy(
    workload: str,
    design: str,
    config: SimConfig,
    controller: DvfsController,
    scale: float,
    max_epochs: int,
    oracle_sample_freqs: int,
) -> DesignEval:
    from repro.workloads import build_workload, workload as get_workload

    kernels = build_workload(get_workload(workload), scale=scale)
    # An unbounded ring holds the whole run, so the accuracy drill-down
    # sees every decision.
    tracer = Tracer(ring_size=0)
    sim = DvfsSimulation(
        kernels,
        controller,
        config,
        design_name=design,
        workload_name=workload,
        collect_accuracy=True,
        max_epochs=max_epochs,
        oracle_sample_freqs=oracle_sample_freqs,
        tracer=tracer,
    )
    result = sim.run()
    report = AccuracyReport.from_records(tracer.records, label=f"{workload}/{design}")
    return DesignEval(design, result, report)


def evaluate_design(
    workload: str,
    design: str,
    config: SimConfig,
    *,
    model: Optional[SensitivityModel] = None,
    objective: Optional[Objective] = None,
    scale: float = 0.4,
    max_epochs: int = 400,
    oracle_sample_freqs: int = 4,
) -> DesignEval:
    """One closed-loop run with oracle scoring.

    With ``model`` given, the design label is served by a fresh
    :class:`LearnedPredictor` around that model (bypassing the registry,
    so unsaved models are evaluable); otherwise ``design`` is built via
    the normal registry (:func:`repro.dvfs.designs.make_controller`).
    """
    obj = objective or EDnPObjective(2)
    if model is not None:
        controller = DvfsController(
            LearnedPredictor(model, config.gpu), obj, config
        )
    else:
        from repro.dvfs.designs import make_controller

        controller = make_controller(design, config, objective)
    return _run_with_accuracy(
        workload, design, config, controller, scale, max_epochs,
        oracle_sample_freqs,
    )


def compare_designs(
    model: SensitivityModel,
    workload: str,
    config: SimConfig,
    *,
    baselines: Sequence[str] = DEFAULT_BASELINES,
    include_oracle: bool = True,
    dataset: Optional[Dataset] = None,
    objective: Optional[Objective] = None,
    scale: float = 0.4,
    max_epochs: int = 400,
    oracle_sample_freqs: int = 4,
) -> EvalReport:
    """LEARNED vs the hand-built designs on one held-out workload."""
    rows: List[DesignEval] = []
    designs: List[Tuple[str, Optional[SensitivityModel]]] = [("LEARNED", model)]
    designs += [(name, None) for name in baselines]
    if include_oracle and "ORACLE" not in baselines:
        designs.append(("ORACLE", None))
    for name, mdl in designs:
        rows.append(
            evaluate_design(
                workload, name, config,
                model=mdl, objective=objective, scale=scale,
                max_epochs=max_epochs,
                oracle_sample_freqs=oracle_sample_freqs,
            )
        )
    offline = None
    if dataset is not None and dataset.n_eval > 0:
        offline = offline_metrics(model, dataset, split="eval")
    return EvalReport(workload=workload, rows=rows, offline=offline)


__all__ = [
    "DEFAULT_BASELINES",
    "DesignEval",
    "EvalReport",
    "compare_designs",
    "evaluate_design",
    "offline_metrics",
]

"""Post-hoc invariant auditors over run artifacts.

The repo's headline numbers rest on physical invariants the unit tests
never audit systematically: energy components are non-negative and sum
to the breakdown total, per-epoch energies sum to the run's energy,
simulation clocks advance monotonically, committed instructions are
conserved between the per-epoch spans and the run total, Figure 16
residency fractions sum to 1 over the V/f grid, PC tables never report
more hits than lookups, and a completed run's completion delay fits
inside its simulated window. Each auditor here re-derives one of those
invariants from a finished artifact - a
:class:`~repro.dvfs.simulation.RunResult`, an
:class:`~repro.power.energy.EnergyBreakdown`, a
:class:`~repro.core.controller.ControllerLog`, a
:class:`~repro.core.pc_table.PCTable` or a trace record stream -
and returns structured :class:`Violation` records instead of
raising, so ``repro check`` can collect everything that is wrong in one
pass and route the counts into a
:class:`~repro.telemetry.metrics.MetricsRegistry`.

Auditors are pure: they read public attributes only, never mutate the
artifact, and import nothing from :mod:`repro.dvfs` or
:mod:`repro.gpu` (they receive plain result objects, mirroring the
telemetry layer's dependency rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import span_attrs

#: Grid-matching slack (GHz), mirroring the oracle / controller snap
#: tolerances: absorbs float noise, never bridges 100 MHz grid steps.
FREQ_ABS_TOL_GHZ = 1e-6

#: Relative tolerance for "these two float accumulations must agree"
#: checks (per-epoch energy vs breakdown total, window vs delay). Sums
#: taken in a different order may differ by a few ULPs, nothing more.
SUM_REL_TOL = 1e-9
SUM_ABS_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributable and machine-readable."""

    #: Machine name of the invariant, e.g. ``energy_component_negative``.
    check: str
    #: What was audited, e.g. ``comd/PCSTALL`` or ``epoch[12]``.
    subject: str
    #: Human diagnosis with the numbers inline.
    message: str
    #: The offending value / what the invariant required, when scalar.
    observed: Optional[float] = None
    expected: Optional[float] = None

    def render(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "subject": self.subject,
            "message": self.message,
            "observed": self.observed,
            "expected": self.expected,
        }


def record_violations(
    violations: Iterable[Violation], registry: MetricsRegistry
) -> int:
    """Route violations into a metrics registry; returns the count.

    Bumps ``validation_violations`` plus one
    ``validation_violation_<check>`` counter per violation, so sweeps
    and CI can alert on totals without parsing reports.
    """
    n = 0
    for v in violations:
        registry.inc("validation_violations")
        registry.inc(f"validation_violation_{v.check}")
        n += 1
    return n


def _bad_number(x: object) -> bool:
    """True for NaN/inf/non-numeric - values no physical quantity has."""
    return not isinstance(x, (int, float)) or not math.isfinite(x)


# ----------------------------------------------------------------------
# Energy


def audit_energy_breakdown(breakdown, subject: str = "") -> List[Violation]:
    """Components finite and non-negative; they must sum to ``total``."""
    out: List[Violation] = []
    components = {
        "cu_dynamic_and_leakage": breakdown.cu_dynamic_and_leakage,
        "memory": breakdown.memory,
        "transitions": breakdown.transitions,
        "elapsed_ns": breakdown.elapsed_ns,
    }
    for name, value in components.items():
        if _bad_number(value) or value < 0.0:
            out.append(
                Violation(
                    "energy_component_negative",
                    subject,
                    f"energy component {name} = {value!r} (must be a "
                    f"finite non-negative number)",
                    observed=value if isinstance(value, (int, float)) else None,
                    expected=0.0,
                )
            )
    total = breakdown.total
    expected = (
        breakdown.cu_dynamic_and_leakage + breakdown.memory + breakdown.transitions
    )
    if _bad_number(total) or not math.isclose(
        total, expected, rel_tol=SUM_REL_TOL, abs_tol=SUM_ABS_TOL
    ):
        out.append(
            Violation(
                "energy_total_mismatch",
                subject,
                f"breakdown total {total!r} != component sum {expected!r}",
                observed=total if isinstance(total, (int, float)) else None,
                expected=expected,
            )
        )
    return out


# ----------------------------------------------------------------------
# RunResult


def audit_run_result(
    result, freq_grid: Optional[Sequence[float]] = None, subject: str = ""
) -> List[Violation]:
    """The full :class:`~repro.dvfs.simulation.RunResult` contract.

    Checks the energy breakdown, residency normalisation over the grid,
    accuracy/hit-ratio bounds, count non-negativity, and - for completed
    runs - that the completion delay fits inside the simulated window
    (``delay_ns <= energy.elapsed_ns``): the run simulated whole epochs
    past the last retirement, so a delay beyond the window means one of
    the two clocks lies.
    """
    subject = subject or f"{result.workload}/{result.design}"
    out = list(audit_energy_breakdown(result.energy, subject))

    for name, value in (
        ("epochs", result.epochs),
        ("delay_ns", result.delay_ns),
        ("total_committed", result.total_committed),
        ("total_transitions", result.total_transitions),
    ):
        if _bad_number(value) or value < 0:
            out.append(
                Violation(
                    "count_negative",
                    subject,
                    f"{name} = {value!r} (must be finite and non-negative)",
                    observed=value if isinstance(value, (int, float)) else None,
                    expected=0.0,
                )
            )

    for name, value in (
        ("prediction_accuracy", result.prediction_accuracy),
        ("pc_hit_ratio", result.pc_hit_ratio),
    ):
        if value is not None and (_bad_number(value) or not 0.0 <= value <= 1.0):
            out.append(
                Violation(
                    "ratio_out_of_bounds",
                    subject,
                    f"{name} = {value!r} outside [0, 1]",
                    observed=value if isinstance(value, (int, float)) else None,
                )
            )

    out.extend(audit_residency(result.frequency_residency, freq_grid,
                               bool(result.epochs), subject))

    if result.completed and result.delay_ns > result.energy.elapsed_ns * (
        1.0 + SUM_REL_TOL
    ) + SUM_ABS_TOL:
        out.append(
            Violation(
                "delay_exceeds_window",
                subject,
                f"completed run's delay_ns {result.delay_ns!r} exceeds the "
                f"simulated window elapsed_ns {result.energy.elapsed_ns!r}",
                observed=result.delay_ns,
                expected=result.energy.elapsed_ns,
            )
        )
    return out


def audit_residency(
    residency: Mapping[float, float],
    freq_grid: Optional[Sequence[float]],
    had_epochs: bool,
    subject: str = "",
) -> List[Violation]:
    """Fractions in [0, 1], keys on the grid, total = 1 (or 0 pre-run)."""
    out: List[Violation] = []
    for f, share in residency.items():
        if _bad_number(share) or not 0.0 <= share <= 1.0:
            out.append(
                Violation(
                    "residency_share_out_of_bounds",
                    subject,
                    f"residency[{f!r}] = {share!r} outside [0, 1]",
                    observed=share if isinstance(share, (int, float)) else None,
                )
            )
        if freq_grid is not None and not any(
            math.isclose(f, g, abs_tol=FREQ_ABS_TOL_GHZ) for g in freq_grid
        ):
            out.append(
                Violation(
                    "residency_off_grid",
                    subject,
                    f"residency key {f!r} GHz is not on the V/f grid "
                    f"{list(freq_grid)!r}",
                    observed=f,
                )
            )
    total = sum(residency.values())
    expected = 1.0 if had_epochs else 0.0
    if not math.isclose(total, expected, rel_tol=SUM_REL_TOL, abs_tol=SUM_ABS_TOL):
        out.append(
            Violation(
                "residency_sum",
                subject,
                f"residency fractions sum to {total!r}, expected {expected!r} "
                f"(an off-grid decision was counted in the total but dropped "
                f"from the grid buckets?)",
                observed=total,
                expected=expected,
            )
        )
    return out


# ----------------------------------------------------------------------
# Controller log / PC table


def audit_controller_log(
    log, freq_grid: Sequence[float], subject: str = ""
) -> List[Violation]:
    """Every chosen frequency must sit on the V/f grid."""
    out: List[Violation] = []
    for epoch, freqs in enumerate(log.chosen_freqs):
        for d, f in enumerate(freqs):
            if not any(
                math.isclose(f, g, abs_tol=FREQ_ABS_TOL_GHZ) for g in freq_grid
            ):
                out.append(
                    Violation(
                        "chosen_freq_off_grid",
                        subject,
                        f"epoch {epoch} domain {d}: chosen {f!r} GHz is not "
                        f"on the grid {list(freq_grid)!r}",
                        observed=f,
                    )
                )
    if len(log.predictions) != len(log.chosen_freqs):
        out.append(
            Violation(
                "log_length_mismatch",
                subject,
                f"{len(log.predictions)} prediction epochs vs "
                f"{len(log.chosen_freqs)} decision epochs",
                observed=float(len(log.predictions)),
                expected=float(len(log.chosen_freqs)),
            )
        )
    return out


def audit_pc_table(table, subject: str = "") -> List[Violation]:
    """Counter sanity for a :class:`~repro.core.pc_table.PCTable`."""
    out: List[Violation] = []
    counters = {
        "lookups": table.lookups,
        "hits": table.hits,
        "updates": table.updates,
        "evictions": table.evictions,
    }
    for name, value in counters.items():
        if _bad_number(value) or value < 0:
            out.append(
                Violation(
                    "count_negative",
                    subject,
                    f"PC-table counter {name} = {value!r}",
                    observed=value if isinstance(value, (int, float)) else None,
                )
            )
    if table.hits > table.lookups:
        out.append(
            Violation(
                "pc_hits_exceed_lookups",
                subject,
                f"PC table reports {table.hits} hits from {table.lookups} "
                f"lookups",
                observed=float(table.hits),
                expected=float(table.lookups),
            )
        )
    if table.evictions > table.updates:
        out.append(
            Violation(
                "pc_evictions_exceed_updates",
                subject,
                f"PC table reports {table.evictions} evictions from "
                f"{table.updates} updates",
                observed=float(table.evictions),
                expected=float(table.updates),
            )
        )
    if not 0.0 <= table.occupancy <= 1.0:
        out.append(
            Violation(
                "ratio_out_of_bounds",
                subject,
                f"PC-table occupancy {table.occupancy!r} outside [0, 1]",
                observed=table.occupancy,
            )
        )
    return out


# ----------------------------------------------------------------------
# Telemetry record streams


def audit_epoch_records(
    records: Iterable[Mapping[str, object]], subject: str = ""
) -> List[Violation]:
    """Audit one run's trace stream (tracer ring or loaded JSONL).

    Checks, across the ``run`` and ``epoch`` spans:

    * clocks: every epoch window has ``t_end >= t_start`` and windows
      never move backwards across epochs;
    * per-epoch energy is finite and non-negative, and the per-epoch
      energies sum to the run's ``energy_total``;
    * committed counts are conserved: the epoch spans sum to the run's
      ``total_committed``;
    * PC-table deltas: per-epoch ``pc_hits <= pc_lookups``, none
      negative;
    * domain entries: chosen frequencies sit on the run's grid,
      relative errors are non-negative, commit counts non-negative;
    * the run's ``delay_ns`` fits in its ``elapsed_ns`` window for
      completed runs.

    A stream without a finished ``run`` span (a run still in flight)
    skips the grid and summary cross-checks.
    """
    records = list(records)
    out: List[Violation] = []
    grid: Optional[List[float]] = None
    last_t_end: Optional[float] = None
    energy_sum = 0.0
    committed_sum = 0
    duration_sum = 0.0
    n_epochs = 0
    runs = span_attrs(records, "run")
    summary: Optional[Mapping[str, object]] = runs[0] if runs else None
    if summary is not None:
        freqs = summary.get("frequencies_ghz")
        if isinstance(freqs, (list, tuple)):
            grid = [float(f) for f in freqs]
        if not subject:
            subject = f"{summary.get('workload', '?')}/{summary.get('design', '?')}"

    for rec in span_attrs(records, "epoch"):
        n_epochs += 1
        out.extend(_audit_epoch_record(rec, last_t_end, subject))
        t_start = rec.get("t_start_ns")
        t_end = rec.get("t_end_ns")
        if isinstance(t_end, (int, float)) and math.isfinite(t_end):
            last_t_end = float(t_end)
        if (
            isinstance(t_start, (int, float))
            and isinstance(t_end, (int, float))
            and math.isfinite(t_start)
            and math.isfinite(t_end)
        ):
            duration_sum += t_end - t_start
        energy = rec.get("energy")
        if isinstance(energy, (int, float)) and math.isfinite(energy):
            energy_sum += energy
        committed = rec.get("committed")
        if isinstance(committed, int):
            committed_sum += committed
        for dom in rec.get("domains", ()):
            out.extend(_audit_domain_record(dom, grid, subject))

    if summary is not None:
        out.extend(
            _audit_summary_conservation(
                summary, n_epochs, energy_sum, committed_sum, duration_sum, subject
            )
        )
    return out


def _audit_epoch_record(
    rec: Mapping[str, object], last_t_end: Optional[float], subject: str
) -> List[Violation]:
    out: List[Violation] = []
    where = f"{subject} epoch[{rec.get('epoch')}]"
    t_start = rec.get("t_start_ns")
    t_end = rec.get("t_end_ns")
    if _bad_number(t_start) or _bad_number(t_end) or t_end < t_start:
        out.append(
            Violation(
                "clock_not_monotone",
                where,
                f"epoch window [{t_start!r}, {t_end!r}] runs backwards",
            )
        )
    elif last_t_end is not None and t_start < last_t_end - SUM_ABS_TOL:
        out.append(
            Violation(
                "clock_not_monotone",
                where,
                f"epoch starts at {t_start!r} before the previous epoch "
                f"ended at {last_t_end!r}",
                observed=float(t_start),
                expected=last_t_end,
            )
        )
    energy = rec.get("energy")
    if _bad_number(energy) or energy < 0.0:
        out.append(
            Violation(
                "epoch_energy_negative",
                where,
                f"epoch energy {energy!r} (must be finite, non-negative)",
                observed=energy if isinstance(energy, (int, float)) else None,
            )
        )
    lookups = rec.get("pc_lookups")
    hits = rec.get("pc_hits")
    if isinstance(lookups, (int, float)) and isinstance(hits, (int, float)):
        if hits > lookups or hits < 0 or lookups < 0:
            out.append(
                Violation(
                    "pc_hits_exceed_lookups",
                    where,
                    f"per-epoch PC deltas: {hits!r} hits from {lookups!r} "
                    f"lookups",
                    observed=float(hits),
                    expected=float(lookups),
                )
            )
    return out


def _audit_domain_record(
    rec: Mapping[str, object], grid: Optional[List[float]], subject: str
) -> List[Violation]:
    out: List[Violation] = []
    where = f"{subject} epoch[{rec.get('epoch')}].domain[{rec.get('domain')}]"
    freq = rec.get("freq_ghz")
    if _bad_number(freq):
        out.append(
            Violation("chosen_freq_off_grid", where, f"freq_ghz = {freq!r}")
        )
    elif grid is not None and not any(
        math.isclose(float(freq), g, abs_tol=FREQ_ABS_TOL_GHZ) for g in grid
    ):
        out.append(
            Violation(
                "chosen_freq_off_grid",
                where,
                f"chosen {freq!r} GHz is not on the run's grid {grid!r}",
                observed=float(freq),
            )
        )
    rel_error = rec.get("rel_error")
    if rel_error is not None and (_bad_number(rel_error) or rel_error < 0.0):
        out.append(
            Violation(
                "rel_error_negative",
                where,
                f"relative error {rel_error!r} (must be >= 0)",
                observed=rel_error if isinstance(rel_error, (int, float)) else None,
            )
        )
    committed = rec.get("actual_commits")
    if committed is not None and (_bad_number(committed) or committed < 0):
        out.append(
            Violation(
                "count_negative",
                where,
                f"actual_commits = {committed!r}",
                observed=committed if isinstance(committed, (int, float)) else None,
            )
        )
    return out


def _audit_summary_conservation(
    summary: Mapping[str, object],
    n_epochs: int,
    energy_sum: float,
    committed_sum: int,
    duration_sum: float,
    subject: str,
) -> List[Violation]:
    out: List[Violation] = []
    where = f"{subject} summary"

    epochs = summary.get("epochs")
    if isinstance(epochs, int) and n_epochs and epochs != n_epochs:
        out.append(
            Violation(
                "epoch_count_mismatch",
                where,
                f"summary says {epochs} epochs but the stream holds "
                f"{n_epochs} epoch spans",
                observed=float(n_epochs),
                expected=float(epochs),
            )
        )

    total_committed = summary.get("total_committed")
    if isinstance(total_committed, int) and n_epochs:
        if committed_sum != total_committed:
            out.append(
                Violation(
                    "committed_not_conserved",
                    where,
                    f"epoch spans sum to {committed_sum} committed "
                    f"instructions but the run total is {total_committed}",
                    observed=float(committed_sum),
                    expected=float(total_committed),
                )
            )

    energy_total = summary.get("energy_total")
    if isinstance(energy_total, (int, float)) and n_epochs:
        if not math.isclose(
            energy_sum, energy_total, rel_tol=1e-6, abs_tol=SUM_ABS_TOL
        ):
            out.append(
                Violation(
                    "epoch_energy_not_conserved",
                    where,
                    f"per-epoch energies sum to {energy_sum!r} but the "
                    f"breakdown total is {energy_total!r}",
                    observed=energy_sum,
                    expected=float(energy_total),
                )
            )

    elapsed = summary.get("elapsed_ns")
    delay = summary.get("delay_ns")
    completed = summary.get("completed")
    if (
        completed
        and isinstance(elapsed, (int, float))
        and isinstance(delay, (int, float))
        and delay > elapsed * (1.0 + SUM_REL_TOL) + SUM_ABS_TOL
    ):
        out.append(
            Violation(
                "delay_exceeds_window",
                where,
                f"completed run's delay_ns {delay!r} exceeds its simulated "
                f"window elapsed_ns {elapsed!r}",
                observed=float(delay),
                expected=float(elapsed),
            )
        )
    if (
        isinstance(elapsed, (int, float))
        and n_epochs
        and not math.isclose(duration_sum, elapsed, rel_tol=1e-6, abs_tol=SUM_ABS_TOL)
    ):
        out.append(
            Violation(
                "window_not_conserved",
                where,
                f"epoch durations sum to {duration_sum!r} ns but the "
                f"summary window is {elapsed!r} ns",
                observed=duration_sum,
                expected=float(elapsed),
            )
        )
    return out


__all__ = [
    "FREQ_ABS_TOL_GHZ",
    "SUM_ABS_TOL",
    "SUM_REL_TOL",
    "Violation",
    "audit_controller_log",
    "audit_energy_breakdown",
    "audit_epoch_records",
    "audit_pc_table",
    "audit_residency",
    "audit_run_result",
    "record_violations",
]

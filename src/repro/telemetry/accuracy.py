"""Prediction-accuracy drill-down over a trace's epoch spans.

Turns a trace stream (a tracer's in-memory records or loaded JSONL) into
the three diagnostics the ``repro report --accuracy`` CLI prints:

* **Error percentiles** - exact p50/p90/p99/mean of the per-(domain,
  epoch) relative prediction error, the distribution behind the
  simulator's single ``prediction_accuracy`` scalar.
* **Decision confusion matrix** - chosen frequency vs the frequency the
  objective would have picked given the oracle's true line; the
  diagonal is "right answer", everything below/above shows whether the
  predictor under- or over-clocks when it misses.
* **Per-PC error attribution** - which program counters the prediction
  error concentrates on (commit-share-weighted), the GPA-style view
  that turns a scoreboard into a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.schema import attrs_of

#: Frequency bucket rounding for confusion-matrix keys (GHz).
_FREQ_DECIMALS = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Exact linear-interpolated percentile of raw samples (q in [0, 100])."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class AccuracyReport:
    """Aggregated accuracy diagnostics for one workload x design run."""

    label: str = ""
    rel_errors: List[float] = field(default_factory=list)
    #: (chosen_ghz, oracle_ghz) -> decision count.
    confusion: Dict[Tuple[float, float], int] = field(default_factory=dict)
    #: pc_idx -> (samples, committed, weighted_error).
    pc_attribution: Dict[int, Tuple[int, int, float]] = field(default_factory=dict)
    epochs: int = 0
    domain_records: int = 0

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, object]], label: str = ""
    ) -> "AccuracyReport":
        """Build from a record stream (see :mod:`repro.telemetry.schema`)."""
        out = cls(label=label)
        for rec in records:
            if rec.get("type") != "span":
                continue
            attrs = attrs_of(rec)
            if rec.get("name") == "run":
                if not out.label:
                    out.label = (
                        f"{attrs.get('workload', '?')}/{attrs.get('design', '?')}"
                    )
                for pc in attrs.get("pc", ()):
                    out.pc_attribution[int(pc["pc_idx"])] = (
                        int(pc["samples"]),
                        int(pc["committed"]),
                        float(pc["weighted_error"]),
                    )
            elif rec.get("name") == "epoch":
                out.epochs += 1
                for dom in attrs.get("domains", ()):
                    out._add_domain_record(dom)
        return out

    def _add_domain_record(self, rec: Mapping[str, object]) -> None:
        self.domain_records += 1
        rel = rec.get("rel_error")
        if rel is not None:
            self.rel_errors.append(float(rel))
        chosen = rec.get("freq_ghz")
        oracle = rec.get("oracle_freq_ghz")
        if chosen is not None and oracle is not None:
            key = (
                round(float(chosen), _FREQ_DECIMALS),
                round(float(oracle), _FREQ_DECIMALS),
            )
            self.confusion[key] = self.confusion.get(key, 0) + 1

    def merge(self, other: "AccuracyReport") -> "AccuracyReport":
        """Fold another report in (cross-workload aggregation)."""
        self.rel_errors.extend(other.rel_errors)
        self.epochs += other.epochs
        self.domain_records += other.domain_records
        for key, n in other.confusion.items():
            self.confusion[key] = self.confusion.get(key, 0) + n
        for pc, (s, c, w) in other.pc_attribution.items():
            s0, c0, w0 = self.pc_attribution.get(pc, (0, 0, 0.0))
            self.pc_attribution[pc] = (s0 + s, c0 + c, w0 + w)
        return self

    # ------------------------------------------------------------------
    # Diagnostics

    def error_percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> Dict[str, float]:
        out = {f"p{q:g}": percentile(self.rel_errors, q) for q in qs}
        out["mean"] = (
            sum(self.rel_errors) / len(self.rel_errors) if self.rel_errors else 0.0
        )
        return out

    @property
    def decisions(self) -> int:
        return sum(self.confusion.values())

    @property
    def agreement(self) -> float:
        """Fraction of decisions matching the oracle-best frequency."""
        total = self.decisions
        if not total:
            return 0.0
        hits = sum(
            n for (chosen, oracle), n in self.confusion.items()
            if math.isclose(chosen, oracle, abs_tol=1e-6)
        )
        return hits / total

    def confusion_grid(
        self, freqs: Optional[Sequence[float]] = None
    ) -> Tuple[List[float], List[List[int]]]:
        """(axis frequencies, matrix[chosen][oracle]) decision counts."""
        if freqs is None:
            seen = {f for key in self.confusion for f in key}
            freqs = sorted(seen)
        axis = [round(float(f), _FREQ_DECIMALS) for f in freqs]
        index = {f: i for i, f in enumerate(axis)}
        grid = [[0] * len(axis) for _ in axis]
        for (chosen, oracle), n in self.confusion.items():
            i, j = index.get(chosen), index.get(oracle)
            if i is not None and j is not None:
                grid[i][j] += n
        return list(axis), grid

    def top_pcs(self, n: int = 10) -> List[Tuple[int, int, int, float]]:
        """Worst-predicted PCs: (pc_idx, samples, committed, weighted_error)."""
        ranked = sorted(
            (
                (pc, s, c, w)
                for pc, (s, c, w) in self.pc_attribution.items()
            ),
            key=lambda row: -row[3],
        )
        return ranked[:n]

    # ------------------------------------------------------------------
    # Rendering

    def render_confusion(self, freqs: Optional[Sequence[float]] = None) -> str:
        from repro.analysis.report import format_table

        axis, grid = self.confusion_grid(freqs)
        if not axis:
            return f"{self.label}: no oracle-scored decisions recorded"
        headers = ["chosen \\ oracle (GHz)"] + [f"{f:.1f}" for f in axis]
        rows = [
            [f"{f:.1f}"] + [str(n) if n else "." for n in grid[i]]
            for i, f in enumerate(axis)
        ]
        return format_table(
            headers,
            rows,
            title=(
                f"{self.label}: decision confusion matrix "
                f"({self.agreement:.1%} oracle agreement, "
                f"{self.decisions} decisions)"
            ),
        )

    def render_top_pcs(self, n: int = 10) -> str:
        from repro.analysis.report import format_table

        ranked = self.top_pcs(n)
        if not ranked:
            return f"{self.label}: no PC attribution recorded"
        total_w = sum(w for *_, w in ranked) or 1.0
        rows = [
            [f"0x{pc * 4:04x}", pc, s, c, f"{w:.4f}", f"{w / total_w:.1%}"]
            for pc, s, c, w in ranked
        ]
        return format_table(
            ["pc", "pc_idx", "samples", "committed", "weighted error", "share of top"],
            rows,
            title=f"{self.label}: top-{len(rows)} PCs by attributed prediction error",
        )


__all__ = ["AccuracyReport", "percentile"]

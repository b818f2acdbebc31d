"""Online drift monitoring: rolling windows over quality signals.

The paper's predictive DVFS argument only holds while the predictor
stays accurate; post-hoc aggregates (``repro report --accuracy``) show
*that* accuracy degraded, never *when*. :class:`DriftMonitor` watches
quality signals as they stream and raises a structured alert the moment
a rolling-window statistic crosses its threshold:

* ``rel_error`` - per-epoch relative prediction error (fed from a
  trace's ``epoch`` spans by :meth:`DriftMonitor.observe_trace`, one
  observation per scored domain-epoch);
* ``shed_rate`` - fraction of admitted-or-shed observations the
  decision service shed (fed per observe frame);
* ``retry_rate`` - fraction of sweep cell attempts that failed
  retryably (fed by the sweep instrumentation).

An alert is emitted when the window holds at least ``min_count``
observations and its mean exceeds the signal's threshold; a cooldown
(one full window by default) stops a persistently-degraded signal from
alerting on every subsequent observation. Recovery is announced once
the mean falls back under the threshold.

Alerts fan out to every attached sink, mirroring how other events in
this codebase are made visible:

* the **span stream** (``tracer.emit`` of an ``alert`` record, plus a
  zero-duration ``drift_alert`` span so timelines show the moment);
* the **metrics registry** (``drift_alerts_total``,
  ``drift_alerts_<signal>`` counters, ``drift_<signal>_level`` gauge);
* the **log** (a WARNING with structured fields).

The monitor is deliberately dependency-free and deterministic: plain
deques and float sums, no wall clock - the "time" of an alert is the
observation index, so a replayed stream alerts at exactly the same
points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Mapping, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import span_attrs

#: The signals a default-configured monitor watches.
SIGNAL_REL_ERROR = "rel_error"
SIGNAL_SHED_RATE = "shed_rate"
SIGNAL_RETRY_RATE = "retry_rate"


@dataclass(frozen=True)
class DriftConfig:
    """Rolling-window sizing and per-signal thresholds."""

    #: Observations per rolling window.
    window: int = 64
    #: Observations required before the window may alert (a two-sample
    #: spike should not page anyone).
    min_count: int = 16
    #: Mean relative prediction error above this is drift. The paper's
    #: designs hold mean error well under 20% on steady phases; 0.5
    #: means predictions are off by half, decisions are near-random.
    rel_error_threshold: float = 0.5
    #: Mean shed fraction above this means the service is persistently
    #: over capacity, not absorbing a burst.
    shed_rate_threshold: float = 0.2
    #: Mean retryable-failure fraction across sweep cell attempts.
    retry_rate_threshold: float = 0.25
    #: Observations to suppress re-alerts for after an alert fires
    #: (0 = use ``window``, i.e. one full fresh window of evidence).
    cooldown: int = 0
    #: Extra signals: name -> threshold (observed via
    #: :meth:`DriftMonitor.observe`).
    thresholds: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_count <= self.window:
            raise ValueError("min_count must be in [1, window]")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def threshold_for(self, signal: str) -> float:
        if signal == SIGNAL_REL_ERROR:
            return self.rel_error_threshold
        if signal == SIGNAL_SHED_RATE:
            return self.shed_rate_threshold
        if signal == SIGNAL_RETRY_RATE:
            return self.retry_rate_threshold
        try:
            return self.thresholds[signal]
        except KeyError:
            raise ValueError(f"no threshold configured for signal {signal!r}") from None

    @property
    def effective_cooldown(self) -> int:
        return self.cooldown if self.cooldown > 0 else self.window


@dataclass(frozen=True)
class DriftAlert:
    """One threshold crossing (``kind="alert"``) or recovery."""

    signal: str
    #: ``"alert"`` (mean crossed above threshold) or ``"recovered"``.
    kind: str
    #: Window mean at the moment of emission.
    value: float
    threshold: float
    #: Observations in the window when it fired.
    window_count: int
    #: Index of the observation (per signal, from 0) that triggered it.
    at_index: int

    def as_record(self) -> Dict[str, object]:
        return {
            "type": "alert",
            "signal": self.signal,
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "window_count": self.window_count,
            "at_index": self.at_index,
        }

    def render(self) -> str:
        verb = "drift" if self.kind == "alert" else "recovered"
        return (
            f"{verb}: {self.signal} mean {self.value:.3f} "
            f"{'>' if self.kind == 'alert' else '<='} "
            f"threshold {self.threshold:.3f} "
            f"(window n={self.window_count}, obs #{self.at_index})"
        )


class _SignalWindow:
    """Rolling window + alert state for one signal."""

    __slots__ = ("values", "sum", "seen", "alerting", "last_alert_at")

    def __init__(self, window: int) -> None:
        self.values: Deque[float] = deque(maxlen=window)
        self.sum = 0.0
        self.seen = 0
        self.alerting = False
        self.last_alert_at = -1

    def push(self, value: float) -> float:
        if len(self.values) == self.values.maxlen:
            self.sum -= self.values[0]
        self.values.append(value)
        self.sum += value
        self.seen += 1
        return self.sum / len(self.values)


class DriftMonitor:
    """Feeds rolling windows; emits :class:`DriftAlert` on crossings."""

    def __init__(
        self,
        config: DriftConfig = DriftConfig(),
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        log=None,
    ) -> None:
        self.config = config
        self.registry = registry
        self.tracer = tracer
        self.log = log
        self._signals: Dict[str, _SignalWindow] = {}
        #: Every alert and recovery emitted, in order.
        self.alerts: List[DriftAlert] = []

    # ------------------------------------------------------------------
    # Observation entry points

    def observe(self, signal: str, value: float) -> Optional[DriftAlert]:
        """Push one observation; returns the alert if one fired."""
        threshold = self.config.threshold_for(signal)
        win = self._signals.get(signal)
        if win is None:
            win = self._signals[signal] = _SignalWindow(self.config.window)
        mean = win.push(value)
        if self.registry is not None:
            self.registry.gauge(f"drift_{signal}_level").set(mean)

        index = win.seen - 1
        if len(win.values) < self.config.min_count:
            return None
        if mean > threshold:
            if win.alerting and (
                index - win.last_alert_at < self.config.effective_cooldown
            ):
                return None
            win.alerting = True
            win.last_alert_at = index
            return self._emit(
                DriftAlert(signal, "alert", mean, threshold, len(win.values), index)
            )
        if win.alerting:
            win.alerting = False
            return self._emit(
                DriftAlert(
                    signal, "recovered", mean, threshold, len(win.values), index
                )
            )
        return None

    def observe_error(self, rel_error: float) -> Optional[DriftAlert]:
        """One scored domain-epoch's relative prediction error."""
        return self.observe(SIGNAL_REL_ERROR, rel_error)

    def observe_trace(self, records: Iterable[Mapping[str, object]]) -> None:
        """Feed every scored domain's ``rel_error`` from a trace's
        ``epoch`` spans, in epoch then domain order."""
        for attrs in span_attrs(records, "epoch"):
            for dom in attrs["domains"]:
                if dom["rel_error"] is not None:
                    self.observe_error(dom["rel_error"])

    def observe_shed(self, shed: bool) -> Optional[DriftAlert]:
        """One observe frame: shed (True) or admitted (False)."""
        return self.observe(SIGNAL_SHED_RATE, 1.0 if shed else 0.0)

    def observe_retry(self, retried: bool) -> Optional[DriftAlert]:
        """One sweep cell attempt: failed retryably (True) or not."""
        return self.observe(SIGNAL_RETRY_RATE, 1.0 if retried else 0.0)

    # ------------------------------------------------------------------

    def mean(self, signal: str) -> Optional[float]:
        """Current window mean of a signal (None before any data)."""
        win = self._signals.get(signal)
        if win is None or not win.values:
            return None
        return win.sum / len(win.values)

    @property
    def alert_count(self) -> int:
        return sum(1 for a in self.alerts if a.kind == "alert")

    def _emit(self, alert: DriftAlert) -> DriftAlert:
        self.alerts.append(alert)
        if self.registry is not None:
            if alert.kind == "alert":
                self.registry.inc("drift_alerts_total")
                self.registry.inc(f"drift_alerts_{alert.signal}")
            else:
                self.registry.inc("drift_recoveries_total")
        if self.tracer is not None:
            self.tracer.emit(alert.as_record())
            self.tracer.event(
                "drift_alert" if alert.kind == "alert" else "drift_recovered",
                signal=alert.signal,
                value=alert.value,
                threshold=alert.threshold,
            )
        if self.log is not None:
            level = self.log.warning if alert.kind == "alert" else self.log.info
            level(
                alert.render(),
                extra={
                    "signal": alert.signal,
                    "value": round(alert.value, 6),
                    "threshold": alert.threshold,
                    "kind": alert.kind,
                },
            )
        return alert


__all__ = [
    "DriftAlert",
    "DriftConfig",
    "DriftMonitor",
    "SIGNAL_REL_ERROR",
    "SIGNAL_RETRY_RATE",
    "SIGNAL_SHED_RATE",
]

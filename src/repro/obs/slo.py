"""SLO objectives and SRE-style multi-window burn-rate alerting.

An :class:`Slo` defines a user-facing objective over instruments already
in the :class:`~repro.obs.metrics.MetricsRegistry` — no new counters on
any hot path.  Three shapes cover the deployment's service levels:

* ``ratio`` — availability: good events over total events, where good is
  ``total - bad`` summed across two counter families (e.g. daemon lookups
  minus failed fetches).
* ``latency`` — a latency objective over a histogram family: an
  observation is good when it lands at or below ``threshold`` (computed
  from the streaming log buckets, so the whole history counts without raw
  samples).
* ``gauge`` — a floor objective over a gauge family (goodput): each
  evaluation samples the gauge once; the sample is good when the value is
  at or above ``threshold``.

The engine applies the SRE workbook's multi-window, multi-burn-rate
policy: an alert for a window pair fires when the burn rate — the
bad-event fraction divided by the error budget ``1 - objective`` —
exceeds the pair's threshold over BOTH the long window (sustained damage)
and the short window (still happening now).  Alerts are edge-triggered
into the :class:`~repro.obs.events.EventLog` (``slo-burn-rate`` on entry,
``slo-burn-clear`` on exit), so the alert stream is deduplicated and —
because every input is deterministic sim-time arithmetic — byte-identical
across two same-seed runs.

Everything here is pull-based: call :meth:`SloEngine.sample` on whatever
cadence the experiment ticks at.  Windows are evaluated against the
sampled history, so the engine works equally inside the crucible
(``TICK_S`` cadence) and the overload storm loop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


@dataclass(frozen=True)
class Slo:
    """One service-level objective over registry instruments."""

    name: str
    #: target good fraction in (0, 1), e.g. 0.999 ("three nines").
    objective: float
    #: "ratio" | "latency" | "gauge"
    kind: str
    #: ratio: the total-events counter family; latency: the histogram
    #: family; gauge: the gauge family.
    metric: str
    #: ratio only: the bad-events counter family (bad <= total).
    bad_metric: str = ""
    #: latency: good when observation <= threshold (seconds);
    #: gauge: good when value >= threshold.
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1): {self.objective}")
        if self.kind not in ("ratio", "latency", "gauge"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "ratio" and not self.bad_metric:
            raise ValueError("ratio SLOs need a bad_metric")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short) window pair with its burn-rate threshold."""

    long_s: float
    short_s: float
    burn_threshold: float
    severity: str = "critical"   # EventLog severity when it fires

    def label(self) -> str:
        return f"{self.long_s:g}s/{self.short_s:g}s"


#: The SRE-workbook page/ticket ladder, scaled to simulation seconds:
#: fast-burn pages on a short pair, slow-burn tickets on a long pair.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(long_s=4.0, short_s=1.0, burn_threshold=10.0,
               severity="critical"),
    BurnWindow(long_s=12.0, short_s=3.0, burn_threshold=2.0,
               severity="warning"),
)


def _family_children(metrics: MetricsRegistry, name: str):
    family = metrics._families.get(name)
    return family.children.values() if family is not None else ()


def _sum_counters(metrics: MetricsRegistry, name: str) -> float:
    return sum(
        child.value for child in _family_children(metrics, name)
        if isinstance(child, Counter)
    )


def histogram_count_le(hist: Histogram, threshold: float) -> int:
    """Observations at or below ``threshold``, from the log buckets.

    Bucket ``b`` holds values in ``[G^b, G^(b+1))``; a bucket counts as
    at-or-below when its geometric midpoint is — the same midpoint the
    quantile estimator uses, so the two views of the sketch agree and the
    answer is deterministic (within the sketch's ``GROWTH - 1`` relative
    error band).
    """
    if threshold < 0:
        return 0
    total = hist._zero
    if threshold == 0:
        return total
    limit = math.log(threshold) / math.log(Histogram.GROWTH)
    for bucket, count in hist._buckets.items():
        if bucket + 0.5 <= limit:
            total += count
    return total


@dataclass
class _Sample:
    time_s: float
    good: float
    total: float


@dataclass
class ActiveAlert:
    """One currently firing (slo, window) alert."""

    slo: str
    window: str
    severity: str
    since_s: float
    burn_long: float
    burn_short: float

    def describe(self) -> str:
        return (
            f"{self.slo}[{self.window}] burn {self.burn_long:.1f}x"
            f" (short {self.burn_short:.1f}x, {self.severity})"
        )


class SloEngine:
    """Evaluates SLO burn rates over sampled counter history.

    ``sample(now)`` snapshots each SLO's cumulative (good, total), then
    evaluates every (slo, window) pair.  History is kept just long enough
    for the longest window.  ``events`` is optional — without it the
    engine still tracks active alerts for health annotation.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        slos: Tuple[Slo, ...],
        windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
        events=None,
    ):
        self.metrics = metrics
        self.slos = tuple(slos)
        self.windows = tuple(windows)
        self.events = events
        self._history: Dict[str, Deque[_Sample]] = {
            slo.name: deque() for slo in self.slos
        }
        self._active: Dict[Tuple[str, str], ActiveAlert] = {}
        self._horizon_s = max(
            [w.long_s for w in self.windows] or [0.0]
        )
        self.samples_taken = 0

    # -- snapshots ---------------------------------------------------------------

    def _snapshot(self, slo: Slo) -> Tuple[float, float]:
        """Cumulative (good, total) for one SLO right now."""
        if slo.kind == "ratio":
            total = _sum_counters(self.metrics, slo.metric)
            bad = _sum_counters(self.metrics, slo.bad_metric)
            return max(0.0, total - bad), total
        if slo.kind == "latency":
            good = 0
            total = 0
            for child in _family_children(self.metrics, slo.metric):
                if isinstance(child, Histogram):
                    good += histogram_count_le(child, slo.threshold)
                    total += child.count
            return float(good), float(total)
        # gauge floor: each sample is one observation.
        value = 0.0
        seen = False
        for child in _family_children(self.metrics, slo.metric):
            if isinstance(child, Gauge):
                value += child.value
                seen = True
        history = self._history[slo.name]
        prev_good = history[-1].good if history else 0.0
        prev_total = history[-1].total if history else 0.0
        if not seen:
            return prev_good, prev_total
        good = 1.0 if value >= slo.threshold else 0.0
        return prev_good + good, prev_total + 1.0

    # -- evaluation --------------------------------------------------------------

    @staticmethod
    def _window_burn(
        history: Deque[_Sample], now: float, window_s: float, budget: float
    ) -> float:
        """Burn rate over the trailing window (0.0 when no events)."""
        if not history:
            return 0.0
        newest = history[-1]
        cutoff = now - window_s
        # The reference point is the newest sample at or before the
        # cutoff; when the history does not reach back that far, the
        # window is everything we have (conservative at startup).
        reference = None
        for sample in history:
            if sample.time_s <= cutoff:
                reference = sample
            else:
                break
        good0 = reference.good if reference is not None else 0.0
        total0 = reference.total if reference is not None else 0.0
        d_total = newest.total - total0
        if d_total <= 0:
            return 0.0
        d_bad = d_total - (newest.good - good0)
        return (d_bad / d_total) / budget

    def sample(self, now: float) -> List[ActiveAlert]:
        """Snapshot every SLO at ``now`` and (re-)evaluate all windows.

        Returns alerts that *started* at this sample (for callers that
        want to react); the full firing set is :meth:`active_alerts`.
        """
        self.samples_taken += 1
        started: List[ActiveAlert] = []
        for slo in self.slos:
            history = self._history[slo.name]
            good, total = self._snapshot(slo)
            history.append(_Sample(now, good, total))
            cutoff = now - self._horizon_s
            # Keep one sample at or before the horizon as the reference.
            while len(history) >= 2 and history[1].time_s <= cutoff:
                history.popleft()
            for window in self.windows:
                key = (slo.name, window.label())
                burn_long = self._window_burn(
                    history, now, window.long_s, slo.error_budget
                )
                burn_short = self._window_burn(
                    history, now, window.short_s, slo.error_budget
                )
                firing = (
                    burn_long > window.burn_threshold
                    and burn_short > window.burn_threshold
                )
                active = self._active.get(key)
                if firing and active is None:
                    alert = ActiveAlert(
                        slo=slo.name, window=window.label(),
                        severity=window.severity, since_s=now,
                        burn_long=burn_long, burn_short=burn_short,
                    )
                    self._active[key] = alert
                    started.append(alert)
                    if self.events is not None:
                        self.events.record(
                            now, "slo", "slo-burn-rate",
                            target=f"{slo.name}[{window.label()}]",
                            detail=(
                                f"burn {burn_long:.2f}x budget over "
                                f"{window.long_s:g}s (short "
                                f"{burn_short:.2f}x over {window.short_s:g}s,"
                                f" objective {slo.objective:g})"
                            ),
                            severity=window.severity,
                        )
                elif firing:
                    active.burn_long = burn_long
                    active.burn_short = burn_short
                elif active is not None:
                    del self._active[key]
                    if self.events is not None:
                        self.events.record(
                            now, "slo", "slo-burn-clear",
                            target=f"{slo.name}[{window.label()}]",
                            detail=f"burn back under {window.burn_threshold:g}x",
                            severity="info",
                        )
        return started

    # -- queries -----------------------------------------------------------------

    def active_alerts(self) -> List[ActiveAlert]:
        """Currently firing alerts, deterministically ordered."""
        return [self._active[key] for key in sorted(self._active)]

    def describe_alerts(self) -> List[str]:
        return [alert.describe() for alert in self.active_alerts()]

    def status(self) -> Dict[str, object]:
        """A deterministic summary (for reports and flight dumps)."""
        return {
            "slos": [slo.name for slo in self.slos],
            "samples": self.samples_taken,
            "active": self.describe_alerts(),
        }

"""SLO accounting: latency objectives, error budgets, and burn rates.

An SLO here is the classic pair *(objective, target)*: "fraction of good
requests >= target over the run", where a request is *good* when it
completes OK within ``latency_objective_seconds``.  The tracker consumes
completion events (latency + outcome), keeps O(window) state, and
reports:

- compliance and error-budget consumption over the whole run;
- **burn rate** over one or more sliding windows — the ratio of the
  observed bad fraction to the budgeted bad fraction, the quantity
  multi-window alerting policies page on (burn rate 1.0 means the budget
  lasts exactly the SLO period; 10x means it is gone in a tenth of it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Tuple

__all__ = ["SloConfig", "SloWindowReport", "SloReport", "SloTracker"]


@dataclass(frozen=True, kw_only=True)
class SloConfig:
    """A latency service-level objective.

    Attributes:
        latency_objective_seconds: A request is *good* iff it completes
            successfully within this latency.
        target: Required fraction of good requests (e.g. 0.999).
        burn_windows_seconds: Sliding-window lengths (sim seconds) over
            which burn rate is reported, long-to-short.
    """

    latency_objective_seconds: float = 0.2
    target: float = 0.99
    burn_windows_seconds: Tuple[float, ...] = (60.0, 300.0)

    def validate(self) -> "SloConfig":
        if self.latency_objective_seconds <= 0:
            raise ValueError(
                "latency_objective_seconds must be positive, got "
                f"{self.latency_objective_seconds}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if not self.burn_windows_seconds:
            raise ValueError("burn_windows_seconds must not be empty")
        for window in self.burn_windows_seconds:
            if window <= 0:
                raise ValueError(f"burn window must be positive, got {window}")
        return self

    def with_overrides(self, **overrides) -> "SloConfig":
        return replace(self, **overrides).validate()


@dataclass(frozen=True, kw_only=True)
class SloWindowReport:
    """Burn-rate view over one sliding window ending at ``at_time``."""

    window_seconds: float
    total: int
    bad: int
    burn_rate: float


@dataclass(frozen=True, kw_only=True)
class SloReport:
    """End-of-run (or point-in-time) SLO summary."""

    config: SloConfig
    at_time: float
    total: int
    good: int
    bad: int
    compliance: float
    error_budget_total: float
    error_budget_consumed: float
    windows: Tuple[SloWindowReport, ...] = field(default_factory=tuple)

    @property
    def met(self) -> bool:
        return self.total == 0 or self.compliance >= self.config.target

    def as_dict(self) -> Dict[str, object]:
        return {
            "latency_objective_seconds": self.config.latency_objective_seconds,
            "target": self.config.target,
            "at_time": self.at_time,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "compliance": self.compliance,
            "met": self.met,
            "error_budget_total": self.error_budget_total,
            "error_budget_consumed": self.error_budget_consumed,
            "windows": [
                {
                    "window_seconds": window.window_seconds,
                    "total": window.total,
                    "bad": window.bad,
                    "burn_rate": window.burn_rate,
                }
                for window in self.windows
            ],
        }


class _Window:
    """One sliding window: its ``(time, is_bad)`` events and their bad count."""

    __slots__ = ("seconds", "events", "bad")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.events: Deque[Tuple[float, bool]] = deque()
        self.bad = 0

    def evict(self, now: float) -> None:
        events = self.events
        while events and events[0][0] < now - self.seconds:
            if events.popleft()[1]:
                self.bad -= 1

    def burn_rate(self, target: float) -> float:
        if not self.events:
            return 0.0
        return (self.bad / len(self.events)) / (1.0 - target)


class SloTracker:
    """Streams completion events into SLO compliance and burn rates.

    State is one deque per burn window (events older than the window are
    evicted lazily on observe/report) with a running count of its bad
    events, plus whole-run good/bad totals — O(events in the longest
    window) memory, independent of run length, and O(1) per scrape
    beyond the evictions.
    """

    def __init__(self, config: SloConfig) -> None:
        self.config = config.validate()
        self.total = 0
        self.good = 0
        # Longest window first.
        self._windows: List[_Window] = [
            _Window(window)
            for window in sorted(config.burn_windows_seconds, reverse=True)
        ]

    @property
    def bad(self) -> int:
        return self.total - self.good

    def observe(self, latency: float, now: float, ok: bool = True) -> None:
        """Record one finished request (``ok=False`` for timeout/shed)."""
        is_good = ok and latency <= self.config.latency_objective_seconds
        self.total += 1
        if is_good:
            self.good += 1
        for window in self._windows:
            window.events.append((now, not is_good))
            if not is_good:
                window.bad += 1
            window.evict(now)

    def compliance(self) -> float:
        """Whole-run fraction of good requests (1.0 when empty)."""
        return self.good / self.total if self.total else 1.0

    def error_budget_consumed(self) -> float:
        """Fraction of the error budget spent so far (can exceed 1)."""
        if self.total == 0:
            return 0.0
        budget = (1.0 - self.config.target) * self.total
        return self.bad / budget if budget > 0 else float("inf")

    def burn_rate(self, window_seconds: float, now: float) -> float:
        """Bad fraction over the window divided by the budgeted fraction."""
        for window in self._windows:
            if window.seconds == window_seconds:
                window.evict(now)
                return window.burn_rate(self.config.target)
        raise KeyError(f"window {window_seconds} not configured")

    def report(self, now: float) -> SloReport:
        windows = []
        for window in self._windows:
            window.evict(now)
            windows.append(
                SloWindowReport(
                    window_seconds=window.seconds,
                    total=len(window.events),
                    bad=window.bad,
                    burn_rate=window.burn_rate(self.config.target),
                )
            )
        return SloReport(
            config=self.config,
            at_time=now,
            total=self.total,
            good=self.good,
            bad=self.bad,
            compliance=self.compliance(),
            error_budget_total=(1.0 - self.config.target) * self.total,
            error_budget_consumed=self.error_budget_consumed(),
            windows=tuple(windows),
        )

    def register_metrics(self, registry) -> None:
        """Publish SLO state as registry views."""
        registry.counter_fn(
            "repro_slo_requests_total",
            "Requests scored against the SLO",
            lambda: self.total,
        )
        registry.counter_fn(
            "repro_slo_bad_requests_total",
            "Requests that violated the latency objective or failed",
            lambda: self.bad,
        )
        registry.gauge_fn(
            "repro_slo_compliance_ratio",
            "Fraction of good requests over the whole run",
            self.compliance,
        )
        registry.gauge_fn(
            "repro_slo_error_budget_consumed_ratio",
            "Fraction of the error budget consumed (may exceed 1)",
            self.error_budget_consumed,
        )

"""Declarative alert rules over monitor and registry metrics.

A rule is a threshold predicate in a one-line syntax::

    observed_slack_ms < 0.1*deadline for 3 windows
    observed_max_ms >= 0.9*bound
    violations > 0

``metric`` names a windowed monitor series (per message) or a registry
metric (global); the optional ``*deadline`` / ``*bound`` factor scales the
threshold by the subject message's current analytic deadline or bound, so a
rule stays meaningful across messages with wildly different periods; the
optional ``for N windows`` clause demands the predicate hold in N
consecutive windows before the alert fires (edge-triggered: one alert per
excursion, re-armed when the predicate clears).

The engine is deliberately pure: the monitor hands it one sample per closed
window (``{subject: {metric: value}}``) plus the per-message scale
quantities, and gets back the alerts that fired.  That keeps rule semantics
unit-testable without a daemon, a session, or a clock.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

_OPS = {
    "<": lambda value, limit: value < limit,
    "<=": lambda value, limit: value <= limit,
    ">": lambda value, limit: value > limit,
    ">=": lambda value, limit: value >= limit,
}

_SCALES = ("deadline", "bound")

_EXPR = re.compile(
    r"^\s*(?P<metric>[A-Za-z_][\w.]*)\s*"
    r"(?P<op><=|>=|<|>)\s*"
    r"(?P<number>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*"
    r"(?:\*\s*(?P<scale>[A-Za-z_]\w*))?\s*"
    r"(?:for\s+(?P<windows>\d+)\s+windows?)?\s*$"
)


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold predicate (see the module docstring)."""

    name: str
    metric: str
    op: str
    threshold: float
    scale: str | None = None
    for_windows: int = 1
    message: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rules need a name")
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}; use one of {sorted(_OPS)}")
        if self.scale is not None and self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; use one of {_SCALES}")
        if self.for_windows < 1:
            raise ValueError("for_windows must be >= 1")

    @classmethod
    def parse(cls, name: str, expr: str, message: str | None = None) -> "AlertRule":
        """Parse the one-line rule syntax into a rule."""
        match = _EXPR.match(expr)
        if match is None:
            raise ValueError(
                f"cannot parse alert expression {expr!r}; expected "
                f"'<metric> <op> <number>[*deadline|*bound] "
                f"[for <N> windows]'"
            )
        scale = match.group("scale")
        if scale is not None and scale not in _SCALES:
            raise ValueError(f"unknown scale {scale!r} in {expr!r}; use one of {_SCALES}")
        windows = match.group("windows")
        return cls(
            name=name,
            metric=match.group("metric"),
            op=match.group("op"),
            threshold=float(match.group("number")),
            scale=scale,
            for_windows=int(windows) if windows else 1,
            message=message,
        )

    def describe(self) -> str:
        """Canonical one-line form of the rule."""
        factor = f"*{self.scale}" if self.scale else ""
        suffix = f" for {self.for_windows} windows" if self.for_windows > 1 else ""
        return f"{self.metric} {self.op} {self.threshold:g}{factor}{suffix}"

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "for_windows": self.for_windows,
        }
        if self.scale is not None:
            payload["scale"] = self.scale
        if self.message is not None:
            payload["message"] = self.message
        return payload


@dataclass(frozen=True)
class Alert:
    """One fired alert: which rule, on which subject, in which window."""

    rule: str
    subject: str | None
    window: int
    value: float
    threshold: float
    expr: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "subject": self.subject,
            "window": self.window,
            "value": self.value,
            "threshold": self.threshold,
            "expr": self.expr,
        }


class AlertEngine:
    """Evaluates rules against per-window samples, tracking streaks.

    One streak counter per ``(rule, subject)``: the predicate must hold in
    ``for_windows`` *consecutive* windows to fire, fires exactly once per
    excursion, and re-arms as soon as the predicate clears (or the subject
    stops reporting the metric).
    """

    def __init__(self, rules: Sequence[AlertRule], max_fired: int = 256) -> None:
        self.rules = tuple(rules)
        self._streaks: dict[tuple[str, str | None], int] = {}
        self._active: set[tuple[str, str | None]] = set()
        self.fired: deque[Alert] = deque(maxlen=max_fired)

    @property
    def active(self) -> list[tuple[str, str | None]]:
        """Currently firing ``(rule, subject)`` pairs, sorted."""
        return sorted(self._active, key=lambda pair: (pair[0], pair[1] or ""))

    def evaluate(
        self,
        window: int,
        sample: Mapping[str | None, Mapping[str, float]],
        scales: Mapping[str, Mapping[str, float]] | None = None,
    ) -> list[Alert]:
        """Evaluate every rule against one closed window's sample.

        ``sample`` maps subject (message name, or ``None`` for global
        metrics) to that subject's metric values; ``scales`` maps message
        names to their current ``deadline`` / ``bound`` for scaled
        thresholds.  Returns the alerts that fired this window.
        """
        scales = scales or {}
        alerts: list[Alert] = []
        for rule in self.rules:
            if rule.message is not None:
                subjects = [rule.message]
            else:
                subjects = [s for s, values in sample.items() if rule.metric in values]
            # A subject that stops reporting the metric resets its streak,
            # exactly as a pinned subject with a missing value would.
            seen = set(subjects)
            for name, subject in list(self._streaks):
                if name == rule.name and subject not in seen:
                    self._streaks[name, subject] = 0
                    self._active.discard((name, subject))
            for subject in subjects:
                key = (rule.name, subject)
                value = sample.get(subject, {}).get(rule.metric)
                limit = self._resolve_threshold(rule, subject, scales)
                if value is None or limit is None:
                    self._streaks[key] = 0
                    self._active.discard(key)
                    continue
                if _OPS[rule.op](value, limit):
                    streak = self._streaks.get(key, 0) + 1
                    self._streaks[key] = streak
                    if streak >= rule.for_windows and key not in self._active:
                        self._active.add(key)
                        alert = Alert(
                            rule=rule.name,
                            subject=subject,
                            window=window,
                            value=value,
                            threshold=limit,
                            expr=rule.describe(),
                        )
                        self.fired.append(alert)
                        alerts.append(alert)
                else:
                    self._streaks[key] = 0
                    self._active.discard(key)
        return alerts

    def _resolve_threshold(
        self,
        rule: AlertRule,
        subject: str | None,
        scales: Mapping[str, Mapping[str, float]],
    ) -> float | None:
        if rule.scale is None:
            return rule.threshold
        if subject is None:
            return None
        quantity = scales.get(subject, {}).get(rule.scale)
        if quantity is None:
            return None
        return rule.threshold * quantity

    def recent(self, last: int | None = None) -> list[Alert]:
        """Most recent fired alerts, oldest first."""
        alerts = list(self.fired)
        if last is not None and last >= 0:
            alerts = alerts[len(alerts) - min(last, len(alerts)) :]
        return alerts

"""Benefit analysis: the percentage reductions the paper's abstract quotes.

These helpers are deliberately generic (sequences of per-rate values), so
they do not depend on the experiment harness: give them a baseline series
and a treatment series over the same sending rates, and they produce the
paper's headline numbers — "reduce 78.7 % control traffic", "increase only
5.6 % switch overhead", and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


def percent_reduction(baseline: Sequence[float],
                      treatment: Sequence[float]) -> float:
    """Mean per-point reduction of ``treatment`` relative to ``baseline``.

    Positive means the treatment is lower (a saving); each rate point is
    weighted equally, matching how the paper averages "on average" claims
    across its sending-rate sweep.  Points with a zero baseline are
    skipped.
    """
    baseline = list(baseline)
    treatment = list(treatment)
    if len(baseline) != len(treatment):
        raise ValueError(
            f"series length mismatch: {len(baseline)} vs {len(treatment)}")
    if not baseline:
        raise ValueError("cannot compare empty series")
    # Function-local: repro.metrics imports the switch model, which
    # imports this package.
    from ..metrics.series import ordered_sum
    ratios = [(b - t) / b for b, t in zip(baseline, treatment) if b != 0]
    if not ratios:
        raise ValueError("baseline is zero everywhere")
    return 100.0 * ordered_sum(ratios) / len(ratios)


def percent_increase(baseline: Sequence[float],
                     treatment: Sequence[float]) -> float:
    """Mean per-point increase of ``treatment`` over ``baseline``."""
    return -percent_reduction(baseline, treatment)


def crossover_rate(rates: Sequence[float], series_a: Sequence[float],
                   series_b: Sequence[float]) -> float | None:
    """First rate from which ``series_a`` stays at or below ``series_b``.

    Used to locate, e.g., the sending rate past which the flow-granularity
    buffer beats the packet-granularity buffer on setup delay (the paper
    reports ~80 Mbps).  Returns ``None`` if ``a`` never wins through the
    end of the sweep.
    """
    n = len(rates)
    if not (n == len(series_a) == len(series_b)):
        raise ValueError("series must share the rate axis")
    for start in range(n):
        if all(a <= b for a, b in zip(series_a[start:], series_b[start:])):
            return rates[start]
    return None


@dataclass(frozen=True)
class HeadlineClaim:
    """One abstract-style claim: measured vs the paper's number."""

    name: str
    paper_value: float
    measured_value: float
    unit: str = "%"

    @property
    def same_direction(self) -> bool:
        """Do measured and paper values at least agree in sign?"""
        return (self.paper_value >= 0) == (self.measured_value >= 0)

    def __str__(self) -> str:
        return (f"{self.name}: paper {self.paper_value:+.1f}{self.unit}, "
                f"measured {self.measured_value:+.1f}{self.unit}")


def build_headline_claims(series: Dict[str, Dict[str, Sequence[float]]]
                          ) -> list[HeadlineClaim]:
    """Compute every abstract claim from raw per-rate series.

    ``series`` maps metric name → {label → per-rate values}.  Expected
    metrics/labels (benefits analysis, workload A): ``load_up``,
    ``load_down``, ``controller_usage``, ``switch_usage``, ``setup_delay``,
    ``controller_delay``, ``switch_delay`` with labels ``no-buffer`` and
    ``buffer-256``; (mechanism comparison, workload B): ``b_load_up``,
    ``b_load_down``, ``b_controller_usage``, ``b_forwarding_delay``,
    ``b_buffer_avg`` with labels ``buffer-256`` and ``flow-buffer-256``.
    Missing metrics are skipped, so partial experiment data still yields a
    partial report.
    """
    claims: list[HeadlineClaim] = []

    def add(metric: str, base: str, treat: str, name: str,
            paper: float, increase: bool = False) -> None:
        data = series.get(metric)
        if not data or base not in data or treat not in data:
            return
        fn = percent_increase if increase else percent_reduction
        claims.append(HeadlineClaim(
            name=name, paper_value=paper,
            measured_value=fn(data[base], data[treat])))

    # §IV — default buffer vs no buffer (paper's quoted averages).
    add("load_up", "no-buffer", "buffer-256",
        "control path load reduction (switch->controller)", 78.7)
    add("load_down", "no-buffer", "buffer-256",
        "control path load reduction (controller->switch)", 96.0)
    add("controller_usage", "no-buffer", "buffer-256",
        "controller overhead reduction", 37.0)
    add("switch_usage", "no-buffer", "buffer-256",
        "switch overhead increase", 5.6, increase=True)
    add("setup_delay", "no-buffer", "buffer-256",
        "flow setup delay reduction", 78.0)
    add("controller_delay", "no-buffer", "buffer-256",
        "controller delay reduction", 58.0)
    add("switch_delay", "no-buffer", "buffer-256",
        "switch delay reduction", 87.0)

    # §V — flow granularity vs packet granularity.
    add("b_load_up", "buffer-256", "flow-buffer-256",
        "further control load reduction (switch->controller)", 64.0)
    add("b_load_down", "buffer-256", "flow-buffer-256",
        "further control load reduction (controller->switch)", 80.0)
    add("b_controller_usage", "buffer-256", "flow-buffer-256",
        "further controller overhead reduction", 35.7)
    add("b_forwarding_delay", "buffer-256", "flow-buffer-256",
        "flow forwarding delay reduction", 18.0)
    add("b_buffer_avg", "buffer-256", "flow-buffer-256",
        "buffer utilization improvement", 71.6)

    return claims

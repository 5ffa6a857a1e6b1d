"""Evaluation metrics: speed-ups, cost efficiency and Pareto fronts (§7.3, §7.4).

The paper's headline numbers are ratios: normalized iteration time across
fabrics (Figure 12), relative performance vs. relative networking cost
(Figure 13), performance-per-dollar (Figure 26b).  This module computes those
from raw iteration times and cost breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence


@dataclass(frozen=True)
class DesignPoint:
    """One fabric evaluated at one configuration."""

    fabric: str
    iteration_time_s: float
    cost_usd: float

    def __post_init__(self) -> None:
        if self.iteration_time_s <= 0:
            raise ValueError("iteration_time_s must be positive")
        if self.cost_usd <= 0:
            raise ValueError("cost_usd must be positive")

    @property
    def performance(self) -> float:
        """Throughput proxy: inverse iteration time."""
        return 1.0 / self.iteration_time_s

    @property
    def performance_per_dollar(self) -> float:
        return self.performance / self.cost_usd


def normalize(values: Mapping[str, float], reference: str) -> Dict[str, float]:
    """Divide every value by the reference entry's value."""
    if reference not in values:
        raise KeyError(f"reference {reference!r} missing from {sorted(values)}")
    base = values[reference]
    if base == 0:
        raise ValueError("reference value must be non-zero")
    return {key: value / base for key, value in values.items()}


def speedup_over(values: Mapping[str, float], baseline: str) -> Dict[str, float]:
    """Speed-up of each entry relative to ``baseline`` (iteration times in)."""
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} missing from {sorted(values)}")
    base = values[baseline]
    return {key: base / value for key, value in values.items()}


def relative_points(points: Sequence[DesignPoint]) -> List[Dict[str, float]]:
    """Figure 13 coordinates: cost and performance relative to the maxima."""
    if not points:
        return []
    max_cost = max(p.cost_usd for p in points)
    max_perf = max(p.performance for p in points)
    return [
        {
            "fabric": p.fabric,
            "relative_cost": p.cost_usd / max_cost,
            "relative_performance": p.performance / max_perf,
        }
        for p in points
    ]


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated design points (lower cost, higher performance is better)."""
    front: List[DesignPoint] = []
    for candidate in points:
        dominated = False
        for other in points:
            if other is candidate:
                continue
            better_or_equal = (
                other.cost_usd <= candidate.cost_usd
                and other.performance >= candidate.performance
            )
            strictly_better = (
                other.cost_usd < candidate.cost_usd
                or other.performance > candidate.performance
            )
            if better_or_equal and strictly_better:
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda p: p.cost_usd)


def cost_efficiency_gain(
    points: Mapping[str, DesignPoint], subject: str, baseline: str
) -> float:
    """Performance-per-dollar of ``subject`` relative to ``baseline`` (§7.4)."""
    if subject not in points or baseline not in points:
        raise KeyError("both subject and baseline must be present")
    return points[subject].performance_per_dollar / points[baseline].performance_per_dollar


def tokens_per_second(
    tokens_per_iteration: float, iteration_time_s: float
) -> float:
    """Training throughput in tokens per second (Figure 26a)."""
    if iteration_time_s <= 0:
        raise ValueError("iteration_time_s must be positive")
    return tokens_per_iteration / iteration_time_s

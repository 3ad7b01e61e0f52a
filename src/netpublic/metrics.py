"""Welfare, polarization, and contributor statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameParams, StrategyProfile, utilities


@dataclass(frozen=True)
class MetricsRecord:
    welfare_sum: float
    welfare_avg: float
    polarization: float
    contributor_count: int
    contributor_share: float


def welfare(profile: StrategyProfile, params: GameParams) -> tuple[float, float]:
    """Total and per-capita utility; -inf propagates from dominated profiles.

    Per-player utilities come from one array pass; the total adds them left
    to right as numpy scalars, the order a per-player loop sums them in.
    """
    n = params.n
    X = np.broadcast_to(profile.x, (n, n))
    Y = np.broadcast_to(profile.y, (n, n))
    total = sum(utilities(params, np.arange(n), X, Y, profile.g))
    return total, total / params.n


def _pair_distance_sum(values: np.ndarray) -> float:
    # sum over ordered pairs of |v_i - v_j| via the sorted prefix identity
    v = np.sort(values)
    n = v.size
    coeff = 2.0 * np.arange(n) - (n - 1)
    return 2.0 * float(coeff @ v)


def polarization(profile: StrategyProfile) -> float:
    """Dissimilarity of consumption bundles over all ordered player pairs.

    Both orders of every pair count, matching the double sum this metric is
    defined by; identical bundles give zero.
    """
    cons_x, cons_y = profile.consumption()
    return _pair_distance_sum(cons_x) + _pair_distance_sum(cons_y)


def contributor_count(profile: StrategyProfile) -> int:
    return int(np.count_nonzero(profile.in_degree() >= 1))


def metrics_record(profile: StrategyProfile, params: GameParams) -> MetricsRecord:
    total, avg = welfare(profile, params)
    count = contributor_count(profile)
    return MetricsRecord(
        welfare_sum=total,
        welfare_avg=avg,
        polarization=polarization(profile),
        contributor_count=count,
        contributor_share=count / params.n,
    )

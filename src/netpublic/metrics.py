"""Welfare, polarization, and contributor statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .best_response import _KERNEL_CHUNK
from .model import GameParams, StrategyProfile, utilities


@dataclass(frozen=True)
class MetricsRecord:
    welfare_sum: float
    welfare_avg: float
    polarization: float
    contributor_count: int
    contributor_share: float


def _welfare_totals(params, game, X, Y, G) -> np.ndarray:
    """Total utility of each profile (X[r], Y[r], G[r]) of a stack, in game
    game[r] of params (parameter index game * n + i); -inf propagates.  One
    ``utilities`` pass per _KERNEL_CHUNK // n^2 profiles (at least one), so at
    most max(n, _KERNEL_CHUNK // n) (profile, player) rows; each total adds
    its players left to right, as a per-player loop does."""
    n, out = X.shape[1], np.empty(len(X))
    step = max(1, _KERNEL_CHUNK // (n * n))
    for lo in range(0, len(X), step):
        b = min(step, len(X) - lo)
        part = slice(lo, lo + b)
        # each profile's row read by each of its players: a view for one profile
        Xs, Ys = (np.broadcast_to(Z[part, None], (b, n, n)).reshape(-1, n) for Z in (X, Y))
        who = (game[part, None] * n + np.arange(n)).ravel()
        U = utilities(params, who, Xs, Ys, G[part].reshape(-1, n)).reshape(b, n)
        out[part] = np.cumsum(U, axis=1)[:, -1] + 0.0  # as sum() from 0: -0.0 reads 0.0
    return out


def welfare(profile: StrategyProfile, params: GameParams) -> tuple[float, float]:
    """Total and per-capita utility: ``_welfare_totals`` on a batch of one."""
    total = _welfare_totals(params, np.zeros(1, dtype=int), profile.x[None], profile.y[None],
                            profile.g[None])[0]
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

"""Comparative statics over the linking cost, and related scans.

Every sweep holds the realized type vector fixed so that regime changes are
attributable to the linking cost alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .equilibrium import EMPTY, construct_independent, welfare_max_equilibria
from .metrics import contributor_count, metrics_record
from .model import GameParams, StrategyProfile, draw_interior_types
from .benefits import BenefitSpec


@dataclass(frozen=True)
class SweepRecord:
    k: float
    classification: str
    contributor_count: int
    welfare_sum: float
    welfare_avg: float
    polarization: float
    contributor_types: tuple[float, ...]


class RegimeEvent(enum.Enum):
    WELFARE_UP_ON_K_UP = "WelfareUpOnKUp"
    CONTRIBUTOR_COUNT_CHANGE = "ContributorCountChange"
    POLARIZATION_TREND_FLIP = "PolarizationTrendFlip"
    EMPTY_ONSET = "EmptyOnset"


class FoldedOrder(enum.Enum):
    A_LESS_EXTREME = "ALessExtreme"
    B_LESS_EXTREME = "BLessExtreme"
    INCOMPARABLE = "Incomparable"


def _record_for(k: float, profile: StrategyProfile, report, params: GameParams) -> SweepRecord:
    m = metrics_record(profile, params)
    ctypes = tuple(float(params.types[i]) for i in report.contributors)
    return SweepRecord(
        k=float(k),
        classification=report.classification,
        contributor_count=m.contributor_count,
        welfare_sum=m.welfare_sum,
        welfare_avg=m.welfare_avg,
        polarization=m.polarization,
        contributor_types=ctypes,
    )


def sweep_k(params: GameParams, k_grid, return_profiles: bool = False):
    """Welfare-maximal equilibrium at each linking cost on a fixed society,
    every k solved in one batch."""
    k_grid = [float(k) for k in k_grid]
    if any(k <= 0 for k in k_grid) or any(b <= a for a, b in zip(k_grid, k_grid[1:])):
        raise ValueError("k_grid must be strictly increasing and positive")
    records: list[SweepRecord] = []
    profiles: list[StrategyProfile] = []
    games = [params.with_k(k) for k in k_grid]
    for k, game, (prof, report) in zip(k_grid, games, welfare_max_equilibria(games)):
        records.append(_record_for(k, prof, report, game))
        profiles.append(prof)
    if return_profiles:
        return records, profiles
    return records


def detect_regime_changes(records) -> list[tuple[tuple[float, float], RegimeEvent]]:
    """Flag qualitative changes between adjacent sweep records."""
    if len(records) < 3:
        raise ValueError("need at least 3 records to detect regime changes")
    events: list[tuple[tuple[float, float], RegimeEvent]] = []
    for prev, cur in zip(records, records[1:]):
        interval = (prev.k, cur.k)
        if cur.welfare_avg > prev.welfare_avg:
            events.append((interval, RegimeEvent.WELFARE_UP_ON_K_UP))
        if cur.contributor_count != prev.contributor_count:
            events.append((interval, RegimeEvent.CONTRIBUTOR_COUNT_CHANGE))
        if cur.classification == EMPTY and prev.classification != EMPTY:
            events.append((interval, RegimeEvent.EMPTY_ONSET))
    for left, mid, right in zip(records, records[1:], records[2:]):
        d1 = mid.polarization - left.polarization
        d2 = right.polarization - mid.polarization
        if d1 * d2 < 0:
            events.append(((mid.k, right.k), RegimeEvent.POLARIZATION_TREND_FLIP))
    return events


def law_of_few_scan(
    n_list,
    dist,
    c: float,
    k: float,
    benefit: BenefitSpec,
    seed: int,
) -> list[tuple[int, int]]:
    """Contributor counts of the independent construction on nested societies.

    The interior types for the largest n are drawn once; smaller societies use
    prefixes of that draw, so growing n only adds players.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    rng = np.random.Generator(np.random.PCG64(seed))
    interior = draw_interior_types(dist, max(n_list) - 2, rng)
    out: list[tuple[int, int]] = []
    for n in n_list:
        types = np.array(sorted([0.0] + interior[: n - 2] + [1.0]))
        params = GameParams(types, c, k, benefit)
        prof = construct_independent(params)
        out.append((n, contributor_count(prof)))
    return out


def folded_fosd(samples_a, samples_b) -> FoldedOrder:
    """Compare extremism of two type samples after folding t -> min(t, 1-t).

    A sample is less extreme when its folded empirical CDF sits weakly below
    the other everywhere (mass pushed toward 1/2) with a strict gap somewhere.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size < 30 or b.size < 30:
        raise ValueError("need at least 30 samples per side")
    fa = np.sort(np.minimum(a, 1.0 - a))
    fb = np.sort(np.minimum(b, 1.0 - b))
    grid = np.union1d(fa, fb)
    cdf_a = np.searchsorted(fa, grid, side="right") / fa.size
    cdf_b = np.searchsorted(fb, grid, side="right") / fb.size
    diff = cdf_b - cdf_a  # positive where A's folded mass sits higher
    a_less = bool(np.all(diff >= -1e-12) and np.any(diff > 1e-6))
    b_less = bool(np.all(-diff >= -1e-12) and np.any(-diff > 1e-6))
    if a_less and not b_less:
        return FoldedOrder.A_LESS_EXTREME
    if b_less and not a_less:
        return FoldedOrder.B_LESS_EXTREME
    return FoldedOrder.INCOMPARABLE

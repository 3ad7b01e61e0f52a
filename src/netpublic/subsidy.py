"""Budgeted subsidy planning over public-good provision.

A subsidy lowers one player's contribution cost, which raises their autarky
demand and can redirect who links to whom.  The planner grid-searches
single-recipient plans (and split plans across the current two contributors),
re-solves the welfare-maximal equilibrium under each cost vector (all of them
as one family of games), discards plans that overrun the budget at the
realized contributions, and keeps the welfare argmax.  Grid search is
deliberate: the objective jumps when the equilibrium network switches, so
smooth methods have nothing to grip.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .benefits import BenefitSpec
from .equilibrium import _welfare_max_equilibria, welfare_max_equilibrium
from .model import GameParams, IsolationDemand, StrategyProfile, isolation_demand

EXISTING_CONTRIBUTORS = "ExistingContributors"
NEW_MODERATE_CONTRIBUTOR = "NewModerateContributor"
STAR = "Star"

# fraction of c a single subsidy may reach; at v = c demand diverges
_MAX_SUBSIDY_FRACTION = 0.95
_BUDGET_SLACK = 1e-9
_SPLITS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class SubsidyPlan:
    v: np.ndarray
    budget: float
    spent: float

    def recipients(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.v > 0))


def subsidized_isolation_demand(
    t: float, c: float, v: float, spec: BenefitSpec
) -> IsolationDemand:
    """Autarky demand at reduced cost c - v; rejects v >= c (demand diverges)."""
    if v < 0:
        raise ValueError("subsidy must be non-negative")
    if v >= c:
        raise ValueError("subsidy must stay below the contribution cost")
    return isolation_demand(t, c - v, spec)


def budget_spent(plan_v: np.ndarray, profile: StrategyProfile) -> float:
    """Outlay at realized contributions: free riders draw nothing."""
    return float(np.asarray(plan_v) @ (profile.x + profile.y))


def _frontier_level(params: GameParams, target: int, budget: float) -> float | None:
    """Largest subsidy whose worst-case outlay (full autarky provision at the
    reduced cost) still fits the budget; None when even tiny levels overrun."""
    cap = _MAX_SUBSIDY_FRACTION * params.c

    def worst_spend(v: float) -> float:
        d = subsidized_isolation_demand(
            params.types[target], float(params.cost_vec[target]), v, params.benefit
        )
        return v * (d.x_hat + d.y_hat)

    if worst_spend(cap) <= budget:
        return cap
    lo, hi = 0.0, cap
    if worst_spend(1e-9) > budget:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if worst_spend(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else None


def _plan_vectors(params: GameParams, baseline_report, target_grid: int, level_grid: int,
                  budget: float):
    """Candidate subsidy vectors, deterministic order, null plan first."""
    n = params.n
    yield np.zeros(n)
    existing = list(baseline_report.contributors)
    mean_t = float(np.mean(params.types))
    by_mean = sorted(range(n), key=lambda i: (abs(params.types[i] - mean_t), i))
    targets = sorted(set(existing) | set(by_mean[:target_grid]))
    levels = np.geomspace(0.01 * params.c, _MAX_SUBSIDY_FRACTION * params.c, level_grid)
    for tgt in targets:
        per_target = list(levels)
        frontier = _frontier_level(params, tgt, budget)
        if frontier is not None:
            per_target.append(frontier)
        for lv in sorted(set(per_target)):
            v = np.zeros(n)
            v[tgt] = lv
            yield v
    if len(existing) >= 2:
        a, b = sorted(existing)[:2]
        for lv in levels:
            for frac in _SPLITS:
                v = np.zeros(n)
                v[a] = min(frac * lv, _MAX_SUBSIDY_FRACTION * params.c)
                v[b] = min((1.0 - frac) * lv, _MAX_SUBSIDY_FRACTION * params.c)
                yield v


def _is_star_on(profile: StrategyProfile, m: int) -> bool:
    """Every other player links m, and nobody else receives a link."""
    indeg = profile.in_degree()
    return indeg[m] == profile.n - 1 and np.count_nonzero(indeg) == 1


def planner(
    params: GameParams,
    budget: float,
    target_grid: int = 8,
    level_grid: int = 20,
) -> tuple[SubsidyPlan, StrategyProfile, str]:
    """Welfare-best feasible subsidy plan under the stated budget.

    The budget must be finite and non-negative, and the grid sizes non-negative.
    """
    if not (math.isfinite(budget) and budget >= 0):
        raise ValueError("budget must be finite and non-negative")
    if target_grid < 0 or level_grid < 0:
        raise ValueError("target_grid and level_grid must be non-negative")
    base_prof, base_report = welfare_max_equilibrium(params)
    if budget == 0:
        plan = SubsidyPlan(np.zeros(params.n), 0.0, 0.0)
        return plan, base_prof, EXISTING_CONTRIBUTORS

    pending = deque()  # plans handed to the solver, answers not yet read

    def trials():
        for v in _plan_vectors(params, base_report, target_grid, level_grid, budget):
            try:
                trial = params.with_costs(params.cost_vec - v)
            except ValueError:
                continue
            pending.append(v)
            yield trial

    best = None  # (welfare, spent, plan, profile)
    # each answer comes with its welfare under its plan's costs
    for prof, _, w in _welfare_max_equilibria(trials()):
        v = pending.popleft()
        spent = budget_spent(v, prof)
        if spent > budget + _BUDGET_SLACK:
            continue
        indeg = prof.in_degree()
        if np.any((v > 0) & (indeg == 0)):
            # a subsidy is only ever paid to a player others link to; plans
            # wasting budget capacity on an unlinked player are never optimal
            continue
        if best is None or w > best[0] + 1e-9:
            best = (w, spent, v, prof)
        elif abs(w - best[0]) <= 1e-9:
            # ties: smaller outlay, then lowest recipient index
            cand_rec = tuple(np.flatnonzero(v > 0))
            best_rec = tuple(np.flatnonzero(best[2] > 0))
            if spent < best[1] - 1e-12 or (
                abs(spent - best[1]) <= 1e-12 and cand_rec < best_rec
            ):
                best = (w, spent, v, prof)

    assert best is not None  # the null plan is always feasible
    _, spent, v, prof = best
    plan = SubsidyPlan(v, float(budget), float(spent))
    recipients = plan.recipients()
    if len(recipients) == 1 and _is_star_on(prof, recipients[0]):
        regime = STAR
    elif set(recipients) <= set(base_report.contributors):
        regime = EXISTING_CONTRIBUTORS
    else:
        regime = NEW_MODERATE_CONTRIBUTOR
    return plan, prof, regime

"""Subsidized demands, budget accounting, and the planner search."""

import numpy as np
import pytest

from netpublic import (
    BenefitSpec,
    GameParams,
    StrategyProfile,
    budget_spent,
    isolation_demand,
    planner,
    subsidized_isolation_demand,
    welfare_max_equilibrium,
)
from netpublic.metrics import welfare
from netpublic.subsidy import _is_star_on


def _params(types, c=1.0, k=0.9):
    return GameParams(np.asarray(types, float), c, k, BenefitSpec.log())


def test_zero_subsidy_reduces_to_isolation_demand():
    for t in (0.0, 0.3, 1.0):
        assert subsidized_isolation_demand(t, 1.0, 0.0, BenefitSpec.log()) == \
            isolation_demand(t, 1.0, BenefitSpec.log())


def test_half_cost_subsidy_doubles_log_demand():
    d = subsidized_isolation_demand(0.5, 1.0, 0.5, BenefitSpec.log())
    assert d == pytest.approx((1.0, 1.0), abs=1e-12)


def test_subsidy_at_or_above_cost_rejected():
    with pytest.raises(ValueError):
        subsidized_isolation_demand(0.5, 1.0, 1.0, BenefitSpec.log())
    with pytest.raises(ValueError):
        subsidized_isolation_demand(0.5, 1.0, 1.5, BenefitSpec.log())
    # demand grows without bound as the subsidy approaches the cost
    near = subsidized_isolation_demand(0.5, 1.0, 0.999, BenefitSpec.log())
    assert near.x_hat > 100


def test_budget_spent_cases():
    prof = StrategyProfile(
        np.array([2.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.5]), np.zeros((3, 3), int)
    )
    assert budget_spent(np.zeros(3), prof) == 0.0
    v = np.array([0.1, 0.0, 0.0])
    assert budget_spent(v, prof) == pytest.approx(0.3, abs=1e-12)
    free_rider = np.array([0.0, 0.5, 0.0])  # contributes nothing, draws nothing
    assert budget_spent(free_rider, prof) == 0.0


def test_zero_budget_null_plan():
    params = _params([0.0, 0.3, 0.7, 1.0], k=0.5)
    plan, prof, regime = planner(params, 0.0)
    assert plan.recipients() == ()
    assert plan.spent == 0.0
    assert regime == "ExistingContributors"
    base, _ = welfare_max_equilibrium(params)
    assert np.array_equal(prof.g, base.g)


def test_planner_rejects_bad_budget():
    params = _params([0.0, 0.3, 0.7, 1.0], k=0.5)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            planner(params, bad)


def test_planner_never_hurts_welfare_and_respects_budget():
    params = _params([0.0, 0.2, 0.5, 0.8, 1.0], k=0.7)
    base, _ = welfare_max_equilibrium(params)
    base_w = welfare(base, params)[0]
    plan, prof, _ = planner(params, 0.4, target_grid=4, level_grid=6)
    subsidized = params.with_costs(params.cost_vec - plan.v)
    assert welfare(prof, subsidized)[0] >= base_w - 1e-9
    assert plan.spent <= plan.budget + 1e-9
    assert budget_spent(plan.v, prof) == pytest.approx(plan.spent, abs=1e-12)


def test_planner_recipients_receive_links():
    params = _params([0.0, 0.2, 0.5, 0.8, 1.0], k=0.7)
    for budget in (0.3, 1.5):
        plan, prof, _ = planner(params, budget, target_grid=4, level_grid=6)
        indeg = prof.in_degree()
        for r in plan.recipients():
            assert indeg[r] >= 1


def test_planner_welfare_monotone_in_budget():
    params = _params([0.0, 0.25, 0.5, 0.75, 1.0], k=0.8)
    best = -np.inf
    for budget in (0.0, 0.3, 1.0, 3.0):
        plan, prof, _ = planner(params, budget, target_grid=3, level_grid=5)
        w = welfare(prof, params.with_costs(params.cost_vec - plan.v))[0]
        assert w >= best - 1e-9
        best = max(best, w)


def test_large_budget_builds_star_on_moderate_recipient():
    types = np.linspace(0.0, 1.0, 7)
    params = GameParams(types, 1.0, 0.9, BenefitSpec.log())
    plan, prof, regime = planner(params, 4.0, target_grid=4, level_grid=8)
    assert regime == "Star"
    (m,) = plan.recipients()
    assert abs(params.types[m] - params.types.mean()) < 0.2
    others = [i for i in range(7) if i != m]
    assert all(prof.g[i, m] == 1 for i in others)


def test_star_check_needs_every_spoke_and_a_single_hub():
    def links(n, pairs):
        g = np.zeros((n, n), dtype=np.int8)
        for i, j in pairs:
            g[i, j] = 1
        return StrategyProfile(np.ones(n), np.ones(n), g)

    star = links(5, [(i, 2) for i in (0, 1, 3, 4)])
    assert _is_star_on(star, 2)
    assert not _is_star_on(star, 0)
    assert not _is_star_on(links(5, [(i, 2) for i in (0, 1, 3)]), 2)  # a spoke missing
    # two hubs: split spokes, or every spoke into 2 and the hub's own link to 4
    assert not _is_star_on(links(5, [(0, 2), (1, 2), (3, 4)]), 2)
    assert not _is_star_on(links(5, [(0, 2), (1, 2), (3, 2), (4, 2), (2, 4)]), 2)

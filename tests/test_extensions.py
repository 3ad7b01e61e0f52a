"""Two-way flow, weighted links, and the perturbed-utility variant."""

import itertools
import math

import numpy as np
import pytest

from netpublic import (
    EPS_DEV,
    BenefitSpec,
    GameParams,
    PerturbationParams,
    StrategyProfile,
    UNIFORM,
    WeightedProfile,
    best_response_weighted,
    brute_force_equilibria,
    brute_force_two_way,
    equilibrium_weighted,
    perturbation_robustness,
    perturbed_contributions,
    sample_types,
    utility,
    utility_perturbed,
    utility_two_way,
    utility_weighted,
    weighted_recipients,
)
from netpublic.best_response import _top_up
from tests.conftest import random_scenario


def _params(types, c=1.0, k=0.4, spec=None):
    return GameParams(np.asarray(types, float), c, k, spec or BenefitSpec.log())


# ----------------------------------------------------------------------
# two-way flow
# ----------------------------------------------------------------------

def test_two_way_equals_one_way_on_symmetric_graphs(rng):
    params = random_scenario(rng, 5)
    prof = StrategyProfile.isolated(params)
    prof.g[1, 2] = prof.g[2, 1] = 1
    prof.g[0, 3] = prof.g[3, 0] = 1
    for i in range(5):
        assert utility_two_way(prof, i, params) == pytest.approx(
            utility(prof, i, params), abs=1e-12
        )


def test_two_way_receiver_gets_free_access():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    prof.g[1, 2] = 1  # the middle sponsors; player 2 pays nothing
    base = utility(prof, 2, params)
    with_access = utility_two_way(prof, 2, params)
    assert with_access > base  # free spillovers, no fee


def _two_way_best_utility(i, profile, params):
    """Best utility over all link subsets given two-way access: the scalar
    Nash check the two-way oracle once ran, kept as the reference verdict."""
    n = params.n
    in_links = np.flatnonzero(profile.g[:, i] != 0)
    others = [j for j in range(n) if j != i]
    best = -np.inf
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            access = sorted(set(combo) | set(in_links.tolist()))
            gross, _, _ = _top_up(
                i, float(profile.x[access].sum()), float(profile.y[access].sum()), params
            )
            best = max(best, gross - params.k * r)
    return best


def _assert_two_way_equilibrium(prof, params):
    # an exact fixed point of the undirected closure that no player improves on
    closure = ((prof.g != 0) | (prof.g.T != 0)).astype(float)
    assert np.allclose(prof.x, np.maximum(params.x_hat - closure @ prof.x, 0.0), atol=1e-12)
    assert np.allclose(prof.y, np.maximum(params.y_hat - closure @ prof.y, 0.0), atol=1e-12)
    for i in range(params.n):
        assert _two_way_best_utility(i, prof, params) <= utility_two_way(prof, i, params) + EPS_DEV


def test_two_way_equilibria_extremes_dominate(rng):
    checked = 0
    for _ in range(12):
        params = random_scenario(rng, 4, k_span=(0.05, 1.1))
        for prof in brute_force_two_way(params):
            checked += 1
            assert np.all(prof.x[-1] >= prof.x - 1e-9)
            assert np.all(prof.y[0] >= prof.y - 1e-9)
            _assert_two_way_equilibrium(prof, params)
    assert checked > 0


def test_two_way_receivers_reach_their_sponsors_for_free():
    # subsidized moderates supply the most of each good: one-way they link
    # each other both ways, under two-way flow either link alone does
    params = GameParams(np.array([0.0, 0.3, 0.7, 1.0]), 1.0, 0.2, BenefitSpec.log(),
                        np.array([1.0, 0.5, 0.5, 1.0]))
    one_way = [np.argwhere(prof.g).tolist() for prof in brute_force_equilibria(params)]
    assert one_way == [[[0, 1], [1, 2], [2, 1], [3, 2]]]
    two_way = brute_force_two_way(params)
    assert [np.argwhere(prof.g).tolist() for prof in two_way] == [
        [[0, 1], [1, 2], [3, 2]], [[0, 1], [2, 1], [3, 2]]]
    for prof in two_way:
        _assert_two_way_equilibrium(prof, params)


# two-way equilibria that a Gauss-Seidel run per digraph misses: it settles
# on another fixed point of the same digraph
TWO_WAY_MISSED = [
    ([0.0, 0.104536, 0.511117, 1.0], 0.54122, 0.546015, BenefitSpec.log()),
    ([0.0, 0.215582, 0.455119, 1.0], 1.848238, 0.053996, BenefitSpec.power(0.3)),
]


@pytest.mark.parametrize("types, c, k, spec", TWO_WAY_MISSED)
def test_two_way_oracle_checks_every_fixed_point(types, c, k, spec):
    params = GameParams(np.array(types), c, k, spec)
    eqs = brute_force_two_way(params)
    assert len(eqs) == 1
    _assert_two_way_equilibrium(eqs[0], params)
    if spec.family == "log":
        assert np.argwhere(eqs[0].g).tolist() == [[1, 0], [2, 0], [2, 3]]
        assert np.allclose(eqs[0].x, [0.0, 0.193149, 0.0, 1.847677], atol=1e-6)
        assert np.allclose(eqs[0].y, [1.847677, 0.0, 0.0, 0.0], atol=1e-6)


# ----------------------------------------------------------------------
# weighted links
# ----------------------------------------------------------------------

def test_weighted_utility_embeds_binary_links(rng):
    params = random_scenario(rng, 5)
    prof = StrategyProfile.isolated(params)
    prof.g[1, 2] = prof.g[1, 0] = 1
    wp = WeightedProfile(prof.x.copy(), prof.y.copy(), prof.g.astype(float))
    for i in range(5):
        assert utility_weighted(wp, i, params) == pytest.approx(
            utility(prof, i, params), abs=1e-12
        )


def test_weighted_utility_linear_in_weight():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    wp = WeightedProfile.isolated(params)
    wp.x[2], wp.y[2] = 1.0, 0.0
    wp.x[1], wp.y[1] = 0.0, 0.0

    def parts(alpha):
        wp.w[1, 2] = alpha
        spill = float(wp.w[1] @ wp.x)
        fee = params.k * float(wp.w[1].sum())
        return spill, fee

    s1, f1 = parts(0.8)
    s2, f2 = parts(0.4)
    assert s2 == pytest.approx(s1 / 2, abs=1e-12)
    assert f2 == pytest.approx(f1 / 2, abs=1e-12)


def test_weighted_best_response_interior_first_order_condition():
    # one provider worth a partial link: at the optimum the marginal value of
    # weight equals the linking fee
    params = _params([0.0, 0.6, 1.0], k=0.9)
    wp = WeightedProfile.isolated(params)
    wp.x[:] = 0.0
    wp.y[:] = 0.0
    wp.x[2] = 1.0
    w, xi, yi = best_response_weighted(1, wp, params)
    alpha = w[2]
    assert 0.0 < alpha < 1.0
    assert xi == 0.0
    marginal = params.types[1] * params.benefit.deriv(alpha * wp.x[2]) * wp.x[2]
    assert marginal == pytest.approx(params.k, abs=1e-6)


def test_weighted_best_response_ignores_empty_provider():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    wp = WeightedProfile.isolated(params)
    wp.x[0], wp.y[0] = 0.0, 0.0
    w, _, _ = best_response_weighted(1, wp, params)
    assert w[0] == pytest.approx(0.0, abs=1e-7)


def test_weighted_best_response_all_zero_when_fee_dominates():
    params = _params([0.0, 0.5, 1.0], k=5.0)
    wp = WeightedProfile.isolated(params)
    w, xi, yi = best_response_weighted(1, wp, params)
    assert np.allclose(w, 0.0, atol=1e-7)
    assert (xi, yi) == (0.5, 0.5)


def test_weighted_equilibrium_above_threshold_stays_empty():
    params = _params([0.0, 0.3, 0.7, 1.0], k=5.0)
    wp = equilibrium_weighted(params)
    assert np.allclose(wp.w, 0.0, atol=1e-7)
    assert weighted_recipients(wp) == ()


def test_weighted_equilibrium_two_extreme_recipients():
    types = sample_types(UNIFORM, 8, seed=12)
    params = GameParams(types, 1.0, 0.5, BenefitSpec.log())
    wp = equilibrium_weighted(params)
    recipients = weighted_recipients(wp)
    assert recipients == (0, 7)
    # two-sided core: never a one-way heavy link between the recipients
    a, b = recipients
    one_way = (wp.w[a, b] > 1e-6) != (wp.w[b, a] > 1e-6)
    assert not one_way


def test_weighted_equilibrium_resists_small_weight_perturbations():
    # no 0.01-sized weight move (with contributions re-optimized) pays
    types = sample_types(UNIFORM, 6, seed=2)
    params = GameParams(types, 1.0, 0.6, BenefitSpec.log())
    wp = equilibrium_weighted(params)
    for i in range(params.n):
        base = utility_weighted(wp, i, params)
        for j in range(params.n):
            if j == i:
                continue
            for delta in (-0.01, 0.01):
                trial = wp.copy()
                trial.w[i, j] = min(max(wp.w[i, j] + delta, 0.0), 1.0)
                x_bar = float(trial.w[i] @ trial.x)
                y_bar = float(trial.w[i] @ trial.y)
                trial.x[i] = max(params.x_hat[i] - x_bar, 0.0)
                trial.y[i] = max(params.y_hat[i] - y_bar, 0.0)
                assert utility_weighted(trial, i, params) <= base + 1e-7


def test_weighted_equilibrium_recipient_count_is_zero_or_two(rng):
    for seed in range(3):
        types = sample_types(UNIFORM, 6, seed=seed)
        params = GameParams(types, 1.0, float(rng.uniform(0.3, 0.8)), BenefitSpec.log())
        wp = equilibrium_weighted(params)
        assert len(weighted_recipients(wp)) in (0, 2)


# ----------------------------------------------------------------------
# perturbed utility
# ----------------------------------------------------------------------

def test_perturbed_reduces_to_baseline_at_zero(rng):
    zero = PerturbationParams()
    for _ in range(40):
        params = random_scenario(rng, 5)
        prof = StrategyProfile.isolated(params)
        g = (rng.uniform(size=(5, 5)) < 0.35).astype(np.int8)
        np.fill_diagonal(g, 0)
        prof.g = g
        prof.x = rng.uniform(0.01, 2.0, size=5)
        prof.y = rng.uniform(0.01, 2.0, size=5)
        for i in range(5):
            assert utility_perturbed(prof, i, params, zero) == pytest.approx(
                utility(prof, i, params), abs=1e-12
            )


def test_perturbed_full_decay_kills_spillovers():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    prof.g[1, 2] = 1
    pert = PerturbationParams(eps2=1.0)
    expected = (
        params.types[1] * math.log(prof.x[1])
        + (1 - params.types[1]) * math.log(prof.y[1])
        - (prof.x[1] + prof.y[1])
        - params.k
    )
    assert utility_perturbed(prof, 1, params, pert) == pytest.approx(expected, abs=1e-12)


def test_perturbed_distance_two_spillover_at_full_reach():
    # chain 0 -> 1 -> 2: with no discount the far provider counts in full
    params = _params([0.0, 0.5, 1.0], k=0.1)
    prof = StrategyProfile.isolated(params)
    prof.g[0, 1] = 1
    prof.g[1, 2] = 1
    pert = PerturbationParams(eps3=1.0)
    got = utility_perturbed(prof, 0, params, pert)
    agg_y = prof.y[0] + prof.y[1] + prof.y[2]
    expected = math.log(agg_y) - prof.y[0] - params.k  # type 0 ignores good x
    assert got == pytest.approx(expected, abs=1e-12)
    # direction respected: provision travels only along sponsored links
    assert utility_perturbed(prof, 2, params, pert) == pytest.approx(
        utility(prof, 2, params), abs=1e-12
    )


def test_perturbed_rejects_ces_singularity():
    with pytest.raises(ValueError):
        PerturbationParams(eps1=1.0)
    with pytest.raises(ValueError):
        PerturbationParams(eps2=1.5)


# each of these passed the range checks before they required finite values
@pytest.mark.parametrize("bad", [
    {"eps1": math.nan},
    {"eps4": math.inf},
    {"eps4": np.array([0.0, math.nan, 0.0])},
    {"eps5": np.array([0.0, 0.0, -math.inf])},
])
def test_perturbed_rejects_non_finite_shocks(bad):
    with pytest.raises(ValueError):
        PerturbationParams(**bad)


@pytest.mark.parametrize("field, at, bad", [
    ("x", 1, math.nan), ("x", 0, math.inf), ("y", 2, math.nan), ("y", 1, math.inf),
    ("w", (0, 1), math.nan),
])
def test_weighted_profile_rejects_non_finite_entries(field, at, bad):
    parts = {"x": np.ones(3), "y": np.ones(3), "w": np.full((3, 3), 0.5)}
    np.fill_diagonal(parts["w"], 0.0)
    WeightedProfile(**parts)
    parts[field][at] = bad
    with pytest.raises(ValueError):
        WeightedProfile(**parts)


def test_perturbed_contributions_match_topup_at_zero_eps():
    params = _params([0.0, 0.4, 1.0], k=0.4)
    g = np.zeros((3, 3), dtype=np.int8)
    g[1, 2] = 1
    x, y = perturbed_contributions(g, params, PerturbationParams())
    assert x[2] == pytest.approx(params.x_hat[2], abs=1e-8)
    assert x[1] == pytest.approx(max(params.x_hat[1] - x[2], 0.0), abs=1e-8)
    assert y[1] == pytest.approx(params.y_hat[1], abs=1e-8)


def test_robustness_zero_bound_is_one():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    from netpublic import welfare_max_equilibrium

    prof, _ = welfare_max_equilibrium(params)
    assert perturbation_robustness(prof, params, 0.0, trials=5, seed=1) == 1.0


def test_robustness_breaks_under_huge_shocks():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    from netpublic import welfare_max_equilibrium

    prof, _ = welfare_max_equilibrium(params)
    frac = perturbation_robustness(prof, params, 10.0, trials=12, seed=2)
    assert frac < 1.0


def test_robustness_rejects_large_games():
    types = sample_types(UNIFORM, 9, seed=0)
    params = GameParams(types, 1.0, 0.4, BenefitSpec.log())
    prof = StrategyProfile.isolated(params)
    with pytest.raises(ValueError):
        perturbation_robustness(prof, params, 0.0, trials=1)

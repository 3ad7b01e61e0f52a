"""Core primitives: benefit families, isolation demands, utility, sampling."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from netpublic import (
    BenefitSpec,
    GameParams,
    StrategyProfile,
    TruncNormal,
    UNIFORM,
    best_response,
    find_profitable_deviation,
    isolation_demand,
    k_tilde,
    sample_types,
    spillovers,
    utility,
    welfare,
)
from netpublic.best_response import _responses
from netpublic.model import gross_value, normal_quantile, validate_types
from tests.conftest import BREADTHS, FAMILIES, pinned_breadth


# ----------------------------------------------------------------------
# benefit families
# ----------------------------------------------------------------------

def test_log_deriv_value():
    assert BenefitSpec.log().deriv(2.0) == pytest.approx(0.5, abs=1e-15)


def test_sqrt_deriv_inv_against_root_find():
    # independent oracle: solve f'(z) = 1 numerically
    spec = BenefitSpec.sqrt()
    root = optimize.brentq(lambda z: spec.deriv(z) - 1.0, 1e-9, 10.0)
    assert spec.deriv_inv(1.0) == pytest.approx(root, rel=1e-9)
    assert spec.deriv_inv(1.0) == pytest.approx(0.25, abs=1e-12)


def test_power_value_at_one():
    assert BenefitSpec.power(0.15).value(1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_deriv_positive_and_strictly_decreasing(spec):
    z = np.geomspace(1e-6, 1e6, 200)
    d = spec.deriv(z)
    assert np.all(d > 0)
    assert np.all(np.diff(d) < 0)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_slope_brackets_any_cost(spec):
    # unbounded marginal value at 0, vanishing at infinity
    assert spec.deriv(1e-12) > 100.0
    assert spec.deriv(1e12) < 1e-3


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.label())
def test_deriv_inv_is_inverse(spec):
    z = np.geomspace(1e-6, 1e6, 61)
    back = spec.deriv_inv(spec.deriv(z))
    assert np.max(np.abs(back - z) / z) < 1e-9


def test_log_value_at_zero_is_neg_inf():
    with np.errstate(divide="ignore"):
        assert BenefitSpec.log().value(0.0) == -math.inf


def test_log_zero_consumption_raises_no_runtime_warning():
    # log(0) = -inf is a valid value in the game: every array pass that can
    # reach it enters numpy's errstate once, so no RuntimeWarning escapes
    params = GameParams(np.array([0.0, 0.3, 0.7, 1.0]), 1.0, 0.3, BenefitSpec.log())
    zero = StrategyProfile(np.zeros(4), np.zeros(4), np.zeros((4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert utility(zero, 1, params) == -math.inf
        assert welfare(zero, params)[0] == -math.inf
        assert gross_value(params, np.arange(4), 0.0, 0.0, 0.0, 0.0)[1] == -math.inf
        assert np.isfinite(k_tilde(params))  # types 0 and 1 have a zero autarky good
        assert best_response(1, zero, params).utility > -math.inf
        assert find_profitable_deviation(zero, params).player == 0
        # either breadth, pinned through the kernel: every player escapes the
        # -inf of zero consumption, so player 0 deviates first in both
        state = zero.x[None], zero.y[None], zero.in_degree()[None]
        for search in BREADTHS:
            with pinned_breadth(search):
                best = _responses(np.arange(4), np.zeros(4, dtype=int), *state, params)[3]
            assert (best > -math.inf).all()


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        BenefitSpec("cubic")
    with pytest.raises(ValueError):
        BenefitSpec.power(1.0)


# ----------------------------------------------------------------------
# isolation demands
# ----------------------------------------------------------------------

def test_isolation_demand_corner_types():
    x_hat, y_hat = isolation_demand(0.0, 1.0, BenefitSpec.log())
    assert (x_hat, y_hat) == (0.0, 1.0)
    x_hat, y_hat = isolation_demand(1.0, 1.0, BenefitSpec.sqrt())
    assert x_hat == pytest.approx(0.25, abs=1e-12)
    assert y_hat == 0.0


def test_isolation_demand_matches_numeric_maximizer():
    # oracle: maximize t*f(x) - c*x directly
    for spec, t, c in [(BenefitSpec.log(), 0.5, 1.0), (BenefitSpec.sqrt(), 1.0, 1.0),
                       (BenefitSpec.power(0.3), 0.7, 0.8)]:
        res = optimize.minimize_scalar(
            lambda z: -(t * float(spec.value(z)) - c * z),
            bounds=(1e-9, 50.0), method="bounded",
            options={"xatol": 1e-12},
        )
        x_hat, _ = isolation_demand(t, c, spec)
        assert x_hat == pytest.approx(res.x, abs=1e-6)


def test_isolation_demand_monotone_in_type():
    t = np.linspace(0.01, 0.99, 50)
    for spec in FAMILIES:
        xs = [isolation_demand(v, 1.0, spec).x_hat for v in t]
        ys = [isolation_demand(v, 1.0, spec).y_hat for v in t]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert all(b < a for a, b in zip(ys, ys[1:]))


def test_total_demand_ordering_by_extremeness(rng):
    # more extreme tastes demand weakly more in total; 1000 pairs per family
    for spec in FAMILIES:
        pairs = rng.uniform(size=(1000, 2))
        for ti, tj in pairs:
            if max(ti, 1 - ti) < max(tj, 1 - tj):
                ti, tj = tj, ti
            di = sum(isolation_demand(ti, 1.0, spec))
            dj = sum(isolation_demand(tj, 1.0, spec))
            assert di >= dj - 1e-12


def test_log_total_demand_knife_edge(rng):
    # under log benefits total autarky demand is 1/c for every interior type
    for c in (0.5, 1.0, 2.5):
        for t in rng.uniform(0.01, 0.99, size=50):
            x_hat, y_hat = isolation_demand(float(t), c, BenefitSpec.log())
            assert x_hat + y_hat == pytest.approx(1.0 / c, abs=1e-12)


# ----------------------------------------------------------------------
# spillovers and utility
# ----------------------------------------------------------------------

def _three_player_params(k=0.4):
    return GameParams(np.array([0.0, 0.5, 1.0]), 1.0, k, BenefitSpec.log())


def test_spillovers_empty_single_additive():
    params = _three_player_params()
    prof = StrategyProfile.isolated(params)
    assert spillovers(prof, 1) == (0.0, 0.0)
    prof.g[1, 2] = 1
    prof.x[2], prof.y[2] = 1.0, 0.5
    assert spillovers(prof, 1) == (1.0, 0.5)
    prof.g[1, 0] = 1
    prof.x[0], prof.y[0] = 1.0, 0.0
    assert spillovers(prof, 1)[0] == pytest.approx(2.0)


def test_utility_isolated_midtype():
    params = _three_player_params()
    prof = StrategyProfile.isolated(params)
    assert utility(prof, 1, params) == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)


def test_utility_corner_type_drops_zero_weight_good():
    params = _three_player_params()
    prof = StrategyProfile.isolated(params)
    prof.x[2], prof.y[2] = 1.0, 0.0
    assert utility(prof, 2, params) == pytest.approx(-1.0, abs=1e-12)
    # a link with no extra spillovers just costs its fee
    prof.g[2, 0] = 1
    prof.x[0], prof.y[0] = 0.0, 1.0  # good y carries zero weight for player 2
    assert utility(prof, 2, params) == pytest.approx(-1.4, abs=1e-12)


def test_utility_neg_inf_on_zero_consumption_log():
    params = _three_player_params()
    prof = StrategyProfile.isolated(params)
    prof.x[1] = 0.0
    assert utility(prof, 1, params) == -math.inf


def test_utility_midpoint_concavity(rng):
    params = _three_player_params()
    for _ in range(80):
        a = rng.uniform(0.01, 2.0, size=2)
        b = rng.uniform(0.01, 2.0, size=2)
        mid = 0.5 * (a + b)
        us = []
        for pt in (a, mid, b):
            prof = StrategyProfile.isolated(params)
            prof.x[1], prof.y[1] = pt
            us.append(utility(prof, 1, params))
        assert us[1] >= 0.5 * (us[0] + us[2]) - 1e-12


# ----------------------------------------------------------------------
# type sampling
# ----------------------------------------------------------------------

def test_sample_types_shape_and_bounds():
    t = sample_types(UNIFORM, 3, seed=5)
    assert t[0] == 0.0 and t[-1] == 1.0 and 0.0 < t[1] < 1.0
    t = sample_types(UNIFORM, 40, seed=5)
    assert t.size == 40
    assert np.all(np.diff(t) > 0)


def test_sample_types_deterministic():
    a = sample_types(TruncNormal(0.5, 1.0), 25, seed=99)
    b = sample_types(TruncNormal(0.5, 1.0), 25, seed=99)
    assert np.array_equal(a, b)
    c = sample_types(TruncNormal(0.5, 1.0), 25, seed=100)
    assert not np.array_equal(a, c)


def test_sample_types_rejects_small_n():
    with pytest.raises(ValueError):
        sample_types(UNIFORM, 2, seed=0)


def test_truncnormal_rejects_bad_parameters():
    # a NaN parameter made every draw fall outside (0, 1), so sampling hung
    for mean, sd in ((0.5, 0.0), (float("nan"), 1.0), (0.5, float("nan")), (0.5, float("inf")),
                     (float("inf"), 1.0)):
        with pytest.raises(ValueError):
            TruncNormal(mean, sd)


def test_truncnormal_mean_against_quadrature():
    dist = TruncNormal(0.3, 0.4)
    # oracle: moments of the truncated density by quadrature
    pdf = lambda t: math.exp(-0.5 * ((t - dist.mean) / dist.sd) ** 2)
    mass, _ = integrate.quad(pdf, 0.0, 1.0)
    mean, _ = integrate.quad(lambda t: t * pdf(t), 0.0, 1.0)
    expected = mean / mass
    draws = sample_types(dist, 1000, seed=3)[1:-1]
    assert abs(draws.mean() - expected) < 0.05


def test_normal_quantile_accuracy():
    p = np.linspace(1e-6, 1 - 1e-6, 501)
    ours = np.array([normal_quantile(v) for v in p])
    ref = stats.norm.ppf(p)
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_validate_types_rejects_bad_vectors():
    with pytest.raises(ValueError):
        validate_types(np.array([0.0, 0.5, 0.9]))
    with pytest.raises(ValueError):
        validate_types(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        validate_types(np.array([0.0, 0.5, 0.5, 1.0]))


def test_game_params_validation():
    with pytest.raises(ValueError):
        GameParams(np.array([0.0, 0.5, 1.0]), -1.0, 0.4, BenefitSpec.log())
    with pytest.raises(ValueError):
        GameParams(np.array([0.0, 0.5, 1.0]), 1.0, 0.0, BenefitSpec.log())
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GameParams(np.array([0.0, 0.5, 1.0]), 1.0, bad, BenefitSpec.log())
        with pytest.raises(ValueError):
            GameParams(np.array([0.0, 0.5, 1.0]), bad, 0.4, BenefitSpec.log())
    params = _three_player_params()
    with pytest.raises(ValueError):
        params.with_costs(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        params.with_costs(np.array([1.0, float("nan"), 1.0]))


def test_profile_rejects_non_finite_contributions():
    # NaN fails every comparison, so a sign test alone let it through, and
    # verify_nash then certified such profiles
    params = GameParams(np.array([0.0, 0.3, 0.7, 1.0]), 1.0, 0.2, BenefitSpec.log())
    g = np.zeros((4, 4), dtype=np.int8)
    with pytest.raises(ValueError, match="finite"):
        StrategyProfile(np.full(4, np.nan), np.full(4, np.nan), g)
    for bad in (np.nan, np.inf, -np.inf):
        x = params.x_hat.copy()
        x[1] = bad
        with pytest.raises(ValueError, match="finite"):
            StrategyProfile(x, params.y_hat.copy(), g)
        y = params.y_hat.copy()
        y[2] = bad
        with pytest.raises(ValueError, match="finite"):
            StrategyProfile(params.x_hat.copy(), y, g)

"""Equilibrium construction, verification, classification, and the oracle."""

import hashlib
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from netpublic import (
    EPS_DEV,
    BenefitSpec,
    Deviation,
    DynamicsConfig,
    EquilibriumReport,
    GameParams,
    NonConvergenceError,
    StrategyProfile,
    TruncNormal,
    UNIFORM,
    best_response_dynamics,
    brute_force_equilibria,
    classify,
    construct_collaborative,
    construct_independent,
    construct_partially_collaborative,
    best_response,
    contribution_fixed_point,
    find_profitable_deviation,
    k_tilde,
    optimal_contributions,
    sample_types,
    verify_nash,
    utility,
    welfare_max_equilibria,
    welfare_max_equilibrium,
)
from netpublic import equilibrium as eq
from netpublic.metrics import welfare
from netpublic.model import _GameStack
from tests.conftest import BREADTHS, FAMILIES, criterion_1_games, random_scenario, random_types

# the module; the package attribute of this name is the function
br_module = importlib.import_module("netpublic.best_response")


def _params(types, c=1.0, k=0.4, spec=None):
    return GameParams(np.asarray(types, float), c, k, spec or BenefitSpec.log())


# ----------------------------------------------------------------------
# the empty-network threshold
# ----------------------------------------------------------------------

def _oracle_pair_gain(params, i, j):
    """Independent route: numerically re-optimize i's bundle with and without
    access to j's isolation provision."""
    spec = params.benefit
    t = params.types[i]

    def gross(spill_x, spill_y):
        def neg(z):
            x, y = np.exp(z)  # positivity via log transform
            bx = t * float(spec.value(x + spill_x)) if t > 0 else 0.0
            by = (1 - t) * float(spec.value(y + spill_y)) if t < 1 else 0.0
            return -(bx + by - params.c * (x + y))

        res = optimize.minimize(neg, x0=np.log([0.3, 0.3]), method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        best = -res.fun
        # allow corners: dropping a good entirely
        for corner in ((0.0, None), (None, 0.0), (0.0, 0.0)):
            def neg1(z, corner=corner):
                x = corner[0] if corner[0] is not None else float(np.exp(z[0]))
                y = corner[1] if corner[1] is not None else float(np.exp(z[0]))
                if corner[0] is None and corner[1] is None:
                    return 0.0
                bx = t * float(spec.value(x + spill_x)) if t > 0 else 0.0
                by = (1 - t) * float(spec.value(y + spill_y)) if t < 1 else 0.0
                return -(bx + by - params.c * (x + y))

            if corner == (0.0, 0.0):
                bx = t * float(spec.value(spill_x)) if t > 0 else 0.0
                by = (1 - t) * float(spec.value(spill_y)) if t < 1 else 0.0
                best = max(best, bx + by)
            else:
                res1 = optimize.minimize_scalar(
                    lambda v: neg1([v]), bounds=(-25, 10), method="bounded",
                    options={"xatol": 1e-13})
                best = max(best, -res1.fun)
        return best

    return gross(params.x_hat[j], params.y_hat[j]) - gross(0.0, 0.0)


def test_k_tilde_small_game_matches_enumerated_gains():
    params = _params([0.0, 0.5, 1.0], spec=BenefitSpec.sqrt())
    gains = [
        _oracle_pair_gain(params, i, j)
        for i, j in itertools.permutations(range(3), 2)
    ]
    assert k_tilde(params) == pytest.approx(max(gains), abs=1e-7)


def test_k_tilde_equals_best_pairwise_gain(rng):
    # dual route: the threshold is the max of gains_from_link over ordered
    # pairs on the empty profile
    for _ in range(8):
        params = random_scenario(rng, 6)
        prof = StrategyProfile.isolated(params)
        from netpublic import gains_from_link

        best = max(
            gains_from_link(prof, i, j, "add", params)
            for i in range(6)
            for j in range(6)
            if i != j
        )
        assert k_tilde(params) == pytest.approx(best, abs=1e-12)


def test_isolated_pair_gain_closed_form(rng):
    # saved provision capped at the provider's supply plus the benefit jump on
    # any good the provider out-supplies
    from netpublic import gains_from_link

    for _ in range(20):
        params = random_scenario(rng, 5)
        prof = StrategyProfile.isolated(params)
        i, j = (int(v) for v in rng.choice(5, size=2, replace=False))
        t = params.types[i]
        spec = params.benefit
        expected = params.cost_vec[i] * (
            min(params.x_hat[i], params.x_hat[j]) + min(params.y_hat[i], params.y_hat[j])
        )
        if t > 0 and params.x_hat[j] > params.x_hat[i]:
            expected += t * float(spec.value(params.x_hat[j]) - spec.value(params.x_hat[i]))
        if t < 1 and params.y_hat[j] > params.y_hat[i]:
            expected += (1 - t) * float(
                spec.value(params.y_hat[j]) - spec.value(params.y_hat[i])
            )
        assert gains_from_link(prof, i, j, "add", params) == pytest.approx(
            expected, abs=1e-10
        )


def test_k_tilde_dense_log_society():
    types = sample_types(UNIFORM, 200, seed=7)
    params = GameParams(types, 1.0, 0.5, BenefitSpec.log())
    kt = k_tilde(params)
    assert 0.99 <= kt <= 1.0


def _gl_to_provider_reference(p, x_prov, y_prov, params):
    """The scalar link gain the broadcasting one replaced."""
    t = params.types[p]
    spec = params.benefit
    xh = params.x_hat[p]
    yh = params.y_hat[p]
    gain = params.cost_vec[p] * (min(xh, x_prov) + min(yh, y_prov))
    with np.errstate(divide="ignore"):  # log(0) = -inf, as the program reads it
        if t > 0.0 and x_prov > xh:
            gain += t * float(spec.value(x_prov) - spec.value(xh))
        if t < 1.0 and y_prov > yh:
            gain += (1.0 - t) * float(spec.value(y_prov) - spec.value(yh))
    return gain


def _gl_matrix_reference(params):
    """The empty-network gain matrix k_tilde used to take its maximum of."""
    xh, yh = params.x_hat, params.y_hat
    t = params.types
    spec = params.benefit
    with np.errstate(divide="ignore"):
        fx = spec.value(xh)
        fy = spec.value(yh)
    ci = params.cost_vec[:, None]
    save = ci * (np.minimum.outer(xh, xh) + np.minimum.outer(yh, yh))
    with np.errstate(invalid="ignore"):
        gain_x = np.where(
            t[:, None] > 0.0, t[:, None] * np.maximum(fx[None, :] - fx[:, None], 0.0), 0.0
        )
        gain_y = np.where(
            t[:, None] < 1.0, (1.0 - t[:, None]) * np.maximum(fy[None, :] - fy[:, None], 0.0), 0.0
        )
    gl = save + gain_x + gain_y
    np.fill_diagonal(gl, -np.inf)
    return gl


def _anchored_start_reference(params, quantile):
    """Player-by-player loop the array pass replaced."""
    prof = StrategyProfile.isolated(params)
    anchor = int(np.argmin(np.abs(params.types - quantile)))
    xa, ya = params.x_hat[anchor], params.y_hat[anchor]
    for p in range(params.n):
        if p != anchor and _gl_to_provider_reference(p, xa, ya, params) >= params.k:
            prof.set_strategy(p, [anchor], *optimal_contributions(p, [anchor], prof, params))
    return prof


def _anchored_start_per_anchor(params, quantile):
    """One anchor's array pass, as the starts were built before all seven
    came from one pass."""
    prof = StrategyProfile.isolated(params)
    anchor = int(np.argmin(np.abs(params.types - quantile)))
    others = np.flatnonzero(np.arange(params.n) != anchor)
    gains = eq._link_gain(others, params.x_hat[anchor], params.y_hat[anchor], params)
    join = others[gains >= params.k]
    prof.g[join, anchor] = 1
    eq._top_up_links(prof, join, params)
    return prof


def _anchored_profiles(params):
    """The seven anchored starts as profiles, quantiles 1/8 .. 7/8."""
    X, Y, G = eq._anchored_starts(params)
    return [StrategyProfile(x, y, g) for x, y, g in zip(X, Y, G)]


def _greedy_independent_reference(params):
    """Player-by-player greedy pass the per-anchor array passes replaced."""
    n = params.n
    prof = StrategyProfile.isolated(params)
    if params.k > float(np.max(_gl_matrix_reference(params))):
        return prof
    lo, hi = 0, n - 1
    prof.x[hi], prof.y[hi] = params.x_hat[hi], 0.0
    prof.x[lo], prof.y[lo] = 0.0, params.y_hat[lo]
    attached = np.zeros(n, dtype=bool)
    attached[[lo, hi]] = True
    processed = attached.copy()
    for p in range(1, n - 1):
        targets = []
        if _gl_to_provider_reference(p, params.x_hat[hi], 0.0, params) >= params.k:
            targets.append(hi)
        if _gl_to_provider_reference(p, 0.0, params.y_hat[lo], params) >= params.k:
            targets.append(lo)
        if targets:
            prof.set_strategy(p, targets, *optimal_contributions(p, targets, prof, params))
            attached[p] = True
    extremeness = np.maximum(params.types, 1.0 - params.types)
    while True:
        pending = np.flatnonzero(~attached & ~processed)
        if pending.size == 0:
            return prof
        anchor = int(pending[np.argmax(extremeness[pending])])
        processed[anchor] = True
        prof.x[anchor], prof.y[anchor] = params.x_hat[anchor], params.y_hat[anchor]
        for j in np.flatnonzero(~attached & ~processed).tolist():
            if _gl_to_provider_reference(j, prof.x[anchor], prof.y[anchor], params) >= params.k:
                prof.set_strategy(j, [anchor], *optimal_contributions(j, [anchor], prof, params))
                attached[j] = True


def _gain_games():
    """Random games of every family at n = 3..60, some with per-player costs,
    some with k above the threshold and some with k equal to a link gain;
    mirror-image societies; then the three shipped configs' games at their
    k values."""
    rng = np.random.default_rng(606)
    games = []
    for trial in range(36):
        n = int(rng.integers(3, 61))
        spec = FAMILIES[trial % len(FAMILIES)]
        c = float(rng.uniform(0.5, 2.0))
        costs = c * rng.uniform(0.2, 1.0, n) if trial % 4 == 3 else None
        probe = GameParams(random_types(rng, n), c, 1.0, spec, costs)
        games.append(probe.with_k(float(rng.uniform(0.02, 1.2)) * k_tilde(probe)))
        if trial % 6 == 0:
            # k equal to a gain, from the mid-type anchor or the largest one:
            # a link that exactly covers its fee is taken
            anchor = int(np.argmin(np.abs(probe.types - 0.5)))
            p = (anchor + 1) % n
            games.append(probe.with_k(_gl_to_provider_reference(
                p, probe.x_hat[anchor], probe.y_hat[anchor], probe)))
            games.append(probe.with_k(k_tilde(probe)))
    # mirror-image types tie in extremeness; the lower index anchors first
    for mirrored in ([0.0, 0.25, 0.375, 0.625, 0.75, 1.0],
                     [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]):
        for spec in FAMILIES:
            probe = GameParams(np.array(mirrored), 1.0, 1.0, spec)
            games.extend(probe.with_k(u * k_tilde(probe)) for u in (0.5, 0.93, 0.976, 1.0))
    shipped = (
        (UNIFORM, 200, 7, 1.0, BenefitSpec.log(), (0.5, 0.98, 0.994)),
        (TruncNormal(0.5, 1.0), 300, 11, 1e-5, BenefitSpec.power(0.15), (0.676, 0.677, 0.78, 0.82)),
        (UNIFORM, 10, 24, 1.0, BenefitSpec.log(), (0.9,)),
    )
    for dist, n, seed, c, spec, ks in shipped:
        types = sample_types(dist, n, seed)
        games.extend(GameParams(types, c, k, spec) for k in ks)
    return games


def test_link_gain_matches_scalar_and_matrix_references():
    rng = np.random.default_rng(607)
    for params in _gain_games():
        n = params.n
        rows = np.arange(n)[:, None]
        want = _gl_matrix_reference(params)
        assert k_tilde(params) == float(np.max(want))
        got = eq._link_gain(rows, params.x_hat, params.y_hat, params)
        np.fill_diagonal(got, -np.inf)
        assert np.array_equal(got, want)
        # the provider bundles the constructors offer: autarky, specialized
        # in one good, and arbitrary ones with zeros
        zeros = np.zeros(n)
        x_any = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8) * params.x_hat.max()
        y_any = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8) * params.y_hat.max()
        for xp, yp in ((params.x_hat, params.y_hat), (params.x_hat, zeros), (zeros, params.y_hat),
                       (x_any, y_any)):
            got = eq._link_gain(rows, xp, yp, params)
            pick = rng.choice(n, size=min(n, 12), replace=False)
            want = [[_gl_to_provider_reference(i, xp[j], yp[j], params) for j in range(n)]
                    for i in pick]
            assert np.array_equal(got[pick], want)
            assert all(eq._link_gain(int(i), xp[j], yp[j], params) == got[i, j]
                       for i, j in zip(pick, rng.integers(0, n, pick.size)))


def _moderate_pairs(params):
    """The players above and below 1/2, each side in ascending distance from
    1/2 (stable), cut to the 12 nearest a side when n > 25: the two-player
    cores the welfare-max search once tried as templates."""
    t = params.types
    order = np.argsort(np.abs(t - 0.5), kind="stable")
    above, below = order[t[order] > 0.5], order[t[order] < 0.5]
    if params.n > 25:
        above, below = above[:12], below[:12]
    return above, below


def test_template_pay_check_matches_scalar_reference():
    # the pre-checks the two-player-core builders made one pair at a time
    for params in _gain_games():
        above, below = _moderate_pairs(params)
        partial, collaborative = eq._core_links_pay(params, above[:, None], below)
        for r, a in enumerate(above.tolist()):
            for s, b in enumerate(below.tolist()):
                xa, ya, yb = params.x_hat[a], params.y_hat[a], params.y_hat[b]
                want_partial = not (
                    params.cost_vec[0] * (yb - ya) < params.k
                    or _gl_to_provider_reference(b, xa, ya, params) < params.k
                )
                want_collaborative = not (
                    _gl_to_provider_reference(b, xa, 0.0, params) < params.k
                    or _gl_to_provider_reference(a, 0.0, yb, params) < params.k
                )
                assert partial[r, s] == want_partial, (a, b)
                assert collaborative[r, s] == want_collaborative, (a, b)
                assert eq._core_links_pay(params, a, b)[1] == want_collaborative


def test_array_constructors_match_reference_loops():
    for params in _gain_games():
        pairs = [(eq._greedy_independent(params), _greedy_independent_reference(params))]
        anchored = _anchored_profiles(params)
        pairs += [(anchored[s - 1], _anchored_start_reference(params, s / 8)) for s in range(1, 8)]
        for got, want in pairs:
            assert np.array_equal(got.g, want.g)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)
        # all seven starts in one pass, byte for byte as one pass per anchor
        for s, got in enumerate(anchored, start=1):
            want = _anchored_start_per_anchor(params, s / 8)
            assert got.g.tobytes() == want.g.tobytes()
            assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


def test_empty_profile_is_nash_above_threshold():
    types = sample_types(UNIFORM, 30, seed=2)
    probe = GameParams(types, 1.0, 1.0, BenefitSpec.log())
    params = probe.with_k(k_tilde(probe) + 0.01)
    report = verify_nash(StrategyProfile.isolated(params), params)
    assert report.classification == "Empty"
    assert not report.violations


def test_welfare_max_and_verify_nash_take_no_search_argument_at_n_20():
    # the breadth follows from n: at n = 20 it is structural, where the
    # exact default these calls once had raised ValueError above n = 16
    probe = GameParams(sample_types(UNIFORM, 20, seed=3), 1.0, 1.0, BenefitSpec.log())
    params = probe.with_k(0.5 * k_tilde(probe))
    prof, report = welfare_max_equilibrium(params)
    assert report.classification in ("Independent", "Collaborative", "PartiallyCollaborative")
    again = verify_nash(prof, params)
    assert (again.classification, again.contributors) == (report.classification,
                                                          report.contributors)
    below = verify_nash(StrategyProfile.isolated(params), params)
    assert below.classification == "NonEquilibrium" and below.violations


# ----------------------------------------------------------------------
# independent construction
# ----------------------------------------------------------------------

def test_construct_independent_above_threshold_is_empty():
    params = _params([0.0, 0.3, 0.7, 1.0], k=2.0)
    prof = construct_independent(params)
    assert prof.g.sum() == 0
    assert np.array_equal(prof.x, params.x_hat)
    assert np.array_equal(prof.y, params.y_hat)


def test_construct_independent_low_cost_two_extreme_contributors():
    types = sample_types(UNIFORM, 200, seed=7)
    params = GameParams(types, 1.0, 0.5, BenefitSpec.log())
    prof = construct_independent(params)
    report = verify_nash(prof, params)
    assert report.classification == "Independent"
    assert report.contributors == (0, 199)
    assert not report.isolated


def test_construct_independent_intermediate_cost_many_contributors():
    types = sample_types(UNIFORM, 200, seed=7)
    params = GameParams(types, 1.0, 0.98, BenefitSpec.log())
    prof = construct_independent(params)
    report = verify_nash(prof, params)
    assert report.classification == "Independent"
    assert len(report.contributors) >= 3
    # disjoint neighborhoods: every sponsor carries exactly one link
    outdeg = prof.out_degree()
    for p in report.periphery:
        assert outdeg[p] == 1


def test_construct_independent_is_nash_across_scenarios(rng):
    for _ in range(15):
        params = random_scenario(rng, int(rng.integers(4, 13)))
        prof = construct_independent(params)
        assert find_profitable_deviation(prof, params) is None


# ----------------------------------------------------------------------
# two-player-core templates
# ----------------------------------------------------------------------

def test_collaborative_template_above_threshold_is_none():
    params = _params([0.0, 0.4, 0.6, 1.0], k=2.0)
    assert construct_collaborative(params, 2, 1) is None


def test_collaborative_template_moderate_pair_exists():
    types = np.linspace(0.0, 1.0, 21)
    params = GameParams(types, 1.0, 0.4, BenefitSpec.log())
    built = [
        construct_collaborative(params, i, j)
        for i in (11, 12, 13, 14, 15)
        for j in (5, 6, 7, 8, 9)
    ]
    profiles = [p for p in built if p is not None]
    assert profiles, "no collaborative equilibrium found at the reference parameters"
    for prof in profiles:
        rep = verify_nash(prof, params)
        assert rep.classification == "Collaborative"
        assert len(rep.contributors) == 2


def test_collaborative_extreme_pair_degenerates():
    params = _params([0.0, 0.4, 0.6, 1.0], k=0.4)
    assert construct_collaborative(params, 3, 0) is None


def test_partially_collaborative_template_exists_and_has_no_isolated():
    types = np.linspace(0.0, 1.0, 21)
    params = GameParams(types, 1.0, 0.4, BenefitSpec.log())
    found = None
    for a in range(14, 18):
        for b in range(3, 7):
            prof = construct_partially_collaborative(params, a, b)
            if prof is not None:
                found = prof
                break
        if found is not None:
            break
    assert found is not None
    rep = verify_nash(found, params)
    assert rep.classification == "PartiallyCollaborative"
    assert len(rep.contributors) == 2
    assert not rep.isolated  # collaborative cores leave nobody isolated


def test_partially_collaborative_above_threshold_is_none():
    params = _params([0.0, 0.4, 0.6, 1.0], k=2.0)
    assert construct_partially_collaborative(params, 2, 1) is None


def test_partially_collaborative_rejected_when_sponsor_core_unattractive():
    # strongly concave benefits: the free-riding core player tops up so little
    # that nobody gains enough from linking them
    params = _params([0.0, 0.35, 0.65, 1.0], k=0.3, spec=BenefitSpec.sqrt())
    a, b = 2, 1
    gap = params.y_hat[b] - params.y_hat[a]
    assert params.c * gap < params.k
    assert construct_partially_collaborative(params, a, b) is None


def test_template_preconditions():
    params = _params([0.0, 0.4, 0.6, 1.0])
    with pytest.raises(ValueError):
        construct_collaborative(params, 1, 2)
    with pytest.raises(ValueError):
        construct_partially_collaborative(params, 1, 2)


def _attach_to_core_reference(prof, core, params):
    """Player-by-player loop over link options, the rule the array pass keeps."""
    core_set = set(core)
    options = []
    for r in range(len(core) + 1):
        options.extend(itertools.combinations(sorted(core_set), r))
    for p in range(params.n):
        if p in core_set:
            continue
        best_u, best_links, best_xy = -np.inf, (), (params.x_hat[p], params.y_hat[p])
        for links in options:
            x_bar = float(prof.x[list(links)].sum())
            y_bar = float(prof.y[list(links)].sum())
            xi = max(params.x_hat[p] - x_bar, 0.0)
            yi = max(params.y_hat[p] - y_bar, 0.0)
            t = params.types[p]
            spec = params.benefit
            bx = t * float(spec.value(xi + x_bar)) if t > 0.0 else 0.0
            by = (1.0 - t) * float(spec.value(yi + y_bar)) if t < 1.0 else 0.0
            u = bx + by - params.cost_vec[p] * (xi + yi) - params.k * len(links)
            if u > best_u + EPS_DEV:
                best_u, best_links, best_xy = u, links, (xi, yi)
        prof.set_strategy(p, list(best_links), *best_xy)


@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_attach_to_core_matches_reference_loop(family):
    rng = np.random.default_rng(100 + family)
    for trial in range(40):
        n = int(rng.integers(4, 12))
        types = random_types(rng, n)
        c = float(rng.uniform(0.5, 2.0))
        params = GameParams(types, c, 1.0, FAMILIES[family])
        params = params.with_k(float(rng.uniform(0.02, 1.2)) * k_tilde(params))
        core = tuple(sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()))
        # random contributions and links everywhere, with some core players
        # providing nothing of a good, so t = 0 / t = 1 players can meet zero
        # consumption of the good they ignore
        x = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
        y = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
        g = (rng.random((n, n)) < 0.3).astype(np.int8)
        np.fill_diagonal(g, 0)
        start = StrategyProfile(x, y, g)
        want, got = start.copy(), start.copy()
        _attach_to_core_reference(want, core, params)
        outside = np.setdiff1d(np.arange(n), core)
        links = eq._attach_to_core(got.x, got.y, core, params)
        got.g[outside] = links[outside]
        assert np.array_equal(got.g, want.g), (trial, core)
        assert np.array_equal(got.x, want.x), (trial, core)
        assert np.array_equal(got.y, want.y), (trial, core)


# ----------------------------------------------------------------------
# contribution fixed point
# ----------------------------------------------------------------------

def test_fixed_point_empty_graph():
    params = _params([0.0, 0.25, 0.75, 1.0])
    x, y = contribution_fixed_point(np.zeros((4, 4), dtype=int), params)
    assert np.allclose(x, params.x_hat, atol=1e-12)
    assert np.allclose(y, params.y_hat, atol=1e-12)


def test_fixed_point_star_into_top_type():
    params = _params([0.0, 0.25, 0.75, 1.0])
    g = np.zeros((4, 4), dtype=int)
    g[[0, 1, 2], 3] = 1
    x, y = contribution_fixed_point(g, params)
    assert x[3] == pytest.approx(params.x_hat[3], abs=1e-9)
    assert y[3] == 0.0
    for i in range(3):
        assert x[i] == pytest.approx(max(params.x_hat[i] - x[3], 0.0), abs=1e-9)
        assert y[i] == pytest.approx(params.y_hat[i], abs=1e-9)


def test_fixed_point_mutual_moderates_satisfies_floor():
    params = _params([0.0, 0.45, 0.55, 1.0])
    g = np.zeros((4, 4), dtype=int)
    g[1, 2] = g[2, 1] = 1
    x, y = contribution_fixed_point(g, params)
    prof = StrategyProfile(x, y, g)
    cons_x, cons_y = prof.consumption()
    for i in (1, 2):
        assert cons_x[i] >= params.x_hat[i] - 1e-9
        assert cons_y[i] >= params.y_hat[i] - 1e-9
        if x[i] > 0:
            assert cons_x[i] == pytest.approx(params.x_hat[i], abs=1e-9)
        if y[i] > 0:
            assert cons_y[i] == pytest.approx(params.y_hat[i], abs=1e-9)


# ----------------------------------------------------------------------
# verification and classification
# ----------------------------------------------------------------------

def test_verify_nash_flags_empty_profile_below_threshold():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    report = verify_nash(StrategyProfile.isolated(params), params)
    assert report.classification == "NonEquilibrium"
    assert report.violations


def test_verify_nash_flags_consumption_floor_violation():
    params = _params([0.0, 0.5, 1.0], k=5.0)
    prof = StrategyProfile.isolated(params)
    prof.x[1] = 0.1  # below autarky demand
    report = verify_nash(prof, params)
    assert report.classification == "NonEquilibrium"


def _shape(n, links):
    g = np.zeros((n, n), dtype=int)
    for i, j in links:
        g[i, j] = 1
    return StrategyProfile(np.ones(n), np.ones(n), g)


def test_classify_shapes():
    assert classify(_shape(4, [])).classification == "Empty"
    assert classify(_shape(4, [(1, 0), (2, 3)])).classification == "Independent"
    assert classify(_shape(4, [(0, 1), (1, 0), (2, 0), (3, 1)])).classification == "Collaborative"
    assert classify(_shape(4, [(0, 1), (2, 0), (2, 1), (3, 1)])).classification == "PartiallyCollaborative"
    report = classify(_shape(4, [(1, 0), (2, 1), (0, 2), (3, 0)]))
    assert report.classification == "StructureViolation"  # 3 contributors with core links
    report = classify(_shape(5, [(3, 0), (3, 1), (4, 2)]))
    assert report.classification == "StructureViolation"  # two links with |C| >= 3
    assert "sponsor" in report.note


def test_classify_partition():
    report = classify(_shape(5, [(1, 0), (2, 0), (3, 4)]))
    assert report.contributors == (0, 4)
    assert report.periphery == (1, 2, 3)
    assert report.isolated == ()


# ----------------------------------------------------------------------
# dynamics and the welfare-maximal equilibrium
# ----------------------------------------------------------------------

def test_dynamics_config_rejects_unknown_order():
    with pytest.raises(ValueError, match="order"):
        DynamicsConfig(order="randm_permutation")
    with pytest.raises(ValueError, match="max_rounds"):
        DynamicsConfig(max_rounds=0)


def test_dynamics_fixed_at_nash():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    prof, _ = welfare_max_equilibrium(params)
    out = best_response_dynamics(prof, params, DynamicsConfig())
    assert np.array_equal(out.g, prof.g)
    assert np.allclose(out.x, prof.x, atol=1e-12)


def test_dynamics_from_empty_reaches_nash(rng):
    for _ in range(6):
        params = random_scenario(rng, 8, k_span=(0.05, 0.9))
        out = best_response_dynamics(
            StrategyProfile.isolated(params), params,
            DynamicsConfig(order="random_permutation", seed=1),
        )
        assert out.g.sum() > 0
        assert find_profitable_deviation(out, params) is None


def test_dynamics_seeds_may_disagree_but_both_verify():
    types = np.linspace(0.0, 1.0, 9)
    params = GameParams(types, 1.0, 0.6, BenefitSpec.log())
    outs = []
    for seed in (3, 4):
        out = best_response_dynamics(
            StrategyProfile.isolated(params), params,
            DynamicsConfig(order="random_permutation", seed=seed),
        )
        assert find_profitable_deviation(out, params) is None
        outs.append(out)
    # multiplicity is allowed; stability of both is what matters
    assert all(o.g.sum() > 0 for o in outs)


def _dynamics_reference(start, params, config):
    """The per-player loop best_response_dynamics ran before batching;
    None where the round budget runs out."""
    prof = start.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    for _ in range(config.max_rounds):
        if config.order == "random_permutation":
            order = rng.permutation(params.n)
        else:
            order = np.arange(params.n)
        changed = False
        for i in order:
            i = int(i)
            current = utility(prof, i, params)
            br = best_response(i, prof, params)
            if br.utility > current + EPS_DEV:
                prof.set_strategy(i, br.links, br.x, br.y)
                changed = True
        if not changed:
            return prof
    return None


def _dynamics_games():
    """18 seeded games, the three families in rotation: n = 3..12, where the
    search is exact, and n = 17..40, where it is structural."""
    rng = np.random.default_rng(20261019)
    games = []
    for idx in range(18):
        n = 3 + idx if idx < 10 else 17 + (idx - 10) * 23 // 7
        types = random_types(rng, n)
        probe = GameParams(types, float(rng.uniform(0.5, 2.0)), 1.0, FAMILIES[idx % 3])
        games.append(probe.with_k(float(rng.uniform(0.05, 0.9)) * k_tilde(probe)))
    return games


def _dense_start(params):
    """Everyone at autarky, with about 40 % of all links in place: most
    players receive links, so structural candidate sets are large."""
    rng = np.random.default_rng(params.n)
    g = (rng.random((params.n, params.n)) < 0.4).astype(np.int8)
    np.fill_diagonal(g, 0)
    return StrategyProfile(params.x_hat.copy(), params.y_hat.copy(), g)


def _run_dynamics(starts, games, configs):
    """_dynamics on stacked copies of the starts, row r playing games[r] (the
    distinct games, by identity, stacked in order of first use): each row's
    profile where it settled, None where it ran out of rounds."""
    X = np.array([s.x for s in starts])
    Y = np.array([s.y for s in starts])
    G = np.array([s.g for s in starts])
    index: dict[int, int] = {}
    game = np.array([index.setdefault(id(g), len(index)) for g in games])
    stack = _GameStack.of(list({id(g): g for g in games}.values()))
    settled = eq._dynamics(stack, game, X, Y, G, configs)
    return [StrategyProfile(x, y, g) if ok else None for x, y, g, ok in zip(X, Y, G, settled)]


def _assert_same_runs(got, want):
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if w is not None:
            assert g.g.tobytes() == w.g.tobytes()
            assert g.x.tobytes() == w.x.tobytes() and g.y.tobytes() == w.y.tobytes()


@pytest.mark.parametrize("game", range(18))
def test_lockstep_dynamics_matches_sequential(game):
    params = _dynamics_games()[game]
    # starts whose receiver counts range from none to most players
    anchored = _anchored_profiles(params)
    starts = [
        StrategyProfile.isolated(params),
        anchored[1],  # quantile 0.25
        anchored[3],
        anchored[5],
        eq._greedy_independent(params),
        _dense_start(params),
    ]
    batch, configs = [], []
    for s, start in enumerate(starts):
        for order in ("round_robin", "random_permutation"):
            batch.append(start)
            configs.append(DynamicsConfig(max_rounds=60, order=order, seed=s))
    # one-round budgets: every start that moves at all runs out
    empty_one_round = len(batch)
    for s in (0, 4):
        batch.append(starts[s])
        configs.append(DynamicsConfig(max_rounds=1, order="random_permutation", seed=s))
    got = _run_dynamics(batch, [params] * len(batch), configs)
    want = [_dynamics_reference(start, params, config) for start, config in zip(batch, configs)]
    _assert_same_runs(got, want)
    # below the threshold someone links from the empty network
    assert want[empty_one_round] is None
    for start, config, w in zip(batch, configs, want):
        if w is None:
            with pytest.raises(NonConvergenceError):
                best_response_dynamics(start, params, config)
        else:
            assert best_response_dynamics(start, params, config).x.tobytes() == w.x.tobytes()
    # the batch works on copies
    assert starts[0].g.sum() == 0 and np.array_equal(starts[0].x, params.x_hat)

    # a row at an equilibrium next to an isolated row: each row keeps its
    # own windows, so the settled row's widths double while the isolated
    # row's players move
    batch, configs = [], []
    if want[0] is not None:
        batch += [want[0], StrategyProfile.isolated(params)]
        configs += [DynamicsConfig(max_rounds=60, order="random_permutation", seed=5),
                    DynamicsConfig(max_rounds=60, order="round_robin")]
    got = _run_dynamics(batch, [params] * len(batch), configs)
    want = [_dynamics_reference(start, params, config) for start, config in zip(batch, configs)]
    _assert_same_runs(got, want)
    for start, g in zip(batch[::2], got[::2]):
        assert g.g.tobytes() == start.g.tobytes() and g.x.tobytes() == start.x.tobytes()

    # rows of two games in one batch, with the same seeds: a second game on
    # the same society with other per-player costs and another k; each row
    # reads its own game, and rows of one seed share one permutation stream
    rng = np.random.default_rng(params.n)
    other = params.with_costs(params.cost_vec * rng.uniform(0.7, 1.3, params.n))
    other = other.with_k(0.8 * params.k)
    batch, games, configs = [], [], []
    for game_params in (params, other):
        for start in (StrategyProfile.isolated(game_params), _dense_start(game_params)):
            for seed in (0, 1):
                batch.append(start)
                games.append(game_params)
                configs.append(DynamicsConfig(max_rounds=60, order="random_permutation",
                                              seed=seed))
    got = _run_dynamics(batch, games, configs)
    want = [_dynamics_reference(start, game_params, config)
            for start, game_params, config in zip(batch, games, configs)]
    _assert_same_runs(got, want)
    # the two games part ways somewhere, so reading the wrong game would show
    half = len(batch) // 2
    assert any(a is None or b is None or a.x.tobytes() != b.x.tobytes()
               for a, b in zip(want[:half], want[half:]))


def _kernel_calls(monkeypatch, run):
    """The rows of each kernel call run() makes through
    equilibrium._responses, and its result."""
    calls = []
    real = eq._responses

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(eq, "_responses", counting)
    try:
        out = run()
    finally:
        monkeypatch.undo()
    return calls, out


@pytest.mark.parametrize("game", [7, 17])
def test_settled_row_confirms_in_logarithmic_kernel_calls(monkeypatch, game):
    # windows of width 1, 2, 4, ... cover a round without a move in
    # ceil(log2(n + 1)) kernel calls, where a step per position takes n
    params = _dynamics_games()[game]
    config = DynamicsConfig(max_rounds=60, order="random_permutation", seed=2)
    settled = best_response_dynamics(StrategyProfile.isolated(params), params, config)
    calls, out = _kernel_calls(monkeypatch,
                               lambda: best_response_dynamics(settled, params, config))
    assert out.g.tobytes() == settled.g.tobytes()
    assert len(calls) == math.ceil(math.log2(params.n + 1)) < params.n
    assert sum(calls) == params.n


@pytest.mark.parametrize("game", [3, 12])
def test_dynamics_rows_do_not_slow_each_other(monkeypatch, game):
    # each row keeps its own round, position and window width, so while no
    # window reaches the kernel bound (n^2 x rows <= _KERNEL_CHUNK) a batch
    # makes one kernel call per window of its longest-running row
    params = _dynamics_games()[game]
    starts = [StrategyProfile.isolated(params), _dense_start(params)]
    configs = [DynamicsConfig(order="random_permutation", seed=1), DynamicsConfig()]
    assert params.n ** 2 * len(starts) <= eq._KERNEL_CHUNK
    alone = [_kernel_calls(monkeypatch, lambda: _run_dynamics([s], [params], [c]))
             for s, c in zip(starts, configs)]
    calls, got = _kernel_calls(monkeypatch, lambda: _run_dynamics(starts, [params] * 2, configs))
    _assert_same_runs(got, [run[0] for _, run in alone])
    assert len(calls) == max(len(c) for c, _ in alone)


def test_heavy_criterion_1_game_keeps_its_answer_in_fewer_kernel_calls(monkeypatch):
    # scenario 1 of criterion 1's generator (n = 49, sqrt): most of its nine
    # dynamics rows cycle until the round budget runs out.  In lockstep, with
    # every row's move ending every row's window, its dynamics made 1,890
    # kernel calls
    params = list(criterion_1_games(2))[1]
    assert (params.n, params.benefit.family) == (49, "sqrt")
    calls, (prof, report) = _kernel_calls(monkeypatch, lambda: welfare_max_equilibrium(params))
    assert len(calls) <= 1890 // 2
    assert (report.classification, report.contributors) == ("Independent", (0, 48))
    digest = hashlib.sha256(prof.x.tobytes() + prof.y.tobytes() + prof.g.tobytes()).hexdigest()
    assert digest == "96f6b2095f31c788825af9ffab3778cb9cf52a9d2e134362e1376e55037aa142"


@pytest.mark.parametrize("game,search", [(7, "exact"), (10, "structural")],
                         ids=["exact", "structural"])
def test_independent_repair_joins_the_dynamics_batch(monkeypatch, game, search):
    # one _dynamics call covers the seeded starts and the repair of the
    # greedy independent profile, and every kernel call of it runs the
    # breadth that n picks: exact at n = 10, structural at n = 17
    params = _dynamics_games()[game]
    assert params.n == {"exact": 10, "structural": 17}[search]
    calls, breadths = [], set()
    real, real_breadth = eq._dynamics, br_module._breadth

    def counting(params, game, X, Y, G, configs):
        calls.append([(c.order, c.seed) for c in configs])
        return real(params, game, X, Y, G, configs)

    def recording(n):
        breadths.add(real_breadth(n))
        return real_breadth(n)

    monkeypatch.setattr(eq, "_dynamics", counting)
    monkeypatch.setattr(br_module, "_breadth", recording)
    _, X, Y, G, _, order = eq._candidates([params])
    starts = [("random_permutation", s) for s in range(eq._DYNAMICS_STARTS)]
    assert calls == [starts + [("round_robin", 0)]]
    assert breadths == {BREADTHS[search](params.n)}
    monkeypatch.undo()
    independent = order[1]  # the second candidate
    assert G[independent].tobytes() == construct_independent(params).g.tobytes()
    assert X[independent].tobytes() == construct_independent(params).x.tobytes()


def test_game_batch_rejects_mixed_sizes_and_families():
    log5 = GameParams(np.linspace(0.0, 1.0, 5), 1.0, 0.3, BenefitSpec.log())
    for other in (GameParams(np.linspace(0.0, 1.0, 6), 1.0, 0.3, BenefitSpec.log()),
                  GameParams(np.linspace(0.0, 1.0, 5), 1.0, 0.3, BenefitSpec.sqrt())):
        with pytest.raises(ValueError, match="share n and the benefit family"):
            list(welfare_max_equilibria([log5, other]))
    assert list(welfare_max_equilibria([])) == []


def test_log_sweep_group_stays_within_its_traced_peak():
    # the three games of configs/log_sweep.json in one group: 30 candidate
    # rows at n = 200, whose int8 link matrices hold 1.2 MB; the bound also
    # covers the group's pricing and certification temporaries
    types = sample_types(UNIFORM, 200, seed=7)
    games = [GameParams(types, 1.0, k, BenefitSpec.log()) for k in (0.5, 0.98, 0.994)]
    tracemalloc.start()
    try:
        got = list(welfare_max_equilibria(games))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(report.contributors) for _, report in got] == [2, 6, 10]
    assert peak < 6e6, f"traced peak {peak / 1e6:.1f} MB"


def test_welfare_max_above_threshold_returns_empty():
    params = _params([0.0, 0.3, 0.7, 1.0], k=3.0)
    prof, report = welfare_max_equilibrium(params)
    assert report.classification == "Empty"
    assert prof.g.sum() == 0


def test_welfare_max_matches_oracle_small(rng):
    for _ in range(6):
        params = random_scenario(rng, 4)
        eqs = brute_force_equilibria(params)
        assert eqs, "oracle found no equilibrium"
        best = max(welfare(e, params)[0] for e in eqs)
        prof, _ = welfare_max_equilibrium(params)
        assert welfare(prof, params)[0] == pytest.approx(best, abs=1e-8)


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

def test_brute_force_above_threshold_only_empty():
    params = _params([0.0, 0.5, 1.0], k=2.0)
    eqs = brute_force_equilibria(params)
    assert len(eqs) == 1
    assert eqs[0].g.sum() == 0


def test_brute_force_small_log_game():
    params = _params([0.0, 0.5, 1.0], k=0.3)
    eqs = brute_force_equilibria(params)
    assert eqs
    for prof in eqs:
        report = verify_nash(prof, params)
        assert report.classification != "NonEquilibrium"
        assert report.classification != "StructureViolation"


def test_brute_force_rejects_large_n():
    params = _params([0.0, 0.3, 0.5, 0.7, 1.0])
    with pytest.raises(ValueError):
        brute_force_equilibria(params)


def test_oracle_equilibria_satisfy_consumption_floor(rng):
    # every verified equilibrium covers autarky demand per good, exactly so
    # wherever the player is active
    for _ in range(10):
        params = random_scenario(rng, 4, k_span=(0.05, 1.1))
        for prof in brute_force_equilibria(params):
            cons_x, cons_y = prof.consumption()
            assert np.all(cons_x >= params.x_hat - 1e-9)
            assert np.all(cons_y >= params.y_hat - 1e-9)
            act_x = prof.x > 0
            act_y = prof.y > 0
            assert np.allclose(cons_x[act_x], params.x_hat[act_x], atol=1e-9)
            assert np.allclose(cons_y[act_y], params.y_hat[act_y], atol=1e-9)


def test_collaborative_classes_have_two_contributors_and_no_isolated(rng):
    seen = 0
    for _ in range(40):
        params = random_scenario(rng, 4, k_span=(0.05, 0.9))
        for prof in brute_force_equilibria(params):
            report = classify(prof)
            if report.classification in ("Collaborative", "PartiallyCollaborative"):
                seen += 1
                assert len(report.contributors) == 2
                assert not report.isolated
    assert seen > 0, "sampling never produced a collaborative-class equilibrium"


# ----------------------------------------------------------------------
# the active-set oracle against the Gauss-Seidel loop it replaced
# ----------------------------------------------------------------------

# the per-graph loop's convergence test and sweep budget, and its outcomes
_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_SWEEPS = 10_000
_CONVERGED, _REVISITED, _EXHAUSTED = 0, 1, 2
# tolerance of bench/workloads.py `matches`: relative, absolute below 1
_MATCH_TOL = 1e-9


def _fixed_point_reference(g, params):
    """The scalar Gauss-Seidel loop of the per-graph oracle.

    Returns the final (x, y), the outcome as a ``_CONVERGED`` /
    ``_REVISITED`` / ``_EXHAUSTED`` status and the number of sweeps run.
    """
    n = params.n
    x = params.x_hat.copy()
    y = params.y_hat.copy()
    seen = set()
    for sweep in range(1, _FIXED_POINT_MAX_SWEEPS + 1):
        delta = 0.0
        for i in range(n):
            row = g[i]
            xi = max(params.x_hat[i] - float(row @ x), 0.0)
            yi = max(params.y_hat[i] - float(row @ y), 0.0)
            delta = max(delta, abs(xi - x[i]), abs(yi - y[i]))
            x[i], y[i] = xi, yi
        if delta < _FIXED_POINT_TOL:
            return x, y, _CONVERGED, sweep
        key = np.round(np.concatenate([x, y]) / _FIXED_POINT_TOL).tobytes()
        if key in seen:
            return x, y, _REVISITED, sweep
        seen.add(key)
    return x, y, _EXHAUSTED, sweep


def _all_digraphs(n):
    """Every digraph on n players, in the oracle's mask order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        g = np.zeros((n, n), dtype=np.int8)
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                g[i, j] = 1
        yield g


def _brute_force_reference(params):
    """The per-graph oracle loop: scalar fixed point, then an exact Nash scan."""
    out = []
    for g in _all_digraphs(params.n):
        x, y, status, _ = _fixed_point_reference(g, params)
        if status != _CONVERGED:
            continue
        prof = StrategyProfile(x, y, g)
        if find_profitable_deviation(prof, params) is None:
            out.append(prof)
    return out


def _all_fixed_points(params, graphs):
    """The kernel's fixed points of every graph of a stack: graph indices, X, Y."""
    return eq._contribution_profiles(np.asarray(graphs, dtype=float),
                                     eq._active_set_tables(params))


def test_batched_fixed_points_match_scalar_loop():
    # every converged Gauss-Seidel point is one of the kernel's fixed points,
    # and every kernel point is a fixed point; a tiny interior type makes the
    # log family converge slowly (201 sweeps at n = 3), and the n = 4 games
    # include graphs whose dynamic cycles
    games = [
        _params([0.0, 0.005, 1.0], c=1.0, k=0.3),
        _params([0.0, 0.02, 0.7, 1.0], c=1.5, k=0.3),
    ]
    for spec in FAMILIES[1:]:
        games.append(_params([0.0, 0.4, 1.0], c=0.8, k=0.1, spec=spec))
        games.append(_params([0.0, 0.3, 0.6, 1.0], c=1.2, k=0.1, spec=spec))
    longest, revisited, several = 0, 0, 0
    for params in games:
        graphs = np.array(list(_all_digraphs(params.n)))
        rows, X, Y = _all_fixed_points(params, graphs)
        G = graphs[rows].astype(float)
        for Z, hat in ((X, params.x_hat), (Y, params.y_hat)):
            residual = Z - np.maximum(hat - (G @ Z[:, :, None])[:, :, 0], 0.0)
            assert np.abs(residual).max() <= 1e-12, params.types
        counts = np.bincount(rows, minlength=len(graphs))
        several += int((counts > 1).sum())
        for r, g in enumerate(graphs):
            x, y, status, sweeps = _fixed_point_reference(g, params)
            longest = max(longest, sweeps)
            revisited += status == _REVISITED
            if status == _CONVERGED:
                at = rows == r
                gap = np.maximum(np.abs(X[at] - x).max(axis=1), np.abs(Y[at] - y).max(axis=1))
                assert gap.size and gap.min() <= 1e-9, (params.types, r)
            if params.n == 3:  # the batch of one behind the public entry point
                if counts[r] == 1:
                    got = contribution_fixed_point(g, params)
                    assert np.array_equal(got[0], X[rows == r][0])
                    assert np.array_equal(got[1], Y[rows == r][0])
                else:
                    with pytest.raises(ValueError, match=f"has {counts[r]} contribution"):
                        contribution_fixed_point(g, params)
    assert longest > 200 and revisited > 0 and several > 0


def test_brute_force_matches_per_graph_loop(rng):
    # the same equilibria as the Gauss-Seidel oracle: links and counts
    # exactly, contributions to the benchmark's tolerance, as a linear solve
    # need not replay the sweeps' bits (on these games they agree exactly)
    families = set()
    games = [random_scenario(rng, 3 if idx < 16 else 4, k_span=(0.05, 1.2)) for idx in range(24)]
    # log demands 0.3 + 0.7 = 1: some graphs have a continuum of fixed points
    games.append(_params([0.0, 0.3, 0.7, 1.0], k=0.1))
    for idx, params in enumerate(games):
        families.add((params.n, params.benefit))
        want = _brute_force_reference(params)
        got = brute_force_equilibria(params)
        assert len(got) == len(want), idx
        for a, b in zip(got, want):
            assert np.array_equal(a.g, b.g), idx
            for u, v in ((a.x, b.x), (a.y, b.y)):
                scale = np.maximum(np.maximum(np.abs(u), np.abs(v)), 1.0)
                assert np.all(np.abs(u - v) <= _MATCH_TOL * scale), idx
    assert len(families) == 6  # all three families at both sizes


def test_continuum_of_fixed_points_yields_its_vertices():
    # log demands 0.3 + 0.7 = 1 with links 1 -> 3, 3 -> 1, 3 -> 2: every
    # x1 + x3 = 0.3 with x1, x3 >= 0 is a fixed point; the kernel returns the
    # two vertices and no interior point
    params = _params([0.0, 0.3, 0.7, 1.0])
    g = np.zeros((4, 4), dtype=np.int8)
    g[1, 3] = g[3, 1] = g[3, 2] = 1
    rows, X, Y = _all_fixed_points(params, g[None])
    assert rows.tolist() == [0, 0]
    assert sorted((round(x[1], 12), round(x[3], 12)) for x in X) == [(0.0, 0.3), (0.3, 0.0)]
    assert np.allclose(X[:, 2], 0.7, atol=1e-12)
    assert np.allclose(Y, [1.0, 0.7, 0.3, 0.0], atol=1e-12)


def test_fixed_point_rejects_graphs_with_several_fixed_points():
    # player 0 linked both ways with players 1 and 2: y, with demands
    # (1, 0.8, 0.5), has three isolated solutions, one of them interior
    params = _params([0.0, 0.2, 0.5, 1.0])
    g = np.zeros((4, 4), dtype=np.int8)
    g[0, 1] = g[1, 0] = g[0, 2] = g[2, 0] = 1
    _, X, Y = _all_fixed_points(params, g[None])
    assert np.allclose(X, params.x_hat, atol=1e-12)
    want = [[0.0, 0.8, 0.5, 0.0], [0.3, 0.5, 0.2, 0.0], [1.0, 0.0, 0.0, 0.0]]
    assert np.allclose(sorted(Y.tolist()), want, atol=1e-12)
    with pytest.raises(ValueError, match="has 3 contribution fixed points"):
        contribution_fixed_point(g, params)


def test_oracle_nash_check_fails_loudly_on_a_nan_utility():
    # player 0 reaches player 2's NaN provision in every subset with a link
    # to 2, which would otherwise compare as "no deviation"
    params = _params([0.0, 0.5, 1.0], k=5.0)
    X, Y = np.tile(params.x_hat, (2, 1)), np.tile(params.y_hat, (2, 1))
    G = np.zeros((2, 3, 3))
    assert eq._nash_stable(G, X, Y, params, two_way=False).tolist() == [True, True]
    X[1, 2] = np.nan
    for two_way in (False, True):
        with pytest.raises(ValueError, match="player 0 has a NaN utility in profile row 1"):
            eq._nash_stable(G, X, Y, params, two_way)


def test_brute_force_profiles_share_no_memory():
    # returned profiles must not pin the block arrays they were computed in
    params = _params([0.0, 0.1, 0.9, 1.0], k=0.1)
    eqs = brute_force_equilibria(params)
    assert len(eqs) > 1
    arrays = [a for prof in eqs for a in (prof.x, prof.y, prof.g)]
    assert all(a.base is None for a in arrays)
    for u, v in itertools.combinations(arrays, 2):
        assert not np.shares_memory(u, v)


# ----------------------------------------------------------------------
# lazy verification against the eager scan
# ----------------------------------------------------------------------

def _one(prof):
    """A profile as the stack of one, game 0, that the lazy scan's seams take."""
    return np.zeros(1, dtype=int), prof.x[None], prof.y[None], prof.g[None]


def _eager_scan(candidates, params):
    """Verify every candidate in order; ties to Independent, then fewer
    contributors.  Verification and welfare go through the seams the lazy
    scan calls, which unpatched are verify_nash and metrics.welfare."""
    best = None
    seen = set()
    for prof in candidates:
        key = prof.g.tobytes() + np.round(prof.x, 10).tobytes() + np.round(prof.y, 10).tobytes()
        if key in seen:
            continue
        seen.add(key)
        if eq._deviations(params, *_one(prof))[0] is not None:
            continue
        report = eq.classify(prof)
        w = eq._welfare_totals(params, *_one(prof))[0]
        if best is None or w > best[0] + eq._WELFARE_TIE_TOL:
            best = (w, prof, report)
        elif abs(w - best[0]) <= eq._WELFARE_TIE_TOL:
            cur = best[2]
            better_class = (
                report.classification == "Independent" and cur.classification != "Independent"
            )
            same_class_fewer = (
                report.classification == cur.classification
                and len(report.contributors) < len(cur.contributors)
            )
            if better_class or same_class_fewer:
                best = (w, prof, report)
    return best[1], best[2]


def _eager_welfare_max(params):
    """The candidate list rebuilt from the public constructors, scanned
    eagerly; it also holds every two-player-core template on the moderate
    pairs that verifies as its own class, which the lazy search leaves out."""
    candidates = [StrategyProfile.isolated(params), construct_independent(params)]
    above, below = _moderate_pairs(params)
    for a in above:
        for b in below:
            for construct in (construct_partially_collaborative, construct_collaborative):
                prof = construct(params, a, b)
                if prof is not None:
                    candidates.append(prof)
    anchored = _anchored_profiles(params)
    for s in range(eq._DYNAMICS_STARTS):
        if s == 0:
            start = StrategyProfile.isolated(params)
        else:
            start = anchored[s - 1]
        config = DynamicsConfig(max_rounds=60, order="random_permutation", seed=s)
        try:
            candidates.append(best_response_dynamics(start, params, config))
        except NonConvergenceError:
            continue
    return _eager_scan(candidates, params)


def _lazy_games():
    """24 seeded games: the three families, n from 5 to 30, and two-core-rich
    evenly spaced societies where many templates fail their class check."""
    rng = np.random.default_rng(20261018)
    games = []
    for idx in range(20):
        n = 5 + (idx * 25) // 19
        types = random_types(rng, n)
        spec = FAMILIES[idx % 3]
        probe = GameParams(types, float(rng.uniform(0.5, 2.0)), 1.0, spec)
        games.append(probe.with_k(float(rng.uniform(0.02, 1.2)) * k_tilde(probe)))
    for n, k in ((21, 0.4), (21, 0.2), (14, 0.3), (9, 0.25)):
        games.append(GameParams(np.linspace(0.0, 1.0, n), 1.0, k, BenefitSpec.log()))
    return games


@pytest.mark.parametrize("game", range(24))
def test_lazy_welfare_max_matches_eager_scan(game):
    params = _lazy_games()[game]
    prof, report = welfare_max_equilibrium(params)
    ref, ref_report = _eager_welfare_max(params)
    assert np.array_equal(prof.g, ref.g)
    assert np.array_equal(prof.x, ref.x)
    assert np.array_equal(prof.y, ref.y)
    assert report.classification == ref_report.classification
    assert report.contributors == ref_report.contributors


def _rounds_games():
    """Three n = 12 log games, the second the first at a higher k."""
    log = BenefitSpec.log()
    first = GameParams(
        np.array([0.0, 0.0905, 0.2125, 0.213, 0.276, 0.3307, 0.3733, 0.5953, 0.7886, 0.8009,
                  0.8207, 1.0]), 1.0213, 0.2667, log,
        np.array([0.6658, 0.6329, 0.9079, 1.457, 1.4901, 0.6162, 1.1186, 0.5162, 1.1914, 1.15,
                  1.0346, 0.7947]))
    second = GameParams(
        np.array([0.0, 0.0904, 0.0936, 0.288, 0.466, 0.4698, 0.5757, 0.8908, 0.9024, 0.9381,
                  0.9798, 1.0]), 1.7694, 0.1829, log,
        np.array([1.7525, 2.2339, 1.1903, 1.4976, 1.7416, 2.5359, 2.6378, 1.6844, 1.0344, 0.8937,
                  1.6972, 2.0272]))
    return [first, first.with_k(0.5), second]


def _scripted_rejections(monkeypatch, games, fails):
    """Wrap the real _deviations so that it also reports a deviation for the
    first fails[g] profiles that games[g]'s own scan verifies.  A rejection
    is keyed on the profile's bytes, so a game alone and the same game in a
    group reject the same profiles.  Returns the list to which each search
    appends its (game, profile key) pairs."""
    real, rejected, searches = eq._deviations, set(), []

    def scripted(params, game, X, Y, G):
        keys = [x.tobytes() + y.tobytes() + links.tobytes() for x, y, links in zip(X, Y, G)]
        searches.append(list(zip(game.tolist(), keys)))
        return [Deviation(0, (), 0.0, 0.0, 1.0) if key in rejected else deviation
                for key, deviation in zip(keys, real(params, game, X, Y, G))]

    monkeypatch.setattr(eq, "_deviations", scripted)
    for params, count in zip(games, fails):
        for _ in range(count):
            searches.clear()
            welfare_max_equilibrium(params)
            rejected.add(next(key for s in searches for _, key in s if key not in rejected))
    searches.clear()
    return searches


def test_group_rounds_verify_each_games_own_profiles(monkeypatch):
    # each round's one deviation search takes the best-ranked unverified
    # profile of every game still scanning: all three games, then the two
    # whose profile failed, then the one that failed twice
    games = _rounds_games()
    searches = _scripted_rejections(monkeypatch, games, (2, 1, 0))
    alone = []
    for params in games:
        searches.clear()
        alone.append((welfare_max_equilibrium(params), [p for s in searches for _, p in s]))
    assert [len(verified) for _, verified in alone] == [3, 2, 1]
    searches.clear()
    together = list(welfare_max_equilibria(games))
    assert [[g for g, _ in s] for s in searches if s] == [[0, 1, 2], [0, 1], [0]]
    for g, ((prof, report), ((want, want_report), verified)) in enumerate(zip(together, alone)):
        assert prof.g.tobytes() == want.g.tobytes()
        assert prof.x.tobytes() == want.x.tobytes() and prof.y.tobytes() == want.y.tobytes()
        assert report.classification == want_report.classification
        assert report.contributors == want_report.contributors
        assert sorted(p for s in searches for h, p in s if h == g) == sorted(verified)


def test_group_rounds_make_no_empty_search(monkeypatch, rng):
    # the rounds end once no game has a profile left to verify, so each
    # deviation search of a group gets at least one profile
    searches = _scripted_rejections(monkeypatch, _rounds_games(), (2, 1, 0))
    assert len(list(welfare_max_equilibria(_rounds_games()))) == 3
    assert [len(s) for s in searches] == [3, 2, 1]
    base = random_scenario(rng, 8)
    searches.clear()
    family = [base.with_k(base.k * f) for f in (0.5, 1.0, 1.5, 2.0)]
    assert len(list(welfare_max_equilibria(family))) == 4
    sizes = [len(s) for s in searches]
    assert sizes and min(sizes) >= 1 and sizes[0] == 4


def _dummy(i):
    """A distinct 3-player profile per index; only its profile key matters."""
    return StrategyProfile(np.array([float(i), 0.0, 0.0]), np.zeros(3), np.zeros((3, 3)))


def _scripted(monkeypatch, profiles, scripted):
    """Make welfare_max_equilibrium see the candidates `profiles`, whose
    welfare and report come from `scripted` (profile index -> (welfare,
    class, contributors)).  Returns the eager answer over the same candidates
    and the verify count."""
    def lookup(prof):
        return scripted[int(prof.x[0])]

    calls = []

    def fake_deviations(params, game, X, Y, G):
        # a scripted NonEquilibrium fails verification; anything else holds
        calls.extend(int(x[0]) for x in X)
        return [Deviation(0, (), 0.0, 0.0, 1.0) if scripted[int(x[0])][1] == "NonEquilibrium"
                else None for x in X]

    def fake_classify(prof):
        _, label, contributors = lookup(prof)
        return EquilibriumReport(label, contributors, (), ())

    stack = [np.stack([p.x for p in profiles]), np.stack([p.y for p in profiles]),
             np.stack([p.g for p in profiles])]
    order = np.arange(len(profiles))
    monkeypatch.setattr(eq, "_candidates",
                        lambda games: (None, *stack, np.zeros(len(profiles), dtype=int), order))
    monkeypatch.setattr(eq, "_deviations", fake_deviations)
    monkeypatch.setattr(eq, "classify", fake_classify)
    monkeypatch.setattr(eq, "_welfare_totals",
                        lambda params, game, X, Y, G: np.array([scripted[int(x[0])][0] for x in X]))
    params = _params([0.0, 0.5, 1.0])
    want = _eager_scan(profiles, params)
    calls.clear()
    return params, want, calls


def test_lazy_tie_chain_prefers_later_independent(monkeypatch):
    tol = eq._WELFARE_TIE_TOL
    scripted = {
        0: (0.0, "Empty", ()),
        1: (1.0, "Collaborative", (1, 2)),
        2: (1.0 - 0.9 * tol, "Independent", (0, 1, 2)),
        3: (1.0 - 1.8 * tol, "Independent", (0, 2)),
        4: (0.5, "Independent", (0,)),
    }
    params, want, calls = _scripted(monkeypatch, [_dummy(i) for i in range(5)], scripted)
    prof, report = welfare_max_equilibrium(params)
    # the core candidate has the highest welfare, yet an Independent within
    # tolerance takes the tie, and a second step (1.8 tol below the core)
    # moves to fewer contributors
    assert int(want[0].x[0]) == 3
    assert int(prof.x[0]) == 3
    assert report.classification == want[1].classification == "Independent"
    # candidates well below the accepted band are never verified
    assert sorted(calls) == [1, 2, 3]

"""Welfare, polarization, contributor statistics."""

import numpy as np
import pytest

from netpublic import (
    BenefitSpec,
    GameParams,
    StrategyProfile,
    contributor_count,
    metrics_record,
    polarization,
    utility,
    welfare,
)


def _params(types, k=0.4):
    return GameParams(np.asarray(types, float), 1.0, k, BenefitSpec.log())


def test_welfare_additivity_identical_players():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    total, avg = welfare(prof, params)
    assert total == pytest.approx(sum(utility(prof, i, params) for i in range(3)), abs=1e-12)
    assert avg == pytest.approx(total / 3, abs=1e-12)


def test_welfare_is_the_per_player_sum_bit_for_bit(rng):
    # one array pass, summed left to right as the per-player loop did;
    # includes -inf utilities (log family, a good consumed at zero)
    families = (BenefitSpec.log(), BenefitSpec.sqrt(), BenefitSpec.power(0.3))
    for trial in range(60):
        n = int(rng.integers(3, 80))
        types = np.array(sorted([0.0, *rng.uniform(size=n - 2), 1.0]))
        params = GameParams(types, float(rng.uniform(0.5, 2.0)), 0.3, families[trial % 3])
        x = params.x_hat * rng.uniform(0.0, 1.5, size=n) * (rng.uniform(size=n) < 0.7)
        y = params.y_hat * rng.uniform(0.0, 1.5, size=n) * (rng.uniform(size=n) < 0.7)
        g = (rng.uniform(size=(n, n)) < 0.1).astype(np.int8)
        np.fill_diagonal(g, 0)
        prof = StrategyProfile(x, y, g)
        want = sum(utility(prof, i, params) for i in range(n))
        total, avg = welfare(prof, params)
        assert type(total) is type(want)
        assert np.float64(total).tobytes() == np.float64(want).tobytes()
        assert avg == total / n


def test_idle_link_costs_exactly_k():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    base = welfare(prof, params)[0]
    prof.g[2, 0] = 1  # player 2 ignores good y, so the link buys nothing
    prof.x[0], prof.y[0] = 0.0, 1.0
    assert welfare(prof, params)[0] == pytest.approx(base - params.k, abs=1e-12)


def test_polarization_zero_for_identical_bundles():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile(np.ones(3), np.ones(3), np.zeros((3, 3), int))
    assert polarization(prof) == 0.0


def test_polarization_two_specialists():
    prof = StrategyProfile(
        np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros((2, 2), int)
    )
    assert polarization(prof) == pytest.approx(4.0, abs=1e-12)


def test_polarization_relabeling_and_direction_invariance(rng):
    n = 6
    x = rng.uniform(size=n)
    y = rng.uniform(size=n)
    g = (rng.uniform(size=(n, n)) < 0.3).astype(int)
    np.fill_diagonal(g, 0)
    prof = StrategyProfile(x, y, g)
    base = polarization(prof)

    perm = rng.permutation(n)
    relabeled = StrategyProfile(x[perm], y[perm], g[np.ix_(perm, perm)])
    assert polarization(relabeled) == pytest.approx(base, rel=1e-12)

    # flipping a link's direction while pinning consumption changes nothing
    cons_x, cons_y = prof.consumption()
    pinned = StrategyProfile(cons_x, cons_y, np.zeros((n, n), int))
    flipped = StrategyProfile(cons_x, cons_y, np.zeros((n, n), int))
    assert polarization(pinned) == polarization(flipped)


def test_polarization_homogeneous_degree_one(rng):
    for _ in range(20):
        n = 5
        x = rng.uniform(size=n)
        y = rng.uniform(size=n)
        g = (rng.uniform(size=(n, n)) < 0.4).astype(int)
        np.fill_diagonal(g, 0)
        lam = float(rng.uniform(0.1, 5.0))
        base = polarization(StrategyProfile(x, y, g))
        scaled = polarization(StrategyProfile(lam * x, lam * y, g))
        assert scaled == pytest.approx(lam * base, rel=1e-10)


def test_contributor_count_shapes():
    params = _params([0.0, 0.25, 0.75, 1.0])
    prof = StrategyProfile.isolated(params)
    assert contributor_count(prof) == 0
    prof.g[[0, 1, 2], 3] = 1
    assert contributor_count(prof) == 1  # a star has a single hub


def test_metrics_record_share():
    params = _params([0.0, 0.25, 0.75, 1.0])
    prof = StrategyProfile.isolated(params)
    prof.g[1, 0] = 1
    rec = metrics_record(prof, params)
    assert rec.contributor_count == 1
    assert rec.contributor_share == pytest.approx(0.25)

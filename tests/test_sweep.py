"""Linking-cost sweeps, regime detection, law-of-the-few scans, extremism order."""

import numpy as np
import pytest

from netpublic import (
    BenefitSpec,
    FoldedOrder,
    GameParams,
    RegimeEvent,
    SweepRecord,
    UNIFORM,
    detect_regime_changes,
    folded_fosd,
    k_tilde,
    law_of_few_scan,
    sample_types,
    sweep_k,
)
from netpublic.model import TruncNormal, draw_interior_types


def _base(n=12, seed=3, c=1.0):
    types = sample_types(UNIFORM, n, seed)
    return GameParams(types, c, 0.5, BenefitSpec.log())


def test_sweep_above_threshold_all_empty():
    params = _base()
    kt = k_tilde(params)
    records = sweep_k(params, [kt + 0.1, kt + 0.2, kt + 0.3])
    assert all(r.classification == "Empty" for r in records)
    assert len({round(r.welfare_sum, 12) for r in records}) == 1


def test_sweep_requires_increasing_grid():
    params = _base()
    with pytest.raises(ValueError):
        sweep_k(params, [0.5, 0.4])


def test_sweep_deterministic():
    params = _base()
    a = sweep_k(params, [0.3, 0.6, 0.9])
    b = sweep_k(params, [0.3, 0.6, 0.9])
    assert a == b


def test_sweep_log_low_costs_keeps_two_contributors():
    params = _base(n=14)
    records = sweep_k(params, [0.2, 0.4, 0.6])
    for rec in records:
        assert rec.contributor_count >= 2


def _rec(k, cls, count, w, rho):
    return SweepRecord(k, cls, count, w * 10, w, rho, ())


def test_detect_regime_changes_monotone_records():
    records = [
        _rec(0.1, "Independent", 2, 3.0, 10.0),
        _rec(0.2, "Independent", 2, 2.5, 8.0),
        _rec(0.3, "Empty", 0, 2.0, 6.0),
    ]
    events = detect_regime_changes(records)
    kinds = {e for _, e in events}
    assert kinds == {RegimeEvent.EMPTY_ONSET, RegimeEvent.CONTRIBUTOR_COUNT_CHANGE}


def test_detect_regime_changes_flags_welfare_rise_and_flip():
    records = [
        _rec(0.4, "Independent", 2, 3.1, 50.0),
        _rec(0.5, "Independent", 3, 3.4, 20.0),
        _rec(0.6, "Independent", 2, 3.0, 40.0),
        _rec(0.7, "Empty", 0, 2.9, 15.0),
    ]
    events = detect_regime_changes(records)
    assert ((0.4, 0.5), RegimeEvent.WELFARE_UP_ON_K_UP) in events
    flips = [iv for iv, e in events if e is RegimeEvent.POLARIZATION_TREND_FLIP]
    assert (0.5, 0.6) in flips
    assert (0.6, 0.7) in flips


def test_fine_sweep_near_threshold_shows_polarization_hump():
    # polarization rises with k while free riders drop second links, then
    # falls once moderate contributors emerge and players stay isolated
    params = _base(n=30, seed=3)
    grid = [round(v, 4) for v in np.linspace(0.55, 0.995, 8)]
    records = sweep_k(params, grid)
    events = detect_regime_changes(records)
    flips = [e for _, e in events if e is RegimeEvent.POLARIZATION_TREND_FLIP]
    assert flips


def test_detect_regime_changes_needs_three_records():
    with pytest.raises(ValueError):
        detect_regime_changes([_rec(0.1, "Empty", 0, 1.0, 0.0)] * 2)


def test_detect_regime_changes_is_pure():
    records = [
        _rec(0.1, "Independent", 2, 3.0, 10.0),
        _rec(0.2, "Independent", 3, 3.5, 5.0),
        _rec(0.3, "Independent", 2, 3.1, 9.0),
    ]
    assert detect_regime_changes(records) == detect_regime_changes(list(records))


def test_law_of_few_above_threshold_all_zero():
    rows = law_of_few_scan([10, 20], UNIFORM, 1.0, 5.0, BenefitSpec.log(), seed=1)
    assert rows == [(10, 0), (20, 0)]


def test_law_of_few_nested_prefix_types():
    rng1 = np.random.Generator(np.random.PCG64(9))
    rng2 = np.random.Generator(np.random.PCG64(9))
    small = draw_interior_types(UNIFORM, 8, rng1)
    large = draw_interior_types(UNIFORM, 18, rng2)
    assert large[:8] == small


def test_law_of_few_share_decreases():
    rows = law_of_few_scan([30, 60, 120], UNIFORM, 1.0, 0.9, BenefitSpec.log(), seed=5)
    shares = [count / n for n, count in rows]
    assert all(b < a for a, b in zip(shares, shares[1:]))


def test_folded_fosd_identical_samples_incomparable():
    a = np.linspace(0.05, 0.95, 40)
    assert folded_fosd(a, a) is FoldedOrder.INCOMPARABLE


def test_folded_fosd_narrow_uniform_less_extreme():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.4, 0.6, size=400)
    b = rng.uniform(0.0, 1.0, size=400)
    assert folded_fosd(a, b) is FoldedOrder.A_LESS_EXTREME
    assert folded_fosd(b, a) is FoldedOrder.B_LESS_EXTREME


def test_folded_fosd_point_masses():
    a = np.array([0.0, 1.0] * 20)
    b = np.full(40, 0.5)
    assert folded_fosd(a, b) is FoldedOrder.B_LESS_EXTREME


def test_folded_fosd_rejects_small_samples():
    with pytest.raises(ValueError):
        folded_fosd(np.full(10, 0.5), np.full(40, 0.5))


def test_truncnormal_narrower_sd_is_less_extreme():
    a = sample_types(TruncNormal(0.5, 0.15), 300, seed=4)
    b = sample_types(TruncNormal(0.5, 2.0), 300, seed=4)
    assert folded_fosd(a, b) is FoldedOrder.A_LESS_EXTREME

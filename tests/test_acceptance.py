"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 each contain one assertion that is expected to fail for
structural reasons: at n=200 dense uniform
types no equilibrium keeps the middle isolated with two contributors at
k=0.994, and under TruncNormal(0.5, 1) the k=0.78 equilibrium's polarization
sits below any welfare-maximal k=0.677 equilibrium.  Those assertions are
kept verbatim rather than weakened.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import netpublic as npub
from netpublic import BenefitSpec, GameParams, StrategyProfile, TruncNormal, UNIFORM
from netpublic.cli import main as cli_main
from netpublic.metrics import welfare
from netpublic.model import EPS_NUM
from tests.conftest import criterion_1_games, gross_utilities, subset_matrix


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except AssertionError as exc:
        elapsed = time.monotonic() - start
        print(f"[criterion {number}] FAIL ({elapsed:.1f}s): {label}: {exc}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number}] PASS ({elapsed:.1f}s): {label}")
    assert elapsed <= budget_s, f"runtime {elapsed:.1f}s exceeded {budget_s:.0f}s budget"


_FAMILIES = (BenefitSpec.log(), BenefitSpec.sqrt(), BenefitSpec.power(0.3))
_CACHE: dict = {}


def _floor_gap(prof: StrategyProfile, params: GameParams) -> float:
    """Worst violation of the consumption-floor/equality-when-active rule."""
    cons_x, cons_y = prof.consumption()
    gap = max(
        float(np.max(params.x_hat - cons_x, initial=0.0)),
        float(np.max(params.y_hat - cons_y, initial=0.0)),
    )
    act_x = prof.x > 0
    act_y = prof.y > 0
    if act_x.any():
        gap = max(gap, float(np.max(np.abs(cons_x[act_x] - params.x_hat[act_x]))))
    if act_y.any():
        gap = max(gap, float(np.max(np.abs(cons_y[act_y] - params.y_hat[act_y]))))
    return gap


def _ensure_criterion1():
    if "c1" in _CACHE:
        return _CACHE["c1"]
    reports = []
    worst = 0.0
    for params in criterion_1_games():
        built = npub.construct_independent(params)
        worst = max(worst, _floor_gap(built, params))
        prof, report = npub.welfare_max_equilibrium(params)
        worst = max(worst, _floor_gap(prof, params))
        reports.append(report)
    _CACHE["c1"] = (worst, reports)
    return _CACHE["c1"]


def _random_small_scenario(rng, n, idx):
    types = np.array(sorted([0.0] + list(rng.uniform(size=n - 2)) + [1.0]))
    spec = _FAMILIES[idx % 3]
    c = float(rng.uniform(0.5, 2.0))
    probe = GameParams(types, c, 1.0, spec)
    k = float(rng.uniform(0.05, 1.2)) * npub.k_tilde(probe)
    return GameParams(types, c, k, spec)


def _strictness(prof: StrategyProfile, params: GameParams) -> float:
    """Smallest margin by which any alternative link set loses."""
    gap = np.inf
    for i in range(params.n):
        cand = np.array([j for j in range(params.n) if j != i])
        subsets = subset_matrix(len(cand))
        current_links = frozenset(int(v) for v in prof.links_of(i))
        util, _, _ = gross_utilities(i, cand, subsets, prof, params)
        cur = npub.utility(prof, i, params)
        for row, u in zip(subsets, util):
            links = frozenset(int(v) for v in cand[row.astype(bool)])
            if links != current_links:
                gap = min(gap, cur - float(u))
    return gap


def _ensure_criterion2():
    if "c2" in _CACHE:
        return _CACHE["c2"]
    rng = np.random.default_rng(424242)
    reports = []
    strict: list[tuple[GameParams, StrategyProfile]] = []
    failures = []
    for idx in range(70):
        n = 3 if idx < 50 else 4
        params = _random_small_scenario(rng, n, idx)
        oracle = npub.brute_force_equilibria(params)
        if not oracle:
            failures.append((idx, "oracle empty"))
            continue
        for prof in oracle:
            report = npub.verify_nash(prof, params)
            if report.classification == "NonEquilibrium":
                failures.append((idx, "oracle member failed re-verification"))
            reports.append(report)
            if _strictness(prof, params) > 1e-2:
                strict.append((params, prof))
        built = npub.construct_independent(params)
        in_oracle = any(
            np.array_equal(built.g, e.g)
            and np.allclose(built.x, e.x, atol=1e-8)
            and np.allclose(built.y, e.y, atol=1e-8)
            for e in oracle
        )
        if not in_oracle:
            failures.append((idx, "constructed profile missing from oracle set"))
        best = max(welfare(e, params)[0] for e in oracle)
        prof, _ = npub.welfare_max_equilibrium(params)
        got = welfare(prof, params)[0]
        if abs(got - best) > 1e-8:
            failures.append((idx, f"welfare gap {got - best:.3e}"))
    _CACHE["c2"] = (failures, reports, strict)
    return _CACHE["c2"]


def test_criterion_1_consumption_floor_invariants():
    with criterion(1, "consumption-floor invariants over 200 random scenarios", 120.0):
        worst, _ = _ensure_criterion1()
        assert worst <= EPS_NUM, f"worst consumption-floor error {worst:.3e}"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "brute-force oracle equivalence at n=3,4", 300.0):
        failures, _, strict = _ensure_criterion2()
        assert not failures, f"{len(failures)} scenario failures, first: {failures[:3]}"
        assert strict, "no strict equilibria collected for criterion 8(c)"


def test_criterion_3_structure_guarantees():
    with criterion(3, "no structure violations; collaborative cores of two", 60.0):
        _, c1_reports = _ensure_criterion1()
        _, c2_reports, _ = _ensure_criterion2()
        allowed = {"Empty", "Independent", "Collaborative", "PartiallyCollaborative"}
        for report in c1_reports + c2_reports:
            assert report.classification != "StructureViolation", report.note
            assert report.classification in allowed, report.classification
            if report.classification in ("Collaborative", "PartiallyCollaborative"):
                assert len(report.contributors) == 2


def _ensure_regime_profiles():
    if "c4" in _CACHE:
        return _CACHE["c4"]
    types = npub.sample_types(UNIFORM, 200, seed=7)
    out = {}
    for k in (0.5, 0.98, 0.994):
        params = GameParams(types, 1.0, k, BenefitSpec.log())
        prof = npub.construct_independent(params)
        out[k] = (prof, npub.verify_nash(prof, params))
    _CACHE["c4"] = out
    return out


def test_criterion_4a_low_cost_two_contributors_none_isolated():
    with criterion(4, "k=0.5: two contributors, nobody isolated", 60.0):
        prof, report = _ensure_regime_profiles()[0.5]
        assert report.classification == "Independent"
        assert len(report.contributors) == 2, f"|C|={len(report.contributors)}"
        assert not report.isolated


def test_criterion_4b_intermediate_cost_disjoint_neighborhoods():
    with criterion(4, "k=0.98: three or more contributors, disjoint neighborhoods", 60.0):
        prof, report = _ensure_regime_profiles()[0.98]
        assert report.classification == "Independent"
        assert len(report.contributors) >= 3, f"|C|={len(report.contributors)}"
        outdeg = prof.out_degree()
        assert all(outdeg[p] == 1 for p in report.periphery)


def test_criterion_4c_near_threshold_two_contributors_with_isolated():
    with criterion(4, "k=0.994: two contributors with isolated players", 60.0):
        prof, report = _ensure_regime_profiles()[0.994]
        assert report.classification != "NonEquilibrium"
        assert len(report.isolated) >= 1, "isolated set is empty"
        # Unattainable at n=200: adjacent isolated moderates always profit
        # from linking each other, so |C| cascades far above 2.
        assert len(report.contributors) == 2, f"|C|={len(report.contributors)}"


def test_criterion_5_welfare_polarization_non_monotonicity():
    with criterion(5, "k-grid welfare rise-then-fall with polarization dip", 300.0):
        types = npub.sample_types(TruncNormal(0.5, 1.0), 300, seed=11)
        params = GameParams(types, 1e-5, 0.676, BenefitSpec.power(0.15))
        records = npub.sweep_k(params, [0.676, 0.677, 0.78, 0.82])
        by_k = {r.k: r for r in records}
        w = {k: by_k[k].welfare_avg for k in by_k}
        rho = {k: by_k[k].polarization for k in by_k}
        assert w[0.677] > w[0.676] > w[0.78] > w[0.82], f"welfare ordering broke: {w}"
        assert by_k[0.677].contributor_count == 3, by_k[0.677]
        assert by_k[0.676].contributor_count == 2, by_k[0.676]
        assert rho[0.677] < rho[0.676], f"{rho[0.677]:.4g} !< {rho[0.676]:.4g}"
        # Unattainable under TruncNormal(0.5, 1): the k=0.78 equilibrium's
        # isolated middle consumes small, similar bundles, keeping its
        # polarization below the k=0.677 level.
        assert rho[0.677] < rho[0.78], f"{rho[0.677]:.4g} !< {rho[0.78]:.4g}"


def test_criterion_6_law_of_the_few():
    with criterion(6, "contributor share vanishes on nested societies", 120.0):
        rows = npub.law_of_few_scan(
            [50, 100, 200, 400], UNIFORM, 1.0, 0.9, BenefitSpec.log(), seed=11
        )
        shares = [count / n for n, count in rows]
        assert all(b < a for a, b in zip(shares, shares[1:])), rows
        counts = dict(rows)
        assert counts[400] == counts[200], rows


def test_criterion_7_subsidy_regimes():
    with criterion(7, "small budgets boost contributors, large budgets build a star", 300.0):
        types = npub.sample_types(UNIFORM, 10, seed=24)
        params = GameParams(types, 1.0, 0.9, BenefitSpec.log())
        base, report = npub.welfare_max_equilibrium(params)
        provision_cost = float(params.cost_vec @ (base.x + base.y))

        plan, _, _ = npub.planner(params, 0.05 * provision_cost)
        assert set(plan.recipients()) <= set(report.contributors), (
            f"recipients {plan.recipients()} not within {report.contributors}"
        )

        plan, prof, regime = npub.planner(params, 5.0 * provision_cost)
        assert regime == "Star", regime
        (hub,) = plan.recipients()
        assert abs(params.types[hub] - params.types.mean()) <= 0.15
        others = [i for i in range(params.n) if i != hub]
        assert all(prof.g[i, hub] == 1 for i in others)


def test_criterion_8_extensions():
    with criterion(8, "perturbed reduction, weighted cores, shock robustness", 300.0):
        # (a) zero shocks reproduce the baseline utility exactly
        rng = np.random.default_rng(8)
        zero = npub.PerturbationParams()
        worst = 0.0
        for idx in range(1000):
            n = int(rng.integers(3, 7))
            types = np.array(sorted([0.0] + list(rng.uniform(size=n - 2)) + [1.0]))
            params = GameParams(types, float(rng.uniform(0.5, 2.0)), 0.5, _FAMILIES[idx % 3])
            g = (rng.uniform(size=(n, n)) < 0.35).astype(np.int8)
            np.fill_diagonal(g, 0)
            prof = StrategyProfile(
                rng.uniform(0.01, 2.0, size=n), rng.uniform(0.01, 2.0, size=n), g
            )
            i = int(rng.integers(n))
            worst = max(
                worst,
                abs(
                    npub.utility_perturbed(prof, i, params, zero)
                    - npub.utility(prof, i, params)
                ),
            )
        assert worst <= 1e-12, f"worst reduction error {worst:.3e}"

        # (b) weighted-link dynamics always end with zero or two recipients
        for seed in range(20):
            types = npub.sample_types(UNIFORM, 8, seed=seed)
            params = GameParams(types, 1.0, 0.5, BenefitSpec.log())
            wp = npub.equilibrium_weighted(params)
            assert len(npub.weighted_recipients(wp)) in (0, 2)

        # (c) strict equilibria survive every tiny shock draw
        _, _, strict = _ensure_criterion2()
        assert strict
        for params, prof in strict[:4]:
            frac = npub.perturbation_robustness(prof, params, 1e-4, trials=20, seed=9)
            assert frac == 1.0, f"preserved fraction {frac}"


def test_criterion_9_byte_identical_reruns(tmp_path):
    with criterion(9, "same config and seed give byte-identical artifacts", 120.0):
        sweep_cfg = {
            "benefit": {"family": "log"},
            "c": 1.0,
            "k_grid": [0.4, 0.7, 0.95],
            "n": 30,
            "dist": {"kind": "uniform"},
            "seed": 17,
            "mode": "structural",
            "command": "sweep_k",
            "output": {"path": str(tmp_path / "sweep.csv"), "format": "csv"},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(sweep_cfg), encoding="utf-8")
        assert cli_main(["--config", str(cfg_path)]) == 0
        first = (tmp_path / "sweep.csv").read_bytes()
        assert cli_main(["--config", str(cfg_path)]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == first

        solve_cfg = dict(sweep_cfg)
        del solve_cfg["k_grid"]
        solve_cfg.update(
            {"k": 0.6, "command": "solve",
             "output": {"path": str(tmp_path / "solve.json"), "format": "json"}}
        )
        cfg_path = tmp_path / "solve.json.cfg"
        cfg_path.write_text(json.dumps(solve_cfg), encoding="utf-8")
        assert cli_main(["--config", str(cfg_path)]) == 0
        first = (tmp_path / "solve.json").read_bytes()
        assert cli_main(["--config", str(cfg_path)]) == 0
        assert (tmp_path / "solve.json").read_bytes() == first

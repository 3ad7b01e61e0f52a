"""Single-player optimization: top-up contributions, link gains, best responses."""

import importlib
import math

import numpy as np
import pytest

from netpublic import (
    ADD,
    DELETE,
    EPS_DEV,
    BenefitSpec,
    Deviation,
    GameParams,
    StrategyProfile,
    best_response,
    construct_independent,
    find_profitable_deviation,
    gains_from_link,
    optimal_contributions,
    utility,
)
from netpublic.best_response import (
    _KERNEL_CHUNK,
    _candidate_table,
    _deviations,
    _link_gain,
    _responses,
    _subset_count,
    _subset_members,
)
from tests.conftest import BREADTHS, pinned_breadth, random_scenario, unpruned_exact_responses

# the module; the package attribute of this name is the function
br_module = importlib.import_module("netpublic.best_response")


def _params(types, c=1.0, k=0.4, spec=None):
    return GameParams(np.asarray(types, float), c, k, spec or BenefitSpec.log())


def test_optimal_contributions_no_links_is_isolation():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    assert optimal_contributions(1, [], prof, params) == (0.5, 0.5)


def test_optimal_contributions_free_rides_when_covered():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    prof.x[2], prof.y[2] = 1.0, 0.0
    assert optimal_contributions(1, [2], prof, params) == (0.0, 0.5)


def test_optimal_contributions_boundary_exact_coverage():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    prof.x[2], prof.y[2] = 0.5, 0.5
    assert optimal_contributions(1, [2], prof, params) == (0.0, 0.0)


def test_gains_from_link_closed_form_cross_check():
    # isolated taste-0.9 player linking the full x specialist:
    # gain = c*x_hat_p + t_p*(f(x_hat_1) - f(x_hat_p))
    params = _params([0.0, 0.9, 1.0], k=0.994)
    prof = StrategyProfile.isolated(params)
    prof.y[2] = 0.0
    expected = 1.0 * 0.9 + 0.9 * (math.log(1.0) - math.log(0.9))
    got = gains_from_link(prof, 1, 2, ADD, params)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.9948244644, abs=1e-9)


def test_gains_from_link_zero_provider():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    prof.x[0], prof.y[0] = 0.0, 0.0
    assert gains_from_link(prof, 1, 0, ADD, params) == pytest.approx(0.0, abs=1e-12)


def test_gains_add_delete_symmetry(rng):
    for _ in range(25):
        params = random_scenario(rng, 5)
        prof = StrategyProfile.isolated(params)
        i, j = rng.choice(5, size=2, replace=False)
        i, j = int(i), int(j)
        gl_add = gains_from_link(prof, i, j, ADD, params)
        xi, yi = optimal_contributions(i, [j], prof, params)
        prof.set_strategy(i, [j], xi, yi)
        gl_del = gains_from_link(prof, i, j, DELETE, params)
        assert gl_add == pytest.approx(gl_del, abs=1e-9)


def test_gains_invariant_to_target_links(rng):
    params = random_scenario(rng, 6)
    prof = StrategyProfile.isolated(params)
    before = gains_from_link(prof, 1, 3, ADD, params)
    prof.g[3, 5] = 1  # target's own links carry no provision
    after = gains_from_link(prof, 1, 3, ADD, params)
    assert before == after


def test_gains_preconditions():
    params = _params([0.0, 0.5, 1.0])
    prof = StrategyProfile.isolated(params)
    with pytest.raises(IndexError):
        gains_from_link(prof, 1, 1, ADD, params)
    with pytest.raises(ValueError):
        gains_from_link(prof, 1, 2, DELETE, params)
    prof.g[1, 2] = 1
    with pytest.raises(ValueError):
        gains_from_link(prof, 1, 2, ADD, params)


def test_best_response_isolation_when_links_too_dear():
    params = _params([0.0, 0.5, 1.0], k=5.0)
    prof = StrategyProfile.isolated(params)
    prof.x[:] = 0.0
    prof.y[:] = 0.0
    br = best_response(1, prof, params)
    assert br.links == ()
    assert (br.x, br.y) == (0.5, 0.5)


def test_best_response_links_both_specialists():
    params = _params([0.0, 0.5, 1.0], k=0.5)
    prof = StrategyProfile.isolated(params)
    prof.x[0], prof.y[0] = 0.0, 1.0
    prof.x[2], prof.y[2] = 1.0, 0.0
    br = best_response(1, prof, params)
    assert br.links == (0, 2)
    assert (br.x, br.y) == (0.0, 0.0)
    assert br.utility == pytest.approx(-1.0, abs=1e-12)


def test_best_response_satisfies_consumption_floor(rng):
    # consumption covers isolation demand per good, exactly when active
    for _ in range(20):
        params = random_scenario(rng, 6)
        prof = StrategyProfile.isolated(params)
        for i in range(6):
            br = best_response(i, prof, params)
            x_bar = float(prof.x[list(br.links)].sum())
            y_bar = float(prof.y[list(br.links)].sum())
            assert br.x + x_bar >= params.x_hat[i] - 1e-9
            assert br.y + y_bar >= params.y_hat[i] - 1e-9
            if br.x > 0:
                assert br.x + x_bar == pytest.approx(params.x_hat[i], abs=1e-9)
            if br.y > 0:
                assert br.y + y_bar == pytest.approx(params.y_hat[i], abs=1e-9)


def test_best_response_beats_random_alternatives(rng):
    params = random_scenario(rng, 7)
    prof = StrategyProfile.isolated(params)
    prof.x[3], prof.y[3] = 1.0, 1.0
    br = best_response(2, prof, params)
    trial = prof.copy()
    for _ in range(100):
        targets = [j for j in range(7) if j != 2 and rng.random() < 0.4]
        xi, yi = rng.uniform(0.0, 2.0, size=2)
        trial.set_strategy(2, targets, float(xi), float(yi))
        assert utility(trial, 2, params) <= br.utility + 1e-9


def _pinned_response(search, i, profile, params):
    """best_response with the kernel's breadth pinned to BREADTHS[search] at
    any n."""
    with pinned_breadth(search):
        return best_response(i, profile, params)


def test_structural_mode_tracks_exact(rng):
    hits = total = 0
    for _ in range(100):
        params = random_scenario(rng, int(rng.integers(5, 11)))
        prof = StrategyProfile.isolated(params)
        # realistic state: one greedy pass of exact responses
        for i in range(params.n):
            br = _pinned_response("exact", i, prof, params)
            if br.utility > utility(prof, i, params):
                prof.set_strategy(i, br.links, br.x, br.y)
        for i in range(params.n):
            exact = _pinned_response("exact", i, prof, params)
            struct = _pinned_response("structural", i, prof, params)
            assert struct.utility <= exact.utility + 1e-9
            total += 1
            if abs(struct.utility - exact.utility) <= 1e-9:
                hits += 1
    assert hits / total >= 0.95


def _structural_candidates_reference(i, profile, params):
    """The list-based candidate set that the array version replaced."""
    receivers = np.flatnonzero(profile.in_degree() >= 1)
    provision = profile.x + profile.y
    order = np.lexsort((np.arange(params.n), -provision))
    top = [j for j in order if j != i][:4]
    cand = set(receivers.tolist()) | set(top)
    cand.discard(i)
    return np.array(sorted(cand), dtype=int)


def test_structural_candidates_match_reference(rng):
    kept = dropped = 0
    for trial in range(120):
        params = random_scenario(rng, int(rng.integers(3, 60)))
        n = params.n
        # two state rows; kernel row r asks for player r % n against row r // n
        profiles = []
        for _ in range(2):
            if trial % 2:
                # few provision levels, so the top-provider ranking meets ties
                x = rng.choice([0.0, 0.5, 1.0], n)
                y = rng.choice([0.0, 0.5], n)
            else:
                x, y = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            g = (rng.random((n, n)) < rng.choice([0.0, 0.05, 0.3])).astype(np.int8)
            np.fill_diagonal(g, 0)
            profiles.append(StrategyProfile(x, y, g))
        X, Y = np.array([p.x for p in profiles]), np.array([p.y for p in profiles])
        indeg = np.array([p.in_degree() for p in profiles])
        players, src = np.tile(np.arange(n), 2), np.repeat([0, 1], n)
        table, count = _candidate_table(players, src, X, Y, indeg, params, 4)
        assert np.array_equal(count, (table < n).sum(axis=1))
        assert table.dtype.kind == "i" and table.shape == (2 * n, count.max() + 1)
        for r, (i, s) in enumerate(zip(players.tolist(), src.tolist())):
            prof = profiles[s]
            pool = _structural_candidates_reference(i, prof, params)
            pays = _link_gain(i, prof.x[pool], prof.y[pool], params) > params.k - EPS_DEV
            assert np.array_equal(table[r, : count[r]], pool[pays]), (trial, r)
            assert (table[r, count[r]:] == n).all(), (trial, r)
            kept, dropped = kept + pays.sum(), dropped + (~pays).sum()
    # both sides of the pruning rule occur
    assert kept > 1000 and dropped > 1000


def test_batched_best_response_chunks_match_single_rows(rng):
    # at k = 1e-3 every opponent who provides anything is a candidate: at
    # n = 13 a pass holds about two rows and at n = 16 one row, so the rows
    # take many passes, and rows with a share of idle opponents have fewer
    # candidates, so passes differ in width
    for n, b in ((13, 20), (16, 3)):
        params = random_scenario(rng, n).with_k(1e-3)
        active = rng.uniform(size=(b, n)) < rng.choice([0.6, 1.0], size=(b, 1))
        X = params.x_hat * rng.uniform(0.1, 1.5, size=(b, n)) * active
        Y = params.y_hat * rng.uniform(0.1, 1.5, size=(b, n)) * active
        players = rng.integers(0, n, size=b)
        src, indeg = np.arange(b), np.zeros((b, n), dtype=int)
        count = _candidate_table(players, src, X, Y, indeg, params, n - 1)[1]
        assert count.max() >= n - 2 and len(set(count.tolist())) > 1
        assert b > _KERNEL_CHUNK // 2 ** count.max()
        with pinned_breadth("exact"):
            links, x, y, util = _responses(players, src, X, Y, indeg, params)
        want = unpruned_exact_responses(players, X, Y, params)
        for r in range(b):
            prof = StrategyProfile(X[r], Y[r], np.zeros((n, n)))
            br = _pinned_response("exact", int(players[r]), prof, params)
            assert tuple(np.flatnonzero(links[r]).tolist()) == br.links
            assert (x[r], y[r], util[r]) == (br.x, br.y, br.utility)
            if n == 13:  # where best_response is exact too
                assert best_response(int(players[r]), prof, params) == br
        # the kernel before pruning summed subsets as a product, so only
        # the last bit of a utility may differ
        assert np.array_equal(links, want[0])
        assert np.array_equal(x, want[1]) and np.array_equal(y, want[2])
        assert util == pytest.approx(want[3], rel=1e-12)


def test_structural_kernel_chunks_match_single_rows(rng):
    # about 20 candidates a row: one pass of the kernel holds a few rows,
    # so 20 rows take several passes; below EPS_DEV, k - EPS_DEV is below
    # every gain, so pruning keeps every candidate
    n, b = 60, 20
    params = random_scenario(rng, n).with_k(EPS_DEV / 2)
    X = params.x_hat * rng.uniform(0.0, 1.5, size=(b, n))
    Y = params.y_hat * rng.uniform(0.0, 1.5, size=(b, n))
    indeg = (rng.random((b, n)) < rng.uniform(0.2, 0.3, size=(b, 1))).astype(int)
    players, src = rng.integers(0, n, size=b), np.arange(b)
    width = _candidate_table(players, src, X, Y, indeg, params, 4)[0].shape[1]
    assert width > 20
    assert 1 < _KERNEL_CHUNK // len(_subset_members(width - 1, 3)[0]) < b
    assert br_module._breadth(n) == (4, 3)
    batch = _responses(players, src, X, Y, indeg, params)
    for r in range(b):
        one = _responses(players[r : r + 1], np.zeros(1, dtype=int), X[r : r + 1],
                         Y[r : r + 1], indeg[r : r + 1], params)
        for got, alone in zip(batch, one):
            assert got[r].tobytes() == alone[0].tobytes()


def test_best_response_tie_band_prefers_fewer_links():
    # k is tuned so that the best linked strategy beats staying isolated by
    # a margin just inside EPS_DEV, then just outside it
    base = _params([0.0, 0.4, 1.0])
    prof = StrategyProfile(np.array([0.0, base.x_hat[1], base.x_hat[2]]),
                           np.array([base.y_hat[0], base.y_hat[1], 0.0]), np.zeros((3, 3)))
    gross = {}
    for links in ((), (0,), (2,), (0, 2)):
        trial = prof.copy()
        trial.set_strategy(1, links, *optimal_contributions(1, links, prof, base))
        gross[links] = utility(trial, 1, base) + base.k * len(links)

    def margin(k):
        return max(g - k * len(s) for s, g in gross.items() if s) - gross[()]

    for target, want_empty in ((0.5 * EPS_DEV, True), (2.0 * EPS_DEV, False)):
        lo, hi = 1e-6, 10.0  # margin(lo) > target > margin(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if margin(mid) > target else (lo, mid)
        params = base.with_k(lo)
        assert abs(margin(lo) - target) < 0.1 * EPS_DEV
        br = best_response(1, prof, params)
        links, x, y, util = unpruned_exact_responses(np.array([1]), prof.x[None], prof.y[None],
                                                     params)
        assert (br.links == ()) is want_empty
        assert tuple(np.flatnonzero(links[0]).tolist()) == br.links
        assert (x[0], y[0]) == (br.x, br.y)
        assert util[0] == pytest.approx(br.utility, rel=1e-12)


def test_no_deviation_from_constructed_equilibrium(rng):
    for _ in range(10):
        params = random_scenario(rng, 6)
        prof = construct_independent(params)
        assert find_profitable_deviation(prof, params) is None


def test_deviation_found_when_links_are_cheap():
    params = _params([0.0, 0.5, 1.0], k=0.01)
    prof = StrategyProfile.isolated(params)
    dev = find_profitable_deviation(prof, params)
    assert dev is not None
    assert dev.new_links


def test_deviation_found_for_zero_contributions():
    params = _params([0.0, 0.5, 1.0], k=5.0)
    prof = StrategyProfile.isolated(params)
    prof.x[:] = 0.0
    prof.y[:] = 0.0
    dev = find_profitable_deviation(prof, params)
    assert dev is not None
    assert dev.player == 0
    assert dev.new_links == ()
    assert dev.new_y == pytest.approx(params.y_hat[0], abs=1e-12)


def test_deviation_search_fails_loudly_on_a_nan_utility():
    # StrategyProfile rejects NaN, so the states enter through the array
    # seam: links are too dear here, so isolation is an equilibrium, and a
    # NaN would compare as "no deviation"
    params = _params([0.0, 0.5, 1.0], k=5.0)
    X, Y = np.tile(params.x_hat, (2, 1)), np.tile(params.y_hat, (2, 1))
    G, game = np.zeros((2, 3, 3), dtype=np.int8), np.zeros(2, dtype=int)
    assert _deviations(params, game, X, Y, G) == [None, None]
    # the spillover product carries player 2's NaN x into every current
    # utility of row 1, and player 0, who ignores x, passes it by
    X[1, 2] = np.nan
    with pytest.raises(ValueError, match="player 1 has a NaN utility in profile row 1"):
        _deviations(params, game, X, Y, G)
    # a current utility of -inf (player 0 consumes no y) is a deviation
    X[1, 2], Y[1, 0] = params.x_hat[2], 0.0
    found = _deviations(params, game, X, Y, G)
    assert found[0] is None and found[1].player == 0 and found[1].utility_gain == np.inf


def _deviation_reference(profile, params, search):
    """The per-player loop find_profitable_deviation ran before it searched
    every player in one kernel call, with the breadth pinned to search."""
    for i in range(params.n):
        current = utility(profile, i, params)
        br = _pinned_response(search, i, profile, params)
        if br.utility > current + EPS_DEV:
            return Deviation(i, br.links, br.x, br.y, br.utility - current)
    return None


@pytest.mark.parametrize("chunk", [_KERNEL_CHUNK, 64])
@pytest.mark.parametrize("search", ["exact", "structural"])
def test_batched_deviation_search_matches_per_player_loop(rng, monkeypatch, search, chunk):
    # at chunk 64 the players are searched in blocks of 64 // n, and the
    # search stops at the first block with a deviator; the breadth is exact
    # up to the largest n with 2^(n - 1) <= chunk and structural above it
    monkeypatch.setattr(br_module, "_KERNEL_CHUNK", chunk)
    switch = chunk.bit_length()
    real, calls = br_module._responses, []

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    later = 0
    for trial in range(30):
        n = int(rng.integers(3, switch + 1) if search == "exact" else rng.integers(switch + 1, 60))
        assert br_module._breadth(n) == BREADTHS[search](n)
        params = random_scenario(rng, n)
        if trial % 3 == 2:
            g = (rng.random((n, n)) < rng.choice([0.05, 0.2, 0.5])).astype(np.int8)
            np.fill_diagonal(g, 0)
            x = params.x_hat * rng.uniform(0.0, 1.2, n) * (rng.random(n) < 0.7)
            y = params.y_hat * rng.uniform(0.0, 1.2, n) * (rng.random(n) < 0.7)
            prof = StrategyProfile(x, y, g)
        else:
            # an equilibrium, and on every other trial one player moved off it
            prof = construct_independent(params)
            if trial % 3 == 1:
                j = int(rng.integers(n))
                targets = [t for t in range(n) if t != j and rng.random() < 0.2]
                prof.set_strategy(j, targets, params.x_hat[j] * rng.uniform(0.0, 1.2),
                                  params.y_hat[j] * rng.uniform(0.0, 1.2))
        want = _deviation_reference(prof, params, search)
        calls.clear()
        monkeypatch.setattr(br_module, "_responses", counting)
        assert find_profitable_deviation(prof, params) == want, trial
        monkeypatch.setattr(br_module, "_responses", real)
        step = max(1, chunk // n)
        searched = n if want is None else (want.player // step + 1) * step
        assert sum(calls) == min(searched, n) and max(calls) <= step, trial
        later += want is not None and want.player > 0
    assert later >= 5


@pytest.mark.parametrize("n,search", [(14, "exact"), (15, "structural")])
def test_search_is_exact_up_to_n_14_and_structural_above(rng, n, search):
    # n = 14 is the last n whose 2^(n - 1) opponent subsets fit one kernel
    # pass, so the breadth is every opponent and any number of links up to
    # it and (4, 3) above.  Cheap links against many small providers make
    # exact responses take four or more links, out of the structural
    # breadth's reach, so the two breadths disagree and the public calls
    # must match the right one.
    assert br_module._breadth(n) == BREADTHS[search](n)
    other = {"exact": "structural", "structural": "exact"}[search]
    disagree = deviating = 0
    for trial in range(4):
        params = random_scenario(rng, n).with_k(1e-3)
        if trial % 2:
            prof = construct_independent(params)
        else:
            g = (rng.random((n, n)) < 0.1).astype(np.int8)
            np.fill_diagonal(g, 0)
            prof = StrategyProfile(params.x_hat * rng.uniform(0.0, 0.3, n),
                                   params.y_hat * rng.uniform(0.0, 0.3, n), g)
        for i in range(n):
            br = best_response(i, prof, params)
            assert br == _pinned_response(search, i, prof, params), (trial, i)
            disagree += br != _pinned_response(other, i, prof, params)
        want = _deviation_reference(prof, params, search)
        assert find_profitable_deviation(prof, params) == want, trial
        deviating += want is not None
    assert disagree > 0 and deviating > 0


def test_subset_count_matches_the_enumeration():
    # the sum of C(m, s) over s <= cap is the enumerator's subset count, and
    # 2^m at cap >= m, for scalar and array m
    for m in range(15):
        for cap in range(m + 1):
            assert _subset_count(m, cap) == len(_subset_members(m, cap)[1]), (m, cap)
        for cap in (m, m + 1, 20):
            assert _subset_count(m, cap) == 2**m
    m = np.arange(15)
    for cap in range(16):
        want = [len(_subset_members(int(v), min(cap, int(v)))[1]) for v in m]
        assert _subset_count(m, cap).tolist() == want, cap
    assert _subset_count(np.array([60, 250]), 3).tolist() == [
        sum(math.comb(v, s) for s in range(4)) for v in (60, 250)]

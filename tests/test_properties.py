"""Property tests of the paper's invariants on the n <= 4 brute-force oracle,
of its one-way and two-way Nash checks on symmetric digraphs, of the
batched exact best response against full subset enumeration, of the
batched structural best response against the scalar search it replaced, of
the pruned kernel at both breadths against the unpruned one, of a batch of
games against each game solved alone, and of a game group's welfare pass and
deviation search against the one-profile calls."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netpublic import (
    EPS_DEV,
    BenefitSpec,
    GameParams,
    StrategyProfile,
    best_response,
    brute_force_equilibria,
    find_profitable_deviation,
    k_tilde,
    optimal_contributions,
    utility,
    verify_nash,
    welfare_max_equilibria,
    welfare_max_equilibrium,
)
from netpublic import cli
from netpublic import equilibrium as eq
from netpublic import metrics
from netpublic.best_response import (
    _KERNEL_CHUNK,
    _deviations,
    _link_gain,
    _responses,
    _subset_members,
    _top_up,
)
from netpublic.metrics import _welfare_totals, welfare
from netpublic.model import _GameStack
from tests.conftest import (
    FAMILIES,
    gross_utilities,
    pinned_breadth,
    subset_matrix,
    unpruned_exact_responses,
)

# derandomized, so tier-1 runs the same examples every time
ORACLE_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@st.composite
def small_games(draw, u_low=0.05, u_high=1.2):
    """A game on 3 or 4 players with k = u * k_tilde, as in criterion 2."""
    n = draw(st.sampled_from([3, 4]))
    # interior types stay 0.02 away from the extremes: the top-up dynamic
    # needs about 1/t sweeps near t = 0, which only slows the run
    interior = draw(st.lists(st.floats(0.02, 0.98), min_size=n - 2, max_size=n - 2,
                             unique=True))
    spec = draw(st.sampled_from(FAMILIES))
    c = draw(st.floats(0.5, 2.0))
    u = draw(st.floats(u_low, u_high))
    types = np.array([0.0, *sorted(interior), 1.0])
    k = u * k_tilde(GameParams(types, c, 1.0, spec))
    return GameParams(types, c, k, spec)


@ORACLE_SETTINGS
@given(small_games(u_low=1.01, u_high=3.0))
def test_above_threshold_only_the_empty_network(params):
    assert params.k > k_tilde(params)
    eqs = brute_force_equilibria(params)
    assert len(eqs) == 1
    assert eqs[0].g.sum() == 0
    assert np.array_equal(eqs[0].x, params.x_hat) and np.array_equal(eqs[0].y, params.y_hat)


@ORACLE_SETTINGS
@given(small_games())
def test_oracle_members_reverify(params):
    eqs = brute_force_equilibria(params)
    assert eqs
    for prof in eqs:
        assert verify_nash(prof, params).classification != "NonEquilibrium"


@ORACLE_SETTINGS
@given(small_games())
def test_oracle_members_meet_consumption_floor(params):
    # consumption covers autarky demand per good, exactly so where active
    for prof in brute_force_equilibria(params):
        cons_x, cons_y = prof.consumption()
        assert np.all(cons_x >= params.x_hat - 1e-9)
        assert np.all(cons_y >= params.y_hat - 1e-9)
        assert np.allclose(cons_x[prof.x > 0], params.x_hat[prof.x > 0], atol=1e-9)
        assert np.allclose(cons_y[prof.y > 0], params.y_hat[prof.y > 0], atol=1e-9)


@ORACLE_SETTINGS
@given(small_games())
def test_oracle_members_survive_the_json_round_trip(params):
    # written as a report writes a profile (12 significant digits), read
    # back as verify reads it, the profile re-verifies as the same class
    for prof in brute_force_equilibria(params):
        text = json.dumps(cli._round_sig(cli._profile_payload(prof)))
        back = cli._profile_from_payload(json.loads(text), params.n)
        assert np.array_equal(back.g, prof.g)
        want = verify_nash(prof, params).classification
        assert verify_nash(back, params).classification == want


@st.composite
def symmetric_cases(draw):
    """A game as in small_games and a symmetric digraph on its players."""
    params = draw(small_games())
    n = params.n
    upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = np.zeros((n, n))
    g[np.triu_indices(n, 1)] = upper
    return params, g + g.T


@ORACLE_SETTINGS
@given(symmetric_cases())
def test_two_way_verdicts_on_symmetric_digraphs(case):
    # G = G^T is its own undirected closure, so both flows solve the same
    # fixed points and price deviations alike, except that under two-way
    # flow whoever links to a player is reached for free: the one-way verdict
    # is the exact deviation search's, the two-way one agrees on the empty
    # graph, and elsewhere a mutual link is dropped at a gain of k
    params, g = case
    rows, X, Y = eq._contribution_profiles(g[None], eq._active_set_tables(params))
    assert rows.size >= 1
    G = np.repeat(g[None], rows.size, axis=0)
    one_way = eq._nash_stable(G, X, Y, params, two_way=False)
    two_way = eq._nash_stable(G, X, Y, params, two_way=True)
    want = [find_profitable_deviation(StrategyProfile(x, y, g), params) is None
            for x, y in zip(X, Y)]
    assert one_way.tolist() == want
    assert two_way.tolist() == (want if not g.any() else [False] * rows.size)


@st.composite
def kernel_cases(draw):
    """A game on 3 to 10 players and up to 4 rows of contributions, each
    with the player who best-responds in that row."""
    n = draw(st.integers(3, 10))
    interior = draw(st.lists(st.floats(0.001, 0.999), min_size=n - 2, max_size=n - 2,
                             unique=True))
    spec = draw(st.sampled_from(FAMILIES))
    types = np.array([0.0, *sorted(interior), 1.0])
    params = GameParams(types, draw(st.floats(0.5, 2.0)), draw(st.floats(0.005, 1.5)), spec)
    b = draw(st.integers(1, 4))
    # a share of each player's autarky demand: 0 and 1 recur, so ties occur
    share = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.5))
    X = np.array([draw(st.lists(share, min_size=n, max_size=n)) for _ in range(b)])
    Y = np.array([draw(st.lists(share, min_size=n, max_size=n)) for _ in range(b)])
    players = np.array(draw(st.lists(st.integers(0, n - 1), min_size=b, max_size=b)))
    return params, players, X * params.x_hat, Y * params.y_hat


def _enumerated_best_response(i, profile, params):
    """Every link subset in (size, lex) order, priced through model.utility;
    the first within EPS_DEV of the maximum wins."""
    others = [j for j in range(params.n) if j != i]
    options = []
    for size in range(len(others) + 1):
        for links in itertools.combinations(others, size):
            trial = profile.copy()
            trial.set_strategy(i, links, *optimal_contributions(i, links, profile, params))
            options.append((utility(trial, i, params), links, trial.x[i], trial.y[i]))
    best = max(u for u, *_ in options)
    return next(opt for opt in options if opt[0] >= best - EPS_DEV)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(kernel_cases())
def test_batched_best_response_matches_single_and_enumeration(case):
    params, players, X, Y = case
    src, indeg = np.arange(len(players)), np.zeros(X.shape, dtype=int)
    links, x, y, util = _responses(players, src, X, Y, indeg, params)
    want = unpruned_exact_responses(players, X, Y, params)
    for r, i in enumerate(players.tolist()):
        profile = StrategyProfile(X[r], Y[r], np.zeros((params.n, params.n)))
        br = best_response(i, profile, params)
        assert tuple(np.flatnonzero(links[r]).tolist()) == br.links
        assert x[r].tobytes() == np.float64(br.x).tobytes()
        assert y[r].tobytes() == np.float64(br.y).tobytes()
        assert util[r].tobytes() == np.float64(br.utility).tobytes()
        # the kernel before pruning: same choice, and sums in another order
        # may move only the last bit of the utility
        assert np.array_equal(links[r], want[0][r])
        assert (x[r], y[r]) == (want[1][r], want[2][r])
        assert util[r] == pytest.approx(want[3][r], rel=1e-12)
        u, choice, want_x, want_y = _enumerated_best_response(i, profile, params)
        assert br.links == choice
        assert br.x == pytest.approx(want_x, abs=1e-12)
        assert br.y == pytest.approx(want_y, abs=1e-12)
        assert br.utility == pytest.approx(u, abs=1e-9)


@st.composite
def structural_cases(draw, max_n=120):
    """A game on 3 to max_n players and 1 to 10 rows, each with its own
    contributions, in-degrees and best-responding player.  Receiver shares
    differ between rows, so candidate counts differ and rows are padded;
    provision drawn from a few levels makes the provider ranking meet ties."""
    n = draw(st.integers(3, max_n))
    b = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = np.array([0.0, *np.sort(rng.uniform(0.001, 0.999, n - 2)), 1.0])
    spec = draw(st.sampled_from(FAMILIES))
    params = GameParams(types, draw(st.floats(0.5, 2.0)), draw(st.floats(0.005, 1.5)), spec)
    if draw(st.booleans()):
        X, Y = rng.choice([0.0, 0.25, 0.5], (b, n)), rng.choice([0.0, 0.5], (b, n))
    else:
        X = rng.uniform(0.0, 1.5, (b, n)) * params.x_hat
        Y = rng.uniform(0.0, 1.5, (b, n)) * params.y_hat
    share = rng.choice([0.0, 0.02, 0.1, 0.3], (b, 1))
    indeg = rng.integers(1, 4, (b, n)) * (rng.random((b, n)) < share)
    players = rng.integers(0, n, b)
    return params, players, X, Y, indeg


def _structural_reference(i, x, y, receivers, params):
    """The scalar structural search best_response ran before the batched
    kernel: receivers plus the 4 largest providers, subsets of at most 3."""
    cand = receivers.copy()
    top = np.argsort(-(x + y), kind="stable")[:5]
    cand[top[top != i][:4]] = True
    cand[i] = False
    cand = np.flatnonzero(cand)
    subsets = subset_matrix(len(cand), 3)
    profile = StrategyProfile(x, y, np.zeros((params.n, params.n)))
    util, xi, yi = gross_utilities(i, cand, subsets, profile, params)
    idx = int(np.argmax(util >= np.max(util) - EPS_DEV))
    return tuple(cand[subsets[idx].astype(bool)].tolist()), xi[idx], yi[idx], util[idx]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(structural_cases())
def test_structural_kernel_matches_batch_of_one_and_scalar_search(case):
    params, players, X, Y, indeg = case
    with pinned_breadth("structural"):
        batch = _responses(players, np.arange(len(players)), X, Y, indeg, params)
        ones = [_responses(players[r : r + 1], np.zeros(1, dtype=int), X[r : r + 1],
                           Y[r : r + 1], indeg[r : r + 1], params) for r in range(len(players))]
    for r, (i, one) in enumerate(zip(players.tolist(), ones)):
        for got, alone in zip(batch, one):
            assert got[r].tobytes() == alone[0].tobytes()
        links, x, y, u = _structural_reference(i, X[r], Y[r], indeg[r] > 0, params)
        assert tuple(np.flatnonzero(batch[0][r]).tolist()) == links
        assert batch[1][r] == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert batch[2][r] == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert batch[3][r] == pytest.approx(u, rel=1e-12)


def _unpruned_candidates(search, players, X, Y, indeg):
    """Candidates before pruning, one state row per kernel row, padded with
    n to the batch maximum: every opponent at the exact breadth, the
    receivers plus the top 4 providers at the structural one."""
    b, n = len(players), X.shape[1]
    if search == "exact":
        cand = np.ones((b, n), dtype=bool)
    else:
        top = np.argsort(-(X + Y), axis=1, kind="stable")[:, :5]
        keep = top != players[:, None]
        keep &= np.cumsum(keep, axis=1) <= 4
        cand = indeg > 0
        cand[np.nonzero(keep)[0], top[keep]] = True
    cand[np.arange(b), players] = False
    count = cand.sum(axis=1)
    table = np.full((b, count.max() + 1), n)
    r, j = np.nonzero(cand)
    table[r, np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)] = j
    return table


def _unpruned_responses(search, players, X, Y, indeg, params):
    """The candidate-table kernel as it was before submodular pruning: every
    subset of the unpruned candidates (at most 3 of them at the structural
    breadth), padded slots providing 0, all rows in one pass."""
    b, n = len(players), X.shape[1]
    table = _unpruned_candidates(search, players, X, Y, indeg)
    m = table.shape[1] - 1
    slots, sizes = _subset_members(m, m if search == "exact" else 3)
    cols = np.arange(b)[:, None], np.minimum(table, n - 1)
    xs, ys = np.where(table < n, X[cols], 0.0), np.where(table < n, Y[cols], 0.0)
    x_bar, y_bar = xs[:, slots[:, 0]], ys[:, slots[:, 0]]
    for col in slots.T[1:]:
        x_bar, y_bar = x_bar + xs[:, col], y_bar + ys[:, col]
    gross, xi, yi = _top_up(players[:, None], x_bar, y_bar, params)
    util = gross - params.k * sizes
    pick = np.argmax(util >= util.max(axis=1)[:, None] - EPS_DEV, axis=1)
    links = np.zeros((b, n + 1), dtype=np.int8)
    links[np.arange(b)[:, None], np.take_along_axis(table, slots[pick], axis=1)] = 1
    at = np.arange(b), pick
    return links[:, :n], xi[at], yi[at], util[at]


@st.composite
def pruning_cases(draw):
    """structural_cases at either breadth (exact at n <= 12) with per-player
    costs in half the games, kernel rows mapped onto 1 to 4 state rows, and
    k in three quarters of the games set to a candidate's link gain, or that
    gain plus or minus EPS_DEV."""
    search = draw(st.sampled_from(["structural", "exact"]))
    params, _, X, Y, indeg = draw(structural_cases(max_n=12 if search == "exact" else 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, rows = params.n, len(X)
    if draw(st.booleans()):
        params = params.with_costs(params.c * rng.uniform(0.3, 1.5, n))
    b = draw(st.integers(1, 12))
    players, src = rng.integers(0, n, b), rng.integers(0, rows, b)
    edge = draw(st.sampled_from([None, -1, 0, 1]))
    if edge is not None:
        table = _unpruned_candidates(search, players, X[src], Y[src], indeg[src])
        r, c = np.nonzero(table < n)
        j = table[r, c]
        gains = _link_gain(players[r], X[src[r], j], Y[src[r], j], params)
        gains = gains[gains > 2 * EPS_DEV]
        if gains.size:
            params = params.with_k(float(gains[rng.integers(gains.size)]) + edge * EPS_DEV)
    return search, params, players, src, X, Y, indeg


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pruning_cases())
def test_pruned_structural_kernel_matches_unpruned(case):
    search, params, players, src, X, Y, indeg = case
    with pinned_breadth(search):
        got = _responses(players, src, X, Y, indeg, params)
    want = _unpruned_responses(search, players, X[src], Y[src], indeg[src], params)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@st.composite
def game_families(draw):
    """2 to 6 games on one society, as the subsidy planner and sweep_k pose
    them: each game has its own k and, in about half of them, its own
    per-player costs, on either side of the search's switch: n <= 14, where
    it is exact, and n = 15 to 30, where it is structural."""
    n = draw(st.integers(3, 14) if draw(st.booleans()) else st.integers(15, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    types = np.array([0.0, *np.sort(rng.uniform(0.001, 0.999, n - 2)), 1.0])
    spec = draw(st.sampled_from(FAMILIES))
    c = draw(st.floats(0.5, 2.0))
    games = []
    for _ in range(draw(st.integers(2, 6))):
        costs = c * rng.uniform(0.5, 1.5, n) if rng.random() < 0.5 else None
        probe = GameParams(types, c, 1.0, spec, costs)
        games.append(probe.with_k(float(rng.uniform(0.05, 1.1)) * k_tilde(probe)))
    return games


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(game_families())
def test_game_batch_matches_each_games_own_solve(games):
    # each row of the lockstep batch reads its own game's types, costs and
    # k; a row reading another game's would change that game's answer
    got = list(welfare_max_equilibria(games))
    assert len(got) == len(games)
    for (prof, report), params in zip(got, games):
        want, want_report = welfare_max_equilibrium(params)
        assert prof.g.tobytes() == want.g.tobytes()
        assert prof.x.tobytes() == want.x.tobytes() and prof.y.tobytes() == want.y.tobytes()
        assert report.classification == want_report.classification
        assert report.contributors == want_report.contributors


def _assert_priced_like_welfare(games, X, Y, G, game):
    """One group pass prices every profile row as metrics.welfare prices it
    alone, and as per-player utility calls summed left to right, bit for bit."""
    got = _welfare_totals(_GameStack.of(games), game, X, Y, G)
    for r, g in enumerate(game.tolist()):
        prof, params = StrategyProfile(X[r], Y[r], G[r]), games[g]
        want = welfare(prof, params)[0]
        summed = sum(utility(prof, i, params) for i in range(params.n))
        assert got[r].tobytes() == np.float64(want).tobytes() == np.float64(summed).tobytes()
    return got


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(game_families())
def test_group_welfare_pass_matches_welfare_bit_for_bit(games):
    _, X, Y, G, game, _ = eq._candidates(games)
    _assert_priced_like_welfare(games, X, Y, G, game)


def test_group_welfare_pass_splits_within_its_row_bound_and_keeps_minus_inf(monkeypatch):
    # 12 log games at n = 10 hold well over the 81 profiles of one pass
    rng = np.random.default_rng(20261019)
    types = np.array([0.0, *np.sort(rng.uniform(0.001, 0.999, 8)), 1.0])
    games = [GameParams(types, 1.0, k, BenefitSpec.log()) for k in np.linspace(0.05, 0.6, 12)]
    _, X, Y, G, game, _ = eq._candidates(games)
    # and one dominated row: an interior player consumes no x
    dominated = StrategyProfile.isolated(games[0])
    dominated.x[4] = 0.0
    X, Y, G = (np.concatenate([A, a[None]])
               for A, a in ((X, dominated.x), (Y, dominated.y), (G, dominated.g)))
    game = np.append(game, 0)
    real, rows = metrics.utilities, []

    def recording(params, players, X, Y, links):
        rows.append(len(X))
        return real(params, players, X, Y, links)

    monkeypatch.setattr(metrics, "utilities", recording)
    _welfare_totals(_GameStack.of(games), game, X, Y, G)
    monkeypatch.undo()
    assert len(rows) >= 2 and max(rows) <= max(10, _KERNEL_CHUNK // 10)
    assert sum(rows) == 10 * len(X)
    got = _assert_priced_like_welfare(games, X, Y, G, game)
    assert got[-1] == -np.inf and np.isfinite(got[:-1]).all()


def _holds_by_scalar_loop(prof, params):
    """No player's best response beats their utility by more than EPS_DEV."""
    return all(best_response(i, prof, params).utility <= utility(prof, i, params) + EPS_DEV
               for i in range(params.n))


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(game_families())
def test_group_deviation_search_matches_each_profile_alone(games):
    # every profile row of a group (candidates and unsettled dynamics rows)
    # in one search, each read in its own game
    _, X, Y, G, game, _ = eq._candidates(games)
    found = _deviations(_GameStack.of(games), game, X, Y, G)
    for r, g in enumerate(game.tolist()):
        prof, params = StrategyProfile(X[r], Y[r], G[r]), games[g]
        assert found[r] == find_profitable_deviation(prof, params)
        if params.n <= 8:
            assert (found[r] is None) == _holds_by_scalar_loop(prof, params)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1))
def test_candidate_keys_match_links_and_rounded_contributions(n, seed):
    # 12 rows from 2 link matrices and 3 contribution patterns, where some
    # entries of 1/3 turn into 1/3 + 1e-12, which rounds alike at 10
    # decimals; 1/3 + 1e-9 does not
    rng = np.random.default_rng(seed)
    pool = (rng.random((2, n, n)) < 0.4).astype(np.int8)
    pool[:, np.arange(n), np.arange(n)] = 0
    G = pool[rng.integers(0, 2, 12)]
    codes = rng.integers(0, 4, (3, 2, n))[rng.integers(0, 3, 12)]
    codes[(codes == 2) & (rng.random(codes.shape) < 0.5)] = 4
    X, Y = np.array([0.0, 0.5, 1 / 3, 1 / 3 + 1e-9, 1 / 3 + 1e-12])[codes].transpose(1, 0, 2)
    keys = eq._keys(G, X, Y, np.arange(12))
    Xr, Yr = np.round(X, 10), np.round(Y, 10)
    shared = 0
    for r, s in itertools.combinations(range(12), 2):
        same = all(np.array_equal(A[r], A[s]) for A in (G, Xr, Yr))
        assert (keys[r] == keys[s]) == same
        shared += same
    # 12 rows of 6 (links, pattern) pairs: some two share a key
    assert shared >= 1

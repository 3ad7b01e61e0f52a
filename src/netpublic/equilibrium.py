"""Equilibrium construction, verification, and classification.

The constructive routine anchors the extreme types first and then lets the
remaining isolated players attach to successively less extreme anchors while
a link pays for itself.  The two-player-core constructors build the
collaborative variants on a given pair; the welfare-maximal search draws
its candidates from the isolated profile, the independent construction and
best-response dynamics.  Verification is a best-response scan;
classification reads the network structure: contributors are exactly the
players receiving links.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .best_response import (
    Deviation,
    _KERNEL_CHUNK,
    _deviations,
    _link_gain,
    _responses,
    _subset_members,
    _top_up,
    find_profitable_deviation,
)
from .metrics import _welfare_totals
from .model import EPS_DEV, GameParams, StrategyProfile, _GameStack, utilities

EMPTY = "Empty"
INDEPENDENT = "Independent"
COLLABORATIVE = "Collaborative"
PARTIALLY_COLLABORATIVE = "PartiallyCollaborative"
NON_EQUILIBRIUM = "NonEquilibrium"
STRUCTURE_VIOLATION = "StructureViolation"

ROUND_ROBIN = "round_robin"
RANDOM_PERMUTATION = "random_permutation"

# digraphs per block of the n <= 4 oracles: every digraph on 3 players.
# 256 runs n = 4 1.9x faster, but bench/run.py keeps every returned profile,
# so the extra tasks lift oracle-n4's peak_rss_mb past its bound
_ORACLE_BLOCK = 64
# slack of the oracle's active-set tests, relative to the largest demand
_ACTIVE_SET_TOL = 1e-12
_WELFARE_TIE_TOL = 1e-9
_DYNAMICS_STARTS = 8


class NonConvergenceError(RuntimeError):
    """An iterative routine hit its round budget or cycled."""


@dataclass
class EquilibriumReport:
    classification: str
    contributors: tuple[int, ...]
    periphery: tuple[int, ...]
    isolated: tuple[int, ...]
    violations: list[Deviation] = field(default_factory=list)
    note: str = ""


@dataclass(frozen=True)
class DynamicsConfig:
    max_rounds: int = 60
    order: str = ROUND_ROBIN
    seed: int = 0

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.order not in (ROUND_ROBIN, RANDOM_PERMUTATION):
            raise ValueError(f"unknown order {self.order!r}")


# ----------------------------------------------------------------------
# the empty-network threshold and constructive equilibria
# ----------------------------------------------------------------------

def k_tilde(params: GameParams) -> float:
    """Largest gross link gain anywhere on the empty network.

    The empty network is the unique equilibrium exactly when k exceeds this.
    """
    gains = _link_gain(np.arange(params.n)[:, None], params.x_hat, params.y_hat, params)
    np.fill_diagonal(gains, -np.inf)
    return float(np.max(gains))


def construct_independent(params: GameParams) -> StrategyProfile:
    """Build an equilibrium where contributors sponsor no links.

    Above the empty-network threshold this is the empty profile.  Otherwise
    the extreme types are fixed as specialized providers, every player for
    whom those links pay attaches, and the loop then repeatedly turns the
    most extreme remaining isolated player into an anchor and attaches
    whoever profits from linking them.  The greedy pass can leave boundary
    players attached to a worse anchor than one fixed later, so a
    deterministic best-response sweep repairs any residual deviations before
    the profile is returned; its first round is the check that none remain.
    """
    prof = _greedy_independent(params)
    try:
        return best_response_dynamics(prof, params, DynamicsConfig())
    except NonConvergenceError:
        return prof


def _greedy_independent(params: GameParams) -> StrategyProfile:
    """The greedy pass of construct_independent, one array pass per anchor.

    Players attaching to the same anchors do not affect each other: each
    compares their own autarky bundle with the anchors', and nobody links
    to them, so each anchor's attachments are one vectorised step.
    """
    n = params.n
    prof = StrategyProfile.isolated(params)
    if params.k > k_tilde(params):
        return prof

    # types 0 and 1 provide only their one good already at autarky
    lo, hi = 0, n - 1
    mid = np.arange(1, n - 1)
    pays = _link_gain(mid[:, None], prof.x[[hi, lo]], prof.y[[hi, lo]], params) >= params.k
    prof.g[mid[:, None], [hi, lo]] = pays
    _top_up_links(prof, mid, params)

    done = np.zeros(n, dtype=bool)
    done[[lo, hi]] = True
    done[mid] = pays.any(axis=1)
    extremeness = np.maximum(params.types, 1.0 - params.types)
    while not done.all():
        pending = np.flatnonzero(~done)
        # most extreme isolated player; ties resolved toward the lower index
        anchor = pending[np.argmax(extremeness[pending])]
        pending = pending[pending != anchor]
        join = pending[_link_gain(pending, prof.x[anchor], prof.y[anchor], params) >= params.k]
        prof.g[join, anchor] = 1
        _top_up_links(prof, join, params)
        done[anchor] = True
        done[join] = True
    return prof


def _top_up_links(prof: StrategyProfile, players: np.ndarray, params: GameParams) -> None:
    """Set each player's contributions to the top-up against their links.

    Every player here links at most two providers, so each spillover sum has
    one rounding in any summation order.
    """
    rows = prof.g[players]
    _, prof.x[players], prof.y[players] = _top_up(players, rows @ prof.x, rows @ prof.y, params)


def _attach_to_core(x, y, core: tuple[int, ...], params: GameParams) -> np.ndarray:
    """Give every non-core player of the profile (x, y) their best subset of
    links into the core: sets their contributions in place and returns the
    players' links as an n x n int8 matrix whose core rows are empty.

    One ``_top_up`` call prices every (non-core player, link option) pair:
    the options are ``_subset_members`` of the core in (size, lex) order,
    over the core's provisions padded with a zero slot, with each option's
    spillovers added left to right.  A player then steps through the options
    in that order and replaces their choice only when an option beats it by
    more than EPS_DEV.  Players are independent here because links only
    point into the core and the pass never changes the core's contributions.
    """
    core = sorted(core)
    outside = np.ones(params.n, dtype=bool)
    outside[core] = False
    others = np.flatnonzero(outside)
    slots, sizes = _subset_members(len(core), len(core))
    xs, ys = np.append(x[core], 0.0), np.append(y[core], 0.0)
    x_bar, y_bar = xs[slots[:, 0]], ys[slots[:, 0]]
    for col in slots.T[1:]:
        x_bar, y_bar = x_bar + xs[col], y_bar + ys[col]
    gross, xi, yi = _top_up(others[:, None], x_bar, y_bar, params)
    pick, best = np.zeros(others.size, dtype=int), np.full(others.size, -np.inf)
    for o, u in enumerate((gross - params.k * sizes).T):
        better = u > best + EPS_DEV
        pick[better], best[better] = o, u[better]
    links = np.zeros((params.n, params.n + 1), dtype=np.int8)  # column n: the padding slot
    links[others[:, None], np.append(core, params.n)[slots[pick]]] = 1
    at = np.arange(others.size), pick
    x[others], y[others] = xi[at], yi[at]
    return np.ascontiguousarray(links[:, :-1])


def _core_links_pay(params: GameParams, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Whether the sponsored core links of the two templates on (a, b) pay
    their fee: (partially collaborative, collaborative).

    A template whose core link cannot pay cannot survive verification.  In
    the partially collaborative core b must find linking a's full bundle
    worth it, and the y gap b tops up must be worth linking to (anyone's
    best gain from b is c * gap); in the collaborative core each specialist
    must find linking the other worth it.  ``a`` and ``b`` broadcast, so one
    call covers every pair.
    """
    if not ((params.types[a] > 0.5) & (params.types[b] < 0.5)).all():
        raise ValueError("need t_a > 1/2 > t_b")
    k = params.k
    xa, ya, yb = params.x_hat[a], params.y_hat[a], params.y_hat[b]
    partial = (params.cost_vec[0] * (yb - ya) >= k) & (_link_gain(b, xa, ya, params) >= k)
    collaborative = (_link_gain(b, xa, 0.0, params) >= k) & (_link_gain(a, 0.0, yb, params) >= k)
    return partial, collaborative


def _construct_template(params: GameParams, a: int, b: int, kind: str) -> StrategyProfile | None:
    """The two-player-core profile of class ``kind`` on t_a > 1/2 > t_b, if
    its core links pay and it verifies as ``kind``.

    From the isolated profile, b drops x and sponsors a link to a; in the
    collaborative core a drops y and links back to b, in the partially
    collaborative one b tops up only the y gap to a.  Everyone else then
    attaches to the core (``_attach_to_core``)."""
    if not _core_links_pay(params, a, b)[kind == COLLABORATIVE]:
        return None
    x, y = params.x_hat.copy(), params.y_hat.copy()
    x[b] = 0.0
    if kind == COLLABORATIVE:
        y[a] = 0.0
    else:
        y[b] -= params.y_hat[a]
    g = _attach_to_core(x, y, (a, b), params)
    g[b, a] = 1
    if kind == COLLABORATIVE:
        g[a, b] = 1
    prof = StrategyProfile(x, y, g)
    return prof if verify_nash(prof, params).classification == kind else None


def construct_collaborative(params: GameParams, i: int, j: int) -> StrategyProfile | None:
    """Two-player core with mutual links, each fully specialized in one good."""
    return _construct_template(params, i, j, COLLABORATIVE)


def construct_partially_collaborative(
    params: GameParams, a: int, b: int
) -> StrategyProfile | None:
    """Two-player core where only b sponsors: a provides its full autarky
    bundle, b free rides on a's x and tops up the y gap."""
    return _construct_template(params, a, b, PARTIALLY_COLLABORATIVE)


# ----------------------------------------------------------------------
# contribution fixed points and the small-n oracles
# ----------------------------------------------------------------------

def _det(M: np.ndarray) -> np.ndarray:
    """Determinant of each matrix of a stack, by cofactor expansion along the
    first row: exact on the oracle's small integer matrices.  (numpy.linalg
    would do, but its first call maps LAPACK and adds 0.6 MB of resident
    memory to every process that runs the oracle.)"""
    if M.shape[-1] == 0:
        return np.ones(len(M))
    return sum((-1) ** j * M[:, 0, j] * _det(np.delete(M[:, 1:], j, axis=2))
               for j in range(M.shape[-1]))


@lru_cache(maxsize=None)
def _links_into(n: int, active: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The links of range(n) into the players ``active`` (A): their rows,
    columns and mask weights; every flow graph F made of such links, row b
    the one with link l wherever bit l of b is set; and (I + F_AA)^-1 on
    each, or 0 where I + F_AA is singular, which is exact since its
    determinant and adjugate are integers."""
    A = list(active)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool)[:, A])
    cols = np.asarray(A, dtype=np.intp)[cols]
    F = np.zeros((1 << rows.size, n, n), dtype=bool)
    F[:, rows, cols] = (np.arange(len(F))[:, None] >> np.arange(rows.size)) & 1
    M = np.eye(len(A)) + F[:, A][:, :, A]
    adj = np.empty_like(M)
    for i, j in itertools.product(range(len(A)), repeat=2):
        adj[:, j, i] = (-1) ** (i + j) * _det(np.delete(np.delete(M, i, axis=1), j, axis=2))
    det = _det(M)[:, None, None]
    inverse = np.divide(adj, det, out=np.zeros_like(M), where=det != 0)
    return rows, cols, 2.0 ** np.arange(rows.size), F, inverse


def _active_set_tables(params: GameParams) -> list[list[tuple]]:
    """Every solution of each good's top-up conditions z = max(hat - F z, 0)
    on a flow graph F, tabulated by the links that decide it.

    The conditions form a linear complementarity problem, which may have
    several solutions.  The solution with active set A (z > 0 exactly on A)
    solves (I + F_AA) z_A = hat_A and needs hat_i <= (F z)_i off A; only
    F's links into A enter.  So for each A of players with hat > 0 (the
    others never contribute) and each pattern of links into A, z_A is solved
    once and kept where z_A > 0 and hat_i <= (F z)_i off A, both to within
    _ACTIVE_SET_TOL of the largest demand.  A singular I + F_AA is skipped.
    The tables hold every isolated solution and the vertices of any
    continuum of solutions (a continuum needs demands with an integer
    relation, such as log types 0.3 + 0.7 = 1); each vertex is an isolated
    solution of a smaller A.

    Returns for x and for y, per A with some solution, the _links_into rows,
    columns and mask weights, and by pattern the solution and whether it
    holds.
    """
    n = params.n
    if n > 4:
        raise ValueError("the active-set oracle is limited to n <= 4")
    tables = []
    for hat in (params.x_hat, params.y_hat):
        # relative to the largest demand, so that a point on the boundary of
        # two active sets passes the tests of the smaller one only
        tol = _ACTIVE_SET_TOL * max(float(hat.max()), 1.0)
        positive = np.flatnonzero(hat > 0.0).tolist()
        good = []
        for size in range(len(positive) + 1):
            for active in itertools.combinations(positive, size):
                A = list(active)
                rows, cols, weights, F, inverse = _links_into(n, active)
                z = np.zeros((len(F), n))
                z[:, A] = inverse @ hat[A]  # 0 where singular, which z_A > 0 rejects
                short = hat - z - (F @ z[:, :, None])[:, :, 0]
                ok = (z[:, A] > tol).all(axis=1) & (short <= tol).all(axis=1)
                if ok.any():
                    good.append((rows, cols, weights, z, ok))
        tables.append(good)
    return tables


def _contribution_profiles(
    F: np.ndarray, tables: list[list[tuple]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every contribution fixed point (x, y) on each flow graph of a stack F
    (m, n, n), looked up in the _active_set_tables: each x solution paired
    with each y solution of the same graph.  Returns the graph index of each,
    ascending, and X and Y."""
    found = []
    for good in tables:
        rows, sols = [], []
        for ia, ib, weights, z, ok in good:
            code = (F[:, ia, ib] @ weights).astype(np.intp)
            r = np.flatnonzero(ok[code])
            rows.append(r)
            sols.append(z[code[r]])
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")
        found.append((rows[order], np.concatenate(sols)[order]))
    (rx, X), (ry, Y) = found
    # x solution a pairs with the y solutions first[a], ..., first[a] + count[a] - 1
    first = np.searchsorted(ry, rx)
    count = np.searchsorted(ry, rx, side="right") - first
    ix = np.repeat(np.arange(rx.size), count)
    iy = np.repeat(first - np.cumsum(count) + count, count) + np.arange(ix.size)
    return rx[ix], X[ix], Y[iy]


def contribution_fixed_point(g: np.ndarray, params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """The top-up contributions x_i = max(x_hat_i - sum_j g_ij x_j, 0), and
    likewise y, on a fixed link graph.

    The oracle's active-set kernel on a batch of one, so limited to n <= 4.
    Raises ValueError, with their count, when the graph has several fixed
    points: each good's conditions form a linear complementarity problem
    with possibly several solutions (or a continuum, reported as its
    vertices).
    """
    _, X, Y = _contribution_profiles(np.asarray(g, dtype=float)[None], _active_set_tables(params))
    if len(X) != 1:
        raise ValueError(f"the link graph has {len(X)} contribution fixed points")
    return X[0], Y[0]


def _nash_stable(
    G: np.ndarray, X: np.ndarray, Y: np.ndarray, params: GameParams, two_way: bool
) -> np.ndarray:
    """Exact Nash verdict for each contribution fixed point (G[r], X[r], Y[r])
    of a stack.

    One-way, True where find_profitable_deviation(profile, params), exact at
    n <= 4, is None: no player's best response over all link subsets, with
    the same fewest-links tie-break, beats their current utility by more
    than EPS_DEV; a NaN utility raises ValueError, as in ``_deviations``.
    Under two-way flow a player also reaches everyone who links to them, free
    of charge, whichever links they buy.  At a fixed
    point each player's contributions top up what they reach, so their
    current utility is that of their current links among the subsets (to
    rounding).

    The oracle enumerates every subset of a player's n - 1 <= 3 opponents as
    one stacked 1 x (n - 1) product per profile instead of calling the pruned
    kernel ``_responses``, whose candidate table and pruning cost more than
    the at most 8 subsets they save: on the 70 criterion-2 games (n = 3, 4;
    2-vCPU x86 host) the median of per-task minimum times was 0.75-0.98 ms
    this way against 1.44-1.59 ms through the kernel, with the same verdicts.
    """
    m, n = X.shape
    slots, sizes = _subset_members(n - 1, n - 1)
    subsets = (slots[:, :, None] == np.arange(n - 1)).any(axis=1).astype(float)
    fees = params.k * sizes
    weights = 2.0 ** np.arange(n - 1)
    row_of = np.argsort(subsets @ weights)  # the subset row of each link mask
    # player i pays for the provision paid[r, i] reaches and gets free[r, i]
    paid = [np.broadcast_to(Z[:, None, :], G.shape) for Z in (X, Y)]
    free = [np.zeros((m, n))] * 2
    if two_way:  # everyone who links to i is reached for free, linked or not
        into = G.transpose(0, 2, 1)  # into[r, i, j] = g_ji
        paid = [P * (1.0 - into) for P in paid]
        free = [(into @ Z[:, :, None])[:, :, 0] for Z in (X, Y)]
    keep = np.arange(m)  # profiles no player has deviated from so far
    for i in range(n):
        if not keep.size:
            break
        cand = [j for j in range(n) if j != i]
        x_bar, y_bar = ((P[keep, i][:, cand][:, None] @ subsets.T)[:, 0] + f[keep, i, None]
                        for P, f in zip(paid, free))
        util = _top_up(i, x_bar, y_bar, params)[0] - fees
        top = util.max(axis=1)
        nan = np.flatnonzero(np.isnan(top))  # NaN anywhere in a row, best and current too
        if nan.size:
            raise ValueError(f"player {i} has a NaN utility in profile row {keep[nan[0]]}")
        at = np.arange(keep.size)
        best = util[at, np.argmax(util >= top[:, None] - EPS_DEV, axis=1)]
        current = util[at, row_of[(G[keep, i][:, cand] @ weights).astype(np.intp)]]
        keep = keep[~(best > current + EPS_DEV)]
    stable = np.zeros(m, dtype=bool)
    stable[keep] = True
    return stable


def _oracle(params: GameParams, two_way: bool) -> list[StrategyProfile]:
    """Every equilibrium on up to 4 players, one-way or under two-way flow.

    Digraphs are enumerated in mask order (bit b links the b-th ordered pair
    in row-major order) and handled in blocks of _ORACLE_BLOCK: every
    contribution fixed point of each graph's flow (the graph, or its
    undirected closure under two-way flow) is looked up in the game's
    _active_set_tables, then one batched exact Nash check takes them all.
    """
    n = params.n
    tables = _active_set_tables(params)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    total = 1 << src.size
    out: list[StrategyProfile] = []
    for start in range(0, total, _ORACLE_BLOCK):
        masks = np.arange(start, min(start + _ORACLE_BLOCK, total))
        G = np.zeros((masks.size, n, n))
        G[:, src, dst] = (masks[:, None] >> np.arange(src.size)) & 1
        flow = np.maximum(G, G.transpose(0, 2, 1)) if two_way else G
        rows, X, Y = _contribution_profiles(flow, tables)
        keep = np.flatnonzero(_nash_stable(G[rows], X, Y, params, two_way))
        # copies, so that a returned profile never holds a view of the block
        out.extend(StrategyProfile(X[r].copy(), Y[r].copy(), G[rows[r]].astype(np.int8))
                   for r in keep)
    return out


def brute_force_equilibria(params: GameParams) -> list[StrategyProfile]:
    """Ground truth for tiny games: every equilibrium on up to 4 players,
    by testing every contribution fixed point of every digraph."""
    return _oracle(params, two_way=False)


# ----------------------------------------------------------------------
# verification and classification
# ----------------------------------------------------------------------

def _partition(profile: StrategyProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    indeg = profile.in_degree()
    outdeg = profile.out_degree()
    contributors = indeg >= 1
    isolated = (indeg == 0) & (outdeg == 0)
    periphery = (indeg == 0) & (outdeg >= 1)
    return contributors, periphery, isolated


def classify(profile: StrategyProfile) -> EquilibriumReport:
    """Label a profile by its network shape.

    Links inside the contributor set force a two-player core (collaborative
    if reciprocated, partially collaborative otherwise).  Without core links
    the network is bipartite and independent; with three or more contributors
    each sponsor may carry only one link.  Shapes a verified equilibrium
    should never produce are reported as structure violations.
    """
    contributors, periphery, isolated = _partition(profile)
    c_idx = tuple(int(v) for v in np.flatnonzero(contributors))
    p_idx = tuple(int(v) for v in np.flatnonzero(periphery))
    i_idx = tuple(int(v) for v in np.flatnonzero(isolated))

    def report(label: str, note: str = "") -> EquilibriumReport:
        return EquilibriumReport(label, c_idx, p_idx, i_idx, [], note)

    if profile.g.sum() == 0:
        return report(EMPTY)

    core_rows = profile.g[np.ix_(list(c_idx), list(c_idx))] if c_idx else np.zeros((0, 0))
    if core_rows.sum() > 0:
        if len(c_idx) != 2:
            return report(
                STRUCTURE_VIOLATION,
                f"links inside a contributor set of size {len(c_idx)}",
            )
        a, b = c_idx
        if profile.g[a, b] and profile.g[b, a]:
            return report(COLLABORATIVE)
        return report(PARTIALLY_COLLABORATIVE)

    if len(c_idx) >= 3:
        outdeg = profile.out_degree()
        heavy = [p for p in p_idx if outdeg[p] > 1]
        if heavy:
            return report(
                STRUCTURE_VIOLATION,
                f"sponsor {heavy[0]} holds {int(outdeg[heavy[0]])} links "
                f"with {len(c_idx)} contributors",
            )
    return report(INDEPENDENT)


def verify_nash(profile: StrategyProfile, params: GameParams) -> EquilibriumReport:
    """Best-response check; classifies on success, witnesses on failure."""
    deviation = find_profitable_deviation(profile, params)
    report = classify(profile)
    if deviation is None:
        return report
    return replace(report, classification=NON_EQUILIBRIUM, violations=[deviation], note="")


# ----------------------------------------------------------------------
# best-response dynamics and the welfare-maximal equilibrium
# ----------------------------------------------------------------------

def _dynamics(params, game, X, Y, G, configs: list[DynamicsConfig]) -> np.ndarray:
    """Best-response dynamics from every start (X[r], Y[r], G[r]) at once,
    in place; returns which rows settled.

    Row r plays game game[r] of params (parameter index game * n + i), as
    in ``_deviations``.  Row r replays the sequential run from its start
    under configs[r]: each round draws its player order from
    PCG64(seed) (a fresh permutation per round, or index order for round
    robin), and the players best-respond one at a time, adopting a response
    that beats their current utility by more than EPS_DEV.  Rows drawing from
    one seed share one stream's draws: a row in round r reads the stream's
    r-th permutation, drawn once when the first row of that seed gets there.
    Each row keeps its own round, position and window width w, and looks
    ahead over its next min(w, n - position) positions, and at most
    _KERNEL_CHUNK // (n x live rows), which bounds the window's state rows.
    Each step, one kernel call and one ``utilities`` pass evaluate every live
    row's window against that row's own current state, each reading its own
    game, with the search ``best_response`` uses at this n.  A row applies
    its window's earliest improving entry, drops the entries after it and
    moves on just past it; nothing before that entry improved and rows never
    read each other's state, so each row replays its run bit for bit.  w
    doubles after a window without a move (up to n); after a move it stays,
    but at most four times the entries the row used, so a row whose moves
    come close together does not keep paying for a wide window.
    A row settles once a round changes nothing; a row still changing after
    max_rounds rounds stops where it stands, unsettled.
    """
    b, n = len(X), params.n
    base = game * n  # parameter index of each row's player 0
    indeg = G.sum(axis=1)
    # each row's stream, -1 for round robin (by dict: np.unique would load numpy.ma)
    streams: dict[int, int] = {}
    stream = np.array([streams.setdefault(c.seed, len(streams))
                       if c.order == RANDOM_PERMUTATION else -1 for c in configs])
    # each drawn seed's stream and the permutations it has drawn so far
    draws = {s: (np.random.Generator(np.random.PCG64(seed)), []) for seed, s in streams.items()}
    budget = np.array([c.max_rounds for c in configs])
    span = int(budget.max())
    orders = np.tile(np.arange(n), (b, 1))  # each row's player order in its current round

    def deal(rows, rounds):
        """Give drawing rows their stream's draw of their round, one
        assignment per (stream, round) group."""
        key = stream[rows] * span + rounds
        for k in set(key[stream[rows] >= 0].tolist()):
            (gen, drawn), r = draws[k // span], k % span
            while len(drawn) <= r:
                drawn.append(gen.permutation(n))
            orders[rows[key == k]] = drawn[r]

    deal(np.arange(b), np.zeros(b, dtype=int))
    settled = np.zeros(b, dtype=bool)
    # per live row: its round, position, window width and whether the round moved
    live, rnd, pos, width = np.arange(b), np.zeros(b, int), np.zeros(b, int), np.ones(b, int)
    changed = np.zeros(b, dtype=bool)
    while live.size:
        w = np.minimum(np.minimum(width, n - pos), max(1, _KERNEL_CHUNK // (n * live.size)))
        src, first = np.repeat(live, w), np.cumsum(w) - w
        col = np.arange(src.size) + np.repeat(pos - first, w)  # entry's place in its row's order
        i = orders[src, col]
        who = base[src] + i
        links, new_x, new_y, new_u = _responses(who, src, X, Y, indeg, params)
        hit = np.flatnonzero(new_u > utilities(params, who, X[src], Y[src], G[src, i]) + EPS_DEV)
        grown = np.minimum(2 * width, n)
        if hit.size:  # each row applies its earliest improving entry, drops the rest
            lead = np.ones(hit.size, dtype=bool)  # first hit of its row
            lead[1:] = src[hit[1:]] != src[hit[:-1]]
            idx = hit[lead]
            row = np.searchsorted(first, idx, side="right") - 1
            moved, i = src[idx], i[idx]
            indeg[moved] += links[idx] - G[moved, i]
            G[moved, i], X[moved, i], Y[moved, i] = links[idx], new_x[idx], new_y[idx]
            changed[row], w[row] = True, col[idx] - pos[row] + 1
            grown[row] = np.minimum(width[row], 4 * w[row])
        pos, width = pos + w, grown
        done = pos == n
        if done.any():  # end of a round: settle, run out or start the next
            settled[live[done & ~changed]] = True
            going = done & changed & (rnd + 1 < budget[live])
            rnd[going], pos[going], changed[going] = rnd[going] + 1, 0, False
            deal(live[going], rnd[going])
            keep = ~done | going
            live, rnd, pos, width, changed = (a[keep] for a in (live, rnd, pos, width, changed))
    return settled


def best_response_dynamics(
    start: StrategyProfile, params: GameParams, config: DynamicsConfig
) -> StrategyProfile:
    """Sequential best responses until a full pass changes nothing.

    Runs _dynamics on a batch of one; raises NonConvergenceError when the
    round budget runs out first.
    """
    X, Y, G = start.x[None].copy(), start.y[None].copy(), start.g[None].copy()
    if not _dynamics(params, np.zeros(1, dtype=int), X, Y, G, [config])[0]:
        raise NonConvergenceError("best-response dynamics did not settle")
    return StrategyProfile(X[0], Y[0], G[0])


def _anchored_starts(params: GameParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, Y and G of isolated profiles, each with one pre-seeded anchor near
    the type quantile s / _DYNAMICS_STARTS, for s = 1 .. _DYNAMICS_STARTS - 1.

    Dynamics started from here can discover equilibria whose contributor sits
    in the interior of the type space, which pure greedy play from the empty
    profile never reaches.  Everyone for whom a link to the anchor pays
    sponsors it and tops up against the anchor's autarky bundle: one
    ``_link_gain`` call over every (anchor, player) pair and one top-up.
    """
    n = params.n
    quantiles = np.arange(1, _DYNAMICS_STARTS) / _DYNAMICS_STARTS
    anchors = np.argmin(np.abs(params.types - quantiles[:, None]), axis=1)
    x_a, y_a = params.x_hat[anchors, None], params.y_hat[anchors, None]
    pays = _link_gain(np.arange(n), x_a, y_a, params) >= params.k
    s, p = np.nonzero(pays & (np.arange(n) != anchors[:, None]))
    G = np.zeros((anchors.size, n, n), dtype=np.int8)
    G[s, p, anchors[s]] = 1
    X, Y = np.tile(params.x_hat, (anchors.size, 1)), np.tile(params.y_hat, (anchors.size, 1))
    _, X[s, p], Y[s, p] = _top_up(p, x_a[s, 0], y_a[s, 0], params)
    return X, Y, G


def _candidates(games: list[GameParams]):
    """The unverified candidates of a group of games as rows of one stack:
    the group's _GameStack, X, Y, the int8 link matrices G, each row's game,
    and the candidates' rows in candidate order.  The stack opens with one
    ``_dynamics`` batch, each row on its own round, position and window:
    per game, the seeded starts (isolated, then anchored) and the repair of
    the greedy independent profile (construct_independent; the greedy
    profile where it does not settle).
    One isolated row per game follows.  Each game's candidates: the isolated
    profile, the independent one, and the settled dynamics rows."""
    n, per = games[0].n, _DYNAMICS_STARTS + 1  # dynamics rows per game
    size = len(games) * per
    # before the dynamics rows exist: k_tilde's n x n temporaries outweigh them
    greedy = [_greedy_independent(params) for params in games]
    X, Y = np.empty((size + len(games), n)), np.empty((size + len(games), n))
    G = np.zeros((size + len(games), n, n), dtype=np.int8)
    for g, params in enumerate(games):
        lo, repair = g * per, g * per + _DYNAMICS_STARTS
        X[[lo, size + g]], Y[[lo, size + g]] = params.x_hat, params.y_hat
        X[lo + 1 : repair], Y[lo + 1 : repair], G[lo + 1 : repair] = _anchored_starts(params)
        X[repair], Y[repair], G[repair] = greedy[g].x, greedy[g].y, greedy[g].g
    seeded = [DynamicsConfig(order=RANDOM_PERMUTATION, seed=s) for s in range(_DYNAMICS_STARTS)]
    stack, game = _GameStack.of(games), np.repeat(np.arange(len(games)), per)
    done = _dynamics(stack, game, X[:size], Y[:size], G[:size],
                     [c for _ in games for c in seeded + [DynamicsConfig()]])
    order = []
    for g in range(len(games)):
        repair = g * per + _DYNAMICS_STARTS
        if not done[repair]:
            X[repair], Y[repair], G[repair] = greedy[g].x, greedy[g].y, greedy[g].g
        settled = g * per + np.flatnonzero(done[g * per : repair])
        order += [size + g, repair, *settled.tolist()]
    return stack, X, Y, G, np.append(game, np.arange(len(games))), np.array(order)


def welfare_max_equilibria(
    games: Iterable[GameParams]
) -> Iterator[tuple[StrategyProfile, EquilibriumReport]]:
    """``welfare_max_equilibrium`` of each game, yielded in order, for games
    on the same n players with the same benefit family (types, costs and k
    may differ).

    Games are taken in groups of at most _KERNEL_CHUNK // n dynamics rows
    (so that even one position of every row's window stays within the
    kernel's bound).  A group's candidates are rows of one stack of
    contributions and int8 link matrices, each reading its own game's
    parameters: one dynamics batch (each row stepping through its own run,
    one kernel call a step for all of them), one welfare pass and one
    deviation search per verification round serve the whole group.  A long
    family is never held whole.  Each answer equals the game's own
    ``welfare_max_equilibrium`` bit for bit.
    """
    return ((prof, report) for prof, report, _ in _welfare_max_equilibria(games))


def _welfare_max_equilibria(games: Iterable[GameParams]):
    """welfare_max_equilibria, each answer with its total welfare from the
    group's pricing pass (``welfare``'s, bit for bit)."""
    games = iter(games)
    for first in games:
        size = max(1, _KERNEL_CHUNK // (first.n * (_DYNAMICS_STARTS + 1)))
        group = [first, *itertools.islice(games, size - 1)]
        if any(g.n != first.n or g.benefit != first.benefit for g in group):
            raise ValueError("a family of games must share n and the benefit family")
        yield from _welfare_max(group)


def welfare_max_equilibrium(params: GameParams) -> tuple[StrategyProfile, EquilibriumReport]:
    """Best verified equilibrium from a structured candidate set.

    Candidates: the empty profile, the independent construction, and
    best-response dynamics from eight seeded starts (one empty, seven
    anchored at interior type quantiles).  Ties go to independent networks,
    then to fewer contributors.  The two-player-core constructors are not
    candidates; a core that the dynamics reach counts like any other profile.

    Candidates are built unverified and verified lazily, in descending
    welfare order, one best-response check (``verify_nash``'s) per distinct
    profile; a candidate counts if it verifies.  Verification stops once
    every unverified candidate lies more than the tie tolerance below the
    lowest accepted welfare: such a candidate can neither beat nor tie any
    accepted one, so the sequential tie scan, replayed over the accepted
    candidates in candidate order, returns what scanning every candidate
    would.

    This is ``welfare_max_equilibria`` on a batch of one.
    """
    return next(welfare_max_equilibria([params]))


def _keys(G: np.ndarray, X: np.ndarray, Y: np.ndarray, rows: np.ndarray) -> list[bytes]:
    """The dedup key of each row r of ``rows``: the positions of G[r]'s links
    and X[r] and Y[r] rounded to 10 decimals.  The contributions are as long
    in every row, so two rows share a key exactly when their link matrices
    and rounded contributions are equal."""
    # rounded in one call: row by row, rounding took 5 % of a CLI subsidy run at n = 10
    Xr, Yr = np.round(X[rows], 10), np.round(Y[rows], 10)
    return [np.flatnonzero(G[r]).tobytes() + x.tobytes() + y.tobytes()
            for r, x, y in zip(rows.tolist(), Xr, Yr)]


def _welfare_max(
    games: list[GameParams]
) -> list[tuple[StrategyProfile, EquilibriumReport, float]]:
    """welfare_max_equilibrium's lazy verification and tie scan for each
    game of a group, with the answer's welfare.  One ``_welfare_totals``
    call prices the candidate stack; each round, every unfinished game's
    best-ranked unverified distinct profile goes into one ``_deviations``
    search, so each game verifies what its own scan would.  A verified
    profile is built once, from copies of its stack rows, classified, and
    returned as the answer if the tie scan picks it."""
    params, X, Y, G, game, order = _candidates(games)
    w = _welfare_totals(params, game, X, Y, G)
    ranked = []  # per game: (welfare, first candidate row) of each distinct profile, best first
    for g in range(len(games)):
        cand = order[game[order] == g]
        # candidates sharing a key share one report; as in a plain scan, the
        # first of them stands for the group
        groups: dict[bytes, list[int]] = {}
        for r, key in zip(cand.tolist(), _keys(G, X, Y, cand)):
            groups.setdefault(key, []).append(r)
        ranked.append(iter(sorted(((w[m].max(), m[0]) for m in groups.values()),
                                  key=lambda item: -item[0])))
    accepted: list[list[tuple[int, StrategyProfile, EquilibriumReport]]] = [[] for _ in games]
    lowest, live = [np.inf] * len(games), list(range(len(games)))
    # each live game's next head, while it can still beat or tie an accepted one
    while heads := [(g, r) for g in live for top, r in [next(ranked[g], (None, None))]
                    if r is not None
                    and not (accepted[g] and top < lowest[g] - _WELFARE_TIE_TOL)]:
        live = [g for g, _ in heads]
        rows = np.array([r for _, r in heads], dtype=int)
        found = _deviations(params, game[rows], X[rows], Y[rows], G[rows])
        for (g, r), deviation in zip(heads, found):
            if deviation is None:
                # copies, so that an answer never holds a view of the stack
                prof = StrategyProfile(X[r].copy(), Y[r].copy(), G[r].copy())
                accepted[g].append((r, prof, classify(prof)))
                lowest[g] = min(lowest[g], w[r])

    rank = {r: k for k, r in enumerate(order.tolist())}  # candidate order
    out = []
    for scan in accepted:
        best: tuple[float, StrategyProfile, EquilibriumReport] | None = None
        for r, prof, report in sorted(scan, key=lambda item: rank[item[0]]):
            if best is None or w[r] > best[0] + _WELFARE_TIE_TOL:
                best = (w[r], prof, report)
            elif abs(w[r] - best[0]) <= _WELFARE_TIE_TOL and (
                report.classification == INDEPENDENT != best[2].classification
                or (report.classification == best[2].classification
                    and len(report.contributors) < len(best[2].contributors))
            ):
                best = (w[r], prof, report)
        if best is None:
            raise RuntimeError("no candidate survived verification")
        total, prof, report = best
        out.append((prof, report, total))
    return out

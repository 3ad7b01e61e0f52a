"""Optimal play for a single player: contributions, link gains, best responses.

Contributions given a fixed link set have a closed form (top up each good to
its isolation demand), so a best response reduces to a search over link sets.
Exact mode enumerates every subset of opponents; structural mode restricts
the search to plausible targets (current link receivers plus the largest
providers, less those whose standalone link gain cannot cover k), which is
what equilibrium structure says sponsors actually use.
Each mode has one search, an array kernel over a stack of rows: ``best_response``
is its batch of one, and ``find_profitable_deviation`` one call per block of players.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import EPS_DEV, GameParams, StrategyProfile, gross_value, utilities

EXACT = "exact"
STRUCTURAL = "structural"

_EXACT_MAX_PLAYERS = 16
# bounds temporaries: rows x subsets per pass, players x n per deviation block or window row
_KERNEL_CHUNK = 1 << 13
_STRUCTURAL_TOP_PROVIDERS = 4
_STRUCTURAL_MAX_LINKS = 3


@dataclass
class Deviation:
    """Witness of a Nash violation: an improving strategy for one player."""

    player: int
    new_links: tuple[int, ...]
    new_x: float
    new_y: float
    utility_gain: float


@dataclass
class BestResponse:
    links: tuple[int, ...]
    x: float
    y: float
    utility: float


@lru_cache(maxsize=128)
def _subset_matrix(m: int, cap: int | None) -> np.ndarray:
    """All subsets of range(m) up to size cap, ordered by (size, lex).

    Returned as a float matrix so that spillover sums are plain matmuls; the
    ordering makes "first subset within tolerance of the maximum" implement
    the fewest-links-then-lexicographic tie-break directly.
    """
    top = m if cap is None else min(cap, m)
    rows = []
    for size in range(top + 1):
        for combo in itertools.combinations(range(m), size):
            row = np.zeros(m)
            row[list(combo)] = 1.0
            rows.append(row)
    mat = np.array(rows) if rows else np.zeros((1, 0))
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=128)
def _subset_sizes(m: int) -> np.ndarray:
    """Link count of each row of _subset_matrix(m, None)."""
    sizes = _subset_matrix(m, None).sum(axis=1)
    sizes.setflags(write=False)
    return sizes


def optimal_contributions(
    i: int, links, profile: StrategyProfile, params: GameParams
) -> tuple[float, float]:
    """Top-up rule: provide max(isolation demand - spillovers, 0) per good."""
    links = list(links)
    if i in links:
        raise ValueError("a player cannot link to themselves")
    x_bar = float(profile.x[links].sum())
    y_bar = float(profile.y[links].sum())
    xi = max(params.x_hat[i] - x_bar, 0.0)
    yi = max(params.y_hat[i] - y_bar, 0.0)
    return xi, yi


def _top_up(i, x_bar, y_bar, params: GameParams):
    """Player i's top-up contributions against spillovers (x_bar, y_bar) and
    the gross value they yield; broadcasts over array spillovers and over an
    index array ``i``."""
    xi = np.maximum(params.x_hat[i] - x_bar, 0.0)
    yi = np.maximum(params.y_hat[i] - y_bar, 0.0)
    return gross_value(params, i, xi, yi, x_bar, y_bar), xi, yi


def _gross_utilities(
    i: int, cand: np.ndarray, subsets: np.ndarray, profile: StrategyProfile, params: GameParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Utility of every candidate link subset with re-optimized contributions."""
    gross, xi, yi = _top_up(i, subsets @ profile.x[cand], subsets @ profile.y[cand], params)
    return gross - params.k * subsets.sum(axis=1), xi, yi


ADD = "add"
DELETE = "delete"


def gains_from_link(
    profile: StrategyProfile, i: int, j: int, action: str, params: GameParams
) -> float:
    """Gross value of the single link i -> j, excluding the linking fee.

    Both sides of the comparison re-optimize i's contributions, so adding and
    deleting the same link are exact mirrors: adding is profitable iff the
    gain covers the fee, keeping is profitable iff it does.
    """
    if i == j:
        raise IndexError("no self links")
    linked = bool(profile.g[i, j])
    if action == ADD and linked:
        raise ValueError("link already present")
    if action == DELETE and not linked:
        raise ValueError("link not present")
    targets = set(profile.links_of(i).tolist())

    def gross(links):
        x_bar, y_bar = float(profile.x[links].sum()), float(profile.y[links].sum())
        return float(_top_up(i, x_bar, y_bar, params)[0])

    return gross(sorted(targets | {j})) - gross(sorted(targets - {j}))


def _link_gain(i, x_prov, y_prov, params: GameParams):
    """Gross gain for player i, isolated at their autarky bundle, from linking
    a provider of (x_prov, y_prov) and topping up against it.

    The gain has a closed form: the saved own provision (capped at what the
    provider supplies) plus the benefit jump on any good where the provider
    out-supplies i.  Broadcasts over an index array ``i`` and array provisions.
    """
    t, xh, yh = params.types[i], params.x_hat[i], params.y_hat[i]
    f = params.benefit.value
    # a zero-weight good counts 0, also where log's f(0) = -inf makes it NaN
    with np.errstate(invalid="ignore"):
        jump_x = np.where(t > 0.0, t * np.maximum(f(x_prov) - f(xh), 0.0), 0.0)
        jump_y = np.where(t < 1.0, (1.0 - t) * np.maximum(f(y_prov) - f(yh), 0.0), 0.0)
    save = params.cost_vec[i] * (np.minimum(xh, x_prov) + np.minimum(yh, y_prov))
    return save + jump_x + jump_y


def _structural_candidates(players, src, X, Y, indeg, params: GameParams) -> np.ndarray:
    """Candidates of player players[r] against state row src[r], in index
    order: the receivers (indeg > 0) and the largest providers by x + y
    (ranked once per state row, ties to the lower index), without the player
    and without every target whose ``_link_gain`` is at most k - EPS_DEV.
    Rows are padded with n past the largest count, so every row ends in n."""
    b, n = len(players), X.shape[1]
    provision, top = X + Y, []
    for _ in range(min(_STRUCTURAL_TOP_PROVIDERS + 1, n)):  # argmax: first among ties
        top.append(np.argmax(provision, axis=1))
        provision[np.arange(len(X)), top[-1]] = -np.inf
    top = np.stack(top, axis=1)[src]
    keep = top != players[:, None]
    keep &= np.cumsum(keep, axis=1) <= _STRUCTURAL_TOP_PROVIDERS
    cand = indeg[src] > 0
    cand[np.nonzero(keep)[0], top[keep]] = True
    cand[np.arange(b), players] = False
    r, j = np.nonzero(cand)
    pays = _link_gain(players[r], X[src[r], j], Y[src[r], j], params) > params.k - EPS_DEV
    r, j = r[pays], j[pays]
    count = np.bincount(r, minlength=b)
    table = np.full((b, count.max() + 1), n)
    table[r, np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)] = j
    return table


@lru_cache(maxsize=128)
def _subset_members(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Member slots (padded with slot m) and size of each subset of at most
    _STRUCTURAL_MAX_LINKS of m slots, in the (size, lex) order of _subset_matrix."""
    cap = _STRUCTURAL_MAX_LINKS
    combos = [c for size in range(min(cap, m) + 1) for c in itertools.combinations(range(m), size)]
    out = np.array([c + (m,) * (cap - len(c)) for c in combos]), np.array([len(c) for c in combos])
    for a in out:
        a.setflags(write=False)
    return out


def _structural_responses(players, src, X, Y, indeg, params: GameParams):
    """Structural best response of players[r] against state row src[r] of X,
    Y and indeg: among subsets of at most _STRUCTURAL_MAX_LINKS candidates in
    (size, lex) order, the first within EPS_DEV of the maximum.

    Dropping a target j whose gain d_j = _link_gain(i, x_j, y_j) is at most
    k - EPS_DEV changes no answer.  i's gross value sums, over the goods, a
    concave nondecreasing function of the good's spillover sum, so it is
    submodular in the link set: adding j to any set S gains at most d_j, and
    u(S + j) <= u(S) + d_j - k <= u(S) - EPS_DEV.  So S + j is never the
    maximum, and S, which comes first, lies in the EPS_DEV band whenever S + j
    does (up to rounding, far below EPS_DEV).  Kept candidates stay in index
    order and padded slots provide nothing, so each kept subset keeps its rank
    and, with spillovers added left to right, its utility bit for bit; a
    padded subset never beats the same subset without the pad, which comes
    first.  Each row equals its batch of one bit for bit."""
    b, n = len(players), X.shape[1]
    table = _structural_candidates(players, src, X, Y, indeg, params)
    slots, sizes = _subset_members(table.shape[1] - 1)
    cols = src[:, None], np.minimum(table, n - 1)
    xs = np.where(table < n, X[cols], 0.0)
    ys = np.where(table < n, Y[cols], 0.0)
    pick, out = np.empty(b, dtype=np.intp), np.empty((3, b))
    step = max(1, _KERNEL_CHUNK // len(slots))
    for lo in range(0, b, step):
        part = slice(lo, lo + step)
        x_bar, y_bar = xs[part, slots[:, 0]], ys[part, slots[:, 0]]
        for col in slots.T[1:]:
            x_bar, y_bar = x_bar + xs[part, col], y_bar + ys[part, col]
        gross, xi, yi = _top_up(players[part, None], x_bar, y_bar, params)
        util = gross - params.k * sizes
        pick[part] = np.argmax(util >= util.max(axis=1)[:, None] - EPS_DEV, axis=1)
        at = np.arange(len(util)), pick[part]
        out[:, part] = xi[at], yi[at], util[at]
    rows = np.arange(b)[:, None]
    links = np.zeros((b, n + 1), dtype=np.int8)
    links[rows, table[rows, slots[pick]]] = 1
    return links[:, :n], *out


def _responses(mode: str, players, src, X, Y, indeg, params: GameParams):
    """Best responses of players[r] against state row src[r] of X, Y and
    indeg through ``mode``'s kernel: link rows, x, y and utility."""
    if mode == STRUCTURAL:
        return _structural_responses(players, src, X, Y, indeg, params)
    if mode != EXACT:
        raise ValueError(f"unknown mode {mode!r}")
    pick, x, y, u = _best_responses(players, X[src], Y[src], params)
    return _link_rows(players, pick, X.shape[1]), x, y, u


def best_response(
    i: int, profile: StrategyProfile, params: GameParams, mode: str = EXACT
) -> BestResponse:
    """Utility-maximizing (links, contributions) for player i.

    Among strategies within EPS_DEV of the maximum, the one with the fewest
    links and then the lexicographically smallest target set is returned, so
    results are identical across platforms and traversal orders.  This is
    the mode's kernel on a batch of one.
    """
    state = profile.x[None], profile.y[None], profile.in_degree()[None]
    links, x, y, u = _responses(mode, np.array([i]), np.array([0]), *state, params)
    chosen = tuple(np.flatnonzero(links[0]).tolist())
    return BestResponse(chosen, float(x[0]), float(y[0]), float(u[0]))


@lru_cache(maxsize=32)
def _opponents(n: int) -> np.ndarray:
    """Row i lists every player but i, in index order."""
    table = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)
    table.setflags(write=False)
    return table


def _best_responses(
    players, X: np.ndarray, Y: np.ndarray, params: GameParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact best response of player players[r] against contributions X[r], Y[r].

    ``players`` is an index array, one player per row, or a single index for
    every row.  Row r searches every subset of its n - 1 opponents, in the
    (size, lex) order of _subset_matrix, and keeps the first within EPS_DEV
    of the row's maximum.  Its subset sums are one 1 x (n-1) product per
    row, so each row equals its batch of one bit for bit.  Links do not
    enter: a best response depends only on the others' contributions.

    Returns per row the index of the chosen subset in _subset_matrix(n - 1,
    None) (``_link_rows`` turns it into a link row), and the x, y and
    utility of the best response.
    """
    b, n = X.shape
    if n > _EXACT_MAX_PLAYERS:
        raise ValueError(f"exact mode supports at most {_EXACT_MAX_PLAYERS} players")
    subsets = _subset_matrix(n - 1, None)
    per_row = isinstance(players, np.ndarray)
    step = max(1, _KERNEL_CHUNK // len(subsets))
    if b > step:
        parts = [
            _best_responses(players[lo : lo + step] if per_row else players,
                            X[lo : lo + step], Y[lo : lo + step], params)
            for lo in range(0, b, step)
        ]
        return tuple(np.concatenate(column) for column in zip(*parts))
    cand = _opponents(n)[players]
    rows = np.arange(b)[:, None] if per_row else slice(None)
    # stacked 1-row products sum like best_response's matrix-vector product;
    # a plain 2-D product would be a BLAS gemm, which sums in another order
    # and whose work buffer adds about 0.4 MB resident
    gross, xi, yi = _top_up(
        players[:, None] if per_row else players,
        (X[rows, cand][:, None] @ subsets.T)[:, 0],
        (Y[rows, cand][:, None] @ subsets.T)[:, 0],
        params,
    )
    util = gross - params.k * _subset_sizes(n - 1)
    best = util.max(axis=1)
    pick = np.argmax(util >= best[:, None] - EPS_DEV, axis=1)
    at = np.arange(b)
    return pick, xi[at, pick], yi[at, pick], util[at, pick]


def _link_rows(players: np.ndarray, pick: np.ndarray, n: int) -> np.ndarray:
    """Link row (b, n) of subset pick[r] of players[r]'s opponents."""
    links = np.zeros((len(pick), n), dtype=np.int8)
    links[np.arange(len(pick))[:, None], _opponents(n)[players]] = _subset_matrix(n - 1, None)[pick]
    return links


def find_profitable_deviation(
    profile: StrategyProfile, params: GameParams, mode: str = EXACT
) -> Deviation | None:
    """Lowest-indexed player with a strategy improving by more than EPS_DEV,
    searched one kernel call per block of _KERNEL_CHUNK // n players (which
    bounds the block's link rows), up to the first block with a deviator."""
    n, x, y, indeg = params.n, profile.x[None], profile.y[None], profile.in_degree()[None]
    step = max(1, _KERNEL_CHUNK // n)
    for lo in range(0, n, step):
        players = np.arange(lo, min(lo + step, n))
        src = np.zeros_like(players)  # every player against the one profile
        links, new_x, new_y, best = _responses(mode, players, src, x, y, indeg, params)
        current = utilities(params, players, x, y, profile.g[players])
        better = best > current + EPS_DEV
        if better.any():
            r = int(np.argmax(better))
            chosen = tuple(np.flatnonzero(links[r]).tolist())
            return Deviation(int(players[r]), chosen, float(new_x[r]), float(new_y[r]),
                             float(best[r] - current[r]))
    return None

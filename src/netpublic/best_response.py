"""Optimal play for a single player: contributions, link gains, best responses.

Contributions given a fixed link set have a closed form (top up each good to
its isolation demand), so a best response reduces to a search over link sets.
The one search takes subsets of at most L of the receivers plus the P
largest providers, as equilibrium sponsors link a few specialised providers.
Its breadth follows from n (``_breadth``): every opponent and any number of
links, an exact search, while all 2^(n-1) subsets fit one kernel pass
(n <= 14), and (P, L) = (4, 3) above.  It drops every target whose link gain
cannot cover k, which provably changes no answer.  One array kernel runs it
over a stack of rows: ``best_response`` is its batch of one, and
``_deviations`` (find_profitable_deviation on a stack of profiles) one call
per block of (profile, player) rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import EPS_DEV, GameParams, StrategyProfile, gross_value, utilities

# bounds temporaries: rows x subsets per kernel pass, and (player, state row) entries x n
# per deviation block or dynamics step, whose live rows' windows share the bound
_KERNEL_CHUNK = 1 << 13


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


def optimal_contributions(
    i: int, links, profile: StrategyProfile, params: GameParams
) -> tuple[float, float]:
    """Top-up rule: provide max(isolation demand - spillovers, 0) per good."""
    links = list(links)
    if i in links:
        raise ValueError("a player cannot link to themselves")
    _, xi, yi = _top_up(i, float(profile.x[links].sum()), float(profile.y[links].sum()), params)
    return float(xi), float(yi)


def _top_up(i, x_bar, y_bar, params: GameParams):
    """Player i's top-up contributions against spillovers (x_bar, y_bar) and
    the gross value they yield; broadcasts over array spillovers and over an
    index array ``i``."""
    xi = np.maximum(params.x_hat[i] - x_bar, 0.0)
    yi = np.maximum(params.y_hat[i] - y_bar, 0.0)
    return gross_value(params, i, xi, yi, x_bar, y_bar), xi, yi


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
    out-supplies i.  Broadcasts over an index array ``i`` (parameter indices
    of a _GameStack too) and array provisions.
    """
    t, xh, yh = params.types[i], params.x_hat[i], params.y_hat[i]
    f = params.benefit.value
    # log's f(0) = -inf is a valid value, and a zero-weight good counts 0,
    # also where that makes the jump NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        jump_x = np.where(t > 0.0, t * np.maximum(f(x_prov) - f(xh), 0.0), 0.0)
        jump_y = np.where(t < 1.0, (1.0 - t) * np.maximum(f(y_prov) - f(yh), 0.0), 0.0)
    save = params.cost_vec[i] * (np.minimum(xh, x_prov) + np.minimum(yh, y_prov))
    return save + jump_x + jump_y


def _candidate_table(who, src, X, Y, indeg, params: GameParams, providers: int):
    """Candidates of the player with parameter index who[r] against state
    row src[r], in index order, and their count per row.

    The candidates are the receivers (indeg > 0) and the ``providers``
    largest providers by x + y (ranked once per state row, ties to the lower
    index), less the player and every target whose ``_link_gain`` is at most
    k - EPS_DEV.  At providers >= n - 1 that is every opponent, and the
    ranking is skipped.  Rows are padded with n past the largest count, so
    every row ends in n."""
    b, n = len(who), X.shape[1]
    players = who % n
    if providers >= n - 1:
        cand = np.ones((b, n), dtype=bool)
    else:
        provision, top = X + Y, []
        for _ in range(providers + 1):  # argmax: first among ties
            top.append(np.argmax(provision, axis=1))
            provision[np.arange(len(X)), top[-1]] = -np.inf
        top = np.stack(top, axis=1)[src]
        keep = top != players[:, None]
        keep &= np.cumsum(keep, axis=1) <= providers
        cand = indeg[src] > 0
        cand[np.nonzero(keep)[0], top[keep]] = True
    cand[np.arange(b), players] = False
    r, j = np.nonzero(cand)
    pays = _link_gain(who[r], X[src[r], j], Y[src[r], j], params) > params.k_vec[who[r]] - EPS_DEV
    r, j = r[pays], j[pays]
    count = np.bincount(r, minlength=b)
    table = np.full((b, count.max() + 1), n)
    table[r, np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)] = j
    return table, count


@lru_cache(maxsize=128)
def _subset_members(m: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Member slots (padded with slot m) and size of each subset of at most
    cap of m slots, ordered by (size, lex): the one enumeration of link
    subsets.  The ordering makes "first subset within tolerance of the
    maximum" implement the fewest-links-then-lexicographic tie-break
    directly, and a caller that pads its slot values with a zero provision
    adds each subset's spillovers left to right over the slot columns."""
    combos = [c for size in range(min(cap, m) + 1) for c in itertools.combinations(range(m), size)]
    width = max(1, min(cap, m))
    out = (np.array([c + (m,) * (width - len(c)) for c in combos]),
           np.array([len(c) for c in combos]))
    for a in out:
        a.setflags(write=False)
    return out


def _subset_count(m, cap: int):
    """Subsets of at most cap of m candidates (m may be an integer array):
    the sum of C(m, s) over s <= cap, which is 2^m at cap >= m."""
    if np.all(m <= cap):
        return 1 << m
    total = term = np.ones_like(m)
    for s in range(1, cap + 1):  # term = C(m, s), exact in integers
        term = term * np.maximum(m - s + 1, 0) // s
        total = total + term
    return total


def _breadth(n: int) -> tuple[int, int]:
    """(P, L) of the search at n: every opponent and any number of links
    while all 2^(n-1) subsets fit one kernel pass, else (4, 3)."""
    return (n - 1, n - 1) if 1 << (n - 1) <= _KERNEL_CHUNK else (4, 3)


def _responses(who, src, X, Y, indeg, params: GameParams):
    """Best responses of the player with parameter index who[r] (the player
    itself for a GameParams) against state row src[r] of X, Y and indeg:
    among the subsets of at most L of ``_candidate_table``'s candidates, for
    (P, L) = ``_breadth(n)``, in (size, lex) order, the first within EPS_DEV
    of the maximum.  Returns link rows, x, y and utility.

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
    first.  A batch whose rows x subsets at its widest row exceed
    _KERNEL_CHUNK is taken in order of candidate count, in passes within that
    bound, each padded to its own widest row; so each row equals its batch of
    one bit for bit.
    """
    b, n = len(who), X.shape[1]
    providers, cap = _breadth(n)
    table, count = _candidate_table(who, src, X, Y, indeg, params, providers)
    passes = [slice(None)]
    if b * _subset_count(count.max(), cap) > _KERNEL_CHUNK:
        # rows in order of candidate count, each pass as many as fit at its widest
        order, passes, lo = np.argsort(count, kind="stable"), [], 0
        need = _subset_count(count[order], cap)
        while lo < b:
            hi = lo + max(1, int(np.sum(np.arange(1, b - lo + 1) * need[lo:] <= _KERNEL_CHUNK)))
            passes.append(order[lo:hi])
            lo = hi
    links, out = np.empty((b, n), dtype=np.int8), np.empty((3, b))
    for rows in passes:
        m = count[rows].max()
        slots, sizes = _subset_members(m, cap)
        part = table[rows, : m + 1]
        cols = src[rows, None], np.minimum(part, n - 1)
        xs = np.where(part < n, X[cols], 0.0)
        ys = np.where(part < n, Y[cols], 0.0)
        x_bar, y_bar = xs[:, slots[:, 0]], ys[:, slots[:, 0]]
        for col in slots.T[1:]:
            x_bar, y_bar = x_bar + xs[:, col], y_bar + ys[:, col]
        gross, xi, yi = _top_up(who[rows, None], x_bar, y_bar, params)
        util = gross - params.k_vec[who[rows], None] * sizes
        pick = np.argmax(util >= util.max(axis=1)[:, None] - EPS_DEV, axis=1)
        at = np.arange(len(part)), pick
        out[:, rows] = xi[at], yi[at], util[at]
        chosen = np.zeros((len(part), n + 1), dtype=np.int8)
        chosen[at[0][:, None], part[at[0][:, None], slots[pick]]] = 1
        links[rows] = chosen[:, :n]
    return links, *out


def best_response(i: int, profile: StrategyProfile, params: GameParams) -> BestResponse:
    """Utility-maximizing (links, contributions) for player i.

    Among strategies within EPS_DEV of the maximum, the one with the fewest
    links and then the lexicographically smallest target set is returned, so
    results are identical across platforms and traversal orders.  This is
    the kernel on a batch of one.
    """
    state = profile.x[None], profile.y[None], profile.in_degree()[None]
    links, x, y, u = _responses(np.array([i]), np.array([0]), *state, params)
    chosen = tuple(np.flatnonzero(links[0]).tolist())
    return BestResponse(chosen, float(x[0]), float(y[0]), float(u[0]))


def _deviations(params, game, X, Y, G) -> list[Deviation | None]:
    """``find_profitable_deviation`` of each profile (X[r], Y[r], G[r]) of a
    stack, in game game[r] of params (parameter index game * n + i): its
    (profile, player) rows in order, _KERNEL_CHUNK // n a kernel call, each
    profile up to its first block with a deviator.  A NaN best or current
    utility, which any comparison reads as no deviation, raises ValueError;
    a current utility of -inf is an ordinary deviation."""
    n, indeg = X.shape[1], G.sum(axis=1)
    step = max(1, _KERNEL_CHUNK // n)
    found: list[Deviation | None] = [None] * len(X)
    todo = np.arange(len(X) * n)
    while todo.size:
        p, i = np.divmod(todo[:step], n)
        who = game[p] * n + i
        links, new_x, new_y, best = _responses(who, p, X, Y, indeg, params)
        current = utilities(params, who, X[p], Y[p], G[p, i])
        nan = np.flatnonzero(np.isnan(best - current))
        if nan.size:
            raise ValueError(f"player {i[nan[0]]} has a NaN utility in profile row {p[nan[0]]}")
        hit = np.flatnonzero(best > current + EPS_DEV)
        for r in hit[np.unique(p[hit], return_index=True)[1]]:  # each profile's first
            found[p[r]] = Deviation(int(i[r]), tuple(np.flatnonzero(links[r]).tolist()),
                                    float(new_x[r]), float(new_y[r]), float(best[r] - current[r]))
        todo = todo[step:][~np.isin(todo[step:] // n, p[hit])]
    return found


def find_profitable_deviation(profile: StrategyProfile, params: GameParams) -> Deviation | None:
    """Lowest-indexed player with a strategy improving by more than EPS_DEV,
    searched _KERNEL_CHUNK // n players a kernel call, up to the first block
    with a deviator: ``_deviations`` on a batch of one."""
    return _deviations(params, np.zeros(1, dtype=int), profile.x[None], profile.y[None],
                       profile.g[None])[0]

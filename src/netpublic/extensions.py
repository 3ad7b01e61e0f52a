"""Model variants: two-way spillovers, weighted links, perturbed utilities.

These reuse the baseline primitives but change how provision reaches a
player: along the undirected closure (two-way), scaled by a chosen link
intensity (weighted), or attenuated over network distance with CES-style
complementarity and cost shocks (perturbed).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .best_response import _subset_members, _top_up
from .equilibrium import NonConvergenceError, _oracle
from .model import EPS_DEV, GameParams, StrategyProfile, gross_value

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_WEIGHT_TOL = 1e-8
_WEIGHT_MAX_PLAYERS = 12
_WEIGHT_STALL_CYCLES = 500
_WEIGHT_MAX_ROUNDS = 200
_RECIPIENT_WEIGHT = 1e-6
_BISECT_TOL = 1e-10


# ----------------------------------------------------------------------
# two-way flow
# ----------------------------------------------------------------------

def _closure_access(profile: StrategyProfile, i: int) -> np.ndarray:
    return np.flatnonzero((profile.g[i] != 0) | (profile.g[:, i] != 0))


def utility_two_way(profile: StrategyProfile, i: int, params: GameParams) -> float:
    """Baseline utility with spillovers along the undirected closure.

    Link fees still fall on sponsors only, so receiving a link is free access.
    """
    access = _closure_access(profile, i)
    x_bar = float(profile.x[access].sum())
    y_bar = float(profile.y[access].sum())
    eta = int(profile.g[i].sum())
    return gross_value(params, i, profile.x[i], profile.y[i], x_bar, y_bar) - eta * params.k


def brute_force_two_way(params: GameParams) -> list[StrategyProfile]:
    """All two-way-flow equilibria on up to 4 players, by digraph enumeration:
    the one-way oracle on each digraph's undirected closure, with receivers
    reaching their sponsors for free in the Nash check."""
    return _oracle(params, two_way=True)


# ----------------------------------------------------------------------
# weighted links
# ----------------------------------------------------------------------

@dataclass
class WeightedProfile:
    """Contributions plus a matrix of link intensities in [0, 1]."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        n = self.x.size
        if self.w.shape != (n, n) or self.y.size != n:
            raise ValueError("inconsistent weighted profile dimensions")
        # NaN fails every comparison, so only tests that it must pass catch it
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("contributions must be finite")
        if not ((self.x >= 0).all() and (self.y >= 0).all()):
            raise ValueError("contributions must be non-negative")
        if np.any(np.diagonal(self.w) != 0):
            raise ValueError("weight matrix must have a zero diagonal")
        if not ((self.w >= 0) & (self.w <= 1)).all():
            raise ValueError("weights must lie in [0, 1]")

    @classmethod
    def isolated(cls, params: GameParams) -> "WeightedProfile":
        n = params.n
        return cls(params.x_hat.copy(), params.y_hat.copy(), np.zeros((n, n)))

    @property
    def n(self) -> int:
        return self.x.size

    def copy(self) -> "WeightedProfile":
        return WeightedProfile(self.x.copy(), self.y.copy(), self.w.copy())


def utility_weighted(wp: WeightedProfile, i: int, params: GameParams) -> float:
    """A link of weight a grants a of the target's provision and costs a*k."""
    x_bar = float(wp.w[i] @ wp.x)
    y_bar = float(wp.w[i] @ wp.y)
    gross = gross_value(params, i, wp.x[i], wp.y[i], x_bar, y_bar)
    return gross - params.k * float(wp.w[i].sum())


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    best_x, best_f = xm, f(xm)
    for cand in (lo, hi):
        fv = f(cand)
        if fv > best_f:
            best_x, best_f = cand, fv
    return best_x, best_f


def best_response_weighted(
    i: int, wp: WeightedProfile, params: GameParams
) -> tuple[np.ndarray, float, float]:
    """Coordinate ascent over i's link weights with contributions re-optimized.

    Each coordinate is a one-dimensional concave problem solved by golden
    section; utility never decreases across iterations.
    """
    if params.n > _WEIGHT_MAX_PLAYERS:
        raise ValueError(f"weighted best response supports at most {_WEIGHT_MAX_PLAYERS} players")
    w = wp.w[i].copy()

    def value_at(row: np.ndarray) -> float:
        gross, _, _ = _top_up(i, float(row @ wp.x), float(row @ wp.y), params)
        return gross - params.k * float(row.sum())

    current = value_at(w)
    for _ in range(_WEIGHT_STALL_CYCLES):
        improved = False
        for j in range(params.n):
            if j == i:
                continue

            def coord(v: float, jj: int = j) -> float:
                trial = w.copy()
                trial[jj] = v
                return value_at(trial)

            best_v, best_f = _golden_max(coord, 0.0, 1.0, _WEIGHT_TOL)
            if best_f > current + 1e-12:
                w[j] = best_v
                current = best_f
                improved = True
        if not improved:
            break
    else:
        raise NonConvergenceError("weighted coordinate ascent stalled")

    _, xi, yi = _top_up(i, float(w @ wp.x), float(w @ wp.y), params)
    return w, float(xi), float(yi)


def equilibrium_weighted(params: GameParams) -> WeightedProfile:
    """Round-robin weighted best responses to a stationary profile.

    Players move from most moderate to most extreme: moderates have two-sided
    linking motives and wire up to the largest providers first, which steers
    the ascent to the specialized-extremes stationary point instead of
    path-dependent free-riding chains.
    """
    wp = WeightedProfile.isolated(params)
    extremeness = np.abs(params.types - 0.5)
    order = np.lexsort((np.arange(params.n), extremeness))
    for _ in range(_WEIGHT_MAX_ROUNDS):
        delta = 0.0
        for i in order:
            i = int(i)
            w, xi, yi = best_response_weighted(i, wp, params)
            delta = max(
                delta,
                float(np.max(np.abs(w - wp.w[i]))),
                abs(xi - wp.x[i]),
                abs(yi - wp.y[i]),
            )
            wp.w[i] = w
            wp.x[i] = xi
            wp.y[i] = yi
        if delta < 1e-7:
            return wp
    raise NonConvergenceError("weighted dynamics did not settle")


def weighted_recipients(wp: WeightedProfile) -> tuple[int, ...]:
    incoming = wp.w.sum(axis=0)
    return tuple(int(i) for i in np.flatnonzero(incoming > _RECIPIENT_WEIGHT))


# ----------------------------------------------------------------------
# perturbed utility
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationParams:
    """Shock vector for the perturbed game.

    eps1 adds complementarity between providers (CES curvature), eps2 is
    transmission decay, eps3 discounts provision per extra link it travels,
    eps4 and eps5 shift per-player contribution and linking costs.
    """

    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    eps4: np.ndarray | float = 0.0
    eps5: np.ndarray | float = 0.0

    def __post_init__(self):
        # written as ranges each value must pass, so NaN fails them
        if not 0.0 <= self.eps1 <= 3.0:
            raise ValueError("eps1 must lie in [0, 3]")
        if abs(self.eps1 - 1.0) < 1e-12:
            raise ValueError("eps1 = 1 is a CES singularity")
        if not 0.0 <= self.eps2 <= 1.0:
            raise ValueError("eps2 must lie in [0, 1]")
        if not 0.0 <= self.eps3 <= 1.0:
            raise ValueError("eps3 must lie in [0, 1]")
        if not (np.isfinite(self.eps4).all() and np.isfinite(self.eps5).all()):
            raise ValueError("eps4 and eps5 must be finite")

    def cost_shift(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.eps4, dtype=float), (n,)).copy()

    def link_shift(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.eps5, dtype=float), (n,)).copy()


def _distance_shells(g: np.ndarray, i: int, max_depth: int) -> list[np.ndarray]:
    """Players grouped by shortest sponsored-path distance from i.

    Provision reaches a player only along chains of links they or their
    sources sponsor, matching the one-way flow of the baseline: shell 1 is
    exactly i's out-neighborhood.
    """
    n = g.shape[0]
    dist = np.full(n, -1, dtype=int)
    dist[i] = 0
    queue = deque([i])
    while queue:
        u = queue.popleft()
        if dist[u] >= max_depth:
            continue
        for v in np.flatnonzero(g[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    shells = []
    for d in range(1, max_depth + 1):
        shells.append(np.flatnonzero(dist == d))
    return shells


def _ces_aggregate(own: float, shell_values: list[np.ndarray], pert: PerturbationParams) -> float:
    """(own^rho + (1-eps2) * sum_d eps3^(d-1) * sum_j z_j^rho)^(1/rho)."""
    rho = 1.0 - pert.eps1
    decay = 1.0 - pert.eps2
    total = 0.0
    zero_blocks = own <= 0.0
    if own > 0.0:
        total += own ** rho
    for d, values in enumerate(shell_values, start=1):
        weight = decay * pert.eps3 ** (d - 1)  # 0**0 == 1: d = 1 survives eps3 = 0
        if weight == 0.0 or values.size == 0:
            continue
        if np.any(values <= 0.0):
            if rho < 0:
                zero_blocks = True
                continue
            values = values[values > 0.0]
        total += weight * float(np.sum(values ** rho))
    if rho > 0:
        return total ** (1.0 / rho)
    # negative CES exponent: any zero input collapses the aggregate
    if zero_blocks or total == 0.0:
        return 0.0
    return total ** (1.0 / rho)


def utility_perturbed(
    profile: StrategyProfile, i: int, params: GameParams, pert: PerturbationParams
) -> float:
    """Distance-attenuated CES consumption net of shocked costs.

    At eps = 0 this collapses to the baseline utility exactly: shell 1 is the
    out-neighborhood, the CES exponent is 1, and the cost shifts vanish.
    """
    max_depth = 1 if pert.eps3 == 0.0 else params.n - 1
    shells = _distance_shells(profile.g, i, max_depth)
    t = params.types[i]
    spec = params.benefit
    agg_x = _ces_aggregate(float(profile.x[i]), [profile.x[s] for s in shells], pert)
    agg_y = _ces_aggregate(float(profile.y[i]), [profile.y[s] for s in shells], pert)
    with np.errstate(divide="ignore"):  # log(0) = -inf marks a dominated strategy
        bx = t * float(spec.value(agg_x)) if t > 0.0 else 0.0
        by = (1.0 - t) * float(spec.value(agg_y)) if t < 1.0 else 0.0
    cost = params.cost_vec[i] + pert.cost_shift(params.n)[i]
    fee = params.k + pert.link_shift(params.n)[i]
    eta = int(profile.g[i].sum())
    return bx + by - cost * (profile.x[i] + profile.y[i]) - eta * fee


def _solve_good(
    weight: float, cost: float, shell_values: list[np.ndarray], pert: PerturbationParams,
    spec, hint: float,
) -> float:
    """Own contribution maximizing weight * f(aggregate) - cost * z."""
    if weight <= 0.0:
        return 0.0
    if cost <= 0.0:
        raise ValueError("non-positive effective contribution cost")
    rho = 1.0 - pert.eps1

    def deriv(z: float) -> float:
        agg = _ces_aggregate(z, shell_values, pert)
        if agg <= 0.0:
            return math.inf
        return weight * float(spec.deriv(agg)) * agg ** (1.0 - rho) * z ** (rho - 1.0) - cost

    lo = 1e-14
    if deriv(lo) <= 0.0:
        return 0.0
    hi = max(2.0 * hint, 1.0)
    while deriv(hi) > 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise ValueError("unbounded demand under perturbation")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def perturbed_contributions(
    g: np.ndarray, params: GameParams, pert: PerturbationParams
) -> tuple[np.ndarray, np.ndarray]:
    """Re-solve contributions on a fixed network under the perturbed utility."""
    n = params.n
    cost = params.cost_vec + pert.cost_shift(n)
    if np.any(cost <= 0.0):
        raise ValueError("a cost shock drove a contribution cost non-positive")
    max_depth = 1 if pert.eps3 == 0.0 else n - 1
    shells = [_distance_shells(g, i, max_depth) for i in range(n)]
    x = params.x_hat.copy()
    y = params.y_hat.copy()
    for _ in range(2000):
        delta = 0.0
        for i in range(n):
            sx = [x[s] for s in shells[i]]
            sy = [y[s] for s in shells[i]]
            xi = _solve_good(params.types[i], cost[i], sx, pert, params.benefit, params.x_hat[i])
            yi = _solve_good(1.0 - params.types[i], cost[i], sy, pert, params.benefit, params.y_hat[i])
            delta = max(delta, abs(xi - x[i]), abs(yi - y[i]))
            x[i], y[i] = xi, yi
        if delta < 1e-9:
            return x, y
    raise NonConvergenceError("perturbed contribution dynamic did not settle")


def _perturbed_best_utility(
    i: int, profile: StrategyProfile, params: GameParams, pert: PerturbationParams
) -> float:
    """Best perturbed utility over i's link subsets, others held fixed: i's
    contributions re-solved against each subset, priced by utility_perturbed."""
    n, t = params.n, params.types[i]
    cost = params.cost_vec[i] + pert.cost_shift(n)[i]
    max_depth = 1 if pert.eps3 == 0.0 else n - 1
    trial = profile.copy()
    best = -np.inf
    others = np.delete(np.arange(n), i)
    for row in _subset_members(n - 1, n - 1)[0]:
        trial.g[i] = 0
        trial.g[i, others[row[row < n - 1]]] = 1
        shells = _distance_shells(trial.g, i, max_depth)
        sx = [profile.x[s] for s in shells]
        sy = [profile.y[s] for s in shells]
        trial.x[i] = _solve_good(t, cost, sx, pert, params.benefit, params.x_hat[i])
        trial.y[i] = _solve_good(1.0 - t, cost, sy, pert, params.benefit, params.y_hat[i])
        best = max(best, utility_perturbed(trial, i, params, pert))
    return best


def perturbation_robustness(
    profile: StrategyProfile,
    params: GameParams,
    eps_bound: float,
    trials: int,
    seed: int = 0,
) -> float:
    """Fraction of random shock draws under which the network stays stable.

    Each trial re-solves contributions on the fixed network and then checks
    every player for a profitable link deviation under the perturbed utility.
    The shock bound must be finite and non-negative; 0 draws zero shocks.
    """
    # the cost shifts are drawn from [-eps_bound, eps_bound], whose width must be finite
    if not (math.isfinite(2.0 * eps_bound) and eps_bound >= 0):
        raise ValueError("eps_bound must be finite and non-negative")
    if params.n > 8:
        raise ValueError("robustness checks are limited to n <= 8")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = params.n
    preserved = 0
    for _ in range(trials):
        e1 = min(rng.uniform(0.0, eps_bound), 3.0)
        if 0.99 < e1 < 1.01:
            e1 = 0.99
        pert = PerturbationParams(
            eps1=e1,
            eps2=min(rng.uniform(0.0, eps_bound), 1.0),
            eps3=min(rng.uniform(0.0, eps_bound), 1.0),
            eps4=rng.uniform(-eps_bound, eps_bound, n),
            eps5=rng.uniform(-eps_bound, eps_bound, n),
        )
        try:
            x, y = perturbed_contributions(profile.g, params, pert)
        except (ValueError, NonConvergenceError):
            continue
        shocked = StrategyProfile(x, y, profile.g.copy())
        ok = True
        for i in range(n):
            cur = utility_perturbed(shocked, i, params, pert)
            if _perturbed_best_utility(i, shocked, params, pert) > cur + EPS_DEV:
                ok = False
                break
        if ok:
            preserved += 1
    return preserved / trials

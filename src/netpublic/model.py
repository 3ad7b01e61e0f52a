"""Core primitives of the two-good network game.

Players are indexed by strictly increasing taste types in [0, 1] with the
extreme types 0 and 1 always present.  A strategy is a pair of non-negative
contributions (one per good) plus a row of directed links; sponsoring a link
to j grants access to j's full provision of both goods.  A player with taste
weight zero on a good simply ignores that good: the 0 * f(0) = 0 convention
is applied throughout so that corner players specialize cleanly.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .benefits import LOG, BenefitSpec

# Absolute tolerance for "equals isolation demand" style checks.
EPS_NUM = 1e-9
# Minimum utility gain that counts as a profitable deviation.
EPS_DEV = 1e-7


# ----------------------------------------------------------------------
# type sampling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncNormal:
    """Normal(mean, sd) truncated to [0, 1], sampled by inverse CDF."""

    mean: float = 0.5
    sd: float = 1.0

    def __post_init__(self):
        # a NaN parameter makes every draw land outside (0, 1), so sampling
        # would never finish
        if not (math.isfinite(self.mean) and math.isfinite(self.sd) and self.sd > 0):
            raise ValueError("mean and sd must be finite and sd positive")


UNIFORM = "uniform"

# Rational approximation of the standard normal quantile (Acklam's
# coefficients), refined with one Halley step so the result is accurate to
# near machine precision while staying fully deterministic and portable.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5])
             / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0))
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = ((((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]) * q
             / (((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5])
              / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0))
    # one Halley refinement against erfc
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def _draw_one(dist, rng) -> float:
    u = rng.random()
    if dist == UNIFORM:
        return u
    if isinstance(dist, TruncNormal):
        a = normal_cdf((0.0 - dist.mean) / dist.sd)
        b = normal_cdf((1.0 - dist.mean) / dist.sd)
        p = a + u * (b - a)
        if not 0.0 < p < 1.0:
            return 0.0 if p <= 0.0 else 1.0
        return dist.mean + dist.sd * normal_quantile(p)
    raise ValueError(f"unknown distribution {dist!r}")


def draw_interior_types(dist, count: int, rng) -> list[float]:
    """Draw `count` distinct interior types in (0, 1), in draw order.

    Collisions (with earlier draws or with the endpoints) are re-drawn, which
    keeps the realized vector consistent with a continuous distribution.
    """
    seen: set[float] = set()
    out: list[float] = []
    while len(out) < count:
        t = _draw_one(dist, rng)
        if t <= 0.0 or t >= 1.0 or t in seen:
            continue
        seen.add(t)
        out.append(t)
    return out


def sample_types(dist, n: int, seed: int) -> np.ndarray:
    """Sample a sorted type vector of length n with 0 and 1 always present."""
    if n < 3:
        raise ValueError("need at least 3 players")
    rng = np.random.Generator(np.random.PCG64(seed))
    interior = draw_interior_types(dist, n - 2, rng)
    return np.array(sorted([0.0] + interior + [1.0]))


def validate_types(types: np.ndarray) -> np.ndarray:
    types = np.asarray(types, dtype=float)
    if types.ndim != 1 or types.size < 3:
        raise ValueError("type vector must be 1-D with at least 3 entries")
    if types[0] != 0.0 or types[-1] != 1.0:
        raise ValueError("type vector must start at 0 and end at 1")
    if not np.all(np.diff(types) > 0):
        raise ValueError("types must be strictly increasing")
    return types


# ----------------------------------------------------------------------
# parameters and strategy profiles
# ----------------------------------------------------------------------

class IsolationDemand(NamedTuple):
    x_hat: float
    y_hat: float


def isolation_demand(t: float, c: float, spec: BenefitSpec) -> IsolationDemand:
    """Autarky contributions: weight * f'(z) = c per good, zero at zero weight."""
    if c <= 0:
        raise ValueError("contribution cost must be positive")
    x_hat = spec.deriv_inv(c / t) if t > 0.0 else 0.0
    y_hat = spec.deriv_inv(c / (1.0 - t)) if t < 1.0 else 0.0
    return IsolationDemand(float(x_hat), float(y_hat))


@dataclass(frozen=True)
class GameParams:
    """Immutable game description: types, costs, linking fee, benefit family.

    ``costs`` holds per-player contribution costs and defaults to the common
    cost ``c``; the subsidy planner lowers individual entries.  Costs must keep
    2 n^2 (sum(x_hat) + sum(y_hat)) finite: top-up contributions never exceed
    isolation demands, so that bounds every spillover sum and polarization.
    """

    types: np.ndarray
    c: float
    k: float
    benefit: BenefitSpec
    costs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "types", validate_types(self.types))
        if not (math.isfinite(self.c) and self.c > 0 and math.isfinite(self.k) and self.k > 0):
            raise ValueError("c and k must be finite and positive")
        if self.costs is not None:
            costs = np.asarray(self.costs, dtype=float)
            if costs.shape != self.types.shape:
                raise ValueError("costs must match the type vector in shape")
            if not np.all(np.isfinite(costs) & (costs > 0)):
                raise ValueError("all per-player costs must be finite and positive")
            object.__setattr__(self, "costs", costs)
        with np.errstate(over="ignore"):
            if not math.isfinite(2.0 * self.n**2 * (self.x_hat.sum() + self.y_hat.sum())):
                raise ValueError("costs so small that isolation demands overflow")

    @property
    def n(self) -> int:
        return self.types.size

    @cached_property
    def cost_vec(self) -> np.ndarray:
        if self.costs is not None:
            return self.costs
        return np.full(self.n, float(self.c))

    @cached_property
    def k_vec(self) -> np.ndarray:
        """The linking fee once per player, indexed as ``cost_vec`` is."""
        return np.full(self.n, float(self.k))

    @cached_property
    def x_hat(self) -> np.ndarray:
        t = self.types
        out = np.zeros(self.n)
        pos = t > 0.0
        out[pos] = self.benefit.deriv_inv(self.cost_vec[pos] / t[pos])
        return out

    @cached_property
    def y_hat(self) -> np.ndarray:
        t = self.types
        out = np.zeros(self.n)
        pos = t < 1.0
        out[pos] = self.benefit.deriv_inv(self.cost_vec[pos] / (1.0 - t[pos]))
        return out

    def with_k(self, k: float) -> "GameParams":
        return GameParams(self.types, self.c, k, self.benefit, self.costs)

    def with_costs(self, costs: np.ndarray) -> "GameParams":
        return GameParams(self.types, self.c, self.k, self.benefit, costs)


@dataclass(frozen=True)
class _GameStack:
    """Games on the same n players with the same benefit family, read by the
    array kernels as one game: player i of game g has parameter index
    g * n + i, so ``index % n`` is the player, and one GameParams is a stack
    of one.  Each per-player array concatenates the games' arrays."""

    n: int
    benefit: BenefitSpec
    types: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray
    cost_vec: np.ndarray
    k_vec: np.ndarray

    @classmethod
    def of(cls, games: list[GameParams]) -> "_GameStack":
        """The stack of games that share n and the benefit family."""
        fields = ("types", "x_hat", "y_hat", "cost_vec", "k_vec")
        return cls(games[0].n, games[0].benefit,
                   *(np.concatenate([getattr(g, f) for g in games]) for f in fields))


@dataclass
class StrategyProfile:
    """Contributions per good plus the directed link matrix.

    ``g[i, j] = 1`` means player i sponsors a link to j and therefore consumes
    j's provision of both goods.  The diagonal is always zero.
    """

    x: np.ndarray
    y: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.g = np.asarray(self.g, dtype=np.int8)
        n = self.x.size
        if self.y.size != n or self.g.shape != (n, n):
            raise ValueError("inconsistent profile dimensions")
        # NaN fails every comparison, so a sign test alone lets it through
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("contributions must be finite")
        if not ((self.x >= 0).all() and (self.y >= 0).all()):
            raise ValueError("contributions must be non-negative")
        if np.any(np.diagonal(self.g) != 0):
            raise ValueError("link matrix must have a zero diagonal")

    @classmethod
    def isolated(cls, params: GameParams) -> "StrategyProfile":
        """Empty network with every player at their isolation demand."""
        n = params.n
        return cls(params.x_hat.copy(), params.y_hat.copy(), np.zeros((n, n), np.int8))

    @property
    def n(self) -> int:
        return self.x.size

    def copy(self) -> "StrategyProfile":
        return StrategyProfile(self.x.copy(), self.y.copy(), self.g.copy())

    def in_degree(self) -> np.ndarray:
        return np.asarray(self.g.sum(axis=0), dtype=int)

    def out_degree(self) -> np.ndarray:
        return np.asarray(self.g.sum(axis=1), dtype=int)

    def links_of(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.g[i])

    def consumption(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-player consumption of each good: own provision plus spillovers."""
        gx = self.g @ self.x
        gy = self.g @ self.y
        return self.x + gx, self.y + gy

    def set_strategy(self, i: int, targets, xi: float, yi: float) -> None:
        self.g[i, :] = 0
        for j in targets:
            self.g[i, j] = 1
        self.x[i] = xi
        self.y[i] = yi


def spillovers(profile: StrategyProfile, i: int) -> tuple[float, float]:
    """Provision player i accesses through sponsored links."""
    row = profile.g[i]
    return float(row @ profile.x), float(row @ profile.y)


def _log_zero_guard(benefit: BenefitSpec):
    """Where log's f(0) = -inf is a valid value, suppress numpy's divide
    warning; the other families never divide by zero, so they skip the
    errstate entry (a few microseconds a call)."""
    return np.errstate(divide="ignore") if benefit.family == LOG else nullcontext()


def gross_value(params: GameParams, i, xi, yi, x_bar, y_bar):
    """Player i's benefits from consuming (xi + x_bar, yi + y_bar), net of the
    cost of the own contributions (xi, yi) and before link fees.

    Broadcasts over array arguments; ``i`` may be an index array, one player
    per element, with the scalar arithmetic applied elementwise, and
    ``params`` a _GameStack that ``i`` indexes by parameter index.  A good
    with zero taste weight counts 0 even where the log family would give -inf.
    """
    t = params.types[i]
    with _log_zero_guard(params.benefit):
        vx = params.benefit.value(xi + x_bar)
        vy = params.benefit.value(yi + y_bar)
    bx = np.zeros(np.broadcast(t, vx).shape)
    by = np.zeros(np.broadcast(t, vy).shape)
    np.multiply(t, vx, out=bx, where=t > 0.0)
    np.multiply(1.0 - t, vy, out=by, where=t < 1.0)
    return bx + by - params.cost_vec[i] * (xi + yi)


def utility(profile: StrategyProfile, i: int, params: GameParams) -> float:
    """Consumption benefits net of contribution and linking costs.

    Under the log family a positive-weight good with zero consumption yields
    -inf, marking the strategy as dominated rather than raising.
    """
    x_bar, y_bar = spillovers(profile, i)
    eta = int(profile.g[i].sum())
    return gross_value(params, i, profile.x[i], profile.y[i], x_bar, y_bar) - eta * params.k


def utilities(
    params: GameParams, players, X: np.ndarray, Y: np.ndarray, links: np.ndarray
) -> np.ndarray:
    """``utility`` of player players[r] in row r, for a stack of rows at once.

    Row r is one profile's contributions X[r], Y[r] (length n) and that
    player's link row links[r]; ``players`` may also be a single index for
    every row.  With a _GameStack for ``params`` the players are parameter
    indices, so each row reads its own game.  Spillovers are one 1 x n
    product per row, the summation ``spillovers`` uses, so each entry equals
    ``utility`` bit for bit.
    """
    rows = np.arange(len(X))
    L = np.asarray(links, dtype=float)[:, None, :]
    x_bar = (L @ X[:, :, None])[:, 0, 0]
    y_bar = (L @ Y[:, :, None])[:, 0, 0]
    own = players % params.n
    gross = gross_value(params, players, X[rows, own], Y[rows, own], x_bar, y_bar)
    return gross - L.sum(axis=(1, 2)) * params.k_vec[players]

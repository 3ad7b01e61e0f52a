import contextlib
import importlib
import itertools

import numpy as np
import pytest

from netpublic import BenefitSpec, GameParams, k_tilde

FAMILIES = (BenefitSpec.log(), BenefitSpec.sqrt(), BenefitSpec.power(0.3))


def random_types(rng, n: int) -> np.ndarray:
    return np.array(sorted([0.0] + list(rng.uniform(size=n - 2)) + [1.0]))


def random_scenario(rng, n: int, k_span=(0.02, 1.2)) -> GameParams:
    """Random game with k drawn relative to the empty-network threshold."""
    types = random_types(rng, n)
    spec = FAMILIES[int(rng.integers(len(FAMILIES)))]
    c = float(rng.uniform(0.5, 2.0))
    probe = GameParams(types, c, 1.0, spec)
    k = float(rng.uniform(*k_span)) * k_tilde(probe)
    return GameParams(types, c, k, spec)


def criterion_1_games(count: int = 200):
    """Criterion 1's games in order: n in [5, 50], the three families in
    turn, k drawn relative to the empty-network threshold."""
    rng = np.random.default_rng(20240801)
    for idx in range(count):
        n = int(rng.integers(5, 51))
        types = random_types(rng, n)
        spec = FAMILIES[idx % 3]
        c = float(rng.uniform(0.5, 2.0))
        k = float(rng.uniform(0.02, 1.2)) * k_tilde(GameParams(types, c, 1.0, spec))
        yield GameParams(types, c, k, spec)


# the best-response search at its two breadths (P, L) as functions of n:
# every opponent and any number of links, an exact search, and the receivers
# plus the 4 largest providers with at most 3 links, the structural one
BREADTHS = {"exact": lambda n: (n - 1, n - 1), "structural": lambda n: (4, 3)}


@contextlib.contextmanager
def pinned_breadth(search):
    """The kernel's breadth pinned to BREADTHS[search] at any n."""
    with pytest.MonkeyPatch.context() as patch:
        # the module; the package attribute of this name is the function
        module = importlib.import_module("netpublic.best_response")
        patch.setattr(module, "_breadth", BREADTHS[search])
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def subset_matrix(m: int, cap: int | None = None) -> np.ndarray:
    """Every subset of range(m) of at most cap members (any number when cap
    is None) as a 0/1 float row, in (size, lex) order: an enumeration of
    the tests' own, apart from the package's."""
    top = m if cap is None else min(cap, m)
    combos = [c for size in range(top + 1) for c in itertools.combinations(range(m), size)]
    mat = np.zeros((len(combos), m))
    for r, combo in enumerate(combos):
        mat[r, list(combo)] = 1.0
    return mat


def unpruned_exact_responses(players, X, Y, params):
    """The exact best-response kernel before the pruned candidate table:
    every subset of a row's n - 1 opponents in (size, lex) order, subset
    sums as one stacked 1 x (n - 1) product per row, the first subset within
    EPS_DEV of the maximum.  Returns link rows, x, y and utility."""
    from netpublic.best_response import _top_up
    from netpublic.model import EPS_DEV

    b, n = X.shape
    subsets = subset_matrix(n - 1)
    cand = np.array([[j for j in range(n) if j != i] for i in players])
    rows = np.arange(b)[:, None]
    gross, xi, yi = _top_up(players[:, None], (X[rows, cand][:, None] @ subsets.T)[:, 0],
                            (Y[rows, cand][:, None] @ subsets.T)[:, 0], params)
    util = gross - params.k * subsets.sum(axis=1)
    pick = np.argmax(util >= util.max(axis=1)[:, None] - EPS_DEV, axis=1)
    links = np.zeros((b, n), dtype=np.int8)
    links[rows, cand] = subsets[pick]
    at = np.arange(b), pick
    return links, xi[at], yi[at], util[at]


def gross_utilities(i, cand, subsets, profile, params):
    """Utility of every candidate link subset of player i (rows of
    ``subsets`` over the players ``cand``) with re-optimized contributions,
    and those contributions."""
    from netpublic.best_response import _top_up

    gross, xi, yi = _top_up(i, subsets @ profile.x[cand], subsets @ profile.y[cand], params)
    return gross - params.k * subsets.sum(axis=1), xi, yi

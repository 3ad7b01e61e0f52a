"""Property tests of the paper's invariants on the n <= 4 brute-force oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netpublic import GameParams, brute_force_equilibria, k_tilde, verify_nash
from tests.conftest import FAMILIES

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
        assert verify_nash(prof, params, "exact").classification != "NonEquilibrium"


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

"""Property tests of the symmetric-group action on K_n: acting by sigma
and then by pi is acting by pi sigma, within 10 tol, for n <= 9.

Hypothesis runs under the derandomized profile of conftest.py.
"""

from hypothesis import given, settings, strategies as st

from orbstab.moduli import LambdaTuple, Permutation, g_sigma, tuple_deviation

DERANDOMIZED = settings.get_profile("derandomized")

#: A K_n point draws each coordinate from its own cell of a grid of side
#: 0.5 over [-2, 3] x [-2, 2], less the cells of 0 and 1, moved by at most
#: 0.1 along each axis: the marked points stay at least 0.3 apart.
cells = st.tuples(st.integers(-4, 6), st.integers(-4, 4)).filter(
    lambda cell: cell not in ((0, 0), (2, 0)))
jitter = st.floats(-0.1, 0.1)


@st.composite
def actions(draw):
    """A K_n point with 5 <= n <= 9 and two permutations of its slots."""
    n = draw(st.integers(5, 9))
    spots = draw(st.lists(cells, min_size=n - 3, max_size=n - 3, unique=True))
    lam = LambdaTuple(tuple(complex(0.5 * x + draw(jitter), 0.5 * y + draw(jitter))
                            for x, y in spots))
    sigma, pi = (Permutation(draw(st.permutations(range(1, n + 1))))
                 for _ in range(2))
    return lam, sigma, pi


@DERANDOMIZED
@given(actions())
def test_group_law(action):
    lam, sigma, pi = action
    two_steps = g_sigma(g_sigma(lam, sigma), pi)
    one_step = g_sigma(lam, pi.compose(sigma))
    assert tuple_deviation(two_steps.values, one_step.values) <= 10.0 * lam.tol

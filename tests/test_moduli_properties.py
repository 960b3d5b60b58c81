"""Property tests of the symmetric-group action on K_n: acting by sigma
and then by pi is acting by pi sigma, within 10 tol, for n <= 9; and on
symmetric points, the triple search finds the oracle's permutations and
the isomorphism check passes, for n <= 12.

Hypothesis runs under the derandomized profile of conftest.py.
"""

import functools

from hypothesis import given, settings, strategies as st

from orbstab.classifier import INFINITE, classify
from orbstab.geometry import MobiusMap
from orbstab.moduli import (LambdaTuple, Permutation, _normalize_to_lambda,
                            g_sigma, phi_check, stabilizer_G_lambda,
                            tuple_deviation)
from orbstab.oracle import stabilizer
from orbstab.witness import witness

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


@functools.lru_cache(maxsize=None)
def _witness_points(n, entry):
    return witness(n, entry).points


#: Entries of a Mobius map drawn from the disc of radius 2, with
#: |det| > 0.2, so it stretches chordal distances by at most 80.
entries = st.complex_numbers(max_magnitude=2.0)
mobius_maps = st.tuples(entries, entries, entries, entries).filter(
    lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 0.2).map(lambda m: MobiusMap(*m))


@st.composite
def symmetric_points(draw):
    """The K_n point, 5 <= n <= 12, normalized from the witness of a finite
    classify(n) entry whose points are shuffled and moved by a Mobius map."""
    n = draw(st.integers(5, 12))
    entry = draw(st.sampled_from([e for e in classify(n)
                                  if e.label.kind != INFINITE]))
    points = draw(st.permutations(_witness_points(n, entry)))
    g = draw(mobius_maps)
    return _normalize_to_lambda([g.apply(p).value() for p in points])


@DERANDOMIZED
@given(symmetric_points())
def test_triple_search_finds_the_oracle_permutations(lam):
    rows = stabilizer(lam.point_set()).rows + 1
    assert [sigma.images for sigma in stabilizer_G_lambda(lam)] == sorted(
        map(tuple, rows.tolist()))
    assert phi_check(lam).passed

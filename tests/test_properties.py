"""Property tests: the oracle's label and component index do not depend on
how a witness set is given, neither on the order of its points nor on a
Mobius map of bounded stretch applied to all of them.

Hypothesis runs under the derandomized profile of conftest.py.
"""

import cmath
import functools
import math

from hypothesis import given, settings, strategies as st

from orbstab import classifier as cl
from orbstab.geometry import MobiusMap, PointSet
from orbstab.oracle import stabilizer
from orbstab.witness import witness

DERANDOMIZED = settings.get_profile("derandomized")

#: every finite entry of classify(n) for n <= 12
CASES = [(n, e) for n in range(5, 13) for e in cl.classify(n)
         if e.label.kind != cl.INFINITE]

#: largest hyperbolic length of the random maps; they stretch chordal
#: distances by at most e^MAX_STRETCH
MAX_STRETCH = 3.0


@functools.lru_cache(maxsize=None)
def witness_set(case: int) -> PointSet:
    n, entry = CASES[case]
    return witness(n, entry)


cases = st.integers(0, len(CASES) - 1)
angles = st.floats(0.0, 2.0 * math.pi)


def unitary(alpha: float, beta: float, gamma: float):
    """An SU(2) matrix, as MobiusMap entries: a rotation of the sphere."""
    return (cmath.exp(1j * alpha) * math.cos(beta),
            -cmath.exp(-1j * gamma) * math.sin(beta),
            cmath.exp(1j * gamma) * math.sin(beta),
            cmath.exp(-1j * alpha) * math.cos(beta))


@st.composite
def bounded_maps(draw) -> MobiusMap:
    """A rotation, a boost of hyperbolic length at most MAX_STRETCH along
    the polar axis, and another rotation."""
    u, v = (MobiusMap(*unitary(draw(angles), draw(angles), draw(angles)))
            for _ in range(2))
    half = 0.5 * draw(st.floats(0.0, MAX_STRETCH))
    return u.compose(MobiusMap(math.exp(half), 0.0, 0.0, math.exp(-half))).compose(v)


def assert_same_entry(case: int, points):
    n, entry = CASES[case]
    got = stabilizer(PointSet(points, tol=witness_set(case).tol))
    assert (got.label, got.index) == (entry.label, entry.index)


@DERANDOMIZED
@given(case=cases, data=st.data())
def test_entry_does_not_depend_on_the_order_of_the_points(case, data):
    points = witness_set(case).points
    order = data.draw(st.permutations(range(len(points))))
    assert_same_entry(case, [points[i] for i in order])


@DERANDOMIZED
@given(case=cases, g=bounded_maps())
def test_entry_does_not_move_under_a_mobius_map(case, g):
    assert_same_entry(case, [g.apply(p) for p in witness_set(case).points])

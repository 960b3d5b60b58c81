"""The witness constructions in their straightforward form: the
reference that ``test_witness.py`` compares ``orbstab.witness`` against.

The polyhedral functions compute the same quantity as their namesakes in
``orbstab.witness``, one pair at a time: the closure tests each candidate
against every element found so far with ``maps_equal``, and the orbits
test each point against every point kept so far with
``chordal_distance``.  The elements, their order and every orbit must
come out bit for bit the same as the fast code's.

``dihedral_witness`` and ``cyclic_witness`` build the dihedral, K4 and
cyclic sets one kind at a time, each in its own closed form, for any
index in the slot ranges, realizable or not.  ``_assemble``, which reads
every kind from one table, must give the same points in the same order,
bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math

from orbstab import classifier as cl
from orbstab.geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                              chordal_distance, homogeneous_arrays,
                              maps_equal, snap_arrays)
from orbstab.witness import _SPECIAL_TAGS, _orbit_key


def _close_group(generators, max_order: int = 200,
                 tol: float = 1e-9) -> list[MobiusMap]:
    elements = [MobiusMap.identity()]
    frontier = list(generators)
    while frontier:
        f = frontier.pop()
        if any(maps_equal(f, g, tol=tol) for g in elements):
            continue
        elements.append(f)
        if len(elements) > max_order:
            raise RuntimeError("group closure exceeded the expected order; "
                               "generators are wrong or tolerance too loose")
        for g in generators:
            frontier.append(f.compose(g))
            frontier.append(g.compose(f))
    return elements


def snap_point(p: RiemannPoint, eps: float = 1e-12) -> RiemannPoint:
    """Zero out homogeneous components below eps (relative): the scalar
    reference for ``geometry.snap_arrays``."""
    m = max(abs(p.z), abs(p.w))

    def clean(c: complex) -> complex:
        return complex(0.0 if abs(c.real) < eps * m else c.real,
                       0.0 if abs(c.imag) < eps * m else c.imag)

    return RiemannPoint(clean(p.z), clean(p.w))


def _orbit_of(point: RiemannPoint, group, tol: float) -> tuple[RiemannPoint, ...]:
    orbit: list[RiemannPoint] = []
    for g in group:
        q = snap_point(g.apply(point))
        if all(chordal_distance(q, r) > tol for r in orbit):
            orbit.append(q)
    return tuple(orbit)


@functools.lru_cache(maxsize=None)
def _special_orbits(kind: str, group) -> dict[str, tuple[RiemannPoint, ...]]:
    """The special orbits of the group, the rotation group of this kind
    as a tuple of maps, keyed by tag."""
    tol = 1e-6
    seen: list[RiemannPoint] = []
    orbits: list[tuple[RiemannPoint, ...]] = []
    for g in group:
        if g.is_identity(tol):
            continue
        for p in g.fixed_points():
            if any(chordal_distance(p, q) <= tol for q in seen):
                continue
            orbit = _orbit_of(p, group, tol)
            seen.extend(orbit)
            orbits.append(orbit)
    orbits.sort(key=lambda o: (len(o), _orbit_key(o)))
    slots = zip(_SPECIAL_TAGS[kind], cl.GroupLabel(kind).orbit_sizes())
    tags = [tag for slot, _ in slots for tag in slot]
    return dict(zip(tags, orbits))


def _pointset(values, tol: float) -> PointSet:
    z, w, _ = homogeneous_arrays(values)
    return PointSet.from_arrays(*snap_arrays(z, w), tol=tol)


def _unit(angle_turns: float) -> complex:
    return cmath.exp(2j * math.pi * angle_turns)


def _roots(p: int, offset_turns: float = 0.0) -> list[complex]:
    return [_unit(k / p + offset_turns) for k in range(p)]


def _dihedral_orbit(p: int, z: complex) -> list[complex]:
    return [z * _unit(k / p) for k in range(p)] + \
           [_unit(k / p) / z for k in range(p)]


def _cyclic_orbit(p: int, z: complex) -> list[complex]:
    return [z * _unit(k / p) for k in range(p)]


def dihedral_witness(p: int, index: tuple[int, ...],
                     tol: float = DEFAULT_TOL) -> PointSet:
    """The set of a dihedral index of rotation order p, K4 at p = 2."""
    if p == 2:
        nu, k = index
        values: list[complex] = []
        if nu >= 1:
            values += [0.0, complex("inf")]
        if nu >= 2:
            values += [1.0, -1.0]
        if nu >= 3:
            values += [1j, -1j]
        for l in range(1, k + 1):
            values += _dihedral_orbit(2, _unit(l / (16.0 * k * k)))
        return _pointset(values, tol)

    nu, eps, k = index
    values = []
    if nu >= 1:
        values += [0.0, complex("inf")]
    if eps >= 1:
        values += _roots(p)
    if eps >= 2:
        values += _roots(p, offset_turns=1.0 / (2.0 * p))
    for l in range(1, k + 1):
        values += _dihedral_orbit(p, _unit(l / (8.0 * k * k * p)))
    return _pointset(values, tol)


def cyclic_witness(p: int, index: tuple[int, ...],
                   tol: float = DEFAULT_TOL) -> PointSet:
    """The set of a cyclic index of order p; Z_2's sets lie on the real
    line."""
    nu, k = index
    if p == 2:
        if nu == 0:
            values = [s * (2.0 * j - 1.0) / 2.0
                      for j in range(1, k + 1) for s in (1.0, -1.0)]
        else:
            values = [0.0] + [s * float(j)
                              for j in range(1, k + 1) for s in (1.0, -1.0)]
            if nu == 2:
                values.append(complex("inf"))
        return _pointset(values, tol)
    values = []
    if nu >= 1:
        values.append(0.0)
    if nu >= 2:
        values.append(complex("inf"))
    for l in range(1, k + 1):
        values += _cyclic_orbit(p, float(l))
    return _pointset(values, tol)

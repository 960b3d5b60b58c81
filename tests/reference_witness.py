"""The polyhedral constructions in their straightforward form: the
reference that ``test_witness.py`` compares ``orbstab.witness`` against.

Each function computes the same quantity as its namesake in
``orbstab.witness``, one pair at a time: the closure tests each candidate
against every element found so far with ``maps_equal``, and the orbits
test each point against every point kept so far with
``chordal_distance``.  The elements, their order and every orbit must
come out bit for bit the same as the fast code's.
"""

from __future__ import annotations

import functools

from orbstab import classifier as cl
from orbstab.geometry import (MobiusMap, RiemannPoint, chordal_distance,
                              maps_equal, snap_point)
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

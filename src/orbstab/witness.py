"""Explicit point sets realizing every classification entry.

A witness takes the first ``count`` point families of each special index
slot, then k generic orbits on one schedule per kind.  The dihedral and
cyclic families lie on the unit circle; the polyhedral ones are the
special orbits of the rotation group, generated as Mobius maps.  Every
witness is verified by the stabilizer oracle before it is returned.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import classifier as cl
from .errors import (AmbiguousDecision, AmbiguousMatching, InvalidCardinality,
                     SeedOnSpecialLocus, UnrealizableIndex,
                     WitnessSearchExhausted)
from .geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                       chordal_distances, homogeneous_arrays,
                       mobius_through_triple, point_arrays, snap_arrays)
from .oracle import stabilizer

# ---------------------------------------------------------------------------
# Rotations as Mobius maps, and the polyhedral rotation groups.

def _rodrigues(axis, angle, v):
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    v = np.asarray(v, dtype=float)
    return (v * math.cos(angle) + np.cross(k, v) * math.sin(angle)
            + k * np.dot(k, v) * (1.0 - math.cos(angle)))


_REF_SPHERE = (np.array([0.0, 0.0, -1.0]),   # -> 0
               np.array([1.0, 0.0, 0.0]),    # -> 1
               np.array([0.0, 0.0, 1.0]))    # -> inf
_REF_POINTS = (RiemannPoint.from_value(0.0), RiemannPoint.from_value(1.0),
               RiemannPoint.infinity())


def rotation_mobius(axis, angle: float) -> MobiusMap:
    """The Mobius map induced by the rotation about ``axis`` by ``angle``.

    Built from the images of a reference triple, so it matches the sphere
    rotation exactly regardless of sign conventions.
    """
    images = tuple(RiemannPoint.from_sphere(*_rodrigues(axis, angle, v))
                   for v in _REF_SPHERE)
    return mobius_through_triple(_REF_POINTS, images, tol=1e-12)


#: The tolerance at which ``_close_group`` takes two products for one map.
_CLOSURE_TOL = 1e-9


def _close_group(generators, max_order: int) -> list[MobiusMap]:
    """The group the generators generate, identity first.

    Products wait on a stack.  Each popped candidate f is tested against
    every element g found so far in one numpy pass over the (4, m) array
    of their entries, by ``maps_equal``'s rule: f g^-1, with g^-1 = (d, -b,
    -c, a), is the identity within ``_CLOSURE_TOL`` times the larger of its
    diagonal moduli.
    """
    elements = [MobiusMap.identity()]
    found = np.empty((4, max_order + 1), dtype=complex)
    found[:, 0] = 1.0, 0.0, 0.0, 1.0
    frontier = list(generators)
    while frontier:
        f = frontier.pop()
        a, b, c, d = found[:, :len(elements)]
        p, s = f.a * d - f.b * c, f.d * a - f.c * b   # diagonal of f g^-1
        scale = _CLOSURE_TOL * np.maximum(np.abs(p), np.abs(s))
        if ((np.abs(f.b * a - f.a * b) <= scale)
                & (np.abs(f.c * d - f.d * c) <= scale)
                & (np.abs(p - s) <= scale)).any():
            continue
        found[:, len(elements)] = f.a, f.b, f.c, f.d
        elements.append(f)
        if len(elements) > max_order:
            raise RuntimeError("group closure exceeded the expected order; "
                               "generators are wrong or tolerance too loose")
        for g in generators:
            frontier.append(f.compose(g))
            frontier.append(g.compose(f))
    return elements


def _generators(kind: str) -> list[MobiusMap]:
    """Two rotations generating the rotation group of the given polyhedral
    kind.

    Orientations: the octahedron has vertices {0, inf, +-1, +-i}; the
    tetrahedra are the alternating vertices of the axis-aligned cube; the
    icosahedron has a vertex axis through 0 and inf.
    """
    third_diag = rotation_mobius((1.0, 1.0, 1.0), 2.0 * math.pi / 3.0)
    if kind == cl.S4:
        return [MobiusMap(1j, 0.0, 0.0, 1.0), third_diag]
    if kind == cl.A4:
        return [MobiusMap(-1.0, 0.0, 0.0, 1.0), third_diag]
    if kind == cl.A5:
        # vertex rotation about the polar axis plus a flip through the
        # midpoint of an edge ending at the north-pole vertex
        ring = np.array([2.0 / math.sqrt(5.0), 0.0, 1.0 / math.sqrt(5.0)])
        edge_axis = np.array([0.0, 0.0, 1.0]) + ring
        return [MobiusMap(cmath.exp(2j * math.pi / 5.0), 0.0, 0.0, 1.0),
                rotation_mobius(edge_axis, math.pi)]
    raise ValueError(f"not a polyhedral kind: {kind}")


@functools.lru_cache(maxsize=None)
def polyhedral_group(kind: str) -> tuple[MobiusMap, ...]:
    """The rotation group of the given polyhedral kind as Mobius maps,
    closed from ``_generators(kind)``."""
    gens = _generators(kind)
    expected = cl.GroupLabel(kind).order
    elements = _close_group(gens, max_order=expected + 1)
    if len(elements) != expected:
        raise RuntimeError(f"{kind} closure produced {len(elements)} elements")
    return tuple(elements)


def _orbit_of(point: RiemannPoint, group, tol: float) -> tuple[RiemannPoint, ...]:
    """The images of point under the group, in the group's order, each kept
    unless it lies within tol of an image kept before it."""
    z, w, _ = point_arrays([g.apply(point) for g in group])
    z, w, nrm = snap_arrays(z, w)
    close = chordal_distances(z[:, None], w[:, None], nrm[:, None],
                              z, w, nrm) <= tol
    kept = np.zeros(len(z), dtype=bool)
    for i, row in enumerate(close):
        kept[i] = not row[kept].any()
    return tuple(RiemannPoint._of_normalized(a, b)
                 for a, b in zip(z[kept].tolist(), w[kept].tolist()))


#: The special-orbit tags of each polyhedral index slot, named by orbit
#: size; the A4 vertex slot holds two tetrahedra.
_SPECIAL_TAGS = {
    cl.A5: (("V12",), ("V20",), ("V30",)),
    cl.S4: (("V6",), ("V8",), ("V12",)),
    cl.A4: (("V4a", "V4b"), ("V6",)),
}


@functools.lru_cache(maxsize=None)
def _special_orbits(kind: str) -> dict[str, tuple[RiemannPoint, ...]]:
    """Sub-maximal orbits, keyed by tag (V12/V20/V30, V6/V8/V12, V4a/V4b/V6).

    These are the orbits of the fixed points of the non-identity
    rotations: the rotation axes of each order meet the sphere in the
    vertex, face and edge classes of the underlying polyhedron.
    """
    group = polyhedral_group(kind)
    tol = 1e-6
    fixed = [p for g in group if not g.is_identity(tol)
             for p in g.fixed_points()]
    z, w, nrm = (a[:, None] for a in point_arrays(fixed))
    seen = np.zeros(len(fixed), dtype=bool)
    orbits: list[tuple[RiemannPoint, ...]] = []
    for i, p in enumerate(fixed):
        if seen[i]:
            continue
        orbit = _orbit_of(p, group, tol)
        # each fixed point within tol of the new orbit is seen from now on
        seen |= (chordal_distances(z, w, nrm, *point_arrays(orbit))
                 <= tol).any(axis=1)
        orbits.append(orbit)
    orbits.sort(key=lambda o: (len(o), _orbit_key(o)))
    slots = zip(_SPECIAL_TAGS[kind], cl.GroupLabel(kind).orbit_sizes())
    tags, sizes = zip(*((tag, size) for slot, size in slots for tag in slot))
    if tuple(len(o) for o in orbits) != sizes:
        raise RuntimeError(f"unexpected special-orbit sizes for {kind}: "
                           f"{[len(o) for o in orbits]}")
    return dict(zip(tags, orbits))


def _orbit_key(orbit):
    return tuple(sorted((round(p.z.real, 6), round(p.z.imag, 6),
                         round(p.w.real, 6), round(p.w.imag, 6))
                        for p in orbit))


def polyhedral_orbit(kind: str, tag_or_seed, tol: float = DEFAULT_TOL) -> PointSet:
    """A single orbit of a polyhedral rotation group.

    ``tag_or_seed`` is either a named special-orbit tag (by size, e.g.
    "V12" for the icosahedral vertex class) or a RiemannPoint seed for a
    generic full-size orbit.  A seed on or near a special locus raises
    SeedOnSpecialLocus: its images merge at tol into fewer than |G|
    points, or two of them lie within the 2*tol a PointSet requires.
    """
    if isinstance(tag_or_seed, str):
        orbit = _special_orbits(kind).get(tag_or_seed)
        if orbit is None:
            raise ValueError(f"unknown orbit tag {tag_or_seed!r} for {kind}")
        return PointSet(orbit, tol=tol)
    group = polyhedral_group(kind)
    orbit = _orbit_of(tag_or_seed, group, tol)
    if len(orbit) != len(group):
        raise SeedOnSpecialLocus(
            f"seed {tag_or_seed} yields an orbit of size {len(orbit)} < "
            f"{len(group)}")
    try:
        return PointSet(orbit, tol=tol)
    except AmbiguousMatching as exc:
        raise SeedOnSpecialLocus(
            f"seed {tag_or_seed} lies near a special locus: {exc}") from exc


# ---------------------------------------------------------------------------
# Point families on the unit circle and the real line.

def _pointset(values, tol: float) -> PointSet:
    """Points from complex values, with float dust snapped off; no
    ``RiemannPoint`` is built until the set's points are read."""
    z, w, _ = homogeneous_arrays(values)
    return PointSet.from_arrays(*snap_arrays(z, w), tol=tol)


def _unit(angle_turns: float) -> complex:
    return cmath.exp(2j * math.pi * angle_turns)


def _roots(p: int, offset_turns: float = 0.0) -> list[complex]:
    return [_unit(k / p + offset_turns) for k in range(p)]


def _dihedral_orbit(p: int, z: complex) -> list[complex]:
    """C_p(z): the 2p points z*zeta^k and z^-1*zeta^k."""
    return [z * _unit(k / p) for k in range(p)] + \
           [_unit(k / p) / z for k in range(p)]


def trivial_witness(n: int, tol: float = DEFAULT_TOL) -> PointSet:
    """An n-point set with trivial stabilizer: (n-1)-th roots of unity
    plus the point 2.  No set below 5 points has trivial stabilizer."""
    if n < 5:
        raise InvalidCardinality(
            f"no {n}-point set has a trivial stabilizer (minimum is 5)")
    return _pointset(_roots(n - 1) + [2.0], tol)


# ---------------------------------------------------------------------------
# The assembly of every non-trivial witness.  The dihedral families and
# schedule read p as |G|/2, which is 2 for K4.

def _dihedral_generic(label, index, attempt, tol) -> list[complex]:
    """k orbits C_p(z), z at l/(8 k^2 p) of a turn for l = 1..k: clear of
    the root-of-unity rays and of each other."""
    p, k = label.order // 2, index[-1]
    return [v for l in range(1, k + 1)
            for v in _dihedral_orbit(p, _unit(l / (8.0 * k * k * p)))]


def _cyclic_generic(label, index, attempt, tol) -> list[complex]:
    """k rotation orbits at radii l = 1..k, or l - 1/2 for Z_2 with no
    fixed point: its sets live on the real line."""
    (nu, k), p = index, label.p
    shift = 0.5 if p == 2 and nu == 0 else 0.0
    return [(l - shift) * _unit(j / p) for l in range(1, k + 1)
            for j in range(p)]


def _generic_seeds(order: int, k: int, attempt: int) -> list[RiemannPoint]:
    """The seeds of k generic orbits of a group of this order: a generic
    base point spun by small angles, the whole base moved on retries."""
    base = 0.2870 + 0.1730j
    base *= (1.0 + 0.0370 * attempt) * cmath.exp(0.6100j * attempt)
    return [RiemannPoint.from_value(
                base * cmath.exp(2j * math.pi * l / (8.0 * k * k * order)))
            for l in range(1, k + 1)]


def _polyhedral_generic(label, index, attempt, tol) -> list[RiemannPoint]:
    return [q for seed in _generic_seeds(label.order, index[-1], attempt)
            for q in polyhedral_orbit(label.kind, seed, tol=tol).points]


def _special(tag: str):  # the polyhedral special orbit with this tag
    return lambda label: _special_orbits(label.kind)[tag]


#: The dihedral families: the poles, the p-th roots of unity, and those
#: turned by half a step, 1/(2p) = 1/|G| of a turn.
_DIHEDRAL = (lambda label: (0.0, complex("inf")),
             lambda label: _roots(label.order // 2),
             lambda label: _roots(label.order // 2, 1.0 / label.order))

#: Per kind: the families of each special index slot, in the order an
#: index takes them, the schedule of the generic orbits, and the set maker.
_RECIPES = {
    **{kind: (tuple(tuple(map(_special, slot)) for slot in slots),
              _polyhedral_generic, PointSet)
       for kind, slots in _SPECIAL_TAGS.items()},
    cl.DIHEDRAL: ((_DIHEDRAL[:1], _DIHEDRAL[1:]), _dihedral_generic,
                  _pointset),
    cl.K4: ((_DIHEDRAL,), _dihedral_generic, _pointset),  # p = 2, one slot
    cl.CYCLIC: (((lambda label: (0.0,), lambda label: (complex("inf"),)),),
                _cyclic_generic, _pointset),
}


def _assemble(label: cl.GroupLabel, index: tuple[int, ...], attempt: int,
              tol: float) -> PointSet:
    """The set of any index in the slot ranges, realizable or not; only
    the polyhedral schedule moves with the attempt."""
    slots, generic, make = _RECIPES[label.kind]
    points = [q for count, slot in zip(index, slots)
              for family in slot[:count] for q in family(label)]
    points += generic(label, index, attempt, tol)
    if label == cl.LABEL_Z2:  # inf after the generic orbits
        points.sort(key=cmath.isinf)
    return make(points, tol)


#: Why a builder rejects an index that forces a larger stabilizer, per
#: kind (per label for Z_2): the head, the reasons of single indices and
#: the reason of all others.  {order} = |G|, so D_{order} is D_p's D_2p.
_UNREALIZABLE = {
    cl.DIHEDRAL: ("D_{p}", {
        (0, 2, 0): "both root families alone are D_{order}-invariant",
        (1, 2, 0): "both root families plus poles are D_{order}-invariant",
        (1, 1, 0): "poles plus one root family of order 4 form the "
                   "octahedron (S_4)",
        (1, 0, 0): "the pole pair alone has infinite stabilizer",
        (0, 0, 0): "empty index",
    }, "not realizable without a generic orbit"),
    cl.K4: ("K4", {}, "without a generic orbit the stabilizer is infinite, "
                      "D_4 or S_4"),
    cl.CYCLIC: ("Z_{p}", {
        (0, 1): "a single rotation orbit is D_{p}-invariant",
        (0, 2): "two rotation orbits admit an inverting symmetry (D_{p})",
        (2, 1): "poles plus one rotation orbit are D_{p}-invariant",
        (2, 2): "poles plus two rotation orbits are D_{p}-invariant",
        (1, 1): "0 plus the third roots of unity form a tetrahedron (A_4)",
    }, "not realizable"),
    cl.LABEL_Z2: ("Z_2", {}, "the stabilizer is strictly larger (dihedral, "
                             "polyhedral, or infinite)"),
}


def _checked_assembly(label, index, tol: float) -> PointSet:
    """``_assemble`` at attempt 0; ValueError for an index out of the slot
    ranges, UnrealizableIndex for one that forces a larger stabilizer."""
    cl.validate_index(label, index)
    if not cl.realizable(label, index):
        head, reasons, other = (_UNREALIZABLE.get(label)
                                or _UNREALIZABLE[label.kind])
        why = reasons.get(index, other).format(p=label.p, order=label.order)
        raise UnrealizableIndex(
            f"{head.format(p=label.p)} with index {index}: {why}")
    return _assemble(label, index, 0, tol)


def dihedral_witness(p: int, index: tuple[int, ...],
                     tol: float = DEFAULT_TOL) -> PointSet:
    """A point set whose stabilizer is dihedral of rotation order p >= 2
    (the Klein four-group for p = 2) with the given component index."""
    return _checked_assembly(cl.dihedral(p), index, tol)


def cyclic_witness(p: int, index: tuple[int, ...],
                   tol: float = DEFAULT_TOL) -> PointSet:
    """A point set whose stabilizer is cyclic of order p >= 2 with the
    given component index."""
    return _checked_assembly(cl.cyclic(p), index, tol)


#: Seeds ``witness`` tries for a polyhedral entry; the others have no seed.
_POLYHEDRAL_ATTEMPTS = 16


def witness(n: int, entry: cl.ClassificationEntry,
            tol: float = DEFAULT_TOL) -> PointSet:
    """A verified n-point witness for a classification entry.

    The construction is proposed, checked by the stabilizer oracle and,
    for polyhedral generic orbits, retried on a deterministic seed
    schedule.  Raises WitnessSearchExhausted, naming the number of attempts
    and the first and last failure, if the oracle never confirms the entry,
    and UnrealizableIndex for the infinite entry or one not in classify(n).
    """
    # the entry's own label block, not all of classify(n)
    if entry not in cl._entries(entry.label, n):
        raise UnrealizableIndex(
            f"entry {entry} is not in the classification of n = {n}")
    kind = entry.label.kind
    if kind == cl.INFINITE:
        raise UnrealizableIndex("infinite stabilizers have no finite witness")

    attempts = _POLYHEDRAL_ATTEMPTS if kind in _SPECIAL_TAGS else 1
    failures: list[str] = []
    for attempt in range(attempts):
        # a seed on a special locus, or orbits closer than 2*tol, fail the
        # attempt: the set it proposes is not one at this tol
        try:
            ps = (trivial_witness(n, tol=tol) if kind == cl.TRIVIAL
                  else _assemble(entry.label, entry.index, attempt, tol))
        except (SeedOnSpecialLocus, AmbiguousMatching) as exc:
            failures.append(f"attempt {attempt}: {type(exc).__name__}: {exc}")
            continue
        if ps.n != n:
            raise WitnessSearchExhausted(
                f"construction for {entry} produced {ps.n} points, wanted {n}")
        try:
            result = stabilizer(ps)
        except AmbiguousDecision as exc:  # another seed may be decidable
            failures.append(f"attempt {attempt}: AmbiguousDecision: {exc}")
            continue
        if result.label == entry.label and result.index == entry.index:
            return ps
        failures.append(f"attempt {attempt}: oracle saw {result.entry()}")
    # the first and the last note: the attempts differ only in their seeds
    shown = failures if len(failures) <= 2 else [failures[0], "...", failures[-1]]
    raise WitnessSearchExhausted(
        f"no witness found for n = {n}, entry {entry} after {attempts} "
        f"attempt(s): {'; '.join(shown)}")

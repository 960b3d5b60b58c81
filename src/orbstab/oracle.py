"""Computation of the full Mobius stabilizer of a point set.

The kernel centers the set conformally and finds every rotation of the
centered cloud that permutes it (see ``kernels``); each permutation is
turned back into the Mobius map through a fixed base triple.  The maps
are identified by their (order, maximal element order) signature, which
separates all finite Mobius groups, and the component index is recovered
from the orbit partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from . import classifier as cl
from .errors import OrbitSizeMismatch, UnrecognizedGroup
from .geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                       chordal_distances, format_complex,
                       mobius_through_triple)
from .kernels import scan_stabilizer_triples


@dataclass(frozen=True)
class StabilizerResult:
    """The stabilizer of a point set: its elements, identification, and
    the orbit decomposition of the set."""

    elements: tuple[MobiusMap, ...]
    label: cl.GroupLabel
    index: tuple[int, ...]
    orbits: tuple[tuple[RiemannPoint, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def entry(self) -> cl.ClassificationEntry:
        return cl.ClassificationEntry(self.label, self.index)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    def to_json(self) -> dict:
        entry = self.entry().to_json()
        out: dict = {"order": self.order, "label": entry.pop("group"), **entry}
        out["orbit_sizes"] = sorted(self.orbit_sizes(), reverse=True)
        out["elements"] = [
            [format_complex(v) for v in (f.a, f.b, f.c, f.d)]
            for f in self.elements
        ]
        return out


def _pick_base_triple(ps: PointSet) -> tuple[int, int, int]:
    """Greedy max-min-separation triple, for well-conditioned candidates."""
    d = ps.distance_matrix(ps)
    i, j = np.unravel_index(np.argmax(d), d.shape)
    rest = np.minimum(d[i], d[j])
    rest[[i, j]] = -1.0
    k = int(np.argmax(rest))
    return int(i), int(j), int(k)


def _canonical_key(f: MobiusMap) -> tuple[float, ...]:
    return tuple(round(x, 9) for v in (f.a, f.b, f.c, f.d)
                 for x in (v.real, v.imag))


def _permutation_of(ps: PointSet, f: MobiusMap) -> np.ndarray:
    """The permutation of the set induced by f (image indices), or raise."""
    z, w, nrm = ps.arrays()
    iz = f.a * z + f.b * w
    iw = f.c * z + f.d * w
    inrm = np.sqrt(np.abs(iz) ** 2 + np.abs(iw) ** 2)
    dist = chordal_distances(iz[:, None], iw[:, None], inrm[:, None], z, w, nrm)
    idx = dist.argmin(axis=1)
    if (dist[np.arange(ps.n), idx] > ps.tol).any():
        raise OrbitSizeMismatch("map does not permute the set within tolerance")
    if len(set(idx.tolist())) != ps.n:
        raise OrbitSizeMismatch("map images collapse two points of the set")
    return idx


def projective_order(f: MobiusMap, cap: int, tol: float = DEFAULT_TOL) -> int:
    """Order of f in the Mobius group, which must be at most cap.

    For elliptic elements the rotation angle theta satisfies
    tr^2/det = 2 + 2 cos(theta); the order is the denominator of
    theta/(2 pi).  The candidate is verified by exponentiation, and an
    element that fails the check is not of finite order <= cap.
    """
    if f.is_identity(tol):
        return 1
    q = (f.a + f.d) ** 2 / (f.a * f.d - f.b * f.c)
    if abs(q.imag) < 1e-6 and -1e-6 <= q.real <= 4.0 + 1e-6:
        theta = math.acos(min(1.0, max(-1.0, q.real / 2.0 - 1.0)))
        m = Fraction(theta / (2.0 * math.pi)).limit_denominator(cap).denominator
        if f.power(m).is_identity(10.0 * tol):
            return m
    raise UnrecognizedGroup(
        f"element has no order dividing {cap}; not part of a finite group")


#: The (order, maximal element order) signatures that are neither cyclic
#: (N == m) nor dihedral of rotation order at least 3 (N == 2m, m >= 3).
_SIGNATURES = {(60, 5): cl.LABEL_A5, (24, 4): cl.LABEL_S4, (12, 3): cl.LABEL_A4,
               (4, 2): cl.LABEL_K4}


def identify_group(elements, tol: float = DEFAULT_TOL) -> cl.GroupLabel:
    """Identify a finite Mobius group from its element list.

    Uses the (order N, maximal element order m) signature: the polyhedral
    groups are (60, 5), (24, 4), (12, 3); N == m is cyclic; N == 2m with
    m >= 3 is dihedral; (4, 2) is the Klein four-group.  These cases are
    exhaustive and mutually exclusive for finite Mobius groups.
    """
    elements = list(elements)
    n = len(elements)
    if n == 1:
        return cl.LABEL_TRIVIAL
    cap = max(n, 60)
    m = max(projective_order(f, cap=cap, tol=tol) for f in elements)
    if (n, m) in _SIGNATURES:
        return _SIGNATURES[n, m]
    if n == m:
        return cl.cyclic(n)
    if n == 2 * m and m >= 3:
        return cl.dihedral(m)
    raise UnrecognizedGroup(
        f"(order, max element order) = ({n}, {m}) matches no finite Mobius "
        "group; closure check or tolerance failure")


def _orbit_partition(perms: np.ndarray) -> list[list[int]]:
    """Orbits of the whole group's rows, each in index order, ordered by
    their first index.

    The rows are every element of the group, so column t lists the orbit
    of point t and its minimum labels the orbit.
    """
    labels = perms.min(axis=0)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)]


def component_index(ps: PointSet, elements, label: cl.GroupLabel,
                    _perms: np.ndarray | None = None) -> tuple[int, ...]:
    """Component index of a set under a group that stabilizes it.

    Counts the orbits of each size and fills the slots of the label's
    orbit-size table; the generic (full-size) orbit count comes last.
    """
    index, _ = _component_index_and_orbits(ps, elements, label, _perms)
    return index


def _component_index_and_orbits(ps, elements, label, perms=None):
    elements = list(elements)
    if perms is None:
        perms = np.array([_permutation_of(ps, f) for f in elements])
    if label.kind == cl.TRIVIAL:
        return (), tuple((p,) for p in ps.points)
    orbit_idx = _orbit_partition(perms)
    sizes = label.orbit_sizes()
    counts = [0] * len(sizes)
    for orbit in orbit_idx:
        matched = False
        for slot, s in enumerate(sizes):
            # a slot counts every orbit of its size (two A4 tetrahedra,
            # up to three K4 pairs)
            if len(orbit) == s:
                counts[slot] += 1
                matched = True
                break
        if not matched:
            raise OrbitSizeMismatch(
                f"orbit of size {len(orbit)} is impossible under {label} "
                f"(allowed: {sizes})")
    index = tuple(counts)
    try:
        cl.validate_index(label, index)
    except ValueError as exc:
        raise OrbitSizeMismatch(str(exc)) from exc
    orbits = tuple(tuple(ps.points[i] for i in orbit) for orbit in orbit_idx)
    return index, orbits


def _check_closure(perms: np.ndarray, pair_budget: int = 5000) -> None:
    """Group axioms in the faithful permutation representation.

    All pairs are checked when the group is small; above the budget a
    seeded sample of pairs is used (large groups here are cyclic/dihedral,
    where the identity and inverse checks already catch scan failures).
    """
    rows = np.ascontiguousarray(perms, dtype=np.int64)
    keys = {row.tobytes() for row in rows}
    n = rows.shape[1]
    identity = np.arange(n, dtype=np.int64)
    if identity.tobytes() not in keys:
        raise UnrecognizedGroup("stabilizer scan did not recover the identity")
    for p in rows:
        inv = np.empty(n, dtype=np.int64)
        inv[p] = identity
        if inv.tobytes() not in keys:
            raise UnrecognizedGroup("stabilizer elements not closed under inverse")
    m = len(rows)
    if m * m <= pair_budget:
        pairs = ((p, q) for p in rows for q in rows)
    else:
        rng = np.random.default_rng(0)
        pairs = ((rows[i], rows[j])
                 for i, j in rng.integers(0, m, size=(pair_budget, 2)))
    for p, q in pairs:
        if p[q].tobytes() not in keys:
            raise UnrecognizedGroup("stabilizer elements not closed under "
                                    "composition")


def stabilizer(ps: PointSet,
               base_triple: tuple[int, int, int] | None = None) -> StabilizerResult:
    """The full Mobius stabilizer of a well-separated point set (|set| >= 3).

    Finds every permutation of the set induced by a Mobius map, rebuilds
    each map through a maximally-separated base triple, and returns them
    with the group identification and orbit decomposition.
    """
    if ps.n < 3:
        raise ValueError("stabilizers of sets with fewer than 3 points are "
                         "infinite; the oracle handles only finite ones")
    if base_triple is None:
        base_triple = _pick_base_triple(ps)
    base = list(base_triple)
    src = [ps.points[b] for b in base]
    z, w, nrm = ps.arrays()
    perms = scan_stabilizer_triples(z, w, nrm, tuple(base), ps.tol)
    # distinct rows differ on the base triple, so their maps are distinct
    elements = [mobius_through_triple(src, [ps.points[t] for t in row[base]],
                                      tol=ps.tol)
                for row in perms]
    order = sorted(range(len(elements)), key=lambda r: _canonical_key(elements[r]))
    elements = [elements[r] for r in order]
    perms = perms[order]
    # n >= 3 points make the action faithful, so permutation closure is
    # equivalent to group closure of the maps themselves
    _check_closure(perms)
    label = identify_group(elements, tol=ps.tol)
    index, orbits = _component_index_and_orbits(ps, elements, label, perms)
    if sum(len(o) for o in orbits) != ps.n:
        raise OrbitSizeMismatch("orbit sizes do not add up to the set size")
    return StabilizerResult(tuple(elements), label, index, orbits)

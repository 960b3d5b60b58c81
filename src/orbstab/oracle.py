"""Computation of the full Mobius stabilizer of a point set.

The kernel centers the set conformally and proposes, as integer
permutation rows, the permutations that rotation matching finds (see
``kernels``).  The oracle decides which proposals are stabilizer
elements.  It solves, in one pass, the Mobius map of each proposal
through a well-separated base triple and the triple's images, and keeps a
row when that map sends every point within ``tol`` of its partner, in the
input's homogeneous coordinates: the chordal test of the brute-force
triple scan that the tests keep as the reference.  A proposal that fails
the test by no more than rounding could explain is in the decision gap:
the oracle raises AmbiguousDecision rather than return a smaller group.

A trivial stabilizer exits early, at one of two points.  When the kernel
proposes the identity row alone, there is nothing to decide, and no base
triple is picked; when the decision keeps the identity row alone, the
checks below have nothing to check.  Either way the result is the
trivial group, whose one map is exactly the identity.

The rest works on the kept rows and maps in a few numpy passes, with no
Python arithmetic per element: an element's order is the length of the
cycle through the first base point it moves, walked for all rows at once
and confirmed by f^k being the identity; closure is checked exactly from
the identity and a few generators.  The group is identified by its
(order, maximal element order) signature, which separates all finite
Mobius groups, and the component index is recovered from the orbit
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from . import classifier as cl
from .errors import (AmbiguousDecision, DegenerateMap, InvalidCardinality,
                     OrbitSizeMismatch, UnrecognizedGroup)
from .geometry import (DEFAULT_TOL, DET_FLOOR, MobiusMap, PointSet,
                       RiemannPoint, chordal_distances, format_complex,
                       matrix_condition, zero_one_inf_entries,
                       zero_one_inf_scales)
from .kernels import _EPS, _row_blocks, scan_stabilizer_triples


@dataclass(frozen=True, eq=False, repr=False)
class StabilizerResult:
    """The stabilizer of a point set: its identification, its elements and
    the orbit decomposition of the set.

    The oracle's own arrays are kept as they are: ``maps`` is the (4,
    order) array whose rows hold the entries (a, b, c, d) of every
    element's matrix, not normalized; ``rows`` is the (order, n) int64
    array of the permutations they induce (row[t] is the index of the
    image of point t), row i belonging to entry i; ``orbit_indices``
    lists the point indices of each orbit.  ``elements`` (``MobiusMap``
    objects in canonical order) and ``orbits`` (tuples of
    ``RiemannPoint``) are built on first read.
    Equality and hashing compare the elements, label, index and orbits.
    """

    label: cl.GroupLabel
    index: tuple[int, ...]
    maps: np.ndarray
    rows: np.ndarray
    orbit_indices: tuple[tuple[int, ...], ...]
    point_set: PointSet

    @property
    def order(self) -> int:
        return len(self.rows)

    @cached_property
    def elements(self) -> tuple[MobiusMap, ...]:
        order = _canonical_order(self.maps) if self.order > 1 else [0]
        return tuple(MobiusMap(*e)
                     for e in zip(*(x[order].tolist() for x in self.maps)))

    @cached_property
    def orbits(self) -> tuple[tuple[RiemannPoint, ...], ...]:
        points = self.point_set.points
        return tuple(tuple(points[i] for i in orbit)
                     for orbit in self.orbit_indices)

    def entry(self) -> cl.ClassificationEntry:
        return cl.ClassificationEntry(self.label, self.index)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbit_indices)

    def to_json(self) -> dict:
        entry = self.entry().to_json()
        out: dict = {"order": self.order, "label": entry.pop("group"), **entry}
        out["orbit_sizes"] = sorted(self.orbit_sizes(), reverse=True)
        out["elements"] = [
            [format_complex(v) for v in (f.a, f.b, f.c, f.d)]
            for f in self.elements
        ]
        return out

    def _key(self) -> tuple:
        return (self.elements, self.label, self.index, self.orbits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"StabilizerResult({self.entry().to_line()}, order={self.order})"


def _pick_base_triple(ps: PointSet) -> tuple[int, int, int]:
    """A well-separated base triple in O(n): the point farthest from point
    0, the point farthest from that one, then the point whose smaller
    distance to those two is largest."""
    z, w, nrm = ps.arrays()

    def distances(i):
        return chordal_distances(z[i], w[i], nrm[i], z, w, nrm)

    i = int(np.argmax(distances(0)))
    to_i = distances(i)
    j = int(np.argmax(to_i))
    rest = np.minimum(to_i, distances(j))
    rest[[i, j]] = -1.0
    # the pair in index order, as the dense search over i < j found it
    return min(i, j), max(i, j), int(np.argmax(rest))


def base_triple_maps(Z, W, base, rows) -> np.ndarray:
    """Entries (a, b, c, d), as the rows of one (4, len(rows)) array and
    not normalized, of the Mobius map sending the base triple to its images
    in each row."""
    b0, b1, b2 = base
    # the matrix sending the base triple to (0, 1, inf)
    m = zero_one_inf_entries(Z[b0], W[b0], Z[b1], W[b1], Z[b2], W[b2])
    # P[:, s]: the (Z, W) of the images (i, j, k) of the base triple, one
    # entry per map
    P = np.array((Z, W)).take(rows.take(base, axis=1).T, axis=1)
    zi, zj, zk = P[0]
    wi, wj, wk = P[1]
    kap, mu = zero_one_inf_scales(zi, wi, zj, wj, zk, wk)
    # the adjugate of the matrix sending (P_i, P_j, P_k) -> (0, 1, inf)
    # has columns -mu P_k and kap P_i; these products, not that matrix's
    # entries negated, which give -0.0 for some zero parts where these
    # give 0.0.  Composed with m, f sends the base triple to (i, j, k).
    left, right = (-mu * P[:, 2])[:, None], (kap * P[:, 0])[:, None]
    m = np.array(m).reshape(2, 2, 1)
    return (left * m[0] + right * m[1]).reshape(4, -1)


#: The decision gap.  A proposal whose map misses the chordal test at tol
#: is rejected only when its worst miss is more than rounding could have
#: made of a true element; a smaller miss is neither kept nor rejected, and
#: the oracle raises AmbiguousDecision.  The gap ends at ``_ROUNDING``
#: machine epsilons times the condition of the row's solve, cond(m) cond(A)
#: for the map f = A m, m the base triple's matrix to (0, 1, inf): the most
#: that rounding in the data and the solve can stretch to.  This edge does
#: not move with tol, so a near-symmetry of the data is rejected at every
#: tol it misses.
#:
#: Measured per rejected row at tol 1e-8, as worst miss / (eps cond): true
#: elements of witnesses squeezed into caps of 1e-3..1e-7 (664 rows) miss
#: by at most 1.5; wrong proposals on jittered asymmetric sets, the
#: benchmark's among them (3020 rows), by at least 7.7e10, and on sets
#: whose points lie a few tol apart by at least 2.9e11.  ``_ROUNDING`` lies
#: 7 orders of magnitude from both.  A squeeze shrinks a wrong proposal's
#: miss with the cap and grows the condition as the cap's inverse square,
#: so on a set squeezed far enough a wrong proposal lands in the gap too.
_ROUNDING = 1e7


def _solve_conditions(f, m) -> np.ndarray:
    """cond(m) cond(A) for each map f = A m, with entries f as the rows of
    a (4, maps) array and m the base triple's matrix: A is f adj(m) up to
    a scalar; inf where either is singular."""
    m0, m1, m2, m3 = m
    with np.errstate(divide="ignore", invalid="ignore"):
        a = matrix_condition(f[0] * m3 - f[1] * m2, f[1] * m0 - f[0] * m1,
                             f[2] * m3 - f[3] * m2, f[3] * m0 - f[2] * m1)
        return matrix_condition(*m) * a


def _misses(z, w, nrm, f, rows) -> np.ndarray:
    """The chordal miss of each point's image under the maps with entries
    f, one map per row, from its partner in the row: a (maps, n) array."""
    f = f.reshape(2, 2, -1, 1)
    # (iz, iw) = (a z + b w, c z + d w)
    iz, iw = f[:, 0] * z + f[:, 1] * w
    inrm = np.sqrt(np.abs(iz) ** 2 + np.abs(iw) ** 2)
    return chordal_distances(iz, iw, inrm, z.take(rows), w.take(rows),
                             nrm.take(rows))


def _decide(ps: PointSet, base, proposals: np.ndarray):
    """The proposed rows that are stabilizer elements, and their maps as
    one (4, kept) array: each row's map is solved through the base triple
    and the row is kept when its worst miss is at most tol.  Raises
    AmbiguousDecision when a row misses by more than tol but by no more
    than the rounding edge of its solve."""
    z, w, nrm = ps.arrays()
    tol = ps.tol
    maps = base_triple_maps(z, w, base, proposals)
    worst = np.empty(len(proposals))
    for blk in _row_blocks(len(proposals), ps.n):
        np.maximum.reduce(_misses(z, w, nrm, maps[:, blk], proposals[blk]),
                          axis=1, out=worst[blk])
    kept = worst <= tol
    if not kept.all():
        b0, b1, b2 = base
        m = zero_one_inf_entries(z[b0], w[b0], z[b1], w[b1], z[b2], w[b2])
        missed = worst[~kept]
        doubted = missed[missed <= _ROUNDING * _EPS * _solve_conditions(maps[:, ~kept], m)]
        if len(doubted):
            raise AmbiguousDecision(
                f"{len(doubted)} proposed element(s) fail the chordal test at tol "
                f"but lie in the decision gap: smallest such miss "
                f"{doubted.min() / tol:.3g} tol, largest kept miss "
                f"{worst[kept].max(initial=0.0) / tol:.3g} tol")
    return proposals[kept], maps[:, kept]


def _canonical_order(f) -> np.ndarray:
    """The order that sorts maps, with entries (a, b, c, d) given as
    arrays, by their canonical keys.

    A key is the eight real and imaginary parts, rounded to 9 decimals,
    of the entries divided by the first one whose modulus is within 1e-9
    of the largest; taking the first of nearly equal moduli keeps rounding
    from choosing the scalar.
    """
    e = np.stack(f, axis=1)
    mod = abs(e)
    pivot = (mod >= (1.0 - 1e-9) * mod.max(axis=1, keepdims=True)).argmax(axis=1)
    e = e / e[np.arange(len(e)), pivot, None]
    key = np.round(np.stack([e.real, e.imag], axis=2), 9).reshape(len(e), 8)
    return np.lexsort(key.T[::-1])


# Kept only because the benchmark's tracer wraps it by name (ROADMAP benchmark request B3).
def projective_order(f: MobiusMap, cap: int, tol: float = DEFAULT_TOL) -> int:
    """Order of f in the Mobius group, which must be at most cap.

    For elliptic elements the rotation angle theta satisfies
    tr^2/det = 2 + 2 cos(theta); the order is the denominator of
    theta/(2 pi).  The candidate is verified by the closed-form test that
    the oracle applies to its own elements (``_check_finite_orders``), and
    an element that fails it is not of finite order <= cap.
    """
    if f.is_identity(tol):
        return 1
    q = (f.a + f.d) ** 2 / (f.a * f.d - f.b * f.c)
    if abs(q.imag) < 1e-6 and -1e-6 <= q.real <= 4.0 + 1e-6:
        # imported here, not with the module: fractions loads decimal, and
        # no path that a cold start takes needs either
        from fractions import Fraction
        theta = math.acos(min(1.0, max(-1.0, q.real / 2.0 - 1.0)))
        m = Fraction(theta / (2.0 * math.pi)).limit_denominator(cap).denominator
        # that test passes order 1 unchecked, and f is not the identity
        if m > 1:
            entries = np.array([[f.a], [f.b], [f.c], [f.d]])
            try:
                _check_finite_orders(_check_nondegenerate(entries),
                                     np.array([m]), tol)
                return m
            except UnrecognizedGroup:
                pass
    raise UnrecognizedGroup(
        f"element has no order dividing {cap}; not part of a finite group")


#: Steps in the first batch of ``_row_orders``' cycle walk; each later
#: batch doubles, up to _LAST_BATCH, so a small order costs one batch and
#: a trail holds at most _LAST_BATCH steps per row.
_FIRST_BATCH = 8
_LAST_BATCH = 64

#: The (order, maximal element order) signatures that are neither cyclic
#: of order at least 2 (N == m) nor dihedral of rotation order at least 3
#: (N == 2m, m >= 3).
_SIGNATURES = {(1, 1): cl.LABEL_TRIVIAL, (60, 5): cl.LABEL_A5,
               (24, 4): cl.LABEL_S4, (12, 3): cl.LABEL_A4, (4, 2): cl.LABEL_K4}


def _label_of(n: int, m: int) -> cl.GroupLabel:
    """The finite Mobius group of order n whose largest element order is m.

    The polyhedral groups are (60, 5), (24, 4), (12, 3); N == m is cyclic;
    N == 2m with m >= 3 is dihedral; (4, 2) is the Klein four-group.
    These cases are exhaustive and mutually exclusive for finite Mobius
    groups.
    """
    if (n, m) in _SIGNATURES:
        return _SIGNATURES[n, m]
    if n == m:
        return cl.cyclic(n)
    if n == 2 * m and m >= 3:
        return cl.dihedral(m)
    raise UnrecognizedGroup(
        f"(order, max element order) = ({n}, {m}) matches no finite Mobius "
        "group; closure check or tolerance failure")


# Kept only because the benchmark's tracer wraps it by name (ROADMAP benchmark request B3).
def identify_group(elements, tol: float = DEFAULT_TOL) -> cl.GroupLabel:
    """Identify a finite Mobius group from its element list, by the
    signature of ``_label_of``."""
    elements = list(elements)
    cap = max(len(elements), 60)
    return _label_of(len(elements), max(projective_order(f, cap=cap, tol=tol)
                                        for f in elements))


def _row_orders(rows: np.ndarray, base) -> np.ndarray:
    """The order of each row's map, read from its permutation row.

    A Mobius map of finite order k other than the identity fixes two
    points of the sphere and moves every other point around a cycle of
    length k, so k is the cycle length of the first base point the row
    moves (the identity's rows close after one step).  A map fixing the
    three base points is the identity.  The cycles are walked for all rows
    at once, a batch of steps at a time with one numpy pass per step; a
    batch's trail is then searched for the first return, and the rows
    whose cycle closed drop out.
    """
    base = np.asarray(base)
    m, n = rows.shape
    moved = rows.take(base, axis=1) != base
    if (rows[~moved.any(axis=1)] != np.arange(n)).any():
        raise UnrecognizedGroup("a stabilizer row fixes the base triple but "
                                "is not the identity")
    orders = np.empty(m, dtype=np.int64)
    live = np.arange(m)
    flat = rows.ravel()
    offset = live * n
    start = point = base.take(moved.argmax(axis=1))
    walked, batch = 0, _FIRST_BATCH
    while True:
        trail = np.empty((batch, len(live)), dtype=np.int64)
        for step in trail:
            point = flat.take(offset + point, out=step)
        back = trail == start
        # rows still open get their order from a later batch
        orders[live] = walked + 1 + back.argmax(axis=0)
        closed = back.any(axis=0)
        if closed.all():
            return orders
        walked += batch
        batch = min(2 * batch, _LAST_BATCH)
        going = ~closed
        live, offset, start, point = (live[going], offset[going], start[going],
                                      point[going])


def _check_nondegenerate(f: np.ndarray):
    """Raise DegenerateMap unless every map, with entries (a, b, c, d) as
    the rows of f, passes ``MobiusMap``'s test: a finite nonzero largest
    entry, and a determinant of at least DET_FLOOR once the entries are
    divided by it.  Returns the entries so divided and their determinants."""
    scale = np.abs(f).max(axis=0)
    if not (np.isfinite(scale).all() and scale.all()):
        raise DegenerateMap("matrix has no usable pivot entry")
    g = f / scale
    det = g[0] * g[3] - g[1] * g[2]
    low = abs(det) < DET_FLOOR
    if low.any():
        raise DegenerateMap(f"determinant {det[low][0]} below floor")
    return g, det


def _check_finite_orders(normalized, orders: np.ndarray, tol: float) -> None:
    """Raise UnrecognizedGroup unless f^k is the identity within 10 tol for
    every map f and its order k.  ``normalized`` is what
    ``_check_nondegenerate`` returns: the maps' entries, of moderate size,
    as the rows of one array, and their nonzero determinants.

    f^k is evaluated in closed form, in a fixed number of array passes.
    With g = f / sqrt(det f) and t = tr(g) / 2, Cayley-Hamilton gives
    g^k = U_{k-1}(t) g - U_{k-2}(t) I for the Chebyshev polynomials U of
    the second kind.  g has eigenvalues 1/mu and mu = t -+ r, where
    r^2 = (t - 1)(t + 1), and U_{k-1}(t) = (mu^-k - mu^k) / (1/mu - mu).
    (Taking r^2 from the entries instead, as ((a - d)/2)^2 + b c, squares
    their rounding on maps conjugated far from rotations, such as those of
    a set squeezed into a small cap.)  Scaled by (1/mu - mu) mu^k,
    with |mu| <= 1 so that nothing overflows, the power is
    (1 - mu^2k) g - (mu - mu^(2k-1)) I, on which ``MobiusMap.is_identity``'s
    test runs.  A map of order k rotates by a multiple of 2 pi / k, so
    |r| >= sin(pi / k); a row whose map lies nearer +-I than half that
    fails, which also keeps the scale factor away from 0.  Rows of order 1
    are the identity row, whose map is the identity by construction.
    """
    moving = orders > 1
    g, det = normalized
    a, b, c, d = g[:, moving] / np.sqrt(det[moving])
    k = orders[moving]
    t = (a + d) / 2.0
    r = np.sqrt((t - 1.0) * (t + 1.0))
    below, above = t - r, t + r
    mu = np.where(abs(below) <= abs(above), below, above)
    odd = mu ** (2 * k - 1)
    lead, shift = 1.0 - odd * mu, mu - odd
    bound = 10.0 * tol * np.maximum(abs(lead * a - shift), abs(lead * d - shift))
    lead = abs(lead)
    ok = ((abs(r) >= 0.5 * np.sin(np.pi / k))
          & (lead * abs(b) <= bound) & (lead * abs(c) <= bound)
          & (lead * abs(a - d) <= bound))
    if not ok.all():
        raise UnrecognizedGroup("an element's map does not have the order of "
                                "its permutation; not part of a finite group")


def _orbit_partition(perms: np.ndarray) -> list[list[int]]:
    """Orbits of the whole group's rows, each in index order, ordered by
    their first index.

    The rows are every element of the group, so column t lists the orbit
    of point t and its minimum labels the orbit.
    """
    labels = perms.min(axis=0)
    order = labels.argsort(kind="stable")
    labels = labels[order]
    cuts = ((labels[1:] != labels[:-1]).nonzero()[0] + 1).tolist()
    flat = order.tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(flat)])]


def _component_index(perms: np.ndarray, label: cl.GroupLabel):
    """The component index and the orbits, as point index tuples, of the
    group whose every element has a row in perms; the group is not
    trivial."""
    orbit_idx = _orbit_partition(perms)
    sizes = label.orbit_sizes()
    lengths = [len(orbit) for orbit in orbit_idx]
    stray = [length for length in lengths if length not in sizes]
    if stray:
        raise OrbitSizeMismatch(f"orbit of size {stray[0]} is impossible "
                                f"under {label} (allowed: {sizes})")
    # a label's slot sizes are distinct, so a slot counts every orbit of
    # its size (two A4 tetrahedra, up to three K4 pairs)
    index = tuple(map(lengths.count, sizes))
    try:
        cl.validate_index(label, index)
    except ValueError as exc:
        raise OrbitSizeMismatch(str(exc)) from exc
    return index, tuple(tuple(orbit) for orbit in orbit_idx)


def _check_closure(rows: np.ndarray, orders: np.ndarray, base) -> None:
    """Raise UnrecognizedGroup unless the (m, n) permutation rows are a group.

    The check is exact and costs O(k m n) for k generators (Seress,
    *Permutation Group Algorithms*, CUP 2003).  A row is looked up by its
    images of the base triple and then compared in full, so a product
    whose base-triple images match no row fails the comparison.  The
    identity must be a row.  Each generator s is the element of largest
    order not yet reached, and s G must lie in G; once its products are
    checked, a breadth-first search from the identity along the products
    of every generator so far reaches the group the generators generate.
    Each generator at least doubles that group, so k <= log2 m, and once
    it is all of G, G is closed, inverses included.
    """
    m, n = rows.shape
    # _row_orders has checked that the rows of order 1 are the identity
    identities = (orders == 1).nonzero()[0]
    if not len(identities):
        raise UnrecognizedGroup("stabilizer scan did not recover the identity")
    def key(images):
        return (images[:, 0] * n + images[:, 1]) * n + images[:, 2]

    images = rows.take(base, axis=1)
    keys = key(images)
    by_key = keys.argsort()
    keys = keys.take(by_key)
    if (keys[1:] == keys[:-1]).any():
        raise UnrecognizedGroup("two stabilizer rows agree on the base triple")

    identity = int(identities[0])
    products: list[list[int]] = []  # products[j][g]: the row of s_j g
    reached = [False] * m
    reached[identity] = True
    queue = [identity]
    for s in (-orders).argsort(kind="stable").tolist():
        if len(queue) == m:
            break
        if reached[s]:
            continue
        row = rows[s]
        image = by_key.take(keys.searchsorted(key(row.take(images))), mode="clip")
        for blk in _row_blocks(m, n):
            if (rows.take(image[blk], axis=0) != row.take(rows[blk])).any():
                raise UnrecognizedGroup("stabilizer elements not closed under "
                                        "composition")
        products.append(image.tolist())
        # the queue grows while it is walked, and every product is followed
        # from every row in it
        for g in queue:
            for product in products:
                h = product[g]
                if not reached[h]:
                    reached[h] = True
                    queue.append(h)


#: The trivial group's one map, exactly the identity, as (4, 1) entries.
_IDENTITY_MAP = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)
_IDENTITY_MAP.flags.writeable = False


def _identity_alone(rows: np.ndarray) -> bool:
    """Whether the permutation rows are the identity row and nothing else."""
    return len(rows) == 1 and bool((rows[0] == np.arange(rows.shape[1])).all())


def stabilizer(ps: PointSet) -> StabilizerResult:
    """The full Mobius stabilizer of a well-separated point set (|set| >= 3).

    Keeps the kernel's proposals that pass the chordal test, with their
    maps through a maximally-separated base triple (AmbiguousDecision when
    one lands in the decision gap), reads each element's
    order from its row, checks closure on the rows, checks the maps, and
    returns them with the group identification and orbit decomposition.
    A lone identity row, proposed or kept, is the trivial group at once.
    Builds no ``MobiusMap`` or ``RiemannPoint``; the result does so when
    its elements or orbits are read.
    """
    if ps.n < 3:
        raise InvalidCardinality("stabilizers of sets with fewer than 3 points "
                                 "are infinite; the oracle handles only "
                                 "finite ones")
    z, w, _ = ps.arrays()
    perms = proposals = scan_stabilizer_triples(z, w, ps.tol)
    if not _identity_alone(perms):
        base_triple = _pick_base_triple(ps)
        perms, maps = _decide(ps, base_triple, proposals)
    if _identity_alone(perms):
        perms.flags.writeable = False
        return StabilizerResult(cl.LABEL_TRIVIAL, (), _IDENTITY_MAP, perms,
                                tuple((i,) for i in range(ps.n)), ps)
    base = np.array(base_triple)
    # n >= 3 points make the action faithful, so permutation closure is
    # equivalent to group closure of the maps themselves
    orders = _row_orders(perms, base)
    _check_closure(perms, orders, base)
    _check_finite_orders(_check_nondegenerate(maps), orders, ps.tol)
    label = _label_of(len(perms), int(orders.max()))
    index, orbits = _component_index(perms, label)
    if sum(map(len, orbits)) != ps.n:
        raise OrbitSizeMismatch("orbit sizes do not add up to the set size")
    maps.flags.writeable = perms.flags.writeable = False
    return StabilizerResult(label, index, maps, perms, orbits, ps)

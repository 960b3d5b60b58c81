"""The stabilizer oracle in its straightforward form: the reference that
``test_reference_paths.py`` compares the fast oracle against.

Each piece here computes the same quantity as its namesake in
``orbstab.kernels`` or ``orbstab.oracle``, one small step at a time:
centering applies the final centering map to the input again for the
stretch; the grid builds its corner table on every call and forms its
keys through an (8, 3, n) ``where``; the chordal test solves the maps per
candidate block, and the oracle solves them again; the row orders walk the
cycles one step per numpy pass; the checks take the maps as four arrays.
The centered cloud, the grid and the oracle's label, index, orbits and
rows must come out the same as the fast oracle's.

The last section matches sets and reads permutations and component
indices through Mobius maps, one point and one map at a time: the
references for the oracle's work on permutation rows.
"""

from __future__ import annotations

import math

import numpy as np

from orbstab import classifier as cl
from orbstab.errors import (AmbiguousMatching, CenteringFailed, DegenerateMap,
                            OrbitSizeMismatch, UnrecognizedGroup)
from orbstab.geometry import (DET_FLOOR, MobiusMap, PointSet, RiemannPoint,
                              chordal_distance, chordal_distances)
from orbstab.kernels import (_ANCHORS, _BLOCK, _CELLS, _HALVINGS, _MAX_STEP,
                             CENTERING_RESIDUAL, CENTERING_SHIFT, CENTERING_STEPS,
                             _boost, _mul, _newton_direction, _second_moment)
from orbstab.oracle import (StabilizerResult, _component_index, _label_of,
                            _pick_base_triple)


def _sphere(Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Inverse stereographic images of (Z : W) as an (n, 3) array."""
    zz, ww = np.abs(Z) ** 2, np.abs(W) ** 2
    zw = 2.0 * Z * W.conj()
    return np.stack([zw.real, zw.imag, zz - ww], axis=1) / (zz + ww)[:, None]


def _center(Z: np.ndarray, W: np.ndarray):
    """The sphere images of (Z : W) moved so that their centroid is near 0.

    Each Newton step solves (I - M) d = c, with c the centroid and M the
    mean of x x^T, and moves the points away from d by hyperbolic length
    |d|, halving the step until the centroid shrinks.  The steps compose
    into one matrix H applied to the input, so rounding does not pile up.
    Centering stops at CENTERING_RESIDUAL, after CENTERING_STEPS steps, or
    when no halving shrinks the centroid, which is where rounding stops a
    set squeezed into a small cap.

    Returns the centered cloud, the largest stretch of chordal distances
    by H at a point, the length of the Newton step still to go (about how
    far the barycenter is from 0), the centroid norm and the number of
    steps taken.
    """
    H = (1.0, 0.0, 0.0, 1.0)
    X = _sphere(Z, W)
    c = X.mean(axis=0)
    r = math.hypot(*c)
    steps = 0
    while r > CENTERING_RESIDUAL and steps < CENTERING_STEPS:
        steps += 1
        d = _newton_direction(_second_moment(X), c)
        length = math.hypot(*d)
        u = [x / length for x in d]
        t = min(length, _MAX_STEP)
        for _ in range(_HALVINGS):
            trial = _mul(_boost(u, t), H)
            Xt = _sphere(trial[0] * Z + trial[1] * W, trial[2] * Z + trial[3] * W)
            ct = Xt.mean(axis=0)
            rt = math.hypot(*ct)
            if rt < r:
                H, X, c, r = trial, Xt, ct, rt
                break
            t /= 2.0
        else:
            break
    shift = math.hypot(*_newton_direction(_second_moment(X), c))
    # H has determinant 1, so it stretches chordal distances at p by |p|^2 / |H p|^2
    hz, hw = H[0] * Z + H[1] * W, H[2] * Z + H[3] * W
    stretch = float(((np.abs(Z) ** 2 + np.abs(W) ** 2)
                     / (np.abs(hz) ** 2 + np.abs(hw) ** 2)).max())
    return X, stretch, shift, r, steps


def _distances(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|X[r] - X[s]| for r in rows and every s: a (len(rows), n) array."""
    diff = X[rows, None, :] - X[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _row_blocks(count: int, width: int):
    """Consecutive index blocks of ``count`` rows, ``width`` entries per row."""
    step = max(1, _BLOCK // max(width, 1))
    for lo in range(0, count, step):
        yield np.arange(lo, min(count, lo + step))


def _frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal frames (..., 3 axes, 3) with first axis a, b in the first two."""
    v = b - (a * b).sum(axis=-1, keepdims=True) * a
    v /= np.sqrt((v * v).sum(axis=-1, keepdims=True))
    # a x v written out: np.cross costs more in call overhead at small n
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    c = np.stack([a1 * v2 - a2 * v1, a2 * v0 - a0 * v2, a0 * v1 - a1 * v0], axis=-1)
    return np.stack([a, v, c], axis=-2)


class _Grid:
    """The centered cloud listed by cube cell, for radius-``slack`` lookups.

    Each point is listed under every cell its slack ball meets, so a query
    needs only the cell it falls in.  Cells have side ``2 * slack``
    (coarser only when that would overflow the keys); with slack a quarter
    of the separation a cell lists only a few points.
    """

    def __init__(self, X: np.ndarray, slack: float):
        self.cols = [np.ascontiguousarray(X[:, j]) for j in range(3)]
        self.slack = slack
        self.h = max(2.0 * slack, 4.0 / _CELLS)
        lo = self._index(X.T - slack)
        hi = self._index(X.T + slack)
        # corner q takes the upper cell on axis j when bit j of q is set; a
        # ball inside one cell along an axis meets no second cell there
        upper = (np.arange(8)[:, None] >> np.arange(3)) & 1 == 1
        new = (~upper[:, :, None] | (hi != lo)).all(axis=1)
        keys = self._combine(np.where(upper[:, :, None], hi, lo).transpose(1, 0, 2))[new]
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.owner = np.nonzero(new)[1][order]
        # the longest run of equal keys
        edge = np.ones(1, dtype=bool)
        bounds = np.flatnonzero(np.concatenate(
            (edge, self.keys[1:] != self.keys[:-1], edge)))
        self.depth = int(np.diff(bounds).max())

    def _index(self, y):
        return np.floor((y + 2.0) / self.h).astype(np.int64)

    @staticmethod
    def _combine(cell):
        return (cell[0] * _CELLS + cell[1]) * _CELLS + cell[2]

    def lookup(self, Y) -> np.ndarray:
        """Index of the nearest cloud point within slack of each query
        point, or -1.

        ``Y`` holds the three coordinate arrays of the queries.
        """
        key = self._combine(self._index(np.stack(Y)))
        pos = np.searchsorted(self.keys, key)
        last = len(self.keys) - 1
        found = np.full(key.shape, -1, dtype=np.int64)
        best = np.full(key.shape, self.slack ** 2)
        for k in range(self.depth):
            at = np.minimum(pos + k, last)
            cand = self.owner[at]
            d2 = sum((y - c[cand]) ** 2 for y, c in zip(Y, self.cols))
            hit = (self.keys[at] == key) & (d2 <= best)
            found = np.where(hit, cand, found)
            best = np.where(hit, d2, best)
        return found


def _match(grid: _Grid, frames: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Cloud indices of the points with frame coordinates ``coords``
    placed in each candidate frame: a (candidates, points) array, -1 for
    a point with no partner."""
    Y = [sum(coords[:, i] * frames[:, i, j, None] for i in range(3))
         for j in range(3)]
    return grid.lookup(Y)


def base_triple_maps(Z, W, base, rows):
    """Entries (a, b, c, d), one array each and not normalized, of the
    Mobius map sending the base triple to its images in each row."""
    b0, b1, b2 = base
    kap = Z[b1] * W[b2] - Z[b2] * W[b1]
    mu = Z[b1] * W[b0] - Z[b0] * W[b1]
    # the matrix sending the base triple to (0, 1, inf)
    m = (kap * W[b0], -kap * Z[b0], mu * W[b2], -mu * Z[b2])
    i, j, k = rows[:, b0], rows[:, b1], rows[:, b2]
    kap = Z[j] * W[k] - Z[k] * W[j]
    mu = Z[j] * W[i] - Z[i] * W[j]
    # adjugate of the matrix sending (P_i, P_j, P_k) -> (0, 1, inf),
    # composed with m: f sends the base triple to (i, j, k)
    return _mul((-mu * Z[k], kap * Z[i], -mu * W[k], kap * W[i]), m)


def _passes_chordal_test(Z, W, nrm, base, rows, tol) -> np.ndarray:
    """Whether the Mobius map sending the base triple to its images in each
    row sends every point within tol of its partner (one bool per row)."""
    f = [e[:, None] for e in base_triple_maps(Z, W, base, rows)]
    iz = f[0] * Z + f[1] * W
    iw = f[2] * Z + f[3] * W
    inrm = np.sqrt(np.abs(iz) ** 2 + np.abs(iw) ** 2)
    cross = np.abs(iz * W[rows] - Z[rows] * iw)
    return (2.0 * cross <= tol * inrm * nrm[rows]).all(axis=1)


def scan_stabilizer_triples(Z: np.ndarray, W: np.ndarray, nrm: np.ndarray,
                            base: tuple[int, int, int], tol: float) -> np.ndarray:
    """The permutations of the point set induced by its Mobius stabilizer.

    ``(Z : W)`` are the points' homogeneous coordinates and ``nrm`` their
    norms; ``base`` is the triple through which each kept map is rebuilt
    for the chordal test.  Returns an (m, n) int64 array of distinct rows,
    one per map: row[t] is the index of the image of point t.  Raises
    CenteringFailed if the set cannot be centered.
    """
    Z = np.ascontiguousarray(Z, dtype=np.complex128)
    W = np.ascontiguousarray(W, dtype=np.complex128)
    nrm = np.ascontiguousarray(nrm, dtype=np.float64)
    n = Z.shape[0]
    X, stretch, shift, residual, steps = _center(Z, W)

    # the anchor a: of a few options spread over the indices, the one whose
    # sorted distances repeat least, within twice the slack that the
    # options' own separation gives
    options = np.array(sorted({i * (n - 1) // (_ANCHORS - 1) for i in range(_ANCHORS)}))
    dist = _distances(X, options)
    profiles = np.sort(dist, axis=1)
    own_slack = max(profiles[:, 1].min() / 4.0, 2.0 * tol * stretch)
    repeats = (np.diff(profiles, axis=1) <= 2.0 * own_slack).sum(axis=1)
    k = int(repeats.argmin())
    a, dist = int(options[k]), dist[k]

    # distance profiles: every point's sorted distances to the cloud,
    # compared with the anchor's
    deviation = np.empty(n)
    sep = np.inf
    for blk in _row_blocks(n, n):
        sorted_rows = np.sort(_distances(X, blk), axis=1)
        sep = min(sep, float(sorted_rows[:, 1].min()))
        deviation[blk] = np.abs(sorted_rows - profiles[k]).max(axis=1)
    if not shift <= CENTERING_SHIFT * sep:  # also when it is NaN
        raise CenteringFailed(
            f"centering residual {residual:.3g} leaves a shift of {shift:.3g}, "
            f"above {CENTERING_SHIFT:g} of the separation {sep:.3g}, after "
            f"{steps} Newton steps")
    # a true symmetry's images may sit anywhere in the tol balls, which
    # centering stretches by up to ``stretch``
    slack = max(sep / 4.0, 2.0 * tol * stretch)

    # the partner b: far from the line through the anchor, with the fewest
    # points at its distance from the anchor ("crowd")
    off_line = np.sqrt(np.maximum(0.0, 1.0 - (1.0 - dist * dist / 2.0) ** 2))
    crowd = np.empty(n, dtype=np.int64)
    for blk in _row_blocks(n, n):
        crowd[blk] = (np.abs(dist[blk, None] - dist[None, :]) <= slack).sum(axis=1)
    far = off_line >= 0.5 * off_line.max()
    b = int(np.where(far, crowd - 0.5 * off_line, np.inf).argmin())
    images_a = np.flatnonzero(deviation <= slack)
    dab = dist[b]

    pairs = []
    for blk in _row_blocks(len(images_a), n):
        near = np.abs(_distances(X, images_a[blk]) - dab) <= slack
        near[np.arange(len(blk)), images_a[blk]] = False  # a wide slack meets a' itself
        r, s = np.nonzero(near)
        pairs.append(np.stack([images_a[blk][r], s], axis=1))
    pairs = np.concatenate(pairs)
    # the anchor's frame first, then one per candidate pair
    frames = _frame(X[np.concatenate(([a], pairs[:, 0]))],
                    X[np.concatenate(([b], pairs[:, 1]))])
    coords = (X[:, None, :] * frames[0][None, :, :]).sum(axis=2)
    frames = frames[1:]

    grid = _Grid(X, slack)
    kept = [np.empty((0, n), dtype=np.int64)]
    for blk in _row_blocks(len(pairs), n):
        rows = _match(grid, frames[blk], coords)
        rows = rows[(np.sort(rows, axis=1) == np.arange(n)).all(axis=1)]
        if len(rows):
            kept.append(rows[_passes_chordal_test(Z, W, nrm, base, rows, tol)])
    # a slightly-off candidate rotation can snap onto a true permutation;
    # bytes keys, since np.unique(axis=0) maps ~650 KB more numpy code
    rows = np.concatenate(kept)
    first: dict[bytes, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    return rows[list(first.values())]


def _row_orders(rows: np.ndarray, base) -> np.ndarray:
    """The order of each row's map, read from its permutation row.

    A Mobius map of finite order k other than the identity fixes two
    points of the sphere and moves every other point around a cycle of
    length k, so k is the cycle length of the first base point the row
    moves.  A map fixing the three base points is the identity.  The
    cycles are walked for all rows at once, and a row drops out when its
    cycle closes.
    """
    base = np.asarray(base)
    moved = rows[:, base] != base
    fixed = ~moved.any(axis=1)
    if (rows[fixed] != np.arange(rows.shape[1])).any():
        raise UnrecognizedGroup("a stabilizer row fixes the base triple but "
                                "is not the identity")
    orders = np.ones(len(rows), dtype=np.int64)
    if fixed.all():
        return orders
    flat = rows.ravel()
    live = np.flatnonzero(~fixed)
    start = base[moved[live].argmax(axis=1)]
    offset = live * rows.shape[1]
    point = flat[offset + start]
    length = 1
    while len(live):
        closed = point == start
        if closed.any():
            orders[live[closed]] = length
            live, start, offset, point = (x[~closed]
                                          for x in (live, start, offset, point))
        point = flat[offset + point]
        length += 1
    return orders


def _check_nondegenerate(f):
    """Raise DegenerateMap unless every map, with entries (a, b, c, d)
    given as arrays, passes ``MobiusMap``'s test: a finite nonzero largest
    entry, and a determinant of at least DET_FLOOR once the entries are
    divided by it.  Returns the entries so divided."""
    scale = np.maximum(np.maximum(abs(f[0]), abs(f[1])),
                       np.maximum(abs(f[2]), abs(f[3])))
    if not (np.isfinite(scale) & (scale > 0.0)).all():
        raise DegenerateMap("matrix has no usable pivot entry")
    a, b, c, d = (e / scale for e in f)
    det = a * d - b * c
    low = abs(det) < DET_FLOOR
    if low.any():
        raise DegenerateMap(f"determinant {det[low][0]} below floor")
    return a, b, c, d


def _check_finite_orders(f, orders: np.ndarray, tol: float) -> None:
    """Raise UnrecognizedGroup unless f^k is the identity within 10 tol for
    every map f, with entries of moderate size given as arrays and a
    nonzero determinant, and its order k.

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
    if not moving.any():
        return
    a, b, c, d = (e[moving] for e in f)
    k = orders[moving]
    root = np.sqrt(a * d - b * c)
    a, b, c, d = a / root, b / root, c / root, d / root
    t = (a + d) / 2.0
    r = np.sqrt((t - 1.0) * (t + 1.0))
    mu = np.where(abs(t - r) <= abs(t + r), t - r, t + r)
    odd = mu ** (2 * k - 1)
    lead, shift = 1.0 - odd * mu, mu - odd
    pa, pd = lead * a - shift, lead * d - shift
    bound = 10.0 * tol * np.maximum(abs(pa), abs(pd))
    lead = abs(lead)
    ok = ((abs(r) >= 0.5 * np.sin(np.pi / k))
          & (lead * abs(b) <= bound) & (lead * abs(c) <= bound)
          & (lead * abs(a - d) <= bound))
    if not ok.all():
        raise UnrecognizedGroup("an element's map does not have the order of "
                                "its permutation; not part of a finite group")


def _check_closure(rows: np.ndarray, orders: np.ndarray, base) -> None:
    """Raise UnrecognizedGroup unless the (m, n) permutation rows are a group.

    The check is exact and costs O(k m n) for k generators (Seress,
    *Permutation Group Algorithms*, CUP 2003).  A row is looked up by its
    images of the base triple and then compared in full.  The identity
    must be a row.  Each generator s is the element of largest order not
    yet reached, and s G must lie in G; a breadth-first search from the
    identity along those products, run afresh as each generator is added
    (``_reached_afresh``), reaches the group the generators generate.
    Each generator at least doubles that group, so k <= log2 m, and once
    it is all of G, G is closed, inverses included.
    """
    m, n = rows.shape
    # _row_orders has checked that the rows of order 1 are the identity
    identities = np.flatnonzero(orders == 1)
    if not len(identities):
        raise UnrecognizedGroup("stabilizer scan did not recover the identity")
    if m == 1:
        return
    base = list(base)

    def key(images):
        return (images[:, 0] * n + images[:, 1]) * n + images[:, 2]

    keys = key(rows[:, base])
    by_key = np.argsort(keys)
    keys = keys[by_key]
    if (keys[1:] == keys[:-1]).any():
        raise UnrecognizedGroup("two stabilizer rows agree on the base triple")

    def find(images):
        """Row index of each base-triple image, or -1."""
        wanted = key(images)
        pos = np.minimum(np.searchsorted(keys, wanted), m - 1)
        return np.where(keys[pos] == wanted, by_key[pos], -1)

    identity = int(identities[0])
    products: list[list[int]] = []  # products[j][g]: the row of s_j g
    reached = [g == identity for g in range(m)]
    for s in np.argsort(-orders, kind="stable").tolist():
        if reached[s]:
            continue
        row = rows[s]
        image = find(row[rows[:, base]])
        if (image < 0).any() or any((rows[image[blk]] != row[rows[blk]]).any()
                                    for blk in _row_blocks(m, n)):
            raise UnrecognizedGroup("stabilizer elements not closed under "
                                    "composition")
        products.append(image.tolist())
        reached = _reached_afresh(identity, products, m)


def _reached_afresh(start: int, products: list[list[int]], m: int) -> list[bool]:
    """Which of the m rows a breadth-first search from ``start`` reaches
    along every product."""
    seen = [False] * m
    seen[start] = True
    queue = [start]
    for g in queue:
        for image in products:
            h = image[g]
            if not seen[h]:
                seen[h] = True
                queue.append(h)
    return seen


def stabilizer(ps: PointSet,
               base_triple: tuple[int, int, int] | None = None) -> StabilizerResult:
    """The full Mobius stabilizer of a well-separated point set (|set| >= 3).

    Finds every permutation of the set induced by a Mobius map, reads each
    element's order from its row, checks closure on the rows, solves for
    the maps through a maximally-separated base triple and checks them,
    and returns them with the group identification and orbit
    decomposition.  Builds no ``MobiusMap`` or ``RiemannPoint``; the result
    does so when its elements or orbits are read.
    """
    if ps.n < 3:
        raise ValueError("stabilizers of sets with fewer than 3 points are "
                         "infinite; the oracle handles only finite ones")
    if base_triple is None:
        base_triple = _pick_base_triple(ps)
    base = list(base_triple)
    z, w, nrm = ps.arrays()
    perms = scan_stabilizer_triples(z, w, nrm, tuple(base), ps.tol)
    # n >= 3 points make the action faithful, so permutation closure is
    # equivalent to group closure of the maps themselves
    orders = _row_orders(perms, base)
    _check_closure(perms, orders, base)
    maps = base_triple_maps(z, w, base, perms)
    _check_finite_orders(_check_nondegenerate(maps), orders, ps.tol)
    label = _label_of(len(perms), int(orders.max()))
    if label.kind == cl.TRIVIAL:
        index, orbits = (), tuple((i,) for i in range(ps.n))
    else:
        index, orbits = _component_index(perms, label)
    if sum(len(o) for o in orbits) != ps.n:
        raise OrbitSizeMismatch("orbit sizes do not add up to the set size")
    for a in (*maps, perms):
        a.flags.writeable = False
    return StabilizerResult(label, index, maps, perms, orbits, ps)


# ---------------------------------------------------------------------------
# Set matching and identification through Mobius maps.

def distance_matrix(a: PointSet, b: PointSet) -> np.ndarray:
    """The chordal distance from each point of a (a row) to each of b."""
    z1, w1, n1 = a.arrays()
    return chordal_distances(z1[:, None], w1[:, None], n1[:, None], *b.arrays())


def apply_map(ps: PointSet, f: MobiusMap) -> PointSet:
    """The image of the set under f, at the set's tol."""
    return PointSet((f.apply(p) for p in ps.points), tol=ps.tol)


def index_of(ps: PointSet, p: RiemannPoint) -> int:
    """Index of the unique point of the set within tol of p, or -1."""
    for i, q in enumerate(ps.points):
        if chordal_distance(p, q) <= ps.tol:
            return i
    return -1


def set_equal(a: PointSet, b: PointSet) -> bool:
    """Whether two point sets agree up to tolerance-ball matching.

    True when the sets have the same size and nearest-neighbour matching
    pairs them off bijectively within tol.  Raises AmbiguousMatching if a
    point of one set lies within tol of two points of the other.
    """
    if a.n != b.n:
        return False
    tol = max(a.tol, b.tol)
    hits = distance_matrix(a, b) <= tol
    per_row = hits.sum(axis=1)
    per_col = hits.sum(axis=0)
    if (per_row > 1).any() or (per_col > 1).any():
        raise AmbiguousMatching("tolerance balls overlap during set matching")
    return bool((per_row == 1).all())


def permutation_of(ps: PointSet, f: MobiusMap) -> np.ndarray:
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


def component_index(ps: PointSet, elements, label: cl.GroupLabel) -> tuple[int, ...]:
    """Component index of a set under a group, given by its maps, that
    stabilizes it: the oracle's ``_component_index`` on the permutations
    the maps induce."""
    if label.kind == cl.TRIVIAL:
        return ()
    perms = np.array([permutation_of(ps, f) for f in elements])
    return _component_index(perms, label)[0]

"""Hot kernel for the stabilizer search: conformal centering plus rotation matching.

Every finite Mobius group is conjugate into SO(3).  The search first moves
the set by the Mobius map that puts its conformal barycenter at the origin
(Douady & Earle, Acta Math. 157, 1986; Springborn, Math. Z. 249, 2005):
Newton steps on the sphere centroid, composed as 2x2 matrices so the
centered cloud is always one map away from the input.  Since that
barycenter is unique and moves with the set, every map preserving the set
becomes a rotation preserving the centered cloud.

Those rotations are found by congruence matching from one anchor pair
(Alt, Mehlhorn, Wagener & Welzl, 1988): a rotation is fixed by the images
of an anchor ``a`` and a non-collinear partner ``b``.  Of a few options,
the anchor is the one whose sorted distances repeat least (a point fixed
by a rotation repeats them).  Candidate images of ``a`` share its sorted
distance profile, and candidate images of ``b`` lie at ``|a - b|`` from them.
Each candidate rotation is checked by looking up the rotated points in a
grid of cells.  The matching slack is a quarter of the centered minimum
separation, wide enough to survive the stretching of centering, unless
the images of the ``tol`` balls under the centering map are wider; a
lookup takes the nearest point within the slack.

Before the grid, the candidates are tried block by block on one third
point ``c``, the cloud point farthest from the plane of the anchor pair.
The check uses a window, not the slack: how far the frame of a true
symmetry can send ``c`` from its partner, derived from tol, the stretch
and the remaining shift of centering, the barycenter's sensitivity and
the partner's distance from the anchor's line (``_rotation_miss``,
``_third_point_window``), and never wider than the slack.  A candidate
that sends ``c`` outside the window of every cloud point is dropped.  On
a near-symmetric set, a symmetric set moved by far more than tol, every
frame but the anchor's own misses ``c`` by far more than the window,
though often by less than the slack.  On a mirror-symmetric set the
distance profiles cannot tell a point from its mirror image and leave a
mirror candidate, which sends ``c`` onto the set only if the reflection
of ``c`` across the anchor pair's plane lies near a point of the set.
When the anchor's own pair is the only candidate left in every block,
only the identity can survive, and the scan returns it without building
the grid.  The check stops at the first block that keeps another
candidate: the grid is then needed, and on a symmetric set most
candidates land, so checking the remaining blocks would filter nothing.

Matching only proposes permutations.  The scan returns the distinct ones
that are bijections, in the order matching first found them, and the
oracle decides which of them are stabilizer elements (see ``oracle``).

Each quantity is one numpy pass over all points, candidates or rows, and
nothing is derived twice: the stretch of centering comes from the pair
norms of its accepted step; distances are summed axis by axis over (3, n)
coordinate rows, the same sums in the same order as a reduction over a
length-3 axis, at a fraction of its cost; the rotated points of all
candidates come out of one product per frame axis, as (3, candidates, n)
arrays, which a grid lookup compares with the listed points one pass per
cell depth.  The profiles cost ``O(n^2 log n)`` and each candidate
``O(n log n)``; memory stays at ``O(n)`` per candidate block, and no
candidates-by-n-by-n array is built.  The kernel makes no BLAS or LAPACK
call: the 3x3 solve of a Newton step, and kappa, use the adjugate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CenteringFailed

#: Centroid norm at which centering stops.
CENTERING_RESIDUAL = 1e-12

#: Largest remaining centering shift, as a fraction of the centered
#: minimum separation, accepted when rounding stops centering short of
#: CENTERING_RESIDUAL (sets squeezed into a small cap).
CENTERING_SHIFT = 1e-3

#: Newton steps allowed before centering gives up.
CENTERING_STEPS = 100

#: Step halvings allowed within one Newton step.
_HALVINGS = 60

#: Largest hyperbolic translation length of a single centering step.
_MAX_STEP = 4.0

#: Array entries (points times candidates) handled per vectorized block.
_BLOCK = 1 << 16

#: Anchor options whose candidate counts are compared.
_ANCHORS = 8

#: Grid cells per axis at most, so a cell key fits in int64.
_CELLS = 1 << 20

#: A cell's key is (x * _CELLS + y) * _CELLS + z: its index times these weights.
_KEY_WEIGHTS = np.array([_CELLS * _CELLS, _CELLS, 1], dtype=np.int64)

#: _UPPER[q, j]: corner q of a slack ball takes the upper cell on axis j
#: (bit j of q is set).
_UPPER = (np.arange(8)[:, None] >> np.arange(3)) & 1
#: _LOWER[j]: the corners that take the lower cell on axis j, a column.
_LOWER = (_UPPER == 0).T[:, :, None]

#: The signs of a slack ball's lower and upper corners.
_SIDES = np.array([-1.0, 1.0])[:, None, None]

_EYE = np.eye(3)

#: Machine epsilon of the float64 arithmetic throughout.
_EPS = float(np.finfo(np.float64).eps)

#: Rounding of a computed centered point, in machine epsilons times the
#: stretch (derived in ``_rotation_miss``).
_CLOUD_ULPS = 16


# Kept only because the benchmark records it (ROADMAP benchmark request B3).
def active_backend() -> str:
    """The scan implementation in use; there is one."""
    return "numpy"


def _sphere(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse stereographic images of the points P = (Z : W), stacked as
    (2, n), as an (n, 3) array, and the squared pair norms |Z|^2 + |W|^2
    they were divided by."""
    size = np.abs(P) ** 2
    zw = 2.0 * P[0] * P[1].conj()
    norm2 = size[0] + size[1]
    X = np.empty((len(norm2), 3))
    np.divide(zw.real, norm2, out=X[:, 0])
    np.divide(zw.imag, norm2, out=X[:, 1])
    np.divide(size[0] - size[1], norm2, out=X[:, 2])
    return X, norm2


def _moved_sphere(H, P: np.ndarray):
    """``_sphere`` of the points H P, for H given as an (a, b, c, d) tuple."""
    H = np.array(H).reshape(2, 2, 1)
    return _sphere(H[:, 0] * P[0] + H[:, 1] * P[1])


def _mul(g, h):
    """The 2x2 product g h of matrices given as (a, b, c, d) tuples."""
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def _adjugate(M: np.ndarray) -> tuple[tuple[float, ...], float]:
    """The adjugate of I - M for a symmetric 3x3 M, as its upper entries
    (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), and the determinant."""
    (a, b, e), (_, d, f), (_, _, g) = (_EYE - M).tolist()
    ad = (d * g - f * f, e * f - b * g, b * f - e * d,
          a * g - e * e, b * e - a * f, a * d - b * b)
    return ad, a * ad[0] + b * ad[1] + e * ad[2]


def _adjugate_solve(ad, det: float, c: np.ndarray) -> tuple[float, float, float]:
    """adj c / det for the adjugate and determinant that ``_adjugate`` gives."""
    x, y, z = c.tolist()
    return ((ad[0] * x + ad[1] * y + ad[2] * z) / det,
            (ad[1] * x + ad[3] * y + ad[4] * z) / det,
            (ad[2] * x + ad[4] * y + ad[5] * z) / det)


def _newton_direction(M: np.ndarray, c: np.ndarray) -> tuple[float, float, float]:
    """(I - M)^-1 c for a symmetric 3x3 M, by the adjugate."""
    return _adjugate_solve(*_adjugate(M), c)


def _second_moment(X: np.ndarray) -> np.ndarray:
    """The mean of x x^T over the rows x of X, a 3x3 array."""
    return np.einsum("ni,nj->ij", X, X) / len(X)


def _centroid(X: np.ndarray) -> np.ndarray:
    """The mean of the rows of X (``X.mean(axis=0)`` without its wrapper)."""
    return np.add.reduce(X, axis=0) / len(X)


def _boost(u, length: float):
    """The Mobius map pushing the sphere away from unit u by hyperbolic ``length``."""
    ch, sh = math.cosh(length / 2.0), -math.sinh(length / 2.0)
    off = complex(u[0], u[1])
    return (ch + sh * u[2], sh * off, sh * off.conjugate(), ch - sh * u[2])


def _center(Z: np.ndarray, W: np.ndarray):
    """The sphere images of (Z : W) moved so that their centroid is near 0.

    Each Newton step solves (I - M) d = c, with c the centroid and M the
    mean of x x^T, and moves the points away from d by hyperbolic length
    |d|, halving the step until the centroid shrinks.  The steps compose
    into one matrix H applied to the input, so rounding does not pile up;
    each trial H is applied to the input once.  Centering stops at
    CENTERING_RESIDUAL, after CENTERING_STEPS steps, or when no halving
    shrinks the centroid, which is where rounding stops a set squeezed
    into a small cap.

    Returns the centered cloud, the largest stretch of chordal distances
    by H at a point, the length of the Newton step still to go (about how
    far the barycenter is from 0), kappa, a bound on ||(I - M)^-1|| for
    the centered cloud's M (how far moving the points moves the
    barycenter, see ``_rotation_miss``), the centroid norm and the number
    of steps taken.
    """
    H = (1.0, 0.0, 0.0, 1.0)
    P = np.array((Z, W))
    X, norm2_in = _sphere(P)
    norm2 = norm2_in
    c = _centroid(X)
    r = math.hypot(*c.tolist())
    steps = 0
    while r > CENTERING_RESIDUAL and steps < CENTERING_STEPS:
        steps += 1
        d = _newton_direction(_second_moment(X), c)
        length = math.hypot(*d)
        u = [x / length for x in d]
        t = min(length, _MAX_STEP)
        for _ in range(_HALVINGS):
            trial = _mul(_boost(u, t), H)
            Xt, norm2_t = _moved_sphere(trial, P)
            ct = _centroid(Xt)
            rt = math.hypot(*ct.tolist())
            if rt < r:
                H, X, norm2, c, r = trial, Xt, norm2_t, ct, rt
                break
            t /= 2.0
        else:
            break
    ad, det = _adjugate(_second_moment(X))
    shift = math.hypot(*_adjugate_solve(ad, det, c))
    # the Frobenius norm of (I - M)^-1, at least its spectral norm
    kappa = math.sqrt(ad[0] * ad[0] + ad[3] * ad[3] + ad[5] * ad[5]
                      + 2.0 * (ad[1] * ad[1] + ad[2] * ad[2] + ad[4] * ad[4])) / det
    # H has determinant 1, so it stretches chordal distances at p by
    # |p|^2 / |H p|^2, both pair norms already at hand (1 when no step)
    stretch = float(np.maximum.reduce(norm2_in / norm2))
    return X, stretch, shift, kappa, r, steps


def _squared_distances(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """|r - s|^2 for every point r with coordinates R (3, k) and s with
    coordinates C (3, n): a (k, n) array.  The squares are summed axis by
    axis, in order, as a reduction over a length-3 axis would sum them."""
    d2 = R[0][:, None] - C[0]
    d2 *= d2
    for j in (1, 2):
        d = R[j][:, None] - C[j]
        d *= d
        d2 += d
    return d2


def _distances(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """|r - s| for every point r with coordinates R (3, k) and s with
    coordinates C (3, n): a (k, n) array."""
    d2 = _squared_distances(C, R)
    return np.sqrt(d2, out=d2)


def _row_blocks(count: int, width: int):
    """Consecutive slices of ``count`` rows, ``width`` entries per row."""
    step = max(1, _BLOCK // max(width, 1))
    return map(slice, range(0, count, step), range(step, count + step, step))


#: Components (1, 2, 0) and (2, 0, 1): a x v = a[R1] v[R2] - a[R2] v[R1].
_ROLL1, _ROLL2 = np.array([1, 2, 0]), np.array([2, 0, 1])


def _frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal frames (..., 3 axes, 3) with first axis a, b in the first two."""
    F = np.empty((*a.shape[:-1], 3, 3))
    F[..., 0, :] = a
    v = np.subtract(b, _dot(a, b) * a, out=F[..., 1, :])
    v /= np.sqrt(_dot(v, v))
    # a x v by rolled components: np.cross costs more in call overhead
    np.subtract(a.take(_ROLL1, axis=-1) * v.take(_ROLL2, axis=-1),
                a.take(_ROLL2, axis=-1) * v.take(_ROLL1, axis=-1),
                out=F[..., 2, :])
    return F


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, kept as a length-1 axis."""
    p = a * b
    return p[..., 0:1] + p[..., 1:2] + p[..., 2:3]


class _Grid:
    """The centered cloud listed by cube cell, for radius-``slack`` lookups.

    Each point is listed under every cell its slack ball meets, so a query
    needs only the cell it falls in.  Cells have side ``2 * slack``
    (coarser only when that would overflow the keys); with slack a quarter
    of the separation a cell lists only a few points.  ``keys`` are the
    sorted cell keys of the listings, ``owner`` the point of each, and
    ``depth`` the most points listed under one cell.
    """

    def __init__(self, X: np.ndarray, slack: float):
        self.slack = slack
        self.h = max(2.0 * slack, 4.0 / _CELLS)
        # the cells of the lower and the upper corners of the slack balls,
        # weighted by axis: a key is their sum over the axes
        lo, hi = cells = self._index(X.T + _SIDES * slack)
        cells *= _KEY_WEIGHTS[:, None]
        # corner q takes the upper cell on axis j when bit j of q is set,
        # and is listed when its ball crosses into that cell on each such axis
        moved = hi != lo
        new = ((_LOWER[0] | moved[0]) & (_LOWER[1] | moved[1])
               & (_LOWER[2] | moved[2]))
        keys = (cells[:, 0].take(_UPPER[:, 0], axis=0)
                + cells[:, 1].take(_UPPER[:, 1], axis=0)
                + cells[:, 2].take(_UPPER[:, 2], axis=0))[new]
        order = keys.argsort(kind="stable")
        self.keys = keys.take(order)
        self.owner = new.nonzero()[1].take(order)
        # each listing's coordinates, in key order, one row per axis
        self.points = X.T.take(self.owner, axis=1)
        # the longest run of equal keys: at a run's start, the run's length
        ends = self.keys.searchsorted(self.keys, side="right")
        self.depth = int(np.maximum.reduce(ends - np.arange(len(ends))))

    def _index(self, y):
        return np.floor((y + 2.0) / self.h).astype(np.int64)

    def lookup(self, Y: np.ndarray) -> np.ndarray:
        """Index of the nearest cloud point within slack of each query
        point (the last listed of equally near ones), or -1.

        ``Y`` holds the queries' coordinates along its first axis.  One
        pass per depth compares every query with the next point listed
        under its cell.
        """
        key = self._index(Y)
        key *= _KEY_WEIGHTS.reshape(3, *[1] * (key.ndim - 1))
        key = key[0] + key[1] + key[2]
        # the points listed under a query's cell follow keys[pos]; past the
        # listings the index is clipped, which repeats the last listing
        pos = self.keys.searchsorted(key)
        found, best = -1, self.slack ** 2
        for k in range(self.depth):
            at = pos + k
            diff = Y - self.points.take(at, axis=1, mode="clip")
            diff *= diff
            d2 = diff[0] + diff[1] + diff[2]
            hit = (self.keys.take(at, mode="clip") == key) & (d2 <= best)
            found = np.where(hit, self.owner.take(at, mode="clip"), found)
            best = np.where(hit, d2, best)
        return found


def _match(grid: _Grid, frames: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Cloud indices of the points with frame coordinates ``coords`` (3,
    n) placed in each candidate frame: a (candidates, points) array, -1
    for a point with no partner."""
    # F[i, j]: coordinate j of frame axis i, one entry per candidate
    F = frames.transpose(1, 2, 0)[..., None]
    return grid.lookup(F[0] * coords[0] + F[1] * coords[1] + F[2] * coords[2])


def _rotation_miss(tol: float, stretch: float, shift: float, kappa: float) -> float:
    """delta: how far from its partner the rotation part of a true
    symmetry can send each centered point.

    A true symmetry is a Mobius map g that sends every point within tol of
    its partner.  In centered coordinates it is h = H g H^-1, for the
    centering map H of ``_center``, and three bounds follow.

    - The miss of h on the computed cloud is at most
      eps = 2 (tol + 16 ulps) stretch.  H has determinant 1 and stretches
      chordal distances at a point p by s(p) = |p|^2 / |H p|^2, and
      between p and q by sqrt(s(p) s(q)).  On a centered cloud some point
      lies in the closed hemisphere that H blows up most (else the
      centroid would not be 0), so stretch >= ||H||_F^2 / 2 >= 1 up to the
      centroid's residual.  Across a tol ball, s then changes by a factor
      below 2 while tol stretch < 1/16, which holds wherever the window
      below is narrower than the slack: the ball's image has radius at
      most 2 tol stretch.  Forming H p costs 4 ulps of ||H||_F |p| per
      coordinate, a chordal error of at most 8 sqrt(2) ulps times the
      stretch, and ``_sphere`` a few ulps more: each computed point is
      within 16 ulps times the stretch of the exact one, at both ends of
      a miss.
    - h = U B, with U a rotation and B a boost of hyperbolic length
      l = d(0, h(0)) in the units of ``_boost``.  B moves each sphere
      point by at most 2 tanh(l / 2) <= l, so U misses by at most eps + l.
    - The conformal barycenter moves with the set (Douady & Earle), so the
      barycenter of the cloud's image under h is h(beta), for beta the
      cloud's own barycenter, which lies about ``shift`` from 0.  That
      image lies within eps of the permuted cloud, whose barycenter is
      beta.  Moving the points by eps moves the centroid by eps, and so
      the Newton step (I - M)^-1 c by at most kappa eps, so
      d(0, h(beta)) <= shift + kappa eps.  Hence
      l <= d(0, h(beta)) + d(h(beta), h(0)) <= kappa eps + 2 shift to
      first order, and eta = 2 (kappa eps + shift) bounds it: the doubled
      kappa eps is room for the second-order terms, products of these
      same small quantities.

    So delta = eps + eta.  No constant here is fitted to data.
    """
    eps = 2.0 * (tol + _CLOUD_ULPS * _EPS) * stretch
    return eps + 2.0 * (kappa * eps + shift)


def _third_point_window(delta: float, h: float) -> float:
    """W: how far from its partner a candidate frame built on a true
    symmetry's images (a', b') of the anchor pair can send a third point.

    The rotation U of ``_rotation_miss`` sends a and b within delta of a'
    and b', so the frame of (a', b') is U's image of the anchor's frame
    turned by a small rotation with vector w.  Its first axis moves by at
    most delta.  Its second, the unit part of b' orthogonal to a', moves
    by at most 2 delta / h, where h = |b - (a.b) a| is the partner's
    distance from the anchor's line, kept large by the partner rule.  An
    axis x moves by |w x x|, so |w|^2 <= delta^2 + (2 delta / h)^2, and
    the frame sends a third point c at most |w| <= delta (1 + 2 / h) from
    U c, which lies within delta of c's partner:

        W = delta (2 + 2 / h).

    The frames' own arithmetic, a few ulps per axis divided by h, stays
    inside the 32 ulps of delta that the factor (2 + 2 / h) multiplies.
    """
    return delta * (2.0 + 2.0 / h)


def _third_point_lands(frames: np.ndarray, coords: np.ndarray, C: np.ndarray,
                       window: float) -> np.ndarray:
    """Whether each candidate frame places the third point c within
    ``window`` of some cloud point (coordinates C, (3, n)).

    c is the cloud point farthest from the anchor pair's plane, the one
    whose third frame coordinate in ``coords`` is largest in modulus.  Its image is
    computed as ``_match`` computes it, and its squared distances as
    ``_Grid.lookup`` computes them, so a frame that lands nowhere is one
    whose row, matched in a grid of radius ``window``, has -1 at c.
    """
    c = int(np.abs(coords[2]).argmax())
    F = frames.transpose(1, 2, 0)
    Y = F[0] * coords[0, c] + F[1] * coords[1, c] + F[2] * coords[2, c]
    return np.minimum.reduce(_squared_distances(C, Y), axis=1) <= window ** 2


def _crowds(dist, profile, slack: float) -> np.ndarray:
    """How many points lie within slack of each distance ``dist[b]`` from
    the anchor, by binary search in its sorted distances ``profile``."""
    return profile.searchsorted(dist + slack, side="right") - profile.searchsorted(dist - slack)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """One hashable key per row of a 2-d array: the row's bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, each where it first occurs."""
    keys = _row_keys(rows)
    # the last write of a key wins, so the reversed pass keeps its first index
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return rows[sorted(first.values())]


def scan_stabilizer_triples(Z: np.ndarray, W: np.ndarray,
                            tol: float) -> np.ndarray:
    """The permutations of the point set that rotation matching proposes.

    ``(Z : W)`` are the points' homogeneous coordinates.  Returns an (m,
    n) int64 array of distinct bijective rows, each where matching first
    found it: row[t] is the index of the image of point t.  Every
    permutation induced by the set's Mobius stabilizer is among them,
    since the slack covers its tol balls; the caller decides which rows
    are stabilizer elements.  Raises CenteringFailed if the set cannot be
    centered.
    """
    Z = np.ascontiguousarray(Z, dtype=np.complex128)
    W = np.ascontiguousarray(W, dtype=np.complex128)
    n = Z.shape[0]
    X, stretch, shift, kappa, residual, steps = _center(Z, W)
    C = np.ascontiguousarray(X.T)

    # the anchor a: of a few options spread over the indices, the one whose
    # sorted distances repeat least within twice the slack of their own rows
    options = np.array(sorted({i * (n - 1) // (_ANCHORS - 1) for i in range(_ANCHORS)}))
    dist = _distances(C, C.take(options, axis=1))
    profiles = np.sort(dist, axis=1)
    twice = 2.0 * max(float(np.minimum.reduce(profiles[:, 1])) / 4.0, 2.0 * tol * stretch)
    k = int(np.add.reduce(profiles[:, 1:] - profiles[:, :-1] <= twice, axis=1).argmin())
    a, dist, profile = int(options[k]), dist[k], profiles[k]

    # distance profiles: every point's sorted distances to the cloud,
    # compared with the anchor's
    deviation = np.empty(n)
    sep = np.inf
    for blk in _row_blocks(n, n):
        sorted_rows = _distances(C, C[:, blk])
        sorted_rows.sort(axis=1)
        sep = min(sep, float(np.minimum.reduce(sorted_rows[:, 1])))
        sorted_rows -= profile
        np.maximum.reduce(np.abs(sorted_rows, out=sorted_rows), axis=1, out=deviation[blk])
    if not shift <= CENTERING_SHIFT * sep:  # also when it is NaN
        raise CenteringFailed(
            f"centering residual {residual:.3g} leaves a shift of {shift:.3g}, "
            f"above {CENTERING_SHIFT:g} of the separation {sep:.3g}, after "
            f"{steps} Newton steps")
    # a true symmetry's images may sit anywhere in the tol balls, which
    # centering stretches by up to ``stretch``
    slack = max(sep / 4.0, 2.0 * tol * stretch)
    images_a = (deviation <= slack).nonzero()[0]

    # the partner b: far from the line through the anchor, with the fewest
    # points at its distance from the anchor ("crowd")
    off_line = np.sqrt(np.maximum(0.0, 1.0 - (1.0 - dist * dist / 2.0) ** 2))
    far = off_line >= 0.5 * np.maximum.reduce(off_line)
    b = int(np.where(far, _crowds(dist, profile, slack) - 0.5 * off_line, np.inf).argmin())
    dab = dist[b]

    # candidate pairs (a', b'), the anchor's own pair (a, b) among them
    ends = []
    for blk in _row_blocks(len(images_a), n):
        near = _distances(C, C.take(images_a[blk], axis=1)) - dab
        near = np.abs(near, out=near) <= slack
        r = np.arange(len(near))
        near[r, images_a[blk]] = False  # a wide slack meets a' itself
        r, s = near.nonzero()
        ends += [images_a[blk][r], s]
    starts, stops = np.concatenate(ends[::2]), np.concatenate(ends[1::2])
    frames = _frame(X.take(starts, axis=0), X.take(stops, axis=0))
    own = (starts == a) & (stops == b)
    # the cloud in the anchor's frame, one row per frame axis
    axes = frames[own.argmax()][:, :, None]
    coords = axes[:, 0] * C[0] + axes[:, 1] * C[1] + axes[:, 2] * C[2]

    # candidates that send the third point farther than any true symmetry's
    # frame could are no symmetry: blocks are checked until one keeps a
    # frame other than the anchor's own, and if none does, only the
    # identity survives; the blocks after that one are matched unchecked
    window = min(slack, _third_point_window(
        _rotation_miss(tol, stretch, shift, kappa), float(off_line[b])))
    blocks = _row_blocks(len(frames), n)
    landed = []
    for blk in blocks:
        lands = _third_point_lands(frames[blk], coords, C, window)
        landed.append(frames[blk][lands])
        if not (lands == own[blk]).all():
            break
    else:
        return np.arange(n, dtype=np.int64)[None]

    grid = _Grid(X, slack)
    bijective = [np.empty((0, n), dtype=np.int64)]
    for F in [np.concatenate(landed), *(frames[blk] for blk in blocks)]:
        rows = _match(grid, F, coords)
        bijective.append(rows[(np.sort(rows, axis=1) == np.arange(n)).all(axis=1)])
    # a slightly-off candidate rotation can snap onto a true permutation,
    # so each row is proposed once
    return _distinct(np.concatenate(bijective))

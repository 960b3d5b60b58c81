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
of an anchor ``a`` and a non-collinear partner ``b``.  Candidate images of
``a`` share its sorted distance profile, candidate images of ``b`` lie at
``|a - b|`` from them, and of a few anchor options the one with the fewest
candidate pairs is used; on the witnesses that number is the group order.
Each candidate rotation is checked by looking up the rotated points in a
grid of cells.  The matching slack is a quarter of the centered minimum
separation, wide enough to survive the stretching of centering, unless
the images of the ``tol`` balls under the centering map are wider; a
lookup takes the nearest point within the slack.

Matching only proposes permutations.  A row is kept when the Mobius map
through the base triple and its images sends every point within ``tol`` of
its partner, in the input's homogeneous coordinates: the chordal test of
the brute-force triple scan that the tests keep as the reference.  The
profiles cost ``O(n^2 log n)`` and each candidate ``O(n log n)``; memory
stays at ``O(n)`` per candidate block, and no candidates-by-n-by-n array
is built.  The kernel makes no BLAS or LAPACK call: the 3x3 solve uses
the adjugate.
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


def active_backend() -> str:
    """The scan implementation in use; there is one."""
    return "numpy"


def _sphere(Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Inverse stereographic images of (Z : W) as an (n, 3) array."""
    zz, ww = np.abs(Z) ** 2, np.abs(W) ** 2
    zw = 2.0 * Z * W.conj()
    return np.stack([zw.real, zw.imag, zz - ww], axis=1) / (zz + ww)[:, None]


def _mul(g, h):
    """The 2x2 product g h of matrices given as (a, b, c, d) tuples."""
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def _newton_direction(M: np.ndarray, c: np.ndarray) -> tuple[float, float, float]:
    """(I - M)^-1 c for a symmetric 3x3 M, by the adjugate."""
    (a, b, e), (_, d, f), (_, _, g) = (np.eye(3) - M).tolist()
    x, y, z = c.tolist()
    ad = (d * g - f * f, e * f - b * g, b * f - e * d,
          a * g - e * e, b * e - a * f, a * d - b * b)
    det = a * ad[0] + b * ad[1] + e * ad[2]
    return ((ad[0] * x + ad[1] * y + ad[2] * z) / det,
            (ad[1] * x + ad[3] * y + ad[4] * z) / det,
            (ad[2] * x + ad[4] * y + ad[5] * z) / det)


def _second_moment(X: np.ndarray) -> np.ndarray:
    """The mean of x x^T over the rows x of X, a 3x3 array."""
    return np.einsum("ni,nj->ij", X, X) / len(X)


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

    # distance profiles: every point's sorted distances to the cloud,
    # compared with those of a few anchor options spread over the indices
    options = np.array(sorted({i * (n - 1) // (_ANCHORS - 1) for i in range(_ANCHORS)}))
    dist = _distances(X, options)
    profiles = np.sort(dist, axis=1)
    deviation = np.empty((len(options), n))
    sep = np.inf
    for blk in _row_blocks(n, n * len(options)):
        sorted_rows = np.sort(_distances(X, blk), axis=1)
        sep = min(sep, float(sorted_rows[:, 1].min()))
        deviation[:, blk] = np.abs(sorted_rows - profiles[:, None, :]).max(axis=2)
    if not shift <= CENTERING_SHIFT * sep:  # also when it is NaN
        raise CenteringFailed(
            f"centering residual {residual:.3g} leaves a shift of {shift:.3g}, "
            f"above {CENTERING_SHIFT:g} of the separation {sep:.3g}, after "
            f"{steps} Newton steps")
    # a true symmetry's images may sit anywhere in the tol balls, which
    # centering stretches by up to ``stretch``
    slack = max(sep / 4.0, 2.0 * tol * stretch)
    matched = deviation <= slack

    # each option's partner b: far from the line through the anchor, with
    # the fewest points at its distance from the anchor ("crowd")
    off_line = np.sqrt(np.maximum(0.0, 1.0 - (1.0 - dist * dist / 2.0) ** 2))
    crowd = np.empty(dist.shape, dtype=np.int64)
    for blk in _row_blocks(n, n * len(options)):
        near = np.abs(dist[:, blk, None] - dist[:, None, :]) <= slack
        crowd[:, blk] = near.sum(axis=2)
    far = off_line >= 0.5 * off_line.max(axis=1, keepdims=True)
    partner = np.where(far, crowd - 0.5 * off_line, np.inf).argmin(axis=1)
    # the option whose candidate pairs (a', b') are fewest
    option = np.arange(len(options))
    k = int((matched.sum(axis=1) * crowd[option, partner]).argmin())
    a, b = int(options[k]), int(partner[k])
    images_a = np.flatnonzero(matched[k])
    dab = dist[k, b]

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

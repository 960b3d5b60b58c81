"""Projective geometry on the extended complex plane.

Points are stored in homogeneous coordinates (z : w), so the point at
infinity needs no special casing anywhere: it is simply (1 : 0).  Mobius
transformations act as 2x2 complex matrices on those coordinates.  All
equality questions are settled in the chordal metric (straight-line
distance between the images on the unit sphere), which is bounded by 2
and treats infinity like any other point.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AmbiguousMatching, DegenerateMap, NearDegenerateTriple

#: Default chordal tolerance used for point and map comparisons.
DEFAULT_TOL = 1e-8

#: Modulus floor for the determinant of a normalized Mobius matrix.
DET_FLOOR = 1e-12


@dataclass(frozen=True)
class RiemannPoint:
    """A point of the Riemann sphere as a normalized pair (z : w).

    The point represented is z/w, with w == 0 meaning infinity.  On
    construction the pair is divided by its larger-modulus coordinate, so
    one coordinate is exactly 1 and the representative is canonical up to
    the remaining phase-free coordinate.
    """

    z: complex
    w: complex

    def __post_init__(self):
        z, w = complex(self.z), complex(self.w)
        az, aw = abs(z), abs(w)
        m = max(az, aw)
        if m == 0.0 or not math.isfinite(m):
            raise ValueError(f"({z}, {w}) does not define a point of the sphere")
        pivot = w if aw >= az else z
        object.__setattr__(self, "z", z / pivot)
        object.__setattr__(self, "w", w / pivot)

    @classmethod
    def from_value(cls, value: complex) -> "RiemannPoint":
        """Build a point from an ordinary complex number (or inf)."""
        if isinstance(value, (int, float)) and math.isinf(value):
            return cls(1.0, 0.0)
        value = complex(value)
        if cmath.isinf(value):
            return cls(1.0, 0.0)
        return cls(value, 1.0)

    @classmethod
    def infinity(cls) -> "RiemannPoint":
        return cls(1.0, 0.0)

    @classmethod
    def _of_normalized(cls, z: complex, w: complex) -> "RiemannPoint":
        """A point from a pair already normalized as ``__post_init__``
        would, stored as is: normalizing twice can move the last bit."""
        p = object.__new__(cls)
        object.__setattr__(p, "z", z)
        object.__setattr__(p, "w", w)
        return p

    def is_infinity(self, tol: float = DEFAULT_TOL) -> bool:
        return chordal_distance(self, _INF) <= tol

    def value(self) -> complex:
        """The point as a complex number; complex infinity for (1 : 0)."""
        if self.w == 0:
            return complex("inf")
        return self.z / self.w

    def norm(self) -> float:
        """Euclidean norm of the homogeneous pair; in [1, sqrt(2)]."""
        return math.hypot(abs(self.z), abs(self.w))

    def to_sphere(self) -> tuple[float, float, float]:
        """Image on the unit sphere in R^3 (inverse stereographic)."""
        zw = self.z * self.w.conjugate()
        s = abs(self.z) ** 2 + abs(self.w) ** 2
        return (2.0 * zw.real / s, 2.0 * zw.imag / s,
                (abs(self.z) ** 2 - abs(self.w) ** 2) / s)

    @classmethod
    def from_sphere(cls, x1: float, x2: float, x3: float) -> "RiemannPoint":
        """Stereographic projection of a point of the unit sphere.

        Projects from the north pole (0, 0, 1), which maps to infinity.
        Chooses the better-conditioned homogeneous chart for each
        hemisphere, so the construction is total.
        """
        if x3 <= 0.0:
            return cls(complex(x1, x2), 1.0 - x3)
        return cls(1.0 + x3, complex(x1, -x2))

    def __str__(self) -> str:
        return point_to_str(self)


_INF = RiemannPoint(1.0, 0.0)


def chordal_distance(p: RiemannPoint, q: RiemannPoint) -> float:
    """Chordal distance between two sphere points; in [0, 2].

    Zero exactly when the points are projectively equal; 2 for antipodal
    pairs.  Equals the Euclidean distance between the sphere images.
    """
    cross = abs(p.z * q.w - q.z * p.w)
    return 2.0 * cross / (p.norm() * q.norm())


def chordal_distances(z1, w1, n1, z2, w2, n2):
    """``chordal_distance`` on numpy arrays of homogeneous points.

    Each point is given by its (z : w) pair and the norm of that pair; the
    arguments broadcast against each other like any numpy expression.
    """
    return 2.0 * np.abs(z1 * w2 - z2 * w1) / (n1 * n2)


def snap_point(p: RiemannPoint, eps: float = 1e-12) -> RiemannPoint:
    """Zero out homogeneous components below eps (relative).

    Turns numerically-computed images that are within eps of 0 or infinity
    into the exact points, which keeps orbit constructions tidy.
    """
    m = max(abs(p.z), abs(p.w))

    def clean(c: complex) -> complex:
        return complex(0.0 if abs(c.real) < eps * m else c.real,
                       0.0 if abs(c.imag) < eps * m else c.imag)

    return RiemannPoint(clean(p.z), clean(p.w))


def snap_arrays(z, w, eps: float = 1e-12):
    """``snap_point`` on arrays of homogeneous pairs, bit for bit: the
    snapped pairs renormalized, as (z, w, norm) ndarrays."""
    bound = eps * np.maximum(np.hypot(z.real, z.imag), np.hypot(w.real, w.imag))

    def clean(c):
        c = c.copy()
        c.real[np.abs(c.real) < bound] = 0.0
        c.imag[np.abs(c.imag) < bound] = 0.0
        return c

    return _with_norms(*_normalized_pairs(clean(z), clean(w)))


def _normalized_pairs(z, w, exact: bool = True):
    """Arrays of nonzero finite pairs, each divided by its larger-modulus
    coordinate (w on a tie).

    With ``exact`` this is ``RiemannPoint``'s normalization bit for bit:
    the moduli are Python's and so is the complex division, which rounds
    differently from numpy's.  Without, numpy divides, which costs about
    half as much and may differ in the last bit.
    """
    if not exact:
        pivot = np.where(np.abs(w) >= np.abs(z), w, z)
        return z / pivot, w / pivot
    zo, wo = z.astype(object), w.astype(object)
    pivot = np.where(np.hypot(w.real, w.imag) >= np.hypot(z.real, z.imag), wo, zo)
    return (zo / pivot).astype(complex), (wo / pivot).astype(complex)


def _with_norms(z, w):
    """(z, w, norm) with the Euclidean norm of each pair."""
    return z, w, np.sqrt(np.abs(z) ** 2 + np.abs(w) ** 2)


def point_arrays(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The homogeneous coordinates of a sequence of points as (z, w,
    norm) ndarrays, ready for ``chordal_distances``."""
    z = np.array([p.z for p in points], dtype=complex)
    w = np.array([p.w for p in points], dtype=complex)
    return _with_norms(z, w)


def normalized_entries(a, b, c, d) -> tuple[complex, complex, complex, complex]:
    """Matrix entries divided by the largest-modulus one, as ``MobiusMap``
    stores them.

    Raises DegenerateMap when no entry is finite and nonzero or the
    normalized determinant has modulus below DET_FLOOR.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    pivot = max((a, b, c, d), key=abs)
    size = abs(pivot)
    if size == 0.0 or not math.isfinite(size):
        raise DegenerateMap("matrix has no usable pivot entry")
    a, b, c, d = a / pivot, b / pivot, c / pivot, d / pivot
    det = a * d - b * c
    if abs(det) < DET_FLOOR:
        raise DegenerateMap(f"determinant {det} below floor")
    return a, b, c, d


@dataclass(frozen=True)
class MobiusMap:
    """The Mobius transformation z -> (a z + b) / (c z + d).

    Stored as a 2x2 complex matrix acting on homogeneous coordinates and
    normalized so its largest-modulus entry equals 1.  Two maps are equal
    exactly when their matrices agree up to a nonzero complex scalar.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = normalized_entries(self.a, self.b, self.c, self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    def apply(self, p: RiemannPoint) -> RiemannPoint:
        return RiemannPoint(self.a * p.z + self.b * p.w,
                            self.c * p.z + self.d * p.w)

    def __call__(self, p: RiemannPoint) -> RiemannPoint:
        return self.apply(p)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product: (self.compose(other))(p) == self(other(p))."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    # Kept only for projective_order, which the benchmark wraps (ROADMAP benchmark request B3).
    def power(self, m: int) -> "MobiusMap":
        """m-th iterate by binary exponentiation; m may be negative."""
        if m < 0:
            return self.inverse().power(-m)
        result = MobiusMap.identity()
        base = self
        while m:
            if m & 1:
                result = result.compose(base)
            base = base.compose(base)
            m >>= 1
        return result

    def is_identity(self, tol: float = DEFAULT_TOL) -> bool:
        """Projective identity test (entries are O(1) after normalization)."""
        scale = max(abs(self.a), abs(self.d))
        return (abs(self.b) <= tol * scale and abs(self.c) <= tol * scale
                and abs(self.a - self.d) <= tol * scale)

    def fixed_points(self) -> tuple[RiemannPoint, RiemannPoint]:
        """Fixed points as eigenvectors of the matrix.

        For an elliptic non-identity map these are the two rotation poles;
        a repeated fixed point is returned twice.
        """
        tr = self.a + self.d
        disc = cmath.sqrt((self.a - self.d) ** 2 + 4.0 * self.b * self.c)
        points = []
        for lam in ((tr + disc) / 2.0, (tr - disc) / 2.0):
            v1 = (self.b, lam - self.a)
            v2 = (lam - self.d, self.c)
            v = v1 if max(abs(v1[0]), abs(v1[1])) >= max(abs(v2[0]), abs(v2[1])) else v2
            points.append(RiemannPoint(*v))
        return points[0], points[1]


# Kept only because the benchmark's tracer wraps it by name (ROADMAP benchmark request B3).
def maps_equal(f: MobiusMap, g: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """Projective equality: f g^-1 is a scalar multiple of the identity."""
    return f.compose(g.inverse()).is_identity(tol)


def matrix_condition(a, b, c, d):
    """|M|_F^2 / |det M|, within a factor 2 of the condition number, of the
    2x2 matrix with entries (a, b, c, d): on scalars, or entrywise on arrays."""
    return ((abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
            / abs(a * d - b * c))


def zero_one_inf_scales(z1, w1, z2, w2, z3, w3):
    """The scales (kappa, mu) of ``zero_one_inf_entries``' rows: the rows
    kappa (w1, -z1) and mu (w3, -z3) annihilate the first and third points,
    and the middle point fixes their relative scale.

    Written with products and differences only, so the same code runs on
    complex scalars and, entrywise, on numpy arrays of triples.
    """
    return z2 * w3 - z3 * w2, z2 * w1 - z1 * w2


def zero_one_inf_entries(z1, w1, z2, w2, z3, w3):
    """Entries (a, b, c, d) of a matrix sending (z1 : w1), (z2 : w2) and
    (z3 : w3) to 0, 1 and infinity (see ``zero_one_inf_scales``)."""
    kappa, mu = zero_one_inf_scales(z1, w1, z2, w2, z3, w3)
    return kappa * w1, -kappa * z1, mu * w3, -mu * z3


def _matrix_to_zero_one_inf(p1: RiemannPoint, p2: RiemannPoint, p3: RiemannPoint) -> MobiusMap:
    return MobiusMap(*zero_one_inf_entries(p1.z, p1.w, p2.z, p2.w, p3.z, p3.w))


def mobius_through_triple(src, dst, tol: float = DEFAULT_TOL) -> MobiusMap:
    """The unique Mobius map sending an ordered triple to an ordered triple.

    Raises NearDegenerateTriple when either triple has a pair of points
    within 2*tol of each other.
    """
    src = tuple(src)
    dst = tuple(dst)
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("both triples must contain exactly three points")
    for triple in (src, dst):
        for i in range(3):
            for j in range(i + 1, 3):
                if chordal_distance(triple[i], triple[j]) <= 2.0 * tol:
                    raise NearDegenerateTriple(
                        f"points {triple[i]} and {triple[j]} are not separated")
    fwd = _matrix_to_zero_one_inf(*src)
    back = _matrix_to_zero_one_inf(*dst)
    return back.inverse().compose(fwd)


def homogeneous_arrays(values, exact: bool = True
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``RiemannPoint.from_value`` on a sequence of complex numbers (inf
    allowed): the normalized pairs as (z, w, norm) ndarrays.

    Each pair is divided by its larger-modulus coordinate, so a coordinate
    like 1e200 becomes (1 : 1e-200) without overflow.  With ``exact`` the
    arrays equal the points' own coordinates bit for bit; without, they
    may differ in the last bit and cost less (see ``_normalized_pairs``).
    """
    z = np.array(values, dtype=complex).reshape(-1)
    at_inf = np.isinf(z)
    if (np.isnan(z) & ~at_inf).any():
        raise ValueError("a NaN coordinate does not define a point of the sphere")
    w = np.ones_like(z)
    z[at_inf], w[at_inf] = 1.0, 0.0
    return _with_norms(*_normalized_pairs(z, w, exact))


def check_separation(z, w, nrm, tol: float) -> float:
    """The smallest pairwise chordal distance of the points (z : w) with
    pair norms nrm; inf below two points.

    Raises AmbiguousMatching, naming a closest pair, unless that distance
    exceeds 2*tol.
    """
    n = len(z)
    if n < 2:
        return math.inf
    d = chordal_distances(z[:, None], w[:, None], nrm[:, None], z, w, nrm)
    d[np.diag_indices(n)] = 4.0
    i, j = np.unravel_index(np.argmin(d), d.shape)
    if d[i, j] <= 2.0 * tol:
        p, q = (RiemannPoint(z[k], w[k]) for k in (i, j))
        raise AmbiguousMatching(
            f"points {p} and {q} are within 2*tol = {2.0 * tol} of each other")
    return float(d[i, j])


class PointSet:
    """A finite set of well-separated sphere points with a working tolerance.

    All pairwise chordal distances must exceed 2*tol, which makes
    tolerance-ball matching against the set unambiguous; construction
    checks this and keeps the smallest distance it found as
    ``min_separation``.  The homogeneous coordinates, as read-only (z, w,
    norm) arrays, are the set's state: ``PointSet(points, tol)`` takes them
    from the points, ``from_values`` and ``from_arrays`` build no point at
    all, and ``points`` makes the ``RiemannPoint`` objects on first read.
    """

    def __init__(self, points, tol: float = DEFAULT_TOL):
        self.points = tuple(points)
        self._init(*point_arrays(self.points), tol)

    def _init(self, z, w, nrm, tol: float):
        for a in (z, w, nrm):
            a.flags.writeable = False
        self._arrays = (z, w, nrm)
        self.tol = float(tol)
        self._min_separation = check_separation(z, w, nrm, self.tol)

    @classmethod
    def from_arrays(cls, z, w, nrm, tol: float = DEFAULT_TOL) -> "PointSet":
        """The set of the pairs (z : w) with norms nrm, normalized as
        ``RiemannPoint`` normalizes them (``homogeneous_arrays`` and
        ``snap_arrays`` make such arrays).  Takes ownership of the arrays."""
        ps = cls.__new__(cls)
        ps._init(z, w, nrm, tol)
        return ps

    @cached_property
    def points(self) -> tuple[RiemannPoint, ...]:
        z, w, _ = self._arrays
        return tuple(RiemannPoint._of_normalized(a, b)
                     for a, b in zip(z.tolist(), w.tolist()))

    @property
    def min_separation(self) -> float:
        """The smallest pairwise chordal distance, from the construction
        check; inf below two points.  Divided by tol, it is how close the
        set came to its tolerance."""
        return self._min_separation

    @property
    def n(self) -> int:
        return len(self._arrays[0])

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(point_to_str(p) for p in self.points)
        return f"PointSet({{{inner}}}, tol={self.tol})"

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Homogeneous coordinates as (z, w, norm) ndarrays."""
        return self._arrays

    @classmethod
    def from_values(cls, values, tol: float = DEFAULT_TOL) -> "PointSet":
        return cls.from_arrays(*homogeneous_arrays(values), tol=tol)

    def to_json(self) -> list[str]:
        return [point_to_str(p) for p in self.points]

    @classmethod
    def from_json(cls, data, tol: float = DEFAULT_TOL) -> "PointSet":
        return cls((point_from_str(s) for s in data), tol=tol)


# ---------------------------------------------------------------------------
# Serialization: finite points as "re+imi" decimals, infinity as "inf".


def format_complex(v: complex) -> str:
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def parse_complex(text: str) -> complex:
    """Parse "a+bi" style complex literals ("2", "2+1i", "-0.5-2e-3i")."""
    s = text.strip().replace(" ", "")
    if s.lower() in ("inf", "infinity"):
        return complex("inf")
    if not s:
        raise ValueError("empty complex literal")
    has_i = s[-1] in "iIjJ"
    body = s[:-1] if has_i else s
    if not has_i:
        return complex(float(body), 0.0)
    m = re.match(r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
                 r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?$", body)
    if m is None:
        raise ValueError(f"cannot parse complex literal {text!r}")
    re_part, im_part = m.group("re"), m.group("im")
    if im_part is None:
        # purely imaginary, e.g. "2i" or "i"
        im_part, re_part = re_part or "+", None
    if im_part in ("+", "-"):
        im_part += "1"
    return complex(float(re_part) if re_part else 0.0, float(im_part))


def point_to_str(p: RiemannPoint) -> str:
    if p.w == 0:
        return "inf"
    return format_complex(p.value())


def point_from_str(text: str) -> RiemannPoint:
    return RiemannPoint.from_value(parse_complex(text))

"""The symmetric-group action on normalized point configurations.

A configuration of n marked points with three of them pinned at 0, 1 and
infinity is recorded by the remaining n-3 coordinates, a tuple in

    K_n = { (l_1, ..., l_{n-3}) : l_i != 0, 1 and pairwise distinct }.

Relabelling the marked points by a permutation and re-pinning the first
three induces a birational self-map of K_n.  This module evaluates that
action two independent ways, and cross-checks the two on every call:
directly from its definition via the re-pinning Mobius map, and in closed
form.  The closed form splits the permutation into a block part, which
permutes the coordinates and applies one of the six anharmonic maps, and
a coset representative built from at most three transpositions.  The
coset part is one Mobius map h_L whose coefficients, looked up in a table
by the displaced pinned slots, are written out in the displaced values L;
each displaced slot's coordinate is h_L at the value that slot pinned.
The coordinates go through h and h_L as one composed map.

Each path is a fixed handful of numpy calls on index arrays, whatever n:
sigma is inverted by one argsort, and neither path loops over the points
in Python.  The cross-check is cheap first: a chordal distance is at most
twice the coordinates' difference, so the two paths agree within 10*tol
whenever 2 max|a - b| does, and the chordal deviation is computed only
when that screen fails.

A K_n point carries its n marked points as normalized homogeneous (z, w)
arrays, built at most once.  Its separation check, the re-pinning map
f_sigma, the definitional path and the triple search all read those
arrays; permutations enter both paths as plain index lists.  The closed
form reads only the coordinates themselves, so the two paths share
nothing that could hide an error in either.  The output of the action, a
Mobius image of a point already checked, carries a proven bound on its
separation in place of a check, and builds its arrays only when they are
read.

The stabilizer G_lambda of a K_n point, the permutations whose action
fixes it, comes from one triple search at every n, which never calls the
Mobius stabilizer oracle.  ``phi_check`` checks the isomorphism sigma ->
f_sigma from G_lambda onto the oracle's stabilizer of the marked points,
on permutations alone: no Mobius map is compared.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormMismatch
from .geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                       check_separation, chordal_distances, homogeneous_arrays,
                       matrix_condition, mobius_through_triple,
                       normalized_entries, zero_one_inf_entries)
from .kernels import _mul, _row_blocks, _row_keys
from .oracle import stabilizer

#: The anharmonic group: the six Mobius maps permuting {0, 1, inf}.
ANHARMONIC_GROUP = (
    MobiusMap.identity(),
    MobiusMap(-1.0, 1.0, 0.0, 1.0),   # 1 - z
    MobiusMap(0.0, 1.0, 1.0, 0.0),    # 1/z
    MobiusMap(1.0, 0.0, 1.0, -1.0),   # z/(z - 1)
    MobiusMap(1.0, -1.0, 1.0, 0.0),   # (z - 1)/z
    MobiusMap(0.0, -1.0, 1.0, -1.0),  # -1/(z - 1)
)

# The entries (a, b, c, d) of the anharmonic map realizing each
# permutation a of the pinned slots (keyed by the images (a(1), a(2),
# a(3))): it sends the value pinned at slot i to the value pinned at slot
# a(i).
_ANHARMONIC_BY_SLOT_PERM = dict(zip(
    [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (3, 1, 2), (2, 3, 1)],
    ((h.a, h.b, h.c, h.d) for h in ANHARMONIC_GROUP)))

# The coset part, keyed by the pinned slots whose points the coset
# representative moves into the free coordinates: the entries (a, b, c, d)
# of h_L(mu) = (a mu + b) / (c mu + d), written out in the values L[slot]
# found at those points.
_COSET_MAPS = {
    (): lambda L: (1.0, 0.0, 0.0, 1.0),
    (1,): lambda L: (1.0, -L[1], 0.0, 1.0 - L[1]),
    (2,): lambda L: (1.0, 0.0, 0.0, L[2]),
    (3,): lambda L: (1.0 - L[3], 0.0, 1.0, -L[3]),
    (1, 2): lambda L: (1.0, -L[1], 0.0, L[2] - L[1]),
    (2, 3): lambda L: (L[2] - L[3], 0.0, L[2], -L[2] * L[3]),
    (1, 3): lambda L: (L[3] - 1.0, -(L[3] - 1.0) * L[1],
                       L[1] - 1.0, -(L[1] - 1.0) * L[3]),
    (1, 2, 3): lambda L: (L[2] - L[3], -(L[2] - L[3]) * L[1],
                          L[2] - L[1], -(L[2] - L[1]) * L[3]),
}

# The value pinned at each slot, as a homogeneous pair: 0, 1, infinity.
_PINNED = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (1.0, 0.0)}


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self.compose(other))(i) == self(other(i))."""
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(self(i) == i for i in range(1, self.n + 1))

    def __str__(self) -> str:
        return "(" + " ".join(str(i) for i in self.images) + ")"


def all_permutations(n: int):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    images = np.arange(1, n + 1)
    rng.shuffle(images)
    return Permutation(tuple(int(i) for i in images))


@dataclass(frozen=True)
class LambdaTuple:
    """A point of K_n: the free coordinates of a normalized configuration.

    Construction builds the marked points (0, 1, inf, l_1, ..., l_{n-3})
    as read-only homogeneous arrays, checks that tol is finite and above 0
    (InvalidTolerance otherwise) and that the points are pairwise more
    than 2*tol apart (AmbiguousMatching otherwise), and keeps the smallest
    distance found as a lower bound on the point's separation.  The
    coordinates are also kept as a read-only array, which the closed form
    reads.

    ``g_sigma`` builds its output through ``_certified`` when it can prove
    the output separated: that stores the proven bound in place of the
    check, and the homogeneous arrays are made on the first ``arrays()`` or
    ``marked_points()`` read, bit for bit as construction would make them.
    """

    values: tuple[complex, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        values = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coords",
                           _read_only(np.array(values, dtype=complex)))
        object.__setattr__(self, "_separation_bound",
                           check_separation(*self._arrays, self.tol))

    @classmethod
    def _certified(cls, coords: np.ndarray, tol: float,
                   separation_bound: float) -> "LambdaTuple":
        """The K_n point with these coordinates, whose marked points the
        caller has proven to lie more than ``separation_bound`` > 2*tol
        apart; checks nothing and builds no homogeneous array."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "values", tuple(coords.tolist()))
        object.__setattr__(lam, "tol", tol)
        object.__setattr__(lam, "_coords", _read_only(coords))
        object.__setattr__(lam, "_separation_bound", separation_bound)
        return lam

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # one per g_sigma call, so numpy's cheaper division; marked_points()
        # normalizes each point exactly
        arrays = homogeneous_arrays((0.0, 1.0, math.inf) + self.values,
                                    exact=False)
        for a in arrays:
            _read_only(a)
        return arrays

    @property
    def n(self) -> int:
        return len(self.values) + 3

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The marked points as read-only (z, w, norm) ndarrays, slot
        order."""
        return self._arrays

    def marked_points(self) -> list[RiemannPoint]:
        """The full configuration (0, 1, inf, l_1, ..., l_{n-3})."""
        z, w, _ = self._arrays
        return [RiemannPoint(a, b) for a, b in zip(z.tolist(), w.tolist())]

    def point_set(self) -> PointSet:
        return PointSet(self.marked_points(), tol=self.tol)

    def to_json(self) -> dict:
        from .geometry import format_complex
        return {"n": self.n, "values": [format_complex(v) for v in self.values]}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def tuple_deviation(a, b) -> float:
    """Largest componentwise chordal distance between two equally long
    tuples of finite coordinates; 0.0 for two empty tuples, nan if either
    holds a non-finite coordinate."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"cannot compare tuples of lengths {a.size} and {b.size}")
    if a.size == 0:
        return 0.0
    return float(chordal_distances(a, 1.0, np.hypot(1.0, np.abs(a)),
                                   b, 1.0, np.hypot(1.0, np.abs(b))).max())


def _screened_deviation(a: np.ndarray, b, bound: float) -> float:
    """``tuple_deviation(a, b)`` where it exceeds ``bound`` (or is nan);
    otherwise some value at most ``bound``.

    A chordal distance is at most twice the coordinates' difference, since
    both denominators are at least 1, and rounding keeps that order; so
    when 2 max|a - b| is within the bound, the exact deviation is too, and
    three numpy calls decide.  Only when that screen fails is the exact
    deviation computed, so the decision and the value reported for a
    failure are the exact ones.
    """
    if a.size and a.shape == np.shape(b):
        screen = 2.0 * float(np.abs(a - b).max())
        if screen <= bound:
            return screen
    return tuple_deviation(a, b)


def _check_size(lam: LambdaTuple, sigma: Permutation):
    if len(sigma.images) != lam.n:
        raise ValueError(f"sigma permutes {sigma.n} points, but the K_n "
                         f"point has n = {lam.n}")


def _repinning_entries(lam: LambdaTuple, i: int, j: int, k: int):
    """The entries (a, b, c, d), unnormalized, of the map sending the marked
    points i, j and k to 0, 1 and infinity.

    The LambdaTuple's own 2*tol check keeps the triple apart.
    """
    z, w, _ = lam.arrays()
    return zero_one_inf_entries(z.item(i), w.item(i), z.item(j), w.item(j),
                                z.item(k), w.item(k))


def _pinned_triple(images: tuple[int, ...]) -> tuple[int, int, int]:
    """The indices of the marked points that the permutation with these
    images sends to slots 1, 2, 3."""
    return images.index(1), images.index(2), images.index(3)


def f_sigma(lam: LambdaTuple, sigma: Permutation) -> MobiusMap:
    """The re-pinning map: sends the points in slots sigma^-1(1), (2), (3)
    of the configuration to 0, 1 and infinity."""
    _check_size(lam, sigma)
    return MobiusMap(*_repinning_entries(lam, *_pinned_triple(sigma.images)))


def g_sigma_definitional(lam: LambdaTuple, sigma: Permutation) -> np.ndarray:
    """The action straight from its definition: apply the re-pinning map to
    the reordered configuration and read off the free coordinates."""
    _check_size(lam, sigma)
    inv = np.fromiter(sigma.images, np.intp, lam.n).argsort()
    a, b, c, d = normalized_entries(
        *_repinning_entries(lam, *inv[:3].tolist()))
    z, w, _ = lam.arrays()
    rest = inv[3:]
    z, w = z[rest], w[rest]
    z, w = a * z + b * w, c * z + d * w
    at_inf = np.abs(w) < 1e-14 * np.abs(z)
    if np.count_nonzero(at_inf):
        raise ValueError(
            f"image coordinate for slot {4 + int(np.argmax(at_inf))} landed "
            "at infinity; the input left the domain of the action")
    return z / w


def g_sigma_closed(lam: LambdaTuple, sigma: Permutation) -> np.ndarray:
    """The action via the closed forms: the block part's coordinate
    shuffle and anharmonic map h, then the coset part's map h_L.

    sigma = tau v, where v preserves {1,2,3} and {4..n} and the involution
    tau swaps each pinned slot whose preimage lies beyond 3 with one of
    the free slots among sigma(1), sigma(2), sigma(3); such products form
    a complete set of coset representatives.  v's images are sigma's with
    at most three entries swapped.  The coordinates are shuffled by v and
    mapped by the one matrix h_L h; each displaced slot's coordinate is
    h_L at the value that slot pinned, set in homogeneous coordinates
    before the one division so that infinity needs none.  Reads the
    coordinates alone, never the marked points' arrays.
    """
    _check_size(lam, sigma)
    images = sigma.images
    head = images[:3]
    bigs = iter(sorted([t for t in head if t > 3]))
    tail = np.fromiter(images[3:], np.intp, lam.n - 3)  # v's images, patched
    v_head = list(head)
    displaced = []  # (slot, the big index it swaps with, its coordinate)
    for slot in (1, 2, 3):
        if slot not in head:
            big, i = next(bigs), images.index(slot)
            tail[i - 3] = big
            v_head[head.index(big)] = slot
            displaced.append((slot, big, lam.values[i - 3]))
    h = _ANHARMONIC_BY_SLOT_PERM[tuple(v_head)]
    L = {slot: (h[0] * x + h[1]) / (h[2] * x + h[3]) for slot, _, x in displaced}
    coset = _COSET_MAPS[tuple(L)](L)
    a, b, c, d = _mul(coset, h)
    mu = lam._coords[tail.argsort()]  # slot v(i) gets l_{i-3}
    z, w = a * mu + b, c * mu + d
    a, b, c, d = coset
    for slot, big, _ in displaced:
        p, q = _PINNED[slot]
        z[big - 4], w[big - 4] = a * p + b * q, c * p + d * q
    return z / w


#: The rounding margin of the separation bound in ``g_sigma``: relative,
#: and absolute in units of the re-pinning map's condition number.  The
#: images and the re-normalized output move each point by a few ulps times
#: that number, so both margins leave a wide factor.
_BOUND_RELATIVE_MARGIN = 1e-9
_BOUND_ABSOLUTE_MARGIN = 1e-13


def _image_separation(lam: LambdaTuple, entries) -> float:
    """A lower bound on the pairwise chordal distances of the images of
    lam's marked points under the matrix with these entries, as the
    output arrays of g_sigma will hold them.

    For a matrix A, chordal(Ap, Aq) >= chordal(p, q) / kappa with
    kappa = |A|_F^2 / |det A|, since the cross product of Ap and Aq is
    det A times that of p and q, and |Ap| <= |A|_F |p|.  kappa does not
    depend on A's scale, so A need not be normalized.
    """
    kappa = matrix_condition(*entries)
    return (lam._separation_bound / kappa * (1.0 - _BOUND_RELATIVE_MARGIN)
            - _BOUND_ABSOLUTE_MARGIN * kappa)


def g_sigma(lam: LambdaTuple, sigma: Permutation) -> LambdaTuple:
    """Evaluate the action of sigma on a K_n point, both ways, and fail
    loudly if the definitional and closed-form paths disagree.

    The output is the definitional path's, a Mobius image of the input,
    and its separation is bounded without an O(n^2) check: by the input's
    bound divided by the condition number kappa = |A|_F^2 / |det A| of the
    re-pinning map A = f_sigma (kappa does not depend on A's scale, so it
    is that of the normalized map), less a relative margin of 1e-9
    and an absolute one of 1e-13 * kappa for rounding.  When that bound
    exceeds 2*tol (tol is ``lam.tol`` throughout) the output keeps it and
    builds its homogeneous arrays only when they are read; otherwise the
    output goes through the public constructor's full check, which raises
    AmbiguousMatching as before.

    The paths must agree within 10*tol in ``tuple_deviation``, decided
    cheaply first (``_screened_deviation``); a failure reports the exact
    deviation.

    The action is not closed on K_n at a fixed tol, because chordal
    distance is not Mobius-invariant: a valid point can have images with
    two marked points within 2*tol.  For the n = 8 point (1.2e4+3e3j,
    -2e-4+1e-4j, 0.7e4j, 3e-4, 2-1j) at tol = 1e-8, 3120 of the 40320 sigma
    raise AmbiguousMatching.
    """
    tol = lam.tol
    by_def = g_sigma_definitional(lam, sigma)
    by_form = g_sigma_closed(lam, sigma)
    dev = _screened_deviation(by_def, by_form, 10.0 * tol)
    if not dev <= 10.0 * tol:  # nan too
        raise ClosedFormMismatch(
            f"closed form and definition disagree by {dev} for sigma = {sigma}")
    bound = _image_separation(
        lam, _repinning_entries(lam, *_pinned_triple(sigma.images)))
    if bound > 2.0 * lam.tol:
        return LambdaTuple._certified(by_def, lam.tol, bound)
    return LambdaTuple(by_def.tolist(), tol=lam.tol)


#: How far ``random_lambda`` keeps each coordinate from 0, from 1 and from
#: every other coordinate.
_MARGIN = 0.05

#: The most coordinates ``random_lambda`` draws from its fixed box.
_BOX_COORDINATES = 2048


def random_lambda(n: int, rng: np.random.Generator,
                  tol: float = DEFAULT_TOL) -> LambdaTuple:
    """A generic K_n point at this tol, with coordinates comfortably
    separated.

    The coordinates are drawn one at a time from the box [-2, 3] x [-2, 2],
    and one that lands within ``_MARGIN`` of 0, 1 or an earlier coordinate
    is drawn again alone, so the number of draws grows about linearly in n.
    Past ``_BOX_COORDINATES`` coordinates the box is scaled by
    sqrt(coordinates / _BOX_COORDINATES), keeping its area per coordinate:
    random sequential placement at margin 0.05 jams at about 2.7 times
    that many coordinates, so the box never fills.
    """
    s = max(1.0, math.sqrt((n - 3) / _BOX_COORDINATES))
    values: list[complex] = []
    while len(values) < n - 3:
        v = complex(rng.uniform(-2.0 * s, 3.0 * s), rng.uniform(-2.0 * s, 2.0 * s))
        if all(abs(v - u) > _MARGIN for u in (0.0, 1.0, *values)):
            values.append(v)
    return LambdaTuple(tuple(values), tol=tol)


@dataclass
class GroupLawReport:
    n: int
    trials: int
    max_deviation: float
    tolerance: float
    faithful_total: int
    faithful_moved: int

    @property
    def passed(self) -> bool:
        law_ok = self.max_deviation < self.tolerance
        faith_ok = self.faithful_moved == self.faithful_total
        return law_ok and faith_ok

    def summary(self) -> str:
        return (f"group law at n={self.n}: {self.trials} trials, max deviation "
                f"{self.max_deviation:.3e} (tolerance {self.tolerance:.1e}); "
                f"faithfulness {self.faithful_moved}/{self.faithful_total} "
                f"non-identity actions move a generic point -> "
                f"{'PASS' if self.passed else 'FAIL'}")


def verify_group_law(n: int, trials: int = 200, rng_seed: int = 0,
                     tol: float = DEFAULT_TOL) -> GroupLawReport:
    """Numerically check that composing actions matches the composed
    permutation, and that non-identity permutations act non-trivially.

    For each trial, draws random sigma, pi and a random configuration at
    tol and compares g_pi(g_sigma(lam)) with g_{pi sigma}(lam).
    Faithfulness is checked exhaustively for n <= 6 and on samples above.
    """
    if n < 4:
        raise ValueError("the action needs n >= 4")
    if trials < 1:  # no composition checked would pass vacuously
        raise ValueError(f"need at least one trial, not {trials}")
    rng = np.random.default_rng(rng_seed)
    max_dev = 0.0
    for _ in range(trials):
        lam = random_lambda(n, rng, tol=tol)
        sigma = random_permutation(n, rng)
        pi = random_permutation(n, rng)
        two_step = g_sigma(g_sigma(lam, sigma), pi)
        one_step = g_sigma(lam, pi.compose(sigma))
        max_dev = max(max_dev, tuple_deviation(two_step.values, one_step.values))

    moved = total = 0
    if n >= 5:
        lam = random_lambda(n, rng, tol=tol)
        perms = (all_permutations(n) if math.factorial(n) <= 720
                 else (random_permutation(n, rng) for _ in range(200)))
        for sigma in perms:
            if sigma.is_identity():
                continue
            total += 1
            if tuple_deviation(g_sigma(lam, sigma).values, lam.values) > 10.0 * tol:
                moved += 1
    return GroupLawReport(n=n, trials=trials, max_deviation=max_dev,
                          tolerance=10.0 * tol, faithful_total=total,
                          faithful_moved=moved)


#: How far (chordal) the image of a marked point may lie from a coordinate
#: and still be proposed for that coordinate's slot: tol plus a rounding
#: margin, at most _SLOT_SLACK * tol, since the closed-form test at tol
#: decides.  (1e3 * tol alone would propose every point at tol = 1e-3.)
_SLOT_SLACK = 1e3
_SLOT_ROUNDING = 1e-5


def _ordered_triples(n: int, block: slice) -> np.ndarray:
    """The ordered triples of distinct indices 0..n-1 whose lexicographic
    ranks lie in the block, (T, 3)."""
    ranks = np.arange(block.start, min(block.stop, n * (n - 1) * (n - 2)))
    i, rest = np.divmod(ranks, (n - 1) * (n - 2))
    j, k = np.divmod(rest, n - 2)
    j += j >= i  # skip i, then the smaller and the larger of i and j
    k += k >= np.minimum(i, j)
    k += k >= np.maximum(i, j)
    return np.stack((i, j, k), axis=1)


def _bijections(candidates, used=()):
    """Every choice of one distinct candidate per slot, slots in order."""
    if not candidates:
        yield ()
        return
    for t in candidates[0]:
        if t not in used:
            for rest in _bijections(candidates[1:], used + (t,)):
                yield (t,) + rest


def _triple_search(lam: LambdaTuple):
    """The permutations that could fix lam, found from the points that
    f_sigma pins.

    A sigma fixing lam is fixed by the ordered triple (i, j, k) of marked
    points it sends to slots 1, 2, 3: f_sigma is then the map taking them
    to 0, 1, inf, and each slot s >= 4 must hold a marked point that this
    map sends to l_{s-3}.  The n(n-1)(n-2) triples are mapped in blocks of
    about kernels._BLOCK images, so memory does not grow with n; slot by
    slot, a triple survives only if some point outside it lands within the
    slack of that slot's coordinate.
    """
    n = lam.n
    z, w, _ = lam.arrays()
    slack = min(_SLOT_SLACK * lam.tol, lam.tol + _SLOT_ROUNDING)
    for block in _row_blocks(n * (n - 1) * (n - 2), n):
        tri = _ordered_triples(n, block)
        i, j, k = tri.T
        a, b, c, d = (e[:, None] for e in
                      zero_one_inf_entries(z[i], w[i], z[j], w[j], z[k], w[k]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            image = (a * z + b * w) / (c * z + d * w)
            rows = np.arange(len(tri))
            for col in (i, j, k):  # the triple itself goes to 0, 1, inf
                image[rows, col] = np.nan
            # chordal |q - l| = 2 |q - l| / (sqrt(1 + |q|^2) sqrt(1 + |l|^2))
            room = (0.5 * slack) * np.sqrt(1.0 + abs(image) ** 2)
            masks = []
            for value in lam.values:
                near = abs(image - value) <= room * math.sqrt(1.0 + abs(value) ** 2)
                alive = near.any(axis=1)
                tri, image, room = tri[alive], image[alive], room[alive]
                masks = [m[alive] for m in masks] + [near[alive]]
                if not len(tri):
                    break
        for r, triple in enumerate(tri.tolist()):
            slots = [np.flatnonzero(m[r]).tolist() for m in masks]
            for chosen in _bijections(slots):
                images = [0] * n
                for slot, t in enumerate(triple + list(chosen), start=1):
                    images[t] = slot
                yield Permutation(tuple(images))


def stabilizer_G_lambda(lam: LambdaTuple) -> list[Permutation]:
    """The permutations whose action fixes the given K_n point, sorted by
    their images.

    A triple search: map the marked points by each of the n(n-1)(n-2)
    ordered triples that f_sigma could send to 0, 1 and inf, propose the
    sigma whose slots those images fill, and keep those whose closed-form
    action fixes the point within tol.  The cost is n(n-1)(n-2) * n numpy
    work, in blocks of bounded memory, plus one closed-form test per
    proposal.  The Mobius stabilizer oracle is not used.
    """
    kept = [sigma for sigma in _triple_search(lam)
            if _screened_deviation(g_sigma_closed(lam, sigma), lam._coords,
                                   lam.tol) <= lam.tol]
    return sorted(kept, key=lambda s: s.images)


@dataclass
class PhiReport:
    """Result of checking that sigma -> f_sigma is an isomorphism from the
    permutation stabilizer onto the Mobius stabilizer of the point set."""

    n: int
    order_G: int
    order_A: int
    stabilized: int
    hom_pairs: int
    hom_pairs_ok: int
    onto_ok: bool

    @property
    def passed(self) -> bool:
        return (self.order_G == self.order_A
                and self.stabilized == self.order_G
                and self.hom_pairs_ok == self.hom_pairs
                and self.onto_ok)

    def summary(self) -> str:
        return (f"isomorphism check at n={self.n}: |G_lambda| = {self.order_G}, "
                f"|A| = {self.order_A}; {self.stabilized}/{self.order_G} maps "
                f"stabilize the configuration; homomorphism pairs "
                f"{self.hom_pairs_ok}/{self.hom_pairs}; onto: {self.onto_ok} "
                f"-> {'PASS' if self.passed else 'FAIL'}")


def _products_in(R: np.ndarray) -> int:
    """How many of the products pi sigma, over all ordered pairs of rows
    of R (zero-based images, (m, n)), are themselves rows of R.

    The row of pi sigma is pi's row read at sigma's images; the products
    are formed for a block of pi rows at a time, about kernels._BLOCK
    entries, and looked up by row key.
    """
    m, n = R.shape
    members = set(_row_keys(R))
    count = 0
    for blk in _row_blocks(m, m * n):
        products = R[blk].take(R, axis=1).reshape(-1, n)
        count += sum(map(members.__contains__, _row_keys(products)))
    return count


def phi_check(lam: LambdaTuple) -> PhiReport:
    """Verify bijectivity and the homomorphism property of sigma -> f_sigma
    from G_lambda, found by the triple search, to the Mobius stabilizer A
    of the configuration, found by the oracle; everything is compared on
    permutations of the marked points.

    ``stabilized`` counts the sigma whose definitional action, which the
    search did not use, returns the configuration within its tol: then
    f_sigma sends the marked point in slot t to the one in slot sigma(t).
    So f_sigma lies in A exactly when sigma's images, less one, are a row
    of A (the onto test), and f_pi f_sigma and f_{pi sigma} induce the
    same permutation pi sigma of the marked points.  n >= 3 points make
    that action faithful, since a Mobius map fixing three points is the
    identity, so the two maps are equal; the homomorphism test therefore
    checks that pi sigma lies in G_lambda, for all |G|^2 pairs, on the
    (|G|, n) array of images.
    """
    G = stabilizer_G_lambda(lam)
    A = stabilizer(lam.point_set())
    stabilized = sum(
        1 for sigma in G
        if _screened_deviation(g_sigma_definitional(lam, sigma), lam._coords,
                               lam.tol) <= lam.tol)
    images = np.array([sigma.images for sigma in G], dtype=np.intp)
    hom_ok = _products_in(images.reshape(len(G), lam.n) - 1)
    rows = set(map(tuple, (A.rows + 1).tolist()))
    onto = all(sigma.images in rows for sigma in G)
    return PhiReport(n=lam.n, order_G=len(G), order_A=A.order,
                     stabilized=stabilized, hom_pairs=len(G) ** 2,
                     hom_pairs_ok=hom_ok, onto_ok=onto)


# ---------------------------------------------------------------------------
# Built-in configurations for the command-line checks.

def _normalize_to_lambda(values) -> LambdaTuple:
    """Send the first three of the given points to 0, 1, inf and return the
    remaining coordinates as a K_n point."""
    pts = [RiemannPoint.from_value(v) for v in values]
    f = mobius_through_triple(
        (pts[0], pts[1], pts[2]),
        (RiemannPoint.from_value(0.0), RiemannPoint.from_value(1.0),
         RiemannPoint.infinity()))
    return LambdaTuple(tuple(f.apply(p).value() for p in pts[3:]))


#: The command line's example configurations, name -> builder: 'generic'
#: (trivial stabilizer), 'd5' (the regular pentagon; order 10) and 'z2'
#: (the five-point antipodal configuration; order 2).
_PRESETS = {
    "generic": lambda: LambdaTuple((2.0 + 1.0j, 5.0)),
    "d5": lambda: _normalize_to_lambda(
        [cmath.exp(2j * math.pi * k / 5.0) for k in range(5)]),
    "z2": lambda: _normalize_to_lambda([0.0, 1.0, 2.0, -1.0, -2.0]),
}


def preset_lambda(name: str) -> LambdaTuple:
    """The named example configuration of ``_PRESETS``."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r} (try {', '.join(_PRESETS)})")
    return _PRESETS[name]()

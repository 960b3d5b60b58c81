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

A K_n point carries its n marked points, built once on construction, as
normalized homogeneous (z, w) arrays.  Its separation check, the
re-pinning map f_sigma, the definitional path and the triple search all
read those arrays; permutations enter both paths as plain index lists.
The closed form reads only the coordinates themselves, so the two paths
share nothing that could hide an error in either.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormMismatch, EnumerationBoundExceeded
from .geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                       check_separation, chordal_distances,
                       homogeneous_arrays, maps_equal, mobius_through_triple,
                       zero_one_inf_entries)
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

# The anharmonic map realizing each permutation a of the pinned slots
# (keyed by the images (a(1), a(2), a(3))): it sends the value pinned at
# slot i to the value pinned at slot a(i).
_ANHARMONIC_BY_SLOT_PERM = dict(zip(
    [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (3, 1, 2), (2, 3, 1)],
    ANHARMONIC_GROUP))

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
    once, as read-only homogeneous arrays, and checks that they are
    pairwise more than 2*tol apart (AmbiguousMatching otherwise).
    """

    values: tuple[complex, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(complex(v) for v in self.values))
        arrays = homogeneous_arrays((0.0, 1.0, math.inf) + self.values)
        for a in arrays:
            a.flags.writeable = False
        check_separation(*arrays, self.tol)
        object.__setattr__(self, "_arrays", arrays)

    @property
    def n(self) -> int:
        return len(self.values) + 3

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The marked points as (z, w, norm) ndarrays, slot order."""
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

    @classmethod
    def from_json(cls, data: dict) -> "LambdaTuple":
        from .geometry import parse_complex
        return cls(tuple(parse_complex(s) for s in data["values"]))


def tuple_deviation(a, b) -> float:
    """Largest componentwise chordal distance between two equally long
    tuples of finite coordinates; 0.0 for two empty tuples, nan if either
    holds a non-finite coordinate."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"cannot compare tuples of lengths {a.size} and {b.size}")
    if a.size == 0:
        return 0.0
    return float(chordal_distances(a, 1.0, np.hypot(1.0, abs(a)),
                                   b, 1.0, np.hypot(1.0, abs(b))).max())


def _check_size(lam: LambdaTuple, sigma: Permutation):
    if sigma.n != lam.n:
        raise ValueError(f"sigma permutes {sigma.n} points, but the K_n "
                         f"point has n = {lam.n}")


def _preimages(lam: LambdaTuple, sigma: Permutation) -> np.ndarray:
    """The index of the marked point that sigma sends to each slot 1..n."""
    _check_size(lam, sigma)
    return np.argsort(sigma.images)


def _repinning(lam: LambdaTuple, i: int, j: int, k: int) -> MobiusMap:
    """The map sending marked points i, j, k to 0, 1, infinity.

    The LambdaTuple's own 2*tol check keeps the triple apart.
    """
    z, w, _ = lam.arrays()
    return MobiusMap(*zero_one_inf_entries(z[i], w[i], z[j], w[j], z[k], w[k]))


def f_sigma(lam: LambdaTuple, sigma: Permutation) -> MobiusMap:
    """The re-pinning map: sends the points in slots sigma^-1(1), (2), (3)
    of the configuration to 0, 1 and infinity."""
    return _repinning(lam, *_preimages(lam, sigma)[:3])


def g_sigma_definitional(lam: LambdaTuple, sigma: Permutation) -> tuple[complex, ...]:
    """The action straight from its definition: apply the re-pinning map to
    the reordered configuration and read off the free coordinates."""
    inv = _preimages(lam, sigma)
    f = _repinning(lam, *inv[:3])
    z, w, _ = lam.arrays()
    z, w = z[inv[3:]], w[inv[3:]]
    z, w = f.a * z + f.b * w, f.c * z + f.d * w
    at_inf = np.abs(w) < 1e-14 * np.abs(z)
    if at_inf.any():
        raise ValueError(
            f"image coordinate for slot {4 + int(np.argmax(at_inf))} landed "
            "at infinity; the input left the domain of the action")
    return tuple((z / w).tolist())


def _coset_split(images: tuple[int, ...]):
    """Split the permutation with these images as tau * v with v
    preserving {1,2,3} and {4..n}.

    tau is a product of at most three disjoint transpositions (slot, big
    index), one for each pinned slot whose preimage lies beyond 3; such
    products form a complete set of coset representatives.  Returns
    (slot_to_big, images of v), slot_to_big keyed in slot order.
    """
    marked = [slot for slot in (1, 2, 3) if slot not in images[:3]]
    bigs = sorted(t for t in images[:3] if t > 3)
    swap = dict(zip(marked, bigs)) | dict(zip(bigs, marked))
    # tau is an involution, so tau^-1 sigma == tau sigma
    return dict(zip(marked, bigs)), [swap.get(t, t) for t in images]


def g_sigma_closed(lam: LambdaTuple, sigma: Permutation) -> tuple[complex, ...]:
    """The action via the closed forms: the block part's coordinate
    shuffle and anharmonic map, then the coset part's map h_L.

    Each displaced slot's coordinate is h_L at the value that slot pinned,
    taken in homogeneous coordinates so that infinity needs no division.
    """
    _check_size(lam, sigma)
    slot_to_big, v = _coset_split(sigma.images)
    h = _ANHARMONIC_BY_SLOT_PERM[tuple(v[:3])]
    mu = np.empty(lam.n - 3, dtype=complex)
    mu[np.array(v[3:], dtype=np.intp) - 4] = lam.values  # slot v(i) gets l_{i-3}
    mu = (h.a * mu + h.b) / (h.c * mu + h.d)
    a, b, c, d = _COSET_MAPS[tuple(slot_to_big)](
        {slot: mu[big - 4] for slot, big in slot_to_big.items()})
    z, w = a * mu + b, c * mu + d
    for slot, big in slot_to_big.items():
        p, q = _PINNED[slot]
        z[big - 4], w[big - 4] = a * p + b * q, c * p + d * q
    return tuple((z / w).tolist())


def g_sigma(lam: LambdaTuple, sigma: Permutation,
            tol: float | None = None) -> LambdaTuple:
    """Evaluate the action of sigma on a K_n point, both ways, and fail
    loudly if the definitional and closed-form paths disagree."""
    tol = lam.tol if tol is None else tol
    by_def = g_sigma_definitional(lam, sigma)
    by_form = g_sigma_closed(lam, sigma)
    dev = tuple_deviation(by_def, by_form)
    if not dev <= 10.0 * tol:  # nan too
        raise ClosedFormMismatch(
            f"closed form and definition disagree by {dev} for sigma = {sigma}")
    return LambdaTuple(by_def, tol=lam.tol)


def random_lambda(n: int, rng: np.random.Generator,
                  margin: float = 0.05) -> LambdaTuple:
    """A generic K_n point with coordinates comfortably separated."""
    while True:
        values = [complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0))
                  for _ in range(n - 3)]
        ok = all(abs(v) > margin and abs(v - 1.0) > margin for v in values)
        ok = ok and all(abs(a - b) > margin
                        for i, a in enumerate(values) for b in values[i + 1:])
        if ok:
            return LambdaTuple(tuple(values))


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

    For each trial, draws random sigma, pi and a random configuration and
    compares g_pi(g_sigma(lam)) with g_{pi sigma}(lam).  Faithfulness is
    checked exhaustively for n <= 6 and on samples above.
    """
    if n < 4:
        raise ValueError("the action needs n >= 4")
    rng = np.random.default_rng(rng_seed)
    max_dev = 0.0
    for _ in range(trials):
        lam = random_lambda(n, rng)
        sigma = random_permutation(n, rng)
        pi = random_permutation(n, rng)
        two_step = g_sigma(g_sigma(lam, sigma), pi)
        one_step = g_sigma(lam, pi.compose(sigma))
        max_dev = max(max_dev, tuple_deviation(two_step.values, one_step.values))

    moved = total = 0
    if n >= 5:
        lam = random_lambda(n, rng)
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


#: How far (chordal, as a multiple of tol) the image of a marked point may
#: lie from a coordinate and still be proposed for that coordinate's slot.
#: It only has to cover rounding: the closed-form test at tol decides.
_SLOT_SLACK = 1e3


@functools.lru_cache(maxsize=8)
def _ordered_triples(n: int) -> np.ndarray:
    """All ordered triples of distinct indices 0..n-1, lexicographic, (T, 3)."""
    return np.array(list(itertools.permutations(range(n), 3)), dtype=np.intp)


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
    map sends to l_{s-3}.  All n(n-1)(n-2) triples are mapped at once;
    slot by slot, a triple survives only if some point outside it lands
    within the slack of that slot's coordinate.
    """
    n = lam.n
    z, w, _ = lam.arrays()
    tri = _ordered_triples(n)
    i, j, k = tri.T
    a, b, c, d = (e[:, None] for e in
                  zero_one_inf_entries(z[i], w[i], z[j], w[j], z[k], w[k]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        image = (a * z + b * w) / (c * z + d * w)
        rows = np.arange(len(tri))
        for col in (i, j, k):  # the triple itself goes to 0, 1, inf
            image[rows, col] = np.nan
        # chordal |q - l| = 2 |q - l| / (sqrt(1 + |q|^2) sqrt(1 + |l|^2))
        room = (0.5 * _SLOT_SLACK * lam.tol) * np.sqrt(1.0 + abs(image) ** 2)
        masks = []
        for value in lam.values:
            near = abs(image - value) <= room * math.sqrt(1.0 + abs(value) ** 2)
            alive = near.any(axis=1)
            tri, image, room = tri[alive], image[alive], room[alive]
            masks = [m[alive] for m in masks] + [near[alive]]
    for r, triple in enumerate(tri.tolist()):
        slots = [np.flatnonzero(m[r]).tolist() for m in masks]
        for chosen in _bijections(slots):
            images = [0] * n
            for slot, t in enumerate(triple + list(chosen), start=1):
                images[t] = slot
            yield Permutation(tuple(images))


def stabilizer_G_lambda(lam: LambdaTuple, method: str = "auto",
                        enumeration_bound: int = 8) -> list[Permutation]:
    """The permutations whose action fixes the given K_n point, sorted by
    their images.

    ``method`` is "direct" (a triple search: map the marked points by each
    of the n(n-1)(n-2) ordered triples that f_sigma could send to 0, 1 and
    inf, propose the sigma whose slots those images fill, and keep those
    whose closed-form action fixes the point within tol; cost
    n(n-1)(n-2) * n numpy work plus one closed-form test per proposal,
    guarded by ``enumeration_bound``), "oracle" (compute the Mobius
    stabilizer of the underlying point set and pull each element back to
    the permutation it induces on the marked points), or "auto".
    """
    n = lam.n
    if method == "auto":
        method = "direct" if n <= enumeration_bound else "oracle"
    if method == "direct":
        if n > enumeration_bound:
            raise EnumerationBoundExceeded(
                f"direct enumeration of S_{n} exceeds the bound "
                f"{enumeration_bound}")
        kept = [sigma for sigma in _triple_search(lam)
                if tuple_deviation(g_sigma_closed(lam, sigma), lam.values)
                <= lam.tol]
        return sorted(kept, key=lambda s: s.images)
    if method != "oracle":
        raise ValueError(f"unknown method {method!r}")
    ps = lam.point_set()
    result = stabilizer(ps)
    kept = []
    for f in result.elements:
        images = []
        for p in ps.points:
            j = ps.index_of(f.apply(p))
            if j < 0:
                raise RuntimeError("stabilizer element does not permute the "
                                   "marked points; tolerance failure")
            images.append(j + 1)
        kept.append(Permutation(tuple(images)))
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


def phi_check(lam: LambdaTuple) -> PhiReport:
    """Verify bijectivity and the homomorphism property of sigma -> f_sigma
    between the two stabilizers of a configuration; maps are compared at
    the configuration's tol."""
    from .geometry import set_equal
    n = lam.n
    G = stabilizer_G_lambda(lam)
    ps = lam.point_set()
    A = stabilizer(ps)
    maps = {sigma.images: f_sigma(lam, sigma) for sigma in G}

    stabilized = sum(
        1 for f in maps.values() if set_equal(ps.apply_map(f), ps))
    hom_pairs = hom_ok = 0
    for sigma in G:
        for pi in G:
            hom_pairs += 1
            lhs = maps[pi.images].compose(maps[sigma.images])
            rhs = f_sigma(lam, pi.compose(sigma))
            if maps_equal(lhs, rhs, tol=lam.tol):
                hom_ok += 1
    onto = all(
        any(maps_equal(f, g, tol=lam.tol) for g in A.elements)
        for f in maps.values())
    return PhiReport(n=n, order_G=len(G), order_A=A.order,
                     stabilized=stabilized, hom_pairs=hom_pairs,
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


def preset_lambda(name: str) -> LambdaTuple:
    """Named example configurations: 'generic' (trivial stabilizer),
    'd5' (the regular pentagon; stabilizer of order 10) and 'z2' (the
    five-point antipodal configuration; stabilizer of order 2)."""
    if name == "generic":
        return LambdaTuple((2.0 + 1.0j, 5.0))
    if name == "d5":
        roots = [cmath.exp(2j * math.pi * k / 5.0) for k in range(5)]
        return _normalize_to_lambda(roots)
    if name == "z2":
        return _normalize_to_lambda([0.0, 1.0, 2.0, -1.0, -2.0])
    raise ValueError(f"unknown preset {name!r} (try generic, d5, z2)")

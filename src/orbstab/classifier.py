"""Arithmetic classification of the possible Mobius stabilizers of an
n-point subset of the extended complex plane.

Given only the cardinality n, ``classify`` enumerates every group that can
occur as the stabilizer of some n-point set, each tagged with its component
index: the tuple counting how many orbits of each size class the set
decomposes into under that group.  Every finite group kind is one row of
the kind table ``_KINDS``; an entry is pure integer arithmetic over its
orbit-size identity (e.g. an icosahedral-invariant set has
n = 12*v + 20*m + 30*e + 60*k), so the enumeration is exact and
deterministic.  A rotation order p occurs only if it divides n, n - 1 or
n - 2, because the points off the rotation axis fall into orbits of size
p or 2p, so ``classify`` costs O(sqrt(n)).

Both directions read one table, ``_CHOICES``: every choice of special
(non-generic) orbit counts of each kind.  ``classify`` solves each choice
for the generic count at its n.  ``cardinality_set`` runs the other way:
a choice with special sum s occurs at n = s + |G| k for every realizable
k, a ``range`` of step |G| from the first k at which every index is
realizable, plus the few smaller k that ``realizable`` admits.  So it
costs O(choices * N / |G|) and solves nothing per n.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from math import inf, isqrt
from operator import mul

from .errors import InvalidCardinality

# Group kinds.  Dihedral and cyclic carry a parameter p.  The order-4
# dihedral group (p = 2) is the Klein four-group K4, a kind of its own
# because its three 2-point orbit families collapse into one slot; the
# order-2 cyclic group is the cyclic kind at p = 2.
A5 = "A5"
S4 = "S4"
A4 = "A4"
DIHEDRAL = "D"
K4 = "K4"
CYCLIC = "Z"
TRIVIAL = "trivial"
INFINITE = "infinity"


@dataclass(frozen=True)
class _Kind:
    """One finite group kind of the table.

    ``name`` is the JSON group name, and also the display name, followed
    by ``_p`` for kinds that take a rotation order p >= ``min_p``.
    ``sizes(p)`` is the orbit size of each index slot, generic orbit last;
    the generic orbit size is the group order.  ``top`` is the largest
    count of each special (non-generic) slot.  A non-empty index with at
    least ``min_generic`` generic orbits is realizable; below that, only
    the indices in ``small`` are, and not at the p values they map to.
    Every other index forces a strictly larger stabilizer.
    """

    name: str
    sizes: Callable[[int | None], tuple[int, ...]]
    top: tuple[int, ...]
    min_generic: int
    small: dict[tuple[int, ...], tuple[int, ...]]
    min_p: int | None = None


_KINDS = {
    A5: _Kind("A_5", lambda p: (12, 20, 30, 60), (1, 1, 1), 0, {}),
    S4: _Kind("S_4", lambda p: (6, 8, 12, 24), (1, 1, 1), 0, {}),
    # slot 0 holds up to two tetrahedra; with no generic orbit, both
    # tetrahedra (the cube) or the edge orbit without a tetrahedron (the
    # octahedron) make the set S4-invariant
    A4: _Kind("A_4", lambda p: (4, 6, 12), (2, 1), 1,
              {(1, 0, 0): (), (1, 1, 0): ()}),
    # (poles, one or both root families, generic): with no generic orbit,
    # both root families are D_2p-invariant, the poles alone have an
    # infinite stabilizer and the poles plus the square are the octahedron
    DIHEDRAL: _Kind("D", lambda p: (2, p, 2 * p), (1, 2), 1,
                    {(0, 1, 0): (), (1, 1, 0): (4,)}, min_p=3),
    # the pole pair and the two root pairs all have size 2
    K4: _Kind("K_4", lambda p: (2, 4), (3,), 1, {}),
    # fewer than three rotation orbits admit an inverting symmetry unless
    # exactly one fixed point is taken; 0 with the p-th roots of unity is
    # a triangle (D_3) at p = 2 and a tetrahedron (A_4) at p = 3
    CYCLIC: _Kind("Z", lambda p: (1, p), (2,), 3,
                  {(1, 1): (2, 3), (1, 2): ()}, min_p=2),
}

#: Every choice of special-orbit counts of each finite kind, within its
#: ``top`` bounds, in lexicographic order: at most 8 per kind.
_CHOICES = {kind: tuple(product(*(range(most + 1) for most in row.top)))
            for kind, row in _KINDS.items()}

#: The kinds whose entries carry no component index, with the
#: cardinalities at which they occur, as the bounds (low, high) of n.
_BARE = {TRIVIAL: (5, inf), INFINITE: (1, 2)}

#: JSON group name of every kind; the bare kinds are named by themselves.
_NAMES = {**{kind: row.name for kind, row in _KINDS.items()},
          **{kind: kind for kind in _BARE}}
_BY_NAME = {name: kind for kind, name in _NAMES.items()}


@dataclass(frozen=True)
class GroupLabel:
    """One of the finite (or infinite) Mobius group types.

    ``p`` is the rotation order for dihedral (p >= 3) and cyclic (p >= 2)
    labels and None otherwise; ``dihedral(2)`` is the K4 label.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in _NAMES:
            raise ValueError(f"unknown group kind {self.kind!r}")
        min_p = _KINDS[self.kind].min_p if self.kind in _KINDS else None
        if min_p is None:
            if self.p is not None:
                raise ValueError(f"{self.kind} label carries no parameter")
        elif self.p is None or self.p < min_p:
            raise ValueError(f"{self.kind} label needs parameter p >= {min_p}")

    @classmethod
    def _certified(cls, kind: str, p: int) -> "GroupLabel":
        """The label of a kind that takes a parameter and a Python int p
        that the caller has bounded by its ``min_p``; checks nothing."""
        label = object.__new__(cls)
        object.__setattr__(label, "kind", kind)
        object.__setattr__(label, "p", p)
        return label

    @property
    def order(self) -> int:
        """Order of the abstract group: the size of its generic orbit."""
        if self.kind == INFINITE:
            raise ValueError("the infinite stabilizer has no finite order")
        return self.orbit_sizes()[-1] if self.kind in _KINDS else 1

    def orbit_sizes(self) -> tuple[int, ...]:
        """Orbit size per index slot, generic orbit last."""
        return _KINDS[self.kind].sizes(self.p)

    def __str__(self) -> str:
        name = _NAMES[self.kind]
        return name if self.p is None else f"{name}_{self.p}"


LABEL_A5 = GroupLabel(A5)
LABEL_S4 = GroupLabel(S4)
LABEL_A4 = GroupLabel(A4)
LABEL_K4 = GroupLabel(K4)
LABEL_Z2 = GroupLabel(CYCLIC, 2)
LABEL_TRIVIAL = GroupLabel(TRIVIAL)
LABEL_INFINITE = GroupLabel(INFINITE)


def dihedral(p: int) -> GroupLabel:
    """Dihedral label of rotation order p; K4 when p == 2."""
    return LABEL_K4 if p == 2 else GroupLabel(DIHEDRAL, p)


def cyclic(p: int) -> GroupLabel:
    """Cyclic label of order p >= 2."""
    return GroupLabel(CYCLIC, p)


@dataclass(frozen=True)
class ClassificationEntry:
    """A (group, component index) pair as emitted by the classifier."""

    label: GroupLabel
    index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))
        validate_index(self.label, self.index)

    @classmethod
    def _certified(cls, label: GroupLabel,
                   index: tuple[int, ...]) -> "ClassificationEntry":
        """The entry of a label and an index of Python ints that the caller
        has bounded by the label's slots; checks nothing."""
        entry = object.__new__(cls)
        object.__setattr__(entry, "label", label)
        object.__setattr__(entry, "index", index)
        return entry

    def to_line(self) -> str:
        if self.label.kind == TRIVIAL:
            return "(0)"
        if self.label.kind == INFINITE:
            return "infinity"
        inner = ", ".join(str(i) for i in self.index)
        return f"{self.label}, ({inner})"

    def to_json(self) -> dict:
        out: dict = {"group": _NAMES[self.label.kind]}
        if self.label.p is not None:
            out["p"] = self.label.p
        out["index"] = list(self.index)
        return out

    def __str__(self) -> str:
        return self.to_line()


def validate_index(label: GroupLabel, index: tuple[int, ...]) -> None:
    """Check the slot-range constraints of a component index."""
    if label.kind in _BARE:
        if index != ():
            raise ValueError(f"{label.kind} entries carry an empty index")
        return
    top = _KINDS[label.kind].top
    if len(index) != len(top) + 1:
        raise ValueError(f"{label} index must have {len(top) + 1} slots, "
                         f"got {index}")
    for slot, (count, most) in enumerate(zip(index, top)):
        if not 0 <= count <= most:
            raise ValueError(f"{label} index slot {slot} out of range: {index}")
    if index[-1] < 0:
        raise ValueError(f"{label} generic-orbit count is negative: {index}")


def realizable(label: GroupLabel, index: tuple[int, ...]) -> bool:
    """Whether some point set has exactly this finite stabilizer and
    component index (within the slot bounds), rather than a strictly
    larger stabilizer."""
    row = _KINDS[label.kind]
    if index[-1] >= row.min_generic:
        return any(index)
    excluded_p = row.small.get(tuple(index))
    return excluded_p is not None and label.p not in excluded_p


def cardinality_of(entry: ClassificationEntry) -> int:
    """Number of points implied by an entry's orbit decomposition.

    Trivial and infinite entries impose no orbit-size identity, so they
    have no implied cardinality and raise ValueError.
    """
    if entry.label.kind in _BARE:
        raise ValueError(f"a bare {entry.label.kind} entry has no implied "
                         "cardinality; it only occurs attached to a query n")
    sizes = entry.label.orbit_sizes()
    return sum(s * c for s, c in zip(sizes, entry.index))


def _entries(label: GroupLabel, n: int) -> list[ClassificationEntry]:
    """The entries of classify(n) with the given label, special slots in
    lexicographic order: solve n = sum(size * count) for the generic count
    under each choice of special counts, and keep the realizable indices.
    Raises InvalidCardinality for n < 1."""
    if n < 1:
        raise InvalidCardinality(f"cardinality must be >= 1, got {n}")
    if label.kind in _BARE:
        low, high = _BARE[label.kind]
        return [ClassificationEntry(label, ())] if low <= n <= high else []
    *special, generic = label.orbit_sizes()
    out = []
    for counts in _CHOICES[label.kind]:
        k, r = divmod(n - sum(map(mul, special, counts)), generic)
        if r == 0 and k >= 0:
            index = (*counts, k)
            if realizable(label, index):
                out.append(ClassificationEntry._certified(label, index))
    return out


def _rotation_orders(n: int) -> list[int]:
    """The p >= 2 dividing n, n - 1 or n - 2, largest first."""
    out = set()
    for m in range(max(n - 2, 1), n + 1):
        low = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
        out.update(low, (m // d for d in low))
    return sorted((p for p in out if p >= 2), reverse=True)


def classify(n: int) -> list[ClassificationEntry]:
    """All possible (stabilizer group, component index) pairs at size n.

    Output order is fixed: infinity (present iff n <= 2), the polyhedral
    blocks (A5, S4, A4), dihedral labels with p running from n down to 3,
    K4, cyclic labels with p from n down to 2, and finally the trivial
    entry (present iff n >= 5).
    """
    ps = _rotation_orders(n)
    # every p is at least 2: D_2 is K4, and the other labels need no check
    labels = [LABEL_INFINITE, LABEL_A5, LABEL_S4, LABEL_A4,
              *(LABEL_K4 if p == 2 else GroupLabel._certified(DIHEDRAL, p) for p in ps),
              *(GroupLabel._certified(CYCLIC, p) for p in ps), LABEL_TRIVIAL]
    return [entry for label in labels for entry in _entries(label, n)]


def classify_lines(n: int) -> list[str]:
    """The classification as canonical text lines, one entry per line."""
    return [entry.to_line() for entry in classify(n)]


def cardinality_set(label: GroupLabel, n_max: int) -> set[int]:
    """All n <= n_max whose classification contains the given group.

    Each choice of special counts, with special sum s, occurs at
    n = s + |G| k for the realizable k: every k above ``min_generic``
    (k >= 1 there, so the index is not empty), and the k up to it that
    ``realizable`` admits.
    """
    if label.kind == INFINITE:
        raise ValueError("the infinite stabilizer has no cardinality set")
    if label.kind in _BARE:
        low, high = _BARE[label.kind]
        return set(range(low, min(high, n_max) + 1))
    *special, generic = label.orbit_sizes()
    least = _KINDS[label.kind].min_generic
    out: set[int] = set()
    for counts in _CHOICES[label.kind]:
        s = sum(map(mul, special, counts))
        out.update(range(s + generic * (least + 1), n_max + 1, generic))
        out.update(s + generic * k for k in range(least + 1)
                   if s + generic * k <= n_max and realizable(label, (*counts, k)))
    return out


def _label(name: str, p: int | None = None) -> GroupLabel:
    """The label with a JSON group name and parameter; D_2 is K4."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown group {name!r}")
    kind = _BY_NAME[name]
    return dihedral(p) if kind == DIHEDRAL else GroupLabel(kind, p)


def parse_entry(text: str) -> ClassificationEntry:
    """Parse an entry selector such as "Z_2,(1,2)", "D_7, (0, 1, 0)" or "(0)".

    A bare entry is read from its line, or from its JSON group name in any
    case, such as "trivial"."""
    s = text.strip()
    for kind in _BARE:
        entry = ClassificationEntry(GroupLabel(kind), ())
        if s == entry.to_line() or s.lower() == _NAMES[kind]:
            return entry
    head, sep, tail = s.partition(",")
    if not sep:
        raise ValueError(f"cannot parse entry {text!r}")
    token = head.strip()
    if token in _BY_NAME:
        label = _label(token)
    else:
        name, _, p = token.rpartition("_")
        label = _label(name, int(p))
    tail = tail.strip()
    if not (tail.startswith("(") and tail.endswith(")")):
        raise ValueError(f"cannot parse index in entry {text!r}")
    index = tuple(int(part) for part in tail[1:-1].split(",") if part.strip())
    return ClassificationEntry(label, index)

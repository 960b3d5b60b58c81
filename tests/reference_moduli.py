"""The two g_sigma paths in their earlier form: the reference that
``test_reference_moduli.py`` compares ``orbstab.moduli`` against.

``g_sigma_definitional`` inverts sigma in Python and gathers the pinned
triple and the other points separately.  ``g_sigma_closed`` splits sigma
into its coset and block parts with an O(n) Python pass, applies the
anharmonic map and then the coset map h_L as two array maps, and looks
both up as ``MobiusMap`` objects or closures.  ``g_sigma`` compares the
two with ``tuple_deviation`` on every call and finds f_sigma's triple a
second time for the separation bound.  ``g_sigma``'s output, its
``_separation_bound`` and every raised error must come out bit for bit
the same as the fast code's; the closed forms agree to rounding.
"""

from __future__ import annotations

import numpy as np

from orbstab.errors import ClosedFormMismatch
from orbstab.geometry import MobiusMap, normalized_entries, zero_one_inf_entries
from orbstab.moduli import (ANHARMONIC_GROUP, LambdaTuple, Permutation,
                            _image_separation, tuple_deviation)

_ANHARMONIC_BY_SLOT_PERM = dict(zip(
    [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (3, 1, 2), (2, 3, 1)],
    ANHARMONIC_GROUP))

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

_PINNED = {1: (0.0, 1.0), 2: (1.0, 1.0), 3: (1.0, 0.0)}


def _check_size(lam: LambdaTuple, sigma: Permutation):
    if sigma.n != lam.n:
        raise ValueError(f"sigma permutes {sigma.n} points, but the K_n "
                         f"point has n = {lam.n}")


def _preimages(lam: LambdaTuple, sigma: Permutation) -> np.ndarray:
    _check_size(lam, sigma)
    inv = [0] * lam.n
    for i, slot in enumerate(sigma.images):
        inv[slot - 1] = i
    return np.array(inv)


def _pinned_triple(lam: LambdaTuple, sigma: Permutation) -> list[int]:
    _check_size(lam, sigma)
    return [sigma.images.index(slot) for slot in (1, 2, 3)]


def _repinning_entries(lam: LambdaTuple, triple):
    z, w, _ = lam.arrays()
    (z1, z2, z3), (w1, w2, w3) = z[triple].tolist(), w[triple].tolist()
    return zero_one_inf_entries(z1, w1, z2, w2, z3, w3)


def g_sigma_definitional(lam: LambdaTuple, sigma: Permutation) -> np.ndarray:
    inv = _preimages(lam, sigma)
    a, b, c, d = normalized_entries(*_repinning_entries(lam, inv[:3]))
    z, w, _ = lam.arrays()
    z, w = z[inv[3:]], w[inv[3:]]
    z, w = a * z + b * w, c * z + d * w
    at_inf = np.abs(w) < 1e-14 * np.abs(z)
    if at_inf.any():
        raise ValueError(
            f"image coordinate for slot {4 + int(np.argmax(at_inf))} landed "
            "at infinity; the input left the domain of the action")
    return z / w


def _coset_split(images: tuple[int, ...]):
    marked = [slot for slot in (1, 2, 3) if slot not in images[:3]]
    bigs = sorted(t for t in images[:3] if t > 3)
    swap = dict(zip(marked, bigs)) | dict(zip(bigs, marked))
    return dict(zip(marked, bigs)), [swap.get(t, t) for t in images]


def g_sigma_closed(lam: LambdaTuple, sigma: Permutation) -> np.ndarray:
    _check_size(lam, sigma)
    slot_to_big, v = _coset_split(sigma.images)
    h = _ANHARMONIC_BY_SLOT_PERM[tuple(v[:3])]
    mu = np.empty(lam.n - 3, dtype=complex)
    mu[np.array(v[3:], dtype=np.intp) - 4] = lam._coords
    mu = (h.a * mu + h.b) / (h.c * mu + h.d)
    a, b, c, d = _COSET_MAPS[tuple(slot_to_big)](
        {slot: mu[big - 4] for slot, big in slot_to_big.items()})
    z, w = a * mu + b, c * mu + d
    for slot, big in slot_to_big.items():
        p, q = _PINNED[slot]
        z[big - 4], w[big - 4] = a * p + b * q, c * p + d * q
    return z / w


def f_sigma(lam: LambdaTuple, sigma: Permutation) -> MobiusMap:
    return MobiusMap(*_repinning_entries(lam, _pinned_triple(lam, sigma)))


def g_sigma(lam: LambdaTuple, sigma: Permutation,
            tol: float | None = None) -> LambdaTuple:
    tol = lam.tol if tol is None else tol
    by_def = g_sigma_definitional(lam, sigma)
    by_form = g_sigma_closed(lam, sigma)
    dev = tuple_deviation(by_def, by_form)
    if not dev <= 10.0 * tol:  # nan too
        raise ClosedFormMismatch(
            f"closed form and definition disagree by {dev} for sigma = {sigma}")
    bound = _image_separation(
        lam, _repinning_entries(lam, _pinned_triple(lam, sigma)))
    if bound > 2.0 * lam.tol:
        return LambdaTuple._certified(by_def, lam.tol, bound)
    return LambdaTuple(by_def.tolist(), tol=lam.tol)

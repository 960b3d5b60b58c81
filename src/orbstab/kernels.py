"""Hot kernel for the stabilizer scan.

The scan enumerates every ordered triple (i, j, k) of distinct points,
builds the Mobius map sending a fixed base triple there, and keeps the
candidates that permute the whole set within tolerance.  Candidates are
rejected as soon as one image point finds no partner, so non-symmetric
sets cost little more than one map application per triple.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """The scan implementation in use; there is one."""
    return "numpy"


def scan_stabilizer_triples(Z: np.ndarray, W: np.ndarray, nrm: np.ndarray,
                            M: tuple[complex, complex, complex, complex],
                            tol: float) -> np.ndarray:
    """The permutations of the point set induced by the scan's surviving maps.

    ``M`` is the matrix sending the base triple to (0, 1, inf); the
    candidate for (i, j, k) is the map taking the base triple to those
    three points.  Returns an (m, n) int64 array, one row per map: row[t]
    is the index of the image of point t, so the columns at the base
    triple hold the triple (i, j, k) of that map.
    """
    Z = np.ascontiguousarray(Z, dtype=np.complex128)
    W = np.ascontiguousarray(W, dtype=np.complex128)
    nrm = np.ascontiguousarray(nrm, dtype=np.float64)
    n = Z.shape[0]
    m00, m01, m10, m11 = M
    survivors = [np.empty((0, n), dtype=np.int64)]
    jj, kk = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    jj, kk = jj.ravel(), kk.ravel()
    for i in range(n):
        keep = (jj != i) & (kk != i) & (jj != kk)
        J, K = jj[keep], kk[keep]
        kap = Z[J] * W[K] - Z[K] * W[J]
        mu = Z[J] * W[i] - Z[i] * W[J]
        a00 = -mu * Z[K]
        a01 = kap * Z[i]
        a10 = -mu * W[K]
        a11 = kap * W[i]
        f00 = a00 * m00 + a01 * m10
        f01 = a00 * m01 + a01 * m11
        f10 = a10 * m00 + a11 * m10
        f11 = a10 * m01 + a11 * m11
        alive = np.arange(J.shape[0])
        matches = np.empty((J.shape[0], n), dtype=np.int64)
        for t in range(n):
            iz = f00[alive] * Z[t] + f01[alive] * W[t]
            iw = f10[alive] * Z[t] + f11[alive] * W[t]
            inrm = np.sqrt(np.abs(iz) ** 2 + np.abs(iw) ** 2)
            cross = np.abs(iz[:, None] * W[None, :] - Z[None, :] * iw[:, None])
            hit = cross * 2.0 <= tol * inrm[:, None] * nrm[None, :]
            ok = hit.any(axis=1)
            matches[alive, t] = np.where(ok, hit.argmax(axis=1), -1)
            alive = alive[ok]
            if alive.size == 0:
                break
        # indexing with an array copies the rows, so the table is freed
        rows = matches[alive]
        # bijectivity: the n matched targets must be a permutation
        bijective = (np.sort(rows, axis=1) == np.arange(n)).all(axis=1)
        survivors.append(rows[bijective])
    return np.concatenate(survivors)

import math

import numpy as np
import pytest

from orbstab import classifier as cl
from orbstab.geometry import PointSet, _matrix_to_zero_one_inf, mobius_through_triple
from orbstab.kernels import active_backend, scan_stabilizer_triples
from orbstab.oracle import _permutation_of, _pick_base_triple
from orbstab.witness import dihedral_witness, polyhedral_orbit, trivial_witness


def _scan_python(Z, W, nrm, m00, m01, m10, m11, tol, out, stamp):
    """Scalar reference loop for the scan: the triples (i, j, k) whose map
    sends every point to an unused partner, written into ``out``."""
    n = Z.shape[0]
    cnt = 0
    cand = 0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                cand += 1
                kap = Z[j] * W[k] - Z[k] * W[j]
                mu = Z[j] * W[i] - Z[i] * W[j]
                # adjugate of the matrix sending (P_i, P_j, P_k) -> (0, 1, inf),
                # composed with the base matrix: F sends the base triple to (i, j, k)
                a00 = -mu * Z[k]
                a01 = kap * Z[i]
                a10 = -mu * W[k]
                a11 = kap * W[i]
                f00 = a00 * m00 + a01 * m10
                f01 = a00 * m01 + a01 * m11
                f10 = a10 * m00 + a11 * m10
                f11 = a10 * m01 + a11 * m11
                ok = True
                for t in range(n):
                    iz = f00 * Z[t] + f01 * W[t]
                    iw = f10 * Z[t] + f11 * W[t]
                    inrm = math.sqrt(iz.real * iz.real + iz.imag * iz.imag
                                     + iw.real * iw.real + iw.imag * iw.imag)
                    if inrm < 1e-280:
                        ok = False
                        break
                    found = -1
                    for s in range(n):
                        if stamp[s] == cand:
                            continue
                        cr = iz * W[s] - Z[s] * iw
                        if 2.0 * abs(cr) <= tol * inrm * nrm[s]:
                            found = s
                            break
                    if found < 0:
                        ok = False
                        break
                    stamp[found] = cand
                if ok:
                    if cnt >= out.shape[0]:
                        return -cnt
                    out[cnt, 0] = i
                    out[cnt, 1] = j
                    out[cnt, 2] = k
                    cnt += 1
    return cnt


def scan_args(ps):
    z, w, nrm = ps.arrays()
    base = _pick_base_triple(ps)
    m = _matrix_to_zero_one_inf(*(ps.points[i] for i in base))
    return z, w, nrm, base, (m.a, m.b, m.c, m.d)


def run_reference(ps):
    z, w, nrm, _, m = scan_args(ps)
    out = np.empty((4096, 3), dtype=np.int64)
    stamp = np.zeros(ps.n, dtype=np.int64)
    cnt = _scan_python(z, w, nrm, *m, ps.tol, out, stamp)
    assert cnt >= 0
    return sorted(map(tuple, out[:cnt].tolist()))


def run_scan(ps):
    z, w, nrm, base, m = scan_args(ps)
    return list(base), scan_stabilizer_triples(z, w, nrm, m, ps.tol)


SHAPES = pytest.mark.parametrize("make", [
    lambda: PointSet.from_values([0, 1, float("inf")]),
    lambda: polyhedral_orbit(cl.S4, "V6"),
    lambda: polyhedral_orbit(cl.S4, "V8"),
    lambda: polyhedral_orbit(cl.A5, "V12"),
    lambda: dihedral_witness(5, (1, 0, 1)),
    lambda: trivial_witness(9),
], ids=["triple", "octahedron", "cube", "icosahedron", "d5-mixed", "asymmetric"])


@SHAPES
def test_base_columns_match_reference_triples(make):
    ps = make()
    base, rows = run_scan(ps)
    assert sorted(map(tuple, rows[:, base].tolist())) == run_reference(ps)


@SHAPES
def test_rows_are_the_permutations_of_their_maps(make):
    ps = make()
    base, rows = run_scan(ps)
    assert rows.dtype == np.int64 and rows.shape[1] == ps.n
    src = [ps.points[b] for b in base]
    for row in rows:
        assert sorted(row.tolist()) == list(range(ps.n))
        f = mobius_through_triple(src, [ps.points[t] for t in row[base]])
        assert row.tolist() == _permutation_of(ps, f).tolist()


def test_survivor_count_equals_group_order():
    _, rows = run_scan(polyhedral_orbit(cl.S4, "V8"))
    assert rows.shape == (24, 8)


def test_active_backend_reports():
    assert active_backend() == "numpy"

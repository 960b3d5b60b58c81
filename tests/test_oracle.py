import cmath
import contextlib
import importlib
import inspect
import io
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from orbstab import classifier as cl, cli, geometry, kernels, oracle
from orbstab.classifier import classify, cyclic, dihedral
from orbstab.errors import (AmbiguousMatching, DegenerateMap, OrbitSizeMismatch,
                            OrbstabError, UnrecognizedGroup)
from orbstab.geometry import (MobiusMap, PointSet, RiemannPoint, format_complex,
                              maps_equal, mobius_through_triple)
from orbstab.kernels import _mul, scan_stabilizer_triples
from orbstab.moduli import ANHARMONIC_GROUP
from orbstab.oracle import (_canonical_order, _check_closure, _check_finite_orders,
                            _check_nondegenerate, _component_index, _decide,
                            _label_of, _orbit_partition, base_triple_maps,
                            _pick_base_triple, _reach, _row_orders,
                            identify_group, projective_order, stabilizer)
from orbstab.witness import dihedral_witness, polyhedral_orbit, witness
from reference_oracle import component_index, distance_matrix, index_of


def values(*vs):
    return PointSet.from_values(vs)


INF = float("inf")


class TestStabilizerExamples:
    def test_zero_one_infinity_is_the_anharmonic_group(self):
        res = stabilizer(values(0, 1, INF))
        assert res.order == 6
        assert res.label == dihedral(3)
        assert res.index == (0, 1, 0)
        # element-by-element projective match against the six classical maps
        for f in res.elements:
            assert any(maps_equal(f, h, tol=1e-9) for h in ANHARMONIC_GROUP)
        for h in ANHARMONIC_GROUP:
            assert any(maps_equal(f, h, tol=1e-9) for f in res.elements)

    def test_square_plus_outlier_is_trivial(self):
        res = stabilizer(values(1, 1j, -1, -1j, 2))
        assert res.order == 1
        assert res.label == cl.LABEL_TRIVIAL
        assert res.index == ()
        assert maps_equal(res.elements[0], MobiusMap.identity())

    def test_symmetric_integers_are_z2(self):
        res = stabilizer(values(0, 1, -1, 2, -2))
        assert res.order == 2
        assert res.label == cl.LABEL_Z2
        assert res.index == (1, 2)
        flip = MobiusMap(-1.0, 0.0, 0.0, 1.0)
        assert any(maps_equal(f, flip, tol=1e-9) for f in res.elements)

    def test_icosahedron_vertices(self):
        res = stabilizer(polyhedral_orbit(cl.A5, "V12"))
        assert res.order == 60
        assert res.label == cl.LABEL_A5
        assert res.index == (1, 0, 0, 0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            stabilizer(values(0, 1))

    def test_too_few_points_is_a_named_error(self):
        for points in [(), (0,), (0, 1)]:
            with pytest.raises(OrbstabError, match="fewer than 3 points"):
                stabilizer(values(*points))

    def test_crowded_set_rejected_at_construction(self):
        with pytest.raises(AmbiguousMatching):
            PointSet.from_values([0, 1, 1 + 1e-12], tol=1e-8)


class TestBaseTripleIndependence:
    def test_same_elements_for_any_base(self):
        ps = values(0, INF, 1, -1, 1j, -1j)  # octahedron
        z, w, _ = ps.arrays()
        proposals = scan_stabilizer_triples(z, w, ps.tol)
        scans = []
        for base in ((0, 1, 2), (3, 4, 5), (5, 2, 0)):
            rows, maps = _decide(ps, base, proposals)
            assert len(rows) == 24
            scans.append({tuple(row): MobiusMap(*f) for row, f in
                          zip(rows.tolist(), maps.T.tolist())})
        reference = scans[0]
        for scan in scans[1:]:
            assert scan.keys() == reference.keys()
            for row, f in scan.items():
                assert maps_equal(f, reference[row], tol=1e-7)


class TestConjugationCovariance:
    def test_labels_and_indices_transport(self):
        rng = np.random.default_rng(101)
        sets = [
            values(*[cmath.exp(2j * math.pi * k / 5) for k in range(5)]),
            values(0, 1, -1, 2, -2),
            values(0, INF, 1, -1, 1j, -1j),
        ]
        for ps in sets:
            expected = stabilizer(ps)
            for _ in range(3):
                while True:
                    g = MobiusMap(*(complex(*rng.normal(size=2)) for _ in range(4)))
                    if abs(g.a * g.d - g.b * g.c) > 0.2:
                        break
                moved = PointSet([g.apply(p) for p in ps.points], tol=ps.tol)
                got = stabilizer(moved)
                assert got.label == expected.label
                assert got.index == expected.index


class TestClosureProperties:
    def test_elements_form_a_group(self):
        for ps in (values(0, 1, INF),
                   values(*[cmath.exp(2j * math.pi * k / 5) for k in range(5)], 0, INF)):
            res = stabilizer(ps)
            for f in res.elements:
                assert any(maps_equal(f.inverse(), g, tol=1e-7)
                           for g in res.elements)
                for g in res.elements:
                    h = f.compose(g)
                    assert any(maps_equal(h, e, tol=1e-7) for e in res.elements)

    def test_orbit_sizes_partition_the_set(self):
        ps = values(0, INF, *[cmath.exp(2j * math.pi * k / 5) for k in range(5)])
        res = stabilizer(ps)
        assert sorted(res.orbit_sizes()) == [2, 5]
        assert sum(res.orbit_sizes()) == ps.n

    def test_oracle_result_is_listed_by_classifier(self):
        rng = np.random.default_rng(55)
        for n in (5, 6, 7):
            listed = {(e.label, e.index) for e in classify(n)}
            for _ in range(10):
                xyz = rng.normal(size=(n, 3))
                xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
                ps = PointSet([RiemannPoint.from_sphere(*row) for row in xyz])
                res = stabilizer(ps)
                assert (res.label, res.index) in listed


class TestIdentifyGroup:
    def rotation_group(self, p):
        zeta = cmath.exp(2j * math.pi / p)
        return [MobiusMap(zeta ** k, 0, 0, 1) for k in range(p)]

    def dihedral_group(self, p):
        rot = self.rotation_group(p)
        return rot + [MobiusMap(0, z.a, 1, 0) for z in rot]

    def test_cyclic_vs_klein(self):
        assert identify_group(self.rotation_group(4)) == cyclic(4)
        klein = [MobiusMap(1, 0, 0, 1), MobiusMap(-1, 0, 0, 1),
                 MobiusMap(0, 1, 1, 0), MobiusMap(0, -1, 1, 0)]
        assert identify_group(klein) == cl.LABEL_K4

    def test_dihedral_vs_tetrahedral(self):
        assert identify_group(self.dihedral_group(6)) == dihedral(6)
        from orbstab.witness import polyhedral_group
        assert identify_group(polyhedral_group(cl.A4)) == cl.LABEL_A4
        assert identify_group(polyhedral_group(cl.S4)) == cl.LABEL_S4
        assert identify_group(polyhedral_group(cl.A5)) == cl.LABEL_A5

    def test_trivial_and_z2(self):
        assert identify_group([MobiusMap.identity()]) == cl.LABEL_TRIVIAL
        assert identify_group([MobiusMap.identity(),
                               MobiusMap(-1, 0, 0, 1)]) == cl.LABEL_Z2

    def test_large_cyclic(self):
        assert identify_group(self.rotation_group(97)) == cyclic(97)

    def test_garbage_signature_rejected(self):
        # three rotations that do not close into a group: (N, m) = (3, 4)
        bad = [MobiusMap.identity(), MobiusMap(1j, 0, 0, 1),
               MobiusMap(2j, 0, 0, 2)]
        with pytest.raises(UnrecognizedGroup):
            identify_group(bad)


class TestProjectiveOrder:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 12, 60, 97])
    def test_rotation_orders(self, p):
        rot = MobiusMap(cmath.exp(2j * math.pi / p), 0, 0, 1)
        assert projective_order(rot, cap=max(97, p)) == p

    def test_identity(self):
        assert projective_order(MobiusMap.identity(), cap=60) == 1

    def test_loxodromic_rejected(self):
        # the near-elliptic map's trace reads order 7; the power check refutes it
        for f in (MobiusMap(2.0, 0, 0, 1),
                  MobiusMap(cmath.exp(2j * math.pi * (1 / 7 + 1e-4)), 0, 0, 1)):
            with pytest.raises(UnrecognizedGroup):
                projective_order(f, cap=30)

    def test_cold_import_loads_no_fractions(self):
        # fractions (and the decimal module it loads) is imported on the
        # first projective_order call, not on every start of the package
        src = pathlib.Path(oracle.__file__).resolve().parents[1]
        code = ("import sys, orbstab; "
                "print(sorted(m for m in ('fractions', 'decimal') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "[]"


def test_the_package_offers_one_identification_path():
    import orbstab
    for name in ("component_index", "set_equal", "identify_group", "maps_equal"):
        assert name not in orbstab.__all__ and not hasattr(orbstab, name)
    assert "stabilizer" in orbstab.__all__


class TestComponentIndex:
    def test_roots_under_their_dihedral_group(self):
        p = 5
        ps = values(*[cmath.exp(2j * math.pi * k / p) for k in range(p)])
        res = stabilizer(ps)
        assert component_index(ps, res.elements, res.label) == (0, 1, 0)

    def test_poles_and_roots(self):
        ps = values(0, INF, *[cmath.exp(2j * math.pi * k / 5) for k in range(5)])
        res = stabilizer(ps)
        assert res.index == (1, 1, 0)

    def test_fixed_point_plus_pairs(self):
        ps = values(0, 1, -1, 2, -2)
        res = stabilizer(ps)
        assert res.index == (1, 2)

    def test_json_shape(self):
        res = stabilizer(values(0, 1, INF))
        data = res.to_json()
        assert data["order"] == 6
        assert data["label"] == "D" and data["p"] == 3
        assert data["index"] == [0, 1, 0]
        assert data["orbit_sizes"] == [3]
        assert len(data["elements"]) == 6
        assert all(len(row) == 4 for row in data["elements"])


def _orbit_partition_reference(perms, n):
    """Union-find over every row: the orbits in order of first index."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in perms:
        for i in range(n):
            a, b = find(i), find(int(row[i]))
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("n", [5, 12, 14, 16])
def test_orbit_partition_matches_union_find(n):
    for entry in classify(n):
        ps = witness(n, entry)
        res = stabilizer(ps)
        perms = np.array([[index_of(ps, f.apply(p)) for p in ps.points]
                          for f in res.elements])
        assert _orbit_partition(perms) == _orbit_partition_reference(perms, ps.n)


def scan(ps):
    """The base triple and the permutation rows that the oracle keeps of
    the kernel's proposals for ps."""
    base = _pick_base_triple(ps)
    z, w, _ = ps.arrays()
    return list(base), _decide(ps, base, scan_stabilizer_triples(z, w, ps.tol))[0]


def triple_maps(ps, base, rows):
    """Each row's map through the base triple, one scalar solve per row."""
    src = [ps.points[b] for b in base]
    return [mobius_through_triple(src, [ps.points[t] for t in row[base]],
                                  tol=ps.tol) for row in rows]


@pytest.fixture(scope="module")
def witness_rows():
    """(set, base, rows, scalar maps) for every classify(n) witness, n = 5..40."""
    out = []
    for n in range(5, 41):
        for entry in classify(n):
            ps = witness(n, entry)
            base, rows = scan(ps)
            out.append((ps, base, rows, triple_maps(ps, base, rows)))
    return out


def test_row_orders_are_the_projective_orders(witness_rows):
    for ps, base, rows, maps in witness_rows:
        cap = max(len(maps), 60)
        assert _row_orders(rows, base).tolist() == [
            projective_order(f, cap=cap, tol=ps.tol) for f in maps]


def test_elements_are_the_triple_maps_in_canonical_order(witness_rows):
    for ps, base, rows, maps in witness_rows:
        elements = stabilizer(ps).elements
        reference = [maps[i] for i in _canonical_order(entries_of(*maps))]
        assert len(elements) == len(reference)
        for f, g in zip(elements, reference):
            assert maps_equal(f, g, tol=1e-12)


def test_exact_closure_rejects_one_foreign_row():
    ps = dihedral_witness(40, (0, 0, 1))
    base, rows = scan(ps)
    assert rows.shape == (80, 80)
    orders = _row_orders(rows, base)
    _check_closure(rows, orders, base)
    # a rotation row with two points off the base triple swapped: it keeps
    # the row's base-triple images, so only the full-row comparison sees it
    r = int(np.flatnonzero(orders == 40)[0])
    u, v = [t for t in range(ps.n) if t not in base][:2]
    bad = rows.copy()
    bad[r, [u, v]] = bad[r, [v, u]]
    with pytest.raises(UnrecognizedGroup, match="not closed"):
        _check_closure(bad, _row_orders(bad, base), base)
    # a random permutation in place of the rotation
    bad[r] = np.random.default_rng(40).permutation(ps.n)
    with pytest.raises(UnrecognizedGroup):
        _check_closure(bad, _row_orders(bad, base), base)


def _reached_afresh(start, products, m):
    """The closure search before it continued: a breadth-first search from
    ``start`` along every product, run again after each generator."""
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


def test_continued_search_reaches_what_a_fresh_one_does():
    rng = np.random.default_rng(41)
    for m in (1, 2, 7, 60, 240):
        for _ in range(5):
            seen, queue, products = [False] * m, [0], []
            seen[0] = True
            for _ in range(4):
                # any map of the rows to themselves, not only a permutation
                products.append(rng.integers(0, m, size=m).tolist()
                                if rng.random() < 0.3 else
                                rng.permutation(m).tolist())
                _reach(seen, queue, products)
                assert seen == _reached_afresh(0, products, m)
                assert sorted(queue) == [g for g in range(m) if seen[g]]


def entries_of(*maps):
    """The (a, b, c, d) entry arrays of a list of maps."""
    return tuple(np.array([getattr(f, x) for f in maps]) for x in "abcd")


def _normalized(f):
    scale = np.maximum(np.maximum(abs(f[0]), abs(f[1])),
                       np.maximum(abs(f[2]), abs(f[3])))
    return tuple(e / scale for e in f)


def finite_orders_by_squaring(f, orders, tol):
    """The finite-order test before the closed form, one bool per map:
    f^k by binary exponentiation over every map at once, then
    ``MobiusMap.is_identity``'s test at 10 tol."""
    power = f = _normalized(f)
    k = np.asarray(orders) - 1
    while k.any():
        odd = (k & 1) == 1
        power = _normalized(tuple(np.where(odd, x, y)
                                  for x, y in zip(_mul(power, f), power)))
        f = _normalized(_mul(f, f))
        k = k >> 1
    a, b, c, d = power
    bound = 10.0 * tol * np.maximum(abs(a), abs(d))
    return (abs(b) <= bound) & (abs(c) <= bound) & (abs(a - d) <= bound)


def closed_form_accepts(f, order, tol=1e-8):
    try:
        _check_finite_orders(_check_nondegenerate(f), np.array([order]), tol)
    except UnrecognizedGroup:
        return False
    return True


ROT7 = MobiusMap(cmath.exp(2j * math.pi / 7), 0, 0, 1)
#: the loxodromic and near-elliptic maps of TestProjectiveOrder
NOT_OF_ORDER_7 = (MobiusMap(2.0, 0, 0, 1),
                  MobiusMap(cmath.exp(2j * math.pi * (1 / 7 + 1e-4)), 0, 0, 1))


def test_finite_order_check():
    _check_finite_orders(
        _check_nondegenerate(entries_of(MobiusMap.identity(), ROT7, ROT7.power(3))),
        np.array([1, 7, 7]), tol=1e-8)
    for f in NOT_OF_ORDER_7:
        with pytest.raises(UnrecognizedGroup):
            _check_finite_orders(_check_nondegenerate(entries_of(ROT7, f)),
                                 np.array([7, 7]), tol=1e-8)
        assert not finite_orders_by_squaring(entries_of(f), [7], 1e-8).any()


def test_finite_order_closed_form_agrees_with_squaring():
    """Rotations of order k up to 4036 (D_2018's), conjugated by a random
    map, and the same rotations nudged off their order."""
    rng = np.random.default_rng(9)
    accepted = 0
    for _ in range(600):
        k = int(rng.choice([2, 3, 4, 5, 7, 12, 30, 97, 1009, 2018, 4036]))
        j = next(j for j in rng.permutation(range(1, k + 1)).tolist()
                 if math.gcd(j, k) == 1)
        angle = 2.0 * math.pi * j / k
        nudge = rng.choice([0.0, 1e-4, 1e-9, 1e-12])
        scale = 1.0 + rng.choice([0.0, 1e-3, 1e-9, 1e-13])
        g = np.array([[complex(*rng.normal(size=2)) for _ in range(2)]
                      for _ in range(2)])
        f = g @ np.diag([scale * cmath.exp(1j * angle * (1.0 + nudge)), 1.0]) \
            @ np.linalg.inv(g)
        f = tuple(np.array([e]) for e in f.ravel())
        expected = bool(finite_orders_by_squaring(f, [k], 1e-8)[0])
        assert closed_form_accepts(f, k) == expected, (k, j, nudge, scale)
        accepted += expected
    assert 100 < accepted < 500


def test_finite_order_closed_form_agrees_on_every_witness(witness_rows):
    for ps, base, rows, maps in witness_rows:
        f = entries_of(*maps)
        orders = _row_orders(rows, base)
        moving = orders > 1
        assert finite_orders_by_squaring(
            tuple(e[moving] for e in f), orders[moving], ps.tol).all()
        _check_finite_orders(_check_nondegenerate(f), orders, ps.tol)


@pytest.mark.parametrize("f", [(1, 0, 0, 1), (-1, 0, 0, -1), (1j, 0, 0, 1j),
                               (cmath.exp(1e-12j), 0, 0, 1), (1, 1e-14, 0, 1),
                               (1, 1, 0, 1)],
                         ids=["I", "-I", "iI", "rotation near I",
                              "parabolic near I", "parabolic"])
def test_rows_near_plus_minus_identity_fail_without_warning(f):
    # a row of order 7 whose map is (near) a scalar or parabolic; the
    # squaring test accepts the exact scalars, the closed form must not
    assert not closed_form_accepts(tuple(np.array([complex(e)]) for e in f), 7)


def test_closure_needs_the_identity_row():
    rows = np.array([[1, 0, 3, 2, 4]])
    with pytest.raises(UnrecognizedGroup, match="did not recover the identity"):
        _check_closure(rows, np.array([2]), [0, 1, 2])


def test_orbit_sizes_must_fit_the_label():
    identity = list(range(5))
    swap = [0, 1, 2, 4, 3]
    # an orbit of size 1 under D_3, whose orbits have sizes 2, 3 or 6
    with pytest.raises(OrbitSizeMismatch, match="impossible"):
        _component_index(np.array([identity, swap]), dihedral(3))
    # three fixed points of Z_2, which fixes two points of the sphere
    with pytest.raises(OrbitSizeMismatch):
        _component_index(np.array([identity, swap]), cl.LABEL_Z2)
    flip = [1, 0, 2, 4, 3]
    assert _component_index(np.array([identity, flip]), cl.LABEL_Z2)[0] == (1, 2)


def test_orbits_must_cover_the_set(monkeypatch):
    index_of = oracle._component_index

    def losing_an_orbit(perms, label):
        index, orbits = index_of(perms, label)
        return index, orbits[1:]

    monkeypatch.setattr(oracle, "_component_index", losing_an_orbit)
    with pytest.raises(OrbitSizeMismatch, match="do not add up"):
        stabilizer(values(0, 1, -1, 2, -2))


def test_row_fixing_the_base_triple_must_be_the_identity():
    rows = np.array([[0, 1, 2, 3, 4, 5], [0, 1, 2, 4, 3, 5]])
    with pytest.raises(UnrecognizedGroup, match="fixes the base triple"):
        _row_orders(rows, [0, 1, 2])
    assert _row_orders(rows, [3, 1, 2]).tolist() == [1, 2]


def test_each_map_is_solved_once_per_call(monkeypatch):
    # the oracle solves the maps of the scan's proposals, distinct rows,
    # once per call, for the chordal test, and keeps the passing ones
    proposed, solved = [], []
    scan_original, solve_original = scan_stabilizer_triples, base_triple_maps

    def scan_counted(Z, W, tol):
        proposed.append(scan_original(Z, W, tol))
        return proposed[-1]

    def solve_counted(Z, W, base, rows):
        solved.append(rows)
        return solve_original(Z, W, base, rows)

    monkeypatch.setattr(oracle, "scan_stabilizer_triples", scan_counted)
    monkeypatch.setattr(oracle, "base_triple_maps", solve_counted)
    sets = [dihedral_witness(30, (0, 0, 1)), polyhedral_orbit(cl.A5, "V12"),
            PointSet.from_values([1, 1j, -1, -1j, 2])]
    for ps in sets:
        stabilizer(ps)
    assert len(proposed) == len(solved) == len(sets)
    for rows, proposals in zip(solved, proposed):
        assert rows is proposals
        assert len(np.unique(rows, axis=0)) == len(rows)


def test_the_kernel_proposes_and_the_oracle_decides():
    # the base triple, the map solve and the chordal test live in the oracle
    assert list(inspect.signature(kernels.scan_stabilizer_triples).parameters) == \
        ["Z", "W", "tol"]
    for name in ("base_triple_maps", "_passes_chordal_test"):
        assert not hasattr(kernels, name)
        assert callable(getattr(oracle, name))


def test_stabilizer_does_no_per_element_map_arithmetic(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "projective_order",
                        counted("projective_order", projective_order))
    monkeypatch.setattr(MobiusMap, "power", counted("power", MobiusMap.power))
    through = counted("mobius_through_triple", mobius_through_triple)
    monkeypatch.setattr(geometry, "mobius_through_triple", through)
    monkeypatch.setattr(oracle, "mobius_through_triple", through, raising=False)
    d30 = stabilizer(dihedral_witness(30, (0, 0, 1)))
    a5 = stabilizer(polyhedral_orbit(cl.A5, "V12"))
    assert (d30.label, a5.label) == (dihedral(30), cl.LABEL_A5)
    assert calls == []


def eager_result(ps):
    """The stabilizer's elements, orbits and JSON built eagerly, the way
    ``stabilizer()`` built them before its result kept arrays: the
    reference for the properties built on read."""
    base, rows = scan(ps)
    z, w, _ = ps.arrays()
    maps = base_triple_maps(z, w, base, rows)
    order = _canonical_order(maps) if len(rows) > 1 else [0]
    elements = tuple(MobiusMap(*e) for e in zip(*(x[order].tolist() for x in maps)))
    label = _label_of(len(rows), int(_row_orders(rows, base).max()))
    if label.kind == cl.TRIVIAL:
        orbits = tuple((p,) for p in ps.points)
    else:
        orbits = tuple(tuple(ps.points[i] for i in orbit)
                       for orbit in _orbit_partition(rows))
    index = component_index(ps, elements, label)
    entry = cl.ClassificationEntry(label, index).to_json()
    as_json = {"order": len(elements), "label": entry.pop("group"), **entry,
               "orbit_sizes": sorted((len(o) for o in orbits), reverse=True),
               "elements": [[format_complex(v) for v in (f.a, f.b, f.c, f.d)]
                            for f in elements]}
    return elements, orbits, as_json


def bits(values):
    """The bit patterns of complex numbers, so that -0.0 differs from 0.0."""
    return np.array(values, dtype=complex).view(np.int64).tolist()


def test_properties_built_on_read_equal_the_eager_construction(witness_rows):
    for ps, *_ in witness_rows:
        res = stabilizer(ps)
        assert "elements" not in vars(res) and "orbits" not in vars(res)
        elements, orbits, as_json = eager_result(ps)
        assert res.to_json() == as_json
        assert res.elements == elements
        assert bits([e for f in res.elements for e in (f.a, f.b, f.c, f.d)]) == \
            bits([e for f in elements for e in (f.a, f.b, f.c, f.d)])
        assert res.orbits == orbits
        assert bits([c for o in res.orbits for p in o for c in (p.z, p.w)]) == \
            bits([c for o in orbits for p in o for c in (p.z, p.w)])
        assert res.order == len(elements) == len(res.rows)
        again = stabilizer(ps)
        assert again == res and hash(again) == hash(res)


def test_result_arrays_are_read_only():
    res = stabilizer(dihedral_witness(5, (0, 0, 1)))
    for a in (*res.maps, res.rows):
        assert not a.flags.writeable
    assert res.rows.shape == (10, 10)
    assert sorted(len(o) for o in res.orbit_indices) == [10]


@pytest.mark.parametrize("entries", [(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0),
                                     (complex("nan"), 0.0, 0.0, 1.0)],
                         ids=["zero determinant", "zero matrix", "nan entry"])
@pytest.mark.parametrize("ps", [dihedral_witness(5, (0, 0, 1)),
                                PointSet.from_values([1, 1j, -1, -1j, 2])],
                         ids=["D_5", "trivial"])
def test_degenerate_maps_raise_at_call_time(monkeypatch, entries, ps):
    # the decision hands on the maps it solved for its chordal test;
    # replace them
    decide = oracle._decide

    def degenerate(ps, base, proposals):
        rows, _ = decide(ps, base, proposals)
        degenerate_maps = np.array(entries, dtype=complex)[:, None]
        return rows, np.repeat(degenerate_maps, len(rows), axis=1)

    monkeypatch.setattr(oracle, "_decide", degenerate)
    with pytest.raises(DegenerateMap):
        stabilizer(ps)


def test_nondegenerate_check_follows_the_mobius_map_rule():
    # largest entry 2, so the normalized determinant is d / 2 against 1e-12
    for d, ok in ((2e-12, True), (1.9e-12, False)):
        f = tuple(np.array([e]) for e in (2.0, 0.0, 0.0, d))
        for build in (lambda: _check_nondegenerate(f),
                      lambda: MobiusMap(2.0, 0.0, 0.0, d)):
            if ok:
                build()
            else:
                with pytest.raises(DegenerateMap):
                    build()


def test_verify_builds_no_objects_inside_the_oracle(monkeypatch):
    inside = []
    built = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if inside:
                built.append(name)
            return original(*args, **kwargs)
        return wrapper

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return stabilizer(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(MobiusMap, "__post_init__",
                        counted("MobiusMap", MobiusMap.__post_init__))
    monkeypatch.setattr(RiemannPoint, "__post_init__",
                        counted("RiemannPoint", RiemannPoint.__post_init__))
    monkeypatch.setattr(RiemannPoint, "_of_normalized", classmethod(counted(
        "RiemannPoint", RiemannPoint._of_normalized.__func__)))
    calls = []

    def oracle_call(*args, **kwargs):
        calls.append(1)
        return traced(*args, **kwargs)

    monkeypatch.setattr(cli, "stabilizer", oracle_call)
    monkeypatch.setattr(importlib.import_module("orbstab.witness"), "stabilizer",
                        oracle_call)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", "5", "12"]) == 0
    assert out.getvalue().endswith("PASS\n")
    assert len(calls) > 100
    assert built == []
    # the counters are live: reading a result's elements and orbits builds
    # maps and points
    inside.append(True)
    res = stabilizer(dihedral_witness(5, (0, 0, 1)))
    assert built == []
    assert res.elements and res.orbits
    assert set(built) == {"MobiusMap", "RiemannPoint"}


def dense_base_triple(ps):
    """The base triple before it was O(n): the farthest pair of the whole
    n x n distance matrix, then the point farthest from both."""
    d = distance_matrix(ps, ps)
    i, j = np.unravel_index(np.argmax(d), d.shape)
    rest = np.minimum(d[i], d[j])
    rest[[i, j]] = -1.0
    return int(i), int(j), int(np.argmax(rest))


def triple_separation(ps, triple):
    d = distance_matrix(ps, ps)
    i, j, k = triple
    return min(d[i, j], d[i, k], d[j, k])


def test_base_triple_is_nearly_as_separated_as_the_dense_choice(witness_rows):
    rng = np.random.default_rng(12)
    sets = [ps for ps, *_ in witness_rows]
    for _ in range(80):
        n = int(rng.integers(5, 81))
        xyz = rng.normal(size=(n, 3))
        xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
        sets.append(PointSet([RiemannPoint.from_sphere(*row) for row in xyz]))
    worst = 1.0
    for ps in sets:
        triple = _pick_base_triple(ps)
        assert len(set(triple)) == 3
        worst = min(worst, triple_separation(ps, triple)
                    / triple_separation(ps, dense_base_triple(ps)))
    assert worst >= 0.5

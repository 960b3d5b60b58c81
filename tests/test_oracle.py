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
from orbstab.classifier import classify, cyclic, dihedral, parse_entry
from orbstab.errors import (AmbiguousDecision, AmbiguousMatching, DegenerateMap,
                            OrbitSizeMismatch, OrbstabError, UnrecognizedGroup)
from orbstab.geometry import (MobiusMap, PointSet, RiemannPoint, format_complex,
                              maps_equal, mobius_through_triple)
from orbstab.kernels import _mul, scan_stabilizer_triples
from orbstab.moduli import ANHARMONIC_GROUP
from orbstab.oracle import (_canonical_order, _check_closure, _check_finite_orders,
                            _check_nondegenerate, _component_index, _decide,
                            _label_of, _orbit_partition, base_triple_maps,
                            _pick_base_triple, _row_orders,
                            identify_group, projective_order, stabilizer)
from orbstab.witness import dihedral_witness, polyhedral_orbit, trivial_witness, witness
import reference_oracle
from reference_oracle import component_index, distance_matrix, index_of
from test_kernels import forbidden, record_frames, record_third_point
from test_reference_paths import IDENTITY_MAP, sphere_set


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
        # the near-elliptic map's trace reads order 7; the power check refutes
        # it.  The parabolic z + 1 reads order 1, which that check would pass
        for f in (MobiusMap(2.0, 0, 0, 1),
                  MobiusMap(cmath.exp(2j * math.pi * (1 / 7 + 1e-4)), 0, 0, 1),
                  MobiusMap(1.0, 1.0, 0, 1)):
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
        _check_nondegenerate(entries_of(MobiusMap.identity(), ROT7,
                                        ROT7.compose(ROT7).compose(ROT7))),
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


def test_slot_sizes_are_distinct_within_every_label():
    # _component_index counts the orbits of each slot's size, which is the
    # index only when no two slots of a label share a size
    labels = [cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4, cl.LABEL_K4,
              *map(dihedral, range(3, 65)), *map(cyclic, range(2, 65))]
    for label in labels:
        sizes = label.orbit_sizes()
        assert len(set(sizes)) == len(sizes), label


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
    # the trivial set's scan proposes the identity alone: nothing to solve
    assert len(proposed) == len(sets) and len(solved) == len(sets) - 1
    assert proposed[-1].tolist() == [list(range(5))]
    for rows, proposals in zip(solved, proposed):
        assert rows is proposals
        assert len(np.unique(rows, axis=0)) == len(rows)


def test_the_kernel_proposes_and_the_oracle_decides():
    # the base triple, the map solve and the chordal test live in the oracle
    assert list(inspect.signature(kernels.scan_stabilizer_triples).parameters) == \
        ["Z", "W", "tol"]
    for name in ("base_triple_maps", "_misses"):
        assert not hasattr(kernels, name)
        assert callable(getattr(oracle, name))


def test_ambiguous_decision_states_both_margins():
    # the K_4 (1, 2) witness squeezed into a cap of radius 1e-5: two true
    # elements miss by more than tol, through rounding in the map solve
    points = witness(10, parse_entry("K_4,(1,2)")).points
    ps = PointSet.from_values([p.value() if p.w == 0 else 1e-5 * p.value() + 0.3
                               for p in points])
    with pytest.raises(AmbiguousDecision) as caught:
        stabilizer(ps)
    assert str(caught.value) == (
        "2 proposed element(s) fail the chordal test at tol but lie in the "
        "decision gap: smallest such miss 84.7 tol, largest kept miss "
        "1.55e-08 tol")


def test_stabilizer_does_no_per_element_map_arithmetic(monkeypatch):
    # the sets first: the polyhedral orbit closes its group by composing maps
    d30_set = dihedral_witness(30, (0, 0, 1))
    a5_set = polyhedral_orbit(cl.A5, "V12")
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "projective_order",
                        counted("projective_order", projective_order))
    monkeypatch.setattr(MobiusMap, "compose", counted("compose", MobiusMap.compose))
    through = counted("mobius_through_triple", mobius_through_triple)
    monkeypatch.setattr(geometry, "mobius_through_triple", through)
    monkeypatch.setattr(oracle, "mobius_through_triple", through, raising=False)
    d30, a5 = stabilizer(d30_set), stabilizer(a5_set)
    assert (d30.label, a5.label) == (dihedral(30), cl.LABEL_A5)
    assert calls == []


def eager_result(ps):
    """The stabilizer's elements, orbits and JSON built eagerly, the way
    ``stabilizer()`` built them before its result kept arrays: the
    reference for the properties built on read."""
    base, rows = scan(ps)
    z, w, _ = ps.arrays()
    if len(rows) > 1:
        maps = base_triple_maps(z, w, base, rows)
        order = _canonical_order(maps)
    else:  # the trivial group's element is exactly the identity
        maps, order = IDENTITY_MAP, [0]
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
                                PointSet.from_values([0, 1, -1, 2, -2])],
                         ids=["D_5", "Z_2"])
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


def counted_grids(monkeypatch) -> list:
    """Record each _Grid the scan builds."""
    grids = []

    class CountedGrid(kernels._Grid):
        def __init__(self, X, slack):
            grids.append(len(X))
            super().__init__(X, slack)

    monkeypatch.setattr(kernels, "_Grid", CountedGrid)
    return grids


def test_trivial_sets_skip_the_decision_and_mostly_the_grid(monkeypatch):
    # the third point, checked at the window of true symmetries, leaves only
    # the anchor's own pair, so the scan builds no grid; a lone identity row
    # needs no base triple, solve or decision
    grids = counted_grids(monkeypatch)
    for step in ("_pick_base_triple", "base_triple_maps", "_decide"):
        monkeypatch.setattr(oracle, step, forbidden(step))
    rng = np.random.default_rng(26)
    sets = [(f"trivial n={n}", trivial_witness(n)) for n in range(5, 81)]
    sets += [(f"sphere n={n}", sphere_set(rng.normal(size=(n, 3)))) for n in range(12, 81)]
    for name, ps in sets:
        res = stabilizer(ps)
        assert res.order == 1 and res.label == cl.LABEL_TRIVIAL, name
        assert res.maps.tobytes() == IDENTITY_MAP.tobytes(), name
        assert res.orbit_indices == tuple((i,) for i in range(ps.n)), name
    # at n = 8 the anchor's mirror candidate sends the third point within
    # the slack of another point, but not within the window
    assert grids == []


def anchor_partner_third(monkeypatch, ps) -> set:
    """The points that the scan of ps takes as its anchor a, partner b and
    third point c.  The third-point check reads the cloud in the frame of
    (a, b): a is the point on its first axis, c the point farthest from its
    plane, and b the partner image of each candidate pair from a whose
    frame gives those coordinates.  Undoes every monkeypatch."""
    pairs, checks = record_frames(monkeypatch), record_third_point(monkeypatch)
    z, w, _ = ps.arrays()
    scan_stabilizer_triples(z, w, ps.tol)
    monkeypatch.undo()
    C = kernels._center(z, w)[0].T
    (starts, stops), coords = pairs[0], checks[0][1]
    a = int(coords[0].argmax())
    found = {a, int(np.abs(coords[2]).argmax())}
    for start, stop in zip(starts, stops):
        axes = kernels._frame(start, stop)[:, :, None]
        if (start == C[:, a]).all() and np.array_equal(
                axes[:, 0] * C[0] + axes[:, 1] * C[1] + axes[:, 2] * C[2], coords):
            found.add(int((C.T == stop).all(axis=1).argmax()))
    return found


def one_point_moved(monkeypatch, ps, rng, tols):
    """ps with the first point of its largest orbit that the scan of ps
    takes as none of its anchor, partner and third point moved chordally
    by ``tols`` times tol in a random direction."""
    taken = anchor_partner_third(monkeypatch, ps)
    t = next(t for t in max(stabilizer(ps).orbit_indices, key=len) if t not in taken)
    x = np.array(ps.points[t].to_sphere())
    step = rng.normal(size=3)
    step -= (step @ x) * x
    x += tols * ps.tol * step / np.linalg.norm(step)
    points = list(ps.points)
    points[t] = RiemannPoint.from_sphere(*(x / np.linalg.norm(x)))
    return PointSet(points, tol=ps.tol)


def test_a_decision_keeping_the_identity_alone_skips_the_checks(monkeypatch):
    # polyhedral and D_13 witnesses with one point moved, none of the scan's
    # anchor, partner and third point.  Moved by 8 tol, inside the window of
    # the distance screens: the true symmetries' frames still land the third
    # point, so matching proposes rows that the decision rejects, and the
    # identity it keeps is the trivial result.  Moved by 50 tol, one set
    # ends at the screens instead, and every set still reads as trivial.
    for tols, proposing in ((8.0, 17), (50.0, 16)):
        rng = np.random.default_rng(27)
        moved = [(f"{entry} n={n}", one_point_moved(monkeypatch, witness(n, entry), rng, tols))
                 for n in range(8, 25) for entry in classify(n)
                 if entry.label.kind in (cl.S4, cl.A4, cl.A5) or entry.label == dihedral(13)]
        assert len(moved) == 17
        monkeypatch.setattr(oracle, "_row_orders", forbidden("_row_orders"))
        proposals = []
        for name, ps in moved:
            z, w, _ = ps.arrays()
            proposals.append(len(scan_stabilizer_triples(z, w, ps.tol)))
            res = stabilizer(ps)
            assert res.order == 1 and res.label == cl.LABEL_TRIVIAL, name
        assert sum(count > 1 for count in proposals) == proposing, tols
        monkeypatch.undo()


def test_candidates_past_the_first_block_match_as_before(monkeypatch):
    # D_130 on 260 points: at least 260 candidate pairs, in blocks of
    # _BLOCK // 260 = 252; the first block keeps frames other than the
    # anchor's own, so the third point checks that block only
    calls = record_third_point(monkeypatch)
    matched = []
    match = kernels._match

    def counted(grid, frames, coords):
        matched.append(len(frames))
        return match(grid, frames, coords)

    monkeypatch.setattr(kernels, "_match", counted)
    ps = dihedral_witness(130, (0, 0, 1))
    res = stabilizer(ps)
    (frames, *_, lands), = calls
    assert len(frames) == kernels._BLOCK // ps.n
    assert len(matched) >= 2 and matched[0] == lands.sum()
    assert len(frames) + sum(matched[1:]) >= ps.n
    want = reference_oracle.stabilizer(ps)
    assert (res.label, res.index, res.orbit_indices) == \
        (want.label, want.index, want.orbit_indices) == (dihedral(130), (0, 0, 1),
                                                         (tuple(range(260)),))
    assert res.rows.tolist() == want.rows.tolist()
    assert res.maps.tobytes() == np.array(want.maps).tobytes()


def jittered_dihedral(p, index, noise):
    """The D_p witness with the given index, its sphere coordinates moved by
    seeded normal noise of the given size and renormalized."""
    xyz = np.array([q.to_sphere() for q in dihedral_witness(p, index).points])
    return sphere_set(xyz + noise * np.random.default_rng(0).normal(size=xyz.shape))


def mirrored_set(m, seed):
    """m seeded random points and their complex conjugates: a mirror image
    shares its point's distances, so the anchor's mirror pair passes both
    distance screens, but no Mobius map keeps the set."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=m) + 1j * rng.normal(size=m)
    return PointSet.from_values(np.concatenate([values, values.conj()]))


@pytest.mark.parametrize("block", [kernels._BLOCK, 256])
def test_the_identity_exit_does_not_depend_on_the_block(monkeypatch, block):
    # near-symmetric sets, which end at the distance screens, and mirrored
    # sets, whose two frames span two blocks of 256 entries at n = 160: no
    # frame but the anchor's own lands in any of them
    monkeypatch.setattr(kernels, "_BLOCK", block)
    grids = counted_grids(monkeypatch)
    sets = [jittered_dihedral(p, index, 1e-3)
            for p, index in ((13, (0, 0, 1)), (20, (1, 1, 1)), (30, (0, 0, 2)))]
    for ps in sets + [mirrored_set(m, 0) for m in (10, 80)]:
        z, w, _ = ps.arrays()
        rows = scan_stabilizer_triples(z, w, ps.tol)
        assert rows.tolist() == [list(range(ps.n))], ps.n
    assert grids == []


def test_candidates_past_the_first_block_are_checked_before_the_grid(monkeypatch):
    # in blocks of one frame, the anchor's own pair and its mirror pair are
    # two blocks, and the third point lands in neither
    monkeypatch.setattr(kernels, "_BLOCK", 40)
    calls = record_third_point(monkeypatch)
    grids = counted_grids(monkeypatch)
    ps = mirrored_set(20, 0)
    z, w, _ = ps.arrays()
    assert scan_stabilizer_triples(z, w, ps.tol).tolist() == [list(range(ps.n))]
    assert [len(frames) for frames, *_ in calls] == [1, 1] and grids == []
    res = stabilizer(ps)
    assert res.order == 1 and res.label == cl.LABEL_TRIVIAL


def test_witness_results_do_not_depend_on_the_block(monkeypatch):
    for n in range(5, 31):
        for entry in classify(n):
            ps = witness(n, entry)
            want = stabilizer(ps)
            monkeypatch.setattr(kernels, "_BLOCK", 256)
            got = stabilizer(ps)
            monkeypatch.undo()
            assert (got.label, got.index) == (want.label, want.index), entry
            assert set(map(tuple, got.rows.tolist())) == \
                set(map(tuple, want.rows.tolist())), entry

import math

import numpy as np
import pytest

from orbstab.errors import (AmbiguousMatching, DegenerateMap,
                            NearDegenerateTriple)
from orbstab.geometry import (DEFAULT_TOL, MobiusMap, PointSet, RiemannPoint,
                              check_separation, chordal_distance,
                              format_complex,
                              homogeneous_arrays, maps_equal,
                              mobius_through_triple, parse_complex,
                              point_from_str, point_to_str,
                              snap_arrays)
from reference_oracle import apply_map, set_equal
from reference_witness import snap_point

INF = RiemannPoint.infinity()


def pt(v):
    return RiemannPoint.from_value(v)


def random_points(rng, count):
    xyz = rng.normal(size=(count, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    return [RiemannPoint.from_sphere(*row) for row in xyz]


def random_map(rng):
    while True:
        a, b, c, d = (complex(*rng.normal(size=2)) for _ in range(4))
        if abs(a * d - b * c) > 0.1:
            return MobiusMap(a, b, c, d)


class TestRiemannPoint:
    def test_rejects_zero_pair(self):
        with pytest.raises(ValueError):
            RiemannPoint(0.0, 0.0)

    def test_normalization_pins_larger_coordinate(self):
        rng = np.random.default_rng(7)
        for p in random_points(rng, 50):
            assert max(abs(p.z), abs(p.w)) == pytest.approx(1.0, abs=1e-14)

    def test_infinity_round_trip(self):
        assert INF.value() == complex("inf")
        assert pt(float("inf")).is_infinity()
        assert not pt(1e6).is_infinity()

    def test_sphere_embedding_round_trip(self):
        rng = np.random.default_rng(3)
        for p in random_points(rng, 40):
            q = RiemannPoint.from_sphere(*p.to_sphere())
            assert chordal_distance(p, q) < 1e-12


class TestChordalDistance:
    def test_antipodal_zero_infinity(self):
        assert chordal_distance(pt(0), INF) == pytest.approx(2.0)

    def test_identical(self):
        assert chordal_distance(pt(1), pt(1)) == 0.0

    def test_zero_one(self):
        assert chordal_distance(pt(0), pt(1)) == pytest.approx(math.sqrt(2.0))

    def test_agrees_with_sphere_embedding(self):
        # independent oracle: straight-line distance between sphere images
        rng = np.random.default_rng(11)
        pts = random_points(rng, 30)
        for p in pts:
            for q in pts:
                euclid = np.linalg.norm(np.subtract(p.to_sphere(), q.to_sphere()))
                assert chordal_distance(p, q) == pytest.approx(euclid, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 20)
        for p in pts:
            for q in pts:
                d = chordal_distance(p, q)
                assert 0.0 <= d <= 2.0 + 1e-15
                assert d == pytest.approx(chordal_distance(q, p), abs=1e-15)


class TestMobiusMap:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMap):
            MobiusMap(1.0, 2.0, 2.0, 4.0)

    def test_apply_pole(self):
        inv = MobiusMap(0.0, 1.0, 1.0, 0.0)  # 1/z
        assert inv.apply(pt(0)).is_infinity()

    def test_apply_one_minus_z(self):
        f = MobiusMap(-1.0, 1.0, 0.0, 1.0)
        assert chordal_distance(f.apply(pt(1)), pt(0)) < 1e-15

    def test_apply_cayley_like(self):
        f = MobiusMap(1.0, -1.0, 1.0, 1.0)  # (z-1)/(z+1)
        image = f.apply(pt(1j))
        assert abs(abs(image.value()) - 1.0) < 1e-15
        assert chordal_distance(image, pt((1j - 1) / (1j + 1))) < 1e-15

    def test_identity_application_is_exact(self):
        rng = np.random.default_rng(2)
        for p in random_points(rng, 10):
            q = MobiusMap.identity().apply(p)
            assert (q.z, q.w) == (p.z, p.w)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            f = random_map(rng)
            assert f.compose(f.inverse()).is_identity(1e-12)

    def test_composition_acts_functorially(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f, g = random_map(rng), random_map(rng)
            p = random_points(rng, 1)[0]
            lhs = f.compose(g).apply(p)
            rhs = f.apply(g.apply(p))
            assert chordal_distance(lhs, rhs) <= 10.0 * DEFAULT_TOL

    def test_power(self):
        rot = MobiusMap(1j, 0.0, 0.0, 1.0)
        assert rot.power(4).is_identity(1e-15)
        assert not rot.power(2).is_identity(1e-6)
        assert rot.power(-1).compose(rot).is_identity(1e-15)

    def test_fixed_points(self):
        rot = MobiusMap(1j, 0.0, 0.0, 1.0)
        fixed = rot.fixed_points()
        values = sorted((str(p) for p in fixed))
        assert set(values) == {"0.0+0.0i", "inf"}


class TestMobiusThroughTriple:
    def test_identity_triple(self):
        triple = (pt(0), pt(1), INF)
        assert mobius_through_triple(triple, triple).is_identity(1e-14)

    def test_lambda_normalization(self):
        lam = 0.25 + 0.5j
        f = mobius_through_triple((pt(lam), pt(1), INF), (pt(0), pt(1), INF))
        # expect z -> (z - lam)/(1 - lam)
        expected = MobiusMap(1.0, -lam, 0.0, 1.0 - lam)
        assert maps_equal(f, expected, tol=1e-12)

    def test_swap_zero_one(self):
        f = mobius_through_triple((pt(0), pt(1), INF), (pt(1), pt(0), INF))
        assert maps_equal(f, MobiusMap(-1.0, 1.0, 0.0, 1.0), tol=1e-12)

    def test_interpolation_property(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = random_points(rng, 6)
            if min(chordal_distance(a, b) for i, a in enumerate(pts)
                   for b in pts[i + 1:]) < 1e-3:
                continue
            f = mobius_through_triple(pts[:3], pts[3:])
            for src, dst in zip(pts[:3], pts[3:]):
                assert chordal_distance(f.apply(src), dst) <= DEFAULT_TOL

    def test_inverse_consistency(self):
        rng = np.random.default_rng(29)
        pts = random_points(rng, 6)
        fwd = mobius_through_triple(pts[:3], pts[3:])
        back = mobius_through_triple(pts[3:], pts[:3])
        assert fwd.compose(back).is_identity(1e-10)

    def test_degenerate_triple_rejected(self):
        with pytest.raises(NearDegenerateTriple):
            mobius_through_triple((pt(0), pt(1e-12), INF), (pt(0), pt(1), INF))


class TestPointSet:
    def test_separation_enforced(self):
        with pytest.raises(AmbiguousMatching):
            PointSet.from_values([0.0, 1e-12, 1.0])

    def test_min_separation_is_the_dense_minimum(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 17, 60):
            ps = PointSet(random_points(rng, n))
            dense = min(chordal_distance(p, q) for i, p in enumerate(ps.points)
                        for q in ps.points[i + 1:])
            assert ps.min_separation == pytest.approx(dense, rel=1e-12)
            with pytest.raises(AttributeError):
                ps.min_separation = 1.0
        pair = PointSet.from_values([0.0, 1.0, 1.0 + 3e-8])
        assert pair.min_separation / pair.tol == pytest.approx(3.0, rel=1e-6)

    def test_check_separation_below_two_points(self):
        for values in ([], [2.0]):
            assert check_separation(*homogeneous_arrays(values), 1.0) == math.inf
            assert PointSet.from_values(values).min_separation == math.inf

    def test_set_equal_order_independent(self):
        a = PointSet.from_values([0, 1, float("inf")])
        b = PointSet.from_values([float("inf"), 0, 1])
        assert set_equal(a, b)

    def test_set_equal_rotated_orbit(self):
        import cmath
        roots = [cmath.exp(2j * math.pi * k / 5) for k in range(5)]
        a = PointSet.from_values(roots)
        b = apply_map(a, MobiusMap(cmath.exp(2j * math.pi / 5), 0.0, 0.0, 1.0))
        assert set_equal(a, b)

    def test_set_equal_distinguishes(self):
        a = PointSet.from_values([0, 1, float("inf")])
        b = PointSet.from_values([0, 1, 2])
        assert not set_equal(a, b)
        assert not set_equal(a, PointSet.from_values([0, 1]))

    def test_set_equal_is_equivalence(self):
        rng = np.random.default_rng(31)
        base = random_points(rng, 8)
        a = PointSet(base)
        jitter = PointSet(
            (RiemannPoint(p.z + 1e-10, p.w) for p in base))
        c = PointSet(list(reversed(base)))
        assert set_equal(a, a)
        assert set_equal(a, jitter) and set_equal(jitter, a)
        assert set_equal(jitter, c) and set_equal(a, c)

    def test_json_round_trip(self):
        a = PointSet.from_values([0, 1, float("inf"), 2 + 3j])
        b = PointSet.from_json(a.to_json())
        assert set_equal(a, b)


class TestSerialization:
    @pytest.mark.parametrize("text,value", [
        ("2", 2 + 0j),
        ("2+1i", 2 + 1j),
        ("-0.5-0.25i", -0.5 - 0.25j),
        ("1i", 1j),
        ("-i", -1j),
        ("3e-2+1e-3i", 0.03 + 0.001j),
    ])
    def test_parse_complex(self, text, value):
        assert parse_complex(text) == value

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        for p in random_points(rng, 25) + [INF, pt(0)]:
            q = point_from_str(point_to_str(p))
            assert chordal_distance(p, q) < 1e-12

    def test_format(self):
        assert format_complex(2 + 1j) == "2.0+1.0i"
        assert point_to_str(INF) == "inf"


def test_snap_point():
    p = snap_point(RiemannPoint(1e-15 + 1j * 1e-16, 1.0))
    assert p.value() == 0.0
    q = snap_point(RiemannPoint(1.0, 1e-14))
    assert q.is_infinity()


def bits(values):
    """Bit patterns of complex numbers, so that -0.0 differs from 0.0."""
    return np.array(values, dtype=complex).view(np.int64).tolist()


def awkward_values(rng):
    """Complex values of every size, with signed zeros, ties |z| == 1,
    infinity and float dust near the axes."""
    values = list(rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, size=300)
                  + 1j * rng.normal(size=300))
    values += [np.exp(2j * np.pi * k / 7) for k in range(7)]
    values += [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               -1.0, 1j, -1j, 1.0 + 1e-17j, -3.0 - 1e-14j, 1e-13 + 2.0j,
               complex("inf"), float("inf"), 2, -7.5]
    return values


class TestArraysMatchPoints:
    """The array paths give the points' own coordinates, bit for bit."""

    def test_homogeneous_arrays_are_from_value(self):
        values = awkward_values(np.random.default_rng(1))
        z, w, nrm = homogeneous_arrays(values)
        points = [RiemannPoint.from_value(v) for v in values]
        assert bits(z) == bits([p.z for p in points])
        assert bits(w) == bits([p.w for p in points])
        np.testing.assert_allclose(nrm, [p.norm() for p in points], rtol=1e-15)

    def test_snap_arrays_are_snap_point(self):
        values = awkward_values(np.random.default_rng(2))
        z, w, _ = homogeneous_arrays(values)
        sz, sw, nrm = snap_arrays(z, w)
        points = [snap_point(RiemannPoint.from_value(v)) for v in values]
        assert bits(sz) == bits([p.z for p in points])
        assert bits(sw) == bits([p.w for p in points])
        assert sz[values.index(1.0 + 1e-17j)] == 1.0

    def test_from_values_equals_the_point_constructor(self):
        rng = np.random.default_rng(3)
        values = [complex(*xy) for xy in rng.normal(size=(40, 2)) * 3.0]
        values += [0.0, float("inf")]
        lazy = PointSet.from_values(values)
        eager = PointSet([RiemannPoint.from_value(v) for v in values])
        assert "points" not in vars(lazy)
        assert lazy.n == len(lazy) == 42
        for a, b in zip(lazy.arrays(), eager.arrays()):
            assert bits(a) == bits(b)
            assert not a.flags.writeable
        assert lazy.points == eager.points
        assert bits([c for p in lazy.points for c in (p.z, p.w)]) == \
            bits([c for p in eager.points for c in (p.z, p.w)])
        assert lazy.to_json() == eager.to_json()

    def test_from_arrays_checks_separation(self):
        z, w, nrm = homogeneous_arrays([0.0, 1.0, 1.0 + 1e-12])
        with pytest.raises(AmbiguousMatching):
            PointSet.from_arrays(z, w, nrm)

import cmath
import math

import numpy as np
import pytest

from orbstab.classifier import INFINITE, classify, dihedral
from orbstab.errors import EnumerationBoundExceeded
from orbstab.geometry import MobiusMap, chordal_distance, maps_equal, set_equal
from orbstab.moduli import (ANHARMONIC_GROUP, LambdaTuple, Permutation,
                            _normalize_to_lambda, _triple_search,
                            all_permutations, f_sigma, g_sigma,
                            g_sigma_closed, g_sigma_definitional, phi_check,
                            preset_lambda, random_lambda, random_permutation,
                            stabilizer_G_lambda, tuple_deviation,
                            verify_group_law)
from orbstab.oracle import identify_group, stabilizer
from orbstab.witness import witness


class TestPermutation:
    def test_compose_and_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_permutation(6, rng)
            q = random_permutation(6, rng)
            for i in range(1, 7):
                assert p.compose(q)(i) == p(q(i))
            assert p.compose(p.inverse()).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_transposition(self):
        t = Permutation.transposition(5, 1, 4)
        assert t(1) == 4 and t(4) == 1 and t(2) == 2


class TestLambdaTuple:
    def test_membership_enforced(self):
        with pytest.raises(ValueError):
            LambdaTuple((0.0, 2.0))
        with pytest.raises(ValueError):
            LambdaTuple((2.0, 2.0))
        with pytest.raises(ValueError):
            LambdaTuple((1.0 + 1e-12, 2.0))

    def test_marked_points(self):
        lam = LambdaTuple((2.0, 3.0))
        pts = lam.marked_points()
        assert [str(p) for p in pts[:3]] == ["0.0+0.0i", "1.0+0.0i", "inf"]
        assert lam.n == 5

    def test_json_round_trip(self):
        lam = LambdaTuple((2.0 + 1.0j, 5.0))
        again = LambdaTuple.from_json(lam.to_json())
        assert tuple_deviation(lam.values, again.values) < 1e-15


class TestFSigma:
    def test_identity(self):
        lam = LambdaTuple((2.0, 3.0))
        assert f_sigma(lam, Permutation.identity(5)).is_identity(1e-12)

    def test_first_slot_swap_normalizes_coordinate(self):
        lam = LambdaTuple((2.0, 3.0))
        f = f_sigma(lam, Permutation.transposition(5, 1, 4))
        lam1 = lam.values[0]
        expected = MobiusMap(1.0, -lam1, 0.0, 1.0 - lam1)
        assert maps_equal(f, expected, tol=1e-12)

    def test_swap_zero_one(self):
        lam = LambdaTuple((2.0, 3.0))
        f = f_sigma(lam, Permutation.transposition(5, 1, 2))
        assert maps_equal(f, MobiusMap(-1.0, 1.0, 0.0, 1.0), tol=1e-12)

    def test_marked_point_equivariance(self):
        # f_sigma sends the k-th marked point to slot sigma(k) of the image
        rng = np.random.default_rng(8)
        for n in (5, 6, 7):
            lam = random_lambda(n, rng)
            sigma = random_permutation(n, rng)
            f = f_sigma(lam, sigma)
            image = g_sigma(lam, sigma)
            src = lam.marked_points()
            dst = image.marked_points()
            for k in range(1, n + 1):
                assert chordal_distance(f.apply(src[k - 1]),
                                        dst[sigma(k) - 1]) < 1e-9

    def test_set_level_equivariance(self):
        rng = np.random.default_rng(9)
        lam = random_lambda(6, rng)
        sigma = random_permutation(6, rng)
        f = f_sigma(lam, sigma)
        moved = lam.point_set().apply_map(f)
        assert set_equal(moved, g_sigma(lam, sigma).point_set())


class TestGSigma:
    def test_identity_fixes(self):
        lam = LambdaTuple((2.0 + 1.0j, 5.0))
        assert g_sigma(lam, Permutation.identity(5)).values == lam.values

    def test_known_values_first_slot(self):
        lam = LambdaTuple((2.0, 3.0))
        out = g_sigma(lam, Permutation.transposition(5, 1, 4)).values
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(-1.0)

    def test_known_values_second_slot(self):
        lam = LambdaTuple((2.0, 3.0))
        out = g_sigma(lam, Permutation.transposition(5, 2, 4)).values
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(1.5)

    def test_closed_form_matches_definition_exhaustively(self):
        lam = LambdaTuple((2.0 + 1.0j, 5.0, -1.5 - 0.5j))  # n = 6
        worst = 0.0
        for sigma in all_permutations(6):
            dev = tuple_deviation(g_sigma_closed(lam, sigma),
                                  g_sigma_definitional(lam, sigma))
            worst = max(worst, dev)
        assert worst < 1e-9

    def test_result_stays_in_domain(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            lam = random_lambda(6, rng)
            sigma = random_permutation(6, rng)
            g_sigma(lam, sigma)  # constructor re-checks membership

    def test_block_permutations_act_by_anharmonic_maps(self):
        # a permutation fixing {1,2,3} pointwise just shuffles coordinates
        lam = LambdaTuple((2.0, 3.0, 5.0))
        sigma = Permutation((1, 2, 3, 5, 6, 4))
        out = g_sigma(lam, sigma).values
        assert tuple_deviation(out, (5.0, 2.0, 3.0)) < 1e-12


class TestGroupLaw:
    def test_report_passes(self):
        rep = verify_group_law(6, trials=150, rng_seed=0)
        assert rep.passed
        assert rep.max_deviation < 1e-7

    def test_exact_identity_composition(self):
        lam = LambdaTuple((2.0, 3.0))
        e = Permutation.identity(5)
        assert g_sigma(g_sigma(lam, e), e).values == lam.values

    def test_faithful_at_five(self):
        rep = verify_group_law(5, trials=10, rng_seed=1)
        assert rep.faithful_total == 119
        assert rep.faithful_moved == 119

    def test_orbit_size_is_full_for_generic_lambda(self):
        lam = LambdaTuple((2.0 + 1.0j, 5.0))
        images = set()
        for sigma in all_permutations(5):
            out = g_sigma(lam, sigma).values
            images.add(tuple((round(v.real, 6), round(v.imag, 6)) for v in out))
        assert len(images) == 120


class TestStabilizerOfLambda:
    def test_generic_is_trivial(self):
        assert [s.is_identity() for s in
                stabilizer_G_lambda(LambdaTuple((2.0 + 1.0j, 5.0)))] == [True]

    def test_pentagon_has_order_ten(self):
        lam = preset_lambda("d5")
        direct = stabilizer_G_lambda(lam, method="direct")
        pulled = stabilizer_G_lambda(lam, method="oracle")
        assert len(direct) == len(pulled) == 10
        assert sorted(s.images for s in direct) == sorted(s.images for s in pulled)

    def test_seven_point_dihedral_configuration(self):
        # pentagon plus both rotation poles, re-pinned to contain 0, 1, inf
        zeta = cmath.exp(2j * math.pi / 5.0)
        values = [1, zeta, zeta ** 2, zeta ** 3, zeta ** 4, 0, complex("inf")]
        from orbstab.moduli import _normalize_to_lambda
        lam = _normalize_to_lambda(values)
        assert lam.n == 7
        perms = stabilizer_G_lambda(lam, method="oracle")
        assert len(perms) == 10
        assert identify_group(
            stabilizer(lam.point_set()).elements) == dihedral(5)

    def test_antipodal_preset(self):
        assert len(stabilizer_G_lambda(preset_lambda("z2"))) == 2

    def test_enumeration_bound(self):
        rng = np.random.default_rng(4)
        lam = random_lambda(9, rng)
        with pytest.raises(EnumerationBoundExceeded):
            stabilizer_G_lambda(lam, method="direct")


def _direct_reference(lam):
    """The direct method before the triple search: all n! permutations."""
    kept = []
    for sigma in all_permutations(lam.n):
        if tuple_deviation(g_sigma_closed(lam, sigma), lam.values) <= lam.tol:
            kept.append(sigma)
    return kept


def _random_mobius(rng):
    while True:
        g = MobiusMap(*(complex(*rng.normal(size=2)) for _ in range(4)))
        if abs(g.a * g.d - g.b * g.c) > 0.2:
            return g


def _witness_lambdas(n, moved):
    """Each classify(n) witness, shuffled and normalized to a K_n point; with
    ``moved``, also under a seeded random Mobius map first."""
    rng = np.random.default_rng(n)
    for entry in classify(n):
        if entry.label.kind == INFINITE:
            continue
        points = list(witness(n, entry).points)
        forms = [("shuffled", points)]
        if moved:
            g = _random_mobius(rng)
            forms.append(("moved", [g.apply(p) for p in points]))
        for form, pts in forms:
            pts = [pts[t] for t in rng.permutation(n)]
            yield f"{entry} {form}", _normalize_to_lambda([p.value() for p in pts])


def _nudged(lam, index, shift):
    """lam with one coordinate moved by a chordal distance of about shift."""
    values = list(lam.values)
    v = values[index]
    values[index] = v + 0.5 * shift * (1.0 + abs(v) ** 2)
    return LambdaTuple(tuple(values), tol=lam.tol)


def _cluster(tol=1e-8):
    """An n = 7 point whose four coordinates lie about 3 tol apart."""
    base = 0.5 + 0.5j
    step = 1.5 * tol * (1.0 + abs(base) ** 2)
    return LambdaTuple(tuple(base + step * u for u in (0, 1, 1j, 1 + 1j)),
                       tol=tol)


class TestDirectSearch:
    """The triple search returns exactly the list of the n! enumeration."""

    def assert_equal_to_reference(self, name, lam):
        got = stabilizer_G_lambda(lam, method="direct")
        assert got == _direct_reference(lam), name
        return got

    def test_presets(self):
        for name in ("generic", "d5", "z2"):
            self.assert_equal_to_reference(name, preset_lambda(name))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random(self, n):
        rng = np.random.default_rng(100 + n)
        self.assert_equal_to_reference(f"random n={n}", random_lambda(n, rng))

    @pytest.mark.parametrize("n, moved", [(5, True), (6, True), (7, False)])
    def test_every_witness(self, n, moved):
        orders = set()
        for name, lam in _witness_lambdas(n, moved):
            orders.add(len(self.assert_equal_to_reference(name, lam)))
        assert len(orders) > 2

    @pytest.mark.parametrize("shift", [0.5, 10.0])
    def test_pentagon_nudged_inside_the_slack(self, shift):
        lam = preset_lambda("d5")
        for index in range(2):
            self.assert_equal_to_reference(
                f"d5 coordinate {index} moved by {shift} tol",
                _nudged(lam, index, shift * lam.tol))

    def test_slots_with_several_candidates(self):
        lam = _cluster()
        kept = self.assert_equal_to_reference("cluster", lam)
        assert len(list(_triple_search(lam))) > 2 * len(kept)


class TestPhiCheck:
    def test_generic(self):
        rep = phi_check(preset_lambda("generic"))
        assert rep.passed and rep.order_G == 1

    def test_pentagon(self):
        rep = phi_check(preset_lambda("d5"))
        assert rep.passed
        assert rep.order_G == rep.order_A == 10
        assert rep.hom_pairs == 100

    def test_antipodal(self):
        rep = phi_check(preset_lambda("z2"))
        assert rep.passed and rep.order_G == 2


def test_anharmonic_group_is_closed():
    for f in ANHARMONIC_GROUP:
        assert any(maps_equal(f.inverse(), g) for g in ANHARMONIC_GROUP)
        for g in ANHARMONIC_GROUP:
            assert any(maps_equal(f.compose(g), h) for h in ANHARMONIC_GROUP)

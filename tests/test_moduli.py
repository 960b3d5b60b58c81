import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

from orbstab.classifier import INFINITE, classify, dihedral
from orbstab import cli, geometry, kernels, moduli
from orbstab.errors import (AmbiguousDecision, AmbiguousMatching,
                            ClosedFormMismatch)
from orbstab.geometry import (MobiusMap, RiemannPoint, chordal_distance,
                              chordal_distances, maps_equal)
from orbstab.moduli import (ANHARMONIC_GROUP, LambdaTuple, Permutation,
                            _normalize_to_lambda, _ordered_triples,
                            _triple_search,
                            all_permutations, f_sigma, g_sigma,
                            g_sigma_closed, g_sigma_definitional, phi_check,
                            preset_lambda, random_lambda, random_permutation,
                            stabilizer_G_lambda, tuple_deviation,
                            verify_group_law)
from orbstab.oracle import identify_group, stabilizer
from orbstab.witness import witness
from reference_oracle import apply_map, index_of, set_equal


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
        # 1.5 tol apart: the 2 tol rule of lam.point_set() applies
        close = (2.0, 2.0 + 0.5 * 1.5e-8 * (1.0 + 2.0 ** 2))
        assert 1.4e-8 < tuple_deviation(close[:1], close[1:]) < 1.6e-8
        with pytest.raises(AmbiguousMatching):
            LambdaTuple(close, tol=1e-8)

    def test_marked_points(self):
        lam = LambdaTuple((2.0, 3.0))
        pts = lam.marked_points()
        assert [str(p) for p in pts[:3]] == ["0.0+0.0i", "1.0+0.0i", "inf"]
        assert lam.n == 5

    def test_arrays_normalize_like_riemann_points(self):
        values = (2.0 + 1.0j, 0.25, -3e5, 1e-7j)
        z, w, nrm = LambdaTuple(values).arrays()
        assert not z.flags.writeable
        for k, v in enumerate((0.0, 1.0, complex("inf")) + values):
            p = RiemannPoint.from_value(v)
            assert abs(z[k] - p.z) + abs(w[k] - p.w) < 1e-15
            assert max(abs(z[k]), abs(w[k])) == pytest.approx(1.0, abs=1e-15)
            assert nrm[k] == pytest.approx(p.norm(), rel=1e-15)

    def test_huge_coordinate_is_infinity_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AmbiguousMatching, match="inf"):
                LambdaTuple((1e200, 2.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN") as err:
            LambdaTuple((2.0, complex(float("nan"), 1.0)))
        assert not isinstance(err.value, AmbiguousMatching)

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

    @staticmethod
    def assert_equivariant(lam, sigma):
        # f_sigma sends the k-th marked point to slot sigma(k) of the image
        f = f_sigma(lam, sigma)
        src = lam.marked_points()
        dst = g_sigma(lam, sigma).marked_points()
        for k in range(1, lam.n + 1):
            assert chordal_distance(f.apply(src[k - 1]),
                                    dst[sigma(k) - 1]) < 1e-9, (sigma, k)

    def test_marked_point_equivariance(self):
        rng = np.random.default_rng(8)
        for n in range(5, 11):
            self.assert_equivariant(random_lambda(n, rng),
                                    random_permutation(n, rng))

    def test_equivariance_at_mixed_scales(self):
        # coordinate moduli near 1e4 and 1e-4 next to ones near 1; some
        # images bring two points within 2e-8, hence the smaller tol
        lam = LambdaTuple((1.2e4 + 3e3j, -2e-4 + 1e-4j, 0.7e4j, 3e-4, 2.0 - 1.0j),
                          tol=1e-12)
        rng = np.random.default_rng(10)
        for _ in range(40):
            self.assert_equivariant(lam, random_permutation(lam.n, rng))

    def test_set_level_equivariance(self):
        rng = np.random.default_rng(9)
        lam = random_lambda(6, rng)
        sigma = random_permutation(6, rng)
        f = f_sigma(lam, sigma)
        moved = apply_map(lam.point_set(), f)
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

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_closed_form_matches_definition_exhaustively(self, n):
        # every sigma: from n = 6 on, all 8 coset families x 6 block parts
        lam = LambdaTuple((2.0 + 1.0j, 5.0, -1.5 - 0.5j, 0.3 - 2.0j)[:n - 3])
        worst = 0.0
        for sigma in all_permutations(n):
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

    def test_closed_form_matches_definition_at_mixed_scales(self):
        lam = LambdaTuple((1.2e4 + 3e3j, -2e-4 + 1e-4j, 3e-4))
        worst = max(tuple_deviation(g_sigma_closed(lam, sigma),
                                    g_sigma_definitional(lam, sigma))
                    for sigma in all_permutations(6))
        assert worst < 1e-12

    def test_empty_configuration(self):
        lam = LambdaTuple(())
        for sigma in all_permutations(3):
            assert g_sigma(lam, sigma) == lam

    @pytest.mark.parametrize("m", [4, 6])
    def test_sigma_of_the_wrong_size_rejected(self, m):
        lam = LambdaTuple((2.0 + 1.0j, 5.0))
        sigma = Permutation.identity(m)
        for action in (f_sigma, g_sigma_definitional, g_sigma_closed, g_sigma):
            with pytest.raises(ValueError, match=f"{m} points.* n = 5"):
                action(lam, sigma)

    def test_image_at_infinity_names_its_slot(self):
        # slot 4 holds 2, slot 5 a point a few ulps away; sending 2 to
        # infinity sends its neighbour there too
        lam = LambdaTuple((2.0, 2.0 + 1e-15), tol=1e-17)
        sigma = Permutation.transposition(5, 3, 4)
        for action in (g_sigma_definitional, g_sigma):
            with pytest.raises(ValueError, match="slot 5 landed at infinity"):
                action(lam, sigma)

    def test_mismatch_between_the_paths_raises(self, monkeypatch):
        closed = moduli.g_sigma_closed

        def perturbed(lam, sigma):
            out = list(closed(lam, sigma))
            out[1] += 1e-6
            return tuple(out)

        monkeypatch.setattr(moduli, "g_sigma_closed", perturbed)
        lam = LambdaTuple((2.0 + 1.0j, 5.0, -1.5 - 0.5j))
        with pytest.raises(ClosedFormMismatch):
            g_sigma(lam, Permutation((4, 2, 6, 1, 3, 5)))

    def test_block_permutations_act_by_anharmonic_maps(self):
        # a permutation fixing {1,2,3} pointwise just shuffles coordinates
        lam = LambdaTuple((2.0, 3.0, 5.0))
        sigma = Permutation((1, 2, 3, 5, 6, 4))
        out = g_sigma(lam, sigma).values
        assert tuple_deviation(out, (5.0, 2.0, 3.0)) < 1e-12


def _dense_min_separation(z, w, nrm):
    d = chordal_distances(z[:, None], w[:, None], nrm[:, None], z, w, nrm)
    return d[~np.eye(len(z), dtype=bool)].min()


def _g_sigma_checked_in_full(lam, sigma):
    """g_sigma's output before it bounded the output's separation: the
    definitional values through the public constructor's full check."""
    return LambdaTuple(tuple(g_sigma_definitional(lam, sigma).tolist()),
                       tol=lam.tol)


def _outcome(action, lam, sigma):
    """The output's values, or the type of the error the action raised."""
    try:
        return action(lam, sigma).values
    except (AmbiguousMatching, ValueError) as err:
        return type(err)


class TestSeparationBound:
    """g_sigma skips the output's O(n^2) check only where the input's
    separation and f_sigma's conditioning prove it would pass."""

    def test_certified_outputs_match_the_full_construction(self):
        rng = np.random.default_rng(31)
        certified = total = 0
        for n in range(5, 33):
            for _ in range(4):
                lam = random_lambda(n, rng)
                for _ in range(2):
                    lam = g_sigma(lam, random_permutation(n, rng))
                    total += 1
                    if "_arrays" in vars(lam):
                        continue
                    certified += 1
                    full = LambdaTuple(lam.values, tol=lam.tol)
                    for got, want in zip(lam.arrays(), full.arrays()):
                        assert got.tobytes() == want.tobytes()
                        assert not got.flags.writeable
                    assert lam._separation_bound <= _dense_min_separation(
                        *full.arrays())
                    assert lam._separation_bound > 2.0 * lam.tol
        assert certified > 0.9 * total

    @pytest.mark.parametrize("values, raised", [
        # the moduli of the n = 8 point that the action cannot keep in K_n
        ((1.2e4 + 3e3j, -2e-4 + 1e-4j, 0.7e4j, 3e-4), True),
        # four coordinates 2.6 to 7.3 tol apart: no image can be certified
        (tuple(0.5 + 0.5j + 0.5e-8 * (1.0 + abs(0.5 + 0.5j) ** 2) * u
               for u in (0, 2.6, 1.3 + 5j, 7 + 2j)), False)])
    def test_same_rejections_as_the_full_check(self, values, raised):
        lam = LambdaTuple(values, tol=1e-8)
        outcomes = [(_outcome(g_sigma, lam, sigma),
                     _outcome(_g_sigma_checked_in_full, lam, sigma))
                    for sigma in all_permutations(7)]
        assert all(got == want for got, want in outcomes)
        assert any(got is AmbiguousMatching for got, _ in outcomes) == raised

    def test_no_check_and_no_arrays_until_read(self, monkeypatch):
        lam = random_lambda(32, np.random.default_rng(32))
        calls = {"check_separation": 0, "homogeneous_arrays": 0}

        def counted(name):
            original = getattr(moduli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(moduli, name, counted(name))
        out = g_sigma(lam, random_permutation(32, np.random.default_rng(33)))
        assert calls == {"check_separation": 0, "homogeneous_arrays": 0}
        assert len(out.marked_points()) == len(out.arrays()[0]) == 32
        assert calls == {"check_separation": 0, "homogeneous_arrays": 1}


def _shifted(values, deviation):
    """The values with each coordinate moved, in alternating directions, by
    about this chordal distance."""
    values = np.asarray(values)
    signs = np.where(np.arange(len(values)) % 2, 1.0, -1.0j)
    return values + signs * (0.5 * deviation) * (1.0 + np.abs(values) ** 2)


class TestScreenedCrossCheck:
    """g_sigma first tests 2 max|a - b| against 10 tol, and computes the
    chordal deviation only when that screen fails; it raises exactly when
    the chordal deviation exceeds 10 tol."""

    # coordinates near 1 and near 1e4: at 1e4 the chordal distance is about
    # 2e-8 times the coordinates' difference, so the screen fails on pairs
    # that are well within 10 tol
    POINTS = [LambdaTuple((2.0 + 1.0j, 5.0, -1.5 - 0.5j, 0.3 - 2.0j)),
              LambdaTuple((1.2e4 + 3e3j, -0.8e4 + 0.6e4j, 0.7e4j, 1e4))]

    @pytest.mark.parametrize("lam", POINTS)
    def test_raises_exactly_beyond_ten_tol(self, monkeypatch, lam):
        sigma = Permutation((4, 2, 6, 1, 3, 7, 5))
        by_def = g_sigma_definitional(lam, sigma)
        outcomes = set()
        for factor in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            shifted = _shifted(by_def, factor * 10.0 * lam.tol)
            monkeypatch.setattr(moduli, "g_sigma_closed",
                                lambda lam, sigma: shifted)
            dev = tuple_deviation(by_def, shifted)
            beyond = dev > 10.0 * lam.tol
            if beyond:
                with pytest.raises(ClosedFormMismatch,
                                   match=f"disagree by {dev} for"):
                    g_sigma(lam, sigma)
            else:
                g_sigma(lam, sigma)
            outcomes.add(beyond)
        assert outcomes == {False, True}

    def test_screen_fails_but_the_exact_test_passes_at_large_moduli(self):
        lam = self.POINTS[1]
        by_def = g_sigma_definitional(lam, Permutation.identity(7))
        shifted = _shifted(by_def, 5.0 * lam.tol)
        assert 2.0 * np.abs(by_def - shifted).max() > 1e6 * 10.0 * lam.tol
        dev = moduli._screened_deviation(by_def, shifted, 10.0 * lam.tol)
        assert dev == tuple_deviation(by_def, shifted) <= 10.0 * lam.tol

    def test_screen_bounds_the_exact_deviation(self):
        rng = np.random.default_rng(41)
        for scale in (1e-4, 1.0, 1e4):
            for _ in range(200):
                a = scale * (rng.normal(size=6) + 1j * rng.normal(size=6))
                b = a + 10.0 ** rng.uniform(-12, 0) * scale * rng.normal(size=6)
                exact = tuple_deviation(a, b)
                for bound in (0.5 * exact, exact, 2.0 * exact, 1e-7):
                    dev = moduli._screened_deviation(a, b, bound)
                    assert (dev <= bound) == (exact <= bound)
                    assert dev == exact or dev <= bound

    def test_a_passing_call_computes_no_chordal_deviation(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the screen should have decided")

        monkeypatch.setattr(moduli, "tuple_deviation", forbidden)
        rng = np.random.default_rng(42)
        for n in (5, 8, 20, 32):
            lam = random_lambda(n, rng)
            for _ in range(10):
                g_sigma(lam, random_permutation(n, rng))
        assert phi_check(preset_lambda("d5")).passed
        assert len(stabilizer_G_lambda(preset_lambda("d5"))) == 10

    def test_nan_fails_both_tests(self):
        a = np.array([1.0 + 0j, 2.0 + 0j])
        b = np.array([1.0 + 0j, complex("nan")])
        assert math.isnan(moduli._screened_deviation(a, b, 1.0))


class TestTupleDeviation:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="lengths 1 and 2"):
            tuple_deviation((1.0,), (1.0, 5.0))

    def test_empty_tuples_agree(self):
        assert tuple_deviation((), ()) == 0.0


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

    def test_points_are_built_at_the_given_tol(self, monkeypatch):
        seen = set()
        action = moduli.g_sigma

        def recorded(lam, sigma):
            seen.add(lam.tol)
            return action(lam, sigma)

        monkeypatch.setattr(moduli, "g_sigma", recorded)
        rep = verify_group_law(6, trials=5, rng_seed=0, tol=1e-12)
        assert rep.passed and rep.tolerance == 1e-11
        assert seen == {1e-12}

    def test_a_shifted_closed_form_fails_at_a_fine_tol(self, monkeypatch):
        # a shift of 1e-9 passes a cross-check at 10 * 1e-8, not at 1e-11
        closed = moduli.g_sigma_closed
        monkeypatch.setattr(moduli, "g_sigma_closed",
                            lambda lam, sigma: closed(lam, sigma) + 1e-9)
        assert verify_group_law(6, trials=5, rng_seed=0).passed
        with pytest.raises(ClosedFormMismatch):
            verify_group_law(6, trials=5, rng_seed=0, tol=1e-12)
        with pytest.raises(ClosedFormMismatch):
            cli.main(["moduli", "6", "--group-law", "--tol", "1e-12",
                      "--trials", "5"])

    def test_random_points_at_any_tol_share_their_values(self):
        fine = random_lambda(9, np.random.default_rng(5), tol=1e-12)
        default = random_lambda(9, np.random.default_rng(5))
        assert fine.values == default.values
        assert (fine.tol, default.tol) == (1e-12, geometry.DEFAULT_TOL)

    def test_orbit_size_is_full_for_generic_lambda(self):
        lam = LambdaTuple((2.0 + 1.0j, 5.0))
        images = set()
        for sigma in all_permutations(5):
            out = g_sigma(lam, sigma).values
            images.add(tuple((round(v.real, 6), round(v.imag, 6)) for v in out))
        assert len(images) == 120


def _oracle_sigmas(lam):
    """The reference for G_lambda, independent of the triple search: the
    permutations of the marked points read off the rows of the oracle's
    Mobius stabilizer of the point set, sorted by their images."""
    rows = stabilizer(lam.point_set()).rows + 1
    return sorted((Permutation(tuple(images)) for images in rows.tolist()),
                  key=lambda s: s.images)


class TestStabilizerOfLambda:
    def test_generic_is_trivial(self):
        assert [s.is_identity() for s in
                stabilizer_G_lambda(LambdaTuple((2.0 + 1.0j, 5.0)))] == [True]

    def test_pentagon_has_order_ten(self):
        lam = preset_lambda("d5")
        got = stabilizer_G_lambda(lam)
        assert len(got) == 10
        assert got == _oracle_sigmas(lam)

    def test_seven_point_dihedral_configuration(self):
        # pentagon plus both rotation poles, re-pinned to contain 0, 1, inf
        zeta = cmath.exp(2j * math.pi / 5.0)
        values = [1, zeta, zeta ** 2, zeta ** 3, zeta ** 4, 0, complex("inf")]
        from orbstab.moduli import _normalize_to_lambda
        lam = _normalize_to_lambda(values)
        assert lam.n == 7
        perms = stabilizer_G_lambda(lam)
        assert len(perms) == 10
        assert perms == _oracle_sigmas(lam)
        assert identify_group(
            stabilizer(lam.point_set()).elements) == dihedral(5)

    def test_antipodal_preset(self):
        assert len(stabilizer_G_lambda(preset_lambda("z2"))) == 2

    def test_search_over_several_blocks(self):
        # at n = 20 the 6840 triples are mapped in three blocks
        name, lam = next(_witness_lambdas(20, moved=False))
        got = stabilizer_G_lambda(lam)
        assert len(got) == 60, name  # A_5 (0, 1, 0, 0)
        assert got == _oracle_sigmas(lam)


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
        got = stabilizer_G_lambda(lam)
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

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_triples_in_blocks_are_all_ordered_triples(self, monkeypatch, n):
        monkeypatch.setattr(kernels, "_BLOCK", 7)  # blocks of 7, the last short
        blocks = kernels._row_blocks(n * (n - 1) * (n - 2), 1)
        got = np.concatenate([_ordered_triples(n, b) for b in blocks])
        assert got.tolist() == list(map(list, itertools.permutations(range(n), 3)))

    def test_slack_stays_near_tol_at_a_coarse_tol(self):
        # a slack of 1e3 tol alone is a chordal distance of 1 at tol = 1e-3:
        # it would propose every point for every slot, about 5e5 sigma here
        lam = LambdaTuple(random_lambda(12, np.random.default_rng(0)).values,
                          tol=1e-3)
        assert len(list(itertools.islice(_triple_search(lam), 1000))) < 1000
        assert stabilizer_G_lambda(lam) == _oracle_sigmas(lam)


@pytest.mark.parametrize("n, name", [
    (32, "K_4, (0, 8) shuffled"), (24, "K_4, (0, 6) moved"),
    (26, "D_4, (1, 0, 3) shuffled"), (30, "K_4, (1, 7) shuffled"),
    (32, "K_4, (2, 7) shuffled")])
def test_lambdas_at_the_rounding_floor_are_ambiguous(n, name):
    # normalized, these witnesses' marked points lie 2e-5 to 1.4e-4 apart,
    # and a true element's map, solved through the base triple, misses by
    # 1.2 to 3.4 tol; the oracle returned Z_2 (0, 16) for the first and
    # raised UnrecognizedGroup for the rest
    lam = dict(_witness_lambdas(n, moved=True))[name]
    with pytest.raises(AmbiguousDecision, match="largest kept miss"):
        stabilizer(lam.point_set())
    if name == "K_4, (0, 8) shuffled":
        assert len(stabilizer_G_lambda(lam)) == 4


def _oracle_sigmas_by_lookup(lam):
    """The oracle reference before it read the oracle's rows: each element
    applied to every marked point and looked up."""
    ps = lam.point_set()
    kept = []
    for f in stabilizer(ps).elements:
        images = [index_of(ps, f.apply(p)) + 1 for p in ps.points]
        assert min(images) > 0
        kept.append(Permutation(tuple(images)))
    return sorted(kept, key=lambda s: s.images)


def _onto_by_maps(lam, G):
    """phi_check's onto test before it read the oracle's rows: each f_sigma
    is one of the oracle's maps."""
    A = stabilizer(lam.point_set())
    return all(any(maps_equal(f_sigma(lam, sigma), g, tol=lam.tol)
                   for g in A.elements) for sigma in G)


def _row_cases():
    for name in ("generic", "d5", "z2"):
        yield name, preset_lambda(name)
    for n in (5, 6, 7, 8):
        yield from _witness_lambdas(n, moved=True)


class TestOracleRows:
    """The readers of the oracle's rows, the G_lambda reference and
    phi_check's onto test, equal the lookups they replaced."""

    def test_sigmas_from_rows(self):
        orders = set()
        for name, lam in _row_cases():
            got = _oracle_sigmas(lam)
            assert got == _oracle_sigmas_by_lookup(lam), name
            assert got == stabilizer_G_lambda(lam), name
            orders.add(len(got))
        assert len(orders) > 4

    def test_onto_from_rows(self):
        for name, lam in _row_cases():
            rep = phi_check(lam)
            assert rep.onto_ok == _onto_by_maps(lam, stabilizer_G_lambda(lam))
            assert rep.passed, name

    def test_onto_fails_for_a_sigma_outside_the_stabilizer(self, monkeypatch):
        lam = preset_lambda("d5")
        G = stabilizer_G_lambda(lam)
        # (1 4) moves a pinned slot, so f_sigma is no symmetry; (4 5) keeps
        # f_sigma the identity, a symmetry of the point set, although sigma
        # moves the coordinates: only the permutations tell it apart
        for a, b, old_onto in ((1, 4, False), (4, 5, True)):
            extra = Permutation.transposition(lam.n, a, b)
            assert extra not in G
            monkeypatch.setattr(moduli, "stabilizer_G_lambda",
                                lambda lam: G + [extra])
            rep = phi_check(lam)
            assert not rep.onto_ok and not rep.passed
            assert rep.stabilized == len(G)
            assert _onto_by_maps(lam, G + [extra]) == old_onto


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

    def test_fails_when_the_search_drops_a_sigma(self, monkeypatch,
                                                 icosahedron_lambda):
        # G_lambda comes from the search alone, so a search that misses
        # one sigma fails the check
        search = moduli._triple_search
        dropped = stabilizer_G_lambda(icosahedron_lambda)[1]
        monkeypatch.setattr(moduli, "_triple_search", lambda lam: (
            sigma for sigma in search(lam) if sigma != dropped))
        rep = phi_check(icosahedron_lambda)
        assert (rep.order_G, rep.order_A) == (59, 60)
        assert rep.hom_pairs_ok < rep.hom_pairs and not rep.passed

    def test_composes_no_permutation_objects(self, monkeypatch,
                                             icosahedron_lambda):
        def forbidden(*args):
            raise AssertionError("phi_check composed Permutation objects")

        monkeypatch.setattr(Permutation, "compose", forbidden)
        rep = phi_check(icosahedron_lambda)
        assert rep.passed and rep.hom_pairs_ok == 3600

    @pytest.mark.parametrize("block", [kernels._BLOCK, 50])
    def test_products_by_rows_count_as_composition(self, monkeypatch,
                                                   icosahedron_lambda, block):
        # with 50 entries a block, each block holds less than one pi row
        monkeypatch.setattr(kernels, "_BLOCK", block)
        G = stabilizer_G_lambda(icosahedron_lambda)
        rng = np.random.default_rng(43)
        for drop in (None, 1, 17):
            kept = [s for i, s in enumerate(G) if i != drop]
            members = {s.images for s in kept}
            want = sum(1 for s in kept for p in kept
                       if p.compose(s).images in members)
            rows = np.array([s.images for s in kept]) - 1
            assert moduli._products_in(rows) == want
            assert moduli._products_in(rows[rng.permutation(len(kept))]) == want
        assert moduli._products_in(np.empty((0, 12), dtype=np.intp)) == 0

    def test_compares_no_maps(self, monkeypatch, icosahedron_lambda):
        def forbidden(*args, **kwargs):
            raise AssertionError("phi_check compared Mobius maps")

        lams = [preset_lambda("d5"), icosahedron_lambda]
        for owner, name in ((geometry, "maps_equal"), (MobiusMap, "compose")):
            monkeypatch.setattr(owner, name, forbidden)
        for lam in lams:
            assert phi_check(lam).passed


def test_anharmonic_group_is_closed():
    for f in ANHARMONIC_GROUP:
        assert any(maps_equal(f.inverse(), g) for g in ANHARMONIC_GROUP)
        for g in ANHARMONIC_GROUP:
            assert any(maps_equal(f.compose(g), h) for h in ANHARMONIC_GROUP)

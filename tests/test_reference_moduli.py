"""The g_sigma paths against their earlier form (``reference_moduli.py``).

g_sigma's output must come out bit for bit as the reference's: the values,
the coordinate array, the separation bound, and the type and message of
any error.  The definitional path and f_sigma must match bit for bit too;
the closed form, which now applies one fused map, must agree with the
reference's closed form to rounding.
"""

import numpy as np
import pytest

import reference_moduli as ref
from orbstab import moduli
from orbstab.errors import OrbstabError
from orbstab.moduli import (LambdaTuple, Permutation, all_permutations,
                            random_lambda, random_permutation, tuple_deviation)

#: How far (chordal) the fused closed form may lie from the reference's.
CLOSED_FORM_AGREEMENT = 1e-13


def _outcome(action, lam, sigma):
    """What the action returns, as bytes and floats, or the error it
    raised, as its type and message."""
    try:
        out = action(lam, sigma)
    except (ValueError, OrbstabError) as err:
        return type(err), str(err)
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, LambdaTuple):
        return (out.values, out.tol, out._coords.tobytes(),
                out._separation_bound, "_arrays" in vars(out))
    return out.a, out.b, out.c, out.d  # a MobiusMap


class Comparison:
    """Compare every path with the reference on each sigma given."""

    def __init__(self, lam, sigmas, closed_tol=CLOSED_FORM_AGREEMENT):
        self.raised = 0
        # the farthest either closed form lies from the definitional path
        self.closed_error = self.reference_closed_error = 0.0
        for sigma in sigmas:
            got = _outcome(moduli.g_sigma, lam, sigma)
            assert got == _outcome(ref.g_sigma, lam, sigma), sigma
            self.raised += isinstance(got[0], type)
            for new, old in ((moduli.g_sigma_definitional,
                              ref.g_sigma_definitional),
                             (moduli.f_sigma, ref.f_sigma)):
                assert (_outcome(new, lam, sigma)
                        == _outcome(old, lam, sigma)), sigma
            if sigma.n == lam.n:
                self.compare_closed_forms(lam, sigma, closed_tol)

    def compare_closed_forms(self, lam, sigma, closed_tol):
        closed = moduli.g_sigma_closed(lam, sigma)
        assert closed.dtype == complex and closed.shape == (lam.n - 3,)
        with np.errstate(all="ignore"):
            reference = ref.g_sigma_closed(lam, sigma)
        if not np.isfinite(reference).all():
            return
        assert tuple_deviation(closed, reference) <= closed_tol, sigma
        try:
            by_def = moduli.g_sigma_definitional(lam, sigma)
        except ValueError:
            return
        self.closed_error = max(self.closed_error,
                                tuple_deviation(closed, by_def))
        self.reference_closed_error = max(self.reference_closed_error,
                                          tuple_deviation(reference, by_def))


def test_random_pairs():
    rng = np.random.default_rng(1404)
    for _ in range(3000):
        n = int(rng.integers(3, 33))
        lam = random_lambda(n, rng)
        Comparison(lam, [random_permutation(n, rng)])


def test_random_pairs_chained():
    # outputs of g_sigma, certified and not, as inputs again
    rng = np.random.default_rng(1405)
    for n in range(4, 33):
        lam = random_lambda(n, rng)
        for _ in range(4):
            sigma = random_permutation(n, rng)
            Comparison(lam, [sigma])
            lam = moduli.g_sigma(lam, sigma)


@pytest.mark.parametrize("n", [6, 7])
def test_every_sigma_at_a_random_point(n):
    lam = random_lambda(n, np.random.default_rng(n))
    assert Comparison(lam, all_permutations(n)).raised == 0


#: At mixed scales the re-pinning maps are ill-conditioned, and any two
#: evaluations of the action differ by rounding of up to a few 1e-12.
MIXED_SCALE_AGREEMENT = 1e-11


def assert_as_accurate(comparison):
    """Over all sigma compared, the fused closed form lies about as far
    from the definitional path as the reference's closed form does, or
    less: both are limited by the definitional path's own rounding."""
    assert (0.0 < comparison.closed_error
            <= 1.1 * comparison.reference_closed_error)


def test_every_sigma_at_mixed_scales():
    lam = LambdaTuple((1.2e4 + 3e3j, -2e-4 + 1e-4j, 3e-4))
    assert_as_accurate(
        Comparison(lam, all_permutations(6), MIXED_SCALE_AGREEMENT))


def test_every_sigma_where_some_images_are_too_close():
    # the n = 7 point whose images under 528 of the 5040 sigma hold two
    # marked points within 2 tol: g_sigma raises AmbiguousMatching there
    lam = LambdaTuple((1.2e4 + 3e3j, -2e-4 + 1e-4j, 0.7e4j, 3e-4), tol=1e-8)
    comparison = Comparison(lam, all_permutations(7), MIXED_SCALE_AGREEMENT)
    assert comparison.raised == 528
    assert_as_accurate(comparison)


def test_every_sigma_with_a_slot_at_infinity():
    # slots 4 and 5 hold points a few ulps apart: a sigma sending one of
    # them to infinity sends the other there too
    lam = LambdaTuple((2.0, 2.0 + 1e-15), tol=1e-17)
    assert Comparison(lam, all_permutations(5)).raised > 0


def test_sigma_of_the_wrong_size():
    lam = LambdaTuple((2.0 + 1.0j, 5.0))
    assert Comparison(lam, [Permutation.identity(4),
                            Permutation.identity(6)]).raised == 2


def test_empty_configuration():
    assert Comparison(LambdaTuple(()), all_permutations(3)).raised == 0

"""The oracle against its straightforward reference (``reference_oracle.py``).

The corpus is the kernel's: every ``classify(n)`` witness for n = 5..30 as
built, moved and moved near infinity; random and jittered asymmetric sets
like the benchmark's; and sets squeezed into a small cap, some of which
the oracle rejects with a named error.  On each set the centered cloud,
the grid and the oracle's result must come out as the reference's.  On
wider squeeze sweeps the oracle alone is checked: it reads each set as
its own entry or rejects it by name.
"""

import collections

import numpy as np
import pytest

import reference_oracle as ref
from orbstab import classifier as cl, kernels, oracle
from orbstab.classifier import classify
from orbstab.errors import AmbiguousMatching, OrbstabError
from orbstab.geometry import PointSet, RiemannPoint
from orbstab.witness import dihedral_witness, polyhedral_orbit, trivial_witness, witness
from test_kernels import (moved, near_infinity_mobius, random_mobius, squeezed,
                          witness_sets)


def sphere_set(xyz, tol=1e-8):
    xyz = xyz / np.linalg.norm(xyz, axis=1, keepdims=True)
    return PointSet([RiemannPoint.from_sphere(*row) for row in xyz], tol=tol)


def asymmetric_sets():
    """Random sphere points, trivial witnesses, and symmetric witnesses
    jittered by 1e-3 and moved by a random Mobius map, every other one
    sending a point near infinity, n = 12..80."""
    rng = np.random.default_rng(2024)
    shapes = [polyhedral_orbit(cl.A5, "V12"), dihedral_witness(7, (1, 0, 1)),
              polyhedral_orbit(cl.A5, "V30"), dihedral_witness(20, (0, 0, 1))]
    for n in (12, 20, 33, 47, 60, 80):
        yield f"sphere n={n}", sphere_set(rng.normal(size=(n, 3)))
        yield f"trivial n={n}", trivial_witness(n)
    for i, shape in enumerate(shapes * 3):
        xyz = np.array([p.to_sphere() for p in shape.points])
        while True:
            try:
                ps = sphere_set(xyz + 1e-3 * rng.normal(size=xyz.shape))
                g = (near_infinity_mobius(ps, rng) if i % 2 else random_mobius(rng))
                yield f"jittered n={ps.n} #{i}", moved(ps, g, rng)
                break
            except AmbiguousMatching:
                continue


def squeezed_witnesses(ns=(10, 12, 13), epsilons=(1e-4, 1e-5, 1e-6), jitter=0.0):
    """Every non-trivial ``classify(n)`` witness for n in ns with each finite
    value v moved to eps v + 0.3 for each eps, and then by ``jitter`` in a
    seeded random direction, as its entry, eps and values."""
    rng = np.random.default_rng(0)
    for n in ns:
        for entry in classify(n):
            if entry.label.kind in (cl.TRIVIAL, cl.INFINITE):
                continue
            points = witness(n, entry).points
            for eps in epsilons:
                turns = jitter * np.exp(2j * np.pi * rng.random(n))
                yield entry, eps, [p.value() if p.w == 0 else eps * p.value() + 0.3 + t
                                   for p, t in zip(points, turns)]


def squeezed_sets():
    """Trivial witnesses under z -> eps z + c, and the squeezed witnesses
    that are sets at tol 1e-8 (the oracle rejects some of these), as name,
    set and entry."""
    rng = np.random.default_rng(11)
    trivial = cl.ClassificationEntry(cl.LABEL_TRIVIAL, ())
    for eps in (1e-4, 1e-6, 1e-7):
        for n in (6, 9, 12):
            yield (f"trivial n={n} eps={eps}",
                   squeezed(trivial_witness(n), eps, rng), trivial)
    for entry, eps, values in squeezed_witnesses():
        try:
            yield f"{entry} eps={eps}", PointSet.from_values(values), entry
        except AmbiguousMatching:
            continue


#: The squeezed sets on which a proposal misses at tol but lies in the
#: decision gap, so the oracle raises AmbiguousDecision.  The reference,
#: which has no gap, returns a smaller group on the first four, raises
#: DegenerateMap on "A_4, (1, 1, 0) eps=1e-06" and UnrecognizedGroup on
#: the rest.
AMBIGUOUS = {
    "A_4, (1, 1, 0) eps=1e-05", "K_4, (1, 2) eps=1e-05",
    "K_4, (1, 2) eps=1e-06", "D_5, (1, 0, 1) eps=1e-05",
    "A_4, (1, 1, 0) eps=1e-06",
    "A_5, (1, 0, 0, 0) eps=0.0001", "A_5, (1, 0, 0, 0) eps=1e-05",
    "A_5, (1, 0, 0, 0) eps=1e-06", "D_8, (1, 1, 0) eps=1e-05",
    "D_10, (1, 1, 0) eps=1e-05", "D_11, (1, 1, 0) eps=1e-05",
    "D_11, (1, 1, 0) eps=1e-06", "D_4, (1, 0, 1) eps=1e-06",
    "D_5, (1, 0, 1) eps=1e-06", "D_8, (1, 1, 0) eps=1e-06",
}


#: The trivial group's map, exactly the identity, as the oracle returns it.
IDENTITY_MAP = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)


def outcome(stabilizer, ps):
    """What the oracle reports: the entry, orbits, row set, rows in order
    and the maps, or the named error it raises."""
    try:
        res = stabilizer(ps)
    except OrbstabError as exc:
        return type(exc).__name__, str(exc)
    rows = np.asarray(res.rows)
    return (res.label, res.index, res.orbit_indices,
            sorted(map(tuple, rows.tolist())), rows.tolist(), np.asarray(res.maps))


def assert_same_outcome(ps, got, want, name):
    """Everything but the maps is equal, and so are the maps' bytes above
    order 1.  The oracle's trivial map is exactly the identity, and the
    reference's, solved through its base triple, sends every point within
    tol of itself."""
    if isinstance(got[0], str) or isinstance(want[0], str):
        assert got == want, name
        return
    assert got[:-1] == want[:-1], name
    if len(got[4]) > 1:
        assert got[-1].tobytes() == want[-1].tobytes(), name
    else:
        assert got[-1].tobytes() == IDENTITY_MAP.tobytes(), name
        z, w, nrm = ps.arrays()
        assert oracle._misses(z, w, nrm, want[-1], np.array(want[4])).max() <= ps.tol, name


def assert_grids_equal(X, slack, name):
    new, old = kernels._Grid(X, slack), ref._Grid(X, slack)
    assert np.array_equal(new.keys, old.keys), name
    assert np.array_equal(new.owner, old.owner), name
    assert new.depth == old.depth, name
    # queries on and off the cloud points, the way rotated candidates land
    rng = np.random.default_rng(len(X))
    Y = X[None] + slack * rng.normal(size=(3, *X.shape))
    assert np.array_equal(new.lookup(Y.transpose(2, 0, 1)),
                          old.lookup(list(Y.transpose(2, 0, 1)))), name


def assert_matches_reference(name, ps, error=None):
    """The centered cloud and grid match the reference's, and so does the
    oracle's outcome, unless it is to raise the named ``error``.  Returns
    that outcome."""
    z, w, _ = ps.arrays()
    X, stretch, shift, kappa, *rest = kernels._center(z, w)
    X_ref, *rest_ref = ref._center(z, w)
    assert X.tobytes() == X_ref.tobytes() and [stretch, shift, *rest] == rest_ref, name
    # kappa is the Frobenius norm of (I - M)^-1, which bounds its spectral norm
    inverse = np.linalg.inv(np.eye(3) - X.T @ X / len(X))
    assert kappa == pytest.approx(np.linalg.norm(inverse), rel=1e-9), name
    assert kappa >= np.linalg.norm(inverse, 2), name
    # the scan's slack: a quarter of the separation, or the stretched tol balls
    d = np.sqrt(((X[:, None, :] - X) ** 2).sum(axis=2))
    d[np.diag_indices(len(X))] = np.inf
    assert_grids_equal(X, max(d.min() / 4.0, 2.0 * ps.tol * stretch), name)
    got = outcome(oracle.stabilizer, ps)
    if error is None:
        assert_same_outcome(ps, got, outcome(ref.stabilizer, ps), name)
    else:
        assert got[0] == error, name
    return got


@pytest.mark.parametrize("n", range(5, 31))
def test_witnesses_match_the_reference(n):
    for name, ps in witness_sets(n):
        assert_matches_reference(name, ps)


def test_asymmetric_sets_match_the_reference():
    for name, ps in asymmetric_sets():
        assert_matches_reference(name, ps)


@pytest.mark.parametrize("tol", [1e-6, 1e-4, 1e-3])
def test_asymmetric_sets_are_trivial_at_a_coarse_tol(tol):
    # the jitter makes the wrong proposals miss by about 1e-3 whatever tol
    # is; at no tol may that miss land in the decision gap
    for name, ps in asymmetric_sets():
        got = oracle.stabilizer(PointSet(ps.points, tol=tol))
        assert got.label == cl.LABEL_TRIVIAL, name


def test_squeezed_sets_match_the_reference():
    # each set is also read as its own entry or rejected by name, never
    # read as another group
    errors = right = 0
    ambiguous = set()
    for name, ps, entry in squeezed_sets():
        if name in AMBIGUOUS:
            assert_matches_reference(name, ps, "AmbiguousDecision")
            ambiguous.add(name)
            continue
        got = assert_matches_reference(name, ps)
        if isinstance(got[0], str):
            errors += 1
        else:
            assert got[:2] == (entry.label, entry.index), name
            right += 1
    assert ambiguous == AMBIGUOUS
    assert (right, errors) == (71, 28)


#: The squeezes of the wide sweeps, and the move that keeps every partner
#: within tol at tol 1e-8: at most 0.46 tol chordally near 0.3.
SWEEP_EPSILONS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
SWEEP_JITTER = 2.5e-9


def squeezed_asymmetric_sets():
    """``trivial_witness(n)`` and one seeded random sphere set, n = 5..40,
    with each value v moved to eps v + c for c = 0.3 and 1 + 2i, as values
    and their entry, the trivial one."""
    rng = np.random.default_rng(0)
    trivial = cl.ClassificationEntry(cl.LABEL_TRIVIAL, ())
    for n in range(5, 41):
        xyz = rng.normal(size=(n, 3))
        xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
        for values in ([p.value() for p in trivial_witness(n).points],
                       [RiemannPoint.from_sphere(*row).value() for row in xyz]):
            for c in (0.3, 1 + 2j):
                for eps in SWEEP_EPSILONS:
                    yield trivial, eps, [eps * v + c for v in values]


@pytest.mark.parametrize("sets, counts", [
    (lambda: squeezed_witnesses(range(5, 21), SWEEP_EPSILONS),
     {"own": 558, "AmbiguousDecision": 105, "UnrecognizedGroup": 62,
      "DegenerateMap": 106}),
    (lambda: squeezed_witnesses(range(5, 21), SWEEP_EPSILONS, SWEEP_JITTER),
     {"own": 44, "AmbiguousDecision": 776, "UnrecognizedGroup": 9}),
    (squeezed_asymmetric_sets, {"own": 611, "AmbiguousDecision": 11}),
], ids=["exact", "perturbed", "asymmetric"])
def test_wide_squeeze_sweeps_never_read_another_group(sets, counts):
    # a true element that misses through rounding in its solve is in the
    # decision gap, so each valid set is read as its own entry or rejected
    # by name; the counts are pinned per outcome
    got = collections.Counter()
    for entry, eps, values in sets():
        try:
            ps = PointSet.from_values(values)
        except AmbiguousMatching:
            continue
        try:
            res = oracle.stabilizer(ps)
        except OrbstabError as exc:
            got[type(exc).__name__] += 1
            continue
        assert res.entry() == entry, f"{entry} eps={eps} read as {res.entry()}"
        got["own"] += 1
    assert got == counts


@pytest.mark.parametrize("slack", [0.01, 0.1, 0.6])
def test_grid_matches_the_reference_at_any_slack(slack):
    rng = np.random.default_rng(19)
    X = rng.normal(size=(50, 3))
    X /= np.sqrt((X * X).sum(axis=1, keepdims=True))
    assert_grids_equal(X, slack, f"slack={slack}")


def test_row_checks_match_the_reference():
    """The orders and the closure, finite-order and non-degenerate checks on
    every witness's rows for n = 5..20, and on rows with one foreign
    permutation or one wrong map."""
    rng = np.random.default_rng(40)
    for n in range(5, 21):
        for entry in classify(n):
            ps = witness(n, entry)
            z, w, _ = ps.arrays()
            base = oracle._pick_base_triple(ps)
            rows, maps = oracle._decide(
                ps, base, kernels.scan_stabilizer_triples(z, w, ps.tol))
            orders = oracle._row_orders(rows, base)
            assert np.array_equal(orders, ref._row_orders(rows, list(base)))
            reference = ref.base_triple_maps(z, w, base, rows)
            assert maps.tobytes() == np.array(reference).tobytes()
            g, det = oracle._check_nondegenerate(maps)
            assert np.array_equal(g, np.array(ref._check_nondegenerate(tuple(maps))))
            variants = [(rows, orders, maps)]
            if len(rows) > 2:
                bad = rows.copy()
                bad[-1] = rng.permutation(ps.n)
                wrong = maps.copy()
                wrong[:, -1] *= np.array([1.0, 1.0, 1.0, 1.0 + 1e-3])
                variants += [(bad, orders, maps), (rows, orders, wrong)]
            for r, k, f in variants:
                assert check_outcome(oracle._check_closure, r, k, base) == \
                    check_outcome(ref._check_closure, r, k, list(base))
                assert check_outcome(oracle._check_finite_orders,
                                     oracle._check_nondegenerate(f), k, ps.tol) == \
                    check_outcome(ref._check_finite_orders,
                                  ref._check_nondegenerate(tuple(f)), k, ps.tol)


def check_outcome(check, *args):
    try:
        check(*args)
    except OrbstabError as exc:
        return type(exc).__name__, str(exc)
    return None

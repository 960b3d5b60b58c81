import functools
import itertools
import math

import numpy as np
import pytest

from orbstab import classifier as cl, kernels, oracle
from orbstab.classifier import classify, parse_entry
from orbstab.errors import AmbiguousDecision, AmbiguousMatching, CenteringFailed
from orbstab.geometry import (MobiusMap, PointSet, RiemannPoint, _matrix_to_zero_one_inf,
                              chordal_distance, mobius_through_triple)
from orbstab.kernels import active_backend, scan_stabilizer_triples
from orbstab.moduli import LambdaTuple, random_lambda
from orbstab.oracle import _pick_base_triple, stabilizer
from orbstab.witness import dihedral_witness, polyhedral_orbit, trivial_witness, witness
from reference_oracle import permutation_of

INFINITY = RiemannPoint.infinity()


def _scan_reference(Z: np.ndarray, W: np.ndarray, nrm: np.ndarray,
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


def run_python_loop(ps):
    z, w, nrm, _, m = scan_args(ps)
    out = np.empty((4096, 3), dtype=np.int64)
    stamp = np.zeros(ps.n, dtype=np.int64)
    cnt = _scan_python(z, w, nrm, *m, ps.tol, out, stamp)
    assert cnt >= 0
    return sorted(map(tuple, out[:cnt].tolist()))


def run_reference(ps):
    z, w, nrm, base, m = scan_args(ps)
    return list(base), _scan_reference(z, w, nrm, m, ps.tol)


def run_scan(ps):
    """The base triple and the rows that the oracle keeps of the scan's
    proposals, which must contain them."""
    z, w, _, base, _ = scan_args(ps)
    proposals = scan_stabilizer_triples(z, w, ps.tol)
    rows, _ = oracle._decide(ps, base, proposals)
    assert set(map(tuple, rows.tolist())) <= set(map(tuple, proposals.tolist()))
    return list(base), rows


def row_set(rows):
    return sorted(map(tuple, rows.tolist()))


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
    # the scalar loop checks the numpy reference scan, and through it the search
    ps = make()
    triples = run_python_loop(ps)
    for run in (run_reference, run_scan):
        base, rows = run(ps)
        assert sorted(map(tuple, rows[:, base].tolist())) == triples


def assert_rows_are_the_permutations_of_their_maps(ps, base, rows):
    assert rows.dtype == np.int64 and rows.shape[1] == ps.n
    src = [ps.points[b] for b in base]
    for row in rows:
        assert sorted(row.tolist()) == list(range(ps.n))
        f = mobius_through_triple(src, [ps.points[t] for t in row[base]])
        assert row.tolist() == permutation_of(ps, f).tolist()


@SHAPES
def test_rows_are_the_permutations_of_their_maps(make):
    ps = make()
    assert_rows_are_the_permutations_of_their_maps(ps, *run_scan(ps))


def test_survivor_count_equals_group_order():
    _, rows = run_scan(polyhedral_orbit(cl.S4, "V8"))
    assert rows.shape == (24, 8)


def test_rows_that_are_no_bijection_are_dropped(monkeypatch):
    # the chordal test does not imply bijectivity, so the scan's own filter
    # must drop a matched row that repeats an index, even with no -1 in it
    ps = polyhedral_orbit(cl.S4, "V6")
    bad = np.array([[1, 1, 2, 3, 4, 5]])
    match = kernels._match

    def with_bad_row(grid, frames, coords):
        return np.concatenate([match(grid, frames, coords), bad])

    monkeypatch.setattr(kernels, "_match", with_bad_row)
    z, w, _ = ps.arrays()
    rows = scan_stabilizer_triples(z, w, ps.tol)
    assert len(rows) >= 24
    assert bad.tolist()[0] not in rows.tolist()


def test_frame_matches_numpy_cross():
    # the written-out cross product gives bit-identical frames
    rng = np.random.default_rng(17)
    for shape in ((), (1,), (40,), (6, 5)):
        a = rng.normal(size=(*shape, 3))
        a /= np.sqrt((a * a).sum(axis=-1, keepdims=True))
        b = rng.normal(size=(*shape, 3))
        v = b - (a * b).sum(axis=-1, keepdims=True) * a
        v /= np.sqrt((v * v).sum(axis=-1, keepdims=True))
        expected = np.stack([a, v, np.cross(a, v)], axis=-2)
        assert np.array_equal(kernels._frame(a, b), expected)


def test_frames_in_one_call_equal_separate_calls():
    # the anchor's frame rides along with the candidates' in the kernel
    rng = np.random.default_rng(18)
    X = rng.normal(size=(30, 3))
    X /= np.sqrt((X * X).sum(axis=1, keepdims=True))
    pairs = rng.integers(0, 30, size=(12, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    both = kernels._frame(X[np.concatenate(([4], pairs[:, 0]))],
                          X[np.concatenate(([7], pairs[:, 1]))])
    assert np.array_equal(both[0], kernels._frame(X[4], X[7]))
    assert np.array_equal(both[1:], kernels._frame(X[pairs[:, 0]], X[pairs[:, 1]]))


def scan_distances(ps):
    """The anchor options' distances to the centered cloud, their sorted
    rows and the matching slack, as ``scan_stabilizer_triples`` derives
    them."""
    z, w, _ = ps.arrays()
    X, stretch, *_ = kernels._center(z, w)
    C, n = X.T, ps.n
    options = sorted({i * (n - 1) // (kernels._ANCHORS - 1)
                      for i in range(kernels._ANCHORS)})
    dist = kernels._distances(C, C[:, options])
    sep = np.sort(kernels._distances(C, C), axis=1)[:, 1].min()
    return dist, np.sort(dist, axis=1), max(sep / 4.0, 2.0 * ps.tol * stretch)


def crowd_sets():
    """Random clouds, witnesses with repeated distances, and a large set."""
    rng = np.random.default_rng(22)
    for n in (5, 8, 13, 30, 47, 80):
        xyz = rng.normal(size=(n, 3))
        xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
        yield f"sphere n={n}", PointSet([RiemannPoint.from_sphere(*r) for r in xyz])
    for p in (5, 12, 40):
        roots = [complex(math.cos(2 * math.pi * k / p), math.sin(2 * math.pi * k / p))
                 for k in range(p)]
        yield f"{p}-gon", PointSet.from_values(roots)
        yield f"{p}-gon and poles", PointSet.from_values([0.0, math.inf] + roots)
    yield "V12", polyhedral_orbit(cl.A5, "V12")
    yield "V30", polyhedral_orbit(cl.A5, "V30")
    yield "trivial n=2018", trivial_witness(2018)


def test_crowds_equal_the_dense_count():
    # two binary searches in an option's sorted row count, for every point,
    # what comparing its distance with every other distance counts
    for name, ps in crowd_sets():
        dist, profiles, slack = scan_distances(ps)
        for s in (0.0, slack, 8.0 * slack):
            for row, profile in zip(dist, profiles):
                dense = (np.abs(row[:, None] - row) <= s).sum(axis=1)
                assert np.array_equal(kernels._crowds(row, profile, s), dense), (name, s)


@pytest.mark.parametrize("slack", [0.01, 0.1, 0.6])
def test_grid_depth_is_the_largest_cell_count(slack):
    rng = np.random.default_rng(19)
    X = rng.normal(size=(50, 3))
    X /= np.sqrt((X * X).sum(axis=1, keepdims=True))
    grid = kernels._Grid(X, slack)
    assert grid.depth == np.unique(grid.keys, return_counts=True)[1].max()


def test_second_moment_is_the_mean_outer_product():
    X = np.random.default_rng(20).normal(size=(25, 3))
    np.testing.assert_allclose(kernels._second_moment(X),
                               (X[:, :, None] * X[:, None, :]).mean(axis=0),
                               rtol=1e-14, atol=1e-15)


def test_active_backend_reports():
    assert active_backend() == "numpy"


def random_mobius(rng):
    while True:
        g = MobiusMap(*(complex(*rng.normal(size=2)) for _ in range(4)))
        if abs(g.a * g.d - g.b * g.c) > 0.2:
            return g


def near_infinity_mobius(ps, rng):
    """A map sending a finite point of ps to chordal distance < 1e-3 of inf."""
    p = next(q for q in ps.points if abs(q.w) == 1.0)
    q = p.value() + 4e-4 * np.exp(2j * math.pi * rng.random())
    # an affine map of modulus >= 1 after z -> 1/(z - q) keeps p's image near inf
    scale = (1.0 + rng.random()) * np.exp(2j * math.pi * rng.random())
    return MobiusMap(scale, complex(*rng.normal(size=2)), 0.0, 1.0).compose(
        MobiusMap(0.0, 1.0, 1.0, -q))


def moved(ps, g, rng):
    points = [g.apply(p) for p in ps.points]
    return PointSet([points[t] for t in rng.permutation(ps.n)], tol=ps.tol)


def witness_sets(n):
    """Each classify(n) witness as built and under two seeded Mobius maps,
    the second sending a point near infinity, with the points shuffled."""
    rng = np.random.default_rng(n)
    for entry in classify(n):
        ps = witness(n, entry)
        yield f"{entry} as built", ps
        yield f"{entry} moved", moved(ps, random_mobius(rng), rng)
        far = moved(ps, near_infinity_mobius(ps, rng), rng)
        assert min(chordal_distance(p, INFINITY) for p in far.points) < 1e-3
        yield f"{entry} near inf", far


@pytest.mark.parametrize("n", range(5, 31))
def test_search_equals_reference_on_every_witness(n):
    for name, ps in witness_sets(n):
        base, rows = run_scan(ps)
        assert row_set(rows) == row_set(run_reference(ps)[1]), name
        assert len(np.unique(rows, axis=0)) == len(rows), name
        assert_rows_are_the_permutations_of_their_maps(ps, base, rows)


def test_k4_moved_rows_are_distinct():
    # duplicate-row regression: with the wide matching slack a slightly-off
    # candidate rotation can snap onto a true permutation; without the
    # dedup step, moved K_4 sets like this one gave 20-28 rows for 4 maps
    entry = parse_entry("K_4, (0, 4)")
    ps = moved(witness(16, entry), random_mobius(np.random.default_rng(7)),
               np.random.default_rng(8))
    _, rows = run_scan(ps)
    assert rows.shape == (4, 16)
    assert row_set(rows) == row_set(run_reference(ps)[1])


def squeezed(ps, eps, rng):
    """ps under z -> eps z + c: every point within about eps of c."""
    g = MobiusMap(eps, complex(*rng.normal(size=2)), 0.0, 1.0)
    return PointSet([g.apply(p) for p in ps.points], tol=ps.tol)


#: The (eps, n) of the squeezed trivial witness on which a proposal misses
#: at tol by less than rounding in its solve could explain: the oracle
#: raises AmbiguousDecision, and the reference, which has no decision gap,
#: keeps the identity alone.
AMBIGUOUS_SQUEEZED = {(1e-7, 6)}


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
def test_squeezed_sets_are_centered(eps):
    # rounding stops centering short of its residual when the set lies in a
    # tiny cap; the search must still run and agree with the reference
    rng = np.random.default_rng(11)
    for n in (6, 9, 12):
        ps = squeezed(trivial_witness(n), eps, rng)
        if (eps, n) in AMBIGUOUS_SQUEEZED:
            assert row_set(run_reference(ps)[1]) == [tuple(range(n))]
            with pytest.raises(AmbiguousDecision):
                stabilizer(ps)
            continue
        assert row_set(run_scan(ps)[1]) == row_set(run_reference(ps)[1]) == [
            tuple(range(n))]
        assert stabilizer(ps).label == cl.LABEL_TRIVIAL


def near_tol_sets(rng, tol=1e-3):
    """Two Z_p orbits about k * tol apart, a third on |z| = 0.5, 0 and inf,
    each point jittered chordally by up to tol / 4, as built and moved."""
    for k in (2.5, 3.0, 4.0, 6.0):
        for p in (3, 4, 5, 7):
            w = np.exp(2j * math.pi * np.arange(p) / p)
            values = [*w, *(1.0 + k * tol) * w, *(0.5 * np.exp(0.3j) * w)]
            points = [RiemannPoint.from_value(
                v + tol / 4 * rng.random() * (1 + abs(v) ** 2) / 2
                * np.exp(2j * math.pi * rng.random())) for v in values]
            ps = PointSet(points + [RiemannPoint.from_value(0), INFINITY], tol=tol)
            yield f"k={k} p={p} built", ps
            while True:  # a map that keeps every distance above 2 * tol
                try:
                    ps = moved(ps, random_mobius(rng), rng)
                    break
                except AmbiguousMatching:
                    continue
            yield f"k={k} p={p} moved", ps


def test_search_equals_reference_when_tol_is_near_half_the_separation():
    # the tol balls, stretched by centering, may be wider than a quarter of
    # the separation; the slack must cover them and lookups take the nearest
    rng = np.random.default_rng(5)
    for name, ps in near_tol_sets(rng):
        assert row_set(run_scan(ps)[1]) == row_set(run_reference(ps)[1]), name


def test_centering_failure_is_named(monkeypatch):
    monkeypatch.setattr(kernels, "CENTERING_STEPS", 1)
    ps = squeezed(trivial_witness(12), 1e-3, np.random.default_rng(3))
    with pytest.raises(CenteringFailed, match=r"residual .* after 1 Newton steps"):
        run_scan(ps)
    with pytest.raises(CenteringFailed):
        stabilizer(ps)


class _Counted(np.ndarray):
    """An array that counts the ufunc passes that read it."""

    reads = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.reads += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_centering_applies_each_trial_map_once(monkeypatch):
    # the stretch comes from the pair norms of the accepted trial: no map
    # is applied to the input outside the trials, and the input is read
    # only when it is stacked into one array
    trials, applied = [], []

    def counted(calls, original):
        def wrapper(*args):
            calls.append(1)
            return original(*args)
        return wrapper

    monkeypatch.setattr(kernels, "_boost", counted(trials, kernels._boost))
    monkeypatch.setattr(kernels, "_moved_sphere",
                        counted(applied, kernels._moved_sphere))
    rng = np.random.default_rng(6)
    for ps in (moved(witness(16, parse_entry("K_4, (0, 4)")), random_mobius(rng), rng),
               squeezed(trivial_witness(9), 1e-6, rng)):
        z, w, _ = ps.arrays()
        _Counted.reads = 0
        trials.clear(), applied.clear()
        X, stretch, shift, kappa, r, steps = kernels._center(z.view(_Counted), w.view(_Counted))
        assert steps > 0 and len(applied) == len(trials) >= steps
        assert _Counted.reads == 0


def test_grid_builds_no_corner_where_and_looks_up_without_prefill(monkeypatch):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 3))
    X /= np.sqrt((X * X).sum(axis=1, keepdims=True))

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np, "where", forbidden)
    grid = kernels._Grid(X, 0.1)
    monkeypatch.undo()
    monkeypatch.setattr(np, "full", forbidden)
    found = grid.lookup(X.T[:, None, :] + 1e-9)
    assert found.tolist() == [list(range(40))]


def asym_round(seed):
    """The sets of one oracle-asym benchmark round, drawn as the benchmark
    draws them from its seed."""
    from test_benchmark_contract import workloads
    rng = np.random.default_rng([seed, workloads.NAMES.index("oracle-asym")])
    for kind, n in workloads._ASYM_ROUND:
        yield f"oracle-asym seed={seed} {kind} n={n}", workloads._asym_set(rng, kind, n)


def k_n_sets():
    """Random K_n points (0, 1, inf and n - 3 generic values), n = 5..12,
    and K_n points closed under complex conjugation: a mirror image shares
    its point's distances, so the anchor's mirror pair can pass both
    distance screens, but no Mobius map keeps the set."""
    rng = np.random.default_rng(25)
    for n in range(5, 13):
        for i in range(4):
            yield f"K_{n} #{i}", random_lambda(n, rng).point_set()
    rng = np.random.default_rng(26)
    for n in range(5, 13):
        pairs, odd = divmod(n - 3, 2)
        for i in range(2):
            half = np.array(random_lambda(3 + pairs, rng).values)
            values = [*half, *half.conj(), *([2.5 + rng.random()] if odd else [])]
            yield f"K_{n} mirrored #{i}", LambdaTuple(tuple(values)).point_set()


#: The asymmetric sets of the third-point corpus, in parts: the
#: oracle-asym rounds of seeds 1 to 3, and random K_n points.
ASYMMETRIC_CORPUS = {
    **{f"oracle-asym {seed}": functools.partial(asym_round, seed) for seed in (1, 2, 3)},
    "K_n": k_n_sets,
}

#: The third-point corpus: the witnesses for n = 5..30 as built, moved and
#: moved near infinity, and the asymmetric sets.
THIRD_POINT_CORPUS = {
    "witnesses": lambda: (s for n in range(5, 31) for s in witness_sets(n)),
    **ASYMMETRIC_CORPUS,
}


def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return call


def record_frames(monkeypatch) -> list:
    """Record the arguments of each _frame call: the anchor images and the
    partner images of the candidate pairs."""
    calls = []
    frame = kernels._frame

    def recorded(starts, stops):
        calls.append((starts, stops))
        return frame(starts, stops)

    monkeypatch.setattr(kernels, "_frame", recorded)
    return calls


def record_third_point(monkeypatch) -> list:
    """Record each third-point check: its arguments and its result."""
    calls = []
    lands = kernels._third_point_lands

    def recorded(frames, coords, C, window):
        calls.append((frames, coords, C, window, lands(frames, coords, C, window)))
        return calls[-1][-1]

    monkeypatch.setattr(kernels, "_third_point_lands", recorded)
    return calls


#: Per part of the third-point corpus, how many scans the profile and
#: partner screens end before the third point, leaving the anchor's own
#: pair alone, and how many reach the third point.
SCREENED = {"witnesses": (20, 1048), "oracle-asym 1": (32, 7), "oracle-asym 2": (32, 7),
            "oracle-asym 3": (32, 7), "K_n": (42, 6)}


@pytest.mark.parametrize("part", THIRD_POINT_CORPUS)
def test_third_point_drops_exactly_the_frames_that_match_it_to_nothing(
        monkeypatch, part):
    calls = record_third_point(monkeypatch)
    dropped = screened = reached = 0
    for name, ps in THIRD_POINT_CORPUS[part]():
        calls.clear()
        z, w, _ = ps.arrays()
        rows = scan_stabilizer_triples(z, w, ps.tol)
        if not calls:
            assert rows.tolist() == [list(range(ps.n))], name
            screened += 1
            continue
        (frames, coords, C, window, lands), = calls
        c = int(np.abs(coords[2]).argmax())
        rows = kernels._match(kernels._Grid(C.T, window), frames, coords)
        assert np.array_equal(rows[:, c] != -1, lands), name
        dropped += int((~lands).sum())
        reached += 1
    assert (screened, reached) == SCREENED[part]
    assert dropped > 0


def within_tol_sets():
    """Every classify(n) witness for n = 5..40 under a random Mobius map
    drawn as the benchmark draws them, every other one sending a point near
    infinity, with each point then moved chordally by at most tol / 2 in a
    random direction; with the rows of the witness's stabilizer."""
    from test_benchmark_contract import workloads
    rng = np.random.default_rng(27)
    for n in range(5, 41):
        for i, entry in enumerate(classify(n)):
            ps = witness(n, entry)
            g = workloads._random_mobius(rng, ps.points, near_infinity=bool(i % 2))
            yield f"{entry} #{i}", within_tol(ps, g, ps.tol, rng), stabilizer(ps).rows


def within_tol(ps, g, tol, rng):
    """ps under the Mobius map g, at this tol, with each point then moved
    chordally by at most tol / 2 in a random direction."""
    xyz = np.array([g.apply(p).to_sphere() for p in ps.points])
    step = rng.normal(size=xyz.shape)
    step -= (step * xyz).sum(axis=1, keepdims=True) * xyz
    step *= tol / 2 * rng.random((ps.n, 1)) / np.linalg.norm(step, axis=1, keepdims=True)
    # a tangent step of length t moves a point by a chord below t
    xyz += step
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    return PointSet([RiemannPoint.from_sphere(*r) for r in xyz], tol=tol)


def squeezed_within_tol_sets(tol=1e-3):
    """Every classify(n) witness for n = 5..8 with more than the identity,
    at tol 1e-3, squeezed by z -> eps z + c for eps from 0.5 down to 0.02,
    so that centering stretches it by up to a few hundred, each point then
    moved by at most tol / 2 as in ``within_tol_sets``; with the rows of
    the witness's stabilizer."""
    rng = np.random.default_rng(5)
    for n in range(5, 9):
        for entry in classify(n):
            ps = witness(n, entry)
            rows = stabilizer(ps).rows
            if len(rows) == 1:
                continue
            for eps in (0.5, 0.2, 0.1, 0.05, 0.03, 0.02):
                g = MobiusMap(eps, complex(*rng.normal(size=2)), 0.0, 1.0)
                try:
                    moved_ps = within_tol(ps, g, tol, rng)
                except AmbiguousMatching:  # squeezed to within 2 tol
                    continue
                yield f"{entry} eps={eps}", moved_ps, rows


def recorded_results(monkeypatch, name) -> list:
    """Record what each call of the kernels function ``name`` returns."""
    results = []
    function = getattr(kernels, name)

    def recorded(*args):
        results.append(function(*args))
        return results[-1]

    monkeypatch.setattr(kernels, name, recorded)
    return results


def test_third_point_window_keeps_every_symmetry_within_tol(monkeypatch):
    # no frame of a true symmetry sends the third point outside the window,
    # which is narrower than the slack on all but three of the sets whose
    # scan reaches the third point; the trivial sets end at the screens
    calls = record_third_point(monkeypatch)
    windows = recorded_results(monkeypatch, "_third_point_window")
    sets = screened = tight = 0
    for name, ps, rows in within_tol_sets():
        calls.clear(), windows.clear()
        z, w, _ = ps.arrays()
        proposed = set(map(tuple, scan_stabilizer_triples(z, w, ps.tol).tolist()))
        assert set(map(tuple, rows.tolist())) <= proposed, name
        sets += 1
        if not calls:
            assert len(rows) == 1, name
            screened += 1
            continue
        assert calls[0][3] <= windows[0], name
        tight += calls[0][3] == windows[0]
    assert (sets, screened, tight) == (541, 17, 521)


def test_distance_screens_keep_every_symmetry_within_tol(monkeypatch):
    # every true symmetry moves every point's sorted distance profile, and
    # every distance, by no more than the screens' reach, the distance
    # window or the slack where that is narrower, whichever point is the
    # anchor and whichever the partner.  The window is narrower only inside
    # the premise of the rotation miss, tol stretch < 1/16; three squeezed
    # sets at tol 1e-3 lie in the band 1/16 <= tol stretch < sep / 16,
    # where a window of 4 tol stretch could have been narrower
    windows = recorded_results(monkeypatch, "_distance_window")
    worst = math.inf
    sets = narrow = band = 0
    for name, ps, rows in itertools.chain(within_tol_sets(), squeezed_within_tol_sets()):
        windows.clear()
        z, w, _ = ps.arrays()
        scan_stabilizer_triples(z, w, ps.tol)
        X, stretch, *_ = kernels._center(z, w)
        C = np.ascontiguousarray(X.T)
        dist = kernels._distances(C, C)
        profiles = np.sort(dist, axis=1)
        sep = float(profiles[:, 1].min())
        slack = max(sep / 4.0, 2.0 * ps.tol * stretch)
        window, = windows
        sets += 1
        narrow += window < slack
        band += 1.0 <= 16.0 * ps.tol * stretch < sep
        assert window >= slack or 16.0 * ps.tol * stretch < 1.0, name
        for row in rows:
            moved = max(np.abs(profiles[row] - profiles).max(),
                        np.abs(dist[np.ix_(row, row)] - dist).max())
            assert moved <= min(window, slack), name
            if moved > 0.0 and window < slack:  # not the identity
                worst = min(worst, window / moved)
    assert (sets, narrow, band) == (689, 564, 3)
    # the smallest margin, window / largest true move, where the window is
    # narrower than the slack: 18.0 (D_3 (0, 0, 6))
    assert worst >= 16.0


@pytest.mark.parametrize("part", ASYMMETRIC_CORPUS)
def test_search_equals_reference_on_asymmetric_sets(part):
    # the witnesses n = 5..30 are test_search_equals_reference_on_every_witness's
    for name, ps in ASYMMETRIC_CORPUS[part]():
        assert row_set(run_scan(ps)[1]) == row_set(run_reference(ps)[1]), name


def test_candidate_frame_totals(monkeypatch):
    # the frames built for one anchor and its partner, summed over the
    # witnesses n = 5..30 as built and over each oracle-asym round of seeds
    # 1 to 3; an anchor or partner rule that multiplies them shows here
    built = [(str(entry), witness(n, entry)) for n in range(5, 31) for entry in classify(n)]
    calls = record_frames(monkeypatch)

    def total(sets):
        calls.clear()
        for _, ps in sets:
            z, w, _ = ps.arrays()
            scan_stabilizer_triples(z, w, ps.tol)
        return sum(len(starts) for starts, _ in calls)

    assert total(built) == 4794
    assert [total(asym_round(seed)) for seed in (1, 2, 3)] == [14, 14, 14]


def test_sets_ending_at_the_screens_read_trivial_without_a_frame(monkeypatch):
    # the oracle-asym items whose screens leave the anchor's own pair alone
    # build no frame, and the oracle still reads them as trivial
    calls = record_frames(monkeypatch)
    screened = []
    for seed in (1, 2, 3):
        for name, ps in asym_round(seed):
            calls.clear()
            z, w, _ = ps.arrays()
            scan_stabilizer_triples(z, w, ps.tol)
            if not calls:
                screened.append((name, ps))
    assert len(screened) == 3 * 32
    monkeypatch.setattr(kernels, "_frame", forbidden("_frame"))
    for name, ps in screened:
        res = stabilizer(ps)
        assert res.order == 1 and res.label == cl.LABEL_TRIVIAL, name

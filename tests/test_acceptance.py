"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Every tolerance and time budget is pinned here.
"""

import math
import pathlib
import time

import numpy as np

from orbstab import classifier as cl
from orbstab.classifier import (classify, classify_lines, cyclic, dihedral,
                                parse_entry)
from orbstab.geometry import PointSet, maps_equal
from orbstab.moduli import (ANHARMONIC_GROUP, all_permutations, g_sigma_closed,
                            g_sigma_definitional, phi_check, preset_lambda,
                            random_lambda, random_permutation, tuple_deviation,
                            verify_group_law)
from orbstab.oracle import stabilizer
from orbstab.witness import cyclic_witness, dihedral_witness, witness
from orbstab.witness import _dihedral_orbit, _polyhedral_assembly, _unit

DATA = pathlib.Path(__file__).parent / "data"
N_MAX = 300


def report(number, name, elapsed, budget):
    line = f"acceptance {number}: {name}: PASS ({elapsed:.3f}s, budget {budget}s)"
    print(line)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_golden_listing():
    golden_text = (DATA / "golden_2018.txt").read_text()
    with Timer() as t:
        lines = classify_lines(2018)
    normalize = lambda ls: [" ".join(l.split()) for l in ls]
    assert normalize(lines) == normalize(golden_text.splitlines())
    assert [parse_entry(l) for l in lines] == \
        [parse_entry(l) for l in golden_text.splitlines()]
    assert t.elapsed < 0.1
    report(1, "golden 2018 listing", t.elapsed, 0.1)


def crange(lo, hi):
    return set(range(lo, hi + 1))


def expected_polyhedral_set(xs, period):
    out = set()
    for x in xs:
        for k in range(0, N_MAX // period + 2):
            if x == 0 and k == 0:
                continue
            if 1 <= x + period * k <= N_MAX:
                out.add(x + period * k)
    return out


def test_criterion_2_cardinality_set_corollaries():
    with Timer() as t:
        present: dict[object, set[int]] = {}
        for n in range(1, N_MAX + 1):
            for e in classify(n):
                present.setdefault(e.label, set()).add(n)

        assert present[cl.LABEL_A5] == expected_polyhedral_set(
            (0, 12, 20, 30, 32, 42, 50, 62), 60)
        assert present[cl.LABEL_S4] == expected_polyhedral_set(
            (0, 6, 8, 12, 14, 18, 20, 26), 24)
        a4 = {x + 12 * k for x in (0, 4, 6, 8, 10, 14)
              for k in range(1, N_MAX // 12 + 2)} | {4, 10}
        assert present[cl.LABEL_A4] == a4 & crange(1, N_MAX)

        for p in range(3, N_MAX + 1):
            if p == 4:
                continue
            expected = {x + p * k for x in (0, 2)
                        for k in range(1, N_MAX // p + 2)} & crange(1, N_MAX)
            assert present.get(dihedral(p), set()) == expected, f"D_{p}"
        d4 = ({x + 4 * k for x in (0, 2) for k in range(2, N_MAX // 4 + 2)}
              | {4}) & crange(1, N_MAX)
        assert present[dihedral(4)] == d4
        assert present[cl.LABEL_K4] == {2 * k for k in range(2, N_MAX // 2 + 1)}

        for p in range(4, N_MAX + 1):
            expected = ({x + p * k for x in (0, 1, 2)
                         for k in range(3, N_MAX // p + 2)}
                        | {1 + p, 1 + 2 * p}) & crange(1, N_MAX)
            assert present.get(cyclic(p), set()) == expected, f"Z_{p}"
        z3 = ({x + 3 * k for x in (0, 1, 2) for k in range(3, N_MAX // 3 + 2)}
              | {7}) & crange(1, N_MAX)
        assert present[cyclic(3)] == z3
        z2 = ({x + 2 * k for x in (0, 1, 2) for k in range(3, N_MAX // 2 + 2)}
              | {5}) & crange(1, N_MAX)
        assert present[cl.LABEL_Z2] == z2

        assert present[cl.LABEL_TRIVIAL] == crange(5, N_MAX)
        assert present[cl.LABEL_INFINITE] == {1, 2}
    assert t.elapsed < 1.0
    report(2, "cardinality-set corollaries up to 300", t.elapsed, 1.0)


def test_criterion_3_witness_oracle_round_trip():
    with Timer() as t:
        checked = 0
        for n in range(5, 21):
            for entry in classify(n):
                if entry.label.kind == cl.INFINITE:
                    continue
                ps = witness(n, entry, tol=1e-8)
                assert ps.n == n, (n, entry)
                got = stabilizer(ps)
                assert got.label == entry.label, (n, entry, got.entry())
                assert got.index == entry.index, (n, entry, got.entry())
                checked += 1
    assert t.elapsed < 120.0
    report(3, f"round trip of {checked} entries for n in [5, 20]",
           t.elapsed, 120)


def test_criterion_4_unrealizable_indices_oracle_checks():
    with Timer() as t:
        for p in (3, 5):
            got = stabilizer(dihedral_witness(p, (0, 2, 0), force=True))
            assert got.label == dihedral(2 * p)
        got = stabilizer(dihedral_witness(4, (1, 1, 0), force=True))
        assert got.label == cl.LABEL_S4
        for index in ((2, 0, 0), (0, 1, 0), (2, 1, 0)):
            got = stabilizer(_polyhedral_assembly(cl.A4, index, 0, 1e-8))
            assert got.label == cl.LABEL_S4
        got = stabilizer(cyclic_witness(5, (0, 1), force=True))
        assert got.label == dihedral(5)
        got = stabilizer(dihedral_witness(2, (3, 0), force=True))
        assert got.label == cl.LABEL_S4
    assert t.elapsed < 10.0
    report(4, "excluded indices force the predicted larger groups",
           t.elapsed, 10)


def test_criterion_5_specific_witness_configurations():
    with Timer() as t:
        res = stabilizer(PointSet.from_values([0, 1, float("inf")], tol=1e-8))
        assert res.order == 6
        for f in res.elements:
            assert any(maps_equal(f, h, tol=1e-8) for h in ANHARMONIC_GROUP)
        for h in ANHARMONIC_GROUP:
            assert any(maps_equal(f, h, tol=1e-8) for f in res.elements)

        res = stabilizer(PointSet.from_values([1, 1j, -1, -1j, 2], tol=1e-8))
        assert res.label == cl.LABEL_TRIVIAL

        res = stabilizer(PointSet.from_values([0, 1, -1, 2, -2], tol=1e-8))
        assert res.label == cl.LABEL_Z2 and res.index == (1, 2)

        for k in (1, 2, 3):
            values = []
            for l in range(1, k + 1):
                values += _dihedral_orbit(3, _unit(l / (72.0 * k * k)))
            res = stabilizer(PointSet.from_values(values, tol=1e-8))
            assert res.label == dihedral(3) and res.index == (0, 0, k)
    assert t.elapsed < 10.0
    report(5, "explicit witness configurations", t.elapsed, 10)


def test_criterion_6_moduli_action():
    with Timer() as t:
        for n in (5, 6):
            rep = verify_group_law(n, trials=500, rng_seed=0, tol=1e-8)
            assert rep.max_deviation < 1e-7, rep.summary()
            assert rep.passed, rep.summary()

        lam = preset_lambda("generic")
        movers = sum(
            1 for sigma in all_permutations(5)
            if not sigma.is_identity()
            and tuple_deviation(g_sigma_closed(lam, sigma), lam.values) > 1e-7)
        assert movers == math.factorial(5) - 1

        rng = np.random.default_rng(2024)
        for n in (5, 6, 7):
            worst = 0.0
            for _ in range(1000):
                lam = random_lambda(n, rng)
                sigma = random_permutation(n, rng)
                dev = tuple_deviation(g_sigma_closed(lam, sigma),
                                      g_sigma_definitional(lam, sigma))
                worst = max(worst, dev)
            assert worst < 1e-9, (n, worst)
    assert t.elapsed < 30.0
    report(6, "group law, faithfulness, closed-form agreement", t.elapsed, 30)


def test_criterion_7_isomorphism_phi():
    with Timer() as t:
        for name, order in (("d5", 10), ("z2", 2), ("generic", 1)):
            rep = phi_check(preset_lambda(name))
            assert rep.passed, rep.summary()
            assert rep.order_G == rep.order_A == order
            assert rep.hom_pairs_ok == rep.hom_pairs == order * order
    assert t.elapsed < 10.0
    report(7, "stabilizer isomorphism on the presets", t.elapsed, 10)


def test_criterion_8_every_group_is_realized():
    with Timer() as t:
        groups = [cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4, cl.LABEL_K4,
                  cl.LABEL_Z2]
        groups += [dihedral(p) for p in range(3, 51)]
        groups += [cyclic(p) for p in range(3, 51)]
        bound = max(5 * (g.order + 2) for g in groups)
        present: dict[object, int] = {}
        for n in range(5, bound + 1):
            for e in classify(n):
                present.setdefault(e.label, n)
        for g in groups:
            first = present.get(g)
            assert first is not None and first <= 5 * (g.order + 2), g
    assert t.elapsed < 1.0
    report(8, "every finite group appears at some n in [5, 5(|G|+2)]",
           t.elapsed, 1)

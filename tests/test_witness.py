import cmath
import functools
import importlib
import itertools
import math

import pytest

import reference_witness as ref
from reference_oracle import set_equal
from orbstab import classifier as cl, geometry
from orbstab.classifier import (ClassificationEntry, cardinality_of, classify,
                                cyclic, dihedral, parse_entry)
from orbstab.errors import (AmbiguousDecision, InvalidCardinality, SeedOnSpecialLocus,
                            UnrealizableIndex, WitnessSearchExhausted)
from orbstab.geometry import PointSet, RiemannPoint
from orbstab.oracle import stabilizer
from orbstab.witness import (PHI, PSI, _generators, _generic_seeds,
                             _orbit_of, _polyhedral_assembly, _special_orbits,
                             cyclic_witness, dihedral_witness,
                             polyhedral_group, polyhedral_orbit,
                             trivial_witness, witness)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


class TestPolyhedralGroups:
    @pytest.mark.parametrize("kind,order", [(cl.A4, 12), (cl.S4, 24), (cl.A5, 60)])
    def test_group_orders(self, kind, order):
        assert len(polyhedral_group(kind)) == order

    def test_octahedron_vertices(self):
        v6 = polyhedral_orbit(cl.S4, "V6")
        expected = PointSet.from_values([0, float("inf"), 1, -1, 1j, -1j])
        assert set_equal(v6, expected)

    def test_icosahedron_vertices_lie_on_polar_rings(self):
        v12 = polyhedral_orbit(cl.A5, "V12")
        zeta = cmath.exp(2j * math.pi / 5.0)
        ring_hi = [GOLDEN_RATIO * zeta ** k for k in range(5)]
        ring_lo = [zeta ** k * cmath.exp(1j * math.pi / 5.0) / GOLDEN_RATIO
                   for k in range(5)]
        expected = PointSet.from_values(
            [0, float("inf")] + ring_hi + ring_lo)
        assert set_equal(v12, expected)

    def test_special_orbit_stabilizers(self):
        assert stabilizer(polyhedral_orbit(cl.A4, "V4a")).entry() == \
            ClassificationEntry(cl.LABEL_A4, (1, 0, 0))
        assert stabilizer(polyhedral_orbit(cl.A5, "V30")).entry() == \
            ClassificationEntry(cl.LABEL_A5, (0, 0, 1, 0))
        assert stabilizer(polyhedral_orbit(cl.S4, "V12")).entry() == \
            ClassificationEntry(cl.LABEL_S4, (0, 0, 1, 0))

    def test_generic_orbit_has_full_size(self):
        seed = RiemannPoint.from_value(0.31 + 0.21j)
        assert polyhedral_orbit(cl.A5, seed).n == 60

    def test_seed_on_special_locus_rejected(self):
        with pytest.raises(SeedOnSpecialLocus):
            polyhedral_orbit(cl.S4, RiemannPoint.from_value(1.0))

    @pytest.mark.parametrize("offset", [3e-9, 8e-9])
    def test_seed_near_a_vertex_rejected(self, offset):
        # an icosahedron vertex sits at 0: at 3e-9 the five images about it
        # merge at tol, at 8e-9 they stay apart but within 2*tol
        with pytest.raises(SeedOnSpecialLocus):
            polyhedral_orbit(cl.A5, RiemannPoint.from_value(offset))

    def test_seed_clear_of_the_vertex_accepted(self):
        assert polyhedral_orbit(cl.A5, RiemannPoint.from_value(3e-8)).n == 60


def _bits(points):
    return [tuple(x.hex() for x in (p.z.real, p.z.imag, p.w.real, p.w.imag))
            for p in points]


POLYHEDRAL_KINDS = [cl.A4, cl.S4, cl.A5]


@functools.lru_cache(maxsize=None)
def _reference_group(kind):
    return tuple(ref._close_group(_generators(kind),
                                  max_order=cl.GroupLabel(kind).order + 1))


class TestAgainstReference:
    """The polyhedral constructions equal ``reference_witness.py``'s bit
    for bit."""

    @pytest.mark.parametrize("kind", POLYHEDRAL_KINDS)
    def test_group_elements_in_order(self, kind):
        def entries(group):
            return [tuple(x.hex() for e in (f.a, f.b, f.c, f.d)
                          for x in (e.real, e.imag)) for f in group]
        assert entries(polyhedral_group(kind)) == entries(_reference_group(kind))

    @pytest.mark.parametrize("kind", POLYHEDRAL_KINDS)
    def test_special_orbits_by_tag(self, kind):
        got = _special_orbits(kind)
        want = ref._special_orbits(kind, _reference_group(kind))
        assert list(got) == list(want)
        for tag in want:
            assert _bits(got[tag]) == _bits(want[tag]), tag

    @pytest.mark.parametrize("kind", POLYHEDRAL_KINDS)
    def test_generic_orbits_of_the_seed_schedule(self, kind):
        group, want_group = polyhedral_group(kind), _reference_group(kind)
        for attempt in range(16):
            for k in (1, 2, 3):
                for seed in _generic_seeds(len(group), k, attempt):
                    got = _orbit_of(seed, group, 1e-8)
                    assert len(got) == len(group)
                    assert _bits(got) == _bits(ref._orbit_of(seed, want_group, 1e-8))

    def test_near_special_seed_orbits(self):
        group, want_group = polyhedral_group(cl.A5), _reference_group(cl.A5)
        for offset in (3e-9, 8e-9, 3e-8):
            seed = RiemannPoint.from_value(offset)
            assert _bits(_orbit_of(seed, group, 1e-8)) == \
                _bits(ref._orbit_of(seed, want_group, 1e-8))

    def test_filling_the_caches_compares_no_map_pairwise(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("maps_equal called")
        monkeypatch.setattr(geometry, "maps_equal", refuse)
        monkeypatch.setattr(importlib.import_module("orbstab.witness"),
                            "maps_equal", refuse, raising=False)
        polyhedral_group.cache_clear()
        _special_orbits.cache_clear()
        for kind in POLYHEDRAL_KINDS:
            assert len(polyhedral_group(kind)) == cl.GroupLabel(kind).order
            _special_orbits(kind)


class TestDihedralWitness:
    def test_generic_orbits_d3(self):
        ps = dihedral_witness(3, (0, 0, 1))
        expected = [cmath.exp(2j * math.pi / 24) * cmath.exp(2j * math.pi * k / 3)
                    for k in range(3)]
        expected += [cmath.exp(-2j * math.pi / 24) * cmath.exp(2j * math.pi * k / 3)
                     for k in range(3)]
        assert set_equal(ps, PointSet.from_values(expected))
        assert stabilizer(ps).entry() == ClassificationEntry(dihedral(3), (0, 0, 1))

    def test_plain_roots(self):
        ps = dihedral_witness(5, (0, 1, 0))
        assert stabilizer(ps).entry() == ClassificationEntry(dihedral(5), (0, 1, 0))

    def test_klein_with_poles(self):
        ps = dihedral_witness(2, (1, 1))
        assert ps.n == 6
        assert stabilizer(ps).entry() == ClassificationEntry(cl.LABEL_K4, (1, 1))

    @pytest.mark.parametrize("p,index", [
        (3, (0, 2, 0)), (5, (1, 2, 0)), (4, (1, 1, 0)), (7, (1, 0, 0))])
    def test_unrealizable_rejected(self, p, index):
        with pytest.raises(UnrealizableIndex):
            dihedral_witness(p, index)

    def test_k4_without_generic_orbit_rejected(self):
        with pytest.raises(UnrealizableIndex):
            dihedral_witness(2, (2, 0))

    def test_force_build_reveals_larger_group(self):
        # both root families together are the 2p-th roots of unity
        got = stabilizer(dihedral_witness(3, (0, 2, 0), force=True))
        assert got.label == dihedral(6)
        # poles plus the order-4 roots form the octahedron
        got = stabilizer(dihedral_witness(4, (1, 1, 0), force=True))
        assert got.label == cl.LABEL_S4


class TestCyclicWitness:
    def test_fixed_point_plus_roots(self):
        ps = cyclic_witness(5, (1, 1))
        assert stabilizer(ps).entry() == ClassificationEntry(cyclic(5), (1, 1))

    def test_three_shells(self):
        ps = cyclic_witness(4, (0, 3))
        expected = [r * cmath.exp(2j * math.pi * k / 4)
                    for r in (1.0, 2.0, 3.0) for k in range(4)]
        assert set_equal(ps, PointSet.from_values(expected))
        assert stabilizer(ps).entry() == ClassificationEntry(cyclic(4), (0, 3))

    def test_z2_families(self):
        assert set_equal(cyclic_witness(2, (1, 2)),
                         PointSet.from_values([0, 1, -1, 2, -2]))
        got = stabilizer(cyclic_witness(2, (0, 3)))
        assert got.entry() == ClassificationEntry(cl.LABEL_Z2, (0, 3))
        got = stabilizer(cyclic_witness(2, (2, 3)))
        assert got.entry() == ClassificationEntry(cl.LABEL_Z2, (2, 3))

    @pytest.mark.parametrize("p,index", [
        (5, (0, 1)), (5, (0, 2)), (5, (2, 1)), (5, (2, 2)), (3, (1, 1)),
        (2, (1, 1)), (2, (0, 2)), (2, (2, 2))])
    def test_unrealizable_rejected(self, p, index):
        with pytest.raises(UnrealizableIndex):
            cyclic_witness(p, index)

    def test_force_build_reveals_larger_group(self):
        got = stabilizer(cyclic_witness(5, (0, 1), force=True))
        assert got.label == dihedral(5)
        # 0 with the third roots of unity is a regular tetrahedron
        got = stabilizer(cyclic_witness(3, (1, 1), force=True))
        assert got.label == cl.LABEL_A4


def _rejected_small_indices():
    """(builder, p, label, index) for every non-empty index with at most two
    generic orbits and at least 3 points that the classifier rejects."""
    cases = []
    for p in range(2, 9):
        dihedral_slots = [range(4)] if p == 2 else [range(2), range(3)]
        for build, label, slots in ((dihedral_witness, dihedral(p), dihedral_slots),
                                    (cyclic_witness, cyclic(p), [range(3)])):
            for index in itertools.product(*slots, range(3)):
                if (any(index) and not cl.realizable(label, index)
                        and cardinality_of(ClassificationEntry(label, index)) >= 3):
                    cases.append((build, p, label, index))
    return cases


def test_rejected_indices_have_a_larger_stabilizer():
    # the oracle, which knows nothing of the classifier's rule, must find a
    # strictly larger group on every index the rule rejects
    cases = _rejected_small_indices()
    assert len(cases) == 44
    for build, p, label, index in cases:
        got = stabilizer(build(p, index, force=True))
        assert got.label != label and got.order > label.order, (label, index)


class TestTrivialWitness:
    def test_examples(self):
        assert set_equal(trivial_witness(5),
                         PointSet.from_values([1, 1j, -1, -1j, 2]))
        assert stabilizer(trivial_witness(6)).label == cl.LABEL_TRIVIAL

    def test_below_five_rejected(self):
        with pytest.raises(InvalidCardinality):
            trivial_witness(4)


class TestConjugators:
    def test_phi_psi_fixed_points(self):
        # phi rotates about +-i, psi about +-1: each permutes the three
        # 2-point orbit families of the standard Klein four-group
        i_pts = (RiemannPoint.from_value(1j), RiemannPoint.from_value(-1j))
        for p in i_pts:
            assert PHI.apply(p).value() == pytest.approx(p.value())
        one_pts = (RiemannPoint.from_value(1.0), RiemannPoint.from_value(-1.0))
        for p in one_pts:
            assert PSI.apply(p).value() == pytest.approx(p.value())

    def test_conjugated_dihedral_family_still_recognized(self):
        # image of a standard order-8 dihedral configuration under phi:
        # contains the Klein four-group in a rotated position
        base = dihedral_witness(4, (1, 1, 1))
        moved = PointSet([PHI.apply(p) for p in base.points], tol=base.tol)
        got = stabilizer(moved)
        assert got.label == dihedral(4)
        assert got.index == (1, 1, 1)


class TestWitnessDispatcher:
    def test_icosahedron_entry(self):
        ps = witness(12, ClassificationEntry(cl.LABEL_A5, (1, 0, 0, 0)))
        assert set_equal(ps, polyhedral_orbit(cl.A5, "V12"))

    def test_poles_plus_pentagon(self):
        ps = witness(7, ClassificationEntry(dihedral(5), (1, 1, 0)))
        roots = [cmath.exp(2j * math.pi * k / 5) for k in range(5)]
        assert set_equal(ps, PointSet.from_values([0, float("inf")] + roots))

    def test_entry_not_in_classification(self):
        with pytest.raises(ValueError):
            witness(5, ClassificationEntry(cl.LABEL_A5, (1, 0, 0, 0)))
        with pytest.raises(ValueError, match="not in the classification"):
            witness(7, ClassificationEntry(dihedral(4), (1, 0, 1)))
        with pytest.raises(InvalidCardinality):
            witness(0, ClassificationEntry(cl.LABEL_INFINITE, ()))

    def test_sets_closer_than_the_tol_fail_the_attempt(self):
        # at tol 1e-3 this entry's generic orbits are closer than 2 tol, on
        # its one attempt; the search names the error rather than raising it
        with pytest.raises(WitnessSearchExhausted,
                           match=r"after 1 attempt\(s\): attempt 0: AmbiguousMatching: "):
            witness(60, parse_entry("K_4,(0,15)"), tol=1e-3)
        # a polyhedral entry moves its seeds on retries until a set is built
        ps = witness(60, parse_entry("A_4,(0,0,5)"), tol=1e-3)
        assert stabilizer(ps).entry() == parse_entry("A_4,(0,0,5)")

    def test_an_ambiguous_decision_fails_the_attempt(self, monkeypatch):
        # an oracle that cannot decide a proposed set fails that attempt
        # only; the next seed is tried, and a single attempt is named
        W = importlib.import_module("orbstab.witness")
        calls = []

        def undecided_once(ps):
            calls.append(ps)
            if len(calls) == 1:
                raise AmbiguousDecision("a proposal lies in the decision gap")
            return stabilizer(ps)

        monkeypatch.setattr(W, "stabilizer", undecided_once)
        entry = parse_entry("A_4,(0,0,5)")
        assert stabilizer(witness(60, entry)).entry() == entry
        assert len(calls) == 2
        calls.clear()
        with pytest.raises(WitnessSearchExhausted,
                           match=r"after 1 attempt\(s\): attempt 0: AmbiguousDecision: "):
            witness(8, parse_entry("D_4,(0,0,1)"))

    @pytest.mark.parametrize("n", [8, 10, 14])
    def test_round_trip(self, n):
        for entry in classify(n):
            ps = witness(n, entry)
            assert ps.n == n
            got = stabilizer(ps)
            assert got.label == entry.label and got.index == entry.index


class TestForcedPolyhedralIndices:
    def test_absorbed_a4_indices_give_s4(self):
        for index in ((2, 0, 0), (0, 1, 0), (2, 1, 0)):
            ps = _polyhedral_assembly(cl.A4, index, 0, 1e-8)
            assert stabilizer(ps).label == cl.LABEL_S4

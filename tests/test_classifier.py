import functools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from orbstab import classifier as cl
from orbstab.classifier import (ClassificationEntry, GroupLabel, cardinality_of,
                                cardinality_set, classify, classify_lines,
                                cyclic, dihedral, entry_from_json, parse_entry)
from orbstab.errors import InvalidCardinality

DATA = pathlib.Path(__file__).parent / "data"
DERANDOMIZED = settings.get_profile("derandomized")


def labels_of(n):
    return {e.label for e in classify(n)}


def _classify_reference(n):
    """The classifier as seven hand-written blocks, one per group kind: the
    reference the table-driven ``classify`` is compared against."""
    if n < 1:
        raise InvalidCardinality(f"cardinality must be >= 1, got {n}")
    out = []
    emit = out.append

    if n <= 2:
        emit(ClassificationEntry(cl.LABEL_INFINITE, ()))

    # A5 block: n = 12v + 20m + 30e + 60k with v, m, e in {0, 1}.
    k, r = divmod(n, 60)
    if r == 0 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_A5, (0, 0, 0, k)))
    if r == 12:
        emit(ClassificationEntry(cl.LABEL_A5, (1, 0, 0, k)))
    if r == 20:
        emit(ClassificationEntry(cl.LABEL_A5, (0, 1, 0, k)))
    if r == 30:
        emit(ClassificationEntry(cl.LABEL_A5, (0, 0, 1, k)))
    if r == 32:
        emit(ClassificationEntry(cl.LABEL_A5, (1, 1, 0, k)))
    if r == 42:
        emit(ClassificationEntry(cl.LABEL_A5, (1, 0, 1, k)))
    if r == 50:
        emit(ClassificationEntry(cl.LABEL_A5, (0, 1, 1, k)))
    if r == 2 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_A5, (1, 1, 1, k - 1)))

    # S4 block: n = 6v + 8m + 12e + 24k.
    k, r = divmod(n, 24)
    if r == 0 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_S4, (0, 0, 0, k)))
    if r == 6:
        emit(ClassificationEntry(cl.LABEL_S4, (1, 0, 0, k)))
    if r == 8:
        emit(ClassificationEntry(cl.LABEL_S4, (0, 1, 0, k)))
    if r == 12:
        emit(ClassificationEntry(cl.LABEL_S4, (0, 0, 1, k)))
    if r == 14:
        emit(ClassificationEntry(cl.LABEL_S4, (1, 1, 0, k)))
    if r == 18:
        emit(ClassificationEntry(cl.LABEL_S4, (1, 0, 1, k)))
    if r == 20:
        emit(ClassificationEntry(cl.LABEL_S4, (0, 1, 1, k)))
    if r == 2 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_S4, (1, 1, 1, k - 1)))

    # A4 block: n = 4v + 6e + 12k with v in {0, 1, 2}, e in {0, 1}.  The
    # indices (2,0,0), (0,1,0) and (2,1,0) are absorbed by S4 and never
    # emitted here.
    k, r = divmod(n, 12)
    if r == 0 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_A4, (0, 0, k)))
    if r == 4:
        emit(ClassificationEntry(cl.LABEL_A4, (1, 0, k)))
    if r == 8 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_A4, (2, 0, k)))
    if r == 6 and k >= 1:
        emit(ClassificationEntry(cl.LABEL_A4, (0, 1, k)))
    if r == 10:
        emit(ClassificationEntry(cl.LABEL_A4, (1, 1, k)))
    if r == 2 and k >= 2:
        emit(ClassificationEntry(cl.LABEL_A4, (2, 1, k - 1)))

    # Dihedral block: n = 2v + p(e + 2k).  (0,2,0) and (1,2,0) would have
    # stabilizer D_2p, and (1,1,0) at p = 4 is the octahedron (S4).
    for p in range(n, 2, -1):
        k = n // (2 * p)
        l = n // p - 2 * k
        r = n - 2 * p * k - p * l
        label = GroupLabel(cl.DIHEDRAL, p)
        if k >= 1 and r == 0:
            emit(ClassificationEntry(label, (0, l, k)))
        if k >= 2 and r == 0 and l == 0:
            emit(ClassificationEntry(label, (0, 2, k - 1)))
        if k >= 1 and r == 2:
            emit(ClassificationEntry(label, (1, l, k)))
        if k >= 2 and r == 2 and l == 0:
            emit(ClassificationEntry(label, (1, 2, k - 1)))
        if k == 0 and r == 0 and l == 1:
            emit(ClassificationEntry(label, (0, 1, 0)))
        if k == 0 and r == 2 and l == 1 and p != 4:
            emit(ClassificationEntry(label, (1, 1, 0)))

    # K4 block: n = 2v + 4k with v in {0..3}; k >= 1 always (v orbits alone
    # have a larger stabilizer).
    k, r = divmod(n, 4)
    if k >= 1 and r == 0:
        emit(ClassificationEntry(cl.LABEL_K4, (0, k)))
    if k >= 2 and r == 0:
        emit(ClassificationEntry(cl.LABEL_K4, (2, k - 1)))
    if k >= 1 and r == 2:
        emit(ClassificationEntry(cl.LABEL_K4, (1, k)))
    if k >= 2 and r == 2:
        emit(ClassificationEntry(cl.LABEL_K4, (3, k - 1)))

    # Cyclic block: n = v + pk with v in {0, 1, 2}.  A single rotation
    # orbit (or two, or with both poles) is always dihedral-invariant, so
    # k <= 2 survives only with exactly one pole; (1,1) at p = 3 is the
    # tetrahedron.
    for p in range(n, 2, -1):
        k, r = divmod(n, p)
        label = GroupLabel(cl.CYCLIC, p)
        if k >= 3 and r <= 2:
            emit(ClassificationEntry(label, (r, k)))
        if k == 2 and r == 1:
            emit(ClassificationEntry(label, (r, k)))
        if k == 1 and r == 1 and p != 3:
            emit(ClassificationEntry(label, (r, k)))

    # Z2 block: n = v + 2k.
    k, r = divmod(n, 2)
    if k >= 3:
        emit(ClassificationEntry(cyclic(2), (r, k)))
    if k >= 4 and r == 0:
        emit(ClassificationEntry(cyclic(2), (2, k - 1)))
    if k == 2 and r == 1:
        emit(ClassificationEntry(cyclic(2), (r, k)))

    if n >= 5:
        emit(ClassificationEntry(cl.LABEL_TRIVIAL, ()))

    return out


def _same_output(got, want):
    return ([e.to_line() for e in got] == [e.to_line() for e in want]
            and [e.to_json() for e in got] == [e.to_json() for e in want])


class TestAgainstReference:
    def test_small_n(self):
        for n in range(1, 1001):
            assert _same_output(classify(n), _classify_reference(n)), n

    @pytest.mark.parametrize("n", [2018, 99_998, 100_000, 100_801])
    def test_large_n(self, n):
        assert _same_output(classify(n), _classify_reference(n))

    def test_cardinality_sets_match_definition(self):
        n_max = 400
        labels = [{e.label for e in _classify_reference(n)}
                  for n in range(1, n_max + 1)]
        groups = [cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4, cl.LABEL_K4,
                  cl.LABEL_Z2, cl.LABEL_TRIVIAL]
        groups += [dihedral(p) for p in range(3, 13)]
        groups += [cyclic(p) for p in range(3, 13)]
        for g in groups:
            want = {n for n, present in enumerate(labels, 1) if g in present}
            assert cardinality_set(g, n_max) == want, g


class TestGolden2018:
    def test_exact_listing(self):
        golden = (DATA / "golden_2018.txt").read_text().splitlines()
        assert classify_lines(2018) == golden

    def test_parsed_tuples(self):
        golden = [parse_entry(line)
                  for line in (DATA / "golden_2018.txt").read_text().splitlines()]
        assert classify(2018) == golden


class TestSmallCases:
    def test_infinite_cases(self):
        assert classify_lines(1) == ["infinity"]
        assert classify_lines(2) == ["infinity"]

    def test_three_points(self):
        assert classify_lines(3) == ["D_3, (0, 1, 0)"]

    def test_five_points(self):
        assert classify_lines(5) == [
            "D_5, (0, 1, 0)", "D_3, (1, 1, 0)", "Z_4, (1, 1)",
            "Z_2, (1, 2)", "(0)"]

    def test_six_points(self):
        assert classify_lines(6) == [
            "S_4, (1, 0, 0, 0)", "D_6, (0, 1, 0)", "D_3, (0, 0, 1)",
            "K_4, (1, 1)", "Z_5, (1, 1)", "Z_2, (0, 3)", "(0)"]

    def test_invalid(self):
        with pytest.raises(InvalidCardinality):
            classify(0)
        with pytest.raises(InvalidCardinality):
            classify(-3)


#: Every label up to rotation order 62, most of them missing from any one
#: classify(n).
ALL_LABELS = [cl.LABEL_INFINITE, cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4,
              cl.LABEL_K4, cl.LABEL_TRIVIAL,
              *(dihedral(p) for p in range(3, 63)),
              *(cyclic(p) for p in range(2, 63))]


def test_label_blocks_are_the_classify_entries_of_their_label():
    # witness() checks membership against its entry's label block alone
    for n in range(1, 61):
        listed = classify(n)
        for label in ALL_LABELS:
            assert cl._entries(label, n) == [e for e in listed if e.label == label]
    for label in ALL_LABELS:
        with pytest.raises(InvalidCardinality):
            cl._entries(label, 0)


class TestCardinality:
    def test_a5_full_index(self):
        assert cardinality_of(ClassificationEntry(cl.LABEL_A5, (1, 1, 1, 0))) == 62

    def test_a4_example(self):
        assert cardinality_of(ClassificationEntry(cl.LABEL_A4, (1, 1, 0))) == 10

    def test_trivial_has_no_cardinality(self):
        with pytest.raises(ValueError):
            cardinality_of(ClassificationEntry(cl.LABEL_TRIVIAL, ()))

    def test_every_emitted_entry_is_consistent(self):
        for n in range(1, 201):
            for entry in classify(n):
                if entry.label.kind in (cl.TRIVIAL, cl.INFINITE):
                    continue
                assert cardinality_of(entry) == n, (n, entry)


class TestCardinalitySets:
    def test_a5_example(self):
        assert cardinality_set(cl.LABEL_A5, 130) == {
            12, 20, 30, 32, 42, 50, 60, 62, 72, 80, 90, 92, 102, 110, 120, 122}

    def test_d4_example(self):
        # {x + 4k : x in {0, 2}, k >= 2} plus the plain square
        assert cardinality_set(dihedral(4), 14) == {4, 8, 10, 12, 14}

    def test_z5_example(self):
        assert cardinality_set(cyclic(5), 18) == {6, 11, 15, 16, 17}

    def test_k4(self):
        assert cardinality_set(cl.LABEL_K4, 13) == {4, 6, 8, 10, 12}


#: Largest N of the property test below.
REFERENCE_N = 600


@functools.lru_cache(maxsize=None)
def _reference_labels() -> tuple[frozenset, ...]:
    """The labels of ``_classify_reference(m)`` for m = 1..REFERENCE_N."""
    return tuple(frozenset(e.label for e in _classify_reference(m))
                 for m in range(1, REFERENCE_N + 1))


finite_labels = st.one_of(
    st.sampled_from([cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4, cl.LABEL_K4,
                     cl.LABEL_TRIVIAL]),
    st.integers(3, 60).map(dihedral), st.integers(2, 60).map(cyclic))


@DERANDOMIZED
@given(label=finite_labels, n_max=st.integers(0, REFERENCE_N))
def test_cardinality_set_is_the_per_n_definition(label, n_max):
    # the progressions give exactly the m <= N whose classification, read
    # one m at a time from the hand-written reference, holds the label
    want = {m for m, labels in enumerate(_reference_labels()[:n_max], 1)
            if label in labels}
    assert cardinality_set(label, n_max) == want


def test_enumerated_entries_equal_checked_entries():
    # classify builds its entries without the public constructor's checks
    for n in [*range(1, 200), 2018, 99_532]:
        for entry in classify(n):
            checked = ClassificationEntry(entry.label, entry.index)
            assert entry == checked and hash(entry) == hash(checked), entry
            assert all(type(i) is int for i in entry.index), entry


def test_classify_labels_equal_checked_labels():
    # classify builds its dihedral and cyclic labels without the checks
    seen = set()
    for n in range(3, 203):
        for entry in classify(n):
            label = entry.label
            if label.kind in (cl.DIHEDRAL, cl.CYCLIC) and label.p <= 200:
                checked = (dihedral if label.kind == cl.DIHEDRAL else cyclic)(label.p)
                assert label == checked and hash(label) == hash(checked), label
                assert type(label.p) is int, label
                seen.add((label.kind, label.p))
    assert seen == {(cl.DIHEDRAL, p) for p in range(3, 201)} | \
        {(cl.CYCLIC, p) for p in range(2, 201)}


class TestStructuralInvariants:
    def test_trivial_iff_n_at_least_5(self):
        for n in range(1, 40):
            assert (cl.LABEL_TRIVIAL in labels_of(n)) == (n >= 5)

    def test_infinite_iff_n_at_most_2(self):
        for n in range(1, 40):
            assert (cl.LABEL_INFINITE in labels_of(n)) == (n <= 2)

    def test_no_duplicates(self):
        for n in range(1, 301):
            entries = classify(n)
            assert len(entries) == len(set(entries))

    def test_excluded_indices_never_emitted(self):
        for n in range(1, 301):
            for e in classify(n):
                if e.label == cl.LABEL_A4:
                    assert e.index not in ((2, 0, 0), (0, 1, 0), (2, 1, 0))
                if e.label == dihedral(4):
                    assert e.index != (1, 1, 0)
                if e.label == cyclic(3):
                    assert e.index != (1, 1)
                if e.label == cl.LABEL_K4:
                    assert e.index[-1] >= 1
                if e.label.kind == cl.DIHEDRAL and e.index[-1] == 0:
                    assert e.index in ((0, 1, 0), (1, 1, 0))

    def test_realizability_within_small_bound(self):
        groups = [cl.LABEL_A5, cl.LABEL_S4, cl.LABEL_A4, cl.LABEL_K4,
                  cl.LABEL_Z2]
        groups += [dihedral(p) for p in range(3, 13)]
        groups += [cyclic(p) for p in range(3, 13)]
        for g in groups:
            hits = cardinality_set(g, 5 * (g.order + 2))
            assert any(n >= 5 for n in hits), g


class TestLabels:
    def test_orders(self):
        assert cl.LABEL_A5.order == 60
        assert cl.LABEL_S4.order == 24
        assert cl.LABEL_A4.order == 12
        assert dihedral(7).order == 14
        assert cl.LABEL_K4.order == 4
        assert cyclic(9).order == 9
        assert cl.LABEL_Z2.order == 2
        assert cl.LABEL_TRIVIAL.order == 1
        with pytest.raises(ValueError):
            cl.LABEL_INFINITE.order

    def test_small_parameters_fold_into_special_kinds(self):
        assert dihedral(2) == cl.LABEL_K4
        assert cyclic(2) == cl.LABEL_Z2
        with pytest.raises(ValueError):
            GroupLabel(cl.DIHEDRAL, 2)

    def test_z2_is_the_cyclic_kind_at_p_2(self):
        assert cl.LABEL_Z2 == GroupLabel(cl.CYCLIC, 2)
        assert str(cl.LABEL_Z2) == "Z_2"
        assert cl.LABEL_Z2.orbit_sizes() == (1, 2)

    @pytest.mark.parametrize("kind", ["bogus", "Z2"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match=kind):
            GroupLabel(kind)

    @pytest.mark.parametrize("kind,p", [
        (cl.DIHEDRAL, 2), (cl.CYCLIC, 1), (cl.CYCLIC, None), (cl.A5, 5),
        (cl.TRIVIAL, 1)])
    def test_bad_parameter_rejected(self, kind, p):
        with pytest.raises(ValueError):
            GroupLabel(kind, p)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ClassificationEntry(cl.LABEL_A5, (2, 0, 0, 0))
        with pytest.raises(ValueError):
            ClassificationEntry(dihedral(5), (0, 3, 1))
        with pytest.raises(ValueError):
            ClassificationEntry(cl.LABEL_TRIVIAL, (1,))


class TestSerialization:
    @pytest.mark.parametrize("text", [
        "A_5, (1, 0, 0, 0)", "S_4, (1, 1, 1, 83)", "A_4, (2, 1, 167)",
        "D_1009, (0, 0, 1)", "K_4, (1, 504)", "Z_2017, (1, 1)",
        "Z_2, (0, 1009)", "(0)", "infinity"])
    def test_line_round_trip(self, text):
        assert parse_entry(text).to_line() == text

    def test_parse_tolerates_spacing(self):
        assert parse_entry("Z_2,(1,2)") == parse_entry("Z_2, (1, 2)")

    def test_json_round_trip(self):
        for n in (5, 12, 2018):
            for e in classify(n):
                assert entry_from_json(e.to_json()) == e

import random
from collections import Counter
from fractions import Fraction
from math import fsum, ulp
from operator import mul
from pathlib import Path

import pytest

from dnumbers import (
    AGGREGATORS,
    AVERAGE,
    CONSTANT_ONE,
    MAXIMUM,
    MINIMUM,
    PRODUCT,
    CompletenessAggregator,
    DNumber,
    Frame,
    NonExclusivityModel,
    RULES,
    aggregator,
    combine_many,
    conjunctive,
    dcr1,
    dcr2,
    dempster,
    disjunctive,
    dubois_prade,
    global_conflict,
    mean_assignment,
    parse_scenario,
    residual_conflict,
    validate_f_points,
    yager,
)
from dnumbers.errors import (
    DuplicatePair,
    EmptySubset,
    ForeignSubset,
    FrameMismatch,
    FrameTooLargeForMatrix,
    FusionError,
    IncompleteInput,
    IntersectingPair,
    InvalidAggregator,
    MassOverflow,
    NegativeWeight,
    OutOfRangeValue,
    TooManyFocalPairs,
    TotalConflict,
)
from dnumbers import classical
from dnumbers.classical import MAX_FOCAL_PAIRS
from dnumbers.evidence import bit_indices
from helpers import (
    brute_conflict,
    brute_dempster,
    brute_degree,
    brute_residual,
    exact_dcr,
    random_complete,
    random_dnumber,
    random_model,
    ulps,
)

# Expanded degree matrix of the a/b/c overlap model, subsets in canonical
# order {a},{b},{c},{a,b},{a,c},{b,c},{a,b,c}.
OVERLAP_MATRIX = (
    (1.0, 0.1, 0.0, 1.0, 1.0, 0.1, 1.0),
    (0.1, 1.0, 0.2, 1.0, 0.2, 1.0, 1.0),
    (0.0, 0.2, 1.0, 0.2, 1.0, 1.0, 1.0),
    (1.0, 1.0, 0.2, 1.0, 1.0, 1.0, 1.0),
    (1.0, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0),
    (0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
)


class TestDegrees:
    def test_intersecting_pairs_pinned_to_one(self, overlap_model):
        assert overlap_model.degree(("a",), ("a", "b")) == 1.0
        assert overlap_model.degree(("a", "b", "c"), ("c",)) == 1.0

    def test_max_expansion_over_element_pairs(self, overlap_model):
        assert overlap_model.degree(("b",), ("a", "c")) == 0.2
        assert overlap_model.degree(("a",), ("b", "c")) == 0.1
        assert overlap_model.degree(("a",), ("c",)) == 0.0

    def test_symmetry(self, overlap_model):
        assert overlap_model.degree(("a",), ("b", "c")) == overlap_model.degree(
            ("b", "c"), ("a",)
        )

    def test_unlisted_pairs_default_to_zero(self, abc):
        model = NonExclusivityModel(abc, {("a", "b"): 0.4})
        assert model.degree(("a",), ("c",)) == 0.0
        assert model.degree(("b",), ("c",)) == 0.0

    def test_override_beats_expansion(self, abc):
        model = NonExclusivityModel(
            abc, {("a", "b"): 0.1}, {(("a",), ("b",)): 0.7}
        )
        assert model.degree(("a",), ("b",)) == 0.7
        # unrelated pairs still use the expansion
        assert model.degree(("a",), ("b", "c")) == 0.1

    def test_empty_subset_rejected(self, overlap_model):
        with pytest.raises(EmptySubset):
            overlap_model.degree((), ("a",))
        with pytest.raises(EmptySubset):
            overlap_model.degree(0, 0b001)

    def test_foreign_subset_rejected(self, overlap_model):
        with pytest.raises(ForeignSubset):
            overlap_model.degree(("z",), ("a",))

    def test_exclusive_degree_is_complement(self, overlap_model):
        assert overlap_model.exclusive_degree(("a",), ("b",)) == 0.9


class TestModelConstruction:
    def test_self_pair_rejected(self, abc):
        with pytest.raises(IntersectingPair):
            NonExclusivityModel(abc, {("a", "a"): 0.1})

    def test_duplicate_pair_rejected(self, abc):
        with pytest.raises(DuplicatePair):
            NonExclusivityModel(abc, [(("a", "b"), 0.1), (("b", "a"), 0.2)])

    def test_duplicate_override_rejected(self, abc):
        with pytest.raises(DuplicatePair):
            NonExclusivityModel(
                abc,
                overrides=[((("a",), ("b",)), 0.1), ((("b",), ("a",)), 0.2)],
            )

    def test_intersecting_override_rejected(self, abc):
        with pytest.raises(IntersectingPair):
            NonExclusivityModel(abc, overrides={(("a",), ("a", "b")): 0.5})

    def test_empty_override_rejected(self, abc):
        with pytest.raises(EmptySubset):
            NonExclusivityModel(abc, overrides={((), ("a",)): 0.5})

    def test_degree_out_of_range_rejected(self, abc):
        with pytest.raises(OutOfRangeValue):
            NonExclusivityModel(abc, {("a", "b"): 1.5})
        with pytest.raises(OutOfRangeValue):
            NonExclusivityModel(abc, overrides={(("a",), ("b",)): -0.1})


class TestMatrix:
    def test_overlap_model_matrix(self, abc, overlap_model):
        matrix = overlap_model.matrix()
        assert [abc.labels_of(m) for m in matrix.subsets] == [
            ("a",), ("b",), ("c",),
            ("a", "b"), ("a", "c"), ("b", "c"),
            ("a", "b", "c"),
        ]
        assert matrix.rows == OVERLAP_MATRIX

    def test_exclusive_model_matrix(self, abc):
        matrix = NonExclusivityModel.exclusive(abc).matrix()
        for i, row_mask in enumerate(matrix.subsets):
            for j, col_mask in enumerate(matrix.subsets):
                expected = 1.0 if row_mask & col_mask else 0.0
                assert matrix.rows[i][j] == expected

    def test_diagonal_is_one(self, overlap_model):
        matrix = overlap_model.matrix()
        assert all(matrix.rows[i][i] == 1.0 for i in range(len(matrix.subsets)))

    def test_exclusive_is_complement(self, overlap_model):
        matrix = overlap_model.matrix()
        comp = matrix.exclusive()
        assert comp.rows[0][1] == 0.9
        assert comp.rows[0][0] == 0.0

    @staticmethod
    def _model_with_overrides(seed: int, size: int) -> NonExclusivityModel:
        """A seeded ``random_model`` whose element degrees are kept and whose
        overrides are replaced by up to ``size`` random disjoint subset pairs."""
        rng = random.Random(seed)
        frame = Frame([f"e{i}" for i in range(size)])
        labels = frame.labels
        pairs = {
            (labels[i], labels[j]): d
            for (i, j), d in random_model(rng, frame).element_degrees.items()
        }
        overrides = {}
        for _ in range(size):
            m1 = rng.randint(1, frame.full_mask)
            m2 = rng.randint(1, frame.full_mask) & ~m1
            if m2 and (m2, m1) not in overrides:
                overrides[(m1, m2)] = rng.random()
        return NonExclusivityModel(frame, pairs, overrides)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_rows_match_the_brute_force_oracle(self, size):
        model = self._model_with_overrides(4000 + size, size)
        frame = model.frame
        pairs = dict(model.element_degrees)
        overrides = dict(model.subset_overrides)
        matrix = model.matrix()
        assert matrix.subsets == tuple(
            sorted(
                range(1, frame.full_mask + 1),
                key=lambda m: (m.bit_count(), [i for i in range(size) if m >> i & 1]),
            )
        )
        # Every row of both matrices, by repr: rows are written into one
        # reused buffer, so a cell left over from an earlier row would show.
        comp = matrix.exclusive()
        for b, row, comp_row in zip(matrix.subsets, matrix.rows, comp.rows, strict=True):
            expected = [brute_degree(pairs, overrides, b, c) for c in matrix.subsets]
            assert list(map(repr, row)) == list(map(repr, expected))
            assert list(map(repr, comp_row)) == [repr(1.0 - v) for v in expected]

    @pytest.mark.parametrize("size", range(9, 13))
    def test_sampled_rows_match_the_brute_force_oracle_up_to_the_cap(self, size):
        model = self._model_with_overrides(4300 + size, size)
        pairs = dict(model.element_degrees)
        overrides = dict(model.subset_overrides)
        matrix = model.matrix()
        comp = matrix.exclusive()
        subsets = matrix.subsets
        assert subsets == tuple(sorted(range(1, 1 << size), key=model.frame.sort_key))
        # The first and last rows, a few at random, and a few an override covers.
        rng = random.Random(size)
        overridden = sorted({m for pair in overrides for m in pair})
        assert overridden
        rows = {0, len(subsets) - 1, *rng.sample(range(len(subsets)), 4)}
        rows.update(subsets.index(m) for m in rng.sample(overridden, min(3, len(overridden))))
        for k in sorted(rows):
            expected = tuple(brute_degree(pairs, overrides, subsets[k], c) for c in subsets)
            assert matrix.rows[k] == expected
            assert list(map(repr, comp.rows[k])) == [repr(1.0 - v) for v in expected]

    def test_overrides_on_consecutive_rows(self):
        # The four singletons are canonical rows 0-3, and each overrides a
        # cell that the next row's elements intersect.
        frame = Frame(["a", "b", "c", "d"])
        overrides = {
            (("a",), ("b",)): 0.25,
            (("b",), ("c",)): -0.0,
            (("c",), ("d",)): 0.0,
            (("d",), ("a", "b")): 1.0,
            (("a",), ("c", "d")): 0.75,
        }
        model = NonExclusivityModel(frame, {("a", "c"): 0.5, ("b", "d"): 0.125}, overrides)
        pairs = dict(model.element_degrees)
        masks = dict(model.subset_overrides)
        assert len(masks) == len(overrides)
        matrix = model.matrix()
        comp = matrix.exclusive()
        ranked = model._ranked()
        table = [repr(v) for v in ranked.values]
        for k, b in enumerate(matrix.subsets):
            expected = [brute_degree(pairs, masks, b, c) for c in matrix.subsets]
            assert list(map(repr, matrix.rows[k])) == list(map(repr, expected))
            assert list(map(repr, comp.rows[k])) == [repr(1.0 - v) for v in expected]
        assert repr(matrix.rows[1][2]) == repr(matrix.rows[2][1]) == "-0.0"
        assert list(ranked.rows_as(table)) == [
            tuple(map(repr, row)) for row in matrix.rows
        ]

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_positions_are_the_complement_subsets_in_doubling_order(self, size):
        # Recomputed from the canonical order alone: C's place in the doubling
        # over B's complement, lowest element first, is the number whose bit t
        # says whether C holds the complement's t-th lowest element.
        frame = Frame([f"e{i}" for i in range(size)])
        canonical = list(frame.subsets())
        position = {m: k for k, m in enumerate(canonical)}
        ranked = random_model(random.Random(4600 + size), frame)._ranked()
        assert ranked.subsets == tuple(canonical)
        for k, b in enumerate(canonical):
            free = [j for j in range(size) if not b >> j & 1]
            inside = [c for c in canonical if not b & c]
            inside.sort(key=lambda c: sum(1 << t for t, j in enumerate(free) if c >> j & 1))
            assert ranked.positions[k] == tuple(position[c] for c in inside)
            assert len(ranked.ranks[k]) == len(inside)

    def test_positions_share_one_int_per_column(self):
        # 57,002 disjoint cells at 10 elements, but at most one int object per
        # column: the positions are the canonical index's own ints.
        ranked = random_model(random.Random(4700), Frame([f"e{i}" for i in range(10)]))._ranked()
        cells = [p for row in ranked.positions for p in row]
        assert len(cells) == 3**10 - 2**11 + 1
        # Every column but the whole frame's, which meets every row.
        assert len(set(map(id, cells))) == len(set(cells)) == len(ranked.subsets) - 1

    @pytest.mark.parametrize(
        "labels, pairs",
        [
            (["a"], {}),
            (list("abc"), {("a", "b"): 0.0, ("b", "c"): -0.0}),
            (list("abc"), {("a", "b"): -0.0, ("a", "c"): 0.0}),
            (list("abc"), {("a", "b"): 1.0, ("b", "c"): 0.25}),
            (list("abcd"), {("a", "b"): 0.5, ("c", "d"): 0.5, ("a", "d"): 0.25, ("b", "c"): 0.25}),
        ],
    )
    def test_ranked_values_are_the_listed_degrees_with_zero_and_one(self, labels, pairs):
        model = NonExclusivityModel(Frame(labels), pairs)
        values = model._ranked().values
        assert values == tuple(sorted({0.0, 1.0, *model.element_degrees.values()}))
        assert repr(values[0]) == "0.0"

    def test_exclusive_is_exact_complement_with_overrides(self):
        model = self._model_with_overrides(4100, 6)
        assert model.subset_overrides
        matrix = model.matrix()
        comp = matrix.exclusive()
        assert comp.subsets == matrix.subsets
        for row, comp_row in zip(matrix.rows, comp.rows, strict=True):
            assert len(comp_row) == len(row)
            for v, w in zip(row, comp_row):
                assert w == 1.0 - v

    def test_exclusive_repr_matches_one_minus_each_cell(self):
        model = self._model_with_overrides(4200, 5)
        b, c = 1, 2  # {e0} and {e1}
        overrides = {pair: d for pair, d in model.subset_overrides.items() if pair != (b, c)}
        overrides[(b, c)] = -0.0
        labels = model.frame.labels
        model = NonExclusivityModel(
            model.frame,
            {(labels[i], labels[j]): d for (i, j), d in model.element_degrees.items()},
            overrides,
        )
        matrix = model.matrix()
        k, l = matrix.subsets.index(b), matrix.subsets.index(c)
        assert repr(matrix.rows[k][l]) == repr(matrix.rows[l][k]) == "-0.0"
        comp = matrix.exclusive()
        for row, comp_row in zip(matrix.rows, comp.rows, strict=True):
            assert list(map(repr, comp_row)) == [repr(1.0 - v) for v in row]
        twice = comp.exclusive()
        for comp_row, twice_row in zip(comp.rows, twice.rows, strict=True):
            assert list(map(repr, twice_row)) == [repr(1.0 - v) for v in comp_row]

    def test_equality_and_repr_ignore_the_carried_ranks(self, abc):
        # Overrides cover every cell that the listed a/b degree reaches.
        covered = [(("a",), ("b",)), (("a",), ("b", "c")), (("b",), ("a", "c"))]
        overridden = NonExclusivityModel(
            abc, {("a", "b"): 0.3}, {pair: 0.0 for pair in covered}
        ).matrix()
        listed = NonExclusivityModel.exclusive(abc).matrix()
        assert listed._ranked.ranks != overridden._ranked.ranks
        assert listed._ranked.values != overridden._ranked.values
        assert listed == overridden and hash(listed) == hash(overridden)
        assert repr(listed) == repr(overridden)
        assert "_ranked" not in repr(listed)
        assert listed.exclusive() == overridden.exclusive()

    @pytest.mark.parametrize("size", range(1, 8))
    def test_shown_ranks_are_the_ranks_the_rows_hold(self, size):
        # Random overrides, plus overrides on every cell of one listed pair
        # degree, so that no cell shows that degree's rank.
        rng = random.Random(4400 + size)
        frame = Frame([f"e{i}" for i in range(size)])
        model = random_model(rng, frame)
        pairs = dict(model.element_degrees)
        overrides = {}
        for _ in range(size):
            m1 = rng.randint(1, frame.full_mask)
            m2 = rng.randint(1, frame.full_mask) & ~m1
            if m2:
                overrides[(min(m1, m2), max(m1, m2))] = rng.random()
        hidden = rng.choice(sorted(pairs.values())) if pairs else None
        for b in range(1, frame.full_mask + 1):
            for c in range(b + 1, frame.full_mask + 1):
                if not b & c and brute_degree(pairs, overrides, b, c) == hidden:
                    overrides[(b, c)] = 0.5 * hidden
        labels = frame.labels
        model = NonExclusivityModel(
            frame, {(labels[i], labels[j]): d for (i, j), d in pairs.items()}, overrides
        )
        ranked = model._ranked()
        for matrix in (ranked, ranked.complement()):
            ranks = list(range(len(matrix.values)))
            rows = list(matrix.rows_as(ranks))
            assert all(len(row) == len(matrix.subsets) for row in rows)
            assert matrix.shown() == {r for row in rows for r in row}
        if hidden is not None:
            assert ranked.values.index(hidden) not in ranked.shown()

    def test_one_element_frame(self):
        matrix = NonExclusivityModel(Frame(["x"])).matrix()
        assert matrix.subsets == (1,)
        assert matrix.rows == ((1.0,),)
        comp = matrix.exclusive()
        assert (comp.subsets, comp.rows) == ((1,), ((0.0,),))
        assert comp.exclusive() == matrix

    def test_materialization_cap(self):
        frame = Frame([f"e{i}" for i in range(13)])
        with pytest.raises(FrameTooLargeForMatrix):
            NonExclusivityModel.exclusive(frame).matrix()


class TestKeptRankedForm:
    def test_the_ranked_form_is_built_once(self, overlap_model):
        assert overlap_model._ranked() is overlap_model._ranked()
        assert overlap_model.matrix()._ranked is overlap_model.matrix()._ranked

    @pytest.mark.parametrize("size", range(1, 11))
    def test_repeated_matrices_equal_a_fresh_models(self, size):
        frame = Frame([f"e{i}" for i in range(size)])
        model = random_model(random.Random(4800 + size), frame)
        first, second = model.matrix(), model.matrix()
        fresh = random_model(random.Random(4800 + size), frame).matrix()
        fresh_exclusive = fresh.exclusive()
        for matrix in (first, second):
            assert matrix.subsets == fresh.subsets
            assert matrix.rows == fresh.rows
            exclusive = matrix.exclusive()
            assert exclusive.rows == fresh_exclusive.rows
        # Only the ranked form is kept: each call builds its own float rows.
        assert first._ranked is second._ranked and first.rows is not second.rows

    def test_the_cap_raises_on_every_call(self):
        model = NonExclusivityModel.exclusive(Frame([f"e{i}" for i in range(13)]))
        for _ in range(2):
            with pytest.raises(FrameTooLargeForMatrix):
                model.matrix()
        assert model._kept is None


class TestAggregators:
    ADMISSIBLE = (PRODUCT, MINIMUM, MAXIMUM, AVERAGE)

    @pytest.mark.parametrize("agg", ADMISSIBLE, ids=lambda a: a.name)
    def test_admissible_on_grid(self, agg):
        # both constraints, swept over the full unit-square grid
        CompletenessAggregator.from_callable(agg.name, agg.fn)

    def test_constant_one_is_the_documented_exception(self):
        assert CONSTANT_ONE(0.3, 0.5) == 1.0
        assert CONSTANT_ONE(1.0, 1.0) == 1.0
        with pytest.raises(InvalidAggregator):
            CompletenessAggregator.from_callable("one", CONSTANT_ONE.fn)

    def test_corner_value_is_one_for_all_builtins(self):
        for agg in set(AGGREGATORS.values()):
            assert agg(1.0, 1.0) == 1.0

    def test_user_callable_validation(self):
        good = CompletenessAggregator.from_callable("scaled", lambda q1, q2: 0.5 * q1 * q2 + 0.5 * min(q1, q2))
        assert good(1.0, 1.0) == 1.0
        with pytest.raises(InvalidAggregator, match="^'too-big': f"):
            CompletenessAggregator.from_callable("too-big", lambda q1, q2: 1.1 * max(q1, q2) - 0.1 * q1 * q2)
        with pytest.raises(InvalidAggregator, match=r"^'wrong-corner': f\(1, 1\)"):
            CompletenessAggregator.from_callable("wrong-corner", lambda q1, q2: 0.9 * q1 * q2)

    def test_lookup_and_aliases(self):
        assert aggregator("product") is PRODUCT
        assert aggregator("min") is MINIMUM
        assert aggregator("one") is CONSTANT_ONE
        with pytest.raises(InvalidAggregator):
            aggregator("geometric")

    def test_validate_f_points(self):
        points = [(0.0, 0.0, 0.0), (0.5, 1.0, 0.5), (1.0, 1.0, 1.0)]
        assert validate_f_points(points) == 3
        with pytest.raises(InvalidAggregator):
            validate_f_points([(0.5, 0.5, 1.0), (1.0, 1.0, 1.0)])
        with pytest.raises(InvalidAggregator):
            validate_f_points([(0.0, 0.0, 0.0)])  # corner missing
        with pytest.raises(InvalidAggregator):
            validate_f_points([(1.0, 1.0, 0.9)])


class TestDcr1:
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 1.0])
    def test_conflicting_sure_sources(self, p):
        frame = Frame(["High", "Medium", "Low"])
        model = NonExclusivityModel(frame, {("High", "Medium"): p})
        report = dcr1(
            DNumber(frame, {"High": 1.0}), DNumber(frame, {"Medium": 1.0}), model
        )
        assert report.result.weight(("High", "Medium")) == 1.0
        assert abs(report.k_d - (1.0 - p)) < 1e-12
        assert report.rule == "dcr1"

    def test_zero_degree_still_total_conflict(self):
        frame = Frame(["High", "Medium", "Low"])
        model = NonExclusivityModel(frame, {("High", "Medium"): 0.0})
        with pytest.raises(TotalConflict):
            dcr1(DNumber(frame, {"High": 1.0}), DNumber(frame, {"Medium": 1.0}), model)

    def test_exclusive_model_reduces_to_dempster(self, abc):
        rng = random.Random(7)
        model = NonExclusivityModel.exclusive(abc)
        for _ in range(50):
            d1, d2 = random_complete(rng, abc), random_complete(rng, abc)
            if global_conflict(d1, d2) > 0.999:
                continue
            oracle = dempster(d1, d2)
            report = dcr1(d1, d2, model)
            assert abs(report.k_d - global_conflict(d1, d2)) < 1e-15
            for mask in set(oracle.focal_sets()) | set(report.result.focal_sets()):
                assert abs(report.result.weight(mask) - oracle.weight(mask)) < 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="near K = 1 dempster divides by the rounded 1 - K, not by the surviving mass",
    )
    @pytest.mark.parametrize("e", [1e-3, 1e-4, 3e-5])
    def test_exclusive_model_agrees_with_dempster_near_total_conflict(self, abc, e):
        # The only result is {b}, with weight 1; dcr1 gives exactly 1.0 for each e.
        d1 = DNumber(abc, {("a",): 1 - e, ("a", "b"): e})
        d2 = DNumber(abc, {("c",): 1 - 0.7 * e, ("b", "c"): 0.7 * e})
        one = dcr1(d1, d2, NonExclusivityModel.exclusive(abc)).result
        oracle = dempster(d1, d2)
        for mask in set(oracle.focal_sets()) | set(one.focal_sets()):
            a, b = one.weight(mask), oracle.weight(mask)
            assert abs(a - b) <= 2 * ulp(max(a, b))

    def test_overfilled_complete_inputs_keep_their_surviving_mass(self):
        # Completeness allows 1e-9 of overfill, and here only that overfill
        # lifts K_D above 1 (to 1.000000000498); 2e-12 of mass survives,
        # above the bound of 1e-12 * Q1 * Q2.  dcr1 keeps it, as dcr2 with
        # f = 1 does; dempster still raises on K.
        frame = Frame(["a", "b"])
        d1 = DNumber(frame, {("a",): 1.0000000005})
        d2 = DNumber(frame, {("b",): 1 - 2e-12, ("a",): 2e-12})
        assert d1.is_complete() and d2.is_complete()
        model = NonExclusivityModel.exclusive(frame)
        report = dcr1(d1, d2, model)
        assert report.k_d > 1.0
        assert list(report.result.items()) == [(frame.mask("a"), 1.0)]
        assert list(dcr2(d1, d2, model, CONSTANT_ONE).result.items()) == list(report.result.items())
        with pytest.raises(TotalConflict):
            dempster(d1, d2)

    def test_incomplete_inputs_rejected(self, abc, overlap_model, partial_sources):
        d1, d2 = partial_sources
        with pytest.raises(IncompleteInput):
            dcr1(d1, d2, overlap_model)

    def test_frame_mismatch(self, overlap_model):
        other = Frame(["x", "y"])
        with pytest.raises(FrameMismatch):
            dcr1(DNumber.vacuous(other), DNumber.vacuous(other), overlap_model)

    def test_result_sums_to_one(self, abc, overlap_model):
        d1 = DNumber(abc, {("a",): 0.6, ("b",): 0.4})
        d2 = DNumber(abc, {("c",): 0.5, ("a", "b"): 0.5})
        report = dcr1(d1, d2, overlap_model)
        assert abs(fsum(w for _, w in report.result.items()) - 1.0) < 1e-12
        assert report.d_t_total is None and report.f_value is None


class Tagged(float):
    """A float subclass, as a caller may give one for a weight, a degree or f."""


class TestDcr2:
    def test_partial_sources_worked_example(self, overlap_model, partial_sources):
        d1, d2 = partial_sources
        report = dcr2(d1, d2, overlap_model, PRODUCT)
        assert abs(report.d_t_total - 0.465) < 1e-12
        assert abs(report.f_value - 0.72) < 1e-12
        assert abs(report.result.weight(("a",)) - 0.6194) < 5e-5
        assert abs(report.result.weight(("c",)) - 0.0929) < 5e-5
        assert abs(report.result.weight(("a", "b", "c")) - 0.0077) < 5e-5
        assert report.result.focal_sets() == (0b001, 0b100, 0b111)
        assert report.k_d == residual_conflict(d1, d2, overlap_model)
        assert report.k == brute_conflict(dict(d1.items()), dict(d2.items()))

    def test_single_cell_hand_oracle(self, abc):
        # lone focal pair ({a},{a}): D_t = 0.25, f = 0.25, so D({a}) = 0.25
        d1 = DNumber(abc, {("a",): 0.5})
        d2 = DNumber(abc, {("a",): 0.5})
        report = dcr2(d1, d2, NonExclusivityModel.exclusive(abc), PRODUCT)
        assert report.result.weight(("a",)) == 0.25

    @pytest.mark.parametrize(
        "agg", [PRODUCT, MINIMUM, MAXIMUM, AVERAGE, CONSTANT_ONE], ids=lambda a: a.name
    )
    def test_reduces_to_dcr1_on_complete_inputs(self, abc, overlap_model, agg):
        rng = random.Random(11)
        for _ in range(20):
            d1, d2 = random_complete(rng, abc), random_complete(rng, abc)
            one = dcr1(d1, d2, overlap_model)
            two = dcr2(d1, d2, overlap_model, agg)
            if agg is CONSTANT_ONE:  # dcr1 is dcr2 with f = 1, bit for bit
                assert repr(list(one.result.items())) == repr(list(two.result.items()))
                assert (one.k, one.k_d) == (two.k, two.k_d)
                continue
            for mask in set(one.result.focal_sets()) | set(two.result.focal_sets()):
                assert abs(one.result.weight(mask) - two.result.weight(mask)) < 1e-12

    def test_disjoint_exclusive_partials_conflict(self, abc):
        # q1*q2 > 0, yet nothing survives: every product is discounted away
        d1 = DNumber(abc, {("a",): 0.5})
        d2 = DNumber(abc, {("b",): 0.5})
        with pytest.raises(TotalConflict):
            dcr2(d1, d2, NonExclusivityModel.exclusive(abc), PRODUCT)

    def test_tiny_conflict_free_inputs_survive(self, abc):
        # Q1*Q2 = 1e-14 is below the tolerance in absolute terms, yet no
        # product conflicts: the surviving mass is judged relative to Q1*Q2
        d = DNumber(abc, {("a",): 1e-7})
        model = NonExclusivityModel.exclusive(abc)
        assert residual_conflict(d, d, model) == 0.0
        report = dcr2(d, d, model, PRODUCT)
        assert report.d_t_total == 1e-7 * 1e-7
        assert report.result.focal_sets() == (abc.mask("a"),)
        assert report.result.weight(("a",)) == report.f_value
        with pytest.raises(TotalConflict):
            dcr2(d, DNumber(abc, {("b",): 1e-7}), model, PRODUCT)

    def test_total_conflict_bound_does_not_depend_on_operand_order(self):
        # D_t lies exactly on 1e-12 * Q1 * Q2 here, and (1e-12 * Q1) * Q2 and
        # (1e-12 * Q2) * Q1 round apart, so a bound built in operand order
        # accepted one order and rejected the other.
        frame = Frame(["a", "b", "c", "d"])
        d1 = DNumber(frame, {("d",): 0.20935256544282455})
        d2 = DNumber(frame, {("a",): 0.375})
        degree = 7.850721204105921e-14 / (0.20935256544282455 * 0.375)
        model = NonExclusivityModel(frame, {("a", "d"): degree})
        outcomes = []
        for left, right in ((d1, d2), (d2, d1)):
            try:
                outcomes.append(dict(dcr2(left, right, model, PRODUCT).result.items()))
            except TotalConflict as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_result_sums_to_f(self, overlap_model, partial_sources):
        d1, d2 = partial_sources
        for agg in (PRODUCT, MINIMUM, MAXIMUM, AVERAGE, CONSTANT_ONE):
            report = dcr2(d1, d2, overlap_model, agg)
            total = fsum(w for _, w in report.result.items())
            assert abs(total - report.f_value) < 1e-12

    def test_frame_mismatch(self, overlap_model):
        other = Frame(["x", "y"])
        with pytest.raises(FrameMismatch):
            dcr2(DNumber.vacuous(other), DNumber.vacuous(other), overlap_model)

    # An aggregator built directly skips from_callable's checks, so a faulty f
    # reaches the result's weights; the result's own checks must then raise
    # the constructor's errors, word for word.  The normalized cells of the
    # partial sources are 0.8602..., 0.1290... and 0.0107...
    @pytest.mark.parametrize(
        "value, error, message",
        [
            (float("nan"), NegativeWeight, "weight nan is not a number in [0, 1]"),
            (-0.5, NegativeWeight, "weight -0.43010752688172044 is not a number in [0, 1]"),
            (2.0, MassOverflow, "single weight 1.7204301075268817 exceeds 1"),
            (float("inf"), MassOverflow, "single weight inf exceeds 1"),
            (1.1, MassOverflow, "total mass 1.1 exceeds 1"),
        ],
        ids=["nan", "negative", "two", "inf", "total"],
    )
    def test_faulty_aggregator_values_raise_the_constructor_errors(
        self, overlap_model, partial_sources, value, error, message
    ):
        faulty = CompletenessAggregator("faulty", lambda q1, q2: value)
        with pytest.raises(error) as info:
            dcr2(*partial_sources, overlap_model, faulty)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_zero_aggregator_values_give_the_empty_result(
        self, abc, overlap_model, partial_sources, value
    ):
        report = dcr2(*partial_sources, overlap_model, CompletenessAggregator("zero", lambda q1, q2: value))
        assert report.result == DNumber(abc)
        assert list(report.result.items()) == []
        assert report.result.q_value == 0.0

    # The kernel makes the cells {a, b}, {b, c} and {b}, in that order, which
    # is not canonical order: a faulty f must be reported on the first weight
    # in the kernel's order, as the constructor reads it.  Under f = 1e-320
    # the {b, c} weight underflows to 0.0 and is dropped.
    @pytest.mark.parametrize(
        "value, outcome",
        [
            (5.0, "MassOverflow: single weight 1.25 exceeds 1"),
            (-0.5, "NegativeWeight: weight -0.125 is not a number in [0, 1]"),
            (float("nan"), "NegativeWeight: weight nan is not a number in [0, 1]"),
            (float("inf"), "MassOverflow: single weight inf exceeds 1"),
            (Tagged(0.5), "{b}: 0.3749999999, {a,b}: 0.125, {b,c}: 1e-10 / f_value=0.5"),
            (1, "{b}: 0.7499999998, {a,b}: 0.25, {b,c}: 2e-10 / f_value=1"),
            (0.0, " / f_value=0.0"),
            (1e-320, "{b}: 7.5e-321, {a,b}: 2.5e-321 / f_value=1e-320"),
        ],
        ids=["five", "negative", "nan", "inf", "float-subclass", "int-one", "zero", "subnormal"],
    )
    @pytest.mark.parametrize("swap", [False, True], ids=["d1-d2", "d2-d1"])
    def test_unusual_aggregator_values(self, abc, value, outcome, swap):
        # Both operand orders, as the kernel may swap them: each fills the
        # cells in the same order and gives the same outcome.
        model = NonExclusivityModel(abc, {("a", "b"): 1.0, ("b", "c"): 1.0})
        d1 = DNumber(abc, {("a",): 0.25, ("b", "c"): 0.75 - 2e-10, ("c",): 2e-10})
        d2 = DNumber(abc, {("b",): 1.0})
        pair = (d2, d1) if swap else (d1, d2)
        assert list(classical._products(*pair, model._degrees_from)[0]) == [0b011, 0b110, 0b010]
        try:
            report = dcr2(*pair, model, CompletenessAggregator("unusual", lambda q1, q2: value))
        except FusionError as exc:
            assert f"{type(exc).__name__}: {exc}" == outcome
            return
        assert f"{repr(report.result).removeprefix('DNumber(')[:-1]} / f_value={report.f_value!r}" == outcome
        assert report.f_value is value
        assert {type(w) for _, w in report.result.items()} <= {float}
        assert (report.k_d, report.d_t_total, report.k) == (0.0, 1.0, 0.2500000002)


class TestExactOracle:
    """dcr1 and dcr2 against :func:`exact_dcr`, which forms every product,
    degree share, sum and quotient as a ``Fraction``.  The worst errors
    measured over 12,000 seeded trials of the random shape were 2.27 ulps
    for dcr1 and 3.50 ulps for dcr2, whose f = Q1*Q2 adds the rounding of
    both Q values and of their product; over 2,400 near-conflict pairs they
    were 3.71 and 4.20 ulps, on the {a, b, c} cell of a non-exclusive model,
    whose shares are rounded twice (product, then degree)."""

    @staticmethod
    def worst(rule, pairs_of_sources, f):
        """The largest error in ulps of ``rule``, against the oracle with
        aggregator ``f``, over the pairs that do not raise TotalConflict, and
        how many pairs did not."""
        worst, count = Fraction(0), 0
        for d1, d2, model in pairs_of_sources:
            try:
                masses = rule(d1, d2, model).result.masses
            except TotalConflict:
                continue
            pairs, overrides = dict(model.element_degrees), dict(model.subset_overrides)
            exact = exact_dcr(dict(d1.items()), dict(d2.items()), pairs, overrides, f)
            assert masses.keys() == exact.keys()
            worst = max(worst, *(ulps(masses[a], v) for a, v in exact.items()))
            count += 1
        return worst, count

    @staticmethod
    def seeded(source, seed, trials=400):
        rng = random.Random(seed)
        for _ in range(trials):
            frame = Frame([f"e{i}" for i in range(rng.randint(2, 7))])
            model = random_model(rng, frame)
            yield source(rng, frame), source(rng, frame), model

    @staticmethod
    def near_conflict(seed, count=200):
        """The pairs of the near-total-conflict test of dcr1 against dempster:
        under the exclusive model only {b} survives, with 0.7 e^2 of the
        mass, and every e here keeps that above the total-conflict bound."""
        rng, abc = random.Random(seed), Frame(["a", "b", "c"])
        for i in range(count):
            e = 10 ** rng.uniform(-5.5, -3)
            d1 = DNumber(abc, {("a",): 1 - e, ("a", "b"): e})
            d2 = DNumber(abc, {("c",): 1 - 0.7 * e, ("b", "c"): 0.7 * e})
            yield d1, d2, random_model(rng, abc) if i % 2 else NonExclusivityModel.exclusive(abc)

    def test_dcr1_within_4_ulps(self):
        one = lambda q1, q2: 1
        worst, count = self.worst(dcr1, self.seeded(random_complete, 31), one)
        assert count > 300 and worst <= 4, float(worst)
        worst, count = self.worst(dcr1, self.near_conflict(32), one)
        assert count == 200 and worst <= 4, float(worst)

    def test_dcr2_within_5_ulps(self):
        product = lambda d1, d2, model: dcr2(d1, d2, model, PRODUCT)
        worst, count = self.worst(product, self.seeded(random_dnumber, 33), mul)
        assert count > 300 and worst <= 5, float(worst)
        worst, count = self.worst(product, self.near_conflict(34), mul)
        assert count == 200 and worst <= 5, float(worst)


class TestResidualConflict:
    def test_never_exceeds_classical_conflict(self, abc, overlap_model):
        rng = random.Random(3)
        for _ in range(50):
            d1, d2 = random_complete(rng, abc), random_complete(rng, abc)
            k = global_conflict(d1, d2)
            k_d = residual_conflict(d1, d2, overlap_model)
            assert k_d <= k + 1e-12

    def test_equals_classical_under_exclusive_model(self, abc):
        rng = random.Random(4)
        model = NonExclusivityModel.exclusive(abc)
        for _ in range(20):
            d1, d2 = random_complete(rng, abc), random_complete(rng, abc)
            assert residual_conflict(d1, d2, model) == global_conflict(d1, d2)

    def test_accepts_incomplete_inputs(self, abc, overlap_model, partial_sources):
        d1, d2 = partial_sources
        assert residual_conflict(d1, d2, overlap_model) >= 0.0


def sparse_case(seed: int, size: int, q: tuple[float, float] = (1.0, 1.0)):
    """Two seeded sources of 1- to 3-element focal sets with total masses ``q``,
    and a dense model, as plain dicts and as package objects.

    Element-pair degrees are drawn from a palette holding -0.0, 0.0, 1.0 and a
    repeated value.  A quarter of the disjoint focal pairs that occur get an
    override, about half of them spelled larger mask first.
    """
    rng = random.Random(seed)
    palette = (-0.0, 0.0, 1.0, 0.25, 0.25, 0.5, rng.random())
    sources = []
    for total_mass in q:
        masks: set[int] = set()
        target = rng.randint(8, 24)
        while len(masks) < target:
            masks.add(sum(1 << i for i in rng.sample(range(size), rng.randint(1, 3))))
        weights = {m: rng.uniform(0.05, 1.0) for m in sorted(masks)}
        total = fsum(weights.values())
        sources.append({m: total_mass * w / total for m, w in weights.items()})
    m1, m2 = sources
    pairs = {
        (i, j): rng.choice(palette)
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < 0.7
    }
    disjoint = sorted({(min(b, c), max(b, c)) for b in m1 for c in m2 if not b & c})
    overrides = {key: rng.choice(palette) for key in rng.sample(disjoint, len(disjoint) // 4)}
    frame = Frame([f"e{i}" for i in range(size)])
    labels = frame.labels
    model = NonExclusivityModel(
        frame,
        {(labels[i], labels[j]): d for (i, j), d in pairs.items()},
        {(key if rng.random() < 0.5 else key[::-1]): d for key, d in overrides.items()},
    )
    return m1, m2, pairs, overrides, model


class TestLazyDegrees:
    """Degree lookups and the non-exclusive kernel against the plain-dict oracles."""

    @staticmethod
    def assert_same(actual: float, expected: float) -> None:
        assert actual == expected and repr(actual) == repr(expected)

    @pytest.mark.parametrize("size", range(16, 25))
    def test_degree_matches_the_brute_force_oracle(self, size):
        m1, m2, pairs, overrides, model = sparse_case(5000 + size, size)
        assert overrides and -0.0 in pairs.values()
        rng = random.Random(size)
        wide = [rng.randint(1, model.frame.full_mask) for _ in range(10)]
        for b, c in [(b, c) for b in m1 for c in m2] + [(b, c) for b in wide for c in wide]:
            expected = brute_degree(pairs, overrides, b, c)
            self.assert_same(model.degree(b, c), expected)
            self.assert_same(model.degree(c, b), expected)
        for b in m1:
            # A row is B's reach and overrides: the override wins, else the
            # largest reach over the elements of C.
            reach, over = model._degrees_from(b)
            for c in m2:
                if not b & c:
                    degree = over[c] if c in over else max(reach[j] for j in bit_indices(c))
                    self.assert_same(degree, brute_degree(pairs, overrides, b, c))

    def test_listed_zeros_read_back_as_positive_zero(self, abc):
        model = NonExclusivityModel(
            abc, {("a", "b"): -0.0, ("a", "c"): 0.0}, {(("b",), ("a", "c")): -0.0}
        )
        self.assert_same(model.degree("a", "b"), 0.0)
        self.assert_same(model.degree(("a",), ("b", "c")), 0.0)
        self.assert_same(model.degree(("a", "c"), "b"), -0.0)
        self.assert_same(model.degree("b", ("a", "c")), -0.0)

    @pytest.mark.parametrize("size", range(16, 25))
    def test_reach_rows_match_the_brute_force_oracle(self, size):
        # One element (the table row itself), two, three, any, and all but one.
        _, _, pairs, _, model = sparse_case(5000 + size, size)
        rng = random.Random(size)
        full = model.frame.full_mask
        subsets = [1 << i for i in range(size)] + [full ^ 1 << i for i in range(size)]
        subsets += [sum(1 << i for i in rng.sample(range(size), k)) for k in (2, 3) for _ in range(size)]
        subsets += [rng.randint(1, full) for _ in range(size)]
        for b in subsets:
            reach = model._degrees_from(b)[0]
            for j in bit_indices(full ^ b):
                self.assert_same(reach[j], brute_degree(pairs, {}, b, 1 << j))

    def assert_exact_kernel(self, m1, m2, pairs, overrides, model) -> None:
        """The kernel's cells, K_D and K are the oracles' fsums, signs included."""
        d1, d2 = DNumber(model.frame, m1), DNumber(model.frame, m2)
        cells, k_d = brute_residual(m1, m2, pairs, overrides)
        masses, kd, k = classical._products(d1, d2, model._degrees_from)
        assert masses == cells and repr(sorted(masses.items())) == repr(sorted(cells.items()))
        self.assert_same(kd, k_d)
        self.assert_same(k, brute_conflict(m1, m2))

    @pytest.mark.parametrize("size", range(16, 25))
    def test_kernel_equals_the_residual_oracle_exactly(self, size):
        m1, m2, pairs, overrides, model = sparse_case(8000 + size, size)
        assert -0.0 in pairs.values()
        assert {repr(d) for d in overrides.values()} >= {"0.0", "-0.0", "1.0"}
        self.assert_exact_kernel(m1, m2, pairs, overrides, model)

    def test_kernel_is_exact_on_tied_degrees_and_single_elements(self, abc):
        # {a} and {b, c} meet at two tied pair degrees, {c} and {a, b} at 1.0,
        # and an override of 0.0 parts {b} and {c}.
        pairs = {(0, 1): 0.3, (0, 2): 0.3, (1, 2): 1.0}
        overrides = {(2, 4): 0.0}
        m1 = {1: 0.1, 2: 0.2, 6: 0.3, 4: 0.4}
        m2 = {6: 0.15, 1: 0.35, 4: 0.05, 3: 0.45}
        model = NonExclusivityModel(
            abc, {("abc"[i], "abc"[j]): d for (i, j), d in pairs.items()}, {("c", "b"): 0.0}
        )
        self.assert_exact_kernel(m1, m2, pairs, overrides, model)

    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_matches_the_residual_oracle(self, seed):
        m1, m2, pairs, overrides, model = sparse_case(6000 + seed, 20)
        frame = model.frame
        d1, d2 = DNumber(frame, m1), DNumber(frame, m2)
        cells, k_d = brute_residual(m1, m2, pairs, overrides)
        assert abs(residual_conflict(d1, d2, model) - k_d) <= 1e-12
        retained = fsum(cells.values())
        masses = dcr1(d1, d2, model).result.masses
        assert masses.keys() == cells.keys()
        for a, v in cells.items():
            assert abs(masses[a] - v / retained) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_dcr2_matches_the_residual_oracle(self, seed):
        q = (0.6 + seed / 40, 0.9 - seed / 40)
        m1, m2, pairs, overrides, model = sparse_case(7000 + seed, 20, q)
        frame = model.frame
        d1, d2 = DNumber(frame, m1), DNumber(frame, m2)
        cells, k_d = brute_residual(m1, m2, pairs, overrides)
        assert abs(residual_conflict(d1, d2, model) - k_d) <= 1e-12
        scale = d1.q_value * d2.q_value / fsum(cells.values())
        masses = dcr2(d1, d2, model).result.masses
        assert masses.keys() == cells.keys()
        for a, v in cells.items():
            assert abs(masses[a] - v * scale) <= 1e-12


#: Every entry point guarded by the focal-pair budget, as ``call(d1, d2, model)``.
BUDGETED = {
    "conjunctive": lambda d1, d2, model: conjunctive(d1, d2),
    "disjunctive": lambda d1, d2, model: disjunctive(d1, d2),
    "dempster": lambda d1, d2, model: dempster(d1, d2),
    "yager": lambda d1, d2, model: yager(d1, d2),
    "dubois_prade": lambda d1, d2, model: dubois_prade(d1, d2),
    "global_conflict": lambda d1, d2, model: global_conflict(d1, d2),
    "residual_conflict": residual_conflict,
    "dcr1": dcr1,
    "dcr2": dcr2,
}


def first_sets(frame: Frame, count: int) -> DNumber:
    """A complete D number on the masks 1..count, equally weighted."""
    return DNumber(frame, {m: 1.0 / count for m in range(1, count + 1)})


class TestFocalPairBudget:
    @pytest.fixture(scope="class")
    def just_above(self):
        # 17 * 61681 = 2^20 + 1
        frame = Frame([f"e{i}" for i in range(16)])
        return first_sets(frame, 17), first_sets(frame, 61681), NonExclusivityModel(frame)

    @pytest.mark.parametrize("name", BUDGETED)
    def test_one_pair_above_the_budget_raises(self, just_above, name):
        d1, d2, model = just_above
        assert len(d1) * len(d2) == MAX_FOCAL_PAIRS + 1
        with pytest.raises(TooManyFocalPairs, match="budget"):
            BUDGETED[name](d1, d2, model)
        with pytest.raises(TooManyFocalPairs):
            BUDGETED[name](d2, d1, model)

    def test_one_pair_below_the_budget_runs(self):
        frame = Frame([f"e{i}" for i in range(11)])
        d1, d2 = first_sets(frame, 1023), first_sets(frame, 1025)
        assert len(d1) * len(d2) == MAX_FOCAL_PAIRS - 1
        assert 0.0 < global_conflict(d1, d2) < 1.0

    @pytest.mark.parametrize("name", BUDGETED)
    def test_every_entry_point_checks_the_budget(self, monkeypatch, abc, overlap_model, name):
        monkeypatch.setattr(classical, "MAX_FOCAL_PAIRS", 6)
        call = BUDGETED[name]
        two, three = first_sets(abc, 2), first_sets(abc, 3)
        call(two, three, overlap_model)
        call(three, two, overlap_model)
        with pytest.raises(TooManyFocalPairs):
            call(first_sets(abc, 7), DNumber.vacuous(abc), overlap_model)


class TestClassicalSteps:
    """The classical steps take K from their one kernel pass; it must equal
    ``global_conflict`` and the independent oracle ``brute_conflict``, fsums
    of the same products."""

    @staticmethod
    def golden_inputs():
        root = Path(__file__).resolve().parent
        paths = sorted((root.parent / "scenarios").glob("*.scn"))
        paths += sorted((root / "fixtures").glob("three_*.scn"))
        for path in paths:
            scenario = parse_scenario(path.read_bytes()).build()
            ds = list(scenario.dnumbers.values())
            for d1 in ds:
                for d2 in ds:
                    yield path.name, d1, d2, scenario.model

    @pytest.mark.parametrize("rule", ["conjunctive", "dempster", "yager", "dubois-prade"])
    def test_k_is_global_conflict_on_the_golden_inputs(self, rule):
        checked = 0
        for _, d1, d2, model in self.golden_inputs():
            k = brute_conflict(dict(d1.items()), dict(d2.items()))
            assert global_conflict(d1, d2) == k
            try:
                report = RULES[rule](d1, d2, model, PRODUCT)
            except (IncompleteInput, TotalConflict):
                continue
            assert report.k == k
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("size", range(1, 9))
    def test_k_is_the_brute_conflict_on_seeded_pairs(self, size):
        # Incomplete pairs too: global_conflict accepts them, and the kernel
        # finds the same K whatever rows of degrees it is given.
        rng = random.Random(7300 + size)
        frame = Frame([f"e{i}" for i in range(size)])
        for _ in range(12):
            d1, d2 = random_dnumber(rng, frame, 12), random_dnumber(rng, frame, 12)
            model = random_model(rng, frame)
            k = brute_conflict(dict(d1.items()), dict(d2.items()))
            assert global_conflict(d1, d2) == k
            assert classical._products(d1, d2, model._degrees_from)[2] == k
            for rule in ("conjunctive", "dempster", "yager", "dubois-prade"):
                try:
                    report = RULES[rule](d1, d2, model, PRODUCT)
                except (IncompleteInput, TotalConflict):
                    continue
                assert report.k == k

    def test_disjunctive_reports_no_k(self, abc):
        d = DNumber(abc, {("a",): 0.5, ("b",): 0.5})
        assert RULES["disjunctive"](d, d, NonExclusivityModel(abc), PRODUCT).k is None


def spread_dnumber(rng: random.Random, frame: Frame, max_focal: int) -> DNumber:
    """Up to ``max_focal`` focal sets whose weights span 12 decades; complete
    about half of the time."""
    masks = rng.sample(range(1, frame.full_mask + 1), rng.randint(1, min(max_focal, frame.full_mask)))
    weights = [10.0 ** rng.uniform(-12.0, 0.0) for _ in masks]
    scale = (1.0 if rng.random() < 0.5 else rng.uniform(0.1, 1.0)) / fsum(weights)
    return DNumber(frame, {m: w * scale for m, w in zip(masks, weights)})


class TestKernelCells:
    """What ``DNumber._from_cells`` takes on trust from the kernel: every cell
    of ``_products`` lies in (0, full_mask] and holds an exact ``float``."""

    def test_seeded_cells_are_non_empty_masks_with_float_values(self):
        rng = random.Random(2323)
        complemented_frames = 0
        for size in range(1, 9):
            frame = Frame([f"e{i}" for i in range(size)])
            full, labels = frame.full_mask, frame.labels
            # Degrees given as ints and as a float subclass, which the model stores as floats.
            degrees = [0, 1, Tagged(0.5)]
            pairs = {
                (a, b): degrees[(i + j) % 3]
                for i, a in enumerate(labels)
                for j, b in enumerate(labels)
                if i < j
            }
            given = NonExclusivityModel(frame, pairs, {((labels[0],), labels[1:]): 1} if size > 1 else None)
            for _ in range(25):
                d1, d2 = (spread_dnumber(rng, frame, 40) for _ in range(2))
                # disjunctive's operands: the complements, where the frame's is 0.
                flipped = [{full ^ b: w for b, w in d.items()} for d in (d1, d2)]
                complemented_frames += sum(0 in m for m in flipped)
                runs = [
                    (d1, d2, classical._exclusive),
                    (d1, d2, classical._overlapping),
                    (d1, d2, random_model(rng, frame)._degrees_from),
                    (d1, d2, given._degrees_from),
                    (*flipped, classical._exclusive),
                ]
                for m1, m2, rows in runs:
                    cells = classical._products(m1, m2, rows)[0]
                    assert all(0 < a <= full for a in cells)
                    assert {type(v) for v in cells.values()} <= {float}
        assert complemented_frames


class TestBareFloatCells:
    """A cell holds its first product as a bare float and becomes an array at
    its second.  Weights and degrees are powers of two here, so every product is
    exact in any order and the oracles agree with the kernel bit for bit."""

    A, B, C, D = 1, 2, 4, 8

    @staticmethod
    def sorted_repr(masses) -> str:
        return repr(sorted(masses.items()))

    def kernel(self, m1, m2, pairs=None, overrides=None) -> dict[int, float]:
        """The kernel's cells, checked against ``brute_residual``,
        ``brute_conflict`` and ``brute_dempster`` over the frame a, b, c, d."""
        pairs, overrides = pairs or {}, overrides or {}
        frame = Frame(list("abcd"))
        model = NonExclusivityModel(
            frame, {("abcd"[i], "abcd"[j]): d for (i, j), d in pairs.items()}, overrides
        )
        d1, d2 = DNumber(frame, m1), DNumber(frame, m2)
        cells, k_d = brute_residual(m1, m2, pairs, overrides)
        masses, kd, k = classical._products(d1, d2, model._degrees_from)
        assert self.sorted_repr({a: v for a, v in masses.items() if v}) == self.sorted_repr(cells)
        assert repr((kd, k)) == repr((k_d, brute_conflict(m1, m2)))
        assert dcr2(d1, d2, model).result.masses.keys() == cells.keys()
        assert self.sorted_repr(dempster(d1, d2).masses) == self.sorted_repr(brute_dempster(m1, m2))
        return masses

    def test_a_lone_product_that_underflows_is_dropped(self):
        A, B, C, D = self.A, self.B, self.C, self.D
        # {a} gets only 2^-600 * 2^-600, which is 0.0; so does {a, d} under
        # the degree 2^-600 of a and d.  {b} gets two products.
        m1 = {A: 2.0**-600, B: 0.5, C | D: 0.5}
        m2 = {A: 2.0**-600, B | C: 0.25, B: 0.25, D: 0.5}
        masses = self.kernel(m1, m2, {(0, 3): 2.0**-600})
        assert repr(masses[A]) == repr(masses[A | D]) == "0.0"
        assert A not in brute_dempster(m1, m2)

    def test_lone_subnormal_products_keep_their_value(self):
        A, B, C, D = self.A, self.B, self.C, self.D
        m1 = {A: 2.0**-530, B: 0.5, C | D: 0.5}
        m2 = {A: 2.0**-530, B | C: 0.25, B: 0.25, D: 0.5}
        masses = self.kernel(m1, m2, {(0, 3): 2.0**-540})
        assert masses[A] == 2.0**-1060
        assert masses[A | D] == masses[A | C | D] == 2.0**-1071

    def test_arrays_from_a_second_product_on_match_the_oracle(self):
        # Cell {a, b, c} gets one product, three cells get two, and the
        # single-element cells 24 to 26.
        rng = random.Random(14)
        frame = Frame(list("abcd"))
        weights = [
            {m: 10.0 ** rng.uniform(-12.0, 0.0) for m in range(1, 16) if m != skip}
            for skip in (7, 15)
        ]
        m1, m2 = ({m: w / fsum(ws.values()) for m, w in ws.items()} for ws in weights)
        counts = Counter(b & c for b in m1 for c in m2 if b & c)
        assert counts[7] == 1 and counts[11] == counts[13] == counts[14] == 2
        d1, d2 = DNumber(frame, m1), DNumber(frame, m2)
        expected = self.sorted_repr(brute_dempster(dict(d1.items()), dict(d2.items())))
        assert self.sorted_repr(dempster(d1, d2).masses) == expected

    def test_degree_overrides_of_minus_zero_and_one(self):
        A, B, C, D = self.A, self.B, self.C, self.D
        m1, m2 = {A: 0.5, B: 0.25, C | D: 0.125, C: 0.125}, {C: 0.5, D: 0.5}
        overrides = {(A, C): -0.0, (B, C): -0.0, (A, D): 1.0, (B, D): 1.0}
        masses = self.kernel(m1, m2, {(0, 2): 0.5, (1, 3): 0.5}, overrides)
        # -0.0 makes no union cell, and 1.0 no conflict.
        assert sorted(masses) == sorted([C, D, A | D, B | D])
        every_one = {key: 1.0 for key in overrides}
        masses = self.kernel(m1, m2, {}, every_one)
        assert sorted(masses) == sorted([C, D, A | C, B | C, A | D, B | D])
        frame = Frame(list("abcd"))
        d1, d2 = DNumber(frame, m1), DNumber(frame, m2)
        # Only {c} against {d}, of degree 0, is left in conflict.
        assert repr(residual_conflict(d1, d2, NonExclusivityModel(frame, None, every_one))) == "0.0625"


class TestCombineMany:
    def test_vacuous_fold_is_neutral(self, abc):
        model = NonExclusivityModel.exclusive(abc)
        d = DNumber(abc, {("a",): 0.5, ("a", "b"): 0.5})
        report = combine_many([d, DNumber.vacuous(abc)], model, PRODUCT, "fold")
        assert report.result == d

    def test_average_iterate_of_identical_inputs(self, abc, overlap_model):
        d = DNumber(abc, {("a",): 0.5, ("b", "c"): 0.5})
        via_strategy = combine_many([d, d], overlap_model, PRODUCT, "average-iterate")
        direct = dcr2(d, d, overlap_model, PRODUCT)
        assert via_strategy.result == direct.result

    def test_fold_of_complete_exclusive_matches_iterated_dempster(self, abc):
        rng = random.Random(5)
        model = NonExclusivityModel.exclusive(abc)
        from itertools import permutations

        for _ in range(10):
            ds = [random_complete(rng, abc) for _ in range(3)]
            try:
                expected = {}
                for order in permutations(range(3)):
                    out = ds[order[0]]
                    for i in order[1:]:
                        out = dempster(out, ds[i])
                    expected[order] = out
            except TotalConflict:
                continue
            # the dempster oracle itself is order-independent
            base = expected[(0, 1, 2)]
            for out in expected.values():
                for mask in set(base.focal_sets()) | set(out.focal_sets()):
                    assert abs(base.weight(mask) - out.weight(mask)) < 1e-12
            folded = combine_many(ds, model, PRODUCT, "fold").result
            for mask in set(base.focal_sets()) | set(folded.focal_sets()):
                assert abs(base.weight(mask) - folded.weight(mask)) < 1e-10
            assert combine_many(ds, model, PRODUCT, "fold", "dempster").result == base

    def test_total_conflict_reports_step(self, abc):
        model = NonExclusivityModel.exclusive(abc)
        sure_a = DNumber(abc, {("a",): 1.0})
        sure_b = DNumber(abc, {("b",): 1.0})
        with pytest.raises(TotalConflict) as excinfo:
            combine_many([sure_a, sure_a, sure_b], model, PRODUCT, "fold")
        assert excinfo.value.step == 2
        with pytest.raises(TotalConflict) as excinfo:
            combine_many([sure_a, sure_b, sure_a], model, PRODUCT, "fold")
        assert excinfo.value.step == 1

    def test_conjunctive_combines_exactly_two_sources(self, abc, overlap_model):
        ds = [DNumber.vacuous(abc)] * 3
        with pytest.raises(ValueError, match="exactly two"):
            combine_many(ds, overlap_model, PRODUCT, "fold", "conjunctive")

    def test_unknown_rule(self, abc, overlap_model):
        ds = [DNumber.vacuous(abc), DNumber.vacuous(abc)]
        with pytest.raises(ValueError, match="unknown rule"):
            combine_many(ds, overlap_model, PRODUCT, "fold", "pcr5")

    def test_two_source_steps_match_the_public_rules(self, abc, overlap_model):
        rng = random.Random(11)
        d1, d2 = random_complete(rng, abc), random_complete(rng, abc)
        k = global_conflict(d1, d2)
        expected = {
            "conjunctive": (conjunctive(d1, d2), k),
            "disjunctive": (disjunctive(d1, d2), None),
            "dempster": (dempster(d1, d2), k),
            "yager": (yager(d1, d2), k),
            "dubois-prade": (dubois_prade(d1, d2), k),
            "dcr1": (dcr1(d1, d2, overlap_model).result, k),
            "dcr2": (dcr2(d1, d2, overlap_model, MINIMUM).result, k),
        }
        assert list(RULES) == list(expected)
        for name, (result, k_value) in expected.items():
            report = combine_many([d1, d2], overlap_model, MINIMUM, "fold", name)
            assert report.rule == name
            assert report.result == result, name
            assert report.k == k_value, name
        k_d = residual_conflict(d1, d2, overlap_model)
        for name in ("dcr1", "dcr2"):
            assert combine_many([d1, d2], overlap_model, rule=name).k_d == k_d, name

    def test_average_iterate_of_a_classical_rule(self, abc, overlap_model):
        rng = random.Random(12)
        ds = [random_complete(rng, abc) for _ in range(3)]
        mean = mean_assignment(ds)
        report = combine_many(ds, overlap_model, PRODUCT, "average-iterate", "yager")
        assert report.result == yager(yager(mean, mean), mean)

    def test_needs_two_sources(self, abc, overlap_model):
        with pytest.raises(ValueError):
            combine_many([DNumber.vacuous(abc)], overlap_model)

    def test_unknown_strategy(self, abc, overlap_model):
        ds = [DNumber.vacuous(abc), DNumber.vacuous(abc)]
        with pytest.raises(ValueError):
            combine_many(ds, overlap_model, PRODUCT, "pairwise")

    def test_frame_mismatch(self, abc, overlap_model):
        other = DNumber.vacuous(Frame(["x", "y"]))
        with pytest.raises(FrameMismatch):
            combine_many([DNumber.vacuous(abc), other], overlap_model)


class TestMeanAssignment:
    def test_pointwise_mean(self, abc):
        d1 = DNumber(abc, {("a",): 0.5, ("b",): 0.5})
        d2 = DNumber(abc, {("a",): 0.25})
        mean = mean_assignment([d1, d2])
        assert mean.weight(("a",)) == 0.375
        assert mean.weight(("b",)) == 0.25
        assert abs(mean.q_value - (d1.q_value + d2.q_value) / 2) < 1e-15

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            mean_assignment([])

    def test_frame_mismatch(self, abc):
        with pytest.raises(FrameMismatch):
            mean_assignment([DNumber.vacuous(abc), DNumber.vacuous(Frame(["x", "y"]))])

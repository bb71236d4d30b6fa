import random
from math import fsum
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
from helpers import (
    brute_conflict,
    brute_degree,
    brute_residual,
    random_complete,
    random_dnumber,
    random_model,
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
        for b, row in zip(matrix.subsets, matrix.rows, strict=True):
            assert row == tuple(brute_degree(pairs, overrides, b, c) for c in matrix.subsets)

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
            rows = list(matrix.rows_as(ranks, lambda d: None))
            assert all(len(row) == len(matrix.subsets) for row in rows)
            assert matrix.shown()[0] == {r for row in rows for r in row if r is not None}
        if hidden is not None:
            assert ranked.values.index(hidden) not in ranked.shown()[0]

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
            row = model._degrees_from(b)
            for c in m2:
                if not b & c:
                    self.assert_same(row(c), brute_degree(pairs, overrides, b, c))

    def test_listed_zeros_read_back_as_positive_zero(self, abc):
        model = NonExclusivityModel(
            abc, {("a", "b"): -0.0, ("a", "c"): 0.0}, {(("b",), ("a", "c")): -0.0}
        )
        self.assert_same(model.degree("a", "b"), 0.0)
        self.assert_same(model.degree(("a",), ("b", "c")), 0.0)
        self.assert_same(model.degree(("a", "c"), "b"), -0.0)
        self.assert_same(model.degree("b", ("a", "c")), -0.0)

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


class TestForcedCompaction:
    """With both squeeze thresholds at their minimum, the kernel squeezes its
    lists after every outer row; every step, K and K_D keep their ``repr``."""

    @staticmethod
    def outcomes(d1, d2, model) -> list[str]:
        seen = [repr(global_conflict(d1, d2)), repr(residual_conflict(d1, d2, model))]
        for name, step in RULES.items():
            try:
                seen.append(repr(step(d1, d2, model, MINIMUM)))
            except FusionError as exc:
                seen.append(f"{name}: {exc!r}")
        return seen

    @staticmethod
    def force(monkeypatch) -> list[int]:
        """Set both thresholds to 0; the lengths of the lists squeezed from then on."""
        squeezed = []
        squeeze = classical._squeeze

        def counted(v):
            squeezed.append(len(v))
            return squeeze(v)

        monkeypatch.setattr(classical, "_squeeze", counted)
        monkeypatch.setattr(classical, "_SQUEEZE_CONFLICT", 0)
        monkeypatch.setattr(classical, "_SQUEEZE_CELLS", 0)
        return squeezed

    def test_seeded_pairs_keep_their_repr(self, monkeypatch):
        rng = random.Random(1313)
        cases = []
        for size in range(1, 13):
            frame = Frame([f"e{i}" for i in range(size)])
            for _ in range(3):
                d1, d2 = spread_dnumber(rng, frame, 80), spread_dnumber(rng, frame, 80)
                cases.append((d1, d2, random_model(rng, frame)))
        expected = [self.outcomes(*case) for case in cases]
        squeezed = self.force(monkeypatch)
        assert [self.outcomes(*case) for case in cases] == expected
        assert max(squeezed) > 8

    def test_golden_inputs_keep_their_repr(self, monkeypatch):
        cases = [case[1:] for case in TestClassicalSteps.golden_inputs()]
        expected = [self.outcomes(*case) for case in cases]
        squeezed = self.force(monkeypatch)
        assert [self.outcomes(*case) for case in cases] == expected
        assert squeezed

    def test_cells_are_squeezed_without_disjoint_pairs(self, monkeypatch):
        # Every focal set holds e0, so no pair is disjoint and every squeeze
        # is a compaction of the cells.
        rng = random.Random(17)
        frame = Frame([f"e{i}" for i in range(4)])
        d1, d2 = (
            DNumber(frame, {m: 10.0 ** rng.uniform(-12.0, -1.0) for m in range(1, 16, 2)})
            for _ in range(2)
        )
        expected = repr(classical._products(d1, d2, classical._exclusive))
        squeezed = self.force(monkeypatch)
        assert repr(classical._products(d1, d2, classical._exclusive)) == expected
        assert squeezed and min(squeezed) > 8


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

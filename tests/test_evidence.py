import random
import sys
import time
from array import array
from itertools import islice

import pytest

from dnumbers import BeliefSummary, DNumber, Frame
from dnumbers import evidence
from dnumbers.evidence import MAX_FRAME_SIZE, _canonical, _popcounts, bit_indices
from dnumbers.errors import (
    DuplicateLabel,
    EmptyFrame,
    EmptySetAssignment,
    ForeignSubset,
    FrameTooLarge,
    MassOverflow,
    NegativeWeight,
)
from helpers import brute_bel, brute_pl


def canonical(mask: int) -> tuple[int, tuple[int, ...]]:
    """The canonical subset order spelled out: cardinality, then element indices."""
    indices = tuple(i for i in range(MAX_FRAME_SIZE) if mask >> i & 1)
    return (len(indices), indices)


def formula_key(mask: int) -> int:
    """``Frame.sort_key``'s documented value, ``(popcount << W) | (2^W - 1 -
    bitreverse_W(mask))``, with the reversal spelled as a string."""
    reversed_bits = int(f"{mask:0{MAX_FRAME_SIZE}b}"[::-1], 2)
    return mask.bit_count() << MAX_FRAME_SIZE | ((1 << MAX_FRAME_SIZE) - 1 - reversed_bits)


def naive_bit_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def loop_bit_indices(mask: int) -> tuple[int, ...]:
    """The loop that ``bit_indices`` replaced: peel off the lowest set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def frame_of(size: int) -> Frame:
    return Frame([f"e{i}" for i in range(size)])


class Half(float):
    """A float subclass, such as a numpy scalar."""


def outcome(build):
    """The error type and message ``build()`` raises, or its D number's items,
    weight types and Q value."""
    try:
        d = build()
    except Exception as exc:
        return type(exc), str(exc)
    return list(d.items()), [type(w) for _, w in d.items()], d.q_value


class TestFrame:
    def test_labels_map_to_bits_in_order(self):
        frame = Frame(["a", "b", "c"])
        assert frame.size == 3
        assert frame.mask("a") == 0b001
        assert frame.mask("b") == 0b010
        assert frame.mask("c") == 0b100
        assert frame.mask("a", "c") == 0b101
        assert frame.full_mask == 0b111

    def test_linguistic_labels(self):
        frame = Frame(["High", "Medium", "Low"])
        assert frame.size == 3
        assert frame.labels_of(frame.mask("High", "Medium")) == ("High", "Medium")

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            Frame(["x", "x"])

    @pytest.mark.parametrize("labels", [[2, 1], ["a", 1], [b"a"], [("a",)], [None]])
    def test_labels_that_are_not_str_rejected(self, labels):
        # With Frame([2, 1]), {1: w} is a mask for label 2 and {(1,): w} label 1.
        with pytest.raises(TypeError, match="frame labels are str"):
            Frame(labels)

    def test_empty_frame_rejected(self):
        with pytest.raises(EmptyFrame):
            Frame([])

    def test_size_cap(self):
        Frame([f"e{i}" for i in range(24)])  # at the cap: fine
        with pytest.raises(FrameTooLarge):
            Frame([f"e{i}" for i in range(25)])

    def test_coerce_spellings(self):
        frame = Frame(["a", "b", "c"])
        assert frame.coerce("b") == 0b010
        assert frame.coerce(["a", "b"]) == frame.coerce(("b", "a")) == 0b011
        assert frame.coerce(0b101) == 0b101

    def test_foreign_subsets_rejected(self):
        frame = Frame(["a", "b"])
        with pytest.raises(ForeignSubset):
            frame.mask("z")
        with pytest.raises(ForeignSubset):
            frame.coerce(0b100)
        with pytest.raises(ForeignSubset):
            frame.coerce(-1)

    def test_canonical_subset_order(self):
        frame = Frame(["a", "b", "c"])
        assert [frame.labels_of(m) for m in frame.subsets()] == [
            ("a",),
            ("b",),
            ("c",),
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("a", "b", "c"),
        ]

    @pytest.mark.parametrize("size", range(1, 13))
    def test_sort_key_order_is_canonical_on_every_mask(self, size):
        frame = frame_of(size)
        masks = range(frame.full_mask + 1)
        expected = sorted(masks, key=canonical)
        assert sorted(masks, key=frame.sort_key) == expected
        assert list(map(frame.sort_key, masks)) == list(map(formula_key, masks))
        assert _canonical(masks) == expected
        assert list(frame.subsets()) == _canonical(range(1, frame.full_mask + 1))

    def test_sort_key_order_is_canonical_on_sampled_masks_at_the_cap(self):
        frame = frame_of(MAX_FRAME_SIZE)
        rng = random.Random(24)
        masks = [
            sum(1 << i for i in rng.sample(range(MAX_FRAME_SIZE), rng.randint(0, MAX_FRAME_SIZE)))
            for _ in range(20000)
        ]
        assert len(set(masks)) < len(masks)
        expected = sorted(masks, key=canonical)
        assert sorted(masks, key=frame.sort_key) == expected
        assert list(map(frame.sort_key, masks)) == list(map(formula_key, masks))
        assert _canonical(masks) == expected

    def test_canonical_order_of_no_masks_is_empty(self):
        assert _canonical([]) == []
        assert _canonical({}) == []
        assert _popcounts(b"") == b""

    def test_canonical_order_counts_every_bit_of_the_largest_mask(self):
        top = (1 << MAX_FRAME_SIZE) - 1
        masks = [top, 0, 1 << 23, top ^ 1, 1, top ^ 1 << 23, 0xFF0000, 0xFF, 0xFF00]
        assert _canonical(masks) == sorted(masks, key=canonical)
        assert _canonical([top]) == [top]
        assert frame_of(MAX_FRAME_SIZE).sort_key(top) == formula_key(top) == MAX_FRAME_SIZE << MAX_FRAME_SIZE
        assert _popcounts(array("I", masks).tobytes()) == bytes(m.bit_count() for m in masks)

    @pytest.mark.parametrize("order", ["little", "big"])
    def test_popcounts_read_either_byte_order(self, order, monkeypatch):
        # The items as a host of the other byte order lays them out, read with
        # that order's offset of the count byte.
        masks = [0, 1, 0xFFFFFF, 0x800001, 0x00FF00, 0x123456, 0xABCDEF]
        items = array("I", masks)
        if order != sys.byteorder:
            items.byteswap()
        monkeypatch.setattr(evidence, "_COUNT_AT", 2 if order == "little" else 3)
        assert _popcounts(items.tobytes()) == bytes(m.bit_count() for m in masks)

    @pytest.mark.parametrize("size", [3, MAX_FRAME_SIZE])
    def test_sort_key_rejects_masks_outside_the_frame(self, size):
        frame = frame_of(size)
        assert frame.sort_key(0) == (1 << MAX_FRAME_SIZE) - 1
        for mask in (frame.full_mask + 1, -1, 1 << 24, 1 << 32):
            with pytest.raises(ForeignSubset):
                frame.sort_key(mask)

    def test_subsets_come_in_canonical_order(self):
        frame = frame_of(10)
        assert list(frame.subsets()) == sorted(range(1, frame.full_mask + 1), key=canonical)

    def test_subsets_are_generated_lazily_at_the_cap(self):
        frame = frame_of(MAX_FRAME_SIZE)
        start = time.perf_counter()
        first = list(islice(frame.subsets(), 300))
        # All 2^24 - 1 subsets, sorted first, take seconds and hundreds of MB.
        assert time.perf_counter() - start < 1.0
        # The 24 singletons, then the 276 pairs by their lower, then higher element.
        n = MAX_FRAME_SIZE
        assert first == [1 << i for i in range(n)] + [
            1 << i | 1 << j for i in range(n) for j in range(i + 1, n)
        ]

    def test_full_mask_covers_every_element(self):
        for size in range(1, MAX_FRAME_SIZE + 1):
            frame = frame_of(size)
            assert frame.full_mask == sum(1 << i for i in range(size))
            assert frame.coerce(frame.full_mask) == frame.full_mask
            with pytest.raises(ForeignSubset):
                frame.coerce(frame.full_mask + 1)

    def test_bit_indices_on_every_mask_of_twelve_elements(self):
        for mask in range(frame_of(12).full_mask + 1):
            assert bit_indices(mask) == naive_bit_indices(mask)

    def test_bit_indices_on_sampled_masks_at_the_cap(self):
        rng = random.Random(2424)
        for _ in range(20000):
            mask = rng.getrandbits(MAX_FRAME_SIZE)
            assert bit_indices(mask) == naive_bit_indices(mask)

    def test_bit_indices_agrees_with_the_loop_below_the_cap_and_raises_at_it(self):
        rng = random.Random(2416)
        masks = [*range(1 << 16), *(rng.getrandbits(MAX_FRAME_SIZE) for _ in range(20000))]
        for mask in masks + [(1 << MAX_FRAME_SIZE) - 1]:
            assert bit_indices(mask) == loop_bit_indices(mask)
        with pytest.raises(IndexError):
            bit_indices(1 << MAX_FRAME_SIZE)

    def test_equality_is_by_labels(self):
        assert Frame(["a", "b"]) == Frame(["a", "b"])
        assert Frame(["a", "b"]) != Frame(["b", "a"])


class TestDNumber:
    def test_partial_assignment_q_value(self, abc):
        d = DNumber(abc, {("a",): 0.7, ("b", "c"): 0.1, ("a", "b", "c"): 0.1})
        assert abs(d.q_value - 0.9) < 1e-12
        assert not d.is_complete()

    def test_vacuous_is_complete(self, abc):
        d = DNumber.vacuous(abc)
        assert d.q_value == 1.0
        assert d.is_complete()
        assert d.weight(abc.full_mask) == 1.0

    def test_masses_come_in_canonical_order_from_a_shuffled_mapping(self):
        frame = frame_of(10)
        masks = list(range(1, frame.full_mask + 1))
        random.Random(10).shuffle(masks)
        d = DNumber(frame, {m: 1.0 / len(masks) for m in masks})
        assert list(d.masses) == sorted(masks, key=canonical)

    @pytest.mark.parametrize(
        "weights",
        [
            [0.25, float("nan"), 0.25],  # min and max step over a NaN that is not first
            [float("nan"), 0.25, 0.25],
            [0.25, 0.25, float("nan")],
            [0.25, Half(0.25), 0.25],
            [0.25, float("inf"), 0.25],
            [0.25, float("nan"), float("inf")],
            [0.25, -0.0, 0.5],
            [0.5, 0.5, 0.5],
        ],
    )
    @pytest.mark.parametrize("cells", [(1, 2, 4), (4, 1, 2)])
    def test_bulk_results_that_fail_a_check_match_the_constructor(self, weights, cells):
        # ``cells`` is the kernel's order, in which the constructor meets the weights.
        frame, order = frame_of(3), [1, 2, 4]
        weight = dict(zip(order, weights))
        bulk = outcome(lambda: DNumber._from_cells(frame, cells, order, weights))
        assert bulk == outcome(lambda: DNumber(frame, {a: weight[a] for a in cells}))

    def test_bulk_results_hold_plain_floats(self):
        frame = frame_of(3)
        d = DNumber._from_cells(frame, [4, 1, 2], [1, 2, 4], [0.25, Half(0.25), 0.5])
        assert list(d.items()) == [(1, 0.25), (2, 0.25), (4, 0.5)]
        assert {type(w) for _, w in d.items()} == {float}

    def test_overflow_rejected(self, abc):
        with pytest.raises(MassOverflow):
            DNumber(abc, {("a",): 0.8, ("b",): 0.3})

    def test_single_weight_above_one_rejected(self, abc):
        with pytest.raises(MassOverflow):
            DNumber(abc, {("a",): 1.2})

    def test_negative_weight_rejected(self, abc):
        with pytest.raises(NegativeWeight):
            DNumber(abc, {("a",): -0.1})
        with pytest.raises(NegativeWeight):
            DNumber(abc, {("a",): float("nan")})

    def test_empty_set_mass_rejected(self, abc):
        with pytest.raises(EmptySetAssignment):
            DNumber(abc, [((), 0.3)])
        with pytest.raises(EmptySetAssignment):
            DNumber(abc, [(0, 0.3)])

    def test_foreign_subset_rejected(self, abc):
        with pytest.raises(ForeignSubset):
            DNumber(abc, {("z",): 0.3})

    def test_zero_weights_dropped(self, abc):
        d = DNumber(abc, {("a",): 0.5, ("b",): 0.0, ("a", "b", "c"): 0.5})
        assert d.focal_sets() == (0b001, 0b111)

    def test_duplicate_subsets_summed(self, abc):
        d = DNumber(abc, [("a", 0.25), (("a",), 0.25), (("b",), 0.5)])
        assert d.weight("a") == 0.5

    def test_string_means_single_label(self):
        frame = Frame(["High", "Medium"])
        d = DNumber(frame, {"High": 1.0})
        assert d.weight(("High",)) == 1.0

    def test_empty_assignment_allowed(self, abc):
        d = DNumber(abc)
        assert d.q_value == 0.0
        assert len(d) == 0

    def test_masses_are_read_only(self, abc):
        d = DNumber(abc, {("a",): 1.0})
        with pytest.raises(TypeError):
            d.masses[1] = 0.5

    def test_rule_masses_with_float_subclass_weights_become_floats(self, abc):
        class Weight(float):
            pass

        d = DNumber._from_masks(abc, {0b011: Weight(0.25), 0b001: 0.5})
        assert d == DNumber(abc, {0b001: 0.5, 0b011: 0.25})
        assert list(d.items()) == [(0b001, 0.5), (0b011, 0.25)]
        assert {type(w) for _, w in d.items()} == {float}

    def test_empty_rule_masses_give_the_empty_assignment(self, abc):
        assert DNumber._from_masks(abc, {}) == DNumber(abc)
        assert DNumber._from_masks(abc, {0b001: 0.0, 0b010: -0.0}) == DNumber(abc)


class TestBeliefPlausibility:
    def test_vacuous_bounds(self, abc):
        d = DNumber.vacuous(abc)
        assert d.belief("a") == 0.0
        assert d.plausibility("a") == 1.0

    def test_belief_of_superset_is_total(self, abc):
        d = DNumber(abc, {("a",): 0.5, ("a", "b"): 0.5})
        assert d.belief(("a", "b")) == 1.0

    def test_belief_partial_subset_matches_oracle(self, abc):
        d = DNumber(abc, {("a",): 0.5, ("a", "b"): 0.5})
        assert brute_bel(d, ("a",)) == 0.5
        assert d.belief(("a",)) == 0.5

    def test_plausibility_matches_oracle(self, abc):
        d = DNumber(abc, {("a",): 0.5, ("a", "b"): 0.5})
        assert brute_pl(d, ("b",)) == 0.5
        assert d.plausibility(("b",)) == 0.5

    def test_disjoint_focal_element(self, abc):
        d = DNumber(abc, {("a",): 1.0})
        assert d.plausibility(("b",)) == 0.0

    def test_belief_of_frame_equals_q(self, abc, partial_sources):
        d1, _ = partial_sources
        assert d1.belief(abc.full_mask) == d1.q_value

    def test_summary_flags_incomplete_source(self, abc, partial_sources):
        d1, _ = partial_sources
        summary = d1.summary(("a",))
        assert isinstance(summary, BeliefSummary)
        assert summary.from_incomplete
        complete = DNumber.vacuous(abc).summary(("a",))
        assert not complete.from_incomplete
        assert complete.bel <= complete.pl

    def test_foreign_subset_rejected(self, abc):
        d = DNumber.vacuous(abc)
        with pytest.raises(ForeignSubset):
            d.belief(("z",))
        with pytest.raises(ForeignSubset):
            d.plausibility(0b1000)

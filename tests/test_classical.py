import random
from fractions import Fraction
from math import fsum, ldexp

import pytest

from dnumbers import (
    DNumber,
    Frame,
    conjunctive,
    dempster,
    disjunctive,
    dubois_prade,
    global_conflict,
    yager,
)
from dnumbers import classical
from dnumbers.errors import FrameMismatch, IncompleteInput, TotalConflict
from helpers import brute_conflict, brute_disjunctive

RULES = (conjunctive, disjunctive, dempster, yager, dubois_prade)


@pytest.fixture
def hm_frame():
    return Frame(["High", "Medium", "Low"])


@pytest.fixture
def sure_pair(hm_frame):
    return DNumber(hm_frame, {"High": 1.0}), DNumber(hm_frame, {"Medium": 1.0})


@pytest.fixture
def mixed_pair(abc):
    # Hand enumeration of all four focal pairs:
    #   ({a},{b}) -> empty        0.6*0.5 = 0.3
    #   ({a},Th)  -> {a}          0.6*0.5 = 0.3
    #   ({a,b},{b}) -> {b}        0.4*0.5 = 0.2
    #   ({a,b},Th)  -> {a,b}      0.4*0.5 = 0.2
    m1 = DNumber(abc, {("a",): 0.6, ("a", "b"): 0.4})
    m2 = DNumber(abc, {("b",): 0.5, ("a", "b", "c"): 0.5})
    return m1, m2


class TestConjunctive:
    def test_totally_conflicting_sources(self, sure_pair):
        result = conjunctive(*sure_pair)
        assert result.k == 1.0
        assert all(v == 0.0 for mask, v in result.masses.items() if mask)

    def test_vacuous_is_neutral(self, abc, mixed_pair):
        m1, _ = mixed_pair
        result = conjunctive(m1, DNumber.vacuous(abc))
        assert result.k == 0.0
        assert {m: v for m, v in result.masses.items() if m} == dict(m1.items())

    def test_mixed_pair_cells(self, abc, mixed_pair):
        result = conjunctive(*mixed_pair)
        assert result.k == 0.3
        assert result.masses[abc.mask("a")] == 0.3
        assert result.masses[abc.mask("b")] == 0.2
        assert result.masses[abc.mask("a", "b")] == 0.2

    def test_masses_are_read_only(self, abc, mixed_pair):
        result = conjunctive(*mixed_pair)
        with pytest.raises(TypeError):
            result.masses[abc.mask("a")] = 1.0

    def test_total_mass_is_product_of_q(self, mixed_pair):
        result = conjunctive(*mixed_pair)
        m1, m2 = mixed_pair
        assert abs(fsum(result.masses.values()) - m1.q_value * m2.q_value) < 1e-12


class TestDisjunctive:
    def test_single_union_pair(self, hm_frame, sure_pair):
        result = disjunctive(*sure_pair)
        assert result.weight(("High", "Medium")) == 1.0

    def test_vacuous_absorbs(self, abc, mixed_pair):
        m1, _ = mixed_pair
        assert disjunctive(m1, DNumber.vacuous(abc)) == DNumber.vacuous(abc)

    def test_mixed_pair(self, abc, mixed_pair):
        result = disjunctive(*mixed_pair)
        assert result.weight(("a", "b")) == 0.5
        assert result.weight(abc.full_mask) == 0.5
        assert result.is_complete()


def spread_complete(rng: random.Random, frame: Frame, max_focal: int) -> DNumber:
    """A complete assignment of up to ``max_focal`` focal sets, weights over 12
    decades; the whole frame is focal about one time in six."""
    full = frame.full_mask
    masks = rng.sample(range(1, full), rng.randint(1, min(max_focal, full - 1))) if full > 1 else [1]
    if rng.random() < 1 / 6:
        masks[0] = full
    weights = [10.0 ** rng.uniform(-12.0, 0.0) for _ in masks]
    total = fsum(weights)
    return DNumber(frame, {m: w / total for m, w in zip(masks, weights)})


class TestDisjunctiveOracle:
    """``disjunctive`` runs the conjunctive kernel on complemented focal sets;
    ``brute_disjunctive`` sums every union directly, so ``==`` pins both."""

    @staticmethod
    def check(d1: DNumber, d2: DNumber) -> DNumber:
        result = disjunctive(d1, d2)
        assert dict(result.items()) == brute_disjunctive(dict(d1.items()), dict(d2.items()))
        return result

    @staticmethod
    def seeded_pairs(seed: int) -> list[tuple[DNumber, DNumber]]:
        rng = random.Random(seed)
        return [
            (spread_complete(rng, frame, most), spread_complete(rng, frame, most))
            for frame in (Frame([f"e{i}" for i in range(size)]) for size in range(1, 13))
            for most in (3, 80) * 5
        ]

    def test_seeded_pairs(self):
        pairs = self.seeded_pairs(1616)
        full_focal = covering = 0
        for d1, d2 in pairs:
            full = d1.frame.full_mask
            full_focal += full in d1.masses or full in d2.masses
            covering += full in self.check(d1, d2).masses
        assert 20 < full_focal < len(pairs) - 20
        assert covering < len(pairs)

    def test_whole_frame_focal(self, abc):
        # The frame's complement is the empty mask: every pair with the frame
        # in it is a disjoint pair of the kernel, and its product goes to K.
        d1 = DNumber(abc, {abc.full_mask: 0.25, ("a",): 0.75})
        d2 = DNumber(abc, {("b",): 0.5, ("c",): 0.5})
        result = self.check(d1, d2)
        assert result.weight(abc.full_mask) == 0.25
        assert result.weight(("a", "b")) == result.weight(("a", "c")) == 0.375

    def test_no_union_covers_the_frame(self, abc):
        d1 = DNumber(abc, {("a",): 0.5, ("a", "b"): 0.5})
        d2 = DNumber(abc, {("a",): 0.4, ("b",): 0.6})
        result = self.check(d1, d2)
        assert abc.full_mask not in result.masses
        assert result.is_complete()

    def test_lone_products_that_underflow_are_dropped(self, abc):
        # 2^-600 * 2^-600 underflows to 0.0, once on {a, c} and once on the
        # whole frame, where K = 0.0 places nothing.
        tiny = 2.0**-600
        d1 = DNumber(abc, {("a",): tiny, ("b",): 1.0})
        for other in (("c",), ("b", "c")):
            result = self.check(d1, DNumber(abc, {other: tiny, ("b",): 1.0}))
            assert abc.mask("a", *other) not in result.masses
            assert result.weight(("b",)) == 1.0

    def test_a_lone_subnormal_product_on_the_frame_is_kept(self, abc):
        tiny = 2.0**-537
        d1 = DNumber(abc, {("a",): tiny, ("b",): 1.0})
        result = self.check(d1, DNumber(abc, {("b", "c"): tiny, ("b",): 1.0}))
        assert result.weight(abc.full_mask) == 2.0**-1074

    def test_forced_compaction(self, forced_compaction):
        squeezed = forced_compaction()
        for d1, d2 in self.seeded_pairs(1617):
            self.check(d1, d2)
        assert max(squeezed) > 8


class TestDempster:
    def test_total_conflict_raises(self, sure_pair):
        with pytest.raises(TotalConflict):
            dempster(*sure_pair)

    def test_vacuous_is_neutral(self, abc, mixed_pair):
        m1, _ = mixed_pair
        assert dempster(m1, DNumber.vacuous(abc)) == m1

    def test_mixed_pair_normalized(self, abc, mixed_pair):
        result = dempster(*mixed_pair)
        assert result.weight(("a",)) == 0.3 / 0.7
        assert result.weight(("b",)) == 0.2 / 0.7
        assert result.weight(("a", "b")) == 0.2 / 0.7
        assert result.is_complete()

    def test_matches_conjunctive_renormalization(self, mixed_pair):
        conj = conjunctive(*mixed_pair)
        result = dempster(*mixed_pair)
        for mask, v in conj.masses.items():
            if mask:
                assert abs(result.weight(mask) - v / (1.0 - conj.k)) < 1e-15


class TestYager:
    def test_all_conflict_goes_to_frame(self, hm_frame, sure_pair):
        result = yager(*sure_pair)
        assert result.weight(hm_frame.full_mask) == 1.0

    def test_vacuous_is_neutral(self, abc, mixed_pair):
        m1, _ = mixed_pair
        assert yager(m1, DNumber.vacuous(abc)) == m1

    def test_mixed_pair(self, abc, mixed_pair):
        result = yager(*mixed_pair)
        assert result.weight(("a",)) == 0.3
        assert result.weight(("b",)) == 0.2
        assert result.weight(("a", "b")) == 0.2
        assert result.weight(abc.full_mask) == 0.3


class TestDuboisPrade:
    def test_conflict_moves_to_union(self, sure_pair):
        result = dubois_prade(*sure_pair)
        assert result.weight(("High", "Medium")) == 1.0

    def test_vacuous_is_neutral(self, abc, mixed_pair):
        m1, _ = mixed_pair
        assert dubois_prade(m1, DNumber.vacuous(abc)) == m1

    def test_mixed_pair(self, abc, mixed_pair):
        result = dubois_prade(*mixed_pair)
        assert result.weight(("a",)) == 0.3
        assert result.weight(("b",)) == 0.2
        # 0.2 direct plus the 0.3 conflict from ({a},{b})
        assert result.weight(("a", "b")) == 0.5


class TestPreconditions:
    @pytest.mark.parametrize("rule", RULES)
    def test_frame_mismatch(self, rule):
        m1 = DNumber.vacuous(Frame(["a", "b"]))
        m2 = DNumber.vacuous(Frame(["a", "c"]))
        with pytest.raises(FrameMismatch):
            rule(m1, m2)

    @pytest.mark.parametrize("rule", RULES)
    def test_incomplete_inputs_rejected(self, rule, abc):
        partial = DNumber(abc, {("a",): 0.5})
        with pytest.raises(IncompleteInput):
            rule(partial, DNumber.vacuous(abc))
        with pytest.raises(IncompleteInput):
            rule(DNumber.vacuous(abc), partial)


class TestGlobalConflict:
    def test_matches_conjunctive_on_complete_pairs(self, mixed_pair):
        m1, m2 = mixed_pair
        k = brute_conflict(dict(m1.items()), dict(m2.items()))
        assert global_conflict(m1, m2) == conjunctive(m1, m2).k == k

    def test_accepts_incomplete_inputs(self, abc):
        d1 = DNumber(abc, {("a",): 0.5})
        d2 = DNumber(abc, {("b",): 0.4})
        assert global_conflict(d1, d2) == 0.2 == brute_conflict(dict(d1.items()), dict(d2.items()))

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            global_conflict(
                DNumber.vacuous(Frame(["a"])), DNumber.vacuous(Frame(["b"]))
            )


def exact_sum(values) -> Fraction:
    """The exact rational sum of floats: each float is n / 2^k with k <= 1074,
    so over the common denominator 2^1074 the sum is a sum of integers."""
    ratios = map(float.as_integer_ratio, values)
    return Fraction(sum(n << 1075 - d.bit_length() for n, d in ratios), 1 << 1074)


def spread_floats(rng: random.Random, count: int) -> list[float]:
    """Signed floats over 35 decades, about 1e-26 to 5e9, with about one in
    fifty a subnormal."""
    values = [(rng.random() - 0.5) * 10.0 ** (35.0 * rng.random() - 25.0) for _ in range(count)]
    for i in rng.sample(range(count), count // 50):
        values[i] = ldexp(rng.random() - 0.5, rng.randint(-1073, -1022))
    return values


class TestSqueeze:
    """``_squeeze`` replaces a list by a short expansion with the same exact
    sum, so the kernel's final ``fsum`` is unchanged bit for bit."""

    def test_exact_against_a_fraction_oracle(self):
        rng = random.Random(1997)
        longest = 0
        for _ in range(2000):
            v = spread_floats(rng, rng.randint(0, 3000))
            tail = spread_floats(rng, rng.randint(0, 5))
            partials = list(v)
            classical._squeeze(partials)
            assert exact_sum(partials) == exact_sum(v)
            assert fsum(partials + tail).hex() == fsum(v + tail).hex()
            longest = max(longest, len(partials))
        assert longest <= 40

    def test_the_widest_expansion_fits_in_40_partials(self):
        # Powers of two 54 bits apart over the whole exponent range: no two of
        # them share a float, so each needs a partial of its own.
        v = [ldexp(1.0, e) for e in range(1000, -1075, -54)]
        partials = list(v)
        classical._squeeze(partials)
        assert exact_sum(partials) == exact_sum(v)
        assert len(partials) == len(v) == 39

    @pytest.mark.parametrize(
        "v, partials",
        [
            ([], []),
            ([1e-300, 1.0, -1.0, -1e-300], []),
            ([0.5, 0.25], [0.75]),
            # 10 * 0.1 is 1 + 2^-54 exactly, which fsum rounds to 1.0.
            ([0.1] * 10, [1.0, 2.0**-54]),
        ],
    )
    def test_short_and_cancelling_lists(self, v, partials):
        classical._squeeze(v)
        assert v == partials


class TestCompactionSchedule:
    """The kernel squeezes its lists after the row that takes the products
    since the last squeeze past ``_SQUEEZE_CELLS``, and only then: the
    conflict lists when any pair was disjoint, and every cell list of over 8
    floats.  Forced to 0, the threshold makes that every row."""

    @staticmethod
    def halves(rows: int, columns: int) -> tuple[dict[int, float], dict[int, float]]:
        """Plain operands: every row holds element 0, and so does every other
        column, whose products all land on the cell {0}; the other columns
        lie above the rows' three bits, so half of each row's pairs are disjoint."""
        rng = random.Random(rows * columns)
        m1 = {2 * i + 1: rng.random() / rows for i in range(rows)}
        m2 = {m << 3 | m & 1: rng.random() / columns for m in range(1, columns + 1)}
        return m1, m2

    def test_many_disjoint_products_below_the_threshold_make_no_squeeze(self, counted_squeezes):
        # 120 x 120 sets of 1-3 elements over 20 elements: over 1,024
        # disjoint products, but far fewer than 2^17 products in all.
        rng = random.Random(23)
        masks = [
            {sum(1 << i for i in rng.sample(range(20), rng.randint(1, 3))) for _ in range(200)}
            for _ in range(2)
        ]
        m1, m2 = ({m: 1 / len(ms) for m in sorted(ms)[:120]} for ms in masks)
        assert sum(1 for b in m1 for c in m2 if not b & c) > 1024
        squeezed = counted_squeezes()
        for degree in (classical._exclusive, 0.5, classical._overlapping):
            classical._products(m1, m2, degree)
        assert squeezed == []

    def test_the_row_past_the_threshold_squeezes_once(self, monkeypatch, counted_squeezes):
        # Rows of 65,600 products: the second takes the count to 131,200,
        # past 2^17 = 131,072, and the third stays below it again.
        m1, m2 = self.halves(3, 65_600)
        monkeypatch.setattr(classical, "_SQUEEZE_CELLS", 1 << 40)
        unsqueezed = repr(classical._products(m1, m2, classical._exclusive))
        monkeypatch.undo()
        squeezed = counted_squeezes()
        assert repr(classical._products(m1, m2, classical._exclusive)) == unsqueezed
        assert squeezed == [65_600, 65_600, 65_600]

    def test_forced_squeezes_follow_every_row(self, forced_compaction):
        # Each row adds 20 disjoint products and 20 products on the cell {0}.
        m1, m2 = self.halves(4, 40)
        expected = repr(classical._products(m1, m2, classical._exclusive))
        squeezed = forced_compaction()
        assert repr(classical._products(m1, m2, classical._exclusive)) == expected
        assert len(squeezed) == 3 * len(m1)
        assert min(squeezed) >= 20

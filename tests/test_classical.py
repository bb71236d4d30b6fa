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
from helpers import brute_conflict, brute_disjunctive, random_model

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


def spread_weights(rng: random.Random, masks) -> dict[int, float]:
    """Weights over 300 decades for ``masks``, about one in twenty a subnormal,
    so many products round and some underflow."""
    weights = {m: 10.0 ** rng.uniform(-300.0, 0.0) for m in masks}
    for m in rng.sample(sorted(weights), len(weights) // 20):
        weights[m] = ldexp(rng.random(), rng.randint(-1074, -1022))
    return weights


def exact_products(m1, m2, degree_of) -> tuple[dict[int, float], float, float]:
    """``_products`` by brute force: every pair's products listed per target,
    each list rounded once from its exact ``Fraction`` sum.  ``degree_of(b, c)``
    gives the degree of a disjoint pair."""
    cells: dict[int, list[float]] = {}
    conflict, disjoint = [], []
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            prod = w1 * w2
            if b & c:
                cells.setdefault(b & c, []).append(prod)
                continue
            disjoint.append(prod)
            u = degree_of(b, c)
            if u < 1.0:
                conflict.append((1.0 - u) * prod)
            if u > 0.0:
                cells.setdefault(b | c, []).append(u * prod)
    rounded = {a: float(exact_sum(v)) for a, v in cells.items()}
    return rounded, float(exact_sum(conflict)), float(exact_sum(disjoint))


def sorted_repr(result: tuple[dict[int, float], float, float]) -> str:
    cells, k_d, k = result
    return repr((sorted(cells.items()), k_d, k))


class TestExactSums:
    """The kernel keeps every product it adds as a double and reduces each
    cell, K and K_D with one ``fsum``, so each is the correctly rounded exact
    sum of its products however many there are, and in whatever order they
    arrive."""

    @staticmethod
    def operands(seed: int, size: int = 8) -> tuple[dict[int, float], dict[int, float]]:
        # 60 x 60 focal sets over 8 elements: most of the 255 cells take
        # several products, a cell's first product stays a bare float and
        # its second makes it an array.
        rng = random.Random(seed)
        full = (1 << size) - 1
        return tuple(spread_weights(rng, rng.sample(range(1, full + 1), 60)) for _ in range(2))

    @pytest.mark.parametrize("degree", [0.0, 2.0**-60, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_every_cell_k_and_k_d_at_a_constant_degree(self, degree):
        m1, m2 = self.operands(int(degree * 1000) + 7)
        expected = exact_products(m1, m2, lambda b, c: degree)
        assert sorted_repr(classical._products(m1, m2, degree)) == sorted_repr(expected)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_every_cell_k_and_k_d_under_a_model(self, seed):
        m1, m2 = self.operands(seed)
        model = random_model(random.Random(seed), Frame([f"e{i}" for i in range(8)]))
        expected = exact_products(m1, m2, model.degree)
        got = classical._products(m1, m2, model._degrees_from)
        assert sorted_repr(got) == sorted_repr(expected)

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_operand_order_changes_no_bit(self, seed):
        m1, m2 = self.operands(seed)
        expected = sorted_repr(classical._products(m1, m2, 0.4))
        rng = random.Random(seed)
        shuffled = [dict(rng.sample(sorted(m.items()), len(m))) for m in (m1, m2)]
        assert sorted_repr(classical._products(*shuffled, 0.4)) == expected
        assert sorted_repr(classical._products(m2, m1, 0.4)) == expected

    @pytest.mark.parametrize("small_first", [False, True], ids=["wide-first", "small-first"])
    def test_the_operand_with_fewer_focal_sets_gives_the_rows(self, small_first):
        # A fold's shape: a wide accumulator against a source of 3 focal sets.
        rng = random.Random(200)
        frame = Frame([f"e{i}" for i in range(10)])
        wide = spread_weights(rng, rng.sample(range(1, frame.full_mask + 1), 200))
        small = spread_weights(rng, [0b1, 0b110, 0b1110000000])
        model = random_model(rng, frame, zero_prob=0.1)
        asked = []

        def rows(b):
            asked.append(b)
            return model._degrees_from(b)

        operands = (small, wide) if small_first else (wide, small)
        got = classical._products(*operands, rows)
        assert asked and set(asked) <= set(small)
        assert sorted_repr(got) == sorted_repr(exact_products(wide, small, model.degree))

    def test_a_cell_k_and_k_d_of_over_2_17_products_each(self):
        # Every column holds element 0, and so does every odd row: the odd
        # rows' 135,000 products all land on the cell {0}, and the even rows'
        # 135,000 are disjoint.  Products span 300 decades, and one in nine
        # is the product of two weights in (0, 1), so a plain sum misses.
        rng = random.Random(2417)

        def weight(i: int) -> float:
            return rng.random() if i % 3 == 0 else 10.0 ** rng.uniform(-150.0, 0.0)

        m1 = {i << 1 | i & 1: weight(i) for i in range(1, 601)}
        m2 = {j << 11 | 1: weight(j) for j in range(1, 451)}
        on_cell = [w1 * w2 for b, w1 in m1.items() if b & 1 for w2 in m2.values()]
        apart = [w1 * w2 for b, w1 in m1.items() if not b & 1 for w2 in m2.values()]
        assert len(on_cell) == len(apart) == 135_000 > 1 << 17
        degree = 0.3
        cells, k_d, k = classical._products(m1, m2, degree)
        assert cells[1] == float(exact_sum(on_cell))
        assert k == float(exact_sum(apart))
        assert k_d == float(exact_sum((1.0 - degree) * p for p in apart))
        assert len(cells) == 1 + len(apart)

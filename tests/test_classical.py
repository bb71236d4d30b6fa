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
from helpers import brute_conflict

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

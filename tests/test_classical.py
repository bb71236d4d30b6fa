from math import fsum

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

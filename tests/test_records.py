"""Value semantics of the package's twelve immutable record classes.

Each class is checked for its ``repr``, equality and hashing over its fields,
construction by position, keyword and default, immutability, and a
``copy.copy`` and ``pickle`` round trip where its fields allow one.
"""

import copy
import pickle
from types import MappingProxyType

import pytest

from dnumbers import (
    MINIMUM,
    BeliefSummary,
    CompletenessAggregator,
    ConjunctiveResult,
    DegreeMatrix,
    DNumber,
    Frame,
    FusionReport,
    NamedAssignment,
    NonExclusivityModel,
    OverrideDegree,
    PairDegree,
    ReportDocument,
    Scenario,
    ScenarioDocument,
    WeightEntry,
)

AB = Frame(["a", "b"])
MODEL = NonExclusivityModel(AB, {("a", "b"): 0.25})
MATRIX = MODEL.matrix()
SOURCE = DNumber(AB, {1: 0.5})
ENTRY = WeightEntry(("a",), 0.5)
DOC = ScenarioDocument(
    ("a", "b"), (NamedAssignment("D1", (ENTRY,)),), (PairDegree(("a", "b"), 0.25),)
)


class Case:
    """One record class: a full set of field values, in field order, and
    what the class must show for them.

    ``vary`` is a field name and another value for it; ``defaults`` maps each
    field that has a default to that default; ``hashable`` and ``picklable``
    say whether the field values allow hashing and pickling.
    """

    def __init__(self, cls, fields, values, text, vary, defaults=None, hashable=True, picklable=True):
        self.cls = cls
        self.fields = fields
        self.values = values
        self.text = text
        self.vary = vary
        self.defaults = defaults or {}
        self.hashable = hashable
        self.picklable = picklable

    def make(self):
        return self.cls(*self.values)

    def kwargs(self):
        return dict(zip(self.fields, self.values))


CASES = [
    Case(
        BeliefSummary,
        ("subset", "bel", "pl", "from_incomplete"),
        (3, 0.5, 0.75, False),
        "BeliefSummary(subset=3, bel=0.5, pl=0.75, from_incomplete=False)",
        ("pl", 0.8),
        defaults={"from_incomplete": False},
    ),
    Case(
        ConjunctiveResult,
        ("frame", "masses"),
        (AB, MappingProxyType({0: 0.25, 1: 0.75})),
        "ConjunctiveResult(frame=Frame(['a', 'b']), masses=mappingproxy({0: 0.25, 1: 0.75}))",
        ("masses", MappingProxyType({0: 0.25, 1: 0.5})),
        hashable=False,
        picklable=False,
    ),
    Case(
        DegreeMatrix,
        ("frame", "subsets", "rows", "_ranked"),
        (AB, MATRIX.subsets, MATRIX.rows, MATRIX._ranked),
        "DegreeMatrix(frame=Frame(['a', 'b']), subsets=(1, 2, 3), "
        "rows=((1.0, 0.25, 1.0), (0.25, 1.0, 1.0), (1.0, 1.0, 1.0)))",
        ("rows", ((1.0, 0.5, 1.0), (0.5, 1.0, 1.0), (1.0, 1.0, 1.0))),
    ),
    Case(
        CompletenessAggregator,
        ("name", "fn"),
        ("minimum", min),
        "CompletenessAggregator(name='minimum')",
        ("fn", max),
    ),
    Case(
        FusionReport,
        ("result", "rule", "q1", "q2", "k_d", "d_t_total", "f_value", "k"),
        (SOURCE, "dcr2", 0.5, 1.0, None, None, 0.5, None),
        "FusionReport(result=DNumber({a}: 0.5), rule='dcr2', q1=0.5, q2=1.0, "
        "k_d=None, d_t_total=None, f_value=0.5, k=None)",
        ("q1", 0.25),
        defaults={"k_d": None, "d_t_total": None, "f_value": None, "k": None},
        # The result, a DNumber, compares by value and so is unhashable.
        hashable=False,
    ),
    Case(
        ReportDocument,
        ("rule", "weights", "diagnostics", "inputs"),
        ("dcr2", ((("a",), 0.5),), {"k": None}, {"dnumbers": ["D1"]}),
        "ReportDocument(rule='dcr2', weights=((('a',), 0.5),), "
        "diagnostics={'k': None}, inputs={'dnumbers': ['D1']})",
        ("diagnostics", {"k": 0.5}),
        hashable=False,
    ),
    Case(
        WeightEntry,
        ("subset", "weight"),
        (("a",), 0.5),
        "WeightEntry(subset=('a',), weight=0.5)",
        ("weight", 0.25),
    ),
    Case(
        NamedAssignment,
        ("name", "entries"),
        ("D1", (ENTRY,)),
        "NamedAssignment(name='D1', entries=(WeightEntry(subset=('a',), weight=0.5),))",
        ("name", "D2"),
    ),
    Case(
        PairDegree,
        ("elements", "degree"),
        (("a", "b"), 0.25),
        "PairDegree(elements=('a', 'b'), degree=0.25)",
        ("degree", 0.5),
    ),
    Case(
        OverrideDegree,
        ("subsets", "degree"),
        ((("a",), ("b",)), 0.25),
        "OverrideDegree(subsets=(('a',), ('b',)), degree=0.25)",
        ("subsets", (("b",), ("a",))),
    ),
    Case(
        Scenario,
        ("frame", "dnumbers", "model"),
        (AB, MappingProxyType({"D1": SOURCE}), MODEL),
        "Scenario(frame=Frame(['a', 'b']), dnumbers=mappingproxy({'D1': DNumber({a}: 0.5)}), "
        "model=NonExclusivityModel(Frame(['a', 'b']), 1 pairs, 0 overrides))",
        ("model", NonExclusivityModel(AB, {("a", "b"): 0.25})),
        hashable=False,
        picklable=False,
    ),
    Case(
        ScenarioDocument,
        ("frame", "dnumbers", "pairs", "overrides"),
        (DOC.frame, DOC.dnumbers, DOC.pairs, ()),
        "ScenarioDocument(frame=('a', 'b'), dnumbers=(NamedAssignment(name='D1', "
        "entries=(WeightEntry(subset=('a',), weight=0.5),)),), "
        "pairs=(PairDegree(elements=('a', 'b'), degree=0.25),), overrides=())",
        ("pairs", ()),
        defaults={"dnumbers": (), "pairs": (), "overrides": ()},
    ),
]

by_class = pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)


def test_every_record_class_is_covered():
    assert len({case.cls for case in CASES}) == 12


@by_class
def test_repr(case):
    assert repr(case.make()) == case.text


@by_class
def test_equality_over_fields(case):
    x, y = case.make(), case.make()
    assert x == y and not x != y
    name, other = case.vary
    changed = case.cls(**{**case.kwargs(), name: other})
    assert x != changed and not x == changed


@by_class
def test_never_equal_to_another_class(case):
    twin_class = type(case.cls.__name__, (case.cls,), {})
    x, twin = case.make(), twin_class(*case.values)
    assert x != twin and twin != x
    assert x != case.values


def test_equal_fields_in_two_classes_are_not_equal():
    assert WeightEntry(("a",), 0.5) != PairDegree(("a",), 0.5)
    assert PairDegree(("a",), 0.5) != WeightEntry(("a",), 0.5)


@by_class
def test_hash(case):
    x, y = case.make(), case.make()
    if case.hashable:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


@by_class
def test_construction_by_position_keyword_and_default(case):
    x = case.make()
    assert case.cls(**case.kwargs()) == x
    assert case.cls.__match_args__ == case.fields
    for name, value in zip(case.fields, case.values):
        assert getattr(x, name) is value
    required = [n for n in case.fields if n not in case.defaults]
    bare = case.cls(**{n: v for n, v in case.kwargs().items() if n in required})
    for name in case.fields:
        expected = case.defaults[name] if name in case.defaults else getattr(x, name)
        assert getattr(bare, name) == expected


@by_class
def test_bad_arguments_raise_type_error(case):
    first = case.fields[0]
    with pytest.raises(TypeError):
        case.cls(**{n: v for n, v in case.kwargs().items() if n != first})
    with pytest.raises(TypeError):
        case.cls(*case.values, bogus=1)
    with pytest.raises(TypeError):
        case.cls(*case.values, None)
    with pytest.raises(TypeError):
        case.cls(*case.values, **{first: case.values[0]})


@by_class
def test_immutable(case):
    x = case.make()
    name = case.fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, case.values[0])
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert getattr(x, name) is case.values[0]


@by_class
def test_copy_and_pickle(case):
    x = case.make()
    copied = copy.copy(x)
    assert copied == x and type(copied) is case.cls
    if case.picklable:
        restored = pickle.loads(pickle.dumps(x))
        assert restored == x and type(restored) is case.cls
        assert repr(restored) == repr(x)


def test_carried_matrix_fields_take_no_part_in_equality_or_hash():
    bare = DegreeMatrix(AB, MATRIX.subsets, MATRIX.rows, None)
    assert bare == MATRIX and hash(bare) == hash(MATRIX)
    assert repr(bare) == repr(MATRIX)


def test_aggregator_function_is_compared_but_not_shown():
    twin = CompletenessAggregator("minimum", min)
    assert twin == MINIMUM and hash(twin) == hash(MINIMUM)
    assert CompletenessAggregator("minimum", max) != MINIMUM
    assert "fn" not in repr(MINIMUM)

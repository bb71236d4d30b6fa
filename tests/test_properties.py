"""Property tests for the algebraic invariants of the rules and the file format."""

import io
from contextlib import redirect_stderr, redirect_stdout
from math import fsum

import pytest
from hypothesis import assume, given, settings, strategies as st

from dnumbers import (
    AVERAGE,
    CONSTANT_ONE,
    MAXIMUM,
    MINIMUM,
    PRODUCT,
    DNumber,
    Frame,
    NamedAssignment,
    NonExclusivityModel,
    OverrideDegree,
    PairDegree,
    RULES,
    ScenarioDocument,
    WeightEntry,
    conjunctive,
    dcr1,
    dcr2,
    dempster,
    disjunctive,
    dubois_prade,
    format_scenario,
    global_conflict,
    mean_assignment,
    parse_scenario,
    residual_conflict,
    yager,
)
from dnumbers.cli import run_cli
from dnumbers.errors import FusionError, ScenarioError, TotalConflict
from dnumbers.evidence import MAX_FRAME_SIZE
from helpers import brute_conflict, brute_dempster

LABELS = ("a", "b", "c", "d")
BUILTIN_AGGREGATORS = (PRODUCT, MINIMUM, MAXIMUM, AVERAGE, CONSTANT_ONE)

frames = st.integers(2, 4).map(lambda n: Frame(LABELS[:n]))


@st.composite
def dnumber_on(draw, frame, complete=True, shared_element=False):
    full = frame.full_mask
    masks = draw(
        st.lists(st.integers(1, full), min_size=1, max_size=5, unique=True)
    )
    if shared_element:
        masks = sorted({m | 1 for m in masks})
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    total = fsum(weights)
    scale = 1.0 if complete else draw(st.floats(0.1, 1.0))
    return DNumber(frame, {m: scale * w / total for m, w in zip(masks, weights)})


@st.composite
def model_on(draw, frame):
    labels = frame.labels
    degrees = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            deg = draw(st.none() | st.floats(0.0, 1.0))
            if deg is not None:
                degrees[(labels[i], labels[j])] = deg
    return NonExclusivityModel(frame, degrees)


@st.composite
def state(draw, n_dnumbers=1, complete=True, shared_element=False, with_model=False):
    frame = draw(frames)
    ds = [
        draw(dnumber_on(frame, complete=complete, shared_element=shared_element))
        for _ in range(n_dnumbers)
    ]
    out = [frame, *ds]
    if with_model:
        out.append(draw(model_on(frame)))
    return tuple(out)


# --- belief and plausibility ---------------------------------------------------


@given(state(), st.data())
def test_belief_bounded_by_plausibility_and_duality(s, data):
    frame, d = s
    a = data.draw(st.integers(1, frame.full_mask))
    assert d.belief(a) <= d.plausibility(a)
    complement = frame.full_mask ^ a
    assert abs(d.plausibility(a) - (1.0 - d.belief(complement))) < 1e-12


@given(state(complete=False))
def test_belief_of_frame_is_q_value(s):
    frame, d = s
    assert d.belief(frame.full_mask) == d.q_value


@given(state(complete=False), st.data())
def test_q_value_invariant_under_weight_split(s, data):
    frame, d = s
    entries = list(d.items())
    mask, w = entries[data.draw(st.integers(0, len(entries) - 1))]
    t = data.draw(st.floats(0.0, 1.0))
    split = [(m, v) for m, v in entries if m != mask]
    split += [(mask, w * t), (mask, w - w * t)]
    again = DNumber(frame, split)
    assert abs(again.q_value - d.q_value) < 1e-12


# --- classical rules ------------------------------------------------------------


@given(state(n_dnumbers=2))
def test_conjunctive_and_disjunctive_commute(s):
    _, m1, m2 = s
    assert conjunctive(m1, m2).masses == conjunctive(m2, m1).masses
    assert disjunctive(m1, m2) == disjunctive(m2, m1)


@given(state(n_dnumbers=3))
def test_disjunctive_associative(s):
    _, m1, m2, m3 = s
    left = disjunctive(disjunctive(m1, m2), m3)
    right = disjunctive(m1, disjunctive(m2, m3))
    for mask in set(left.focal_sets()) | set(right.focal_sets()):
        assert abs(left.weight(mask) - right.weight(mask)) < 1e-12


@given(state(n_dnumbers=3, shared_element=True))
def test_conjunctive_associative_without_conflict(s):
    frame, m1, m2, m3 = s

    def as_dnumber(result):
        assert result.k == 0.0
        return DNumber(frame, {m: v for m, v in result.masses.items() if m})

    left = as_dnumber(conjunctive(as_dnumber(conjunctive(m1, m2)), m3))
    right = as_dnumber(conjunctive(m1, as_dnumber(conjunctive(m2, m3))))
    for mask in set(left.focal_sets()) | set(right.focal_sets()):
        assert abs(left.weight(mask) - right.weight(mask)) < 1e-12


@given(state(n_dnumbers=3))
@settings(max_examples=60)
def test_dempster_associative(s):
    _, m1, m2, m3 = s
    assume(global_conflict(m1, m2) < 0.99)
    left1 = dempster(m1, m2)
    assume(global_conflict(left1, m3) < 0.99)
    assume(global_conflict(m2, m3) < 0.99)
    right1 = dempster(m2, m3)
    assume(global_conflict(m1, right1) < 0.99)
    left = dempster(left1, m3)
    right = dempster(m1, right1)
    for mask in set(left.focal_sets()) | set(right.focal_sets()):
        assert abs(left.weight(mask) - right.weight(mask)) < 1e-12


@given(state(n_dnumbers=2))
def test_redistribution_rules_commute_and_stay_complete(s):
    _, m1, m2 = s
    for rule in (yager, dubois_prade):
        out = rule(m1, m2)
        assert out == rule(m2, m1)
        assert out.is_complete()
    if global_conflict(m1, m2) < 0.99:
        out = dempster(m1, m2)
        assert out == dempster(m2, m1)
        assert out.is_complete()


@given(state(n_dnumbers=2, shared_element=True))
def test_rules_agree_when_conflict_free(s):
    _, m1, m2 = s
    conj = conjunctive(m1, m2)
    assert conj.k == 0.0
    nonempty = {m: v for m, v in conj.masses.items() if m}
    for rule in (dempster, yager, dubois_prade):
        assert dict(rule(m1, m2).items()) == nonempty


@given(state())
def test_vacuous_is_neutral(s):
    frame, m = s
    vac = DNumber.vacuous(frame)
    assert dempster(m, vac) == m
    assert yager(m, vac) == m
    assert dubois_prade(m, vac) == m
    conj = conjunctive(m, vac)
    assert conj.k == 0.0
    assert {a: v for a, v in conj.masses.items() if a} == dict(m.items())
    absorbed = disjunctive(m, vac)
    assert absorbed.focal_sets() == (frame.full_mask,)
    assert abs(absorbed.weight(frame.full_mask) - 1.0) < 1e-12


# --- degrees and the D number rules ----------------------------------------------


@given(state(with_model=True), st.data())
def test_degree_symmetric_and_pinned(s, data):
    frame, _, model = s
    b1 = data.draw(st.integers(1, frame.full_mask))
    b2 = data.draw(st.integers(1, frame.full_mask))
    assert model.degree(b1, b2) == model.degree(b2, b1)
    if b1 & b2:
        assert model.degree(b1, b2) == 1.0


@given(state(n_dnumbers=2, complete=False, with_model=True))
def test_residual_conflict_never_exceeds_classical(s):
    _, d1, d2, model = s
    assert residual_conflict(d1, d2, model) <= global_conflict(d1, d2) + 1e-12
    assert global_conflict(d1, d2) == brute_conflict(dict(d1.items()), dict(d2.items()))


@given(state(n_dnumbers=2, complete=False))
def test_residual_conflict_equals_classical_when_exclusive(s):
    frame, d1, d2 = s
    model = NonExclusivityModel.exclusive(frame)
    assert residual_conflict(d1, d2, model) == global_conflict(d1, d2)
    assert global_conflict(d1, d2) == brute_conflict(dict(d1.items()), dict(d2.items()))


@given(state(n_dnumbers=2, with_model=True))
def test_dcr1_commutes(s):
    _, d1, d2, model = s
    try:
        left = dcr1(d1, d2, model)
    except TotalConflict:
        return
    right = dcr1(d2, d1, model)
    assert dict(left.result.items()) == dict(right.result.items())
    assert left.k_d == right.k_d


@given(state(n_dnumbers=2, complete=False, with_model=True))
def test_dcr2_commutes_and_sums_to_f(s):
    _, d1, d2, model = s
    for f in BUILTIN_AGGREGATORS:
        try:
            left = dcr2(d1, d2, model, f)
        except TotalConflict:
            return
        right = dcr2(d2, d1, model, f)
        assert dict(left.result.items()) == dict(right.result.items())
        total = fsum(w for _, w in left.result.items())
        assert abs(total - left.f_value) < 1e-12


@given(state(n_dnumbers=2, complete=False, with_model=True), st.floats(1e-6, 1.0))
def test_dcr2_shape_invariant_under_scaling_one_input(s, c):
    frame, d1, d2, model = s
    try:
        base = dcr2(d1, d2, model, PRODUCT)
    except TotalConflict:
        assume(False)
    scaled = dcr2(DNumber(frame, {m: c * w for m, w in d1.items()}), d2, model, PRODUCT)
    for mask in set(base.result.focal_sets()) | set(scaled.result.focal_sets()):
        shape = base.result.weight(mask) / base.f_value
        assert abs(scaled.result.weight(mask) / scaled.f_value - shape) <= 1e-12


@given(state(n_dnumbers=2, complete=False, with_model=True))
def test_mass_conservation_before_normalization(s):
    _, d1, d2, model = s
    k_d = residual_conflict(d1, d2, model)
    try:
        report = dcr2(d1, d2, model, PRODUCT)
        survived = report.d_t_total
    except TotalConflict:
        survived = 0.0
    assert abs(survived + k_d - d1.q_value * d2.q_value) < 1e-10


@given(state(n_dnumbers=2))
@settings(max_examples=60)
def test_dcr1_degenerates_to_dempster(s):
    frame, d1, d2 = s
    model = NonExclusivityModel.exclusive(frame)
    assume(global_conflict(d1, d2) < 0.99)
    oracle = dempster(d1, d2)
    brute = brute_dempster(dict(d1.items()), dict(d2.items()))
    report = dcr1(d1, d2, model)
    for mask in set(oracle.focal_sets()) | set(report.result.focal_sets()) | set(brute):
        assert abs(report.result.weight(mask) - oracle.weight(mask)) < 1e-10
        assert abs(report.result.weight(mask) - brute.get(mask, 0.0)) < 1e-10


@given(state(n_dnumbers=2))
def test_classical_steps_report_the_global_conflict_exactly(s):
    frame, d1, d2 = s
    model = NonExclusivityModel.exclusive(frame)
    for rule in ("conjunctive", "dempster", "yager", "dubois-prade"):
        try:
            report = RULES[rule](d1, d2, model, PRODUCT)
        except TotalConflict:
            continue
        assert report.k == global_conflict(d1, d2)
        assert report.k == brute_conflict(dict(d1.items()), dict(d2.items()))


@given(state(n_dnumbers=3, complete=False))
def test_mean_assignment_q_is_mean_of_qs(s):
    frame, *ds = s
    mean = mean_assignment(ds)
    assert abs(mean.q_value - fsum(d.q_value for d in ds) / len(ds)) < 1e-12


# --- rule results built in bulk ----------------------------------------------------


class _Weight(float):
    """A float subclass, such as a numpy scalar an aggregator may return."""


#: One fault each: a mask the constructor rejects, or a weight it drops,
#: rejects, or converts (a float subclass).
MASS_FAULTS = {
    "empty-set": lambda m, w, full: (0, w),
    "foreign": lambda m, w, full: (full + 1, w),
    "negative-mask": lambda m, w, full: (-m, w),
    "nan": lambda m, w, full: (m, float("nan")),
    "negative": lambda m, w, full: (m, -w),
    "zero": lambda m, w, full: (m, 0.0),
    "negative-zero": lambda m, w, full: (m, -0.0),
    "above-one": lambda m, w, full: (m, 1.0 + 1e-6),
    "inf": lambda m, w, full: (m, float("inf")),
    "total-above-one": lambda m, w, full: (m, 1.0),
    "float-subclass": lambda m, w, full: (m, _Weight(w)),
}


@st.composite
def rule_masses(draw):
    """A frame and an int-keyed float mapping with at most one fault."""
    frame = Frame([f"e{i}" for i in range(draw(st.integers(1, MAX_FRAME_SIZE)))])
    masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=40, unique=True))
    weights = [
        w / len(masks)
        for w in draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=len(masks), max_size=len(masks)))
    ]
    fault = draw(st.sampled_from([None, *MASS_FAULTS]))
    if fault is not None:
        i = draw(st.integers(0, len(masks) - 1))
        masks[i], weights[i] = MASS_FAULTS[fault](masks[i], weights[i], frame.full_mask)
    return frame, dict(zip(masks, weights))


def _outcome(build):
    try:
        d = build()
    except Exception as exc:
        return type(exc), str(exc)
    return d, list(d.items()), [type(w) for _, w in d.items()], d.q_value


@given(rule_masses())
@settings(max_examples=300)
def test_bulk_rule_results_match_the_constructor(case):
    frame, masses = case
    assert _outcome(lambda: DNumber._from_masks(frame, masses)) == _outcome(lambda: DNumber(frame, masses))


# --- scenario documents -----------------------------------------------------------


@st.composite
def documents(draw):
    n = draw(st.integers(1, 4))
    labels = LABELS[:n]
    subset = st.sets(st.sampled_from(labels), min_size=1).map(
        lambda ls: tuple(sorted(ls))
    )
    value = st.floats(0.0, 1.0)

    def entry(sub, v):
        return WeightEntry(sub, v)

    dnumbers = draw(
        st.lists(
            st.builds(
                lambda entries: entries,
                st.lists(st.builds(entry, subset, value), max_size=4),
            ),
            max_size=3,
        )
    )
    named = tuple(
        NamedAssignment(f"D{i + 1}", tuple(entries))
        for i, entries in enumerate(dnumbers)
    )
    all_pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    pairs = tuple(PairDegree(p, draw(value)) for p in sorted(chosen))
    override_pairs = draw(
        st.lists(
            st.tuples(subset, subset).map(lambda t: tuple(sorted(t))),
            unique=True,
            max_size=2,
        )
    )
    overrides = tuple(
        OverrideDegree(p, draw(value)) for p in override_pairs if p[0] != p[1]
    )
    return ScenarioDocument(labels, named, pairs, overrides)


@given(documents())
def test_scenario_round_trip(doc):
    assert parse_scenario(format_scenario(doc)) == doc


@st.composite
def loose_documents(draw):
    """Documents the parser would never print: duplicate or unknown labels,
    empty subsets, and weights and degrees of any float, NaN and inf included."""
    label = st.sampled_from(("a", "b", "c", "d", "z"))
    subset = st.lists(label, max_size=3).map(tuple)
    value = st.floats()
    entries = st.lists(st.builds(WeightEntry, subset, value), max_size=4).map(tuple)
    named = tuple(
        NamedAssignment(f"D{i + 1}", e) for i, e in enumerate(draw(st.lists(entries, max_size=3)))
    )
    pairs = draw(st.lists(st.builds(PairDegree, st.tuples(label, label), value), max_size=3))
    overrides = draw(
        st.lists(st.builds(OverrideDegree, st.tuples(subset, subset), value), max_size=2)
    )
    return ScenarioDocument(tuple(draw(st.lists(label, max_size=5))), named, tuple(pairs), tuple(overrides))


@given(st.one_of(documents(), loose_documents()))
@settings(max_examples=200)
def test_scenario_build_raises_only_fusion_errors(doc):
    try:
        doc.build()
    except FusionError:
        pass


# --- arbitrary scenario bytes -------------------------------------------------------

#: Lines of the scenario grammar, well-formed or nearly so.  Generated files
#: start with a frame line and mix these with random text, so that most of
#: them get past the first line; printed documents reach the commands.
SCENARIO_LINES = (
    "dnumber D1:",
    "dnumber D2:",
    "nonexclusivity:",
    "overrides:",
    "{a}: 0.5",
    "  {a, b}: 0.7",
    "{b}: 1e-3",
    "{c}: 1",
    "{}: 0.1",
    "{c}: 2",
    "{z}: 0.1",
    "a ~ b: 0.2",
    "b ~ c: 1",
    "a ~ a: 0.5",
    "{a} ~ {b, c}: 0.5",
    "{a} ~ {a}: 0.1",
    "# comment",
    "",
)

scenario_bytes = st.one_of(
    st.binary(max_size=120),
    st.builds(
        lambda frame, lines: "\n".join([frame, *lines]).encode("utf-8", "surrogatepass"),
        st.sampled_from(("frame: a, b, c", "frame: a", "frame: a, a", "frame:", "dnumber D1:")),
        st.lists(st.sampled_from(SCENARIO_LINES) | st.text(max_size=12), max_size=8),
    ),
    documents().map(lambda doc: format_scenario(doc).encode()),
)

CLI_COMMANDS = (
    ("validate",),
    ("qvalue",),
    ("bel",),
    ("conflict",),
    ("combine", "--rule", "dcr2"),
    ("combine", "--rule", "dempster", "--output", "machine"),
    ("matrix", "expand"),
)


@given(scenario_bytes)
@settings(max_examples=100)
def test_parse_scenario_raises_only_scenario_errors(data):
    try:
        parse_scenario(data)
    except ScenarioError:
        pass


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.scn"


@given(data=scenario_bytes, command=st.sampled_from(CLI_COMMANDS))
@settings(max_examples=60, deadline=None)
def test_cli_on_any_scenario_file_exits_0_1_or_2(scenario_file, data, command):
    scenario_file.write_bytes(data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = run_cli([*command, str(scenario_file)])
    assert code in (0, 1, 2)

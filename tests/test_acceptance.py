"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints a
one-line verdict (visible with ``pytest -s``); a failing criterion simply
fails its test.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from math import fsum

import pytest

from dnumbers import (
    AVERAGE,
    CONSTANT_ONE,
    MAXIMUM,
    MINIMUM,
    PRODUCT,
    DNumber,
    Frame,
    NonExclusivityModel,
    combine_many,
    dcr1,
    dcr2,
    dempster,
    dubois_prade,
    global_conflict,
    residual_conflict,
    yager,
)
from dnumbers.cli import run_cli
from dnumbers.errors import TotalConflict
from helpers import brute_dempster, random_complete, random_dnumber, random_model
from conftest import SCENARIOS

ALL_AGGREGATORS = (PRODUCT, MINIMUM, MAXIMUM, AVERAGE, CONSTANT_ONE)


def verdict(number: int, name: str):
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


def frame_cycle(sizes=(2, 3, 4)):
    pool = "abcd"
    return [Frame(pool[:n]) for n in sizes]


def test_criterion_1_two_source_worked_example(abc, overlap_model, partial_sources):
    d1, d2 = partial_sources
    report = dcr2(d1, d2, overlap_model, PRODUCT)
    assert abs(report.d_t_total - 0.465) <= 1e-12
    assert abs(report.f_value - 0.72) <= 1e-12
    assert abs(report.result.weight(("a",)) - 0.6194) <= 5e-5
    assert abs(report.result.weight(("c",)) - 0.0929) <= 5e-5
    assert abs(report.result.weight(("a", "b", "c")) - 0.0077) <= 5e-5
    best = min(
        _timed(lambda: dcr2(d1, d2, overlap_model, PRODUCT)) for _ in range(5)
    )
    assert best < 1e-3, f"combination took {best * 1e3:.3f} ms"
    verdict(1, "two incomplete sources combine to the published masses")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_expanded_matrix_is_exact(capsys):
    expected = [
        [1.0, 0.1, 0.0, 1.0, 1.0, 0.1, 1.0],
        [0.1, 1.0, 0.2, 1.0, 0.2, 1.0, 1.0],
        [0.0, 0.2, 1.0, 0.2, 1.0, 1.0, 1.0],
        [1.0, 1.0, 0.2, 1.0, 1.0, 1.0, 1.0],
        [1.0, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0],
        [0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ]
    code = run_cli(
        ["matrix", "expand", str(SCENARIOS / "abc_overlaps.scn"), "--output", "machine"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 7 and all(len(row) == 7 for row in rows)
    for got, want in zip(rows, expected):
        assert got == want  # exact equality, all 49 entries
    verdict(2, "pairwise degrees expand to the exact 7x7 matrix")


def test_criterion_3_sure_conflicting_sources():
    frame = Frame(["High", "Medium", "Low"])
    d1 = DNumber(frame, {"High": 1.0})
    d2 = DNumber(frame, {"Medium": 1.0})
    for p in (0.01, 0.1, 0.5, 1.0):
        model = NonExclusivityModel(frame, {("High", "Medium"): p})
        report = dcr1(d1, d2, model)
        assert report.result.weight(("High", "Medium")) == 1.0  # exact
        assert abs(report.k_d - (1.0 - p)) <= 1e-12
    zero = NonExclusivityModel(frame, {("High", "Medium"): 0.0})
    with pytest.raises(TotalConflict):
        dcr1(d1, d2, zero)
    with pytest.raises(TotalConflict):
        dempster(d1, d2)
    verdict(3, "overlap degree p resolves the total-conflict pair; p = 0 cannot")


def test_criterion_4_degeneration_to_dempster():
    rng = random.Random(0xD5)
    frames = frame_cycle()
    models = {f.size: NonExclusivityModel.exclusive(f) for f in frames}
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        frame = frames[checked % len(frames)]
        d1, d2 = random_complete(rng, frame), random_complete(rng, frame)
        if global_conflict(d1, d2) > 0.999:
            continue
        oracle = dempster(d1, d2)
        brute = brute_dempster(dict(d1.items()), dict(d2.items()))
        one = dcr1(d1, d2, models[frame.size])
        for mask in set(oracle.focal_sets()) | set(one.result.focal_sets()) | set(brute):
            assert abs(one.result.weight(mask) - oracle.weight(mask)) <= 1e-10
            assert abs(one.result.weight(mask) - brute.get(mask, 0.0)) <= 1e-10
        two = dcr2(d1, d2, models[frame.size], PRODUCT)
        for mask in set(one.result.focal_sets()) | set(two.result.focal_sets()):
            assert abs(one.result.weight(mask) - two.result.weight(mask)) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"degeneration suite took {elapsed:.1f} s"
    verdict(4, f"dcr1 = Dempster and dcr2 = dcr1 on {checked} exclusive pairs")


def test_criterion_5_mass_conservation():
    rng = random.Random(0xC0)
    frames = frame_cycle()
    conserved = totalled = i = 0
    while totalled < 1000:
        frame = frames[i % len(frames)]
        i += 1
        d1 = random_dnumber(rng, frame)
        d2 = random_dnumber(rng, frame)
        model = random_model(rng, frame)
        k_d = residual_conflict(d1, d2, model)
        try:
            survived = dcr2(d1, d2, model, PRODUCT).d_t_total
        except TotalConflict:
            survived = 0.0
        assert abs(survived + k_d - d1.q_value * d2.q_value) <= 1e-10
        conserved += 1
        if survived:
            for f in ALL_AGGREGATORS:
                report = dcr2(d1, d2, model, f)
                total = fsum(w for _, w in report.result.items())
                assert abs(total - f(d1.q_value, d2.q_value)) <= 1e-10
            totalled += 1
    assert conserved >= 1000
    verdict(
        5,
        f"sum of D_t + K_D = Q1*Q2 on {conserved} pairs; outputs total f(Q1, Q2)",
    )


# The frozen order-sensitivity witness: three sources and the overlap model
# under which folding left-to-right vs right-to-left moves mass visibly.
NONASSOC_WEIGHTS = (
    ((("a",), 0.6), (("b",), 0.4)),
    ((("b",), 0.5), (("c",), 0.5)),
    ((("a", "b"), 0.5), (("c",), 0.5)),
)
NONASSOC_STORED_DIFF = 0.14423076923076922  # mass moved off {a} between orders


def test_criterion_6_fold_order_matters(abc, overlap_model):
    ds = [DNumber(abc, dict(entries)) for entries in NONASSOC_WEIGHTS]
    forward = combine_many(ds, overlap_model, PRODUCT, "fold").result
    backward = combine_many(ds[::-1], overlap_model, PRODUCT, "fold").result
    masks = set(forward.focal_sets()) | set(backward.focal_sets())
    diff = max(abs(forward.weight(m) - backward.weight(m)) for m in masks)
    assert diff > 1e-6
    assert abs(diff - NONASSOC_STORED_DIFF) <= 1e-12
    verdict(6, f"fold order changes a mass by {diff:.4f} (> 1e-6)")


def test_criterion_7_classical_cross_checks(abc):
    rng = random.Random(0x7C)
    frames = frame_cycle()
    for i in range(1000):
        frame = frames[i % len(frames)]
        d = random_complete(rng, frame)
        a = rng.randint(1, frame.full_mask)
        complement = frame.full_mask ^ a
        assert abs(d.plausibility(a) - (1.0 - d.belief(complement))) <= 1e-12

    for i in range(200):
        frame = frames[i % len(frames)]
        m1, m2 = random_complete(rng, frame), random_complete(rng, frame)
        vac = DNumber.vacuous(frame)
        for rule in (yager, dubois_prade):
            assert rule(m1, m2) == rule(m2, m1)
            assert rule(m1, vac) == m1
        if global_conflict(m1, m2) < 0.999:
            assert dempster(m1, m2) == dempster(m2, m1)
        assert dempster(m1, vac) == m1

    m1 = DNumber(abc, {("a",): 0.6, ("a", "b"): 0.4})
    m2 = DNumber(abc, {("b",): 0.5, ("a", "b", "c"): 0.5})
    demp = dempster(m1, m2)
    assert demp.weight(("a",)) == 0.3 / 0.7
    assert demp.weight(("b",)) == 0.2 / 0.7
    assert demp.weight(("a", "b")) == 0.2 / 0.7
    yag = yager(m1, m2)
    assert yag.weight(("a",)) == 0.3
    assert yag.weight(("b",)) == 0.2
    assert yag.weight(("a", "b")) == 0.2
    assert yag.weight(("a", "b", "c")) == 0.3
    dp = dubois_prade(m1, m2)
    assert dp.weight(("a",)) == 0.3
    assert dp.weight(("b",)) == 0.2
    assert dp.weight(("a", "b")) == 0.5
    verdict(7, "duality, commutativity, neutrality and the worked rule trio hold")

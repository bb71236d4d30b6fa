"""Bit-level digests of every rule on a seeded corpus.

Every output below is rendered with ``repr`` case by case, and each output's
sha256 over all cases is compared with the value committed in
``fixtures/rule_digests.json``.  A change to any bit of any weight or
diagnostic fails the digest of the output it changed, and the failure names
the first case that differs.  The corpus is drawn with
``random.Random(seed).random()`` only, the one sequence Python promises to
keep across versions, and built with correctly rounded operations only
(``ldexp``, ``*``, ``/``, ``fsum``), so the committed values hold on every
supported version.

A change that moves bits on purpose rewrites the fixture and says why in
CHANGES.md:

    PYTHONPATH=src python tests/test_digests.py --write
"""

import hashlib
import json
import random
import sys
from math import fsum, ldexp
from pathlib import Path

import pytest

from dnumbers import (
    MINIMUM,
    PRODUCT,
    RULES,
    DNumber,
    Frame,
    NonExclusivityModel,
    global_conflict,
    residual_conflict,
)
from dnumbers.errors import FusionError

DIGESTS = Path(__file__).resolve().parent / "fixtures" / "rule_digests.json"

#: Case k is drawn from ``random.Random(FIRST_SEED + k)``.
FIRST_SEED, CASES = 26000, 460

#: Frames of up to this many elements also hash ``matrix()`` and ``exclusive()``.
MATRIX_SIZE = 8

#: Each case's text for every output, in this order.
OUTPUTS = (
    "dnumber",
    *RULES,
    "dcr2-minimum",
    "global_conflict",
    "residual_conflict",
    "matrix",
    "exclusive",
)


def draw_case(seed: int):
    """A frame of 2-24 elements, a model and two D numbers, from ``seed``."""
    r = random.Random(seed).random

    def pick(n: int) -> int:
        return int(r() * n)

    size = 2 + seed % 23
    frame = Frame([f"e{i}" for i in range(size)])
    full, labels = frame.full_mask, frame.labels
    zero_prob = (0.0, 0.3, 1.0)[seed % 3]
    pairs = {}
    for i in range(size):
        for j in range(i + 1, size):
            if r() >= zero_prob:
                pairs[(labels[i], labels[j])] = 1.0 if r() < 0.05 else r()
    overrides = {}
    for _ in range(pick(4)):
        m1 = 1 + pick(full)
        m2 = (1 + pick(full)) & ~m1
        if m2 and (m1, m2) not in overrides and (m2, m1) not in overrides:
            overrides[(m1, m2)] = r()
    model = NonExclusivityModel(frame, pairs, overrides)

    def dnumber() -> DNumber:
        # Uniform masks, or sets of 1-3 elements, which conflict more often;
        # weights spread over 1, 30 or 600 binary decades, the last so that
        # some products underflow.
        uniform, decades = r() < 0.5, (1, 30, 600)[pick(3)]
        masses = {}
        for _ in range(1 + pick(min(24, full))):
            if uniform:
                mask = 1 + pick(full)
            else:
                mask = 0
                for _ in range(1 + pick(3)):
                    mask |= 1 << pick(size)
            masses[mask] = ldexp(0.5 + 0.5 * r(), -pick(decades))
        total = fsum(masses.values())
        q = 1.0 if r() < 0.85 else 0.05 + 0.95 * r()
        return DNumber(frame, {m: w * q / total for m, w in masses.items()})

    return frame, model, dnumber(), dnumber()


def outcome(call) -> str:
    """``repr`` of what ``call()`` returns, or the type and message it raises."""
    try:
        return repr(call())
    except FusionError as exc:
        return f"{type(exc).__name__}: {exc}"


def case_texts(seed: int) -> dict[str, str]:
    """The text of every output of :data:`OUTPUTS` on case ``seed``."""
    frame, model, d1, d2 = draw_case(seed)
    texts = {"dnumber": f"{d1!r}\n{d2!r}"}
    for name, step in RULES.items():
        texts[name] = outcome(lambda: step(d1, d2, model, PRODUCT))
    texts["dcr2-minimum"] = outcome(lambda: RULES["dcr2"](d1, d2, model, MINIMUM))
    texts["global_conflict"] = outcome(lambda: global_conflict(d1, d2))
    texts["residual_conflict"] = outcome(lambda: residual_conflict(d1, d2, model))
    if frame.size <= MATRIX_SIZE:
        matrix = model.matrix()
        texts["matrix"], texts["exclusive"] = repr(matrix), repr(matrix.exclusive())
    else:
        texts["matrix"] = texts["exclusive"] = "over the matrix size"
    return texts


def case_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def digests(cases: list[dict[str, str]]) -> dict[str, dict[str, str]]:
    """Per output: the sha256 of all its case texts and each case's 8-digit digest."""
    out = {}
    for name in OUTPUTS:
        texts = [case[name] for case in cases]
        whole = hashlib.sha256("\n\0".join(texts).encode()).hexdigest()
        out[name] = {"sha256": whole, "cases": "".join(map(case_digest, texts))}
    return out


@pytest.fixture(scope="module")
def corpus() -> list[dict[str, str]]:
    return [case_texts(FIRST_SEED + k) for k in range(CASES)]


@pytest.fixture(scope="module")
def computed(corpus) -> dict[str, dict[str, str]]:
    return digests(corpus)


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(DIGESTS.read_text())


def test_corpus_is_the_committed_one(committed):
    assert committed["corpus"] == {"first_seed": FIRST_SEED, "cases": CASES}
    assert list(committed["digests"]) == list(OUTPUTS)


@pytest.mark.parametrize("name", OUTPUTS)
def test_digest(name, corpus, computed, committed):
    want, got = committed["digests"][name], computed[name]
    if got["sha256"] == want["sha256"]:
        return
    for k in range(CASES):
        if got["cases"][8 * k:8 * k + 8] != want["cases"][8 * k:8 * k + 8]:
            frame, model, d1, d2 = draw_case(FIRST_SEED + k)
            pytest.fail(
                f"{name}: the digest differs, first at case {k} (seed {FIRST_SEED + k}: "
                f"{frame.size} elements, {len(d1)}x{len(d2)} focal sets, {model!r}), "
                f"which now reads {corpus[k][name][:300]!r}"
            )
    pytest.fail(f"{name}: the digest differs, but no case's 8-digit digest does")


def test_every_output_varies_over_the_corpus(corpus):
    # A corpus on which an output reads the same everywhere would pin nothing.
    for name in OUTPUTS:
        assert len({case[name] for case in corpus}) > CASES // 4, name
    outcomes = [case["dcr2"].split(":")[0] for case in corpus]
    assert "TotalConflict" in outcomes
    assert sum(text.startswith("FusionReport") for text in outcomes) > CASES // 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    cases = [case_texts(FIRST_SEED + k) for k in range(CASES)]
    document = {"corpus": {"first_seed": FIRST_SEED, "cases": CASES}, "digests": digests(cases)}
    DIGESTS.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {DIGESTS.name}: {len(OUTPUTS)} outputs over {CASES} cases")

"""Naive reference implementations, written from the paper's definitions.

Nothing here imports :mod:`dnumbers`: assignments are plain ``{mask: weight}``
dicts and a model is a :class:`Model` of element-pair degrees and subset-pair
overrides, so the checks stay independent of the kernels they guard
(``_interaction``, ``_cells``, ``_degree``).  Cell sums use ``math.fsum``, as
the definitions are exact sums.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import fsum
from typing import Mapping

#: Largest absolute cell-wise difference accepted between a result and the reference.
TOLERANCE = 1e-12


@dataclass
class Model:
    """Degrees of a non-exclusivity model, keyed by element indices ``(i, j)``
    with ``i < j`` and by subset masks ``(m1, m2)`` with ``m1 < m2``."""

    pairs: dict[tuple[int, int], float] = field(default_factory=dict)
    overrides: dict[tuple[int, int], float] = field(default_factory=dict)


@dataclass
class Work:
    """What one two-source combination costs, counted from its inputs."""

    pairs: int = 0
    disjoint_pairs: int = 0
    element_probes: int = 0
    nonzero_degrees: int = 0

    def add(self, other: "Work") -> None:
        self.pairs += other.pairs
        self.disjoint_pairs += other.disjoint_pairs
        self.element_probes += other.element_probes
        self.nonzero_degrees += other.nonzero_degrees


def elements(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def canonical_key(mask: int) -> tuple[int, list[int]]:
    """Canonical subset order: by cardinality, then by element indices."""
    return (len(elements(mask)), elements(mask))


def degree(model: Model, b: int, c: int) -> float:
    """u(B, C): 1 if B and C meet, else the override, else the largest element-pair degree."""
    if b & c:
        return 1.0
    key = (b, c) if b < c else (c, b)
    if key in model.overrides:
        return model.overrides[key]
    return max(
        (model.pairs.get((min(i, j), max(i, j)), 0.0) for i in elements(b) for j in elements(c)),
        default=0.0,
    )


def degree_weighted(
    m1: Mapping[int, float], m2: Mapping[int, float], model: Model
) -> tuple[dict[int, float], Work]:
    """D_t(A): the products on B & C = A, plus u(B, C) times those on disjoint B | C = A."""
    cells: dict[int, list[float]] = {}
    work = Work(pairs=len(m1) * len(m2))
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            if b & c:
                cells.setdefault(b & c, []).append(w1 * w2)
                continue
            u = degree(model, b, c)
            work.disjoint_pairs += 1
            if (min(b, c), max(b, c)) not in model.overrides:
                work.element_probes += len(elements(b)) * len(elements(c))
            if u > 0.0:
                work.nonzero_degrees += 1
                cells.setdefault(b | c, []).append(u * w1 * w2)
    return {a: fsum(v) for a, v in cells.items()}, work


def dcr2(
    m1: Mapping[int, float], m2: Mapping[int, float], model: Model
) -> tuple[dict[int, float], Work]:
    """DCR2 with f = Q1 * Q2: D_t normalized and scaled to f(Q1, Q2)."""
    d_t, work = degree_weighted(m1, m2, model)
    total = fsum(d_t.values())
    f_value = fsum(m1.values()) * fsum(m2.values())
    return {a: f_value * (v / total) for a, v in d_t.items()}, work


def dcr1(
    m1: Mapping[int, float], m2: Mapping[int, float], model: Model
) -> tuple[dict[int, float], Work]:
    """DCR1: D_t divided by the mass that survives, 1 - K_D."""
    d_t, work = degree_weighted(m1, m2, model)
    total = fsum(d_t.values())
    return {a: v / total for a, v in d_t.items()}, work


def conjunctive(m1: Mapping[int, float], m2: Mapping[int, float]) -> dict[int, float]:
    """m(A) = sum of m1(B) m2(C) over B & C = A; the empty set (key 0) holds K."""
    cells: dict[int, list[float]] = {}
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            cells.setdefault(b & c, []).append(w1 * w2)
    return {a: fsum(v) for a, v in cells.items()}


def dempster(m1: Mapping[int, float], m2: Mapping[int, float]) -> dict[int, float]:
    conj = conjunctive(m1, m2)
    k = conj.pop(0, 0.0)
    return {a: v / (1.0 - k) for a, v in conj.items()}


def yager(m1: Mapping[int, float], m2: Mapping[int, float], full: int) -> dict[int, float]:
    conj = conjunctive(m1, m2)
    k = conj.pop(0, 0.0)
    conj[full] = conj.get(full, 0.0) + k
    return conj


def mean(ms: list[Mapping[int, float]]) -> dict[int, float]:
    focal = {a for m in ms for a in m}
    return {a: fsum(m.get(a, 0.0) for m in ms) / len(ms) for a in focal}


def subsets(n: int) -> list[int]:
    return sorted(range(1, 1 << n), key=canonical_key)


def matrix(n: int, model: Model) -> tuple[list[int], list[tuple[float, ...]]]:
    """Every non-empty subset in canonical order, and the degree of each pair."""
    order = subsets(n)
    return order, [tuple(degree(model, r, c) for c in order) for r in order]


def pack(cells: Mapping[int, float]) -> tuple[array, array]:
    """The non-zero cells as two compact arrays, masks ascending, for storing many results."""
    masks = sorted(a for a, v in cells.items() if v != 0.0)
    return array("q", masks), array("d", (cells[a] for a in masks))


def mismatch(
    actual: Mapping[int, float], expected: tuple[array, array], total: float | None = None
) -> str | None:
    """Why ``actual`` differs from the packed ``expected`` cell-wise, or from ``total`` in sum; None if not."""
    masks, values = expected
    keys = sorted(actual)
    if array("q", keys) != masks:
        return f"focal sets differ: {len(set(keys) ^ set(masks))} not shared"
    worst = max((abs(actual[a] - v) for a, v in zip(keys, values)), default=0.0)
    if worst > TOLERANCE:
        return f"a cell is off by {worst!r}"
    if total is not None and abs(fsum(actual.values()) - total) > TOLERANCE:
        return f"total mass {fsum(actual.values())!r} is not {total!r}"
    return None


def matrix_mismatch(actual_rows, expected_rows, exclusive: bool = False) -> str | None:
    """Why a degree matrix differs from ``expected_rows`` (or, with ``exclusive``,
    from 1 minus each entry) by more than the tolerance; None if it does not."""
    if len(actual_rows) != len(expected_rows) or any(
        len(a) != len(e) for a, e in zip(actual_rows, expected_rows)
    ):
        return "the matrix has the wrong shape"
    for got, want in zip(actual_rows, expected_rows):
        if exclusive:
            want = tuple(1.0 - v for v in want)
        if tuple(got) != want:
            worst = max(abs(a - b) for a, b in zip(got, want))
            if worst > TOLERANCE:
                return f"a matrix cell is off by {worst!r}"
    return None

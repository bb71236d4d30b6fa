"""Brute-force oracles and seeded random generators shared by the tests.

The oracles deliberately avoid the library's focal-set shortcuts: belief,
plausibility and Dempster's rule are summed by visiting every one of the 2^N
subsets, and the disjunctive rule and the conflicts by visiting every focal
pair, so they stay independent of the code paths they check.
"""

import json
import random
from fractions import Fraction
from math import fsum, ulp
from typing import Callable

from dnumbers import DNumber, Frame, NonExclusivityModel


def brute_bel(d: DNumber, subset) -> float:
    """Belief by direct summation over every subset of the frame."""
    a = d.frame.coerce(subset)
    total = 0.0
    for mask in range(1, d.frame.full_mask + 1):
        if mask & a == mask:
            total += d.weight(mask)
    return total


def brute_pl(d: DNumber, subset) -> float:
    """Plausibility by direct summation over every subset of the frame."""
    a = d.frame.coerce(subset)
    total = 0.0
    for mask in range(1, d.frame.full_mask + 1):
        if mask & a:
            total += d.weight(mask)
    return total


def brute_dempster(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float]:
    """Dempster's rule on plain ``{mask: weight}`` dicts, target subset first.

    For every subset A of the masks' union it sums the products of the focal
    pairs whose intersection is exactly A; A = 0 gives the conflict K, and the
    non-empty sums are divided by 1 - K.  It never calls the library's rules.
    """
    full = 0
    for mask in (*m1, *m2):
        full |= mask
    sums = {}
    for a in range(full + 1):
        if a & full == a:
            sums[a] = fsum(
                w1 * w2 for b, w1 in m1.items() for c, w2 in m2.items() if b & c == a
            )
    k = sums.pop(0)
    return {a: s / (1.0 - k) for a, s in sums.items() if s}


def brute_disjunctive(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float]:
    """The disjunctive rule on plain ``{mask: weight}`` dicts: visits every
    focal pair and gives each union the fsum of the products of the pairs
    with that union.  Unions whose sum is 0.0 are left out.  It never calls
    the package."""
    parts: dict[int, list[float]] = {}
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            parts.setdefault(b | c, []).append(w1 * w2)
    return {a: s for a, v in parts.items() if (s := fsum(v))}


def brute_conflict(m1: dict[int, float], m2: dict[int, float]) -> float:
    """The global conflict K on plain ``{mask: weight}`` dicts: the fsum of
    the products of the focal pairs that share no element.  It never calls
    the package."""
    return fsum(w1 * w2 for b, w1 in m1.items() for c, w2 in m2.items() if not b & c)


def brute_degree(
    pairs: dict[tuple[int, int], float],
    overrides: dict[tuple[int, int], float],
    b: int,
    c: int,
) -> float:
    """Non-exclusive degree of masks ``b`` and ``c`` from plain dicts.

    ``pairs`` maps element index pairs ``(i, j)`` with ``i < j`` and
    ``overrides`` maps mask pairs ``(m1, m2)`` with ``m1 <= m2``.  Intersecting
    masks give 1.0; else the override, else the largest element-pair degree
    (0.0 when none is listed).  It never calls the model.
    """
    if b & c:
        return 1.0
    key = (min(b, c), max(b, c))
    if key in overrides:
        return overrides[key]
    best = 0.0
    for i in range(b.bit_length()):
        for j in range(c.bit_length()):
            if b >> i & 1 and c >> j & 1:
                best = max(best, pairs.get((min(i, j), max(i, j)), 0.0))
    return best


def brute_residual(
    m1: dict[int, float],
    m2: dict[int, float],
    pairs: dict[tuple[int, int], float],
    overrides: dict[tuple[int, int], float],
) -> tuple[dict[int, float], float]:
    """The degree-weighted product cells and the residual conflict K_D.

    Works on plain ``{mask: weight}`` dicts and the plain degree dicts of
    :func:`brute_degree`: every focal pair's product ``w1 * w2`` goes to B&C
    when the pair intersects; otherwise ``degree * product`` goes to B|C and
    ``(1 - degree) * product`` to K_D.  Each cell and K_D is the fsum of its
    terms, so the kernel, rounding the same products, matches it bit for bit.
    Cells that received nothing are left out.  It never calls the package.
    """
    parts: dict[int, list[float]] = {}
    conflict = []
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            u = brute_degree(pairs, overrides, b, c)
            prod = w1 * w2
            target = b & c or b | c
            parts.setdefault(target, []).append(u * prod)
            conflict.append((1.0 - u) * prod)
    cells = {a: fsum(v) for a, v in parts.items() if fsum(v)}
    return cells, fsum(conflict)


def exact_dcr(
    m1: dict[int, float],
    m2: dict[int, float],
    pairs: dict[tuple[int, int], float],
    overrides: dict[tuple[int, int], float],
    f: Callable[[Fraction, Fraction], Fraction],
) -> dict[int, Fraction]:
    """DCR2 with aggregator ``f`` in exact rational arithmetic; f = 1 gives DCR1.

    Works on plain ``{mask: weight}`` dicts and the plain degree dicts of
    :func:`brute_degree`.  Every focal pair's product, as a ``Fraction``, goes
    to B&C when the pair intersects, and degree * product goes to B|C when it
    does not.  The cells are divided by their exact sum and multiplied by
    ``f`` of the exact total masses.  Cells that received nothing are left
    out.  It never calls the package.
    """
    cells: dict[int, Fraction] = {}
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            target = b & c or b | c
            share = Fraction(brute_degree(pairs, overrides, b, c)) * Fraction(w1) * Fraction(w2)
            cells[target] = cells.get(target, 0) + share
    scale = f(sum(map(Fraction, m1.values())), sum(map(Fraction, m2.values())))
    scale /= sum(cells.values())
    return {a: v * scale for a, v in cells.items() if v}


def ulps(got: float, exact: Fraction) -> Fraction:
    """How far ``got`` lies from ``exact``, in units of the last place of the
    float nearest to ``exact``."""
    return abs(Fraction(got) - exact) / Fraction(ulp(float(exact)))


def random_complete(rng: random.Random, frame: Frame, max_focal: int = 4) -> DNumber:
    """A random complete assignment with weights bounded away from zero."""
    full = frame.full_mask
    k = rng.randint(1, min(max_focal, full))
    masks = rng.sample(range(1, full + 1), k)
    weights = [rng.uniform(0.05, 1.0) for _ in masks]
    total = fsum(weights)
    return DNumber(frame, {m: w / total for m, w in zip(masks, weights)})


def random_dnumber(rng: random.Random, frame: Frame, max_focal: int = 4) -> DNumber:
    """A random assignment, complete about a third of the time."""
    d = random_complete(rng, frame, max_focal)
    if rng.random() < 1 / 3:
        return d
    q = rng.uniform(0.1, 1.0)
    return DNumber(frame, {m: q * w for m, w in d.items()})


def random_model(rng: random.Random, frame: Frame, zero_prob: float = 0.3) -> NonExclusivityModel:
    """A random model: some element pairs stay exclusive, sometimes an override."""
    labels = frame.labels
    pairs = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rng.random() >= zero_prob:
                pairs[(labels[i], labels[j])] = rng.random()
    overrides = {}
    if rng.random() < 0.3:
        full = frame.full_mask
        m1 = rng.randint(1, full)
        m2 = rng.randint(1, full) & ~m1 & full
        if m2:
            overrides[(m1, m2)] = rng.random()
    return NonExclusivityModel(frame, pairs, overrides)


def non_conflicting_pair(rng: random.Random, frame: Frame) -> tuple[DNumber, DNumber]:
    """Two complete assignments whose focal sets all share element 0 (K = 0)."""
    full = frame.full_mask

    def one() -> DNumber:
        k = rng.randint(1, min(4, full))
        masks = rng.sample(range(1, full + 1), k)
        masks = [m | 1 for m in masks]
        weights = [rng.uniform(0.05, 1.0) for _ in masks]
        total = fsum(weights)
        acc: dict[int, float] = {}
        for m, w in zip(masks, weights):
            acc[m] = acc.get(m, 0.0) + w / total
        return DNumber(frame, acc)

    return one(), one()


def render_matrix(matrix, kind: str, output: str) -> str:
    """What ``dnumbers matrix KIND --output OUTPUT`` prints for ``matrix``.

    The renderer the CLI used before it read the matrix's ranks: every cell
    is formatted on its own, the human table is joined before it is
    returned, and the JSON comes from ``json.dumps``.
    """
    frame = matrix.frame
    headers = ["{%s}" % ", ".join(frame.labels_of(mask)) for mask in matrix.subsets]
    cells = [[f"{v:g}" for v in row] for row in matrix.rows]
    width = max(len(h) for h in headers)
    width = max(width, max(len(c) for row in cells for c in row))
    lines = [" ".join([" " * width] + [h.rjust(width) for h in headers])]
    for header, row in zip(headers, cells):
        lines.append(" ".join([header.rjust(width)] + [c.rjust(width) for c in row]))
    machine = {
        "kind": "exclusive" if kind == "exclusive" else "nonexclusive",
        "subsets": [list(frame.labels_of(mask)) for mask in matrix.subsets],
        "rows": [list(row) for row in matrix.rows],
    }
    if output == "machine":
        return json.dumps(machine, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"

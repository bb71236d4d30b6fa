"""Classical two-source rules, and the product kernel that every rule shares.

:func:`_products` puts the product m1(B)*m2(C) of each focal pair on B&C when
the pair intersects, and splits it by a degree in [0, 1] between B|C and the
conflict when it does not; the D number rules of :mod:`dnumbers.fusion` take
that degree from their model, one row of degrees per focal set B.  The
classical rules require complete operands and fix it: 0 for conjunctive,
Dempster and Yager, 1 for Dubois-Prade.  Cell sums use ``math.fsum``, so every
rule is exactly commutative.  The rules and K are checked against independent
brute-force oracles, ``brute_dempster`` and ``brute_conflict`` in the tests.
Long lists of pending products are squeezed into short exact expansions
(:func:`_squeeze`), with the same ``fsum`` bit for bit, so the kernel's memory
follows the cells, not the pairs, up to one outer row's products.
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import FrameMismatch, IncompleteInput, TooManyFocalPairs, TotalConflict
from .evidence import DNumber, Frame, Record, _canonical

#: Surviving mass at or below this fraction of Q1*Q2 counts as none: dividing
#: by it would amplify representation error past any useful tolerance.
TOTAL_CONFLICT_TOLERANCE = 1e-12

#: Most focal pairs, |F1| * |F2|, that one two-source combination may visit;
#: beyond it a rule raises TooManyFocalPairs before any product is formed.
MAX_FOCAL_PAIRS = 1 << 20

#: After an outer row, conflict lists longer than this are squeezed, and so is
#: every long cell list once the cells took this many products since the last.
_SQUEEZE_CONFLICT, _SQUEEZE_CELLS = 1 << 10, 1 << 17


def _squeeze(v: list[float]) -> None:
    """Shrink ``v``, in place, to at most about 40 floats with its exact sum:
    ``fsum`` is correctly rounded, so ``v + [-fsum(v)]`` sums exactly to the
    remainder, 2^53 times smaller (Shewchuk 1997)."""
    kept = []
    while s := fsum(v):
        kept.append(s)
        v.append(-s)
    v[:] = kept


def _compact(cells: dict[int, list[float]], added: int) -> int:
    """Squeeze cell lists of over 8 floats once ``added`` > ``_SQUEEZE_CELLS``; the count left."""
    if added <= _SQUEEZE_CELLS:
        return added
    for v in cells.values():
        if len(v) > 8:
            _squeeze(v)
    return 0


def _check_pair_budget(m1: DNumber, m2: DNumber) -> None:
    pairs = len(m1) * len(m2)
    if pairs > MAX_FOCAL_PAIRS:
        raise TooManyFocalPairs(
            f"{len(m1)} x {len(m2)} focal sets make {pairs} pairs; "
            f"the budget is {MAX_FOCAL_PAIRS}"
        )


def _products(
    m1: DNumber, m2: DNumber, degrees_from: Callable[[int], Callable[[int], float]]
) -> tuple[dict[int, float], float, float]:
    """Product masses per target subset, in no particular order, plus the
    discounted conflict and the classical global conflict K.

    Each product m1(B)*m2(C) lands on B&C when the pair intersects; a disjoint
    pair adds its product to K and credits degree*product to B|C and
    (1-degree)*product to the discounted conflict, where ``degrees_from(B)``
    is B's row: a function from each C disjoint from B to their degree.  A row
    is asked for at B's first disjoint partner, so sources that rarely
    conflict build few rows.  Cells and both conflicts are fsum-reduced,
    making the outcome independent of operand order.  Lists are squeezed
    after each outer row (:func:`_compact`), so the bounds hold up to one row's
    products; the cells are reduced in the dict that held them.
    """
    _check_pair_budget(m1, m2)
    cells: defaultdict = defaultdict(list)
    conflict: list[float] = []
    disjoint: list[float] = []
    added = 0
    for b, w1 in m1.items():
        degree = None
        for c, w2 in m2.items():
            prod = w1 * w2
            inter = b & c
            if inter:
                cells[inter].append(prod)
            else:
                disjoint.append(prod)
                if degree is None:
                    degree = degrees_from(b)
                u = degree(c)
                if u > 0.0:
                    cells[b | c].append(u * prod)
                if u < 1.0:
                    conflict.append((1.0 - u) * prod)
        if len(disjoint) > _SQUEEZE_CONFLICT:
            _squeeze(disjoint)
            _squeeze(conflict)
        added = _compact(cells, added + len(m2))
    for a, v in cells.items():
        cells[a] = fsum(v)
    cells.default_factory = None
    return cells, fsum(conflict), fsum(disjoint)


def _constant_rows(u: float) -> Callable[[int], Callable[[int], float]]:
    """Rows that give every disjoint pair the degree ``u``."""
    def degree(c: int) -> float:
        return u
    return lambda b: degree


_exclusive, _overlapping = _constant_rows(0.0), _constant_rows(1.0)


class ConjunctiveResult(Record):
    """Unnormalized conjunctive masses, including the mass on the empty set.

    The empty-set entry is the global conflict K; the remaining entries are
    what Dempster's rule normalizes.  All entries sum to the product of the
    input Q values (1 for complete inputs).  ``masses`` is a read-only view.
    """

    frame: Frame
    masses: Mapping[int, float]

    @property
    def k(self) -> float:
        """Global conflict: the mass landing on the empty set."""
        return self.masses.get(0, 0.0)


def _require_combinable(m1: DNumber, m2: DNumber) -> None:
    if m1.frame != m2.frame:
        raise FrameMismatch("operands are defined over different frames")
    if not (m1.is_complete() and m2.is_complete()):
        raise IncompleteInput(
            "classical rules require complete assignments "
            f"(Q values {m1.q_value!r} and {m2.q_value!r})"
        )


def conjunctive(m1: DNumber, m2: DNumber) -> ConjunctiveResult:
    """Conjunctive rule: every product lands on the intersection of its pair.

    The output keeps the empty-set mass (the global conflict) instead of
    redistributing it.
    """
    _require_combinable(m1, m2)
    masses, _, k = _products(m1, m2, _exclusive)
    masses[0] = k
    return ConjunctiveResult(m1.frame, MappingProxyType({a: masses[a] for a in _canonical(masses)}))


def disjunctive(m1: DNumber, m2: DNumber) -> DNumber:
    """Disjunctive rule: every product lands on the union of its pair."""
    _require_combinable(m1, m2)
    _check_pair_budget(m1, m2)
    cells: defaultdict[int, list[float]] = defaultdict(list)
    added = 0
    for b, w1 in m1.items():
        for c, w2 in m2.items():
            cells[b | c].append(w1 * w2)
        added = _compact(cells, added + len(m2))
    return DNumber._from_masks(m1.frame, {a: fsum(v) for a, v in cells.items()})


def dempster(m1: DNumber, m2: DNumber) -> DNumber:
    """Dempster's rule: conjunctive masses renormalized by 1 - K.

    Raises TotalConflict when K is within ``TOTAL_CONFLICT_TOLERANCE`` of 1.
    """
    return _dempster(m1, m2)[0]


def _dempster(m1: DNumber, m2: DNumber) -> tuple[DNumber, float]:
    """:func:`dempster` and the global conflict K its one kernel pass found."""
    _require_combinable(m1, m2)
    masses, _, k = _products(m1, m2, _exclusive)
    if k >= 1.0 - TOTAL_CONFLICT_TOLERANCE:
        raise TotalConflict(f"global conflict K = {k!r}; combination is undefined")
    denom = 1.0 - k
    for a, v in masses.items():
        masses[a] = v / denom
    return DNumber._from_masks(m1.frame, masses), k


def yager(m1: DNumber, m2: DNumber) -> DNumber:
    """Yager's rule: the global conflict is moved onto the whole frame."""
    return _yager(m1, m2)[0]


def _yager(m1: DNumber, m2: DNumber) -> tuple[DNumber, float]:
    """:func:`yager` and the global conflict K its one kernel pass found."""
    _require_combinable(m1, m2)
    masses, _, k = _products(m1, m2, _exclusive)
    full = m1.frame.full_mask
    masses[full] = masses.get(full, 0.0) + k
    return DNumber._from_masks(m1.frame, masses), k


def dubois_prade(m1: DNumber, m2: DNumber) -> DNumber:
    """Dubois-Prade rule: each conflicting product moves to the pair's union."""
    return _dubois_prade(m1, m2)[0]


def _dubois_prade(m1: DNumber, m2: DNumber) -> tuple[DNumber, float]:
    """:func:`dubois_prade` and the global conflict K its one kernel pass found."""
    _require_combinable(m1, m2)
    masses, _, k = _products(m1, m2, _overlapping)
    return DNumber._from_masks(m1.frame, masses), k


def global_conflict(d1: DNumber, d2: DNumber) -> float:
    """Total product mass on disjoint focal pairs.

    Purely diagnostic: unlike the rules above it accepts incomplete
    assignments, so it can report K for any pair of D numbers.
    """
    if d1.frame != d2.frame:
        raise FrameMismatch("operands are defined over different frames")
    return _products(d1, d2, _exclusive)[2]

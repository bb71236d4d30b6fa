"""Classical two-source rules, and the product kernel that every rule shares.

:func:`_products` puts the product m1(B)*m2(C) of each focal pair on B&C when
the pair intersects, and splits it by a degree in [0, 1] between B|C and the
conflict when it does not; the D number rules of :mod:`dnumbers.fusion` take
that degree from their model, one row of degrees per focal set B.  The
classical rules require complete operands and fix it: 0 for conjunctive,
Dempster and Yager, 1 for Dubois-Prade.  The disjunctive rule is the same
pass at degree 0 over the complemented focal sets, so every rule runs one
kernel pass.  Cell sums use ``math.fsum``, so every rule is exactly
commutative.  The rules and K are checked against independent brute-force
oracles, ``brute_dempster``, ``brute_disjunctive`` and ``brute_conflict`` in
the tests.  The kernel keeps every product it must add as an 8-byte double
and reduces each cell and both conflicts with one ``fsum`` at the end, which
is correctly rounded however the doubles are grouped.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Mapping, Sequence
from math import fsum
from types import MappingProxyType

from .errors import FrameMismatch, IncompleteInput, TooManyFocalPairs, TotalConflict
from .evidence import DNumber, Frame, Record, _canonical, bit_indices

#: dcr1 and dcr2 raise TotalConflict when at most this fraction of Q1*Q2
#: survives, dempster when K >= 1 - this: dividing by less amplifies error.
TOTAL_CONFLICT_TOLERANCE = 1e-12

#: Most focal pairs, |F1| * |F2|, that one two-source combination may visit;
#: beyond it a rule raises TooManyFocalPairs before any product is formed.
MAX_FOCAL_PAIRS = 1 << 20


#: A two-slot cell; copying it and storing both products grows a cell at its
#: second product faster than ``array("d", (old, prod))``.
_PAIR = array("d", (0.0, 0.0))


def _products(
    m1: Mapping[int, float], m2: Mapping[int, float],
    rows: float | Callable[[int], tuple[Sequence[float], Mapping[int, float]]],
) -> tuple[dict[int, float], float, float]:
    """Product masses per target subset, in no particular order, plus the
    discounted conflict and the classical global conflict K.  ``m1`` and
    ``m2`` are D numbers or plain ``{mask: weight}`` dicts.

    Each product m1(B)*m2(C) lands on B&C when the pair intersects; a disjoint
    pair adds its product to K and credits degree*product to B|C and
    (1-degree)*product to the discounted conflict.  ``rows`` is either one
    degree for every disjoint pair, or a model's ``_degrees_from``: B's reach
    and overrides, asked for at B's first disjoint partner, so sources that
    rarely conflict build few rows.  The degree of C is then its override, or
    the largest reach over C's elements.  A cell holds its first product as a
    bare float and becomes an ``array("d")`` at its second (products are never
    -0.0, so the float is its own ``fsum``).  Each row's disjoint and
    discounted-conflict products go into two lists, cheaper to append to than
    arrays, and then into two ``array("d")`` buffers.  Every array holds 8
    bytes per product and is fsum-reduced once, independent of operand order.
    So the operand with fewer focal sets gives the rows, each of which pays
    its list set-up, two ``fromlist`` calls and, under a model, one reach row;
    the budget check before the swap still names the sizes in call order.
    """
    pairs = len(m1) * len(m2)
    if pairs > MAX_FOCAL_PAIRS:
        raise TooManyFocalPairs(
            f"{len(m1)} x {len(m2)} focal sets make {pairs} pairs; "
            f"the budget is {MAX_FOCAL_PAIRS}"
        )
    if len(m1) > len(m2):
        m1, m2 = m2, m1
    cells: dict = {}
    put = cells.setdefault
    conflict, disjoint = array("d"), array("d")
    constant = not callable(rows)
    columns = [(c, w2, None if constant else bit_indices(c)) for c, w2 in m2.items()]
    for b, w1 in m1.items():
        over = None
        row_conflict: list[float] = []
        row_disjoint: list[float] = []
        for c, w2, indices in columns:
            prod = w1 * w2
            cell = b & c
            if not cell:
                row_disjoint.append(prod)
                if indices is None:
                    u = rows
                else:
                    if over is None:
                        reach, over = rows(b)
                    if c in over:
                        u = over[c]
                    else:
                        # Cheaper than a max() call; no reach is -0.0, so 0.0 starts it.
                        u = 0.0
                        for j in indices:
                            if reach[j] > u:
                                u = reach[j]
                if u < 1.0:
                    row_conflict.append((1.0 - u) * prod)
                if u <= 0.0:
                    continue
                cell, prod = b | c, u * prod
            old = put(cell, prod)
            if type(old) is array:
                old.append(prod)
            elif old is not prod:  # a fresh product is never the float already there
                cells[cell] = new = _PAIR * 1
                new[0], new[1] = old, prod
        disjoint.fromlist(row_disjoint)
        conflict.fromlist(row_conflict)
    for a, v in cells.items():
        if type(v) is array:
            cells[a] = fsum(v)
    return cells, fsum(conflict), fsum(disjoint)


#: The constant degrees of the classical rules.
_exclusive, _overlapping = 0.0, 1.0


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


def _one_frame(first, *others) -> Frame:
    """The frame of ``first``, which the other D numbers or models must share."""
    if any(other.frame != first.frame for other in others):
        raise FrameMismatch("operands are defined over different frames")
    return first.frame


def _require_combinable(m1: DNumber, m2: DNumber) -> None:
    _one_frame(m1, m2)
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
    """Disjunctive rule: every product lands on the union of its pair.

    B|C is the complement of ~B & ~C, so a conjunctive pass over the
    complemented focal sets (plain dicts: the frame's complement is the empty
    mask) puts each product on the complement of its union, and its K is the
    mass of the pairs whose union is the whole frame.
    """
    _require_combinable(m1, m2)
    full = m1.frame.full_mask
    cells, _, k = _products(*[{full ^ b: w for b, w in m.items()} for m in (m1, m2)], _exclusive)
    masses = {full ^ a: v for a, v in cells.items()}
    if k:
        masses[full] = k
    return DNumber._from_masks(m1.frame, masses)


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
    order, denom = _canonical(masses), 1.0 - k
    return DNumber._from_cells(m1.frame, masses, order, [masses[a] / denom for a in order]), k


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
    _one_frame(d1, d2)
    return _products(d1, d2, _exclusive)[2]

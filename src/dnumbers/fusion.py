"""Non-exclusivity models and the DCR1/DCR2 combination rules for D numbers.

Classical combination treats frame elements as mutually exclusive, so any two
disjoint focal sets conflict outright.  A :class:`NonExclusivityModel` softens
that: each unordered pair of subsets gets a degree in [0, 1] saying how far the
two fail to exclude one another (1 whenever they intersect).  DCR1 combines two
complete D numbers by crediting each disjoint pair's product to the pair's
union in proportion to that degree and discounting the global conflict by the
rest; DCR2 additionally handles incomplete inputs by scaling the normalized
result to an aggregate of the two Q values.  With an all-exclusive model both
rules collapse to Dempster's rule.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from math import fsum
from types import MappingProxyType

from .classical import (
    TOTAL_CONFLICT_TOLERANCE,
    ConjunctiveResult,
    _dempster,
    _dubois_prade,
    _one_frame,
    _products,
    _yager,
    conjunctive,
    disjunctive,
)
from .errors import (
    DuplicatePair,
    EmptySubset,
    FrameTooLargeForMatrix,
    IncompleteInput,
    IntersectingPair,
    InvalidAggregator,
    OutOfRangeValue,
    TotalConflict,
)
from .evidence import DNumber, Frame, Record, SubsetLike, _canonical, bit_indices

#: Largest frame for which the full (2^N - 1)-squared degree matrix may be
#: materialized; degree lookups themselves are lazy and uncapped.
MAX_MATRIX_FRAME_SIZE = 12

PairDegrees = Mapping[tuple[str, str], float] | Iterable[tuple[tuple[str, str], float]]
OverrideDegrees = (
    Mapping[tuple[SubsetLike, SubsetLike], float] | Iterable[tuple[tuple[SubsetLike, SubsetLike], float]]
)


def _items(entries) -> Iterable:
    if entries is None:
        return ()
    if isinstance(entries, Mapping):
        return entries.items()
    return entries


def _check_degree(value: float) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise OutOfRangeValue(f"degree {value!r} is outside [0, 1]")
    return v


_NO_OVERRIDES: Mapping[int, float] = MappingProxyType({})


class NonExclusivityModel:
    """Pairwise non-exclusive degrees over a frame.

    ``pairs`` assigns degrees to unordered pairs of *elements*; any unlisted
    pair defaults to 0, so the zero-configuration model is the classical,
    fully exclusive frame.  Degrees between disjoint multi-element subsets are
    expanded on demand as the maximum over their element pairs, unless an
    explicit ``overrides`` entry for that unordered subset pair wins.
    Intersecting subsets always have degree 1; that branch cannot be
    configured.

    The model never changes; one slot keeps the ranked form of its degree
    matrix, never the float rows, filled lazily by the first :meth:`matrix`.
    A model stays safe to share between threads: concurrent first calls may
    each build the form, and they build equal ones.
    """

    __slots__ = ("frame", "_pairs", "_elem", "_by_subset", "_kept")

    def __init__(
        self,
        frame: Frame,
        pairs: PairDegrees | None = None,
        overrides: OverrideDegrees | None = None,
    ):
        self.frame = frame
        elem: dict[tuple[int, int], float] = {}
        # table[i][j]: the degree of elements i and j, 0.0 where none is
        # listed.  Listed zeros stay out, so the table holds no -0.0.
        table = [[0.0] * frame.size for _ in range(frame.size)]
        for (l1, l2), degree in _items(pairs):
            i, j = frame.index(l1), frame.index(l2)
            if i == j:
                raise IntersectingPair(
                    f"the degree of {l1!r} with itself is pinned to 1"
                )
            key = (i, j) if i < j else (j, i)
            if key in elem:
                raise DuplicatePair(f"pair ({l1!r}, {l2!r}) assigned twice")
            elem[key] = d = _check_degree(degree)
            if d > 0.0:
                table[i][j] = table[j][i] = d
        by_subset: dict[int, dict[int, float]] = {}
        for (s1, s2), degree in _items(overrides):
            m1, m2 = frame.coerce(s1), frame.coerce(s2)
            if m1 == 0 or m2 == 0:
                raise EmptySubset("overrides require non-empty subsets")
            if m1 & m2:
                raise IntersectingPair(
                    "override targets intersecting subsets, whose degree is pinned to 1"
                )
            if m2 in by_subset.get(m1, _NO_OVERRIDES):
                raise DuplicatePair(
                    f"subset pair ({frame.labels_of(m1)}, {frame.labels_of(m2)}) assigned twice"
                )
            d = _check_degree(degree)
            by_subset.setdefault(m1, {})[m2] = d
            by_subset.setdefault(m2, {})[m1] = d
        self._pairs = elem
        self._elem = tuple(map(tuple, table))
        self._by_subset = by_subset
        self._kept: _RankedMatrix | None = None

    @classmethod
    def exclusive(cls, frame: Frame) -> "NonExclusivityModel":
        """The classical model: every disjoint pair has degree 0."""
        return cls(frame)

    @property
    def element_degrees(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(self._pairs)

    @property
    def subset_overrides(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(
            {(b, c): d for b, over in self._by_subset.items() for c, d in over.items() if b < c}
        )

    def degree(self, b1: SubsetLike, b2: SubsetLike) -> float:
        """Non-exclusive degree of two non-empty subsets.

        Returns 1 for intersecting subsets; otherwise the override for the
        unordered pair if present, else the maximum element-pair degree
        (0 when no element pair is listed).
        """
        m1, m2 = self.frame.coerce(b1), self.frame.coerce(b2)
        if m1 == 0 or m2 == 0:
            raise EmptySubset("non-exclusive degrees are defined for non-empty subsets")
        if m1 & m2:
            return 1.0
        over = self._by_subset.get(m1, _NO_OVERRIDES)
        if m2 in over:
            return over[m2]
        # The rule of _degrees_from for a single lookup: it reads B's
        # single-element rows rather than merge them into B's reach, so it
        # costs O(|B| |C|) instead of O(|B| n + |C|).  The table holds no
        # -0.0, so an all-zero maximum reads 0.0.
        elem, columns = self._elem, bit_indices(m2)
        return max([elem[i][j] for i in bit_indices(m1) for j in columns])

    def exclusive_degree(self, b1: SubsetLike, b2: SubsetLike) -> float:
        """Exclusive degree: 1 minus the non-exclusive degree."""
        return 1.0 - self.degree(b1, b2)

    def _degrees_from(self, b: int) -> tuple[Sequence[float], Mapping[int, float]]:
        """B's row as data: B's reach and B's overrides.

        ``reach[j]`` is the largest pair degree between element j and an
        element of B, merged from B's element rows by comparisons (cheaper than
        max()).  A subset C disjoint from B has its override if listed, else
        the largest ``reach[j]`` over j in C; no reach is -0.0, so an all-zero
        maximum reads 0.0.  A row costs O(|B| n), a lookup in it O(|C|).
        """
        reach, *rows = [self._elem[i] for i in bit_indices(b)]
        for row in rows:
            reach = [x if x > y else y for x, y in zip(reach, row)]
        return reach, self._by_subset.get(b, _NO_OVERRIDES)

    def matrix(self) -> "DegreeMatrix":
        """The full non-exclusive degree matrix over all non-empty subsets.

        Rows and columns follow the canonical subset order (by cardinality,
        then element indices).  Capped at ``MAX_MATRIX_FRAME_SIZE`` elements.
        """
        return DegreeMatrix._complete(self._ranked())

    def _ranked(self) -> "_RankedMatrix":
        """The degree matrix as the rank bytes of its disjoint cells, without
        float rows; built on the first call and kept from then on."""
        n = self.frame.size
        if n > MAX_MATRIX_FRAME_SIZE:
            raise FrameTooLargeForMatrix(
                f"a frame of {n} elements would need a "
                f"{2 ** n - 1}x{2 ** n - 1} matrix; "
                f"the cap is {MAX_MATRIX_FRAME_SIZE} elements"
            )
        if self._kept is not None:
            return self._kept
        # Every degree of the table that degree() and _degrees_from read, plus
        # 0.0 and 1.0, as one byte: its rank in the sorted distinct values, at
        # most 2 + 66 at the cap.  The table holds no -0.0; its zeros take rank 0.
        values = sorted({0.0, 1.0}.union(*self._elem))
        rank = {v: r for r, v in enumerate(values)}
        top = rank[1.0]
        elem = [bytes(map(rank.__getitem__, row)) for row in self._elem]
        # raise_to[r] maps a rank x to max(x, r).
        raise_to = [bytes([r]) * r + bytes(range(r, 256)) for r in range(len(values))]
        # reach[B][j]: rank of the degree between element j outside B and
        # subset B, doubled one element i at a time: max(reach[B], elem[i])
        # for B | 1 << i, by comparisons (a max() call per byte costs more).
        reach = [bytes(n)]
        for e in elem:
            reach += [bytes([x if x > y else y for x, y in zip(r, e)]) for r in reach]
        subsets = tuple(self.frame.subsets())
        position = {m: k for k, m in enumerate(subsets)}
        # Each override cell gets an entry of its own in values, so a -0.0 keeps its sign.
        overrides = {}
        for b, over in self._by_subset.items():
            overrides[position[b]] = {position[c]: r for r, c in enumerate(over, len(values))}
            values += over.values()
        # up[j][p]: the position of C plus element j, where p is C's position
        # and -1 the empty set's; read from ``position``, so rows share its ints.
        up = [[position[m | 1 << j] for m in subsets] + [position[1 << j]] for j in range(n)]
        positions, ranks = [], []
        for b in subsets:
            # The subsets C of B's complement and the ranks max over j in C of
            # reach[B][j], doubled one element j at a time, lowest first; the
            # empty set, rank 0, starts them and has no cell.
            row_reach, columns, row = reach[b], [-1], b"\0"
            for j in bit_indices(self.frame.full_mask ^ b):
                row += row.translate(raise_to[row_reach[j]])
                columns += [*map(up[j].__getitem__, columns)]
            positions.append(tuple(columns[1:]))
            ranks.append(row[1:])
        self._kept = _RankedMatrix(
            self.frame, subsets, tuple(positions), tuple(ranks), tuple(values), top, overrides
        )
        return self._kept

    def __repr__(self) -> str:
        return (
            f"NonExclusivityModel({self.frame!r}, {len(self._pairs)} pairs, "
            f"{len(self.subset_overrides)} overrides)"
        )


class DegreeMatrix(Record):
    """A materialized symmetric degree matrix over the non-empty subsets.

    ``rows[k][l]`` is the degree of ``subsets[k]`` and ``subsets[l]``, both in
    canonical order.  Besides the rows, a matrix carries the
    :class:`_RankedMatrix` they were built from, which :meth:`exclusive`
    complements instead of visiting floats.  The carried field takes no part
    in ``==``, hashing or ``repr``.
    """

    frame: Frame
    subsets: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]
    _ranked: _RankedMatrix
    _no_compare = _no_repr = ("_ranked",)

    @classmethod
    def _complete(cls, ranked: _RankedMatrix) -> "DegreeMatrix":
        """The matrix of ``ranked``, with its float rows."""
        rows = tuple(ranked.rows_as(ranked.values))
        return cls(ranked.frame, ranked.subsets, rows, ranked)

    def exclusive(self) -> "DegreeMatrix":
        """The complementary matrix of exclusive degrees (1 minus each entry)."""
        return DegreeMatrix._complete(self._ranked.complement())


class _RankedMatrix(Record):
    """A degree matrix before its float rows: what ``matrix()`` completes and
    the CLI renders.

    Every cell is a rank into ``values``.  Row k keeps, for each non-empty
    subset C of the complement of ``subsets[k]``, C's canonical column
    position in ``positions[k]`` and, in ``ranks[k]``, one byte: the rank of
    their degree among the sorted distinct degrees that open ``values``.
    Every other cell holds rank ``top``, degree 1.0.  ``overrides[k][l]``, the
    rank of an override's own entry after those, wins over the cell it covers.
    """

    frame: Frame
    subsets: tuple[int, ...]
    positions: tuple[tuple[int, ...], ...]
    ranks: tuple[bytes, ...]
    values: tuple[float, ...]
    top: int
    overrides: Mapping[int, Mapping[int, int]]

    def complement(self) -> "_RankedMatrix":
        """The exclusive degrees: the same ranks, ``1 - v`` for each value."""
        return _RankedMatrix(
            self.frame,
            self.subsets,
            self.positions,
            self.ranks,
            tuple([1.0 - v for v in self.values]),
            self.top,
            self.overrides,
        )

    def shown(self) -> set[int]:
        """The ranks that the cells hold: the top rank, the overrides' ranks and
        the ranks of the disjoint cells that no override covers."""
        top = self.top
        seen = bytes([top])
        for k, (positions, ranks) in enumerate(zip(self.positions, self.ranks)):
            over = self.overrides.get(k)
            if over:
                ranks = bytearray(ranks)
                for l in over:
                    ranks[positions.index(l)] = top
            new = ranks.translate(None, seen)
            if new:
                seen += bytes(set(new))
        return {*seen, *(r for over in self.overrides.values() for r in over.values())}

    def rows_as(self, table: Sequence) -> Iterator[tuple]:
        """Each row, a rank r read as ``table[r]``."""
        top = table[self.top]
        row = [top] * len(self.subsets)
        for k, (positions, ranks) in enumerate(zip(self.positions, self.ranks)):
            for l, r in zip(positions, ranks):
                row[l] = table[r]
            for l, r in self.overrides.get(k, _NO_OVERRIDES).items():
                row[l] = table[r]
            yield tuple(row)
            for l in positions:  # overrides cover only these: the row is all top again
                row[l] = top


# --- completeness aggregators --------------------------------------------------


class CompletenessAggregator(Record):
    """A function f(Q1, Q2) fixing the total mass of a DCR2 result.

    Admissible aggregators satisfy 0 <= f(Q1, Q2) <= max(Q1, Q2) on the unit
    square and f(1, 1) = 1.  Use :meth:`from_callable` for user functions; it
    enforces both constraints on a 101x101 grid.
    """

    name: str
    fn: Callable[[float, float], float]
    _no_repr = ("fn",)

    def __call__(self, q1: float, q2: float) -> float:
        return self.fn(q1, q2)

    @classmethod
    def from_callable(
        cls, name: str, fn: Callable[[float, float], float]
    ) -> "CompletenessAggregator":
        """Wrap a user-supplied aggregator after checking it with
        :func:`validate_f_points` on a 101x101 grid."""
        grid = [i / 100 for i in range(101)]
        try:
            validate_f_points((q1, q2, fn(q1, q2)) for q1 in grid for q2 in grid)
        except InvalidAggregator as exc:
            raise InvalidAggregator(f"{name!r}: {exc}") from None
        return cls(name, fn)


PRODUCT = CompletenessAggregator("product", lambda q1, q2: q1 * q2)
MINIMUM = CompletenessAggregator("minimum", min)
MAXIMUM = CompletenessAggregator("maximum", max)
AVERAGE = CompletenessAggregator("average", lambda q1, q2: (q1 + q2) / 2.0)
#: Deliberately inadmissible escape hatch: renormalizes every result to total
#: mass 1, exceeding the max(Q1, Q2) bound whenever an input is incomplete.
CONSTANT_ONE = CompletenessAggregator("constant-one", lambda q1, q2: 1.0)

AGGREGATORS: dict[str, CompletenessAggregator] = {
    "product": PRODUCT,
    "minimum": MINIMUM,
    "maximum": MAXIMUM,
    "average": AVERAGE,
    "constant-one": CONSTANT_ONE,
    # CLI spellings
    "min": MINIMUM,
    "max": MAXIMUM,
    "avg": AVERAGE,
    "one": CONSTANT_ONE,
}


def aggregator(name: str) -> CompletenessAggregator:
    """Look up a built-in aggregator by name or CLI alias."""
    try:
        return AGGREGATORS[name]
    except KeyError:
        raise InvalidAggregator(
            f"unknown aggregator {name!r}; choose from "
            f"{sorted(set(a.name for a in AGGREGATORS.values()))}"
        ) from None


def validate_f_points(points: Iterable[tuple[float, float, float]]) -> int:
    """Check sampled aggregator values (q1, q2, f) against the admissibility
    constraints; the sample must include the corner f(1, 1) = 1.

    Returns the number of points checked.
    """
    tol = 1e-12
    count = 0
    has_corner = False
    for q1, q2, v in points:
        count += 1
        if not -tol <= v <= max(q1, q2) + tol:
            raise InvalidAggregator(
                f"f({q1}, {q2}) = {v!r} is outside [0, max(Q1, Q2)]"
            )
        if q1 == 1.0 and q2 == 1.0:
            has_corner = True
            if abs(v - 1.0) > tol:
                raise InvalidAggregator(f"f(1, 1) = {v!r}, not 1")
    if not has_corner:
        raise InvalidAggregator("the table lacks the required corner point f(1, 1)")
    return count


# --- combination ----------------------------------------------------------------


class FusionReport(Record):
    """A combined D number plus the diagnostics of the rule that produced it.

    ``k_d``, the residual conflict, is set by dcr1 and dcr2; ``d_t_total``
    (the unnormalized surviving mass) and ``f_value`` by dcr2 only, although
    dcr1 is dcr2 with f = 1; ``k``, the global conflict, by all but disjunctive.
    The conjunctive rule's ``result`` is a :class:`ConjunctiveResult`, which
    keeps the mass on the empty set.
    """

    result: DNumber | ConjunctiveResult
    rule: str
    q1: float
    q2: float
    k_d: float | None = None
    d_t_total: float | None = None
    f_value: float | None = None
    k: float | None = None


def residual_conflict(
    d1: DNumber, d2: DNumber, model: NonExclusivityModel
) -> float:
    """The conflict K_D left after discounting each disjoint pair by its degree.

    Diagnostic: accepts incomplete inputs.  Never exceeds the classical global
    conflict and equals it under a fully exclusive model.
    """
    _one_frame(d1, d2, model)
    return _products(d1, d2, model._degrees_from)[1]


def dcr1(d1: DNumber, d2: DNumber, model: NonExclusivityModel) -> FusionReport:
    """Combine two complete D numbers: :func:`dcr2` with f = 1, reported as
    ``"dcr1"`` with K_D and K but without the surviving mass or f."""
    _one_frame(d1, d2, model)
    if not (d1.is_complete() and d2.is_complete()):
        raise IncompleteInput(
            "dcr1 requires complete D numbers "
            f"(Q values {d1.q_value!r} and {d2.q_value!r}); use dcr2 instead"
        )
    two = dcr2(d1, d2, model, CONSTANT_ONE)
    return FusionReport(two.result, "dcr1", two.q1, two.q2, k_d=two.k_d, k=two.k)


def dcr2(
    d1: DNumber,
    d2: DNumber,
    model: NonExclusivityModel,
    f: CompletenessAggregator = PRODUCT,
) -> FusionReport:
    """Combine two (possibly incomplete) D numbers.

    The degree-weighted masses are normalized and then scaled so the output's
    total mass is f(Q1, Q2); on complete inputs with f = 1 this is dcr1.
    Raises TotalConflict when at most ``TOTAL_CONFLICT_TOLERANCE`` * Q1*Q2 survives.
    """
    _one_frame(d1, d2, model)
    masses, k_d, k = _products(d1, d2, model._degrees_from)
    # Normalize by the surviving mass itself: 1 - K_D for complete inputs, but
    # free of the cancellation that 1 - K_D suffers when K_D is close to 1.
    total = fsum(masses.values())
    q1, q2 = d1.q_value, d2.q_value
    # Relative to Q1*Q2, the mass the products started with, multiplied first so both orders agree.
    if total <= TOTAL_CONFLICT_TOLERANCE * (q1 * q2):
        raise TotalConflict(
            f"no mass survives the combination (sum of D_t = {total!r})"
        )
    f_value = f(q1, q2)
    order = _canonical(masses)
    result = DNumber._from_cells(d1.frame, masses, order, [f_value * (masses[a] / total) for a in order])
    return FusionReport(result, "dcr2", q1, q2, k_d=k_d, d_t_total=total, f_value=f_value, k=k)


def mean_assignment(ds: Sequence[DNumber]) -> DNumber:
    """Pointwise arithmetic mean of several D numbers on one frame."""
    if not ds:
        raise ValueError("need at least one D number")
    frame = _one_frame(*ds)
    focal = set().union(*[d.focal_sets() for d in ds])
    n = len(ds)
    return DNumber._from_masks(
        frame, {m: fsum(d.weight(m) for d in ds) / n for m in focal}
    )


def _classical_step(name: str, rule: Callable[..., tuple]) -> Callable[..., FusionReport]:
    """A step from ``rule(d1, d2) -> (result, K)``: K comes with the result."""

    def step(d1, d2, model, f) -> FusionReport:
        result, k = rule(d1, d2)
        return FusionReport(result, name, d1.q_value, d2.q_value, k=k)

    return step


def _conjunctive(d1: DNumber, d2: DNumber) -> tuple[ConjunctiveResult, float]:
    result = conjunctive(d1, d2)
    return result, result.k


def _disjunctive(d1: DNumber, d2: DNumber) -> tuple[DNumber, None]:
    return disjunctive(d1, d2), None


#: Every two-source rule as a step ``step(d1, d2, model, f)``; the classical
#: rules ignore the model and f, and dcr1 ignores f.
RULES: dict[str, Callable[..., FusionReport]] = {
    "conjunctive": _classical_step("conjunctive", _conjunctive),
    "disjunctive": _classical_step("disjunctive", _disjunctive),
    "dempster": _classical_step("dempster", _dempster),
    "yager": _classical_step("yager", _yager),
    "dubois-prade": _classical_step("dubois-prade", _dubois_prade),
    "dcr1": lambda d1, d2, model, f: dcr1(d1, d2, model),
    "dcr2": dcr2,
}

STRATEGIES = ("fold", "average-iterate")


def combine_many(
    ds: Sequence[DNumber],
    model: NonExclusivityModel,
    f: CompletenessAggregator = PRODUCT,
    strategy: str = "fold",
    rule: str = "dcr2",
) -> FusionReport:
    """Combine two or more D numbers with a rule of :data:`RULES`.

    The rules are not associative.  ``fold`` applies the rule left to right in
    list order and so respects sources that arrive in a meaningful order.
    ``average-iterate`` combines the pointwise mean of all inputs with itself
    n-1 times, trading order sensitivity for symmetry.  The conjunctive rule,
    whose result keeps the empty set's mass, combines exactly two sources.
    The report is the last step's.  A TotalConflict raised at any step
    carries the 1-based index of the failing combination step.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {list(RULES)}")
    if len(ds) < 2:
        raise ValueError("need at least two D numbers to combine")
    if rule == "conjunctive" and len(ds) != 2:
        raise ValueError("the conjunctive rule combines exactly two sources")
    _one_frame(*ds, model)
    if strategy == "fold":
        acc, others = ds[0], ds[1:]
    elif strategy == "average-iterate":
        acc = mean_assignment(ds)
        others = [acc] * (len(ds) - 1)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    step_fn = RULES[rule]
    for step, nxt in enumerate(others, start=1):
        try:
            report = step_fn(acc, nxt, model, f)
        except TotalConflict as exc:
            raise TotalConflict(f"combination step {step}: {exc}", step=step) from exc
        acc = report.result
    return report

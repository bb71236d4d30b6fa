"""Frames of discernment, subsets as bitmasks, and D number mass assignments.

A :class:`Frame` fixes an ordered universe of labels; subsets of it are plain
integers whose bit i stands for label i.  A :class:`DNumber` assigns weights to
non-empty subsets.  Unlike a classical basic probability assignment, the total
weight may fall short of 1; ``q_value`` measures how much was assigned.  The
elements of a frame are *not* assumed mutually exclusive here -- exclusiveness
lives in the non-exclusivity model (see :mod:`dnumbers.fusion`), not in the
frame.

All types are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, combinations
from math import fsum
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Union

from .errors import (
    DuplicateLabel,
    EmptyFrame,
    EmptySetAssignment,
    ForeignSubset,
    FrameTooLarge,
    MassOverflow,
    NegativeWeight,
)

#: Absolute tolerance on the total mass at construction time and in
#: completeness checks.
EPSILON = 1e-9

#: Hard cap on frame size: subset iteration is O(2^N) in the worst case and the
#: expanded degree matrix is (2^N - 1) squared, so large frames are rejected
#: early instead of hanging.
MAX_FRAME_SIZE = 24

#: Ways a subset may be spelled in the public API: a ready bitmask, a single
#: label, or an iterable of labels.
SubsetLike = Union[int, str, Iterable[str]]


#: Each byte b with its eight bits reversed, then flipped, ``255 - reversed(b)``:
#: its own inverse; the offsets of the bytes of weight 2^0, 2^8, 2^16 and 2^24
#: in an ``array("I")`` item; each byte's number of set bits; and the offset of
#: the last of an item's bytes of weight 2^0, 2^8 and 2^16.
_FLIPPED_BYTE = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))
_BYTE_AT = (0, 1, 2, 3) if sys.byteorder == "little" else (3, 2, 1, 0)
_BIT_COUNT = bytes(b.bit_count() for b in range(256))
_COUNT_AT = max(_BYTE_AT[:3])


#: ``bit_indices`` of each value of bytes 0, 1 and 2 of a mask, built by doubling:
#: entry b + 2^k of a byte's table is entry b with that byte's bit k added.
_BITS0, _BITS1, _BITS2 = _BYTE_BITS = ([()], [()], [()])
for _bit in range(MAX_FRAME_SIZE):
    _BYTE_BITS[_bit >> 3].extend([bits + (_bit,) for bits in _BYTE_BITS[_bit >> 3]])


def bit_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending; a mask of 2^24 or more raises IndexError."""
    return _BITS0[mask & 255] + _BITS1[mask >> 8 & 255] + _BITS2[mask >> 16]


def _shuffle(items: bytes, top: bytes) -> array:
    """Masks to ``Frame.sort_key`` keys and back, as the bytes of an ``array("I")``:
    bytes 0-2 of each item swap ends through ``_FLIPPED_BYTE``, and byte 3 is
    taken from ``top``."""
    data, out = items.translate(_FLIPPED_BYTE), bytearray(len(items))
    b0, b1, b2, b3 = _BYTE_AT
    out[b0::4], out[b1::4], out[b2::4], out[b3::4] = data[b2::4], data[b1::4], data[b0::4], top
    return array("I", out)


def _popcounts(items: bytes) -> bytes:
    """The number of set bits of each item of an ``array("I")``, given as its bytes,
    whose byte of weight 2^24 is 0."""
    # Read as one little-endian int, the bytes' bit counts times 0x010101 add
    # each byte to the two above it; no sum exceeds 24, so nothing carries.
    lanes = int.from_bytes(items.translate(_BIT_COUNT), "little") * 0x010101
    return lanes.to_bytes(len(items) + 2, "little")[_COUNT_AT::4]


def _canonical(masks: Collection[int]) -> list[int]:
    """``sorted(masks, key=Frame.sort_key)`` without a Python call per mask: the keys,
    below 2^30 so that CPython compares them fast, sort as plain ints."""
    items = array("I", masks).tobytes()
    keys = array("I", sorted(_shuffle(items, _popcounts(items)))).tobytes()
    return _shuffle(keys, bytes(len(keys) // 4)).tolist()


class Frame:
    """An ordered set of distinct element labels; label i maps to bit i.

    The label order given at construction is stable and defines the bitmask
    encoding of every subset of this frame.  Labels must be ``str``, since an
    int in a subset spelling is read as a bitmask.
    """

    __slots__ = ("labels", "_index", "_full")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise EmptyFrame("a frame needs at least one label")
        if len(labels) > MAX_FRAME_SIZE:
            raise FrameTooLarge(
                f"frame has {len(labels)} labels; at most {MAX_FRAME_SIZE} are supported"
            )
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise TypeError(f"frame labels are str, got {label!r}")
            if label in index:
                raise DuplicateLabel(f"duplicate frame label {label!r}")
            index[label] = i
        self.labels = labels
        self._index = index
        self._full = (1 << len(labels)) - 1

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        """Bitmask of the whole frame."""
        return self._full

    def index(self, label: str) -> int:
        """Bit position of ``label``; raises ForeignSubset if unknown."""
        try:
            return self._index[label]
        except KeyError:
            raise ForeignSubset(f"label {label!r} is not in the frame") from None

    def mask(self, *labels: str) -> int:
        """Bitmask of the subset holding the given labels."""
        m = 0
        for label in labels:
            m |= 1 << self.index(label)
        return m

    def coerce(self, subset: SubsetLike) -> int:
        """Normalize any accepted subset spelling to a validated bitmask."""
        if isinstance(subset, int):
            if subset < 0 or subset > self._full:
                raise ForeignSubset(
                    f"mask {subset:#b} does not fit a frame of {len(self.labels)} elements"
                )
            return subset
        if isinstance(subset, str):
            return self.mask(subset)
        return self.mask(*subset)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """Labels of a subset, in frame order."""
        mask = self.coerce(mask)
        return tuple(self.labels[i] for i in bit_indices(mask))

    def sort_key(self, mask: int) -> int:
        """Canonical subset order: by cardinality, then by element indices.

        The key is the integer ``(popcount << W) | (2^W - 1 - bitreverse_W(mask))``
        with ``W = MAX_FRAME_SIZE``.  Reversing the W bits puts element 0 on
        the highest bit, so among subsets of one cardinality the one holding
        the lowest differing element gets the larger reversal and the smaller
        key.  Keys are distinct, and their order equals that of the tuple
        ``(cardinality, ascending element indices)``; the empty set sorts
        first.  It is ``_canonical``'s byte transform applied to one mask; a
        mask outside this frame raises ForeignSubset.
        """
        items = array("I", [self.coerce(mask)]).tobytes()
        return _shuffle(items, _popcounts(items))[0]

    def subsets(self) -> Iterator[int]:
        """All non-empty subsets in canonical order, generated lazily.

        ``combinations`` of the single-element masks yields each cardinality's
        subsets in ascending order of their element indices, which is the
        order of :meth:`sort_key`.
        """
        bits = [1 << i for i in range(self.size)]
        return chain.from_iterable(
            map(sum, combinations(bits, k)) for k in range(1, len(bits) + 1)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Frame) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Frame({list(self.labels)!r})"


class Record:
    """Base of the immutable value classes: a frozen record of its annotated fields,
    with defaults from class attributes.  ``==`` (same class only) and hash skip
    the fields named in ``_no_compare``, ``repr`` those in ``_no_repr``."""

    _fields = _no_compare = _no_repr = ()

    def __init_subclass__(cls):
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = cls.__match_args__ = (*cls._fields, *own)
        cls._eq_fields = tuple(n for n in cls._fields if n not in cls._no_compare)
        cls._repr_fields = tuple(n for n in cls._fields if n not in cls._no_repr)

    def __init__(self, *args, **kwargs):
        cls, names, state = type(self), self._fields, self.__dict__
        if len(args) > len(names) or kwargs.keys() - names[len(args):]:
            raise TypeError(f"{cls.__qualname__}() takes each of the fields {names} once")
        state.update(zip(names, args))
        for name in names[len(args):]:
            try:
                state[name] = kwargs[name] if name in kwargs else getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__qualname__}() is missing the field {name!r}") from None

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._eq_fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={self.__dict__[name]!r}" for name in self._repr_fields])
        return f"{type(self).__qualname__}({body})"


class BeliefSummary(Record):
    """Belief/plausibility bounds of one subset.

    ``from_incomplete`` marks values computed from an assignment whose total
    mass is below 1: the raw sums are still reported, but they are not the
    classical Bel/Pl measures, which are only defined for complete assignments.
    """

    subset: int
    bel: float
    pl: float
    from_incomplete: bool = False


class DNumber:
    """A mass assignment over non-empty subsets of a frame.

    Weights lie in (0, 1] and sum to at most 1; a classical basic probability
    assignment is the special case where they sum to exactly 1 (``is_complete``).
    Zero weights are dropped at construction and duplicate subsets are summed.
    """

    __slots__ = ("frame", "_masses", "_q")

    def __init__(
        self,
        frame: Frame,
        entries: Union[Mapping[SubsetLike, float], Iterable[tuple[SubsetLike, float]]] = (),
    ):
        if isinstance(entries, Mapping):
            entries = entries.items()
        acc: dict[int, float] = {}
        for subset, weight in entries:
            mask = frame.coerce(subset)
            if mask == 0:
                raise EmptySetAssignment("the empty set cannot carry mass")
            w = float(weight)
            if not w >= 0.0:  # also catches NaN
                raise NegativeWeight(f"weight {weight!r} is not a number in [0, 1]")
            if w > 1.0 + EPSILON:
                raise MassOverflow(f"single weight {w!r} exceeds 1")
            if w > 0.0:
                acc[mask] = acc.get(mask, 0.0) + w
        order = _canonical(acc)
        self._fill(frame, order, map(acc.__getitem__, order))

    def _fill(self, frame: Frame, order: Iterable[int], weights: Iterable[float]) -> "DNumber":
        """The masks of canonical ``order`` with their ``weights``; a total above 1 raises."""
        self.frame = frame
        self._masses = dict(zip(order, weights))
        self._q = fsum(self._masses.values())
        if self._q > 1.0 + EPSILON:
            raise MassOverflow(f"total mass {self._q!r} exceeds 1")
        return self

    @classmethod
    def _from_masks(cls, frame: Frame, masses: Mapping[int, float]) -> "DNumber":
        """A rule's int-keyed masses, checked in bulk; masks outside (0, full_mask]
        go through the constructor, and so do weights that ``_from_cells`` rejects."""
        if masses and 0 < min(masses) and max(masses) <= frame.full_mask:
            order = _canonical(masses)
            return cls._from_cells(frame, masses, order, list(map(masses.__getitem__, order)))
        return cls(frame, masses)

    @classmethod
    def _from_cells(cls, frame: Frame, cells: Iterable[int], order: list[int], weights: list[float]) -> "DNumber":
        """A rule's ``weights`` for its masks ``cells``, all in (0, full_mask], in their
        canonical ``order``.  Weights that are not floats in (0, 1 + EPSILON] go through
        the constructor in the order of ``cells``, so it reports the first one there."""
        if set(map(type, weights)) == {float} and min(weights) > 0.0 and max(weights) <= 1.0 + EPSILON:
            # min and max step over a NaN that is not first; fsum does not.
            filled = cls.__new__(cls)._fill(frame, order, weights)
            if filled._q == filled._q:
                return filled
        weight = dict(zip(order, weights))
        return cls(frame, {a: weight[a] for a in cells})

    @classmethod
    def vacuous(cls, frame: Frame) -> "DNumber":
        """The know-nothing assignment: all mass on the whole frame."""
        return cls(frame, {frame.full_mask: 1.0})

    @property
    def masses(self) -> Mapping[int, float]:
        """Read-only view of the focal sets, in canonical subset order."""
        return MappingProxyType(self._masses)

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(self._masses.items())

    def label_items(self) -> Iterator[tuple[tuple[str, ...], float]]:
        """Focal sets as label tuples, for serialization and display."""
        for mask, w in self._masses.items():
            yield self.frame.labels_of(mask), w

    def focal_sets(self) -> tuple[int, ...]:
        return tuple(self._masses)

    def __len__(self) -> int:
        return len(self._masses)

    def weight(self, subset: SubsetLike) -> float:
        """Weight assigned to exactly this subset (0 if not focal)."""
        return self._masses.get(self.frame.coerce(subset), 0.0)

    @property
    def q_value(self) -> float:
        """Total assigned mass: the degree of information completeness."""
        return self._q

    def is_complete(self) -> bool:
        """True when the total mass equals 1 within the construction tolerance."""
        return abs(self._q - 1.0) <= EPSILON

    def belief(self, subset: SubsetLike) -> float:
        """Sum of weights of focal sets contained in ``subset``.

        For a complete assignment this is the classical belief measure, the
        lower bound of support; for an incomplete one it is the raw sum.
        """
        a = self.frame.coerce(subset)
        return fsum(w for m, w in self._masses.items() if m & a == m)

    def plausibility(self, subset: SubsetLike) -> float:
        """Sum of weights of focal sets intersecting ``subset``.

        For a complete assignment this equals 1 - belief(complement), the
        upper bound of support.
        """
        a = self.frame.coerce(subset)
        return fsum(w for m, w in self._masses.items() if m & a)

    def summary(self, subset: SubsetLike) -> BeliefSummary:
        """Belief and plausibility of one subset, flagged if the source is incomplete."""
        a = self.frame.coerce(subset)
        return BeliefSummary(
            subset=a,
            bel=self.belief(a),
            pl=self.plausibility(a),
            from_incomplete=not self.is_complete(),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DNumber)
            and self.frame == other.frame
            and self._masses == other._masses
        )

    def __repr__(self) -> str:
        body = ", ".join(
            "{%s}: %r" % (",".join(labels), w) for labels, w in self.label_items()
        )
        return f"DNumber({body})"

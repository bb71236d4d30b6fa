"""Exception types shared across the package.

Every failure raised on purpose derives from :class:`FusionError`, so callers
can catch one type at an API boundary.  Scenario-file problems additionally
carry a line (and, where known, column) into the message.
"""

from __future__ import annotations


class FusionError(Exception):
    """Base class for all errors raised by this package."""


# --- frame and mass construction ---------------------------------------------


class EmptyFrame(FusionError):
    """A frame needs at least one element label."""


class DuplicateLabel(FusionError):
    """Frame labels must be pairwise distinct."""


class FrameTooLarge(FusionError):
    """Frame exceeds the supported element count."""


class ForeignSubset(FusionError):
    """A subset refers to labels or bits outside its frame."""


class EmptySetAssignment(FusionError):
    """Mass was assigned to the empty set."""


class EmptySubset(FusionError):
    """An operation received the empty set where a non-empty subset is required."""


class NegativeWeight(FusionError):
    """Weights must be numbers in [0, 1]."""


class MassOverflow(FusionError):
    """Total assigned mass exceeds 1 (beyond the construction tolerance)."""


# --- combination --------------------------------------------------------------


class FrameMismatch(FusionError):
    """Operands are defined over different frames."""


class IncompleteInput(FusionError):
    """A rule that requires complete assignments received an incomplete one."""


class TotalConflict(FusionError):
    """The sources conflict completely; the combination is undefined.

    ``step`` is the 1-based index of the failing combination when raised from a
    multi-source strategy, else None.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class TooManyFocalPairs(FusionError):
    """Two sources have more focal pairs than one combination may visit."""


class FrameTooLargeForMatrix(FusionError):
    """Materializing the full subset-pair matrix is capped by frame size."""


class IntersectingPair(FusionError):
    """The non-exclusive degree of intersecting subsets is pinned to 1 and
    cannot be assigned."""


class InvalidAggregator(FusionError):
    """A completeness aggregator violates its admissibility constraints."""


# --- scenario files -----------------------------------------------------------


class ScenarioError(FusionError):
    """A problem in a scenario or table file, located by line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioSyntaxError(ScenarioError):
    """The file does not match the scenario grammar."""


class UnknownLabel(ScenarioError):
    """A referenced label is not declared in the frame."""


class OutOfRangeValue(ScenarioError):
    """A weight or degree falls outside [0, 1]."""


class DuplicatePair(ScenarioError):
    """The same unordered pair was assigned a degree twice."""


class ScenarioTooLarge(ScenarioError):
    """A scenario is longer than the parser accepts."""

"""Scenario files: one self-contained document per fusion problem.

A scenario bundles a frame, any number of named D numbers, and the pairwise
non-exclusivity model, in a line-oriented text format:

    # an example scenario
    frame: a, b, c

    dnumber D1:
      {a}: 0.7
      {b, c}: 0.1
      {a, b, c}: 0.1

    dnumber D2:
      {a}: 0.5
      {c}: 0.3

    nonexclusivity:
      a ~ b: 0.1
      b ~ c: 0.2
      a ~ c: 0

    overrides:
      {a} ~ {b, c}: 0.5

Blank lines and lines starting with ``#`` are ignored, indentation is
optional, and the ``frame:`` line must come first.  Labels may use any
characters except whitespace and ``{ } , : ~ #``.  Weights and degrees are
decimal numbers in [0, 1].  Subsets are always written as label lists, never
bitmasks, so files do not depend on the frame's label order; the parser stores
them sorted, which is also how :func:`format_scenario` prints them.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Mapping

from .errors import (
    DuplicatePair,
    OutOfRangeValue,
    ScenarioSyntaxError,
    ScenarioTooLarge,
    UnknownLabel,
)
from .evidence import DNumber, Frame, Record
from .fusion import NonExclusivityModel
from .report import fmt_subset

#: The longest scenario accepted (1 MiB; a ``str`` counts characters), checked before decoding.
MAX_SCENARIO_BYTES = 1 << 20

_LABEL = r"[^\s{},:~#]+"
_LABEL_RE = re.compile(_LABEL)
_FRAME_LINE = re.compile(r"^\s*frame\s*:\s*(?P<body>.*?)\s*$")
_DNUMBER_HEADER = re.compile(rf"^\s*dnumber\s+(?P<name>{_LABEL})\s*:\s*$")
_SECTION_HEADER = re.compile(r"^\s*(?P<section>nonexclusivity|overrides)\s*:\s*$")
_SUBSET_ENTRY = re.compile(r"^\s*\{(?P<labels>[^{}]*)\}\s*:\s*(?P<value>\S+)\s*$")
_PAIR_ENTRY = re.compile(
    rf"^\s*(?P<l1>{_LABEL})\s*~\s*(?P<l2>{_LABEL})\s*:\s*(?P<value>\S+)\s*$"
)
_OVERRIDE_ENTRY = re.compile(
    r"^\s*\{(?P<s1>[^{}]*)\}\s*~\s*\{(?P<s2>[^{}]*)\}\s*:\s*(?P<value>\S+)\s*$"
)
_NUMBER = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")


class WeightEntry(Record):
    subset: tuple[str, ...]
    weight: float


class NamedAssignment(Record):
    name: str
    entries: tuple[WeightEntry, ...]


class PairDegree(Record):
    elements: tuple[str, str]
    degree: float


class OverrideDegree(Record):
    subsets: tuple[tuple[str, ...], tuple[str, ...]]
    degree: float


class Scenario(Record):
    """Domain objects built from a document; ``dnumbers`` is a read-only view."""

    frame: Frame
    dnumbers: Mapping[str, DNumber]
    model: NonExclusivityModel


class ScenarioDocument(Record):
    """The parsed, validated content of a scenario file.

    Documents produced by :func:`parse_scenario` are canonical: subsets and
    pairs are sorted, so printing and re-parsing reproduces the document
    exactly.
    """

    frame: tuple[str, ...]
    dnumbers: tuple[NamedAssignment, ...] = ()
    pairs: tuple[PairDegree, ...] = ()
    overrides: tuple[OverrideDegree, ...] = ()

    def build_frame(self) -> Frame:
        return Frame(self.frame)

    def build_dnumbers(self, frame: Frame | None = None) -> dict[str, DNumber]:
        frame = frame or self.build_frame()
        return {
            named.name: DNumber(frame, [(e.subset, e.weight) for e in named.entries])
            for named in self.dnumbers
        }

    def build_model(self, frame: Frame | None = None) -> NonExclusivityModel:
        frame = frame or self.build_frame()
        return NonExclusivityModel(
            frame,
            pairs=[(p.elements, p.degree) for p in self.pairs],
            overrides=[(o.subsets, o.degree) for o in self.overrides],
        )

    def build(self) -> Scenario:
        """Realize the document as domain objects, surfacing any domain errors."""
        frame = self.build_frame()
        return Scenario(
            frame, MappingProxyType(self.build_dnumbers(frame)), self.build_model(frame)
        )


def _number(text: str, line: int, col: int) -> float:
    if not _NUMBER.match(text):
        raise ScenarioSyntaxError(f"expected a number, got {text!r}", line, col)
    return float(text)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.frame: dict[str, None] | None = None  # the labels, in order
        # Each keyed as its duplicate check needs; dicts keep declaration order.
        self.dnumbers: dict[str, list[WeightEntry]] = {}
        self.pairs: dict[tuple[str, str], float] = {}
        self.overrides: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
        self.declared: set[str] = set()  # the section headers read so far
        # The current section's entry handler; before any header, a refusal.
        self.section = lambda raw: self.fail(
            "expected a section header ('dnumber <name>:', 'nonexclusivity:' or 'overrides:')"
        )

    def run(self) -> ScenarioDocument:
        for line_no, raw in enumerate(self.lines, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.line_no = line_no
            self.raw = raw
            self.handle(raw)
        if self.frame is None:
            raise ScenarioSyntaxError("scenario has no 'frame:' line", len(self.lines) or 1, 1)
        return ScenarioDocument(
            frame=tuple(self.frame),
            dnumbers=tuple(
                NamedAssignment(name, tuple(entries)) for name, entries in self.dnumbers.items()
            ),
            pairs=tuple(PairDegree(key, d) for key, d in self.pairs.items()),
            overrides=tuple(OverrideDegree(key, d) for key, d in self.overrides.items()),
        )

    def fail(self, message: str, column: int | None = None):
        if column is None:
            column = len(self.raw) - len(self.raw.lstrip()) + 1
        raise ScenarioSyntaxError(message, self.line_no, column)

    def handle(self, raw: str):
        if self.frame is None:
            m = _FRAME_LINE.match(raw)
            if not m:
                self.fail("expected 'frame: <label>, <label>, ...' before anything else")
            self.frame = {}
            for label, col in self.split_labels(m.group("body"), m.start("body")):
                if label in self.frame:
                    self.fail(f"duplicate frame label {label!r}", col)
                self.frame[label] = None
            return
        if _FRAME_LINE.match(raw):
            self.fail("the frame is already declared")
        m = _DNUMBER_HEADER.match(raw)
        if m:
            name = m.group("name")
            if name in self.dnumbers:
                self.fail(f"dnumber {name!r} is already declared", m.start("name") + 1)
            entries = self.dnumbers[name] = []
            self.section = lambda raw: self.subset_entry(raw, entries)
            return
        m = _SECTION_HEADER.match(raw)
        if m:
            section = m.group("section")
            if section in self.declared:
                self.fail(f"the {section} section is already declared")
            self.declared.add(section)
            self.section = self.pair_entry if section == "nonexclusivity" else self.override_entry
            return
        self.section(raw)

    def split_labels(self, body: str, base: int, allow_empty: bool = False):
        """Split a comma-separated label list, reporting each label's column."""
        if body.strip() == "":
            if allow_empty:
                return []
            self.fail("expected at least one label", base + 1)
        out = []
        pos = 0
        for segment in body.split(","):
            label = segment.strip()
            col = base + pos + (len(segment) - len(segment.lstrip())) + 1
            if not label:
                self.fail("empty label", col)
            if not _LABEL_RE.fullmatch(label):
                self.fail(f"invalid label {label!r}", col)
            out.append((label, col))
            pos += len(segment) + 1
        return out

    def known(self, label: str, col: int) -> str:
        if label not in self.frame:
            raise UnknownLabel(f"label {label!r} is not in the frame", self.line_no, col)
        return label

    def known_subset(self, body: str, base: int) -> tuple[str, ...]:
        labels = self.split_labels(body, base, allow_empty=True)
        return tuple(sorted({self.known(label, col) for label, col in labels}))

    def value(self, text: str, col: int) -> float:
        v = _number(text, self.line_no, col)
        if not 0.0 <= v <= 1.0:
            raise OutOfRangeValue(f"value {text} is outside [0, 1]", self.line_no, col)
        return v

    def subset_entry(self, raw: str, entries: list[WeightEntry]):
        m = _SUBSET_ENTRY.match(raw)
        if not m:
            self.fail("expected '{<labels>}: <weight>'")
        subset = self.known_subset(m.group("labels"), m.start("labels"))
        weight = self.value(m.group("value"), m.start("value") + 1)
        entries.append(WeightEntry(subset, weight))

    def pair_entry(self, raw: str):
        m = _PAIR_ENTRY.match(raw)
        if not m:
            self.fail("expected '<label> ~ <label>: <degree>'")
        l1, l2 = (self.known(m.group(g), m.start(g) + 1) for g in ("l1", "l2"))
        if l1 == l2:
            self.fail("a pair needs two distinct elements", m.start("l2") + 1)
        degree = self.value(m.group("value"), m.start("value") + 1)
        key = (l1, l2) if l1 < l2 else (l2, l1)
        if key in self.pairs:
            raise DuplicatePair(f"pair {key[0]} ~ {key[1]} assigned twice", self.line_no)
        self.pairs[key] = degree

    def override_entry(self, raw: str):
        m = _OVERRIDE_ENTRY.match(raw)
        if not m:
            self.fail("expected '{<labels>} ~ {<labels>}: <degree>'")
        s1 = self.known_subset(m.group("s1"), m.start("s1"))
        s2 = self.known_subset(m.group("s2"), m.start("s2"))
        degree = self.value(m.group("value"), m.start("value") + 1)
        key = (s1, s2) if s1 <= s2 else (s2, s1)
        if key in self.overrides:
            raise DuplicatePair(
                f"override {{{', '.join(key[0])}}} ~ {{{', '.join(key[1])}}} assigned twice",
                self.line_no,
            )
        self.overrides[key] = degree


def _decode(data: bytes | str, what: str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioSyntaxError(f"{what} is not valid UTF-8 ({exc})") from None


def parse_scenario(data: bytes | str) -> ScenarioDocument:
    """Parse and validate a scenario document.

    Raises ScenarioTooLarge above ``MAX_SCENARIO_BYTES``, else
    ScenarioSyntaxError, UnknownLabel, OutOfRangeValue or DuplicatePair, each
    carrying the offending line (and column where known).  Domain-level
    problems (mass overflow, intersecting overrides, ...) are only raised later,
    by :meth:`ScenarioDocument.build`.
    """
    if len(data) > MAX_SCENARIO_BYTES:
        raise ScenarioTooLarge(f"scenario is longer than {MAX_SCENARIO_BYTES} bytes")
    return _Parser(_decode(data, "scenario")).run()


def parse_f_table(data: bytes | str) -> tuple[tuple[float, float, float], ...]:
    """Parse an aggregator sample table: one 'q1 q2 value' triple per line.

    Blank lines and '#' comments are ignored.  Q values must lie in [0, 1];
    judging the sampled values against the admissibility constraints is left
    to :func:`dnumbers.fusion.validate_f_points`.
    """
    points = []
    for line_no, raw in enumerate(_decode(data, "table").splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = list(re.finditer(r"\S+", raw))
        if len(tokens) != 3:
            raise ScenarioSyntaxError(
                f"expected 'q1 q2 value', got {len(tokens)} fields", line_no, 1
            )
        values = [_number(tok.group(), line_no, tok.start() + 1) for tok in tokens]
        for tok, q in zip(tokens[:2], values[:2]):
            if not 0.0 <= q <= 1.0:
                raise OutOfRangeValue(
                    f"Q value {tok.group()} is outside [0, 1]", line_no, tok.start() + 1
                )
        points.append(tuple(values))
    return tuple(points)


def _fmt_number(v: float) -> str:
    return repr(float(v))


def format_scenario(doc: ScenarioDocument) -> str:
    """Print a document in canonical form; parsing it back reproduces ``doc``, up
    to the order of the two subsets of an override, which the parser sorts.

    Raises ScenarioSyntaxError, with no line, naming the first frame label or
    D-number name that the parser would not read back as one label, then the
    first subset or element pair, in the order printed, that names a label
    outside the frame or whose labels are not sorted and distinct.
    """
    for word in dict.fromkeys([*doc.frame, *(named.name for named in doc.dnumbers)]):
        if not _LABEL_RE.fullmatch(word):
            raise ScenarioSyntaxError(f"{word!r} cannot be written as a scenario label")
    known = set(doc.frame)

    def written(labels: tuple[str, ...], what: str) -> tuple[str, ...]:
        if known.issuperset(labels) and sorted(set(labels)) == list(labels):
            return labels
        for label in labels:
            if label not in known:
                raise ScenarioSyntaxError(f"{what} names {label!r}, which is not in the frame")
        raise ScenarioSyntaxError(
            f"{what} {labels!r} would not read back as written: its labels are not sorted and distinct"
        )

    out = ["frame: " + ", ".join(doc.frame)]
    for named in doc.dnumbers:
        out.append("")
        out.append(f"dnumber {named.name}:")
        what = f"dnumber {named.name}'s subset"
        for entry in named.entries:
            out.append(f"  {fmt_subset(written(entry.subset, what))}: {_fmt_number(entry.weight)}")
    if doc.pairs:
        out.append("")
        out.append("nonexclusivity:")
        for pair in doc.pairs:
            l1, l2 = written(pair.elements, "pair")
            out.append(f"  {l1} ~ {l2}: {_fmt_number(pair.degree)}")
    if doc.overrides:
        out.append("")
        out.append("overrides:")
        for override in doc.overrides:
            s1, s2 = (written(subset, "override subset") for subset in override.subsets)
            out.append(f"  {fmt_subset(s1)} ~ {fmt_subset(s2)}: {_fmt_number(override.degree)}")
    return "\n".join(out) + "\n"

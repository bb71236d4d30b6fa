"""In-memory spans for the traced run.

A span has a name, a start, an end, a parent and an op id.  Spans are only
appended while the run lasts and written out once it ends.  A span's self
time is its duration minus the time its child spans cover; children of one
span never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from statistics import median
from time import perf_counter_ns
from typing import Iterator


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: int = 0
    end: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        index = len(self.spans)
        record = Span(name, op, self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(index)
        record.start = perf_counter_ns()
        try:
            yield
        finally:
            record.end = perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Self time of every span, by span index."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_op_ms(self, name: str) -> dict[int, float]:
        """Milliseconds of self time in spans called ``name``, summed per op."""
        out: dict[int, float] = {}
        for s, t in zip(self.spans, self.self_ns()):
            if s.name == name:
                out[s.op] = out.get(s.op, 0.0) + t / 1e6
        return out

    def median_ms(self, name: str) -> float:
        """Median over ops of the self time in ``name``; 0 when no op entered it."""
        per_op = self.per_op_ms(name)
        return median(per_op.values()) if per_op else 0.0

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start_ns": s.start,
                            "end_ns": s.end,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off: records nothing."""

    def span(self, name: str, op: int):
        return nullcontext()

from pathlib import Path

import pytest

from dnumbers import DNumber, Frame, NonExclusivityModel, classical

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def abc() -> Frame:
    return Frame(["a", "b", "c"])


@pytest.fixture
def overlap_model(abc) -> NonExclusivityModel:
    """The running three-grade example: a/b overlap 0.1, b/c 0.2, a/c exclusive."""
    return NonExclusivityModel(abc, {("a", "b"): 0.1, ("b", "c"): 0.2, ("a", "c"): 0.0})


@pytest.fixture
def partial_sources(abc) -> tuple[DNumber, DNumber]:
    """Two incomplete sources (Q = 0.9 and 0.8) used across the suite."""
    d1 = DNumber(abc, {("a",): 0.7, ("b", "c"): 0.1, ("a", "b", "c"): 0.1})
    d2 = DNumber(abc, {("a",): 0.5, ("c",): 0.3})
    return d1, d2


@pytest.fixture
def counted_squeezes(monkeypatch):
    """A function that wraps the kernel's ``_squeeze`` and returns the lengths
    of the lists squeezed from then on."""

    def count() -> list[int]:
        squeezed = []
        squeeze = classical._squeeze

        def counted(v):
            squeezed.append(len(v))
            return squeeze(v)

        monkeypatch.setattr(classical, "_squeeze", counted)
        return squeezed

    return count


@pytest.fixture
def forced_compaction(monkeypatch, counted_squeezes):
    """A function that sets the squeeze threshold to 0, so the kernel squeezes
    its lists after every outer row, and returns the lengths of the lists
    squeezed from then on.  Results computed before the call are unforced."""

    def force() -> list[int]:
        monkeypatch.setattr(classical, "_SQUEEZE_CELLS", 0)
        return counted_squeezes()

    return force

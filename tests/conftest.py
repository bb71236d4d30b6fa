from pathlib import Path

import pytest

from dnumbers import DNumber, Frame, NonExclusivityModel

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

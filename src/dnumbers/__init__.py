"""Evidence combination for D numbers.

D numbers generalize Dempster-Shafer mass assignments in two directions: frame
elements need not be mutually exclusive, and the total assigned mass may fall
short of 1.  This package provides the classical two-source rules (conjunctive,
disjunctive, Dempster, Yager, Dubois-Prade) for complete assignments, and the
DCR1/DCR2 rules that combine D numbers under a pairwise non-exclusivity model,
plus a scenario file format and CLI to drive them.  The scenario and report
names load on first use, so that a bare ``import dnumbers`` loads only the
combination core.
"""

from . import errors
from .classical import (
    ConjunctiveResult,
    conjunctive,
    dempster,
    disjunctive,
    dubois_prade,
    global_conflict,
    yager,
)
from .errors import FusionError
from .evidence import EPSILON, BeliefSummary, DNumber, Frame
from .fusion import (
    AGGREGATORS,
    AVERAGE,
    CONSTANT_ONE,
    MAXIMUM,
    MINIMUM,
    PRODUCT,
    RULES,
    CompletenessAggregator,
    DegreeMatrix,
    FusionReport,
    NonExclusivityModel,
    aggregator,
    combine_many,
    dcr1,
    dcr2,
    mean_assignment,
    residual_conflict,
    validate_f_points,
)

__version__ = "0.1.0"

#: The module behind each name that ``__getattr__`` loads on first use: the
#: scenario and report names, and those two submodules themselves.
_LAZY = {
    **dict.fromkeys(["scenario", "NamedAssignment", "OverrideDegree", "PairDegree"], "scenario"),
    **dict.fromkeys(["Scenario", "ScenarioDocument", "WeightEntry", "format_scenario"], "scenario"),
    **dict.fromkeys(["parse_f_table", "parse_scenario"], "scenario"),
    **dict.fromkeys(["report", "ReportDocument"], "report"),
}

#: Every name that the imports above bind, less the submodules that they load
#: on the way (of those, only ``errors`` is public), and every lazy name.
__all__ = ["errors"] + [
    name for name, value in globals().items() if name[0] != "_" and type(value) is not type(errors)
] + [name for name, module in _LAZY.items() if name != module]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

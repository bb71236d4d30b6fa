"""Evidence combination for D numbers.

D numbers generalize Dempster-Shafer mass assignments in two directions: frame
elements need not be mutually exclusive, and the total assigned mass may fall
short of 1.  This package provides the classical two-source rules (conjunctive,
disjunctive, Dempster, Yager, Dubois-Prade) for complete assignments, and the
DCR1/DCR2 rules that combine D numbers under a pairwise non-exclusivity model,
plus a scenario file format and CLI to drive them.
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
from .report import ReportDocument
from .scenario import (
    NamedAssignment,
    OverrideDegree,
    PairDegree,
    Scenario,
    ScenarioDocument,
    WeightEntry,
    format_scenario,
    parse_f_table,
    parse_scenario,
)

__version__ = "0.1.0"

#: Every name that the imports above bind, less the submodules that they load
#: on the way; of those, only ``errors`` is public.
__all__ = ["errors"] + [
    name for name, value in globals().items() if name[0] != "_" and type(value) is not type(errors)
]

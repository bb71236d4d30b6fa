"""The package's public names, pinned before anyone derives ``__all__``."""

import dnumbers

EXPORTS = [
    "AGGREGATORS", "AVERAGE", "BeliefSummary", "CONSTANT_ONE", "CompletenessAggregator",
    "ConjunctiveResult", "DNumber", "DegreeMatrix", "EPSILON", "Frame", "FusionError",
    "FusionReport", "MAXIMUM", "MINIMUM", "NamedAssignment", "NonExclusivityModel",
    "OverrideDegree", "PRODUCT", "PairDegree", "RULES", "ReportDocument", "Scenario",
    "ScenarioDocument", "WeightEntry", "aggregator", "combine_many", "conjunctive", "dcr1",
    "dcr2", "dempster", "disjunctive", "dubois_prade", "errors", "format_scenario",
    "global_conflict", "mean_assignment", "parse_f_table", "parse_scenario",
    "residual_conflict", "validate_f_points", "yager",
]


def test_all_lists_exactly_the_pinned_names():
    assert len(EXPORTS) == 41
    assert sorted(dnumbers.__all__) == EXPORTS


def test_every_exported_name_resolves():
    for name in EXPORTS:
        assert getattr(dnumbers, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from dnumbers import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS

"""The package's public names, pinned before anyone derives ``__all__``."""

import os
import subprocess
import sys

import dnumbers
from conftest import REPO
from dnumbers.scenario import MAX_SCENARIO_BYTES

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


class TestImportSurface:
    """What a bare ``import dnumbers`` loads, in a fresh interpreter: the
    combination core only, with the scenario and report names loaded on first
    use. The interpreter's own start-up may load standard modules already, so
    only what the package adds is counted."""

    SCRIPT = """
import sys
before = set(sys.modules)
import dnumbers
print(" ".join(sorted(set(sys.modules) - before)))
print(" ".join(sorted(dir(dnumbers))))
parse = dnumbers.parse_scenario
print("dnumbers.scenario" in sys.modules, parse is dnumbers.scenario.parse_scenario)
print(dnumbers.scenario.MAX_SCENARIO_BYTES)
"""

    def test_bare_import_loads_only_the_combination_core(self):
        src = str(REPO / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        added, listed, loaded, cap = proc.stdout.splitlines()
        added = set(added.split())
        core = {"dnumbers", "dnumbers.errors", "dnumbers.evidence", "dnumbers.classical", "dnumbers.fusion"}
        assert {name for name in added if name.startswith("dnumbers")} == core
        assert not {"dnumbers.scenario", "dnumbers.report", "re"} & added
        assert sorted(set(listed.split()) & set(EXPORTS)) == EXPORTS
        assert loaded == "True True"
        assert int(cap) == MAX_SCENARIO_BYTES

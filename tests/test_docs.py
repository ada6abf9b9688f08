"""The README documents the scenario keys that exist, and only those, the
constants that stand for removed options, and every column and metric of
the output files; every ``vital.`` path it names can be imported."""

import dataclasses
import importlib
import os
import re

import vital.robot
import vital.tbr
import vital.terrain
import vital.vpa
from vital.sim import (
    COMPARISON_COLUMNS,
    CRITERIA,
    FOOTHOLD_COLUMNS,
    PLANNER_COLUMNS,
    RBF_COLUMNS,
    STEPLOG_COLUMNS,
    RunMetrics,
    Scenario,
)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# Keys that became module constants; a scenario file that sets one is
# rejected as setting an unknown key.
DELETED_KEYS = (
    "margin",
    "smooth_weight",
    "map_cells",
    "map_resolution",
    "zh_min",
    "zh_max",
    "zh_count",
    "rbf_count",
    "tau_track",
    "d_ref",
    "start_x0",
    "start_y0",
    "start_yaw",
    "delta_h",
    "q",
    "terrain_gap_width",
    "terrain_gap_depth",
    "terrain_plateau",
    "step_frequency",
    "duty_factor",
    "vy",
    "u_z_min",
    "u_z_max",
)

# Library options that became module constants, by the module that holds
# each one.
FIXED_CONSTANTS = {
    "GAP_WIDTH": vital.terrain,
    "GAP_DEPTH": vital.terrain,
    "PLATEAU": vital.terrain,
    "MAP_RESOLUTION": vital.terrain,
    "STEP_FREQUENCY": vital.robot,
    "RBF_COUNT": vital.vpa,
    "D_REF": vital.tbr,
}


def readme_section(title: str) -> str:
    with open(README) as fh:
        text = fh.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_every_scenario_key():
    named = set(re.findall(r"`(\w+)`", readme_section("Scenario keys")))
    missing = [f.name for f in dataclasses.fields(Scenario) if f.name not in named]
    assert not missing


def test_readme_names_no_deleted_key():
    named = set(re.findall(r"`(\w+)`", readme_section("Scenario keys")))
    assert named.isdisjoint(DELETED_KEYS)
    assert {f.name for f in dataclasses.fields(Scenario)}.isdisjoint(DELETED_KEYS)


def test_readme_names_every_fixed_constant():
    named = set(re.findall(r"`(\w+)`", readme_section("Scenario keys")))
    assert [name for name, module in FIXED_CONSTANTS.items() if not hasattr(module, name)] == []
    assert [name for name in FIXED_CONSTANTS if name not in named] == []


def test_readme_names_every_output_column_and_metric():
    # A backticked span may list several comma-separated names, and may wrap.
    spans = re.findall(r"`([^`]*)`", readme_section("Output files"))
    named = {name for span in spans for name in re.split(r"[\s,]+", span) if name}
    # The metric fields; the three logs are the fields with a default.
    metrics = [f.name for f in dataclasses.fields(RunMetrics) if f.default_factory is dataclasses.MISSING]
    expected = (
        *STEPLOG_COLUMNS,
        *PLANNER_COLUMNS,
        *FOOTHOLD_COLUMNS,
        *RBF_COLUMNS,
        *COMPARISON_COLUMNS,
        *CRITERIA,
        *metrics,
    )
    assert [name for name in expected if name not in named] == []


def test_readme_names_only_importable_paths():
    """Each backticked ``vital.<module>`` or ``vital.<module>.<name>``
    resolves; the package itself exports no names."""
    with open(README) as fh:
        paths = set(re.findall(r"`(vital(?:\.\w+)+)`", fh.read()))

    def resolves(path: str) -> bool:
        try:
            importlib.import_module(path)
            return True
        except ImportError:
            module, _, name = path.rpartition(".")
            return module != "vital" and hasattr(importlib.import_module(module), name)

    assert paths
    assert sorted(path for path in paths if not resolves(path)) == []

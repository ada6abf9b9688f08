"""The README documents the scenario keys that exist, and only those, and
every column and metric of the output files."""

import dataclasses
import os
import re

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
)


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

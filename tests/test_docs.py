"""The README documents the scenario keys that exist, and only those."""

import dataclasses
import os
import re

from vital.sim import Scenario

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
)


def scenario_keys_section() -> str:
    with open(README) as fh:
        text = fh.read()
    return text.split("\n## Scenario keys\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_every_scenario_key():
    named = set(re.findall(r"`(\w+)`", scenario_keys_section()))
    missing = [f.name for f in dataclasses.fields(Scenario) if f.name not in named]
    assert not missing


def test_readme_names_no_deleted_key():
    named = set(re.findall(r"`(\w+)`", scenario_keys_section()))
    assert named.isdisjoint(DELETED_KEYS)
    assert {f.name for f in dataclasses.fields(Scenario)}.isdisjoint(DELETED_KEYS)

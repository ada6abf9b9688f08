"""The paper's claims about VPA, as tier-1 tests.

Each claim runs a variant of the benchmark's ``stairs_vpa`` scenario at
seed 1.  Today every one fails, so each is a strict xfail whose reason
names the ROADMAP item expected to flip it: the change that makes a claim
hold must also remove its mark.  A run keeps its length and its seed; a
claim is flipped by the planner, never by a shorter or a luckier run.
"""

import numpy as np
import pytest

from vital.sim import Scenario, run_scenario

# The benchmark's stairs_vpa workload at seed 1.
STAIRS_VPA = dict(
    terrain_kind="stairs",
    terrain_steps=10,
    terrain_rise=0.10,
    terrain_going=0.25,
    terrain_start_x=0.4,
    planner="vpa",
    cost="int",
    horizon=2,
    duration=8.0,
    seed=1,
)


def events(**overrides):
    """The (collision, workspace) event counts of the stairs_vpa variant."""
    m = run_scenario(Scenario(**{**STAIRS_VPA, **overrides}))
    return m.collision_events, m.workspace_events


def weakest_leg_median(**overrides):
    """The median over the ticks of the smallest of the four legs' NSF."""
    m = run_scenario(Scenario(**{**STAIRS_VPA, **overrides}))
    return float(np.median([min(row.nsf) for row in m.rows]))


# Today tbr has 57 workspace events, and vpa 73 collisions and 181
# workspace events: each leg's ground is the centre cell, at the bottom of
# a gap.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ground estimate over gaps (ROADMAP item 2)")
def test_both_planners_climb_gapped_stairs():
    runs = {planner: events(terrain_kind="gapped_stairs", planner=planner, duration=3.0) for planner in ("tbr", "vpa")}
    assert runs == {"tbr": (0, 0), "vpa": (0, 0)}


# Today vpa has 86 workspace events; the exact-count prototype succeeds.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="plan on exact counts (ROADMAP item 16)")
def test_vpa_climbs_tall_stairs_with_hyqreal():
    assert events(terrain_rise=0.14, robot="hyqreal-like") == (0, 0)


# Today vpa has 43 workspace events and 3 of 24 no_safe_cell decisions.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="physical rate limit and stance reach (ROADMAP items 6 and 13)")
def test_vpa_climbs_tall_stairs_with_hyq():
    assert events(terrain_rise=0.14, duration=4.0) == (0, 0)


# Today the medians are 300.8 for vpa and 545.8 for tbr; the exact-count
# prototype gives vpa 524.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="exact counts and a per-leg cost (ROADMAP items 16 and 7)")
def test_vpa_weakest_leg_at_least_tbrs():
    assert weakest_leg_median() >= weakest_leg_median(planner="tbr")

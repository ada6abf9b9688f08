"""The benchmark's scenarios: one `vital` scenario per workload, with the
reason it is in the set.

Every workload uses the scenario defaults unless stated (`hyq-like`,
`vx=0.2`, 33x33 heightmaps, 31 hip heights).  The benchmark seed becomes
`Scenario.seed` (gait phase and start jitter) and, for rough terrain, also
`terrain_seed`, so one seed fixes every input of a run.

`duration` is simulated seconds per child run.  It is short enough that
three or more runs fit one 40-s measurement window on a 2-core machine, and
long enough that three runs pool over 100 planner ticks for a p90.
"""

from __future__ import annotations

from dataclasses import dataclass

# A seed kept out of every tuning run; check claims on it as well.
HELD_OUT_SEED = 9973


@dataclass(frozen=True)
class Workload:
    why: str
    scenario: dict
    duration: float = 10.0
    seed_terrain: bool = False
    # None: call `run_scenario` directly.  A tuple: run through
    # `vital run <scenario file> <flags> --out <fresh dir>`.
    cli_flags: tuple | None = None


WORKLOADS = {
    "stairs_vpa": Workload(
        why=(
            "paper headline: trot up stairs with the receding-horizon pose "
            "optimizer; 8 FEC builds and 31-height sweeps plus L-BFGS-B per planner tick"
        ),
        scenario=dict(
            terrain_kind="stairs",
            terrain_steps=10,
            terrain_rise=0.10,
            terrain_going=0.25,
            terrain_start_x=0.4,
            planner="vpa",
            cost="int",
            horizon=2,
        ),
        duration=8.0,
    ),
    "rough_tbr": Workload(
        why=(
            "no pose optimizer (TBR plane fit); FEC builds dominate and rough-terrain "
            "sampling gives the largest simulator-loop share; yaw rotates every map"
        ),
        scenario=dict(
            terrain_kind="rough",
            terrain_amplitude=0.15,
            terrain_cell=0.2,
            yaw_rate=0.1,
            planner="tbr",
        ),
        seed_terrain=True,
    ),
    "composite_diag": Workload(
        why=(
            "crawl over up-plateau-down terrain through the CLI with criteria and RBF "
            "dumps; single-step optimizer, prod cost and output writing"
        ),
        scenario=dict(
            terrain_kind="composite",
            terrain_start_x=0.4,
            gait="crawl",
            planner="vpa",
            horizon=1,
            cost="prod",
        ),
        cli_flags=("--dump-criteria", "--dump-rbf"),
    ),
}


def scenario_values(name: str, seed: int, setup_only: bool = False) -> dict:
    """Scenario keys and values of workload `name` under `seed`.

    With `setup_only` the run stops after tick 0, so it covers only the
    set-up: imports, scenario parse, terrain and robot build, the first VFA
    and the first planner update.
    """
    workload = WORKLOADS[name]
    values = dict(workload.scenario, seed=seed, duration=workload.duration)
    if workload.seed_terrain:
        values["terrain_seed"] = seed
    if setup_only:
        values["duration"] = 1.0 / values.get("tick_rate", 100.0)
    return values

"""One run of one benchmark workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N [--traced] [--setup-only] --out-root DIR

Imports `vital` from the checkout's `src/`, runs the workload's scenario
once and prints one JSON object as its last line of output: tick timings,
the steplog digest and aggregates, quality figures, output-check errors
and, for a traced run, the per-layer figures.

`run_scenario` calls `vital.sim.track_pose` exactly once per control tick,
right after the planner update, so a clock read in a wrapper around that
call marks each tick boundary.  The time between two boundaries is one
tick; tick 0 ends the set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_vital():
    """Import `vital` from this checkout, never from elsewhere."""
    sys.path.insert(0, SRC)
    import vital
    import vital.cli
    import vital.sim

    if os.path.dirname(os.path.abspath(vital.__file__)) != os.path.join(SRC, "vital"):
        raise ImportError(f"vital imported from {vital.__file__}, not from {SRC}")
    return vital


def classify_ticks(stamps: list, rows: list, planner_every: int) -> dict:
    """Tick durations in ms by kind, tick 0 excluded.

    Tick k is a planner tick when k % planner_every == 0, a lift-off tick
    when it made a foothold decision and is no planner tick, and a plain
    control tick otherwise.
    """
    kinds = {"planner": [], "liftoff": [], "control": []}
    for k in range(1, len(stamps)):
        ms = 1e3 * (stamps[k] - stamps[k - 1])
        if k % planner_every == 0:
            kinds["planner"].append(ms)
        elif any(rows[k].decisions):
            kinds["liftoff"].append(ms)
        else:
            kinds["control"].append(ms)
    return kinds


def check_run(metrics, scenario) -> list:
    """Invariants any correct run satisfies; returns what is violated."""
    errors = []
    n_ticks = int(round(scenario.duration * scenario.tick_rate))
    planner_every = max(1, int(round(scenario.tick_rate / scenario.planner_rate)))
    if len(metrics.rows) != n_ticks:
        errors.append(f"{len(metrics.rows)} step rows for {n_ticks} ticks")
    n_planner = -(-n_ticks // planner_every)
    if len(metrics.planner_rows) != n_planner:
        errors.append(f"{len(metrics.planner_rows)} planner rows, expected {n_planner}")
    for key, value in metrics.aggregates().items():
        if not math.isfinite(value):
            errors.append(f"aggregate {key} is {value!r}")
    for row in metrics.planner_rows:
        if abs(row["u_roll"]) > scenario.u_roll_max + 1e-12 or abs(row["u_pitch"]) > scenario.u_pitch_max + 1e-12:
            errors.append(f"planner pose outside the roll/pitch box at t={row['time']!r}")
            break
    for row in metrics.foothold_rows:
        if row["fallback"] not in ("selected", "no_safe_cell") or (row["fallback"] == "selected") != (row["n_sf"] > 0):
            errors.append(f"foothold row inconsistent at t={row['time']!r}: {row['fallback']} with {row['n_sf']} safe cells")
            break
    return errors


def check_dumps(out_dir: str, metrics, scenario) -> list:
    """The CLI dumps: 5 criteria grids per VFA decision and one RBF row per
    planner tick, leg and horizon step."""
    errors = []
    names = os.listdir(out_dir)
    grids = sum(1 for n in names if n.startswith("fec_") and n.endswith(".csv"))
    if grids != 5 * len(metrics.foothold_rows):
        errors.append(f"{grids} criteria grids for {len(metrics.foothold_rows)} decisions")
    with open(os.path.join(out_dir, "rbf.csv")) as fh:
        rbf_rows = sum(1 for _ in fh) - 1
    expected = len(metrics.planner_rows) * 4 * scenario.horizon
    if rbf_rows != expected:
        errors.append(f"rbf.csv has {rbf_rows} rows, expected {expected}")
    return errors


def run(workload_name: str, seed: int, traced: bool, setup_only: bool, out_root: str) -> dict:
    from workloads import WORKLOADS, scenario_values

    vital = import_vital()
    import numpy
    import scipy
    from tracer import Patches, Tracer, account, install_layers, layer_metrics

    workload = WORKLOADS[workload_name]
    values = scenario_values(workload_name, seed, setup_only=setup_only)
    scenario = vital.sim.Scenario(**values)
    planner_every = max(1, int(round(scenario.tick_rate / scenario.planner_rate)))
    stamps: list = []
    captured: list = []
    tracer = Tracer()
    work_dir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=out_root)
    try:
        with Patches() as patches:
            if traced:
                install_layers(patches, tracer)

            def tick_clock(track_pose):
                def stamped(*args, **kwargs):
                    stamps.append(time.monotonic())
                    return track_pose(*args, **kwargs)

                return stamped

            patches.replace(vital.sim, "track_pose", tick_clock)
            if workload.cli_flags is None:
                start = time.monotonic()
                metrics = vital.sim.run_scenario(scenario)
                wall = time.monotonic() - start
                errors = []
            else:

                def capture(run_scenario):
                    def keep(*args, **kwargs):
                        captured.append(run_scenario(*args, **kwargs))
                        return captured[-1]

                    return keep

                patches.replace(vital.cli, "run_scenario", capture)
                scenario_path = os.path.join(work_dir, "scenario.cfg")
                with open(scenario_path, "w") as fh:
                    fh.writelines(f"{key}={value}\n" for key, value in values.items())
                out_dir = os.path.join(work_dir, "out")
                argv = ["run", scenario_path, *workload.cli_flags, "--out", out_dir]
                start = time.monotonic()
                exit_code = vital.cli.main(argv)
                wall = time.monotonic() - start
                metrics = captured[0]
                errors = check_dumps(out_dir, metrics, scenario)
                with open(os.path.join(out_dir, "steplog.csv"), "rb") as fh:
                    if fh.read() != vital.sim.steplog_csv(metrics).encode():
                        errors.append("steplog.csv differs from the returned run")
                if exit_code != (0 if metrics.success else 2):
                    errors.append(f"CLI exit code {exit_code} for success={metrics.success}")
        restored = patches.intact()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    errors += check_run(metrics, scenario)
    if len(stamps) != len(metrics.rows):
        errors.append(f"{len(stamps)} tick boundaries for {len(metrics.rows)} ticks")
    if not restored:
        errors.append("replaced functions not restored after the run")
    decisions = len(metrics.foothold_rows)
    unsafe = sum(1 for row in metrics.foothold_rows if row["fallback"] == "no_safe_cell")
    result = {
        "errors": errors,
        "sim_s": len(metrics.rows) / scenario.tick_rate,
        "wall_s": wall,
        "setup_end": stamps[0] if stamps else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ticks": classify_ticks(stamps, metrics.rows, planner_every),
        "steplog_sha256": hashlib.sha256(vital.sim.steplog_csv(metrics).encode()).hexdigest(),
        "aggregates": {key: repr(value) for key, value in metrics.aggregates().items()},
        "quality": {
            "collision_events": metrics.collision_events,
            "workspace_events": metrics.workspace_events,
            "unsafe_step_frac": unsafe / decisions if decisions else 0.0,
            "mean_total_nsf": metrics.mean_total_nsf,
            "mean_envelope_error": metrics.mean_envelope_error,
            "decisions": decisions,
            "no_safe_cell": unsafe,
        },
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if traced:
        result["layers"] = layer_metrics(tracer)
        result["accounting"] = account(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-root", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.traced, args.setup_only, args.out_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

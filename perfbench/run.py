"""Scenario benchmark for `vital`.

    python3 perfbench/run.py --workload stairs_vpa --seed 1 --seconds 40 --trace 0

Runs one workload (see `workloads.py` and `README.md`) from the root of a
checkout.  Each scenario run is a fresh child process with BLAS/OpenMP
threads pinned to 1, one run at a time (a closed loop with one client).
The first child only sets up and is not timed, so later children find the
bytecode cache and the shared libraries warm.  Further children run the
full scenario while the `--seconds` window lasts, and at least three do.

With `--trace 0` the children are untraced, set-up-only runs fill the end
of the window where no full run fits and add set-up samples, and the last
line of output holds the end-to-end metrics.  With `--trace 1` untraced and traced
children alternate; the traced ones wrap every `vital` layer (see
`tracer.py`) and the last line holds the per-layer metrics.  Every full
run must give the same steplog digest and aggregates, so a run that
differs, raises or exits non-zero counts as failed.

Exits non-zero, without a result line, when the checkout has no `src/vital`
or no run could be measured.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from tracer import COUNTERS, SPAN_FIGURES, accounts_for_run, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 60
# No child starts unless it can end within this many seconds of the start.
HARD_LIMIT_S = 160
MIN_FULL_RUNS = 3
MAX_ATTEMPTS = 40
CHILD_ENV = dict(os.environ, **{var: "1" for var in THREAD_VARS})

# (name, unit, better)
END_TO_END = (
    ("sim_rate", "sim_s/s", "higher"),
    ("planner_tick_ms.p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("mean_total_nsf", "count", "higher"),
)

# Per-layer figures the parent adds to those of `tracer.layer_metrics`.  The
# median tick latencies come from the untraced children of a traced run.
# They, and the envelope error across seeds, spread by more than any
# end-to-end bound allows (see README.md), so they are reported without one.
PER_LAYER_FROM_RUN = {
    "planner_tick_ms.p50": "ms",
    "liftoff_tick_ms.p50": "ms",
    "control_tick_ms.p50": "ms",
    "sim.mean_envelope_error": "count",
    "sim.collision_events": "count",
    "sim.workspace_events": "count",
    "vfa.unsafe_step_frac": "ratio",
    "trace_overhead_frac": "ratio",
}
TICK_KINDS = ("planner", "liftoff", "control")
_FIGURE_UNITS = {"calls": "count", "busy_s": "s", "p50_ms": "ms", "p90_ms": "ms"}
PER_LAYER = (
    tuple((f"{name}.{figure}", _FIGURE_UNITS[figure], "lower") for name, figures in SPAN_FIGURES.items() for figure in figures)
    + tuple((name, "count", "lower") for name in COUNTERS)
    + (("sim.self_s", "s", "lower"),)
    + tuple((name, unit, "lower") for name, unit in PER_LAYER_FROM_RUN.items())
)


def environment(versions: dict) -> dict:
    """Machine, library and source versions recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "threads": {var: CHILD_ENV[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, traced: bool = False, setup_only: bool = False) -> dict:
    """Run one child and return its result, with `setup_s` (spawn to the
    end of tick 0), `process_s` and `failure` (None when it ran cleanly)."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--out-root", OUT_ROOT]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
    run = {"traced": traced, "setup_only": setup_only, "failure": None}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(run, failure=f"timed out after {CHILD_TIMEOUT_S} s", process_s=time.monotonic() - start)
    run["process_s"] = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        run.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        pass
    if proc.returncode != 0 or "errors" not in run:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return dict(run, failure=f"exit code {proc.returncode}: {tail}")
    run["failure"] = "; ".join(run["errors"]) or None
    if run["setup_end"] is not None:
        run["setup_s"] = run["setup_end"] - start
    return run


def sim_rate(runs: list) -> float:
    """Simulated seconds per wall second over all the runs."""
    return sum(r["sim_s"] for r in runs) / sum(r["wall_s"] for r in runs)


def mark_mismatches(runs: list) -> None:
    """Every full run must match the most common steplog digest and
    aggregates, and traced runs the most common per-layer counts."""
    full = [r for r in runs if not r["failure"] and not r["setup_only"]]
    outputs = collections.Counter((r["steplog_sha256"], json.dumps(r["aggregates"], sort_keys=True)) for r in full)
    if outputs:
        reference = outputs.most_common(1)[0][0]
        for r in full:
            if (r["steplog_sha256"], json.dumps(r["aggregates"], sort_keys=True)) != reference:
                r["failure"] = "steplog or aggregates differ from the other runs"
    traced = [r for r in full if r["traced"] and not r["failure"]]
    counts = collections.Counter(json.dumps(_counts(r), sort_keys=True) for r in traced)
    if counts:
        reference = counts.most_common(1)[0][0]
        for r in traced:
            if json.dumps(_counts(r), sort_keys=True) != reference:
                r["failure"] = "per-layer counts differ from the other traced runs"


def _counts(run: dict) -> dict:
    return {k: v for k, v in run["layers"].items() if not k.endswith(("_s", "_ms"))}


def check_accounting(run: dict) -> None:
    if not accounts_for_run(run["accounting"]):
        run["failure"] = f"spans do not account for the run: {run['accounting']}"


def tick_latencies(runs: list) -> dict:
    """Tick latency percentiles over the ticks of all the runs."""
    pooled = {kind: [ms for r in runs for ms in r["ticks"][kind]] for kind in TICK_KINDS}
    out = {f"{kind}_tick_ms.p50": percentile(pooled[kind], 50) for kind in TICK_KINDS}
    out["planner_tick_ms.p90"] = percentile(pooled["planner"], 90)
    return out


def end_to_end(runs: list, setups: list) -> dict:
    """End-to-end metrics of the full untraced `runs`, with set-up time
    the median of `setups`."""
    quality = runs[0]["quality"]
    return {
        "sim_rate": sim_rate(runs),
        "planner_tick_ms.p90": tick_latencies(runs)["planner_tick_ms.p90"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "mean_total_nsf": quality["mean_total_nsf"],
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {}
    for key, value in traced[0]["layers"].items():
        timed = key.endswith(("_s", "_ms"))
        out[key] = statistics.median(r["layers"][key] for r in traced) if timed else value
    latencies = tick_latencies(plain)
    for kind in TICK_KINDS:
        out[f"{kind}_tick_ms.p50"] = latencies[f"{kind}_tick_ms.p50"]
    quality = traced[0]["quality"]
    out["sim.mean_envelope_error"] = quality["mean_envelope_error"]
    out["sim.collision_events"] = quality["collision_events"]
    out["sim.workspace_events"] = quality["workspace_events"]
    out["vfa.unsafe_step_frac"] = quality["unsafe_step_frac"]
    out["trace_overhead_frac"] = sim_rate(plain) / sim_rate(traced) - 1.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """All child runs of one benchmark run, in the order they ran."""
    begin = time.monotonic()
    runs = [spawn(workload, seed, setup_only=True)]
    longest = {True: runs[0]["process_s"], False: 0.0}  # longest child so far, by `setup_only`
    while len(runs) <= MAX_ATTEMPTS:
        done = [r for r in runs if not r["setup_only"] and not r["failure"]]
        n_traced = sum(r["traced"] for r in done)
        if trace:
            enough = n_traced >= 1 and len(done) - n_traced >= 1
            traced_next = n_traced < len(done) - n_traced
        else:
            enough = len(done) >= MIN_FULL_RUNS
            traced_next = False
        elapsed = time.monotonic() - begin
        if elapsed + longest[False] > HARD_LIMIT_S:
            break
        full_fits = not enough or elapsed + longest[False] <= seconds
        # Untraced, set-up-only runs fill the end of the window where no
        # full run fits, each adding a set-up sample.
        setup_next = not trace and not full_fits
        if not full_fits and not (setup_next and elapsed + longest[True] <= seconds):
            break
        run = spawn(workload, seed, traced=traced_next, setup_only=setup_next)
        longest[setup_next] = max(longest[setup_next], run["process_s"])
        runs.append(run)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Scenario benchmark for vital.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vital", "__init__.py")):
        print(f"perfbench: no vital package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(OUT_ROOT, exist_ok=True)
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
    mark_mismatches(runs)
    for r in runs:
        if r["traced"] and not r["failure"]:
            check_accounting(r)
    plain = [r for r in runs if not r["failure"] and not r["setup_only"] and not r["traced"]]
    traced = [r for r in runs if not r["failure"] and r["traced"]]
    failed = sum(1 for r in runs if r["failure"])
    if not plain or (args.trace and not traced):
        for r in runs:
            if r["failure"]:
                print(f"perfbench: run failed: {r['failure']}", file=sys.stderr)
        print("perfbench: no run could be measured", file=sys.stderr)
        return 1

    print(f"perfbench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(environment(plain[0]["versions"])))
    print(
        f"runs: {len(runs)} attempted, {failed} failed; {len(plain)} untraced and {len(traced)} traced full runs; "
        f"steplog sha256 {plain[0]['steplog_sha256']}"
    )
    for r in runs:
        kind = "setup-only" if r["setup_only"] else "traced" if r["traced"] else "untraced"
        if r["failure"]:
            print(f"  {kind} run failed: {r['failure']}")
        elif r["setup_only"]:
            print(f"  {kind} run: {r['process_s']:.3f} s in the process, set-up {r['setup_s']:.3f} s")
        else:
            print(
                f"  {kind} run: {r['process_s']:.3f} s in the process, set-up {r['setup_s']:.3f} s, "
                f"sim rate {r['sim_s'] / r['wall_s']:.4f}"
            )
    if args.trace:
        metrics, specs = per_layer(plain, traced), PER_LAYER
        acc = traced[0]["accounting"]
        gap = acc["self_s"] + acc["children_s"] - acc["busy_s"]
        print(
            f"accounting: sim.run_scenario.busy_s {acc['busy_s']:.6f} = sim.self_s {acc['self_s']:.6f} "
            f"+ children {acc['children_s']:.6f} (gap {gap:.3g} s)"
        )
        for name, secs in sorted(acc["by_child"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<30} {secs:9.4f} s  {100 * secs / acc['busy_s']:5.1f}%")
    else:
        # Every untraced child but the warm-up one gives a set-up sample.
        setups = [r["setup_s"] for r in runs[1:] if not r["failure"] and not r["traced"]]
        metrics, specs = end_to_end(plain, setups), END_TO_END
        print(f"set-up samples: {len(setups)}")
        ticks = {kind: sum(len(r["ticks"][kind]) for r in plain) for kind in TICK_KINDS}
        print(f"tick samples pooled over {len(plain)} runs: {ticks}")
        print("tick latencies (no bound): " + ", ".join(f"{k} {v:.4g} ms" for k, v in tick_latencies(plain).items()))
        quality = plain[0]["quality"]
        print(
            "quality: mean_envelope_error {mean_envelope_error}, collision_events {collision_events}, "
            "workspace_events {workspace_events}, unsafe_step_frac {unsafe_step_frac} "
            "({no_safe_cell} of {decisions} decisions)".format(**quality)
        )
    for name, unit, better in specs:
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit:<8} ({better} is better)")
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

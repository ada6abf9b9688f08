"""Identity check: do the benchmark workloads write the same files at a git
revision and in the working tree?

    python3 tools/identity.py REV

Extracts REV with `git archive REV | tar -x` into a temporary directory,
then runs the three workloads of `perfbench/workloads.py` at seeds 1 and
9973, full length, once against REV's `src/` and once against the working
tree's.  `stairs_vpa` and `rough_tbr` go through `run_scenario(...,
out_dir)`; `composite_diag` goes through `vital run --dump-criteria
--dump-rbf`.  Each side runs in its own process with `PYTHONPATH` set to its
`src/` and BLAS/OpenMP pinned to one thread.  The temporary directory is
removed afterwards.

Prints every output file whose SHA-256 differs, that REV wrote and the
working tree did not (missing), or the other way round (extra), and each
run's `mean_total_nsf` on both sides.  Exits 0 when every file is the same
and 1 otherwise.  A refactor that claims to keep the bits quotes this
command's output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 9973)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI_FLAGS = ("--dump-criteria", "--dump-rbf")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, scenario_values  # noqa: E402


def run_side(src: str, out_root: str) -> None:
    """Run every workload and seed with the `vital` found in `src`, each
    into its own directory `out_root/<workload>_<seed>/out`."""
    sys.path.insert(0, src)
    import vital.cli
    import vital.sim

    if not os.path.abspath(vital.__file__).startswith(os.path.join(os.path.abspath(src), "")):
        raise ImportError(f"vital imported from {vital.__file__}, not from {src}")
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            values = scenario_values(name, seed)
            run_dir = os.path.join(out_root, f"{name}_{seed}")
            out_dir = os.path.join(run_dir, "out")
            os.makedirs(run_dir)
            if workload.cli_flags is None:
                vital.sim.run_scenario(vital.sim.Scenario(**values), out_dir)
                continue
            scenario_path = os.path.join(run_dir, "scenario.cfg")
            with open(scenario_path, "w") as fh:
                fh.writelines(f"{key}={value}\n" for key, value in values.items())
            if vital.cli.main(["run", scenario_path, *CLI_FLAGS, "--out", out_dir]) not in (0, 2):
                raise RuntimeError(f"vital run failed for {name} at seed {seed}")


def digests(out_root: str) -> dict:
    """SHA-256 of every output file, by path relative to `out_root`."""
    found = {}
    for run in sorted(os.listdir(out_root)):
        out_dir = os.path.join(out_root, run, "out")
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                found[f"{run}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return found


def mean_total_nsf(out_root: str, run: str) -> str:
    path = os.path.join(out_root, run, "out", "metrics.csv")
    if not os.path.exists(path):
        return "-"
    with open(path) as fh:
        return dict(line.rstrip("\n").split(",", 1) for line in fh)["mean_total_nsf"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--side", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        run_side(*args.side)
        return 0

    tmp = tempfile.mkdtemp(prefix="vital-identity-")
    try:
        rev_root = os.path.join(tmp, "rev")
        os.makedirs(rev_root)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", rev_root], input=archive, check=True)
        sides = {args.rev: os.path.join(rev_root, "src"), "working tree": os.path.join(ROOT, "src")}
        outs = {side: os.path.join(tmp, f"out_{i}") for i, side in enumerate(sides)}
        env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        children = []
        for side, src in sides.items():
            side_env = dict(env, PYTHONPATH=src)
            command = [sys.executable, os.path.abspath(__file__), args.rev, "--side", src, outs[side]]
            children.append(subprocess.Popen(command, env=side_env, stdout=subprocess.DEVNULL))
        if any([child.wait() != 0 for child in children]):
            print("a side failed to run", file=sys.stderr)
            return 1

        before, after = (digests(outs[side]) for side in sides)
        differ = sorted(path for path in before.keys() & after.keys() if before[path] != after[path])
        missing = sorted(before.keys() - after.keys())
        extra = sorted(after.keys() - before.keys())
        for label, paths in (("differs", differ), ("missing", missing), ("extra", extra)):
            for path in paths:
                print(f"{label}: {path}")
        print(f"{len(differ)} of {len(before.keys() & after.keys())} files differ, {len(missing)} missing, {len(extra)} extra")
        print(f"mean_total_nsf: run, {args.rev}, working tree")
        for run in sorted(os.listdir(outs[args.rev])):
            print(f"  {run}: {mean_total_nsf(outs[args.rev], run)}, {mean_total_nsf(outs['working tree'], run)}")
        return 1 if differ or missing or extra else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

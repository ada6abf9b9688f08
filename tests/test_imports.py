"""`vital` needs scipy only for the pose optimizer's L-BFGS-B.  A tbr or none
run never loads scipy, and a vpa scenario loads the optimizer while it is
set up, before its run starts.  Each check runs in a fresh interpreter, so
modules that other tests imported do not count."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_tbr_and_none_runs_load_no_scipy(tmp_path):
    last = run_fresh(
        """
        import sys
        import vital, vital.cli

        for planner in ("tbr", "none"):
            with open(planner + ".cfg", "w") as fh:
                fh.write(f"terrain_kind=flat\\nplanner={planner}\\nduration=0.05\\n")
            assert vital.cli.main(["run", planner + ".cfg", "--out", planner + "_out"]) == 0
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """,
        tmp_path,
    )
    assert last == "[]"


def test_vpa_scenario_loads_the_optimizer_at_set_up(tmp_path):
    last = run_fresh(
        """
        import sys
        import vital.sim

        before = "scipy.optimize" in sys.modules
        vital.sim.Scenario(terrain_kind="flat", planner="vpa", duration=0.05)
        print(before, "scipy.optimize" in sys.modules)
        """,
        tmp_path,
    )
    assert last == "False True"

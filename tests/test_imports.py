"""`vital` runs on numpy alone: no run, under any planner, needs scipy.  The
check runs in a fresh interpreter, so modules that other tests imported do
not count."""

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

        sys.modules["scipy"] = None  # every import of scipy now fails
        import vital.cli

        for planner in ("tbr", "none"):
            with open(planner + ".cfg", "w") as fh:
                fh.write(f"terrain_kind=flat\\nplanner={planner}\\nduration=0.05\\n")
            assert vital.cli.main(["run", planner + ".cfg", "--out", planner + "_out"]) == 0, planner
        print(sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None))
        """,
        tmp_path,
    )
    assert last == "[]"


def test_vpa_scenario_loads_the_optimizer_at_set_up(tmp_path):
    """The optimizer is `vital.vpa`, loaded once a vpa scenario is set up; the
    run then exits 0 with scipy blocked and loads no scipy module."""
    last = run_fresh(
        """
        import sys

        sys.modules["scipy"] = None  # every import of scipy now fails
        import vital.cli, vital.sim

        vital.sim.Scenario(terrain_kind="flat", planner="vpa", duration=0.05)
        loaded = "vital.vpa" in sys.modules
        with open("vpa.cfg", "w") as fh:
            fh.write("terrain_kind=flat\\nplanner=vpa\\nduration=0.05\\n")
        assert vital.cli.main(["run", "vpa.cfg", "--out", "vpa_out"]) == 0
        scipy = sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None)
        print(loaded, scipy)
        """,
        tmp_path,
    )
    assert last == "True []"

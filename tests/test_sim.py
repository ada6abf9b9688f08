import math
import os

import numpy as np
import pytest

import vital.sim as sim
from vital.cli import main as cli_main
from vital.fec import FecEvaluator
from vital.sim import (
    PLANNERS,
    ConfigError,
    Scenario,
    compare_scenarios,
    comparison_csv,
    run_scenario,
    steplog_csv,
    track_pose,
)
from vital.terrain import TERRAIN_KINDS


def short_flat(**overrides):
    base = dict(terrain_kind="flat", planner="none", duration=2.0, vx=0.2, seed=3)
    base.update(overrides)
    return Scenario(**base)


class TestTracking:
    def test_converges_within_two_percent_after_four_taus(self):
        dt, tau = 0.01, 0.15
        actual = np.array([0.0, 0.0, 0.0])
        ref = np.array([1.0, -0.5, 0.25])
        steps = int(round(4 * tau / dt))
        for _ in range(steps):
            actual = track_pose(actual, ref, dt, tau)
        err = np.abs(actual - ref) / np.abs(ref)
        assert np.all(err < 0.02)

    def test_zero_tau_snaps(self):
        out = track_pose(np.array([0.0]), np.array([2.0]), 0.01, 0.0)
        assert out[0] == 2.0


class TestScenarioConfig:
    def test_from_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "terrain_kind=stairs\nterrain_rise=0.1\nvx=0.3\nplanner=tbr\n"
            "# a comment\nduration=5\nseed=7\n"
        )
        sc = Scenario.from_file(str(cfg))
        assert sc.terrain_kind == "stairs"
        assert sc.vx == 0.3
        assert sc.planner == "tbr"
        assert sc.duration == 5.0
        assert sc.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("granularity=3\n")
        with pytest.raises(ConfigError, match="unknown scenario key"):
            Scenario.from_file(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("vx=fast\n")
        with pytest.raises(ConfigError, match="bad value"):
            Scenario.from_file(str(cfg))

    def test_bad_planner_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(planner="magic")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            Scenario.from_file("/nonexistent/path.cfg")


class TestRunScenario:
    def test_flat_walk_advances_base(self):
        m = run_scenario(short_flat(duration=10.0, seed=0))
        assert m.success
        assert m.collision_events == 0 and m.workspace_events == 0
        # commanded 0.2 m/s for 10 s from a jittered start within +-0.05 m
        assert m.final_x == pytest.approx(2.0, abs=0.08)

    def test_deterministic_steplog(self):
        a = run_scenario(short_flat())
        b = run_scenario(short_flat())
        assert steplog_csv(a) == steplog_csv(b)

    def test_seeds_differ(self):
        a = run_scenario(short_flat(seed=1))
        b = run_scenario(short_flat(seed=2))
        assert steplog_csv(a) != steplog_csv(b)

    def test_stance_feet_world_fixed(self, monkeypatch):
        # each swing starts exactly where the previous one touched down
        captured = []
        orig = sim.swing_trajectory

        def spy(p_lo, p_td, apex):
            traj = orig(p_lo, p_td, apex)
            captured.append((np.array(p_lo), np.array(p_td)))
            return traj

        monkeypatch.setattr(sim, "swing_trajectory", spy)
        run_scenario(short_flat(duration=4.0, planner="none"))
        # every lift-off after the first per leg must start exactly at the
        # previous touchdown of that leg (feet do not drift in stance)
        history = []
        linked = 0
        for p_lo, p_td in captured:
            if any(np.allclose(p_lo, td, atol=1e-12) for td in history):
                linked += 1
            history.append(p_td)
        assert linked >= len(captured) - 4
        assert linked >= 4

    def test_crawl_gait_runs(self):
        m = run_scenario(short_flat(gait="crawl", duration=3.0, vx=0.1))
        assert m.success

    def test_vpa_planner_rows_written(self):
        m = run_scenario(short_flat(planner="vpa", duration=1.0))
        assert len(m.planner_rows) == 5
        row = m.planner_rows[0]
        assert row["cost"] == "int" and row["horizon"] == 2
        assert math.isfinite(row["objective"])

    def test_tbr_rows_written(self):
        m = run_scenario(short_flat(planner="tbr", duration=1.0))
        assert len(m.planner_rows) == 5
        assert m.planner_rows[0]["cost"] == "tbr"

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(short_flat(duration=1.0, planner="vpa"), out_dir=str(out), dump_rbf=True)
        labels = {"leg", "cost", "fallback", "metric", "dec_lf", "dec_rf", "dec_lh", "dec_rh"}
        for name in ("steplog.csv", "metrics.csv", "planner.csv", "footholds.csv", "rbf.csv"):
            header, *lines = (out / name).read_text().splitlines()
            columns = header.split(",")
            assert lines, name
            for line in lines:
                cells = line.split(",")
                assert len(cells) == len(columns), name
                for column, cell in zip(columns, cells):
                    if column not in labels:
                        for value in cell.split(";"):  # rbf.csv weights
                            float(value)
        header = (out / "steplog.csv").read_text().splitlines()[0]
        assert header.startswith("time,x,y,yaw,cmd_z")

    def test_dump_criteria_writes_grids(self, tmp_path, monkeypatch):
        # The dump writes the grids each decision was made on; it builds no
        # evaluator of its own.
        builds = []
        init = FecEvaluator.__init__

        def spy(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FecEvaluator, "__init__", spy)
        counts = []
        for dump in (False, True):
            builds.clear()
            out = tmp_path / f"dump_{dump}"
            m = run_scenario(short_flat(duration=1.5, planner="none"), out_dir=str(out), dump_criteria=dump)
            counts.append(len(builds))
        names = os.listdir(out)
        assert sum(n.startswith("fec_") for n in names) == 5 * len(m.foothold_rows) > 0
        assert any(n.startswith("fec_") and n.endswith("_mu.csv") for n in names)
        assert counts[0] == counts[1] > 0


# The stepped terrains start under the robot, so the two planner ticks see
# their edges.  gapped_stairs then has the front hips over a gap: the centre
# cell of a heightmap lies at the bottom of the gap, and hip heights swept
# relative to it leave the (0, 2] m bound.
@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize(
    "terrain",
    [
        pytest.param(kind, marks=pytest.mark.xfail(strict=True, raises=ValueError, reason="ROADMAP item 2"))
        if kind == "gapped_stairs"
        else kind
        for kind in TERRAIN_KINDS
    ],
)
def test_every_terrain_and_planner_completes(terrain, planner):
    m = run_scenario(Scenario(terrain_kind=terrain, terrain_start_x=-0.08, planner=planner, duration=0.4, seed=1))
    assert len(m.rows) == 40 and len(m.planner_rows) == 2
    assert all(math.isfinite(v) for v in m.aggregates().values())


class TestCompare:
    def test_mismatched_factor_rejected(self):
        a = short_flat(vx=0.2)
        b = short_flat(vx=0.3, seed=99)
        with pytest.raises(ConfigError, match="differ outside"):
            compare_scenarios(a, b, "vx")

    def test_paired_metrics_table(self):
        a = short_flat(duration=1.0)
        b = short_flat(duration=1.0, vx=0.3)
        table = compare_scenarios(a, b, "vx")
        names = [row[0] for row in table]
        assert "mean_total_nsf" in names and "success" in names
        text = comparison_csv(table)
        assert text.splitlines()[0] == "metric,a,b,delta"


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("terrain_kind=flat\nplanner=none\nduration=1\nvx=0.2\n")
        rc = cli_main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "metrics.csv").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        assert cli_main(["run", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "values",
        [
            "cost=max",
            "cost=int\nmargin=0",
            "robot=spot",
            "terrain_kind=lava",
            "zh_count=1",
            "map_cells=32",
            "map_cells=0",
            "map_cells=-1",
            "map_resolution=0",
            "rbf_count=1",
            "duration=nan",
            "duration=inf",
            "tick_rate=nan",
            "planner_rate=inf",
            "vx=nan",
        ],
    )
    def test_bad_scenario_value_is_config_error(self, tmp_path, capsys, values):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("duration=1\n" + values + "\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_compare_cli(self, tmp_path, capsys):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("terrain_kind=flat\nplanner=none\nduration=1\n")
        b.write_text("terrain_kind=flat\nplanner=tbr\nduration=1\n")
        rc = cli_main(["compare", str(a), str(b), "--pair", "planner", "--out", str(tmp_path / "c")])
        assert rc == 0
        assert (tmp_path / "c" / "comparison.csv").exists()

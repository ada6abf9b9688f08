"""Self-tests of the benchmark: tracing must not change a run, must undo
itself and must account for the run; metric names must be valid and match
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from child import import_vital  # noqa: E402
from tracer import ACCOUNTING_TOLERANCE_S, Patches, Tracer, account, accounts_for_run, install_layers, layer_metrics  # noqa: E402
from workloads import WORKLOADS, scenario_values  # noqa: E402

vital = import_vital()
import vital.fec  # noqa: E402
import vital.robot  # noqa: E402
import vital.vpa  # noqa: E402

PATCHED_OWNERS = (vital.cli, vital.sim, vital.robot, vital.vpa, vital.fec.FecEvaluator, vital.vpa.SafeFootholdFunction)


def short_scenario(name: str, duration: float = 1.0):
    values = dict(scenario_values(name, seed=3), duration=duration)
    return vital.sim.Scenario(**values)


def traced_run(scenario):
    tracer = Tracer()
    with Patches() as patches:
        install_layers(patches, tracer)
        metrics = vital.sim.run_scenario(scenario)
    return metrics, tracer, patches


@pytest.fixture(scope="module")
def stairs_traced():
    scenario = short_scenario("stairs_vpa")
    plain = vital.sim.run_scenario(scenario)
    metrics, tracer, patches = traced_run(scenario)
    return plain, metrics, tracer, patches


def test_wrappers_restore_every_function():
    before = [dict(vars(owner)) for owner in PATCHED_OWNERS]
    _, _, patches = traced_run(short_scenario("rough_tbr", duration=0.5))
    assert patches.intact()
    for owner, snapshot in zip(PATCHED_OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys()
        assert all(after[key] is snapshot[key] for key in snapshot), owner


def test_traced_run_gives_the_same_steplog(stairs_traced):
    plain, metrics, _, _ = stairs_traced
    assert vital.sim.steplog_csv(metrics) == vital.sim.steplog_csv(plain)
    assert metrics.aggregates() == plain.aggregates()


def test_self_time_and_top_level_spans_add_up(stairs_traced):
    _, _, tracer, _ = stairs_traced
    acc = account(tracer.spans)
    assert acc["consistent"]
    assert acc["self_s"] > 0 and acc["children_s"] > 0
    assert acc["self_s"] + acc["children_s"] == pytest.approx(acc["busy_s"], rel=0, abs=ACCOUNTING_TOLERANCE_S)
    assert accounts_for_run(acc)
    assert sum(acc["by_child"].values()) == pytest.approx(acc["children_s"], rel=1e-12)
    layers = layer_metrics(tracer)
    assert layers["sim.self_s"] == acc["self_s"]
    assert layers["sim.run_scenario.busy_s"] == acc["busy_s"]


def test_accounting_check_catches_lost_or_overlapping_time():
    root, child = "sim.run_scenario", "fec.evaluate"
    whole = [[root, 0.0, 10.0, -1, 6.0], [child, 1.0, 3.0, 0, 2.0], [child, 5.0, 7.0, 0, 2.0]]
    assert accounts_for_run(account(whole))
    lost = [whole[0][:4] + [5.0]] + whole[1:]
    assert not accounts_for_run(account(lost))
    overlapping = [whole[0], whole[1], [child, 2.0, 4.0, 0, 2.0]]
    assert not account(overlapping)["consistent"]
    assert not accounts_for_run(account(overlapping))


def test_layer_counts_follow_the_scenario(stairs_traced):
    plain, _, tracer, _ = stairs_traced
    layers = layer_metrics(tracer)
    planner_ticks = len(plain.planner_rows)
    # 4 legs x horizon 2 evaluators per planner tick, each swept over 31 heights
    assert layers["fec.sweep_counts.calls"] == planner_ticks * 8
    assert layers["fec.sweep_counts.heights"] == planner_ticks * 8 * 31
    assert layers["vpa.optimize_pose_receding.calls"] == planner_ticks
    assert layers["vfa.foothold_evaluation.calls"] == len(plain.foothold_rows)
    assert layers["fec.FecEvaluator.calls"] == planner_ticks * 8 + len(plain.foothold_rows)
    assert layers["vpa.lbfgs.nfev"] >= layers["vpa.lbfgs.nit"] > 0
    assert layers["fec.dump_eval_fec.calls"] == 0 and layers["tbr.tbr_pose.calls"] == 0


def test_metric_names_are_valid_and_unique(stairs_traced):
    names = [name for name, _, _ in bench.END_TO_END + bench.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    _, _, tracer, _ = stairs_traced
    produced = set(layer_metrics(tracer)) | set(bench.PER_LAYER_FROM_RUN)
    assert produced == {name for name, _, _ in bench.PER_LAYER}


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_child_runs_the_cli_workload_and_checks_its_dumps(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", "composite_diag", "--seed", "1",
         "--traced", "--setup-only", "--out-root", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    assert result["layers"]["cli.main.busy_s"] >= result["layers"]["sim.run_scenario.busy_s"] > 0
    assert result["accounting"]["consistent"]
    assert os.listdir(tmp_path) == []

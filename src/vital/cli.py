"""Command line interface: run scenarios and compare paired runs."""

from __future__ import annotations

import argparse
import sys

from .sim import ConfigError, Scenario, compare_scenarios, comparison_csv, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vital", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write its logs")
    run.add_argument("scenario", help="scenario config file (key=value lines)")
    run.add_argument("--out", default="vital_out", help="output directory")
    run.add_argument("--dump-criteria", action="store_true", help="dump per-criterion grids at each foothold decision")
    run.add_argument("--dump-rbf", action="store_true", help="dump fitted basis-function weights per planner tick")

    cmp_ = sub.add_parser("compare", help="run two scenarios and tabulate paired metrics")
    cmp_.add_argument("scenario_a")
    cmp_.add_argument("scenario_b")
    cmp_.add_argument("--pair", required=True, help="comma-separated scenario keys the two files may differ in")
    cmp_.add_argument("--out", default="vital_out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = Scenario.from_file(args.scenario)
            metrics = run_scenario(
                scenario,
                out_dir=args.out,
                dump_criteria=args.dump_criteria,
                dump_rbf=args.dump_rbf,
            )
            for key, val in metrics.aggregates().items():
                print(f"{key}: {val}")
            return 0 if metrics.success else 2
        # compare
        a = Scenario.from_file(args.scenario_a)
        b = Scenario.from_file(args.scenario_b)
        table = compare_scenarios(a, b, args.pair, out_dir=args.out)
        print(comparison_csv(table), end="")
        ok = all(row[1] == 1 and row[2] == 1 for row in table if row[0] == "success")
        return 0 if ok else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

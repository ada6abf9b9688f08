"""Span tracing of `vital`'s layers from outside the package.

Nothing under `src/` knows about the benchmark.  A traced run replaces the
public functions of each `vital` module, at the place where the simulator
looks them up, with wrappers that record one span per call: name, start,
end and the span that was open when the call began.  Spans stay in memory
until the run ends.  Hot functions are only counted, because a span on
each of their calls would cost more than the work they do.

Every replacement is undone when the run ends, so the package is left as it
was imported.
"""

from __future__ import annotations

import collections
import statistics
import time

ROOT_SPAN = "sim.run_scenario"
# Largest gap allowed between a root span's time and its self time plus its
# children's time.
ACCOUNTING_TOLERANCE_S = 1e-6


class Patches:
    """Replaces attributes of modules and classes and puts the originals
    back, newest first."""

    def __init__(self):
        self._replaced = []

    def replace(self, owner, name: str, make):
        """Set `owner.name` to `make(original)`."""
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._replaced.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._replaced):
            setattr(owner, name, original)

    def intact(self) -> bool:
        """True when every attribute ever replaced holds the value it had
        before its first replacement."""
        first = {}
        for owner, name, original in self._replaced:
            first.setdefault((id(owner), name), (owner, name, original))
        return all(vars(owner)[name] is original for owner, name, original in first.values())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """Spans and counters of one run, all in one thread.

    Each span also keeps its own self time, summed while the run goes: the
    clock read that opens or closes a span ends a stretch of time, and that
    stretch goes to the span that was innermost during it.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, self seconds]
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []
        self._mark = [0.0]  # clock read that ended the last stretch

    def span(self, name: str, on_result=None):
        """Wrapper factory: record a span around each call; `on_result`
        sees the arguments and result to update counters."""
        spans, open_, mark, clock = self.spans, self._open, self._mark, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                now = clock()
                if open_:
                    spans[open_[-1]][4] += now - mark[0]
                record = [name, now, 0.0, open_[-1] if open_ else -1, 0.0]
                open_.append(len(spans))
                spans.append(record)
                mark[0] = now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    record[2] = now
                    record[4] += now - mark[0]
                    mark[0] = now
                    open_.pop()
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

            return traced

        return make

    def counter(self, name: str, amount=None):
        """Wrapper factory: count calls, or add `amount(args)` per call."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1 if amount is None else amount(args)
                return fn(*args, **kwargs)

            return counted

        return make


def install_layers(patches: Patches, tracer: Tracer) -> None:
    """Wrap the public functions of every `vital` layer where they are
    looked up during a run."""
    import vital.cli
    import vital.fec
    import vital.robot
    import vital.sim
    import vital.vpa

    sim, vpa, counts = vital.sim, vital.vpa, tracer.counts
    span, counter = tracer.span, tracer.counter

    def sweep_heights(args, kwargs, result):
        counts["fec.sweep_counts.heights"] += len(result)

    def lbfgs_stats(args, kwargs, result):
        counts["vpa.lbfgs.nit"] += int(result.nit)
        counts["vpa.lbfgs.nfev"] += int(result.nfev)

    def clamped(args, kwargs, result):
        counts["vpa.rate_box_clamped"] += int(bool(result.rate_box_clamped))

    patches.replace(vital.cli, "main", span("cli.main"))
    patches.replace(vital.cli, "run_scenario", span(ROOT_SPAN))
    patches.replace(sim, "run_scenario", span(ROOT_SPAN))
    patches.replace(sim, "write_outputs", span("sim.write_outputs"))
    patches.replace(sim, "extract_heightmap", span("terrain.extract_heightmap"))
    patches.replace(sim, "sample_height", span("terrain.sample_height"))
    patches.replace(vital.robot, "sample_height", span("terrain.sample_height"))
    patches.replace(sim, "nominal_foothold", span("robot.nominal_foothold"))
    patches.replace(vital.fec.FecEvaluator, "__init__", span("fec.FecEvaluator"))
    patches.replace(vital.fec.FecEvaluator, "sweep_counts", span("fec.sweep_counts", sweep_heights))
    patches.replace(vital.fec.FecEvaluator, "evaluate", span("fec.evaluate"))
    # The simulator calls eval_fec only to write --dump-criteria grids.
    patches.replace(sim, "eval_fec", span("fec.dump_eval_fec"))
    patches.replace(sim, "foothold_evaluation", span("vfa.foothold_evaluation"))
    patches.replace(sim, "fit_rbf", span("vpa.fit_rbf"))
    patches.replace(sim, "optimize_pose_receding", span("vpa.optimize_pose_receding", clamped))
    patches.replace(vpa, "optimize_pose_single", span("vpa.optimize_pose_single"))
    patches.replace(vpa, "minimize", span("vpa.lbfgs", lbfgs_stats))
    patches.replace(vpa, "objective_batch", counter("vpa.objective_batch.rows", _batch_rows))
    patches.replace(vpa.SafeFootholdFunction, "value_and_slope", counter("vpa.value_and_slope.calls"))
    patches.replace(sim, "tbr_pose", span("tbr.tbr_pose"))


def _batch_rows(args) -> int:
    import numpy as np

    return np.atleast_2d(args[1]).shape[0]


# Per-layer figures taken from spans, by span name.
SPAN_FIGURES = {
    "terrain.extract_heightmap": ("calls", "busy_s"),
    "terrain.sample_height": ("calls", "busy_s"),
    "robot.nominal_foothold": ("calls", "busy_s"),
    "fec.FecEvaluator": ("calls", "busy_s", "p50_ms"),
    "fec.sweep_counts": ("calls", "busy_s", "p50_ms"),
    "fec.evaluate": ("calls", "busy_s"),
    "fec.dump_eval_fec": ("calls", "busy_s"),
    "vfa.foothold_evaluation": ("calls", "busy_s", "p50_ms"),
    "vpa.fit_rbf": ("calls", "busy_s"),
    "vpa.optimize_pose_receding": ("calls", "busy_s", "p50_ms", "p90_ms"),
    "vpa.optimize_pose_single": ("calls", "busy_s"),
    "vpa.lbfgs": ("calls", "busy_s"),
    "tbr.tbr_pose": ("calls", "busy_s"),
    "sim.write_outputs": ("busy_s",),
    ROOT_SPAN: ("busy_s",),
    "cli.main": ("busy_s",),
}

# Per-layer figures kept by counters and result hooks.
COUNTERS = (
    "fec.sweep_counts.heights",
    "vpa.objective_batch.rows",
    "vpa.lbfgs.nit",
    "vpa.lbfgs.nfev",
    "vpa.value_and_slope.calls",
    "vpa.rate_box_clamped",
)


def percentile(values: list, q: int) -> float:
    """q-th percentile, inclusive method; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def account(spans: list) -> dict:
    """The one root span's time, its self time and the time of its direct
    child spans.

    Self time was summed while the run went (see `Tracer`).  The check on
    it is that self time plus the children's summed time comes back to the
    root's time, which holds only when the children lie inside the root, do
    not overlap and no stretch of the root went missing or was counted
    twice.  `consistent` says the children lie inside the root and do not
    overlap.
    """
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT_SPAN]
    if len(roots) != 1:
        return {"consistent": False, "busy_s": 0.0, "self_s": 0.0, "children_s": 0.0, "by_child": {}}
    root = roots[0]
    _, start, end, _, self_s = spans[root]
    children = sorted((s[1], s[2], s[0]) for s in spans if s[3] == root)
    consistent = all(start <= a <= b <= end for a, b, _ in children) and all(
        children[i][1] <= children[i + 1][0] for i in range(len(children) - 1)
    )
    by_child: dict = collections.defaultdict(float)
    for a, b, name in children:
        by_child[name] += b - a
    return {
        "consistent": consistent,
        "busy_s": end - start,
        "self_s": self_s,
        "children_s": sum(b - a for a, b, _ in children),
        "by_child": dict(by_child),
    }


def accounts_for_run(acc: dict) -> bool:
    """True when the children lie inside the root without overlap and self
    time plus the children's time equals the root's time, to within the
    rounding of summing many clock differences."""
    gap = acc["self_s"] + acc["children_s"] - acc["busy_s"]
    return acc["consistent"] and acc["busy_s"] > 0 and abs(gap) <= ACCOUNTING_TOLERANCE_S


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer figure of one traced run, by metric name."""
    durations = collections.defaultdict(list)
    for name, start, end, _, _ in tracer.spans:
        durations[name].append(end - start)
    out = {}
    for name, figures in SPAN_FIGURES.items():
        d = durations[name]
        for figure in figures:
            if figure == "calls":
                out[f"{name}.calls"] = len(d)
            elif figure == "busy_s":
                out[f"{name}.busy_s"] = sum(d, 0.0)
            else:  # "p50_ms", "p90_ms"
                out[f"{name}.{figure}"] = 1e3 * percentile(d, int(figure[1:3]))
    for name in COUNTERS:
        out[name] = tracer.counts[name]
    out["sim.self_s"] = account(tracer.spans)["self_s"]
    return out

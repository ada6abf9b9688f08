"""Quasi-kinematic gait simulator and experiment driver.

:func:`run_scenario` is a plain tick loop over small functions.  Each tick
it schedules the trot/crawl gait, picks a touchdown target at every
lift-off (:func:`foothold_decision`), moves the swing feet along their
arcs, runs the planner update at the planner rate (:func:`planner_update`),
tracks the pose reference through a first-order lag, runs the collision and
workspace detectors (:func:`detect_events`) and logs one step row;
:func:`aggregate` turns the logs into the run metrics.  The loop writes no
file: when the run dumps them, the planner rows keep the fitted RBF
weights and the foothold rows the criteria grids, and :func:`write_outputs`
writes the logs and the dumps from them once the run ends.  No contact
dynamics: stance feet are world-fixed and the base height equals the
tracked pose.  The legs are (4, 3) arrays of world points in LF, RF, LH, RH
order: the touchdown targets, the lift-off points and the feet.  A stance
foot is its leg's last target, so the targets are also the legs' ground
contacts.

:class:`RunSetup` is the one place a scenario becomes run inputs; a
:class:`Scenario` validates itself by building one.  A scenario sets what
the experiments vary: terrain, robot, gait, forward speed, yaw rate,
planner, cost, horizon, the roll and pitch bounds of the pose box, the rate
box, duration and rates.  What none of them varies is defined once: here
the gaits (:data:`GAITS`), the swept hip heights, which also bound the pose
box's base height, the horizon spacing and the pose tracking lag; elsewhere
the heightmap and terrain constants of :mod:`vital.terrain`, the step
frequency ``vital.robot.STEP_FREQUENCY``, the start height
``vital.tbr.D_REF`` and the cost and RBF constants of :mod:`vital.vpa`.
Pose evaluation sweeps the hip-height array relative to the ground under
the centre cell of each leg's heightmap
(:func:`vital.vpa.pose_evaluation`).  The planner fits one RBF model of
count vs hip height above that per-leg ground, and uses the ground for the
model's input, the held NSF and the shift of the pose box.
"""

from __future__ import annotations

import dataclasses
import glob
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# eval_fec is not called here; it stays importable as vital.sim.eval_fec
# because perfbench/tracer.py wraps that name.
from .fec import FC_CLEARANCE, LC_CLEARANCE, eval_fec  # noqa: F401
from .robot import (
    GaitParams,
    LEG_NAMES,
    STEP_FREQUENCY,
    hip_height_from,
    nominal_foothold,
    robot_preset,
    rotation_matrix,
    swing_points,
)
from .tbr import D_REF, tbr_pose
from .terrain import MAP_CELLS, MAP_RESOLUTION, Heightmap, TerrainMap, extract_heightmap, sample_height
from .vfa import FootholdDecision, foothold_evaluation
from .vpa import (
    COST_KINDS,
    MARGIN,
    PoseOptProblem,
    fit_rbf,
    optimize_pose_receding,
    pose_evaluation,
)

PLANNERS = ("vpa", "tbr", "none")

# Per gait: the leg phase offsets within the gait cycle, in LF, RF, LH, RH
# order, and the duty factor.
GAITS = {
    "trot": ((0.0, 0.5, 0.5, 0.0), 0.5),
    "crawl": ((0.25, 0.75, 0.0, 0.5), 0.8),  # lift order LH, LF, RH, RF
}

# Horizon steps are half a heightmap extent apart.
DELTA_H = MAP_CELLS * MAP_RESOLUTION / 2.0
# Pose evaluation sweeps ZH_COUNT hip heights from ZH_MIN to ZH_MAX m above
# each leg's ground.
ZH_MIN, ZH_MAX, ZH_COUNT = 0.2, 0.8, 31
TAU_TRACK = 0.15  # s, lag of the pose tracking
SCALE_MAX = 10.0  # m or m/s, the bound on |vx|, |terrain_start_x|, step_height, terrain_rise and terrain_amplitude
ANGLE_MAX = math.pi  # rad or rad/s, the bound on u_roll_max, u_pitch_max, du_roll, du_pitch and |yaw_rate|
# Fractions along the foot-to-hip segment at which detect_events samples the
# terrain: the foot, then 8 shin points.
_SHIN_FRACTIONS = np.linspace(0.0, 1.0, 9)


class ConfigError(Exception):
    """Raised for malformed scenario files or invalid scenario values."""


@dataclass
class Scenario:
    """Flat scenario description; every field is a config-file key."""

    # terrain
    terrain_kind: str = "flat"
    terrain_rise: float = 0.10
    terrain_going: float = 0.25
    terrain_steps: int = 5
    terrain_start_x: float = 1.0
    terrain_cell: float = 0.30
    terrain_amplitude: float = 0.06
    terrain_seed: int = 7
    # robot and gait
    robot: str = "hyq-like"
    gait: str = "trot"
    step_height: float = -1.0  # -1: use the robot default
    # commanded twist
    vx: float = 0.2
    yaw_rate: float = 0.0
    # planner
    planner: str = "vpa"
    cost: str = "int"
    horizon: int = 2
    du_z: float = 0.02
    du_roll: float = 0.02
    du_pitch: float = 0.02
    u_roll_max: float = 0.35
    u_pitch_max: float = 0.35
    # harness
    duration: float = 30.0
    planner_rate: float = 5.0
    tick_rate: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.gait not in GAITS:
            raise ConfigError(f"unknown gait {self.gait!r}")
        if self.planner not in PLANNERS:
            raise ConfigError(f"unknown planner {self.planner!r}")
        if self.cost not in COST_KINDS:
            raise ConfigError(f"unknown cost kind {self.cost!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("duration", "planner_rate", "tick_rate"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        if not math.isfinite(self.duration * self.tick_rate):
            raise ConfigError("duration * tick_rate must be finite")
        if not math.isfinite(self.tick_rate / self.planner_rate):
            raise ConfigError("tick_rate / planner_rate must be finite")
        if round(self.duration * self.tick_rate) < 1:
            raise ConfigError("duration must be at least one tick")
        if min(self.du_z, self.du_roll, self.du_pitch) < 0:
            raise ConfigError("du_z, du_roll and du_pitch must be >= 0")
        if min(self.u_roll_max, self.u_pitch_max) < 0:
            raise ConfigError("u_roll_max and u_pitch_max must be >= 0")
        if max(self.u_roll_max, self.u_pitch_max, self.du_roll, self.du_pitch, abs(self.yaw_rate)) > ANGLE_MAX:
            raise ConfigError(f"u_roll_max, u_pitch_max, du_roll, du_pitch and |yaw_rate| must be <= {ANGLE_MAX} (pi)")
        if not (self.step_height > 0 or self.step_height == -1.0):
            raise ConfigError("step_height must be > 0, or -1 for the robot's default")
        sizes = abs(self.vx), abs(self.terrain_start_x), self.step_height, self.terrain_rise, self.terrain_amplitude
        if max(sizes) > SCALE_MAX:
            raise ConfigError(
                f"|vx|, |terrain_start_x|, step_height, terrain_rise and terrain_amplitude must be <= {SCALE_MAX}"
            )
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        try:
            RunSetup(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, values: dict) -> "Scenario":
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in known:
                raise ConfigError(f"unknown scenario key {key!r}")
            default = known[key].default
            try:
                if isinstance(default, int):
                    kwargs[key] = int(raw)
                elif isinstance(default, float):
                    kwargs[key] = float(raw)
                else:
                    kwargs[key] = str(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        values, first = {}, {}
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key=value")
                    key, val = (part.strip() for part in line.split("=", 1))
                    if key in first:
                        raise ConfigError(f"{path}:{lineno}: key {key!r} given again, first at line {first[key]}")
                    first[key], values[key] = lineno, val
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read scenario file: {exc}") from exc
        return cls.from_dict(values)


@dataclass
class StepRow:
    time: float
    x: float
    y: float
    yaw: float
    cmd_z: float
    cmd_roll: float
    cmd_pitch: float
    act_z: float
    act_roll: float
    act_pitch: float
    nsf: tuple
    decisions: tuple
    collisions: int
    workspace_violations: int


@dataclass
class RunMetrics:
    success: bool
    collision_events: int
    workspace_events: int
    mean_total_nsf: float
    mean_abs_dz_dx: float
    mean_abs_dpitch_dx: float
    tracking_mae_z: float
    tracking_mae_pitch: float
    mean_envelope_error: float
    final_x: float
    rows: list = field(default_factory=list)
    planner_rows: list = field(default_factory=list)
    foothold_rows: list = field(default_factory=list)

    def aggregates(self) -> dict:
        """The metric fields in order, the logs left out, ``success`` as 0/1."""
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {key: int(v) if key == "success" else v for key, v in values.items() if not isinstance(v, list)}


def track_pose(actual: np.ndarray, reference: np.ndarray, dt: float) -> np.ndarray:
    """First-order lag of time constant ``TAU_TRACK`` toward the reference
    (exact discretization)."""
    return reference + (actual - reference) * math.exp(-dt / TAU_TRACK)


class RunSetup:
    """The run inputs derived from a scenario: terrain, robot model, gait,
    swept hip heights, pose box and rate box.  This is the only place a
    scenario is turned into them; building one also validates them."""

    def __init__(self, scenario: Scenario):
        sc = scenario
        self.scenario = sc
        self.terrain = TerrainMap(
            kind=sc.terrain_kind,
            rise=sc.terrain_rise,
            going=sc.terrain_going,
            n_steps=sc.terrain_steps,
            start_x=sc.terrain_start_x,
            cell=sc.terrain_cell,
            amplitude=sc.terrain_amplitude,
            seed=sc.terrain_seed,
        )
        self.model = robot_preset(sc.robot)
        if sc.step_height > 0:
            self.model = dataclasses.replace(self.model, step_height=sc.step_height)
        # t_remaining is set per use.
        self.gait = GaitParams(duty_factor=GAITS[sc.gait][1])
        self.heights = np.linspace(ZH_MIN, ZH_MAX, ZH_COUNT)
        self.u_min = np.array([ZH_MIN, -sc.u_roll_max, -sc.u_pitch_max])
        self.u_max = np.array([ZH_MAX, sc.u_roll_max, sc.u_pitch_max])
        self.du = np.array([sc.du_z, sc.du_roll, sc.du_pitch])

    def velocity(self, yaw: float) -> np.ndarray:
        """The commanded world (vx, vy): ``vx`` along the heading ``yaw``."""
        return np.array([math.cos(yaw), math.sin(yaw)]) * self.scenario.vx

    def heightmap(self, center, yaw: float) -> Heightmap:
        return extract_heightmap(self.terrain, (center[0], center[1]), yaw)

    def hips_world(self, base: np.ndarray, pose: np.ndarray, yaw: float) -> np.ndarray:
        rot = rotation_matrix(pose[1], pose[2], yaw)
        origin = np.array([base[0], base[1], pose[0]])
        return origin[None, :] + (rot @ self.model.hip_offsets.T).T


def foothold_decision(
    setup: RunSetup, leg: int, t: float, hip: np.ndarray, foot: np.ndarray, yaw: float, t_remaining: float
) -> tuple[FootholdDecision, dict]:
    """VFA at one lift-off: the decision and its ``footholds.csv`` row; the
    row also carries the decision's criteria ``grid``."""
    velocity = setup.velocity(yaw)
    gait = dataclasses.replace(setup.gait, t_remaining=t_remaining)
    nominal = nominal_foothold(hip, velocity, gait, setup.terrain)
    hm = setup.heightmap(nominal, yaw)
    decision = foothold_evaluation(hm, hip, velocity, gait, setup.model, current_foot=foot)
    row = dict(
        time=float(t),
        leg=LEG_NAMES[leg],
        nominal_x=float(nominal[0]),
        nominal_y=float(nominal[1]),
        nominal_z=float(nominal[2]),
        optimal_x=float(decision.optimal[0]),
        optimal_y=float(decision.optimal[1]),
        optimal_z=float(decision.optimal[2]),
        n_sf=decision.safe_count,
        fallback=decision.fallback,
        grid=decision.grid,
    )
    return decision, row


class PlannerUpdate(NamedTuple):
    ref: np.ndarray  # pose reference (z_b, roll, pitch)
    row: dict  # planner.csv row, also carrying envelope_error and the rbf weights (N_h, 4, n_basis)
    nsf: tuple  # per-leg safe-foothold count at the tracked pose, held until the next update


def planner_update(
    setup: RunSetup,
    t: float,
    base: np.ndarray,
    yaw: float,
    actual: np.ndarray,
    ref: np.ndarray,
    hips: np.ndarray,
    targets: np.ndarray,
) -> PlannerUpdate:
    """One planner tick: pose evaluation and one RBF fit of every leg and
    horizon step, then the VPA or TBR pose reference (``none`` keeps
    ``ref``).  The prospective step starts from each leg's ground contact,
    its target: the stance foot, or where a swing will touch down."""
    sc, model = setup.scenario, setup.model
    velocity = setup.velocity(yaw)
    gait = dataclasses.replace(setup.gait, t_remaining=setup.gait.swing_duration)
    n_h = sc.horizon if sc.planner == "vpa" else 1
    speed = float(np.hypot(velocity[0], velocity[1]))
    direction = velocity / speed if speed > 1e-9 else np.zeros(2)

    counts = np.zeros((n_h, 4, len(setup.heights)), dtype=np.int64)
    ground = np.zeros((n_h, 4))
    for j in range(n_h):
        counts[j], ground[j] = pose_evaluation(
            [setup.heightmap(c, yaw) for c in hips[:, :2] + direction * (j * DELTA_H)],
            velocity,
            gait,
            setup.heights,
            model,
            current_feet=targets if j == 0 else None,
        )
    rbf = fit_rbf(setup.heights, counts)
    z_actual = hip_height_from(actual[0], actual[1], actual[2], model.hip_offsets)
    nsf = tuple(float(np.interp(z - g, setup.heights, c)) for z, g, c in zip(z_actual, ground[0], counts[0]))

    shift = np.array([float(np.mean(ground[0])), 0.0, 0.0])
    objective = float("nan")
    cost_label = sc.planner
    if sc.planner == "vpa":
        problem = PoseOptProblem(
            rbf=rbf,
            ground=ground,
            hip_offsets=model.hip_offsets,
            u_prev=ref,
            u_min=setup.u_min + shift,
            u_max=setup.u_max + shift,
            du=setup.du,
            cost=sc.cost,
        )
        result = optimize_pose_receding(problem)
        ref = result.poses[0]
        objective = result.objective
        cost_label = sc.cost
    elif sc.planner == "tbr":
        try:
            ref = np.clip(tbr_pose(targets), setup.u_min + shift, setup.u_max + shift)
        except ValueError:
            pass  # degenerate support: keep the previous reference

    # The step-0 models at the reference pose's hip heights above ground, and
    # that height -MARGIN and +MARGIN.
    z_ref = hip_height_from(ref[0], ref[1], ref[2], model.hip_offsets) - ground[0]
    step0 = dataclasses.replace(rbf, weights=rbf.weights[0])
    (f_lo, f_ref, f_hi), _ = step0.value_and_slope(z_ref + MARGIN * np.array([[-1.0], [0.0], [1.0]]))
    envelope = np.abs(f_hi - f_lo).sum()
    row = dict(
        time=float(t),
        x=float(base[0]),
        u_z=float(ref[0]),
        u_roll=float(ref[1]),
        u_pitch=float(ref[2]),
        **{f"nsf_{name.lower()}": float(f) for name, f in zip(LEG_NAMES, f_ref)},
        cost=cost_label,
        objective=float(objective),
        horizon=n_h,
        envelope_error=float(envelope),
        rbf=rbf.weights,
    )
    return PlannerUpdate(ref, row, nsf)


def detect_events(setup: RunSetup, feet: np.ndarray, hips: np.ndarray, stance, swing_s) -> tuple[int, int]:
    """Collision and workspace events of one tick.

    A collision event is a foot, or a point of the hip-to-foot shin segment,
    deeper in the terrain than the corresponding criterion clearance; swing
    feet count only away from their arc ends.  A workspace event is a stance
    foot outside the leg's spherical shell.
    """
    model = setup.model
    counted = stance | ((0.02 < swing_s) & (swing_s < 0.98))
    leg = hips - feet
    d = np.linalg.norm(leg, axis=1)
    outside = stance & ((d < model.r_min - 1e-9) | (d > model.r_max + 1e-9))
    # One terrain query: the foot (fraction 0) and 8 shin points per leg.
    # The foot's planar distance from itself is 0, so it is never a shin
    # hit, nor is any point within the foot radius.
    points = feet[:, None, :] + leg[:, None, :] * _SHIN_FRACTIONS[:, None]
    ground = sample_height(setup.terrain, points[..., 0], points[..., 1])
    buried = feet[:, 2] < ground[:, 0] - FC_CLEARANCE
    planar = np.hypot(leg[:, 0], leg[:, 1])[:, None] * _SHIN_FRACTIONS
    shin_hit = (planar > model.foot_radius) & (points[..., 2] < ground - LC_CLEARANCE)
    collisions = np.count_nonzero(counted & buried) + np.count_nonzero(shin_hit.any(axis=1))
    return int(collisions), int(np.count_nonzero(outside))


def aggregate(rows: list, planner_rows: list, foothold_rows: list) -> RunMetrics:
    """Run metrics from the step (at least one), planner and foothold logs."""
    collisions = sum(r.collisions for r in rows)
    workspace = sum(r.workspace_violations for r in rows)
    dz, dpitch = [], []
    for a, b in zip(planner_rows[:-1], planner_rows[1:]):
        dx = b["x"] - a["x"]
        if abs(dx) > 1e-9:
            dz.append(abs((b["u_z"] - a["u_z"]) / dx))
            dpitch.append(abs((b["u_pitch"] - a["u_pitch"]) / dx))

    def mean(values) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    return RunMetrics(
        success=(collisions == 0 and workspace == 0),
        collision_events=collisions,
        workspace_events=workspace,
        mean_total_nsf=mean([sum(r.nsf) for r in rows]),
        mean_abs_dz_dx=mean(dz),
        mean_abs_dpitch_dx=mean(dpitch),
        tracking_mae_z=mean([abs(r.act_z - r.cmd_z) for r in rows]),
        tracking_mae_pitch=mean([abs(r.act_pitch - r.cmd_pitch) for r in rows]),
        mean_envelope_error=mean([r["envelope_error"] for r in planner_rows]),
        final_x=float(rows[-1].x),
        rows=rows,
        planner_rows=planner_rows,
        foothold_rows=foothold_rows,
    )


def run_scenario(
    scenario: Scenario,
    out_dir: str | None = None,
    dump_criteria: bool = False,
    dump_rbf: bool = False,
) -> RunMetrics:
    """Run one scenario to completion and aggregate its metrics.

    Deterministic for a given scenario: the seed only jitters the initial
    gait phase and start position so repeated seeds give distinct but
    reproducible runs.  With ``out_dir`` the directory is created before the
    first tick, so a bad path fails before the run, and
    :func:`write_outputs` writes every file after the last tick.  The rows
    keep each decision's criteria grid only with ``dump_criteria`` and each
    planner tick's RBF weights only with ``dump_rbf``.
    """
    setup = RunSetup(scenario)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    duty = setup.gait.duty_factor
    swing_time = setup.gait.swing_duration
    offsets = np.asarray(GAITS[scenario.gait][0])

    rng = np.random.default_rng(scenario.seed)
    phase0 = float(rng.uniform(0.0, 1.0))
    # The base starts near the origin, heading along +x.
    base = np.array([float(rng.uniform(-0.05, 0.05)), 0.0])
    yaw = 0.0
    ref = np.array([D_REF, 0.0, 0.0])
    actual = ref.copy()

    dt = 1.0 / scenario.tick_rate
    n_ticks = int(round(scenario.duration * scenario.tick_rate))
    planner_every = max(1, int(round(scenario.tick_rate / scenario.planner_rate)))

    # The feet start on the terrain under the hips, as the targets of the
    # stance they start in.
    targets = setup.hips_world(base, actual, yaw)
    targets[:, 2] = sample_height(setup.terrain, targets[:, 0], targets[:, 1])
    lift = targets.copy()
    rows: list[StepRow] = []
    planner_rows: list[dict] = []
    foothold_rows: list[dict] = []
    nsf = (0.0, 0.0, 0.0, 0.0)

    prev_stance = np.ones(4, dtype=bool)
    for k in range(n_ticks):
        t = k * dt
        phases = np.mod(phase0 + t * STEP_FREQUENCY + offsets, 1.0)
        stance = phases < duty
        swing_s = (phases - duty) / (1.0 - duty)
        hips = setup.hips_world(base, actual, yaw)

        decisions = ["", "", "", ""]
        for l in np.flatnonzero(prev_stance & ~stance):
            # Lift-off from the stance foot, the last target: pick the next
            # target now.  A run that starts mid-swing plans the rest of it.
            t_remaining = swing_time if k > 0 else (1.0 - swing_s[l]) * swing_time
            decision, row = foothold_decision(setup, l, t, hips[l], targets[l], yaw, t_remaining)
            if not dump_criteria:
                del row["grid"]
            foothold_rows.append(row)
            lift[l] = targets[l]
            targets[l] = decision.optimal
            decisions[l] = decision.fallback
        # Stance feet are world-fixed at their targets; swing feet follow
        # the arcs from their lift-off points.
        feet = np.where(stance[:, None], targets, swing_points(lift, targets, swing_s, setup.model.step_height))

        if k % planner_every == 0:
            update = planner_update(setup, t, base, yaw, actual, ref, hips, targets)
            ref, nsf = update.ref, update.nsf
            if not dump_rbf:
                del update.row["rbf"]
            planner_rows.append(update.row)

        actual = track_pose(actual, ref, dt)
        hips = setup.hips_world(base, actual, yaw)
        collisions, workspace = detect_events(setup, feet, hips, stance, swing_s)
        rows.append(StepRow(t, base[0], base[1], yaw, *ref, *actual, nsf, tuple(decisions), collisions, workspace))

        prev_stance = stance
        # Base advances at the commanded velocity.
        base = base + setup.velocity(yaw) * dt
        yaw += scenario.yaw_rate * dt

    metrics = aggregate(rows, planner_rows, foothold_rows)
    if out_dir is not None:
        write_outputs(metrics, out_dir, dump_criteria, dump_rbf)
    return metrics


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

STEPLOG_COLUMNS = (
    "time,x,y,yaw,cmd_z,cmd_roll,cmd_pitch,act_z,act_roll,act_pitch,"
    "nsf_lf,nsf_rf,nsf_lh,nsf_rh,dec_lf,dec_rf,dec_lh,dec_rh,"
    "collisions,workspace_violations"
).split(",")
PLANNER_COLUMNS = "time,u_z,u_roll,u_pitch,nsf_lf,nsf_rf,nsf_lh,nsf_rh,cost,objective,horizon".split(",")
FOOTHOLD_COLUMNS = "time,leg,nominal_x,nominal_y,nominal_z,optimal_x,optimal_y,optimal_z,n_sf,fallback".split(",")
RBF_COLUMNS = ("time", "leg", "horizon", "weights")
COMPARISON_COLUMNS = ("metric", "a", "b", "delta")
CRITERIA = ("tr", "lc", "kf", "fc", "mu")


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def csv_text(columns, rows) -> str:
    """A header line of ``columns`` (none if empty), then one line per row;
    floats are written as ``repr(float(v))``, everything else as ``str(v)``."""
    lines = [",".join(columns)] if columns else []
    lines += [",".join(map(_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _dict_rows(columns, rows):
    return ([row[c] for c in columns] for row in rows)


def _step_values(row: StepRow) -> list:
    """The step row's fields in order, with the per-leg tuples spread out."""
    values = []
    for f in dataclasses.fields(row):
        value = getattr(row, f.name)
        values.extend(value if isinstance(value, tuple) else (value,))
    return values


def steplog_csv(metrics: RunMetrics) -> str:
    return csv_text(STEPLOG_COLUMNS, map(_step_values, metrics.rows))


def write_outputs(metrics: RunMetrics, out_dir: str, dump_criteria: bool, dump_rbf: bool) -> None:
    """Write a finished run's files into the existing ``out_dir``.

    First the ``rbf.csv`` and ``fec_*.csv`` dumps of an earlier run are
    deleted, whether or not this run dumps them.  Then the four logs are
    written, and the dumps the flags ask for, from the rows' ``rbf`` weights
    and criteria ``grid``.
    """
    for pattern in ("fec_*.csv", "rbf.csv"):
        for name in glob.glob(pattern, root_dir=out_dir):
            os.remove(os.path.join(out_dir, name))
    for name, text in (
        ("steplog.csv", steplog_csv(metrics)),
        ("metrics.csv", csv_text(("metric", "value"), metrics.aggregates().items())),
        ("planner.csv", csv_text(PLANNER_COLUMNS, _dict_rows(PLANNER_COLUMNS, metrics.planner_rows))),
        ("footholds.csv", csv_text(FOOTHOLD_COLUMNS, _dict_rows(FOOTHOLD_COLUMNS, metrics.foothold_rows))),
    ):
        write_text(os.path.join(out_dir, name), text)
    if dump_rbf:
        weights = (
            (row["time"], LEG_NAMES[l], j, ";".join(map(_cell, w)))
            for row in metrics.planner_rows
            for j, layer in enumerate(row["rbf"])
            for l, w in enumerate(layer)
        )
        write_text(os.path.join(out_dir, "rbf.csv"), csv_text(RBF_COLUMNS, weights))
    for index, row in enumerate(metrics.foothold_rows if dump_criteria else ()):
        grid = row["grid"]
        for tag, cells in zip(CRITERIA, (grid.tr, grid.lc, grid.kf, grid.fc, grid.cells)):
            path = os.path.join(out_dir, f"fec_{index:05d}_{row['leg']}_{tag}.csv")
            write_text(path, csv_text((), cells.astype(int).tolist()))


COMPARED_METRICS = (
    "mean_total_nsf",
    "mean_envelope_error",
    "mean_abs_dz_dx",
    "mean_abs_dpitch_dx",
    "tracking_mae_z",
    "tracking_mae_pitch",
    "success",
)


def compare_scenarios(a: Scenario, b: Scenario, factor: str, out_dir: str) -> list[tuple]:
    """Run two scenarios that differ only in ``factor`` (comma-separated
    field names) and tabulate paired aggregates with deltas.  ``out_dir`` is
    created before the runs, and the table is written to ``comparison.csv``
    in it."""
    allowed = {name.strip() for name in factor.split(",") if name.strip()}
    keys = [f.name for f in dataclasses.fields(Scenario)]
    unknown = allowed.difference(keys)
    if unknown:
        raise ConfigError(f"unknown scenario keys in the compared factor: {sorted(unknown)}")
    bad = {key for key in keys if getattr(a, key) != getattr(b, key) and key not in allowed}
    if bad:
        raise ConfigError(f"scenarios differ outside the compared factor: {sorted(bad)}")
    os.makedirs(out_dir, exist_ok=True)
    agg_a, agg_b = run_scenario(a).aggregates(), run_scenario(b).aggregates()
    table = [(name, agg_a[name], agg_b[name], agg_b[name] - agg_a[name]) for name in COMPARED_METRICS]
    write_text(os.path.join(out_dir, "comparison.csv"), comparison_csv(table))
    return table


def comparison_csv(table: list[tuple]) -> str:
    return csv_text(COMPARISON_COLUMNS, table)

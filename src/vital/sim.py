"""Quasi-kinematic gait simulator and experiment driver.

:func:`run_scenario` is a plain tick loop over small functions.  Each tick
it schedules the trot/crawl gait, picks a touchdown target at every
lift-off (:func:`foothold_decision`), moves the swing feet along their
arcs, runs the planner update at the planner rate (:func:`planner_update`),
tracks the pose reference through a first-order lag, runs the collision and
workspace detectors (:func:`detect_events`) and logs one step row;
:func:`aggregate` turns the logs into the run metrics.  No contact
dynamics: stance feet are world-fixed and the base height equals the
tracked pose.

Pose evaluation sweeps the hip-height set relative to the ground under the
centre cell of each leg's heightmap (:func:`vital.vpa.pose_evaluation`).
The planner uses that per-leg ground for the RBF range, the held NSF and
the shift of the pose box.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# eval_fec is not called here; it stays importable as vital.sim.eval_fec
# because perfbench/tracer.py wraps that name.
from .fec import FecConfig, SafetyGrid, eval_fec  # noqa: F401
from .robot import (
    BodyTwist,
    GaitParams,
    LEG_NAMES,
    Pose,
    RobotModel,
    SwingTrajectory,
    hip_height_from,
    nominal_foothold,
    robot_preset,
    rotation_matrix,
    swing_trajectory,
)
from .tbr import tbr_pose
from .terrain import Heightmap, TerrainMap, check_patch_shape, extract_heightmap, sample_height
from .vfa import (
    FALLBACK_KEPT_NOMINAL_UNSAFE,
    FALLBACK_NO_SAFE_CELL,
    FootholdDecision,
    VfaInput,
    foothold_evaluation,
)
from .vpa import (
    HipHeightSet,
    PoseOptProblem,
    check_cost,
    fit_rbf,
    optimize_pose_receding,
    pose_evaluation,
    rbf_centers_and_width,
)

GAITS = ("trot", "crawl")
PLANNERS = ("vpa", "tbr", "none")

# Leg phase offsets within the gait cycle, in LF, RF, LH, RH order.
_GAIT_OFFSETS = {
    "trot": (0.0, 0.5, 0.5, 0.0),
    "crawl": (0.25, 0.75, 0.0, 0.5),  # lift order LH, LF, RH, RF
}
_GAIT_DUTY = {"trot": 0.5, "crawl": 0.8}


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
    terrain_gap_width: float = 0.08
    terrain_gap_depth: float = 1.0
    terrain_plateau: float = 0.5
    terrain_cell: float = 0.30
    terrain_amplitude: float = 0.06
    terrain_seed: int = 7
    # robot and gait
    robot: str = "hyq-like"
    gait: str = "trot"
    step_frequency: float = 1.4
    duty_factor: float = -1.0  # <0: use the gait default
    step_height: float = -1.0  # <0: use the robot default
    # commanded twist
    vx: float = 0.2
    vy: float = 0.0
    yaw_rate: float = 0.0
    # planner
    planner: str = "vpa"
    cost: str = "int"
    horizon: int = 2
    margin: float = 0.025
    smooth_weight: float = 10.0
    q: float = 1.0
    du_z: float = 0.02
    du_roll: float = 0.02
    du_pitch: float = 0.02
    u_z_min: float = 0.2
    u_z_max: float = 0.8
    u_roll_max: float = 0.35
    u_pitch_max: float = 0.35
    # harness
    tau_track: float = 0.15
    duration: float = 30.0
    planner_rate: float = 5.0
    tick_rate: float = 100.0
    seed: int = 0
    d_ref: float = 0.55
    start_x0: float = 0.0
    start_y0: float = 0.0
    start_yaw: float = 0.0
    # maps and pose evaluation
    map_cells: int = 33
    map_resolution: float = 0.02
    zh_min: float = 0.2
    zh_max: float = 0.8
    zh_count: int = 31
    rbf_count: int = 30
    delta_h: float = -1.0  # <0: half the heightmap extent

    def __post_init__(self):
        if self.gait not in GAITS:
            raise ConfigError(f"unknown gait {self.gait!r}")
        if self.planner not in PLANNERS:
            raise ConfigError(f"unknown planner {self.planner!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"{f.name} is NaN")
        for name in ("duration", "planner_rate", "tick_rate"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be finite and > 0")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        try:
            check_cost(self.cost, self.margin)
            robot_preset(self.robot)
            self.build_terrain()
            check_patch_shape(self.map_cells, self.map_cells, self.map_resolution)
            HipHeightSet(self.zh_min, self.zh_max, self.zh_count)
            rbf_centers_and_width(self.rbf_count, self.zh_min, self.zh_max)
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
        values = {}
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key=value")
                    key, val = line.split("=", 1)
                    values[key.strip()] = val.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file: {exc}") from exc
        return cls.from_dict(values)

    def build_terrain(self) -> TerrainMap:
        return TerrainMap(
            kind=self.terrain_kind,
            rise=self.terrain_rise,
            going=self.terrain_going,
            n_steps=self.terrain_steps,
            start_x=self.terrain_start_x,
            gap_width=self.terrain_gap_width,
            gap_depth=self.terrain_gap_depth,
            plateau=self.terrain_plateau,
            cell=self.terrain_cell,
            amplitude=self.terrain_amplitude,
            seed=self.terrain_seed,
        )


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
    envelope_errors: list = field(default_factory=list)

    def aggregates(self) -> dict:
        return {
            "success": int(self.success),
            "collision_events": self.collision_events,
            "workspace_events": self.workspace_events,
            "mean_total_nsf": self.mean_total_nsf,
            "mean_abs_dz_dx": self.mean_abs_dz_dx,
            "mean_abs_dpitch_dx": self.mean_abs_dpitch_dx,
            "tracking_mae_z": self.tracking_mae_z,
            "tracking_mae_pitch": self.tracking_mae_pitch,
            "mean_envelope_error": self.mean_envelope_error,
            "final_x": self.final_x,
        }


def track_pose(actual: np.ndarray, reference: np.ndarray, dt: float, tau: float) -> np.ndarray:
    """First-order lag toward the reference (exact discretization)."""
    if tau <= 0:
        return reference.copy()
    alpha = math.exp(-dt / tau)
    return reference + (actual - reference) * alpha


class RunSetup:
    """What a run derives once from its scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.terrain = scenario.build_terrain()
        self.model = robot_preset(scenario.robot)
        self.fec_config = FecConfig()
        duty = scenario.duty_factor if scenario.duty_factor > 0 else _GAIT_DUTY[scenario.gait]
        freq = scenario.step_frequency
        # t_remaining is set per use
        self.gait = GaitParams(math.hypot(scenario.vx, scenario.vy) / freq, freq, duty)
        self.heights = HipHeightSet(scenario.zh_min, scenario.zh_max, scenario.zh_count)
        self.apex = scenario.step_height if scenario.step_height > 0 else self.model.default_step_height
        self.u_min = np.array([scenario.u_z_min, -scenario.u_roll_max, -scenario.u_pitch_max])
        self.u_max = np.array([scenario.u_z_max, scenario.u_roll_max, scenario.u_pitch_max])
        self.du = np.array([scenario.du_z, scenario.du_roll, scenario.du_pitch])
        extent = scenario.map_cells * scenario.map_resolution
        self.delta_h = scenario.delta_h if scenario.delta_h > 0 else extent / 2.0

    def twist(self, yaw: float) -> BodyTwist:
        """The commanded body twist in the world frame at heading ``yaw``."""
        sc = self.scenario
        c, s = math.cos(yaw), math.sin(yaw)
        vw = np.array([c * sc.vx - s * sc.vy, s * sc.vx + c * sc.vy, 0.0])
        return BodyTwist(vw, np.array([0.0, 0.0, sc.yaw_rate]))

    def heightmap(self, center, yaw: float) -> Heightmap:
        cells = self.scenario.map_cells
        return extract_heightmap(
            self.terrain,
            (center[0], center[1]),
            yaw=yaw,
            h_x=cells,
            h_y=cells,
            resolution=self.scenario.map_resolution,
        )

    def hips_world(self, base: np.ndarray, pose: np.ndarray, yaw: float) -> np.ndarray:
        rot = rotation_matrix(pose[1], pose[2], yaw)
        origin = np.array([base[0], base[1], pose[0]])
        return origin[None, :] + (rot @ self.model.hip_offsets.T).T


class _LegState:
    __slots__ = ("foot", "trajectory", "target")

    def __init__(self, foot: np.ndarray):
        self.foot = foot
        self.trajectory: SwingTrajectory | None = None
        self.target = foot.copy()


def foothold_decision(
    setup: RunSetup, leg: int, t: float, hip: np.ndarray, foot: np.ndarray, yaw: float, t_remaining: float
) -> tuple[FootholdDecision, dict]:
    """VFA at one lift-off: the decision and its ``footholds.csv`` row."""
    twist = setup.twist(yaw)
    gait = dataclasses.replace(setup.gait, t_remaining=t_remaining)
    nominal = nominal_foothold(hip, twist, gait, setup.terrain)
    hm = setup.heightmap(nominal, yaw)
    vfa_in = VfaInput(hm, float(hip[2]), twist, gait, nominal)
    decision = foothold_evaluation(vfa_in, setup.model, setup.fec_config, current_foot=foot)
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
    )
    return decision, row


class PlannerUpdate(NamedTuple):
    ref: np.ndarray  # pose reference (z_b, roll, pitch)
    row: dict  # planner.csv row
    nsf: tuple  # per-leg safe-foothold count at the tracked pose, held until the next update
    envelope_error: float
    functions: list  # fitted SafeFootholdFunction per horizon step and leg


def planner_update(
    setup: RunSetup,
    t: float,
    base: np.ndarray,
    yaw: float,
    actual: np.ndarray,
    ref: np.ndarray,
    hips: np.ndarray,
    legs: list,
    stance: np.ndarray,
) -> PlannerUpdate:
    """One planner tick: pose evaluation and one RBF fit per leg and horizon
    step, then the VPA or TBR pose reference (``none`` keeps ``ref``)."""
    sc, model = setup.scenario, setup.model
    twist = setup.twist(yaw)
    gait = dataclasses.replace(setup.gait, t_remaining=setup.gait.swing_duration)
    n_h = sc.horizon if sc.planner == "vpa" else 1
    speed = float(np.hypot(twist.planar[0], twist.planar[1]))
    direction = twist.planar / speed if speed > 1e-9 else np.zeros(2)
    # The prospective step starts from the leg's ground contact: the
    # current foot in stance, the touchdown target in swing.
    contacts = [leg.foot if s else leg.target for leg, s in zip(legs, stance)]

    samples = [
        pose_evaluation(
            [setup.heightmap(c, yaw) for c in hips[:, :2] + direction * (j * setup.delta_h)],
            twist,
            gait,
            setup.heights,
            model,
            setup.fec_config,
            current_feet=contacts if j == 0 else None,
        )
        for j in range(n_h)
    ]
    functions = [
        [
            fit_rbf(s.heights + g, counts, n_basis=sc.rbf_count, z_min=sc.zh_min + g, z_max=sc.zh_max + g)
            for counts, g in zip(s.counts, s.ground)
        ]
        for s in samples
    ]
    now = samples[0]
    z_actual = hip_height_from(actual[0], actual[1], actual[2], model.hip_offsets)
    nsf = tuple(float(np.interp(z - g, now.heights, c)) for z, g, c in zip(z_actual, now.ground, now.counts))

    shift = np.array([float(np.mean(now.ground)), 0.0, 0.0])
    objective = float("nan")
    cost_label = sc.planner
    if sc.planner == "vpa":
        problem = PoseOptProblem(
            functions=functions,
            hip_offsets=model.hip_offsets,
            u_prev=Pose.from_array(ref),
            u_min=setup.u_min + shift,
            u_max=setup.u_max + shift,
            du_min=-setup.du,
            du_max=setup.du,
            cost=sc.cost,
            margin=sc.margin,
            q=sc.q,
            smooth_weight=sc.smooth_weight,
        )
        result = optimize_pose_receding(problem)
        ref = result.poses[0].as_array()
        objective = result.objective
        cost_label = sc.cost
    elif sc.planner == "tbr":
        try:
            tref = tbr_pose(np.array([leg.target for leg in legs]), height_offset=sc.d_ref)
            ref = np.clip([tref.z_b, tref.roll, tref.pitch], setup.u_min + shift, setup.u_max + shift)
        except ValueError:
            pass  # degenerate support: keep the previous reference

    z_ref = hip_height_from(ref[0], ref[1], ref[2], model.hip_offsets)
    m = sc.margin
    envelope = sum(abs(f(z + m) - f(z - m)) for f, z in zip(functions[0], z_ref))
    row = dict(
        time=float(t),
        x=float(base[0]),
        u_z=float(ref[0]),
        u_roll=float(ref[1]),
        u_pitch=float(ref[2]),
        **{f"nsf_{name.lower()}": float(f(z)) for name, f, z in zip(LEG_NAMES, functions[0], z_ref)},
        cost=cost_label,
        objective=float(objective),
        horizon=n_h,
    )
    return PlannerUpdate(ref, row, nsf, float(envelope), functions)


def detect_events(setup: RunSetup, feet, hips: np.ndarray, stance, swing_s: np.ndarray) -> tuple[int, int]:
    """Collision and workspace events of one tick.

    A collision event is a foot, or a point of the hip-to-foot shin segment,
    deeper in the terrain than the corresponding criterion clearance; swing
    feet count only away from their arc ends.  A workspace event is a stance
    foot outside the leg's spherical shell.
    """
    terrain, model, config = setup.terrain, setup.model, setup.fec_config
    collisions = workspace = 0
    for foot, hip, in_stance, s in zip(feet, hips, stance, swing_s):
        if in_stance or 0.02 < s < 0.98:
            if foot[2] < sample_height(terrain, foot[0], foot[1]) - config.fc_clearance:
                collisions += 1
        if in_stance:
            d = float(np.linalg.norm(hip - foot))
            if d < model.r_min - 1e-9 or d > model.r_max + 1e-9:
                workspace += 1
        # shin segment clearance (points near the foot are the foot)
        g = np.linspace(0.0, 1.0, 9)[1:]
        seg = foot[None, :] + (hip - foot)[None, :] * g[:, None]
        planar = g * math.hypot(hip[0] - foot[0], hip[1] - foot[1])
        keep = planar > model.foot_radius
        if np.any(keep):
            ground = sample_height(terrain, seg[keep, 0], seg[keep, 1])
            if np.any(seg[keep, 2] < ground - config.lc_clearance):
                collisions += 1
    return collisions, workspace


def aggregate(rows: list, planner_rows: list, foothold_rows: list, envelope_errors: list, final_x: float) -> RunMetrics:
    """Run metrics from the step, planner and foothold logs."""
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
        mean_envelope_error=mean(envelope_errors),
        final_x=float(rows[-1].x) if rows else final_x,
        rows=rows,
        planner_rows=planner_rows,
        foothold_rows=foothold_rows,
        envelope_errors=envelope_errors,
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
    reproducible runs.
    """
    setup = RunSetup(scenario)
    duty, freq = setup.gait.duty_factor, setup.gait.step_frequency
    swing_time = setup.gait.swing_duration
    offsets = np.asarray(_GAIT_OFFSETS[scenario.gait])

    rng = np.random.default_rng(scenario.seed)
    phase0 = float(rng.uniform(0.0, 1.0))
    base = np.array([scenario.start_x0 + float(rng.uniform(-0.05, 0.05)), scenario.start_y0])
    yaw = scenario.start_yaw
    ref = np.array([float(np.clip(scenario.d_ref, setup.u_min[0], setup.u_max[0])), 0.0, 0.0])
    actual = ref.copy()

    dt = 1.0 / scenario.tick_rate
    n_ticks = int(round(scenario.duration * scenario.tick_rate))
    planner_every = max(1, int(round(scenario.tick_rate / scenario.planner_rate)))

    # Feet start on the terrain under the hips.
    legs = [
        _LegState(np.array([x, y, sample_height(setup.terrain, x, y)]))
        for x, y, _ in setup.hips_world(base, actual, yaw)
    ]
    rows: list[StepRow] = []
    planner_rows: list[dict] = []
    foothold_rows: list[dict] = []
    envelope_errors: list[float] = []
    nsf = (0.0, 0.0, 0.0, 0.0)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    prev_stance = np.ones(4, dtype=bool)
    for k in range(n_ticks):
        t = k * dt
        phases = np.mod(phase0 + t * freq + offsets, 1.0)
        stance = phases < duty
        swing_s = (phases - duty) / (1.0 - duty)
        hips = setup.hips_world(base, actual, yaw)

        decisions = ["", "", "", ""]
        for l, leg in enumerate(legs):
            if prev_stance[l] and not stance[l]:
                # Lift-off: pick the touchdown target now.  A run that
                # starts mid-swing plans the rest of that swing.
                t_remaining = swing_time if k > 0 else (1.0 - swing_s[l]) * swing_time
                decision, row = foothold_decision(setup, l, t, hips[l], leg.foot, yaw, t_remaining)
                if dump_criteria and out_dir is not None:
                    dump_criteria_grids(out_dir, len(foothold_rows), l, decision.grid)
                foothold_rows.append(row)
                leg.target = decision.optimal
                leg.trajectory = swing_trajectory(leg.foot, leg.target, setup.apex)
                fallback = decision.fallback
                decisions[l] = FALLBACK_KEPT_NOMINAL_UNSAFE if fallback == FALLBACK_NO_SAFE_CELL else fallback
            elif stance[l] and not prev_stance[l]:
                # touchdown: the foot is world-fixed at the target
                leg.foot = leg.target.copy()
        for l, leg in enumerate(legs):
            if not stance[l]:
                leg.foot = leg.trajectory.point_at(float(swing_s[l]))

        if k % planner_every == 0:
            update = planner_update(setup, t, base, yaw, actual, ref, hips, legs, stance)
            ref, nsf = update.ref, update.nsf
            planner_rows.append(update.row)
            envelope_errors.append(update.envelope_error)
            if dump_rbf and out_dir is not None:
                rbf_rows = (
                    (t, LEG_NAMES[l], j, ";".join(map(_cell, f.weights)))
                    for j, layer in enumerate(update.functions)
                    for l, f in enumerate(layer)
                )
                write_csv(os.path.join(out_dir, "rbf.csv"), RBF_COLUMNS, rbf_rows, append=True)

        actual = track_pose(actual, ref, dt, scenario.tau_track)
        hips = setup.hips_world(base, actual, yaw)
        collisions, workspace = detect_events(setup, [leg.foot for leg in legs], hips, stance, swing_s)
        rows.append(StepRow(t, base[0], base[1], yaw, *ref, *actual, nsf, tuple(decisions), collisions, workspace))

        prev_stance = stance
        # Base advances at the commanded twist.
        base = base + setup.twist(yaw).planar * dt
        yaw += scenario.yaw_rate * dt

    metrics = aggregate(rows, planner_rows, foothold_rows, envelope_errors, float(base[0]))
    if out_dir is not None:
        write_outputs(metrics, out_dir)
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
CRITERIA = ("tr", "lc", "kf", "fc", "mu")


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def csv_text(columns, rows) -> str:
    """A header line of ``columns`` (none if empty), then one line per row;
    floats are written as ``repr(float(v))``, everything else as ``str(v)``."""
    lines = [",".join(columns)] if columns else []
    lines += [",".join(map(_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def write_csv(path: str, columns, rows, append: bool = False) -> None:
    """Write :func:`csv_text` to ``path``; with ``append``, add the rows to
    an existing file without repeating its header."""
    header = columns if not (append and os.path.exists(path)) else ()
    with open(path, "a" if append else "w") as fh:
        fh.write(csv_text(header, rows))


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


def dump_criteria_grids(out_dir: str, index: int, leg: int, grid: SafetyGrid) -> None:
    """Write the criterion grids and the safe set of one foothold decision."""
    for tag, cells in zip(CRITERIA, (grid.tr, grid.lc, grid.kf, grid.fc, grid.cells)):
        path = os.path.join(out_dir, f"fec_{index:05d}_{LEG_NAMES[leg]}_{tag}.csv")
        write_csv(path, (), cells.astype(int).tolist())


def write_outputs(metrics: RunMetrics, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, columns, rows in (
        ("steplog.csv", STEPLOG_COLUMNS, map(_step_values, metrics.rows)),
        ("metrics.csv", ("metric", "value"), metrics.aggregates().items()),
        ("planner.csv", PLANNER_COLUMNS, _dict_rows(PLANNER_COLUMNS, metrics.planner_rows)),
        ("footholds.csv", FOOTHOLD_COLUMNS, _dict_rows(FOOTHOLD_COLUMNS, metrics.foothold_rows)),
    ):
        write_csv(os.path.join(out_dir, name), columns, rows)


COMPARED_METRICS = (
    "mean_total_nsf",
    "mean_envelope_error",
    "mean_abs_dz_dx",
    "mean_abs_dpitch_dx",
    "tracking_mae_z",
    "tracking_mae_pitch",
    "success",
)


def compare_scenarios(a: Scenario, b: Scenario, factor: str) -> list[tuple]:
    """Run two scenarios that differ only in ``factor`` (comma-separated
    field names) and tabulate paired aggregates with deltas."""
    allowed = {name.strip() for name in factor.split(",") if name.strip()}
    bad = {
        f.name
        for f in dataclasses.fields(Scenario)
        if getattr(a, f.name) != getattr(b, f.name) and f.name not in allowed
    }
    if bad:
        raise ConfigError(f"scenarios differ outside the compared factor: {sorted(bad)}")
    ma = run_scenario(a)
    mb = run_scenario(b)
    agg_a, agg_b = ma.aggregates(), mb.aggregates()
    return [(name, agg_a[name], agg_b[name], agg_b[name] - agg_a[name]) for name in COMPARED_METRICS]


def comparison_csv(table: list[tuple]) -> str:
    return csv_text(("metric", "a", "b", "delta"), table)

"""Quasi-kinematic gait simulator and experiment driver.

The loop schedules trot/crawl gaits, advances the base under a commanded
twist, tracks planner pose references through a first-order lag, runs the
foothold adaptation at every lift-off and the active pose planner at the
planner rate, and logs the per-tick metrics used by the paired-run
comparisons.  No contact dynamics: stance feet are world-fixed and the base
height equals the tracked pose.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fec import FecConfig, FecEvaluator, eval_fec, FecInput
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
from .terrain import TerrainMap, extract_heightmap, sample_height
from .vfa import (
    FALLBACK_KEPT_NOMINAL_UNSAFE,
    FALLBACK_NO_SAFE_CELL,
    VfaInput,
    foothold_evaluation,
)
from .vpa import (
    HipHeightSet,
    PoseOptProblem,
    SafeFootholdFunction,
    check_cost,
    fit_rbf,
    optimize_pose_receding,
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
        if self.planner_rate <= 0 or self.tick_rate <= 0:
            raise ConfigError("planner_rate and tick_rate must be > 0")
        if self.duration <= 0:
            raise ConfigError("duration must be > 0")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        try:
            check_cost(self.cost, self.margin)
            robot_preset(self.robot)
            self.build_terrain()
            HipHeightSet(self.zh_min, self.zh_max, self.zh_count)
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
                if isinstance(default, bool):
                    kwargs[key] = raw in ("1", "true", "yes")
                elif isinstance(default, int):
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


class _LegState:
    __slots__ = ("foot", "stance", "trajectory", "target")

    def __init__(self, foot: np.ndarray):
        self.foot = foot
        self.stance = True
        self.trajectory: SwingTrajectory | None = None
        self.target = foot.copy()


def _leg_phases(t: float, phase0: float, freq: float, offsets) -> np.ndarray:
    return np.mod(phase0 + t * freq + np.asarray(offsets), 1.0)


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
    terrain = scenario.build_terrain()
    model = robot_preset(scenario.robot)
    fec_config = FecConfig()
    duty = scenario.duty_factor if scenario.duty_factor > 0 else _GAIT_DUTY[scenario.gait]
    apex = scenario.step_height if scenario.step_height > 0 else model.default_step_height
    freq = scenario.step_frequency
    swing_time = (1.0 - duty) / freq
    offsets = _GAIT_OFFSETS[scenario.gait]
    heights = HipHeightSet(scenario.zh_min, scenario.zh_max, scenario.zh_count)
    u_min = np.array([scenario.u_z_min, -scenario.u_roll_max, -scenario.u_pitch_max])
    u_max = np.array([scenario.u_z_max, scenario.u_roll_max, scenario.u_pitch_max])
    du = np.array([scenario.du_z, scenario.du_roll, scenario.du_pitch])
    map_extent = scenario.map_cells * scenario.map_resolution
    delta_h = scenario.delta_h if scenario.delta_h > 0 else map_extent / 2.0

    rng = np.random.default_rng(scenario.seed)
    phase0 = float(rng.uniform(0.0, 1.0))
    base = np.array(
        [scenario.start_x0 + float(rng.uniform(-0.05, 0.05)), scenario.start_y0]
    )
    yaw = scenario.start_yaw

    ref = np.array([float(np.clip(scenario.d_ref, u_min[0], u_max[0])), 0.0, 0.0])
    actual = ref.copy()

    dt = 1.0 / scenario.tick_rate
    n_ticks = int(round(scenario.duration * scenario.tick_rate))
    planner_every = max(1, int(round(scenario.tick_rate / scenario.planner_rate)))

    def hips_world() -> np.ndarray:
        rot = rotation_matrix(actual[1], actual[2], yaw)
        origin = np.array([base[0], base[1], actual[0]])
        return origin[None, :] + (rot @ model.hip_offsets.T).T

    def world_twist() -> BodyTwist:
        c, s = math.cos(yaw), math.sin(yaw)
        vw = np.array(
            [c * scenario.vx - s * scenario.vy, s * scenario.vx + c * scenario.vy, 0.0]
        )
        return BodyTwist(vw, np.array([0.0, 0.0, scenario.yaw_rate]))

    # Feet start on the terrain under the hips.
    hips0 = hips_world()
    legs = []
    for l in range(4):
        gx, gy = hips0[l, 0], hips0[l, 1]
        legs.append(_LegState(np.array([gx, gy, sample_height(terrain, gx, gy)])))

    rows: list[StepRow] = []
    planner_rows: list[dict] = []
    foothold_rows: list[dict] = []
    envelope_errors: list[float] = []
    collisions_total = 0
    workspace_total = 0

    # Latest pose-evaluation products for per-tick metrics.  The per-leg
    # safe-foothold count at the tracked pose is refreshed from the fresh
    # count grids at every planner tick and held in between.
    rel_heights = heights.values
    nsf_counts = np.zeros((4, len(rel_heights)))
    nsf_funcs: list[SafeFootholdFunction] | None = None
    nsf_hold = [0.0, 0.0, 0.0, 0.0]
    dump_index = 0

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    def vfa_for_leg(l: int, t: float, hips: np.ndarray, t_remaining: float):
        nonlocal dump_index
        twist = world_twist()
        gait_now = GaitParams(
            step_length=math.hypot(scenario.vx, scenario.vy) / freq,
            step_frequency=freq,
            duty_factor=duty,
            t_remaining=t_remaining,
        )
        hip = hips[l]
        nominal = nominal_foothold(hip, twist, gait_now, terrain)
        hm = extract_heightmap(
            terrain,
            (nominal[0], nominal[1]),
            yaw=yaw,
            h_x=scenario.map_cells,
            h_y=scenario.map_cells,
            resolution=scenario.map_resolution,
        )
        vfa_in = VfaInput(hm, float(hip[2]), twist, gait_now, nominal)
        decision = foothold_evaluation(vfa_in, model, fec_config, current_foot=legs[l].foot)
        foothold_rows.append(
            dict(
                time=float(t),
                leg=LEG_NAMES[l],
                nominal_x=float(nominal[0]),
                nominal_y=float(nominal[1]),
                nominal_z=float(nominal[2]),
                optimal_x=float(decision.optimal[0]),
                optimal_y=float(decision.optimal[1]),
                optimal_z=float(decision.optimal[2]),
                n_sf=decision.safe_count,
                fallback=decision.fallback,
            )
        )
        if dump_criteria and out_dir is not None:
            fec_in = FecInput(
                hm, float(hip[2]), (float(hip[0]), float(hip[1])), twist, gait_now
            )
            grid = eval_fec(fec_in, model, fec_config, current_foot=legs[l].foot)
            base_name = f"fec_{dump_index:05d}_{LEG_NAMES[l]}"
            for tag, arr in (
                ("tr", grid.tr),
                ("lc", grid.lc),
                ("kf", grid.kf),
                ("fc", grid.fc),
                ("mu", grid.cells),
            ):
                path = os.path.join(out_dir, f"{base_name}_{tag}.csv")
                with open(path, "w") as fh:
                    for row in arr:
                        fh.write(",".join("1" if v else "0" for v in row) + "\n")
            dump_index += 1
        return decision

    def planner_tick(t: float, hips: np.ndarray, stance_now) -> None:
        nonlocal ref, nsf_counts, nsf_funcs, nsf_hold
        twist = world_twist()
        gait_now = GaitParams(
            step_length=math.hypot(scenario.vx, scenario.vy) / freq,
            step_frequency=freq,
            duty_factor=duty,
            t_remaining=swing_time,
        )
        n_h = scenario.horizon if scenario.planner == "vpa" else 1
        v_planar = twist.planar
        speed = float(np.hypot(v_planar[0], v_planar[1]))
        direction = v_planar / speed if speed > 1e-9 else np.zeros(2)

        funcs: list[list[SafeFootholdFunction]] = []
        ground_refs = np.zeros((n_h, 4))
        counts0 = None
        for j in range(n_h):
            layer = []
            counts_j = np.zeros((4, len(rel_heights)))
            for l in range(4):
                center = hips[l, :2] + direction * (j * delta_h)
                hm = extract_heightmap(
                    terrain,
                    (center[0], center[1]),
                    yaw=yaw,
                    h_x=scenario.map_cells,
                    h_y=scenario.map_cells,
                    resolution=scenario.map_resolution,
                )
                ground = float(hm.cells[hm.h_x // 2, hm.h_y // 2])
                ground_refs[j, l] = ground
                z_grid = rel_heights + ground
                # The prospective step starts from the leg's ground contact:
                # the current foot in stance, the touchdown target in swing.
                foot = None
                if j == 0:
                    foot = legs[l].foot if stance_now[l] else legs[l].target
                ev = FecEvaluator(
                    hm, center, twist, gait_now, model, fec_config, current_foot=foot
                )
                counts_j[l] = ev.sweep_counts(z_grid)
                layer.append(
                    fit_rbf(
                        z_grid,
                        counts_j[l],
                        n_basis=scenario.rbf_count,
                        z_min=scenario.zh_min + ground,
                        z_max=scenario.zh_max + ground,
                    )
                )
            funcs.append(layer)
            if j == 0:
                counts0 = counts_j
        nsf_counts = counts0
        nsf_funcs = funcs[0]
        base_ground = float(np.mean(ground_refs[0]))
        nsf_hold = [
            float(
                np.interp(
                    hip_height_from(actual[0], actual[1], actual[2], model.hip_offsets[l])
                    - ground_refs[0, l],
                    rel_heights,
                    nsf_counts[l],
                )
            )
            for l in range(4)
        ]

        if dump_rbf and out_dir is not None:
            path = os.path.join(out_dir, "rbf.csv")
            new = not os.path.exists(path)
            with open(path, "a") as fh:
                if new:
                    fh.write("time,leg,horizon,weights\n")
                for j, layer in enumerate(funcs):
                    for l, fn in enumerate(layer):
                        w = ";".join(repr(v) for v in fn.weights)
                        fh.write(f"{t!r},{LEG_NAMES[l]},{j},{w}\n")

        objective = float("nan")
        cost_label = scenario.planner
        if scenario.planner == "vpa":
            shift = np.array([base_ground, 0.0, 0.0])
            problem = PoseOptProblem(
                functions=funcs,
                hip_offsets=model.hip_offsets,
                u_prev=Pose.from_array(ref),
                u_min=u_min + shift,
                u_max=u_max + shift,
                du_min=-du,
                du_max=du,
                cost=scenario.cost,
                margin=scenario.margin,
                q=scenario.q,
                smooth_weight=scenario.smooth_weight,
            )
            result = optimize_pose_receding(problem)
            ref = result.poses[0].as_array()
            objective = result.objective
            cost_label = scenario.cost
        elif scenario.planner == "tbr":
            pts = [legs[l].target for l in range(4)]
            try:
                tref = tbr_pose(np.array(pts), height_offset=scenario.d_ref)
                cand = np.array([tref.z_b, tref.roll, tref.pitch])
                shift = np.array([base_ground, 0.0, 0.0])
                ref = np.clip(cand, u_min + shift, u_max + shift)
            except ValueError:
                pass  # degenerate support: keep the previous reference

        z_ref = [
            float(hip_height_from(ref[0], ref[1], ref[2], off)) for off in model.hip_offsets
        ]
        nsf_at_ref = [float(nsf_funcs[l](z_ref[l])) for l in range(4)]
        m = scenario.margin
        env = sum(
            abs(nsf_funcs[l](z_ref[l] + m) - nsf_funcs[l](z_ref[l] - m)) for l in range(4)
        )
        envelope_errors.append(float(env))
        planner_rows.append(
            dict(
                time=float(t),
                x=float(base[0]),
                u_z=float(ref[0]),
                u_roll=float(ref[1]),
                u_pitch=float(ref[2]),
                nsf_lf=nsf_at_ref[0],
                nsf_rf=nsf_at_ref[1],
                nsf_lh=nsf_at_ref[2],
                nsf_rh=nsf_at_ref[3],
                cost=cost_label,
                objective=float(objective),
                horizon=n_h,
            )
        )

    prev_stance = [True] * 4
    for k in range(n_ticks):
        t = k * dt
        phases = _leg_phases(t, phase0, freq, offsets)
        stance_now = phases < duty
        hips = hips_world()

        decisions_this_tick = ["", "", "", ""]
        for l in range(4):
            leg = legs[l]
            if k == 0:
                leg.stance = bool(stance_now[l])
                if not leg.stance:
                    s = (phases[l] - duty) / (1.0 - duty)
                    decision = vfa_for_leg(l, t, hips, t_remaining=(1.0 - s) * swing_time)
                    leg.target = decision.optimal
                    leg.trajectory = swing_trajectory(leg.foot, leg.target, apex)
                    decisions_this_tick[l] = (
                        FALLBACK_KEPT_NOMINAL_UNSAFE
                        if decision.fallback == FALLBACK_NO_SAFE_CELL
                        else decision.fallback
                    )
                continue
            if prev_stance[l] and not stance_now[l]:
                # lift-off: pick the touchdown target now
                decision = vfa_for_leg(l, t, hips, t_remaining=swing_time)
                leg.target = decision.optimal
                leg.trajectory = swing_trajectory(leg.foot, leg.target, apex)
                leg.stance = False
                decisions_this_tick[l] = (
                    FALLBACK_KEPT_NOMINAL_UNSAFE
                    if decision.fallback == FALLBACK_NO_SAFE_CELL
                    else decision.fallback
                )
            elif (not prev_stance[l]) and stance_now[l]:
                # touchdown: the foot is world-fixed at the target
                leg.foot = leg.target.copy()
                leg.stance = True
                leg.trajectory = None

        # Swing feet follow their arc.
        for l in range(4):
            leg = legs[l]
            if not stance_now[l] and leg.trajectory is not None:
                s = (phases[l] - duty) / (1.0 - duty)
                leg.foot = leg.trajectory.point_at(float(s))

        if k % planner_every == 0:
            planner_tick(t, hips, stance_now)

        actual = track_pose(actual, ref, dt, scenario.tau_track)
        hips = hips_world()

        # Detectors: a collision event is a foot or shin point penetrating
        # the terrain deeper than the corresponding criterion clearance; a
        # workspace event is a stance foot outside the shell.
        tick_collisions = 0
        tick_workspace = 0
        for l in range(4):
            leg = legs[l]
            foot = leg.foot
            hip = hips[l]
            if not stance_now[l]:
                s = (phases[l] - duty) / (1.0 - duty)
                if 0.02 < s < 0.98:
                    if foot[2] < sample_height(terrain, foot[0], foot[1]) - fec_config.fc_clearance:
                        tick_collisions += 1
            else:
                if foot[2] < sample_height(terrain, foot[0], foot[1]) - fec_config.fc_clearance:
                    tick_collisions += 1
                d = float(np.linalg.norm(hip - foot))
                if d < model.r_min - 1e-9 or d > model.r_max + 1e-9:
                    tick_workspace += 1
            # shin segment clearance (points near the foot are the foot)
            g = np.linspace(0.0, 1.0, 9)[1:]
            seg = foot[None, :] + (hip - foot)[None, :] * g[:, None]
            planar = g * math.hypot(hip[0] - foot[0], hip[1] - foot[1])
            keep = planar > model.foot_radius
            if np.any(keep):
                ground = sample_height(terrain, seg[keep, 0], seg[keep, 1])
                if np.any(seg[keep, 2] < ground - fec_config.lc_clearance):
                    tick_collisions += 1

        collisions_total += tick_collisions
        workspace_total += tick_workspace

        nsf_now = tuple(nsf_hold)
        rows.append(
            StepRow(
                time=t,
                x=base[0],
                y=base[1],
                yaw=yaw,
                cmd_z=ref[0],
                cmd_roll=ref[1],
                cmd_pitch=ref[2],
                act_z=actual[0],
                act_roll=actual[1],
                act_pitch=actual[2],
                nsf=nsf_now,
                decisions=tuple(decisions_this_tick),
                collisions=tick_collisions,
                workspace_violations=tick_workspace,
            )
        )

        prev_stance = [bool(v) for v in stance_now]
        # Base advances at the commanded twist.
        tw = world_twist()
        base = base + tw.planar * dt
        yaw += scenario.yaw_rate * dt

    # Aggregates -----------------------------------------------------------
    total_nsf = [sum(r.nsf) for r in rows]
    mean_total_nsf = float(np.mean(total_nsf)) if rows else 0.0
    dz, dpitch = [], []
    for a, b in zip(planner_rows[:-1], planner_rows[1:]):
        dx = b["x"] - a["x"]
        if abs(dx) > 1e-9:
            dz.append(abs((b["u_z"] - a["u_z"]) / dx))
            dpitch.append(abs((b["u_pitch"] - a["u_pitch"]) / dx))
    mae_z = float(np.mean([abs(r.act_z - r.cmd_z) for r in rows])) if rows else 0.0
    mae_p = float(np.mean([abs(r.act_pitch - r.cmd_pitch) for r in rows])) if rows else 0.0

    metrics = RunMetrics(
        success=(collisions_total == 0 and workspace_total == 0),
        collision_events=collisions_total,
        workspace_events=workspace_total,
        mean_total_nsf=mean_total_nsf,
        mean_abs_dz_dx=float(np.mean(dz)) if dz else 0.0,
        mean_abs_dpitch_dx=float(np.mean(dpitch)) if dpitch else 0.0,
        tracking_mae_z=mae_z,
        tracking_mae_pitch=mae_p,
        mean_envelope_error=float(np.mean(envelope_errors)) if envelope_errors else 0.0,
        final_x=float(rows[-1].x) if rows else float(base[0]),
        rows=rows,
        planner_rows=planner_rows,
        foothold_rows=foothold_rows,
        envelope_errors=envelope_errors,
    )
    if out_dir is not None:
        write_outputs(metrics, out_dir)
    return metrics


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

STEPLOG_HEADER = (
    "time,x,y,yaw,cmd_z,cmd_roll,cmd_pitch,act_z,act_roll,act_pitch,"
    "nsf_lf,nsf_rf,nsf_lh,nsf_rh,dec_lf,dec_rf,dec_lh,dec_rh,"
    "collisions,workspace_violations"
)


def steplog_csv(metrics: RunMetrics) -> str:
    lines = [STEPLOG_HEADER]
    for r in metrics.rows:
        lines.append(
            ",".join(
                [
                    repr(float(r.time)),
                    repr(float(r.x)),
                    repr(float(r.y)),
                    repr(float(r.yaw)),
                    repr(float(r.cmd_z)),
                    repr(float(r.cmd_roll)),
                    repr(float(r.cmd_pitch)),
                    repr(float(r.act_z)),
                    repr(float(r.act_roll)),
                    repr(float(r.act_pitch)),
                    *[repr(float(v)) for v in r.nsf],
                    *[d for d in r.decisions],
                    str(r.collisions),
                    str(r.workspace_violations),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_outputs(metrics: RunMetrics, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steplog.csv"), "w") as fh:
        fh.write(steplog_csv(metrics))
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("metric,value\n")
        for key, val in metrics.aggregates().items():
            fh.write(f"{key},{val!r}\n")
    with open(os.path.join(out_dir, "planner.csv"), "w") as fh:
        fh.write("time,u_z,u_roll,u_pitch,nsf_lf,nsf_rf,nsf_lh,nsf_rh,cost,objective,horizon\n")
        for row in metrics.planner_rows:
            fh.write(
                f"{row['time']!r},{row['u_z']!r},{row['u_roll']!r},{row['u_pitch']!r},"
                f"{row['nsf_lf']!r},{row['nsf_rf']!r},{row['nsf_lh']!r},{row['nsf_rh']!r},"
                f"{row['cost']},{row['objective']!r},{row['horizon']}\n"
            )
    with open(os.path.join(out_dir, "footholds.csv"), "w") as fh:
        fh.write("time,leg,nominal_x,nominal_y,nominal_z,optimal_x,optimal_y,optimal_z,n_sf,fallback\n")
        for row in metrics.foothold_rows:
            fh.write(
                f"{row['time']!r},{row['leg']},{row['nominal_x']!r},{row['nominal_y']!r},"
                f"{row['nominal_z']!r},{row['optimal_x']!r},{row['optimal_y']!r},"
                f"{row['optimal_z']!r},{row['n_sf']},{row['fallback']}\n"
            )


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
    lines = ["metric,a,b,delta"]
    for name, va, vb, dv in table:
        lines.append(f"{name},{va!r},{vb!r},{dv!r}")
    return "\n".join(lines) + "\n"

"""Quadruped geometry, gait descriptors, hip kinematics, and swing arcs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .terrain import TerrainMap, sample_height

LEG_NAMES = ("LF", "RF", "LH", "RH")


@dataclass(frozen=True)
class RobotModel:
    """Quadruped geometry.

    hip_offsets are base-frame (x, y, z) positions of the LF, RF, LH, RH
    hips.  The leg workspace is a spherical shell [r_min, r_max] about
    the hip.
    """

    hip_offsets: np.ndarray
    r_min: float = 0.30
    r_max: float = 0.75
    foot_radius: float = 0.02
    default_step_height: float = 0.12

    def __post_init__(self):
        object.__setattr__(
            self, "hip_offsets", np.asarray(self.hip_offsets, dtype=np.float64)
        )
        if self.hip_offsets.shape != (4, 3):
            raise ValueError("hip_offsets must be a 4x3 array (LF, RF, LH, RH)")
        if not (0 < self.r_min < self.r_max):
            raise ValueError("workspace shell needs 0 < r_min < r_max")
        if self.foot_radius <= 0:
            raise ValueError("foot_radius must be > 0")
        y = self.hip_offsets[:, 1]
        if not (
            math.isclose(abs(y[0]), abs(y[1]), abs_tol=1e-9)
            and math.isclose(abs(y[2]), abs(y[3]), abs_tol=1e-9)
        ):
            raise ValueError("hip offsets must be left/right symmetric in y")


_PRESETS = {
    # Plausible stand-in geometries; shell radii sized so both over- and
    # under-extension are reachable within the pose bounds.
    "hyq-like": dict(
        hip_offsets=[
            [0.37, 0.21, 0.0],
            [0.37, -0.21, 0.0],
            [-0.37, 0.21, 0.0],
            [-0.37, -0.21, 0.0],
        ],
        r_min=0.30,
        r_max=0.75,
        foot_radius=0.02,
        default_step_height=0.12,
    ),
    "hyqreal-like": dict(
        hip_offsets=[
            [0.44, 0.24, 0.0],
            [0.44, -0.24, 0.0],
            [-0.44, 0.24, 0.0],
            [-0.44, -0.24, 0.0],
        ],
        r_min=0.32,
        r_max=0.85,
        foot_radius=0.025,
        default_step_height=0.14,
    ),
}


def robot_preset(name: str) -> RobotModel:
    """Bundled robot models: 'hyq-like' and 'hyqreal-like'."""
    try:
        params = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown robot preset {name!r}") from None
    return RobotModel(np.array(params["hip_offsets"]), **{k: v for k, v in params.items() if k != "hip_offsets"})


@dataclass(frozen=True)
class GaitParams:
    """Gait descriptors: step length, frequency, duty factor, and the time
    remaining until the swinging leg touches down."""

    step_length: float = 0.14
    step_frequency: float = 1.4
    duty_factor: float = 0.5
    t_remaining: float = 0.0

    def __post_init__(self):
        if self.step_frequency <= 0:
            raise ValueError("step_frequency must be > 0")
        if not (0 < self.duty_factor < 1):
            raise ValueError("duty_factor must be in (0, 1)")
        if self.t_remaining < 0:
            raise ValueError("t_remaining must be >= 0")

    @property
    def cycle_duration(self) -> float:
        return 1.0 / self.step_frequency

    @property
    def stance_duration(self) -> float:
        return self.duty_factor / self.step_frequency

    @property
    def swing_duration(self) -> float:
        return (1.0 - self.duty_factor) / self.step_frequency


@dataclass(frozen=True)
class BodyTwist:
    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=np.float64))
        object.__setattr__(self, "angular", np.asarray(self.angular, dtype=np.float64))
        if self.linear.shape != (3,) or self.angular.shape != (3,):
            raise ValueError("twist components must be 3-vectors")
        if not (np.all(np.isfinite(self.linear)) and np.all(np.isfinite(self.angular))):
            raise ValueError("twist components must be finite")

    @property
    def planar(self) -> np.ndarray:
        """World-frame (vx, vy)."""
        return self.linear[:2]


@dataclass(frozen=True)
class Pose:
    """Body height plus roll/pitch: the pose-planner decision variables."""

    z_b: float
    roll: float = 0.0
    pitch: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.z_b, self.roll, self.pitch])

    @classmethod
    def from_array(cls, u) -> "Pose":
        u = np.asarray(u, dtype=np.float64)
        return cls(float(u[0]), float(u[1]), float(u[2]))


def hip_height_from(z_b, roll, pitch, hip_offset) -> np.ndarray:
    """World hip height for pose components and a base-frame hip offset.

    z_h = z_b - x*sin(pitch) + y*cos(pitch)*sin(roll) + z*cos(pitch)*cos(roll).
    Yaw does not appear: the hip height is yaw-independent.  Vectorized over
    any broadcastable pose-component arrays; offsets stacked as (n_legs, 3)
    broadcast along the pose components' last axis.
    """
    x, y, z = np.asarray(hip_offset, dtype=np.float64).T
    sg, cg = np.sin(pitch), np.cos(pitch)
    sb, cb = np.sin(roll), np.cos(roll)
    return z_b - x * sg + y * cg * sb + z * cg * cb


def hip_height(pose: Pose, hip_offset) -> float:
    return float(hip_height_from(pose.z_b, pose.roll, pose.pitch, hip_offset))


def rotation_matrix(roll: float, pitch: float, yaw: float = 0.0) -> np.ndarray:
    """Base-to-world rotation, Cardan roll-pitch-yaw sequence (Rz * Ry * Rx)."""
    cb, sb = math.cos(roll), math.sin(roll)
    cg, sg = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
    ry = np.array([[cg, 0, sg], [0, 1, 0], [-sg, 0, cg]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry @ rx


def nominal_foothold(
    hip_world, twist: BodyTwist, gait: GaitParams, terrain: TerrainMap
) -> np.ndarray:
    """Predicted touchdown point absent any adaptation.

    The hip ground projection is advanced by the planar velocity over the
    remaining swing time plus half the stance duration; the height snaps to
    the terrain under that point.
    """
    hip_world = np.asarray(hip_world, dtype=np.float64)
    lookahead = gait.t_remaining + 0.5 * gait.duty_factor / gait.step_frequency
    xy = hip_world[:2] + twist.planar * lookahead
    z = sample_height(terrain, float(xy[0]), float(xy[1]))
    return np.array([xy[0], xy[1], z])


def swing_arc_z(z_lo, z_td, s, apex_height):
    """Height profile of the swing arc: endpoint lerp plus a sine bump."""
    s = np.asarray(s, dtype=np.float64)
    return z_lo + (np.asarray(z_td) - z_lo) * s + apex_height * np.sin(np.pi * s)


@dataclass(frozen=True)
class SwingTrajectory:
    """Semi-elliptic swing arc over the straight line lift-off -> touchdown."""

    p_lo: np.ndarray
    p_td: np.ndarray
    apex_height: float

    def __post_init__(self):
        object.__setattr__(self, "p_lo", np.asarray(self.p_lo, dtype=np.float64))
        object.__setattr__(self, "p_td", np.asarray(self.p_td, dtype=np.float64))
        if self.apex_height < 0:
            raise ValueError("apex_height must be >= 0")

    def point_at(self, s: float) -> np.ndarray:
        """The arc point at swing phase ``s`` in [0, 1]; the ends are p_lo
        and p_td exactly."""
        s = float(np.clip(s, 0.0, 1.0))
        if s == 1.0:
            return self.p_td.copy()
        xy = self.p_lo[:2] + (self.p_td[:2] - self.p_lo[:2]) * s
        z = swing_arc_z(self.p_lo[2], self.p_td[2], s, self.apex_height)
        return np.array([xy[0], xy[1], float(z)])


def swing_trajectory(p_lo, p_td, apex_height: float) -> SwingTrajectory:
    return SwingTrajectory(p_lo, p_td, apex_height)


def workspace_contains(hip_world, foot, model: RobotModel) -> bool:
    """True iff the foot lies inside the spherical-shell leg workspace."""
    d = np.linalg.norm(np.asarray(foot, dtype=np.float64) - np.asarray(hip_world, dtype=np.float64))
    return bool(model.r_min <= d <= model.r_max)

"""Quadruped geometry, gait descriptors, hip kinematics, and swing arcs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .terrain import TerrainMap, sample_height

LEG_NAMES = ("LF", "RF", "LH", "RH")
STEP_FREQUENCY = 1.4  # Hz, gait cycles per second of every gait


@dataclass(frozen=True)
class RobotModel:
    """Quadruped geometry.

    hip_offsets are base-frame (x, y, z) positions of the LF, RF, LH, RH
    hips.  The leg workspace is a spherical shell [r_min, r_max] about
    the hip.  ``step_height`` is the apex of every swing arc.  A model
    comes from :func:`robot_preset`, a scenario changing at most its
    ``step_height`` to a value > 0, so it checks no field.
    """

    hip_offsets: np.ndarray
    r_min: float
    r_max: float
    foot_radius: float
    step_height: float

    def __post_init__(self):
        object.__setattr__(self, "hip_offsets", np.asarray(self.hip_offsets, dtype=np.float64))


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
        step_height=0.12,
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
        step_height=0.14,
    ),
}


def robot_preset(name: str) -> RobotModel:
    """Bundled robot models: 'hyq-like' and 'hyqreal-like'."""
    try:
        params = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown robot preset {name!r}") from None
    return RobotModel(**params)


@dataclass(frozen=True)
class GaitParams:
    """Gait descriptors: duty factor and the time remaining until the
    swinging leg touches down.  Every gait cycles at ``STEP_FREQUENCY``."""

    duty_factor: float = 0.5
    t_remaining: float = 0.0

    @property
    def stance_duration(self) -> float:
        return self.duty_factor / STEP_FREQUENCY

    @property
    def swing_duration(self) -> float:
        return (1.0 - self.duty_factor) / STEP_FREQUENCY


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


def rotation_matrix(roll: float, pitch: float, yaw: float = 0.0) -> np.ndarray:
    """Base-to-world rotation, Cardan roll-pitch-yaw sequence (Rz * Ry * Rx)."""
    cb, sb = math.cos(roll), math.sin(roll)
    cg, sg = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
    ry = np.array([[cg, 0, sg], [0, 1, 0], [-sg, 0, cg]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry @ rx


def nominal_foothold(hip_world, velocity, gait: GaitParams, terrain: TerrainMap) -> np.ndarray:
    """Predicted touchdown point absent any adaptation.

    The hip ground projection is advanced by the world (vx, vy) velocity
    over the remaining swing time plus half the stance duration; the height
    snaps to the terrain under that point.
    """
    hip_world = np.asarray(hip_world, dtype=np.float64)
    lookahead = gait.t_remaining + 0.5 * gait.stance_duration
    xy = hip_world[:2] + np.asarray(velocity, dtype=np.float64) * lookahead
    z = sample_height(terrain, float(xy[0]), float(xy[1]))
    return np.array([xy[0], xy[1], z])


def swing_arc_z(z_lo, z_td, s, apex_height):
    """Height profile of the swing arc: endpoint lerp plus a sine bump."""
    return z_lo + (z_td - z_lo) * s + apex_height * np.sin(np.pi * s)


def swing_points(p_lo, p_td, s, apex_height: float) -> np.ndarray:
    """Points of semi-elliptic swing arcs over the straight lines lift-off
    ``p_lo`` -> touchdown ``p_td`` (stacked (..., 3) rows) at swing phases
    ``s`` (shape (...)), clipped to [0, 1].  The ends are p_lo and p_td
    exactly."""
    p_lo = np.asarray(p_lo, dtype=np.float64)
    p_td = np.asarray(p_td, dtype=np.float64)
    s = np.clip(s, 0.0, 1.0)[..., None]
    points = p_lo + (p_td - p_lo) * s
    points[..., 2] = swing_arc_z(p_lo[..., 2], p_td[..., 2], s[..., 0], apex_height)
    return np.where(s == 1.0, p_td, points)

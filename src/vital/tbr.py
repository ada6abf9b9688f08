"""Terrain-based reference baseline: plane fit through the selected
footholds, orientation from the plane normal, height a constant offset
above the plane center.  Deliberately ignores safe-foothold counts.  The
result is a plain (z_b, roll, pitch) pose array, like every pose of the
planner."""

from __future__ import annotations

import math

import numpy as np

D_REF = 0.55  # m, height above the footholds; also a run's start height


def tbr_pose(footholds) -> np.ndarray:
    """Least-squares plane z = a*x + b*y + c through the footholds; returns
    the pose (z_b, roll, pitch).

    Roll/pitch come from the upward plane normal under the roll-pitch-yaw
    Cardan convention; the height reference is the foothold centroid height
    plus ``D_REF`` (parallel to gravity).  Raises on a degenerate
    support: fewer than 3 footholds, or collinear ones.
    """
    pts = np.asarray(footholds, dtype=np.float64)
    design = np.column_stack([pts[:, 0], pts[:, 1], np.ones(pts.shape[0])])
    if np.linalg.matrix_rank(design, tol=1e-9) < 3:
        raise ValueError("degenerate support polygon")
    coef, *_ = np.linalg.lstsq(design, pts[:, 2], rcond=None)
    a, b, _ = coef
    normal = np.array([-a, -b, 1.0])
    normal /= np.linalg.norm(normal)
    # Body z-axis aligned with the plane normal (yaw-free Cardan angles):
    # n = (sin(pitch)cos(roll), -sin(roll), cos(pitch)cos(roll)).
    roll = -math.asin(float(np.clip(normal[1], -1.0, 1.0)))
    pitch = math.atan2(float(normal[0]), float(normal[2]))
    z_b = float(pts[:, 2].mean() + D_REF)
    return np.array([z_b, roll, pitch])

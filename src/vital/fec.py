"""Foothold evaluation criteria over heightmaps.

Four boolean per-cell criteria are evaluated for every candidate foothold:

* TR (terrain roughness): mean and standard deviation of the absolute
  slopes to the 8 neighbors stay under thresholds; border cells use the
  neighbors that exist.
* LC (leg collision): the leg, approximated as the hip-to-foot segment,
  keeps a vertical clearance of at least ``LC_CLEARANCE`` above the
  heightmap at sampled instants of the coming swing and the following
  stance.  Segment points within ``foot_radius`` (planar) of the foot
  endpoint are exempt, as are points outside the heightmap.
* KF (kinematic feasibility): the candidate is inside the spherical-shell
  leg workspace at touchdown and at the next lift-off, and every swing-arc
  sample stays inside the shell of the hip interpolated over swing time.
* FC (foot trajectory collision): every interior sample of the swing arc
  from the current foot to the candidate clears the heightmap by at least
  ``FC_CLEARANCE``.

The swing arc is the one the feet fly, with the robot model's
``step_height`` as its apex.  The safe set is the element-wise AND of the
four criteria, shrunk by a Chebyshev erosion of ``EROSION_RADIUS`` cells as
an uncertainty margin, done with numpy slices like the rest of the
module, which needs no scipy.

The evaluator caches everything that does not depend on the hip height.
The LC clearance grows with the hip height, which reduces LC to a per-cell
hip-height threshold grid, built in one pass per segment sample over the
stacked swing and stance instants.  Grid x depends only on the row and
grid y only on the column, so sampled points and cell indices are computed
per row and per column; only the lookups are full-size.  They read a copy
of the map with a one-cell -inf border, so points off the map are exempt
without a mask.  The stance instants share the foot, so their heights are
maxed before one transform to a threshold.  A sweep over many hip heights
(pose evaluation) stacks their conjunctions and erodes them in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .robot import GaitParams, RobotModel, swing_arc_z
from .terrain import Heightmap

_NEIGHBOR_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]


# Criterion thresholds and sample counts.  The TR thresholds reject a clean
# 0.10 m riser edge on a 0.02 m grid while passing a 0.2-slope ramp.
TR_MEAN_MAX = 0.45
TR_STD_MAX = 0.30
LC_CLEARANCE = 0.02
LC_TIME_SAMPLES = 10
LC_SEGMENT_SAMPLES = 20
FC_CLEARANCE = 0.01
FC_ARC_SAMPLES = 12
EROSION_RADIUS = 1


def check_hip_height(z_h) -> None:
    """Raise ValueError unless every hip height is in (0, 2] m."""
    if not np.all((z_h > 0.0) & (z_h <= 2.0)):
        raise ValueError("hip_height outside the (0, 2] m sanity bound")


@dataclass
class SafetyGrid:
    """Per-criterion grids and the eroded safe set."""

    cells: np.ndarray  # eroded conjunction; the safe set
    tr: np.ndarray
    lc: np.ndarray
    kf: np.ndarray
    fc: np.ndarray


def count_safe(grid: SafetyGrid) -> int:
    """Number of safe candidate footholds (true cells after erosion)."""
    return int(np.count_nonzero(grid.cells))


def erode_safe_set(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev erosion over the last two axes, so a stack of grids erodes
    grid by grid: a true cell within ``radius`` of a false cell becomes
    false.  Cells outside the grid count as true, so they do not erode the
    border.  The square is separable, so each of ``radius`` rounds ANDs a
    copy of the mask in place with itself shifted one cell each way along
    rows, then along columns."""
    out = mask.copy()
    for _ in range(radius):
        out[..., 1:, :] &= out[..., :-1, :]
        out[..., :-1, :] &= out[..., 1:, :]
        out[..., 1:] &= out[..., :-1]
        out[..., :-1] &= out[..., 1:]
    return out


def eval_tr(heightmap: Heightmap) -> np.ndarray:
    """Terrain-roughness grid: neighbor-slope mean/std under thresholds."""
    h = heightmap.cells
    res = heightmap.resolution
    hx, hy = h.shape
    padded = np.full((hx + 2, hy + 2), np.nan)
    padded[1:-1, 1:-1] = h
    total = np.zeros_like(h)
    total_sq = np.zeros_like(h)
    count = np.zeros_like(h)
    for di, dj in _NEIGHBOR_OFFSETS:
        nb = padded[1 + di : 1 + di + hx, 1 + dj : 1 + dj + hy]
        dist = res * math.sqrt(2.0) if (di != 0 and dj != 0) else res
        slope = np.abs(nb - h) / dist
        valid = ~np.isnan(slope)
        slope = np.where(valid, slope, 0.0)
        total += slope
        total_sq += slope * slope
        count += valid
    mean = total / count
    var = total_sq / count - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return (mean <= TR_MEAN_MAX) & (std <= TR_STD_MAX)


class FecEvaluator:
    """Evaluates the criteria for one (heightmap, hip, velocity, gait) tuple
    at any hip height.  Build once, then call :meth:`evaluate` per hip
    height, or :meth:`sweep_counts` for the safe-foothold counts of many.

    ``hip_world_xy`` is the hip's world (x, y) at lift-off and ``velocity``
    the world (vx, vy) base velocity.  ``current_foot`` is the swing lift-off
    point; when omitted, the foot is assumed to rest on the center cell of
    the heightmap.

    All planar geometry is expressed in the heightmap's grid frame (origin
    at the map center, axes along the grid); distances and heights are
    invariant under that change of frame.
    """

    def __init__(
        self,
        heightmap: Heightmap,
        hip_world_xy,
        velocity,
        gait: GaitParams,
        model: RobotModel,
        current_foot=None,
    ):
        self.heightmap = heightmap
        self.model = model
        hm = heightmap
        # Grid-frame x of each row and y of each column, shapes (h_x, 1), (1, h_y).
        gx, gy = hm.grid_offsets()
        self.gx, self.gy = gx[:, :1], gy[:1]
        self.Z = hm.cells
        # Row-major heights with a one-cell -inf border, for _cell_index.
        self._bordered = np.pad(self.Z, 1, constant_values=-np.inf).ravel()
        self._i0 = 0.5 + (hm.h_x - 1) / 2.0
        self._j0 = 0.5 + (hm.h_y - 1) / 2.0

        if current_foot is None:
            current_foot = (hm.center[0], hm.center[1], hm.cells[hm.h_x // 2, hm.h_y // 2])
        foot = np.asarray(current_foot, dtype=np.float64)
        self._lo_gx, self._lo_gy = self._to_grid(foot[:2])
        self._lo_z = foot[2]

        hip_now = np.asarray(hip_world_xy, dtype=np.float64)
        v = np.asarray(velocity, dtype=np.float64)
        self.hip_now = self._to_grid(hip_now)
        self.hip_td = self._to_grid(hip_now + v * gait.t_remaining)
        self.hip_lo2 = self._to_grid(hip_now + v * (gait.t_remaining + gait.stance_duration))

        self.tr = eval_tr(hm)
        self._build_arc_tables()
        self._build_lc_threshold()

    def _to_grid(self, p_xy) -> np.ndarray:
        hm = self.heightmap
        c, s = math.cos(hm.yaw), math.sin(hm.yaw)
        dx = p_xy[0] - hm.center[0]
        dy = p_xy[1] - hm.center[1]
        return np.array([c * dx + s * dy, -s * dx + c * dy])

    def _cell_index(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """Flat index, into the -inf-bordered map, of the nearest cell under
        each grid-frame point.  ``gx`` varies along rows and ``gy`` along
        columns (shapes (..., h_x, 1) and (..., 1, h_y)), so the arithmetic
        runs per row and per column and only the sum is full-size.  Off-map
        points index the border, so they read -inf and pass every clearance
        test."""
        hm = self.heightmap
        gi = gx / hm.resolution
        gi += self._i0
        gj = gy / hm.resolution
        gj += self._j0
        np.clip(np.floor(gi, out=gi), -1, hm.h_x, out=gi)
        np.clip(np.floor(gj, out=gj), -1, hm.h_y, out=gj)
        gi *= hm.h_y + 2
        gj += hm.h_y + 3
        return gi.astype(np.intp) + gj.astype(np.intp)

    # -- static tables -------------------------------------------------

    def _build_arc_tables(self):
        """FC, and the KF tables: planar distances from the candidate to the
        hip at touchdown and at the next lift-off, and from each interior
        sample of the swing arc (lift-off foot to candidate) to the hip
        interpolated over swing time.  The arc endpoints are the
        candidate-independent current state and the touchdown check."""
        s = np.linspace(0.0, 1.0, FC_ARC_SAMPLES)[:, None, None]
        arc_x = (self._lo_gx + (self.gx - self._lo_gx) * s)[1:-1]
        arc_y = (self._lo_gy + (self.gy - self._lo_gy) * s)[1:-1]
        self.arc_z = swing_arc_z(self._lo_z, self.Z, s, self.model.step_height)[1:-1]
        hq = self._bordered.take(self._cell_index(arc_x, arc_y))
        self.fc = np.all(self.arc_z - hq >= FC_CLEARANCE, axis=0)

        self.td_planar2 = (self.gx - self.hip_td[0]) ** 2 + (self.gy - self.hip_td[1]) ** 2
        self.lo2_planar2 = (self.gx - self.hip_lo2[0]) ** 2 + (self.gy - self.hip_lo2[1]) ** 2
        hip_x = self.hip_now[0] + (self.hip_td[0] - self.hip_now[0]) * s[1:-1]
        hip_y = self.hip_now[1] + (self.hip_td[1] - self.hip_now[1]) * s[1:-1]
        self.arc_planar2 = (arc_x - hip_x) ** 2 + (arc_y - hip_y) ** 2

    def _build_lc_threshold(self):
        """Per-cell hip-height threshold above which the leg segment keeps
        the required clearance at every sampled instant and segment point.
        The clearance grows with the hip height, so LC reduces to this
        threshold comparison.  The stance instants share the foot, so
        z* = ((h + clear) + g Z) / g is one non-decreasing map of their
        looked-up heights h, and the max of z* is that map of the max h."""
        n_t = LC_TIME_SAMPLES
        frac = np.linspace(0.0, 1.0, n_t)
        s = frac[1:, None, None]
        # The instants, stacked on axis 0: n_t - 1 of the swing (foot on the
        # arc, hip advancing toward touchdown; the s = 0 instant is the
        # candidate-independent current state), then n_t of the stance
        # (foot at the candidate, hip advancing to the next lift-off).  Foot
        # and hip x vary along rows only, y along columns only.
        hip = [
            np.concatenate([now + (td - now) * frac[1:], td + (lo2 - td) * frac])[:, None, None]
            for now, td, lo2 in zip(self.hip_now, self.hip_td, self.hip_lo2)
        ]
        gx, gy = self.gx, self.gy
        fx = np.concatenate([self._lo_gx + (gx - self._lo_gx) * s, np.broadcast_to(gx, (n_t,) + gx.shape)])
        fy = np.concatenate([self._lo_gy + (gy - self._lo_gy) * s, np.broadcast_to(gy, (n_t,) + gy.shape)])
        dhx = hip[0] - fx
        dhy = hip[1] - fy
        span = np.hypot(dhx, dhy)
        # Foot heights of the swing instants, then one slot for the stance.
        fz = np.concatenate([swing_arc_z(self._lo_z, self.Z, s, self.model.step_height), self.Z[None]])
        clear = LC_CLEARANCE - fz
        thresh = np.full(fz.shape, -np.inf)
        # Skip g = 0: the foot endpoint is always inside its own exemption.
        for g in np.linspace(0.0, 1.0, LC_SEGMENT_SAMPLES)[1:]:
            idx = self._cell_index(fx + dhx * g, fy + dhy * g)
            # Points within the foot radius (planar) of the foot are exempt:
            # index 0 is a border cell, so they read -inf like the points
            # off the map, and their z* is -inf.
            idx *= span * g > self.model.foot_radius
            h = self._bordered.take(idx)
            z_star = h[:n_t]
            np.max(h[n_t - 1 :], axis=0, out=z_star[-1])
            z_star += clear
            z_star += g * fz
            z_star /= g
            np.maximum(thresh, z_star, out=thresh)
        self.lc_threshold = thresh.max(axis=0)

    # -- evaluation ------------------------------------------------------

    def lc_grid(self, z_h) -> np.ndarray:
        return z_h >= self.lc_threshold

    def kf_grid(self, z_h) -> np.ndarray:
        """KF at hip height ``z_h``: a float, or an (n, 1, 1) array of
        heights for an (n, h_x, h_y) stack of grids.  The candidate at
        touchdown and at the next lift-off, then each arc sample, is checked
        against the shell one at a time, in buffers the size of the result."""
        lo2, hi2 = self.model.r_min**2, self.model.r_max**2
        ok = np.ones(np.broadcast_shapes(np.shape(z_h), self.Z.shape), dtype=bool)
        d2, flag = np.empty(ok.shape), np.empty(ok.shape, dtype=bool)
        for planar2, z in [(self.td_planar2, self.Z), (self.lo2_planar2, self.Z), *zip(self.arc_planar2, self.arc_z)]:
            np.square(np.subtract(z_h, z, out=d2), out=d2)
            d2 += planar2
            ok &= np.greater_equal(d2, lo2, out=flag)
            ok &= np.less_equal(d2, hi2, out=flag)
        return ok

    def evaluate(self, z_h: float) -> SafetyGrid:
        check_hip_height(z_h)
        lc = self.lc_grid(z_h)
        kf = self.kf_grid(z_h)
        raw = self.tr & lc & kf & self.fc
        cells = erode_safe_set(raw, EROSION_RADIUS)
        return SafetyGrid(cells=cells, tr=self.tr.copy(), lc=lc, kf=kf, fc=self.fc.copy())

    def sweep_counts(self, z_values) -> np.ndarray:
        """Safe-foothold count for each hip height in ``z_values``: the
        conjunctions of all heights as one stack and one erosion."""
        z = np.asarray(z_values, dtype=np.float64)[:, None, None]
        check_hip_height(z)
        raw = self.lc_grid(z) & self.kf_grid(z) & (self.tr & self.fc)
        cells = erode_safe_set(raw, EROSION_RADIUS)
        return np.count_nonzero(cells, axis=(1, 2)).astype(np.int64)


def eval_fec(
    heightmap: Heightmap,
    hip,
    velocity,
    gait: GaitParams,
    model: RobotModel,
    current_foot=None,
) -> SafetyGrid:
    """Evaluate all criteria, conjoin them, and apply the uncertainty erosion,
    for the world (x, y, z) hip at lift-off."""
    return FecEvaluator(heightmap, hip[:2], velocity, gait, model, current_foot).evaluate(hip[2])

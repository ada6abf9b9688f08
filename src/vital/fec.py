"""Foothold evaluation criteria over heightmaps.

Four boolean per-cell criteria are evaluated for every candidate foothold:

* TR (terrain roughness): mean and standard deviation of the absolute
  slopes to the 8 neighbors stay under thresholds; border cells use the
  neighbors that exist.
* LC (leg collision): the leg, approximated as the hip-to-foot segment,
  keeps a vertical clearance of at least ``LC_CLEARANCE`` above the
  heightmap at sampled instants of the coming swing and the following
  stance.  The segment point a fraction g of the way from foot to hip is
  exempt when dx*dx + dy*dy <= (foot_radius / g)**2, (dx, dy) the planar
  hip-to-foot offset, as are points off the heightmap.
* KF (kinematic feasibility): the candidate is inside the spherical-shell
  leg workspace at touchdown and at the next lift-off, and every swing-arc
  sample stays inside the shell of the hip interpolated over swing time,
  with the hip at or above each of these check points.
* FC (foot trajectory collision): every interior sample of the swing arc
  from the current foot to the candidate clears the heightmap by at least
  ``FC_CLEARANCE``.

The swing arc is the one the feet fly, with the robot model's
``step_height`` as its apex.  The safe set is the element-wise AND of the
four criteria, shrunk by a Chebyshev erosion of ``EROSION_RADIUS`` cells as
an uncertainty margin, done with numpy slices like the rest of the
module, which needs no scipy.

The evaluator caches everything that does not depend on the hip height.  The
LC clearance grows with the hip height, which reduces LC to a per-cell
hip-height threshold grid.  Grid x depends only on the row and grid y only on
the column, so the segment points of all samples and the row and column parts
of their cell indices are computed per row and per column in one call, and
each instant's dx*dx + dy*dy is a row part plus a column part.  Each segment
sample then makes a few full-size passes over the stacked swing and stance
instants: the parts summed into one narrow-int index buffer, the exemption
compare in place, a lookup and the transform to a threshold.  The lookups
read a copy of the map with a one-cell -inf border that every index is
clamped into, so points off the map are exempt without a mask.  The stance
instants share the foot, so their heights are maxed before one transform.

A KF check (point height zk, planar squared distance p to its hip) passes
from zk + sqrt(max(r_min**2 - p, 0)) up to zk + sqrt(r_max**2 - p), so each
cell's KF set is one interval [kf_lo, kf_hi], the intersection over its
checks; a cell out of reach, or of a NaN hip, has an empty one.  Gated by TR
and FC and raised to the LC threshold, it is the cell's safe interval, and
the erosion's AND over a 3x3 window is the window's max of lower ends and
min of upper ends: [safe_lo, safe_hi], built once.  A sweep counts, at each
height, the sorted lower ends at or below it less the upper ends below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .robot import GaitParams, RobotModel, swing_arc_z
from .terrain import MAP_RESOLUTION, Heightmap

_NEIGHBOR_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
_NEIGHBOR_DIST = np.array([MAP_RESOLUTION * (math.sqrt(2.0) if di and dj else 1.0) for di, dj in _NEIGHBOR_OFFSETS])


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
FAR = 1e100  # m; a hip or foot this far off the map is out of reach of every cell

# Sample fractions: the interior swing-arc samples of FC and KF, shape
# (FC_ARC_SAMPLES - 2, 1, 1); LC's instants along the swing and the stance;
# LC's points g along the leg segment, without g = 0: the foot endpoint is
# always inside its own exemption.
_ARC_S = np.linspace(0.0, 1.0, FC_ARC_SAMPLES)[1:-1, None, None]
_LC_FRAC = np.linspace(0.0, 1.0, LC_TIME_SAMPLES)
_LC_G = np.linspace(0.0, 1.0, LC_SEGMENT_SAMPLES)[1:]


@dataclass
class SafetyGrid:
    """Per-criterion grids and the eroded safe set."""

    cells: np.ndarray  # eroded conjunction; the safe set
    tr: np.ndarray
    lc: np.ndarray
    kf: np.ndarray
    fc: np.ndarray


def erode_safe_set(grid: np.ndarray) -> np.ndarray:
    """Chebyshev erosion by ``EROSION_RADIUS`` over the last two axes, so a
    stack of grids erodes grid by grid: each cell becomes the minimum (AND on
    booleans, NaN if any is NaN) of the in-grid cells around it, so the
    border is not eroded.  The square is separable, so each round takes the
    minimum of a copy, in place, and itself shifted one cell each way along
    rows, then along columns."""
    out = grid.copy()
    for _ in range(EROSION_RADIUS):
        np.minimum(out[..., 1:, :], out[..., :-1, :], out=out[..., 1:, :])
        np.minimum(out[..., :-1, :], out[..., 1:, :], out=out[..., :-1, :])
        np.minimum(out[..., 1:], out[..., :-1], out=out[..., 1:])
        np.minimum(out[..., :-1], out[..., 1:], out=out[..., :-1])
    return out


def eval_tr(heightmap: Heightmap) -> np.ndarray:
    """Terrain-roughness grid: neighbor-slope mean/std under thresholds."""
    h = heightmap.cells
    hx, hy = h.shape
    padded = np.full((hx + 2, hy + 2), np.nan)
    padded[1:-1, 1:-1] = h
    # The slopes to the 8 neighbors, stacked on axis 0; a neighbor off the
    # map is NaN and counts as no slope.  Sums over axis 0 add the neighbors
    # in order, element by element.
    slope = np.stack([padded[1 + di : 1 + di + hx, 1 + dj : 1 + dj + hy] for di, dj in _NEIGHBOR_OFFSETS])
    slope -= h
    np.abs(slope, out=slope)
    slope /= _NEIGHBOR_DIST[:, None, None]
    count = len(_NEIGHBOR_OFFSETS) - np.add.reduce(np.isnan(slope), axis=0)
    np.fmax(slope, 0.0, out=slope)
    mean = np.add.reduce(slope, axis=0) / count
    var = np.add.reduce(np.multiply(slope, slope, out=slope), axis=0) / count - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return (mean <= TR_MEAN_MAX) & (std <= TR_STD_MAX)


class FecEvaluator:
    """The criteria of one (heightmap, hip, velocity, gait) tuple at any hip
    height; a hip out of reach of the map, or NaN, has no safe cell.  Build
    once, then :meth:`evaluate` one height or :meth:`sweep_counts` many.

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
        self.gx, self.gy = hm.grid_offsets()
        self.Z = hm.cells
        # Row-major heights with a one-cell -inf border, for _index_parts.
        bordered = np.full((hm.h_x + 2, hm.h_y + 2), -np.inf)
        bordered[1:-1, 1:-1] = self.Z
        self._bordered = bordered.ravel()
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
        # Each cell's eroded safe interval (module docstring).
        lo = np.where(self.tr & self.fc, np.maximum(self.kf_lo, self.lc_threshold), np.inf)
        self.safe_lo, self.safe_hi = -erode_safe_set(-lo), erode_safe_set(self.kf_hi)

    def _to_grid(self, p_xy) -> np.ndarray:
        """Grid-frame (x, y) of a world point; NaN for one at inf, NaN or
        ``FAR`` off the map, out of reach of every cell, so no later step warns."""
        hm = self.heightmap
        c, s = math.cos(hm.yaw), math.sin(hm.yaw)
        # In Python floats, 0 * inf, inf - inf and overflow give NaN or inf
        # and no warning.
        dx, dy = float(p_xy[0]) - float(hm.center[0]), float(p_xy[1]) - float(hm.center[1])
        gx, gy = c * dx + s * dy, -s * dx + c * dy
        return np.array([gx, gy] if abs(gx) < FAR and abs(gy) < FAR else [np.nan, np.nan])

    def _index_parts(self, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row and column parts, in the narrowest unsigned type that holds
        them, of the flat index into the -inf-bordered map of the nearest
        cell under each grid-frame point.  ``gx`` varies along rows and ``gy``
        along columns (shapes (..., h_x, 1) and (..., 1, h_y)), so all the
        arithmetic runs per row and per column.  Rows and columns, NaN too,
        are clamped into the border, so off-map points read -inf and pass
        every clearance test, and every sum of the parts lies in
        [0, bordered size): a take with ``mode="wrap"`` never wraps."""
        hm = self.heightmap
        gi = gx / MAP_RESOLUTION
        gi += self._i0
        gj = gy / MAP_RESOLUTION
        gj += self._j0
        np.fmin(np.fmax(np.floor(gi, out=gi), -1, out=gi), hm.h_x, out=gi)
        np.fmin(np.fmax(np.floor(gj, out=gj), -1, out=gj), hm.h_y, out=gj)
        gi += 1
        gi *= hm.h_y + 2
        gj += 1
        dtype = np.min_scalar_type(self._bordered.size - 1)
        return gi.astype(dtype), gj.astype(dtype)

    # -- static tables -------------------------------------------------

    def _build_arc_tables(self):
        """FC, and the KF interval [``kf_lo``, ``kf_hi``] of each cell over
        its checks stacked on axis 0: the candidate at touchdown and at the
        next lift-off, then the interior swing-arc samples (the arc's ends
        are the current state and touchdown)."""
        s = _ARC_S
        arc_x = self._lo_gx + (self.gx - self._lo_gx) * s
        arc_y = self._lo_gy + (self.gy - self._lo_gy) * s
        arc_z = swing_arc_z(self._lo_z, self.Z, s, self.model.step_height)
        rows, cols = self._index_parts(arc_x, arc_y)
        self.fc = np.all(arc_z - self._bordered.take(rows + cols, mode="wrap") >= FC_CLEARANCE, axis=0)

        hips = np.vstack([self.hip_td, self.hip_lo2, self.hip_now + (self.hip_td - self.hip_now) * s[:, 0]])
        x = np.concatenate([np.broadcast_to(self.gx, (2,) + self.gx.shape), arc_x])
        y = np.concatenate([np.broadcast_to(self.gy, (2,) + self.gy.shape), arc_y])
        p = (x - hips[:, :1, None]) ** 2 + (y - hips[:, 1:, None]) ** 2
        zk = np.concatenate([[self.Z, self.Z], arc_z])
        # sqrt(r_max**2 - p) is NaN out of reach and for a NaN hip; maximum
        # and min keep a NaN where fmax would drop it.
        with np.errstate(invalid="ignore"):
            hi = (zk + np.sqrt(self.model.r_max**2 - p)).min(axis=0)
        self.kf_lo = (zk + np.sqrt(np.maximum(self.model.r_min**2 - p, 0.0))).max(axis=0)
        self.kf_hi = np.where(np.isnan(hi), -np.inf, hi)

    def _build_lc_threshold(self):
        """Per-cell hip-height threshold above which the leg segment keeps
        the required clearance at every sampled instant and segment point.
        The clearance grows with the hip height, so LC reduces to this
        threshold comparison.  One :meth:`_index_parts` call indexes every
        segment sample; each sample g sums its parts into one buffer, zeroes
        in place those of instants with dx*dx + dy*dy <= (foot_radius / g)**2
        and takes the heights into another.  The stance instants share the
        foot, so z* = ((h + clear) + g Z) / g is one non-decreasing map of
        their looked-up heights h, and the max of z* is that map of the max h."""
        n_t, frac = LC_TIME_SAMPLES, _LC_FRAC
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
        span2 = dhx * dhx + dhy * dhy
        # Foot heights of the swing instants, then one slot for the stance.
        fz = np.concatenate([swing_arc_z(self._lo_z, self.Z, s, self.model.step_height), self.Z[None]])
        clear = LC_CLEARANCE - fz
        thresh = np.full(self.Z.shape, -np.inf)
        gs = _LC_G
        rows, cols = self._index_parts(fx + dhx * gs[:, None, None, None], fy + dhy * gs[:, None, None, None])
        idx, near, h = np.empty(span2.shape, rows.dtype), np.empty(span2.shape, bool), np.empty(span2.shape)
        gfz, top = np.empty(fz.shape), np.empty(self.Z.shape)
        z_star, stance, z_stance = h[:n_t], h[n_t - 1 :], h[n_t - 1]
        for g, c, i_part, j_part in zip(gs, (self.model.foot_radius / gs) ** 2, rows, cols):
            np.add(i_part, j_part, out=idx)
            # Exempt points take index 0, a border cell, so their z* is -inf.
            idx *= np.greater(span2, c, out=near)
            self._bordered.take(idx, out=h, mode="wrap")
            np.maximum.reduce(stance, axis=0, out=z_stance)
            z_star += clear
            z_star += np.multiply(g, fz, out=gfz)
            # fl(x / g) is non-decreasing in x: divide once, after the max.
            np.maximum.reduce(z_star, axis=0, out=top)
            top /= g
            np.maximum(thresh, top, out=thresh)
        self.lc_threshold = thresh

    # -- evaluation ------------------------------------------------------

    def evaluate(self, z_h: float) -> SafetyGrid:
        lc, kf = z_h >= self.lc_threshold, (self.kf_lo <= z_h) & (z_h <= self.kf_hi)
        cells = (self.safe_lo <= z_h) & (z_h <= self.safe_hi)
        return SafetyGrid(cells=cells, tr=self.tr, lc=lc, kf=kf, fc=self.fc)

    def sweep_counts(self, z_values) -> np.ndarray:
        """Safe-foothold count at each of the hip heights ``z_values``, in any
        order; a NaN or infinite height counts 0 (module docstring)."""
        live = self.safe_lo <= self.safe_hi
        lo, hi = np.sort(self.safe_lo[live]), np.sort(self.safe_hi[live])
        return lo.searchsorted(z_values, side="right") - hi.searchsorted(z_values, side="left")


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

"""Foothold evaluation criteria over heightmaps.

Four boolean per-cell criteria are evaluated for every candidate foothold:

* TR (terrain roughness): mean and standard deviation of the absolute
  slopes to the 8 neighbors stay under thresholds; border cells use the
  neighbors that exist.
* LC (leg collision): the leg, approximated as the hip-to-foot segment,
  keeps a vertical clearance of at least ``lc_clearance`` above the
  heightmap at sampled instants of the coming swing and the following
  stance.  Segment points within ``foot_radius`` (planar) of the foot
  endpoint are exempt, as are points outside the heightmap.
* KF (kinematic feasibility): the candidate is inside the spherical-shell
  leg workspace at touchdown and at the next lift-off, and every swing-arc
  sample stays inside the shell of the hip interpolated over swing time.
* FC (foot trajectory collision): every interior sample of the swing arc
  from the current foot to the candidate clears the heightmap by at least
  ``fc_clearance``.

The safe set is the element-wise AND of the four criteria, shrunk by a
Chebyshev erosion of ``erosion_radius`` cells as an uncertainty margin.

The evaluator caches everything that does not depend on the hip height, so
sweeping many hip heights over one heightmap (pose evaluation) costs little
more than a single evaluation.  In particular the LC clearance is monotone
increasing in hip height, which reduces LC to a per-cell hip-height
threshold grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .robot import BodyTwist, GaitParams, RobotModel, swing_arc_z
from .terrain import Heightmap

_NEIGHBOR_OFFSETS = (
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
)


@dataclass(frozen=True)
class FecConfig:
    """Thresholds and sample counts for the criteria.

    The thresholds are exposed configuration: defaults reject a clean
    0.10 m riser edge on a 0.02 m grid while passing a 0.2-slope ramp.
    """

    tr_mean_max: float = 0.45
    tr_std_max: float = 0.30
    lc_clearance: float = 0.02
    lc_time_samples: int = 10
    lc_segment_samples: int = 20
    fc_clearance: float = 0.01
    fc_arc_samples: int = 12
    erosion_radius: int = 1

    def __post_init__(self):
        if min(self.tr_mean_max, self.tr_std_max, self.lc_clearance, self.fc_clearance) < 0:
            raise ValueError("criterion thresholds must be >= 0")
        if min(self.lc_time_samples, self.lc_segment_samples, self.fc_arc_samples) < 2:
            raise ValueError("sample counts must be >= 2")
        if self.erosion_radius < 0:
            raise ValueError("erosion_radius must be >= 0")


@dataclass(frozen=True)
class FecInput:
    """Input tuple for one evaluation: heightmap, hip height (world),
    planar hip position, base twist, and gait parameters."""

    heightmap: Heightmap
    hip_height: float
    hip_world_xy: tuple[float, float]
    twist: BodyTwist
    gait: GaitParams

    def __post_init__(self):
        if not (0.0 < self.hip_height <= 2.0):
            raise ValueError("hip_height outside the (0, 2] m sanity bound")


@dataclass
class SafetyGrid:
    """Per-criterion grids, their conjunction, and the eroded safe set."""

    cells: np.ndarray  # eroded conjunction; the safe set
    raw: np.ndarray  # conjunction before erosion
    tr: np.ndarray
    lc: np.ndarray
    kf: np.ndarray
    fc: np.ndarray


def count_safe(grid: SafetyGrid) -> int:
    """Number of safe candidate footholds (true cells after erosion)."""
    return int(np.count_nonzero(grid.cells))


def erode_safe_set(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev erosion: a true cell within ``radius`` of a false cell
    becomes false.  Cells outside the grid do not erode the border."""
    if radius == 0:
        return mask.copy()
    size = 2 * radius + 1
    return ndimage.binary_erosion(
        mask, structure=np.ones((size, size), dtype=bool), border_value=1
    )


def eval_tr(heightmap: Heightmap, config: FecConfig) -> np.ndarray:
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
    return (mean <= config.tr_mean_max) & (std <= config.tr_std_max)


class FecEvaluator:
    """Evaluates the criteria for one (heightmap, twist, gait) tuple at any
    hip height.  Build once, then call :meth:`evaluate` per hip height.

    ``current_foot`` is the swing lift-off point; when omitted, the foot is
    assumed to rest on the center cell of the heightmap.

    All planar geometry is expressed in the heightmap's grid frame (origin
    at the map center, axes along the grid); distances and heights are
    invariant under that change of frame.
    """

    def __init__(
        self,
        heightmap: Heightmap,
        hip_world_xy,
        twist: BodyTwist,
        gait: GaitParams,
        model: RobotModel,
        config: FecConfig,
        current_foot=None,
    ):
        self.heightmap = heightmap
        self.model = model
        self.config = config
        hm = heightmap
        self.GX, self.GY = hm.grid_offsets()
        self.Z = hm.cells
        self._i0 = 0.5 + (hm.h_x - 1) / 2.0
        self._j0 = 0.5 + (hm.h_y - 1) / 2.0

        if current_foot is None:
            ci, cj = hm.h_x // 2, hm.h_y // 2
            current_foot = np.array([hm.center[0], hm.center[1], hm.cells[ci, cj]])
        self.p_lo = np.asarray(current_foot, dtype=np.float64)
        lo_g = self._to_grid(self.p_lo[:2])
        self._lo_gx, self._lo_gy, self._lo_z = lo_g[0], lo_g[1], self.p_lo[2]

        hip_now = np.asarray(hip_world_xy, dtype=np.float64)
        v = twist.planar
        self.hip_now = self._to_grid(hip_now)
        self.hip_td = self._to_grid(hip_now + v * gait.t_remaining)
        self.hip_lo2 = self._to_grid(hip_now + v * (gait.t_remaining + gait.stance_duration))
        self.apex = model.default_step_height

        self.tr = eval_tr(hm, config)
        self._build_arc_tables(config.fc_arc_samples)
        self._build_fc()
        self._build_kf_tables()
        self._build_lc_threshold(config.lc_time_samples)

    def _to_grid(self, p_xy) -> np.ndarray:
        hm = self.heightmap
        c, s = math.cos(hm.yaw), math.sin(hm.yaw)
        dx = p_xy[0] - hm.center[0]
        dy = p_xy[1] - hm.center[1]
        return np.array([c * dx + s * dy, -s * dx + c * dy])

    def _heights_at(self, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-cell heights under grid-frame points; flags in-grid."""
        hm = self.heightmap
        gi = np.floor(gx / hm.resolution + self._i0)
        gj = np.floor(gy / hm.resolution + self._j0)
        ingrid = (gi >= 0) & (gi < hm.h_x) & (gj >= 0) & (gj < hm.h_y)
        ii = gi.astype(np.intp)
        jj = gj.astype(np.intp)
        np.clip(ii, 0, hm.h_x - 1, out=ii)
        np.clip(jj, 0, hm.h_y - 1, out=jj)
        return self.Z[ii, jj], ingrid

    # -- static tables -------------------------------------------------

    def _build_arc_tables(self, n: int):
        # Swing arc from the lift-off foot to every candidate cell.
        s = np.linspace(0.0, 1.0, n)[:, None, None]
        self.arc_s = s
        self.arc_x = self._lo_gx + (self.GX[None] - self._lo_gx) * s
        self.arc_y = self._lo_gy + (self.GY[None] - self._lo_gy) * s
        self.arc_z = swing_arc_z(self._lo_z, self.Z[None], s, self.apex)

    def _build_fc(self):
        c = self.config
        hq, ingrid = self._heights_at(self.arc_x[1:-1], self.arc_y[1:-1])
        ok = ~ingrid | (self.arc_z[1:-1] - hq >= c.fc_clearance)
        self.fc = np.all(ok, axis=0)

    def _build_kf_tables(self):
        self.td_planar2 = (self.GX - self.hip_td[0]) ** 2 + (self.GY - self.hip_td[1]) ** 2
        self.lo2_planar2 = (self.GX - self.hip_lo2[0]) ** 2 + (self.GY - self.hip_lo2[1]) ** 2
        # Hip interpolated over swing time against the interior arc samples;
        # the endpoints are the (candidate-independent) current state and
        # the touchdown check above.
        hip_x = self.hip_now[0] + (self.hip_td[0] - self.hip_now[0]) * self.arc_s[1:-1]
        hip_y = self.hip_now[1] + (self.hip_td[1] - self.hip_now[1]) * self.arc_s[1:-1]
        self.arc_planar2 = (self.arc_x[1:-1] - hip_x) ** 2 + (self.arc_y[1:-1] - hip_y) ** 2
        self.arc_z_kf = self.arc_z[1:-1]

    def _build_lc_threshold(self, n_t: int):
        """Per-cell hip-height threshold above which the leg segment keeps
        the required clearance at every sampled instant and segment point.
        The clearance grows with the hip height, so LC reduces to this
        threshold comparison."""
        c = self.config
        frac = np.linspace(0.0, 1.0, n_t)
        # Skip g = 0: the foot endpoint is always inside its own exemption.
        g = np.linspace(0.0, 1.0, c.lc_segment_samples)[1:][:, None, None]
        d_min = c.lc_clearance
        r_f = self.model.foot_radius
        thresh = np.full(self.Z.shape, -np.inf)

        instants = []
        for k in range(1, n_t):
            # swing: foot on the arc, hip advancing toward touchdown; the
            # s = 0 instant is the candidate-independent current state.
            s = frac[k]
            hip = self.hip_now + (self.hip_td - self.hip_now) * s
            fx = self._lo_gx + (self.GX - self._lo_gx) * s
            fy = self._lo_gy + (self.GY - self._lo_gy) * s
            fz = swing_arc_z(self._lo_z, self.Z, s, self.apex)
            instants.append((hip, fx, fy, fz))
        for k in range(n_t):
            # stance: foot at the candidate, hip advancing to next lift-off
            hip = self.hip_td + (self.hip_lo2 - self.hip_td) * frac[k]
            instants.append((hip, self.GX, self.GY, self.Z))

        for hip, fx, fy, fz in instants:
            dhx = hip[0] - fx
            dhy = hip[1] - fy
            qx = fx + dhx * g
            qy = fy + dhy * g
            planar = np.hypot(dhx, dhy) * g
            hq, ingrid = self._heights_at(qx, qy)
            constrained = ingrid & (planar > r_f)
            z_star = hq + (d_min - fz) + g * fz
            z_star /= g
            z_star[~constrained] = -np.inf
            np.maximum(thresh, z_star.max(axis=0), out=thresh)
        self.lc_threshold = thresh

    # -- evaluation ------------------------------------------------------

    def lc_grid(self, z_h: float) -> np.ndarray:
        return z_h >= self.lc_threshold

    def kf_grid(self, z_h: float) -> np.ndarray:
        lo2, hi2 = self.model.r_min**2, self.model.r_max**2
        d2 = self.td_planar2 + (z_h - self.Z) ** 2
        ok = (d2 >= lo2) & (d2 <= hi2)
        d2 = self.lo2_planar2 + (z_h - self.Z) ** 2
        ok &= (d2 >= lo2) & (d2 <= hi2)
        d2 = self.arc_planar2 + (z_h - self.arc_z_kf) ** 2
        ok &= np.all((d2 >= lo2) & (d2 <= hi2), axis=0)
        return ok

    def evaluate(self, z_h: float) -> SafetyGrid:
        if not (0.0 < z_h <= 2.0):
            raise ValueError("hip_height outside the (0, 2] m sanity bound")
        lc = self.lc_grid(z_h)
        kf = self.kf_grid(z_h)
        raw = self.tr & lc & kf & self.fc
        cells = erode_safe_set(raw, self.config.erosion_radius)
        return SafetyGrid(
            cells=cells, raw=raw, tr=self.tr.copy(), lc=lc, kf=kf, fc=self.fc.copy()
        )

    def sweep_counts(self, z_values) -> np.ndarray:
        """Safe-foothold count for each hip height in ``z_values``."""
        return np.array(
            [np.count_nonzero(self.evaluate(float(z)).cells) for z in z_values],
            dtype=np.int64,
        )


def eval_fec(
    fec_input: FecInput,
    model: RobotModel,
    config: FecConfig,
    current_foot=None,
) -> SafetyGrid:
    """Evaluate all criteria, conjoin them, and apply the uncertainty erosion."""
    return FecEvaluator(
        fec_input.heightmap,
        fec_input.hip_world_xy,
        fec_input.twist,
        fec_input.gait,
        model,
        config,
        current_foot=current_foot,
    ).evaluate(fec_input.hip_height)

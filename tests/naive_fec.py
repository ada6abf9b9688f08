"""Independent brute-force re-implementation of the foothold evaluation
criteria, written as plain per-cell loops from the documented definitions.
Used as the oracle for bit-identical comparison against the fast evaluator.
The reference loops at the end recompute FecEvaluator's FC, LC threshold
and sweep tables one instant and one hip height at a time.
"""

import math

import numpy as np

from vital.fec import (
    EROSION_RADIUS,
    FC_ARC_SAMPLES,
    FC_CLEARANCE,
    LC_CLEARANCE,
    LC_SEGMENT_SAMPLES,
    LC_TIME_SAMPLES,
    TR_MEAN_MAX,
    TR_STD_MAX,
)
from vital.robot import swing_arc_z
from vital.terrain import MAP_RESOLUTION

NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def naive_tr(heightmap):
    h = heightmap.cells
    hx, hy = h.shape
    res = MAP_RESOLUTION
    out = np.zeros((hx, hy), dtype=bool)
    for i in range(hx):
        for j in range(hy):
            total = 0.0
            total_sq = 0.0
            count = 0
            for di, dj in NEIGHBORS:
                ni, nj = i + di, j + dj
                if not (0 <= ni < hx and 0 <= nj < hy):
                    continue
                dist = res * math.sqrt(2.0) if (di != 0 and dj != 0) else res
                slope = abs(h[ni, nj] - h[i, j]) / dist
                total += slope
                total_sq += slope * slope
                count += 1
            mean = total / count
            var = total_sq / count - mean * mean
            std = math.sqrt(max(var, 0.0))
            out[i, j] = (mean <= TR_MEAN_MAX) and (std <= TR_STD_MAX)
    return out


def naive_erode(grid):
    """Chebyshev erosion of one 2-D grid by ``EROSION_RADIUS``, one window
    offset at a time: each cell becomes the minimum of the in-grid cells
    within the radius of it (AND on booleans, NaN if any is NaN)."""
    r = EROSION_RADIUS
    hx, hy = grid.shape
    out = grid.copy()
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            # The cells whose neighbour at (di, dj) is in the grid, and those neighbours.
            near = out[max(-di, 0) : hx - max(di, 0), max(-dj, 0) : hy - max(dj, 0)]
            np.minimum(near, grid[max(di, 0) : hx + min(di, 0), max(dj, 0) : hy + min(dj, 0)], out=near)
    return out


class NaiveFec:
    """Grid-frame per-cell evaluation of TR, LC, KF, FC plus erosion."""

    def __init__(self, heightmap, hip_world_xy, velocity, gait, model, current_foot=None):
        self.hm = heightmap
        self.model = model
        hm = heightmap
        self.res = MAP_RESOLUTION
        self.hx, self.hy = hm.cells.shape
        gx = (np.arange(self.hx) - (self.hx - 1) / 2.0) * self.res
        gy = (np.arange(self.hy) - (self.hy - 1) / 2.0) * self.res
        self.GX, self.GY = np.meshgrid(gx, gy, indexing="ij")
        self.Z = hm.cells

        if current_foot is None:
            ci, cj = self.hx // 2, self.hy // 2
            current_foot = np.array([hm.center[0], hm.center[1], hm.cells[ci, cj]])
        foot_g = self._world_to_grid(current_foot[0], current_foot[1])
        self.lo = (foot_g[0], foot_g[1], float(current_foot[2]))

        v = np.asarray(velocity, dtype=float)
        hip = np.asarray(hip_world_xy, dtype=float)
        self.hip_now = self._world_to_grid(*hip)
        td = hip + v * gait.t_remaining
        self.hip_td = self._world_to_grid(*td)
        lo2 = td + v * gait.stance_duration
        self.hip_lo2 = self._world_to_grid(*lo2)
        self.apex = model.step_height

    def _world_to_grid(self, x, y):
        hm = self.hm
        c, s = math.cos(hm.yaw), math.sin(hm.yaw)
        dx, dy = x - hm.center[0], y - hm.center[1]
        return (c * dx + s * dy, -s * dx + c * dy)

    def _cell_height(self, gx, gy):
        """Height of the containing cell, or None outside the grid."""
        i = math.floor(gx / self.res + 0.5 + (self.hx - 1) / 2.0)
        j = math.floor(gy / self.res + 0.5 + (self.hy - 1) / 2.0)
        if 0 <= i < self.hx and 0 <= j < self.hy:
            return self.Z[int(i), int(j)]
        return None

    def _arc_point(self, i, j, s):
        x0, y0, z0 = self.lo
        ax = x0 + (self.GX[i, j] - x0) * s
        ay = y0 + (self.GY[i, j] - y0) * s
        az = z0 + (self.Z[i, j] - z0) * s + self.apex * math.sin(math.pi * s)
        return ax, ay, az

    def fc_cell(self, i, j):
        fracs = np.linspace(0.0, 1.0, FC_ARC_SAMPLES)
        for s in fracs[1:-1]:
            ax, ay, az = self._arc_point(i, j, s)
            ground = self._cell_height(ax, ay)
            if ground is None:
                continue
            if not (az - ground >= FC_CLEARANCE):
                return False
        return True

    def kf_cell(self, i, j, z_h):
        """KF: at touchdown, at the next lift-off and at each interior arc
        sample, the hip is at or above the check point and within the shell."""
        lo2, hi2 = self.model.r_min**2, self.model.r_max**2
        checks = [(self.GX[i, j], self.GY[i, j], self.Z[i, j], hip) for hip in (self.hip_td, self.hip_lo2)]
        fracs = np.linspace(0.0, 1.0, FC_ARC_SAMPLES)
        for s in fracs[1:-1]:
            hx = self.hip_now[0] + (self.hip_td[0] - self.hip_now[0]) * s
            hy = self.hip_now[1] + (self.hip_td[1] - self.hip_now[1]) * s
            checks.append((*self._arc_point(i, j, s), (hx, hy)))
        for px, py, pz, (hx, hy) in checks:
            d2 = (px - hx) ** 2 + (py - hy) ** 2 + (z_h - pz) ** 2
            if not (z_h >= pz and d2 >= lo2 and d2 <= hi2):
                return False
        return True

    def lc_cell(self, i, j, z_h):
        d_min = LC_CLEARANCE
        t_fracs = np.linspace(0.0, 1.0, LC_TIME_SAMPLES)
        g_fracs = np.linspace(0.0, 1.0, LC_SEGMENT_SAMPLES)[1:]
        # Sample g is exempt where the squared planar span is at most this.
        cutoffs = (self.model.foot_radius / g_fracs) ** 2
        configs = []
        for s in t_fracs[1:]:
            hip = (
                self.hip_now[0] + (self.hip_td[0] - self.hip_now[0]) * s,
                self.hip_now[1] + (self.hip_td[1] - self.hip_now[1]) * s,
            )
            configs.append((hip, self._arc_point(i, j, s)))
        for s in t_fracs:
            hip = (
                self.hip_td[0] + (self.hip_lo2[0] - self.hip_td[0]) * s,
                self.hip_td[1] + (self.hip_lo2[1] - self.hip_td[1]) * s,
            )
            configs.append((hip, (self.GX[i, j], self.GY[i, j], self.Z[i, j])))
        for (hx, hy), (fx, fy, fz) in configs:
            dx, dy = hx - fx, hy - fy
            span2 = dx * dx + dy * dy
            for g, cutoff in zip(g_fracs, cutoffs):
                if span2 <= cutoff:
                    continue  # the foot's own exemption zone
                qx = fx + (hx - fx) * g
                qy = fy + (hy - fy) * g
                ground = self._cell_height(qx, qy)
                if ground is None:
                    continue
                qz = (1.0 - g) * fz + g * z_h
                if not (qz - ground >= d_min):
                    return False
        return True

    def evaluate(self, z_h):
        tr = naive_tr(self.hm)
        lc = np.zeros((self.hx, self.hy), dtype=bool)
        kf = np.zeros_like(lc)
        fc = np.zeros_like(lc)
        for i in range(self.hx):
            for j in range(self.hy):
                lc[i, j] = self.lc_cell(i, j, z_h)
                kf[i, j] = self.kf_cell(i, j, z_h)
                fc[i, j] = self.fc_cell(i, j)
        raw = tr & lc & kf & fc
        cells = naive_erode(raw)
        return dict(tr=tr, lc=lc, kf=kf, fc=fc, raw=raw, cells=cells)


# ---------------------------------------------------------------------------
# Reference loops for the stacked FecEvaluator tables
# ---------------------------------------------------------------------------
#
# FecEvaluator stacks the LC instants, reads heights from a map with a
# -inf border and sweeps all hip heights in one pass.  These are the
# per-instant and per-height loops with in-grid masks that it replaced,
# with the same arithmetic, so the comparison is exact.


def _heights_in_grid(ev, gx, gy):
    """Nearest-cell heights under grid-frame points; flags in-grid."""
    hm = ev.heightmap
    gi = np.floor(gx / MAP_RESOLUTION + (0.5 + (hm.h_x - 1) / 2.0))
    gj = np.floor(gy / MAP_RESOLUTION + (0.5 + (hm.h_y - 1) / 2.0))
    ingrid = (gi >= 0) & (gi < hm.h_x) & (gj >= 0) & (gj < hm.h_y)
    ii = np.clip(gi.astype(np.intp), 0, hm.h_x - 1)
    jj = np.clip(gj.astype(np.intp), 0, hm.h_y - 1)
    return ev.Z[ii, jj], ingrid


def loop_fc(ev):
    """FC of an evaluator's swing arcs; off-map arc samples are exempt."""
    s = np.linspace(0.0, 1.0, FC_ARC_SAMPLES)[:, None, None]
    GX, GY = ev.heightmap.grid_offsets()
    arc_x = ev._lo_gx + (GX[None] - ev._lo_gx) * s
    arc_y = ev._lo_gy + (GY[None] - ev._lo_gy) * s
    arc_z = swing_arc_z(ev._lo_z, ev.Z[None], s, ev.model.step_height)
    hq, ingrid = _heights_in_grid(ev, arc_x[1:-1], arc_y[1:-1])
    return np.all(~ingrid | (arc_z[1:-1] - hq >= FC_CLEARANCE), axis=0)


def loop_lc_threshold(ev, skip=()):
    """Per-cell LC hip-height threshold of an evaluator, one instant at a
    time; off-map segment points are exempt.  ``skip`` lists instants to
    leave out, numbered as FecEvaluator stacks them: the swing ones, then
    the stance ones."""
    frac = np.linspace(0.0, 1.0, LC_TIME_SAMPLES)
    g = np.linspace(0.0, 1.0, LC_SEGMENT_SAMPLES)[1:][:, None, None]
    GX, GY = ev.heightmap.grid_offsets()
    thresh = np.full(ev.Z.shape, -np.inf)
    instants = []
    for s in frac[1:]:
        hip = ev.hip_now + (ev.hip_td - ev.hip_now) * s
        fx = ev._lo_gx + (GX - ev._lo_gx) * s
        fy = ev._lo_gy + (GY - ev._lo_gy) * s
        instants.append((hip, fx, fy, swing_arc_z(ev._lo_z, ev.Z, s, ev.model.step_height)))
    for s in frac:
        instants.append((ev.hip_td + (ev.hip_lo2 - ev.hip_td) * s, GX, GY, ev.Z))
    for k, (hip, fx, fy, fz) in enumerate(instants):
        if k in skip:
            continue
        dhx = hip[0] - fx
        dhy = hip[1] - fy
        span2 = dhx * dhx + dhy * dhy
        hq, ingrid = _heights_in_grid(ev, fx + dhx * g, fy + dhy * g)
        z_star = hq + (LC_CLEARANCE - fz) + g * fz
        z_star /= g
        z_star[~(ingrid & (span2 > (ev.model.foot_radius / g) ** 2))] = -np.inf
        np.maximum(thresh, z_star.max(axis=0), out=thresh)
    return thresh


def loop_sweep_counts(ev, z_values):
    """Safe-foothold count per hip height: the per-cell erosion of the
    conjunction of the criterion grids at each height, not the evaluator's
    safe intervals."""
    grids = [ev.evaluate(float(z)) for z in z_values]
    return np.array([np.count_nonzero(naive_erode(g.tr & g.lc & g.kf & g.fc)) for g in grids], dtype=np.int64)

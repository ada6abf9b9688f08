"""Synthetic continuous terrains and heightmap patch extraction.

Terrains are analytic 2.5D height fields (height as a function of world
x, y).  Heightmaps are square grid patches sampled from a terrain, aligned
with the robot's horizontal frame (gravity-perpendicular, rotated by the
base yaw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TERRAIN_KINDS = ("flat", "stairs", "gapped_stairs", "rough", "composite")
MAP_CELLS = 33  # heightmap cells per side; odd, because the centre cell is the nominal foothold
MAP_RESOLUTION = 0.02  # m, the cell size of every heightmap
GAP_WIDTH = 0.08  # m, the gap at the end of each gapped_stairs tread
GAP_DEPTH = 1.0  # m, how far below its tread a gap reads
PLATEAU = 0.5  # m, the flat top of a composite between ascent and descent

# splitmix64 constants for the deterministic lattice-noise hash
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# Lattice offsets of the four corners around a point: 00, 10, 01, 11.
_CORNER_DX = np.array([0, 1, 0, 1])
_CORNER_DY = np.array([0, 0, 1, 1])


@dataclass(frozen=True)
class TerrainMap:
    """Parametric terrain description.

    kind-specific parameters:
      stairs/gapped_stairs/composite: rise, going, n_steps, start_x
      rough: cell (lattice cell size), amplitude, seed
    """

    kind: str = "flat"
    rise: float = 0.10
    going: float = 0.25
    n_steps: int = 5
    start_x: float = 0.0
    cell: float = 0.30
    amplitude: float = 0.06
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TERRAIN_KINDS:
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        if self.kind in ("stairs", "gapped_stairs", "composite"):
            if self.rise <= 0 or self.going < MAP_RESOLUTION or self.n_steps < 1:
                raise ValueError(f"stairs need rise > 0, going >= MAP_RESOLUTION ({MAP_RESOLUTION} m), n_steps >= 1")
            # A composite climbs the stairs and descends them again.
            try:
                span = 2.0 * max(self.rise, self.going) * self.n_steps
            except OverflowError:  # n_steps beyond every float
                span = math.inf
            if not math.isfinite(span):
                raise ValueError("stairs need 2 * rise * n_steps and 2 * going * n_steps finite")
        if self.kind == "gapped_stairs" and self.going <= GAP_WIDTH:
            raise ValueError(f"gapped_stairs need going > GAP_WIDTH ({GAP_WIDTH} m), or every tread is gap")
        if self.kind == "rough" and (self.cell < MAP_RESOLUTION or self.amplitude < 0):
            raise ValueError(f"rough terrain needs cell >= MAP_RESOLUTION ({MAP_RESOLUTION} m) and amplitude >= 0")


def _hash01(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic hash of int64 lattice coordinate arrays (at least 1-d)
    to [0, 1).  uint64 wrap-around is the hash; numpy warns about it only
    on scalars, never on arrays."""
    seed_mix = np.uint64((seed * 0x9E3779B97F4A7C15) % (1 << 64))
    h = ix.view(np.uint64) * _GOLDEN
    h ^= iy.view(np.uint64) * _MIX1
    h += seed_mix
    h ^= h >> np.uint64(30)
    h *= _MIX1
    h ^= h >> np.uint64(27)
    h *= _MIX2
    h ^= h >> np.uint64(31)
    return h.astype(np.float64) / float(2**64)


def _stairs_height(t: TerrainMap, x: np.ndarray) -> np.ndarray:
    u = x - t.start_x
    top = t.rise * t.n_steps
    h = t.rise * (1.0 + np.floor(u / t.going))
    h = np.clip(h, 0.0, top)
    return np.where(u >= 0.0, h, 0.0)


def _gapped_stairs_height(t: TerrainMap, x: np.ndarray) -> np.ndarray:
    h = _stairs_height(t, x)
    u = x - t.start_x
    extent = t.n_steps * t.going
    pos = np.mod(u, t.going)
    in_gap = (u >= 0.0) & (u < extent) & (pos >= t.going - GAP_WIDTH)
    return np.where(in_gap, h - GAP_DEPTH, h)


def _rough_height(t: TerrainMap, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Seeded value noise: bilinear interpolation of hashed lattice values.
    gx = x / t.cell
    gy = y / t.cell
    ix = np.floor(gx)
    iy = np.floor(gy)
    fx = gx - ix
    fy = gy - iy
    h00, h10, h01, h11 = _hash01(
        np.add.outer(_CORNER_DX, ix.astype(np.int64)), np.add.outer(_CORNER_DY, iy.astype(np.int64)), t.seed
    )
    ux = 1.0 - fx
    top = h00 * ux + h10 * fx
    bot = h01 * ux + h11 * fx
    val = top * (1.0 - fy) + bot * fy
    return (val - 0.5) * t.amplitude


def _composite_height(t: TerrainMap, x: np.ndarray) -> np.ndarray:
    # Ascending stairs, flat plateau, then mirrored descending stairs.
    u = x - t.start_x
    extent = t.n_steps * t.going
    top = t.rise * t.n_steps
    d = u - extent - PLATEAU
    # The step index is clipped before the product, which stays in [0, top].
    down = top - t.rise * np.clip(1.0 + np.floor(d / t.going), 0.0, t.n_steps)
    h = np.where(u < extent + PLATEAU, _stairs_height(t, x), down)
    return np.where(u >= 0.0, h, 0.0)


def sample_height(terrain: TerrainMap, x, y):
    """Ground-truth terrain height at world (x, y).  Accepts scalars or arrays."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if terrain.kind == "flat":
        h = 0.0
    elif terrain.kind == "stairs":
        h = _stairs_height(terrain, xa)
    elif terrain.kind == "gapped_stairs":
        h = _gapped_stairs_height(terrain, xa)
    elif terrain.kind == "rough":
        h = _rough_height(terrain, xa, ya)
    else:  # composite
        h = _composite_height(terrain, xa)
    out = np.empty(np.broadcast(xa, ya).shape)
    np.copyto(out, h)
    if np.isscalar(x) and np.isscalar(y):
        return float(out)
    return out


@dataclass
class Heightmap:
    """Discrete grid patch of terrain heights, oriented to the horizontal frame.

    cells[i, j] is the height at the world point obtained by rotating the
    grid offset ((i - (h_x-1)/2) * r, (j - (h_y-1)/2) * r), r = MAP_RESOLUTION,
    by ``yaw`` about gravity and translating by ``center``.  Every cell is a
    candidate foothold (cell world x, y, stored height).
    """

    cells: np.ndarray
    center: tuple[float, float]
    yaw: float = 0.0

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.float64)

    @property
    def h_x(self) -> int:
        return self.cells.shape[0]

    @property
    def h_y(self) -> int:
        return self.cells.shape[1]

    def grid_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid-frame x offset of each row and y offset of each column,
        shapes (h_x, 1) and (1, h_y): they broadcast to every cell's."""
        ox = (np.arange(self.h_x) - (self.h_x - 1) / 2.0) * MAP_RESOLUTION
        oy = (np.arange(self.h_y) - (self.h_y - 1) / 2.0) * MAP_RESOLUTION
        return ox[:, None], oy[None]

    def world_points(self) -> tuple[np.ndarray, np.ndarray]:
        """World x/y coordinates of every cell, shape (h_x, h_y) each."""
        gx, gy = self.grid_offsets()
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        wx = self.center[0] + c * gx - s * gy
        wy = self.center[1] + s * gx + c * gy
        return wx, wy


def extract_heightmap(terrain: TerrainMap, center: tuple[float, float], yaw: float) -> Heightmap:
    """Sample the ``MAP_CELLS`` x ``MAP_CELLS`` patch around ``center``,
    rotated by ``yaw``; its centre cell equals sample_height(center)."""
    hm = Heightmap(np.zeros((MAP_CELLS, MAP_CELLS)), (float(center[0]), float(center[1])), yaw)
    wx, wy = hm.world_points()
    hm.cells = sample_height(terrain, wx, wy)
    return hm

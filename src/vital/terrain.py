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
MAP_CELLS = 33  # default heightmap cells per side
MAP_RESOLUTION = 0.02  # m, default heightmap cell size

# splitmix64 constants for the deterministic lattice-noise hash
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class TerrainMap:
    """Parametric terrain description.

    kind-specific parameters:
      stairs/gapped_stairs/composite: rise, going, n_steps, start_x
      gapped_stairs: gap_width, gap_depth (gaps read gap_depth below the tread)
      composite: plateau (length of the flat top between ascent and descent)
      rough: cell (lattice cell size), amplitude, seed
    """

    kind: str = "flat"
    rise: float = 0.10
    going: float = 0.25
    n_steps: int = 5
    start_x: float = 0.0
    gap_width: float = 0.08
    gap_depth: float = 1.0
    plateau: float = 0.5
    cell: float = 0.30
    amplitude: float = 0.06
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TERRAIN_KINDS:
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        if self.kind in ("stairs", "gapped_stairs", "composite"):
            if self.rise <= 0 or self.going <= 0 or self.n_steps < 1:
                raise ValueError("stairs need rise > 0, going > 0, n_steps >= 1")
        if self.kind == "rough" and (self.cell <= 0 or self.amplitude < 0):
            raise ValueError("rough terrain needs cell > 0 and amplitude >= 0")


def _hash01(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic hash of integer lattice coordinates to [0, 1)."""
    seed_mix = np.uint64((seed * 0x9E3779B97F4A7C15) % (1 << 64))
    # uint64 wrap-around is the hash; numpy warns about it on scalar inputs.
    with np.errstate(over="ignore"):
        h = ix.astype(np.int64).view(np.uint64) * _GOLDEN
        h ^= iy.astype(np.int64).view(np.uint64) * _MIX1
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
    in_gap = (u >= 0.0) & (u < extent) & (pos >= t.going - t.gap_width)
    return np.where(in_gap, h - t.gap_depth, h)


def _rough_height(t: TerrainMap, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Seeded value noise: bilinear interpolation of hashed lattice values.
    gx = x / t.cell
    gy = y / t.cell
    ix = np.floor(gx)
    iy = np.floor(gy)
    fx = gx - ix
    fy = gy - iy
    ix = ix.astype(np.int64)
    iy = iy.astype(np.int64)
    h00, h10, h01, h11 = _hash01(
        np.stack([ix, ix + 1, ix, ix + 1]), np.stack([iy, iy, iy + 1, iy + 1]), t.seed
    )
    top = h00 * (1.0 - fx) + h10 * fx
    bot = h01 * (1.0 - fx) + h11 * fx
    val = top * (1.0 - fy) + bot * fy
    return (val - 0.5) * t.amplitude


def _composite_height(t: TerrainMap, x: np.ndarray) -> np.ndarray:
    # Ascending stairs, flat plateau, then mirrored descending stairs.
    u = x - t.start_x
    extent = t.n_steps * t.going
    top = t.rise * t.n_steps
    up = np.clip(t.rise * (1.0 + np.floor(u / t.going)), 0.0, top)
    d = u - extent - t.plateau
    down = np.clip(top - t.rise * (1.0 + np.floor(d / t.going)), 0.0, top)
    h = np.where(u < extent + t.plateau, up, down)
    return np.where(u >= 0.0, h, 0.0)


def sample_height(terrain: TerrainMap, x, y):
    """Ground-truth terrain height at world (x, y).  Accepts scalars or arrays."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if terrain.kind == "flat":
        h = np.zeros(np.broadcast(xa, ya).shape)
    elif terrain.kind == "stairs":
        h = _stairs_height(terrain, xa)
    elif terrain.kind == "gapped_stairs":
        h = _gapped_stairs_height(terrain, xa)
    elif terrain.kind == "rough":
        h = _rough_height(terrain, xa, ya)
    elif terrain.kind == "composite":
        h = _composite_height(terrain, xa)
    else:  # pragma: no cover - guarded in __post_init__
        raise ValueError(terrain.kind)
    h = np.broadcast_to(h, np.broadcast(xa, ya).shape)
    if np.isscalar(x) and np.isscalar(y):
        return float(h)
    return np.array(h, dtype=np.float64)


@dataclass
class Heightmap:
    """Discrete grid patch of terrain heights, oriented to the horizontal frame.

    cells[i, j] is the height at the world point obtained by rotating the
    grid offset ((i - (h_x-1)/2) * res, (j - (h_y-1)/2) * res) by ``yaw``
    about gravity and translating by ``center``.  Every cell is a candidate
    foothold (cell world x, y, stored height).
    """

    cells: np.ndarray
    resolution: float
    center: tuple[float, float]
    yaw: float = 0.0

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.float64)
        if self.cells.ndim != 2 or self.cells.size == 0:
            raise ValueError("heightmap cells must be a non-empty 2-D array")
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")

    @property
    def h_x(self) -> int:
        return self.cells.shape[0]

    @property
    def h_y(self) -> int:
        return self.cells.shape[1]

    def grid_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid-frame x/y offsets of every cell, shape (h_x, h_y) each."""
        ox = (np.arange(self.h_x) - (self.h_x - 1) / 2.0) * self.resolution
        oy = (np.arange(self.h_y) - (self.h_y - 1) / 2.0) * self.resolution
        return np.meshgrid(ox, oy, indexing="ij")

    def world_points(self) -> tuple[np.ndarray, np.ndarray]:
        """World x/y coordinates of every cell, shape (h_x, h_y) each."""
        gx, gy = self.grid_offsets()
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        wx = self.center[0] + c * gx - s * gy
        wy = self.center[1] + s * gx + c * gy
        return wx, wy


def check_patch_shape(h_x: int, h_y: int, resolution: float) -> None:
    """Raise ValueError unless a (h_x, h_y) patch has odd positive sides,
    so a unique center cell exists, and a finite resolution > 0."""
    if min(h_x, h_y) < 1 or h_x % 2 == 0 or h_y % 2 == 0:
        raise ValueError("heightmap dimensions must be odd and >= 1")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be finite and > 0")


def extract_heightmap(
    terrain: TerrainMap,
    center: tuple[float, float],
    yaw: float = 0.0,
    h_x: int = MAP_CELLS,
    h_y: int = MAP_CELLS,
    resolution: float = MAP_RESOLUTION,
) -> Heightmap:
    """Sample a (h_x, h_y) patch around ``center``, rotated by ``yaw``.

    See :func:`check_patch_shape` for the valid shapes; the center cell
    equals sample_height(center).
    """
    check_patch_shape(h_x, h_y, resolution)
    hm = Heightmap(np.zeros((h_x, h_y)), resolution, (float(center[0]), float(center[1])), yaw)
    wx, wy = hm.world_points()
    hm.cells = sample_height(terrain, wx, wy)
    return hm

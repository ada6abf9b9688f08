"""Vision-based foothold adaptation: pick the safe foothold closest to the
nominal touchdown point.  The heightmap is centred on the nominal, so the
nominal is the map's centre point and centre cell; the swing arc is then
re-targeted at the chosen foothold (:func:`vital.robot.swing_points`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fec import SafetyGrid, eval_fec
from .robot import GaitParams, RobotModel
from .terrain import Heightmap

FALLBACK_SELECTED = "selected"
FALLBACK_NO_SAFE_CELL = "no_safe_cell"


@dataclass(frozen=True)
class FootholdDecision:
    """The chosen foothold, the safe-cell count and fallback label, and the
    criteria grid the choice was made on."""

    optimal: np.ndarray
    safe_count: int
    fallback: str
    grid: SafetyGrid | None = field(default=None, repr=False, compare=False)


def select_closest_safe(grid: SafetyGrid, heightmap: Heightmap, nominal) -> FootholdDecision:
    """Among the safe cells, pick the one with the smallest planar distance
    to the nominal.  Ties break on smaller |dx|, then smaller |dy|, then the
    lower row-major grid index, so selection is deterministic: ``np.nonzero``
    lists the tied cells in row-major order and ``np.lexsort`` is stable."""
    nominal = np.asarray(nominal, dtype=np.float64)
    mu = grid.cells
    n_safe = int(np.count_nonzero(mu))
    if n_safe == 0:
        return FootholdDecision(nominal.copy(), 0, FALLBACK_NO_SAFE_CELL, grid)
    wx, wy = heightmap.world_points()
    dx = np.abs(wx - nominal[0])
    dy = np.abs(wy - nominal[1])
    d2 = dx * dx + dy * dy
    d2_masked = np.where(mu, d2, np.inf)
    best = d2_masked.min()
    ti, tj = np.nonzero(d2_masked == best)
    order = np.lexsort((dy[ti, tj], dx[ti, tj]))
    i, j = int(ti[order[0]]), int(tj[order[0]])
    optimal = np.array([wx[i, j], wy[i, j], heightmap.cells[i, j]])
    return FootholdDecision(optimal, n_safe, FALLBACK_SELECTED, grid)


def foothold_evaluation(
    heightmap: Heightmap,
    hip,
    velocity,
    gait: GaitParams,
    model: RobotModel,
    current_foot=None,
) -> FootholdDecision:
    """Run the evaluation criteria on the heightmap centred on the nominal
    foothold, for the world (x, y, z) hip at lift-off and the world (vx, vy)
    velocity, and select the optimal foothold.

    With no safe cell the nominal is kept and flagged, so callers can count
    unsafe-step events instead of aborting.
    """
    x, y = heightmap.center
    nominal = np.array([x, y, heightmap.cells[heightmap.h_x // 2, heightmap.h_y // 2]])
    grid = eval_fec(heightmap, hip, velocity, gait, model, current_foot=current_foot)
    return select_closest_safe(grid, heightmap, nominal)

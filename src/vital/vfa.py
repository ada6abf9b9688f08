"""Vision-based foothold adaptation: pick the safe foothold closest to the
nominal touchdown point; the swing trajectory is then re-targeted at it
with :func:`vital.robot.swing_trajectory`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fec import FecConfig, FecInput, SafetyGrid, count_safe, eval_fec
from .robot import BodyTwist, GaitParams, RobotModel
from .terrain import Heightmap

FALLBACK_SELECTED = "selected"
FALLBACK_KEPT_NOMINAL_UNSAFE = "kept_nominal_unsafe"
FALLBACK_NO_SAFE_CELL = "no_safe_cell"


@dataclass(frozen=True)
class VfaInput:
    """Heightmap centered on the nominal foothold plus the evaluation tuple."""

    heightmap: Heightmap
    hip_height: float
    twist: BodyTwist
    gait: GaitParams
    nominal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nominal", np.asarray(self.nominal, dtype=np.float64))
        if self.nominal.shape != (3,):
            raise ValueError("nominal must be an (x, y, z) point")


@dataclass(frozen=True)
class FootholdDecision:
    """The chosen foothold, the safe-cell count and fallback label, the
    chosen cell, and the criteria grid the choice was made on."""

    optimal: np.ndarray
    safe_count: int
    fallback: str
    cell: tuple[int, int] | None = None
    grid: SafetyGrid | None = field(default=None, repr=False, compare=False)


def select_closest_safe(grid: SafetyGrid, heightmap: Heightmap, nominal) -> FootholdDecision:
    """Among the safe cells, pick the one with the smallest planar distance
    to the nominal.  Ties break on smaller |dx|, then smaller |dy|, then the
    lower row-major grid index, so selection is deterministic."""
    nominal = np.asarray(nominal, dtype=np.float64)
    mu = grid.cells
    n_safe = count_safe(grid)
    if n_safe == 0:
        return FootholdDecision(nominal.copy(), 0, FALLBACK_NO_SAFE_CELL, None, grid)
    wx, wy = heightmap.world_points()
    dx = np.abs(wx - nominal[0])
    dy = np.abs(wy - nominal[1])
    d2 = dx * dx + dy * dy
    d2_masked = np.where(mu, d2, np.inf)
    best = d2_masked.min()
    ti, tj = np.nonzero(d2_masked == best)
    order = np.lexsort((ti * heightmap.h_y + tj, dy[ti, tj], dx[ti, tj]))
    i, j = int(ti[order[0]]), int(tj[order[0]])
    optimal = np.array([wx[i, j], wy[i, j], heightmap.cells[i, j]])
    return FootholdDecision(optimal, n_safe, FALLBACK_SELECTED, (i, j), grid)


def foothold_evaluation(
    vfa_input: VfaInput,
    model: RobotModel,
    config: FecConfig,
    current_foot=None,
) -> FootholdDecision:
    """Run the evaluation criteria on the nominal-centered heightmap and
    select the optimal foothold.

    With no safe cell the nominal is kept and flagged, so callers can count
    unsafe-step events instead of aborting.
    """
    hm = vfa_input.heightmap
    nominal = vfa_input.nominal
    if not hm.contains_point(float(nominal[0]), float(nominal[1])):
        raise ValueError("nominal not in heightmap")
    # The nominal is the hip projection advanced by the velocity lookahead,
    # so the hip planar position is recovered by undoing that advance.
    gait = vfa_input.gait
    lookahead = gait.t_remaining + 0.5 * gait.duty_factor / gait.step_frequency
    hip_xy = nominal[:2] - vfa_input.twist.planar * lookahead
    fec_input = FecInput(
        heightmap=hm,
        hip_height=vfa_input.hip_height,
        hip_world_xy=(float(hip_xy[0]), float(hip_xy[1])),
        twist=vfa_input.twist,
        gait=gait,
    )
    grid = eval_fec(fec_input, model, config, current_foot=current_foot)
    return select_closest_safe(grid, hm, nominal)


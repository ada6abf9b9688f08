"""Vision-based pose adaptation.

Pipeline: count the safe footholds of every leg over an array of hip
heights above the leg's ground (pose evaluation), fit one Gaussian
radial-basis model of count vs hip height above ground for every leg and
horizon step in one solve, its centres spanning the swept heights
(function approximation), then maximize a cost built from that model over
the body pose (height, roll, pitch) inside box constraints.  One
multi-start optimizer serves every horizon length; at horizon 1 it is the
single-step problem.

Every cost is one stencil over a leg's model F at its hip height z above
the leg's ground g: s = sum_k w_k F(z - g + o_k).  The stage cost is s^2
summed over the legs for ``int``, or multiplied over the legs for ``prod``:

    cost    offsets o_k (m)    weights w_k
    prod    0                  1
    int     -m, +m             m, m          (m: MARGIN)

Over a horizon the objective subtracts ``SMOOTH_WEIGHT`` times the squared
change between consecutive poses.  ``MARGIN``, ``SMOOTH_WEIGHT`` and the
model's ``RBF_COUNT`` Gaussians are module constants; a scenario picks only
the cost kind and the horizon.

:func:`objective_batch` evaluates the objective and its gradient for a batch
of poses in one pass over poses, horizon steps, legs and offsets, and
:func:`minimize` uses that: it climbs from all 8 seeds of a multi-start at
once, one call per iteration over the seeds still moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fec import FecEvaluator
from .robot import GaitParams, RobotModel, hip_height_from

COST_KINDS = ("prod", "int")
MARGIN = 0.025  # m, half-width of the int cost
SMOOTH_WEIGHT = 10.0  # weight of the squared change between consecutive horizon poses
RBF_COUNT = 30  # Gaussians per model


def pose_evaluation(
    heightmaps,
    velocity,
    gait: GaitParams,
    heights: np.ndarray,
    model: RobotModel,
    current_feet=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Count safe footholds for every leg at every hip height.

    One heightmap per leg, centered on the leg hip's ground projection;
    ``velocity`` is the world (vx, vy) base velocity.  The hip ``heights``
    are relative to the ground under the heightmap's centre cell.  Returns
    ``(counts, ground)``: counts[l, i] is the count of leg l with its hip
    heights[i] above ground[l]; legs are ordered LF, RF, LH, RH.
    ``current_feet`` optionally gives each leg's lift-off foot; by default
    the foot is assumed under the hip (the heightmap center cell).
    """
    ground = np.array([hm.cells[hm.h_x // 2, hm.h_y // 2] for hm in heightmaps])
    counts = np.zeros((len(heightmaps), len(heights)), dtype=np.int64)
    for l, hm in enumerate(heightmaps):
        foot = None if current_feet is None else current_feet[l]
        ev = FecEvaluator(hm, hm.center, velocity, gait, model, current_foot=foot)
        counts[l] = ev.sweep_counts(heights + ground[l])
    return counts, ground


# ---------------------------------------------------------------------------
# Function approximation
# ---------------------------------------------------------------------------


@dataclass
class SafeFootholdFunction:
    """Gaussian RBF models of the safe-foothold count vs hip height above
    ground: F(z) = sum_e w_e * exp(-0.5 ((z - c_e) / sigma)^2).

    ``weights`` may stack many models, shape (..., n_basis); they share the
    centers (n_basis,) and the width sigma.
    """

    weights: np.ndarray
    centers: np.ndarray
    width: float

    def value_and_slope(self, z) -> tuple[np.ndarray, np.ndarray]:
        """F(z) and dF/dz elementwise over ``z``.  For stacked models the
        trailing axes of ``z`` broadcast against the stack's shape."""
        r = (np.asarray(z)[..., None] - self.centers) / self.width
        g = self.weights * np.exp(-0.5 * r * r)
        return g.sum(axis=-1), -(g * r).sum(axis=-1) / self.width


def fit_rbf(heights, counts) -> SafeFootholdFunction:
    """Least-squares fit of RBF weights to counts sampled at ``heights``.

    The ``RBF_COUNT`` centers are equidistant from the first height to the
    last, and the width makes adjacent Gaussians intersect at value 0.5:
    sigma = (spacing/2) / sqrt(2 ln 2).  ``counts`` has shape
    (..., n_heights) and gives one model per leading index; all of them are
    fitted in one minimum-norm least-squares solve against one design
    matrix, so a rank-deficient design never fails.
    """
    heights = np.asarray(heights, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    centers = np.linspace(heights[0], heights[-1], RBF_COUNT)
    spacing = (heights[-1] - heights[0]) / (RBF_COUNT - 1)
    width = (spacing / 2.0) / math.sqrt(2.0 * math.log(2.0))
    r = (heights[:, None] - centers) / width
    rhs = counts.reshape(-1, len(heights)).T
    weights, *_ = np.linalg.lstsq(np.exp(-0.5 * r * r), rhs, rcond=None)
    return SafeFootholdFunction(weights.T.reshape(counts.shape[:-1] + (RBF_COUNT,)), centers, width)


# ---------------------------------------------------------------------------
# Pose optimization
# ---------------------------------------------------------------------------


@dataclass
class PoseOptProblem:
    """Box-constrained pose maximization problem.

    ``rbf`` is the stacked safe-foothold model of every horizon step and
    leg, weights (N_h, 4, n_basis), over hip height above ground;
    ``ground`` (N_h, 4) is the ground each leg's hip height is taken from,
    so leg l of step j contributes F_jl(z_hip - ground[j, l]).  Poses are
    (z_b, roll, pitch) arrays.  The feasible box, shared by every horizon
    step, is the intersection of the pose bounds with the rate box
    ``u_prev`` +- ``du``.

    ``cost`` picks the per-leg stencil s = sum_k w_k F(z + o_k) at the hip
    height z above ground, given as (offsets o_k in m; weights w_k): prod
    (0; 1), int (-MARGIN, +MARGIN; MARGIN, MARGIN).  The stage cost is s^2
    summed over the legs for int, or multiplied over them for prod;
    ``SMOOTH_WEIGHT`` weighs the consecutive-pose deviation against it.
    """

    rbf: SafeFootholdFunction
    ground: np.ndarray
    hip_offsets: np.ndarray
    u_prev: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    du: np.ndarray
    cost: str = "int"

    def __post_init__(self):
        if self.cost not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.cost!r}")
        for name in ("ground", "hip_offsets", "u_prev", "u_min", "u_max", "du"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def n_horizons(self) -> int:
        return len(self.ground)


@dataclass
class PoseOptResult:
    poses: np.ndarray  # (N_h, 3); the first pose is the one to execute
    objective: float
    rate_box_clamped: bool


def feasible_box(problem: PoseOptProblem) -> tuple[np.ndarray, np.ndarray, bool]:
    """Intersect the global bounds with the rate box.  A disjoint rate box
    is clamped into the global bounds and flagged."""
    below, above = problem.u_prev - problem.du, problem.u_prev + problem.du
    lo = np.clip(below, problem.u_min, problem.u_max)
    hi = np.clip(above, problem.u_min, problem.u_max)
    return lo, hi, bool(np.any((below > problem.u_max) | (above < problem.u_min)))


def _stencil(problem: PoseOptProblem) -> tuple[np.ndarray, np.ndarray]:
    """Offsets o_k and weights w_k of the per-leg sum s = sum_k w_k F(z + o_k)."""
    if problem.cost == "int":
        return MARGIN * np.array([-1.0, 1.0]), np.full(2, MARGIN)
    return np.zeros(1), np.ones(1)


def objective_batch(problem: PoseOptProblem, U) -> tuple[np.ndarray, np.ndarray]:
    """Objective and its gradient for a batch of stacked pose vectors.

    ``U`` has shape (n, 3*N_h): the poses (z_b, roll, pitch) of horizon
    steps 0..N_h-1 side by side.  The objective is the summed stage costs
    minus ``SMOOTH_WEIGHT`` times the squared deviation between consecutive
    poses.  Returns values (n,) and gradients (n, 3*N_h).
    """
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    n, n_h = U.shape[0], problem.n_horizons
    P = U.reshape(n, n_h, 3)
    # Pose components (n, N_h, 1); the legs broadcast along the last axis.
    z_b, roll, pitch = P[..., 0, None], P[..., 1, None], P[..., 2, None]
    z = hip_height_from(z_b, roll, pitch, problem.hip_offsets)

    offsets, weights = _stencil(problem)
    f, df = problem.rbf.value_and_slope(z - problem.ground + offsets[:, None, None, None])  # (K, n, N_h, 4)
    s = (weights @ f.reshape(len(weights), -1)).reshape(z.shape)
    ds = (weights @ df.reshape(len(weights), -1)).reshape(z.shape)
    term = s * s
    dterm = 2.0 * s * ds  # d term / d z_hip
    if problem.cost == "prod":
        others = np.where(np.eye(term.shape[-1], dtype=bool), 1.0, term[..., None, :])
        dterm = dterm * others.prod(axis=-1)
        stage = term.prod(axis=-1)
    else:
        stage = term.sum(axis=-1)

    # Chain rule through the hip heights: dz/dz_b = 1, then roll and pitch.
    x, y, zo = problem.hip_offsets.T
    sb, cb, sg, cg = np.sin(roll), np.cos(roll), np.sin(pitch), np.cos(pitch)
    grad = np.empty((n, n_h, 3))
    grad[..., 0] = dterm.sum(axis=-1)
    grad[..., 1] = (dterm * (y * cg * cb - zo * cg * sb)).sum(axis=-1)
    grad[..., 2] = (dterm * (-x * cg - y * sg * sb - zo * sg * cb)).sum(axis=-1)

    d = P[:, :-1] - P[:, 1:]
    value = stage.sum(axis=-1) - SMOOTH_WEIGHT * (d * d).sum(axis=(1, 2))
    grad[:, :-1] -= 2.0 * SMOOTH_WEIGHT * d
    grad[:, 1:] += 2.0 * SMOOTH_WEIGHT * d
    return value, grad.reshape(n, 3 * n_h)


def _coarse_grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    axes = []
    for d in range(3):
        span = hi[d] - lo[d]
        n = int(min(13, max(2, math.ceil(span / 0.04) + 1))) if span > 0 else 1
        axes.append(np.linspace(lo[d], hi[d], n))
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


class Ascent(NamedTuple):
    """The end of every ascent of :func:`minimize`."""

    x: np.ndarray  # (n_seeds, 3*N_h) end points
    values: np.ndarray  # (n_seeds,) objective at the end points
    nit: int  # the most steps any one ascent took
    nfev: int  # objective_batch calls


ARMIJO = 1e-4  # share of its first-order gain that a step must gain
FTOL = 2.2e-9  # an ascent ends when a step gains at most this share of |objective|
STEP_CAP = 0.5  # longest first trial step, in box widths along any coordinate
MAX_CALLS = 100  # objective_batch calls per multi-start


def minimize(problem: PoseOptProblem, seeds, lo: np.ndarray, hi: np.ndarray) -> Ascent:
    """Projected quasi-Newton ascent of :func:`objective_batch` from every
    row of ``seeds`` at once, inside the box ``lo``..``hi``.

    The ascents move in lockstep: each iteration makes one
    :func:`objective_batch` call over the trial points of the ascents still
    moving.  Each ascent keeps a BFGS model B of minus the Hessian in
    box-width units, with Powell's damping so that B stays positive definite
    where the objective is not concave.  A coordinate on a bound whose
    gradient points out of the box is held there; the others take the step
    B^-1 g, cut to at most ``STEP_CAP`` box widths in any coordinate.  The
    trial point is that step clipped into the box, so every iterate lies in
    the box exactly.  A trial point that gains less than ``ARMIJO`` times
    its first-order gain is rejected and the step quartered.  An ascent ends
    when its free gradient is zero, when a step gains at most ``FTOL`` times
    the objective's magnitude (the default test of L-BFGS-B), or when its
    step shrinks to nothing; all end after ``MAX_CALLS`` calls.

    The benchmark's tracer wraps this function by name as its ``vpa.lbfgs``
    span and reads ``nit`` and ``nfev``, so the name and those fields stay.
    """
    x = np.array(seeds, dtype=np.float64)
    m, d = x.shape
    fixed = hi <= lo
    width = np.where(fixed, 1.0, hi - lo)
    f, g = objective_batch(problem, x)
    nfev, steps = 1, np.zeros(m, dtype=np.int64)
    moving = np.ones(m, dtype=bool)
    eye = np.eye(d)
    # B starts as the identity scaled so that no first step is longer than
    # one box width in any coordinate.
    B = eye * np.maximum(np.abs(g * width).max(axis=1), 1e-300)[:, None, None]
    turn = moving.copy()  # the ascents that need a new step
    p = np.zeros((m, d))
    while True:
        if turn.any():
            free = ~(fixed | ((x <= lo) & (g < 0)) | ((x >= hi) & (g > 0)))
            pinned = ~(free[:, :, None] & free[:, None, :])
            rhs = (g * width * free)[..., None]
            try:
                step = np.linalg.solve(np.where(pinned, eye, B), rhs)[..., 0]
            except np.linalg.LinAlgError:  # rounding left some B singular: restart those about to step
                B[turn] = eye * np.maximum(np.abs(rhs[turn]).max(axis=1), 1e-300)[..., None]
                step = np.linalg.solve(np.where(pinned, eye, B), rhs)[..., 0]
            longest = np.abs(step).max(axis=1)
            cut = np.minimum(1.0, STEP_CAP / np.maximum(longest, 1e-300))
            p[turn] = (step * cut[:, None] * width)[turn]
            moving &= ~(turn & (longest == 0))
            turn[:] = False
        live = np.flatnonzero(moving)
        if not live.size or nfev >= MAX_CALLS:
            break
        x_live = x[live]
        trial = np.clip(x_live + p[live], lo, hi)
        f_trial, g_trial = objective_batch(problem, trial)
        nfev += 1
        s = trial - x_live
        gain = f_trial - f[live]
        ok = (gain > 0) & (gain >= ARMIJO * np.einsum("ij,ij->i", g[live], s))

        a = live[ok]
        if a.size:
            s_a = s[ok] / width
            r = (g[a] - g_trial[ok]) * width
            Bs = np.einsum("kij,kj->ki", B[a], s_a)
            sBs = np.einsum("ij,ij->i", s_a, Bs)
            sr = np.einsum("ij,ij->i", s_a, r)
            # Powell's damping: mix B s into r until s.r >= 0.2 s.B.s.
            theta = np.divide(0.8 * sBs, sBs - sr, out=np.ones(a.size), where=(sr < 0.2 * sBs) & (sBs > 0))[:, None]
            r = theta * r + (1.0 - theta) * Bs
            sr = np.einsum("ij,ij->i", s_a, r)
            k, u = a, (sBs > 0) & (sr > 0)
            if not u.all():  # rounding broke these updates: keep their B
                k, r, Bs, sr, sBs = a[u], r[u], Bs[u], sr[u], sBs[u]
            B[k] += r[:, :, None] * (r / sr[:, None])[:, None, :] - Bs[:, :, None] * (Bs / sBs[:, None])[:, None, :]
            done = gain[ok] <= FTOL * np.maximum(np.abs(f_trial[ok]), 1.0)
            x[a], f[a], g[a] = trial[ok], f_trial[ok], g_trial[ok]
            steps[a] += 1
            turn[a] = True
            moving[a[done]] = False
        b = live[~ok]
        if b.size:
            p[b] *= 0.25
            moving[b[~s[~ok].any(axis=1) | (np.abs(p[b] / width).max(axis=1) < 1e-10)]] = False
    return Ascent(x, f, int(steps.max()), nfev)


def optimize_pose_receding(problem: PoseOptProblem) -> PoseOptResult:
    """Maximize the summed stage costs minus the consecutive-pose deviation
    penalty over the feasible box that all horizon steps share.

    Deterministic multi-start local ascent: the coarse grid of the box,
    with the same pose at every step, is ranked by the objective, and the 6
    best points, the clipped previous pose and the box centre seed one
    batched :func:`minimize`.  Its best end point wins; a later one wins
    only by more than 1e-15.  The result is feasible exactly and its first
    pose is the one to execute; it matches a dense-grid search to within 1%
    of the objective.
    """
    n_h = problem.n_horizons
    lo, hi, clamped = feasible_box(problem)
    grid = np.tile(_coarse_grid(lo, hi), n_h)
    order = np.argsort(objective_batch(problem, grid)[0])[::-1]
    seeds = [*grid[order[:6]], np.tile(np.clip(problem.u_prev, lo, hi), n_h), np.tile((lo + hi) / 2.0, n_h)]
    ends = minimize(problem, np.array(seeds), np.tile(lo, n_h), np.tile(hi, n_h))
    best = 0
    for k in range(1, len(ends.values)):
        if ends.values[k] > ends.values[best] + 1e-15:
            best = k
    return PoseOptResult(ends.x[best].reshape(n_h, 3), float(ends.values[best]), clamped)


# perfbench/tracer.py wraps this name; every horizon runs the one multi-start.
optimize_pose_single = optimize_pose_receding

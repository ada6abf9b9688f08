"""Vision-based pose adaptation.

Pipeline: evaluate the safe-foothold count over a finite hip-height set for
every leg (pose evaluation), fit a Gaussian radial-basis function per leg
(function approximation), then maximize a cost built from those functions
over the body pose (height, roll, pitch) inside box constraints, either for
a single step or over a receding horizon.

Every cost is one stencil over a leg's function F at its hip height z:
s = sum_k w_k F(z + o_k).  The stage cost is q s^2 summed over the legs, or
multiplied over the legs for ``prod``:

    cost         offsets o_k (m)    weights w_k
    sum, prod    0                  1
    int          -m, +m             m, m          (m: margin)
    smooth       -1, 0, +1          1/2, 1/2, 1/2

:func:`objective_batch` evaluates the objective and its gradient for a batch
of poses in one pass over poses, horizon steps, legs and offsets.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .fec import FecConfig, FecEvaluator
from .robot import BodyTwist, GaitParams, Pose, RobotModel, hip_height_from
from .terrain import Heightmap

COST_KINDS = ("sum", "prod", "int", "smooth")

DEFAULT_U_MIN = np.array([0.2, -0.35, -0.35])
DEFAULT_U_MAX = np.array([0.8, 0.35, 0.35])
DEFAULT_DU = np.array([0.02, 0.02, 0.02])


@dataclass(frozen=True)
class HipHeightSet:
    """Equally spaced hip heights swept during pose evaluation."""

    z_min: float = 0.2
    z_max: float = 0.8
    count: int = 31

    def __post_init__(self):
        if not (self.z_min < self.z_max):
            raise ValueError("z_min must be < z_max")
        if self.count < 2:
            raise ValueError("count must be >= 2")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.count)


@dataclass
class SafeFootholdSamples:
    """Per-leg safe-foothold counts over the hip-height set.

    counts[l, i] is the count for leg l with its hip heights[i] above
    ground[l], the terrain height under the centre cell of leg l's
    heightmap; legs are ordered LF, RF, LH, RH.
    """

    heights: np.ndarray
    counts: np.ndarray
    ground: np.ndarray


def pose_evaluation(
    heightmaps,
    twist: BodyTwist,
    gait: GaitParams,
    heights: HipHeightSet,
    model: RobotModel,
    config: FecConfig,
    current_feet=None,
) -> SafeFootholdSamples:
    """Count safe footholds for every leg at every hip height.

    One heightmap per leg, centered on the leg hip's ground projection.
    The hip heights of ``heights`` are relative to the ground under the
    heightmap's centre cell, which is returned per leg as ``ground``.
    ``current_feet`` optionally gives each leg's lift-off foot; by default
    the foot is assumed under the hip (the heightmap center cell).
    """
    z_values = heights.values
    ground = np.array([hm.cells[hm.h_x // 2, hm.h_y // 2] for hm in heightmaps])
    counts = np.zeros((len(heightmaps), len(z_values)), dtype=np.int64)
    for l, hm in enumerate(heightmaps):
        foot = None if current_feet is None else current_feet[l]
        ev = FecEvaluator(hm, hm.center, twist, gait, model, config, current_foot=foot)
        counts[l] = ev.sweep_counts(z_values + ground[l])
    return SafeFootholdSamples(z_values, counts, ground)


# ---------------------------------------------------------------------------
# Function approximation
# ---------------------------------------------------------------------------


def rbf_centers_and_width(n_basis: int, z_min: float, z_max: float) -> tuple[np.ndarray, float]:
    """Equidistant Gaussian centers; width chosen so adjacent Gaussians
    intersect at value 0.5: sigma = (spacing/2) / sqrt(2 ln 2)."""
    if n_basis < 2:
        raise ValueError("need at least 2 basis functions")
    centers = np.linspace(z_min, z_max, n_basis)
    spacing = (z_max - z_min) / (n_basis - 1)
    width = (spacing / 2.0) / math.sqrt(2.0 * math.log(2.0))
    return centers, width


@dataclass
class SafeFootholdFunction:
    """Gaussian RBF model of the safe-foothold count vs hip height:
    F(z) = sum_e w_e * exp(-0.5 ((z - c_e) / sigma)^2).

    The parameters may also stack many models: weights and centers of shape
    (..., n_basis) and one width per model, shape (...).
    """

    weights: np.ndarray
    centers: np.ndarray
    width: float | np.ndarray

    def design_matrix(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=np.float64))
        r = (z[..., None] - self.centers) / self.width
        return np.exp(-0.5 * r * r)

    def __call__(self, z):
        out = self.design_matrix(z) @ self.weights
        if np.isscalar(z) or np.ndim(z) == 0:
            return float(out[0])
        return out

    def value_and_slope(self, z) -> tuple[np.ndarray, np.ndarray]:
        """F(z) and dF/dz elementwise over ``z``.  For stacked models the
        trailing axes of ``z`` broadcast against the stack's shape."""
        width = np.asarray(self.width)
        r = (np.asarray(z)[..., None] - self.centers) / width[..., None]
        g = self.weights * np.exp(-0.5 * r * r)
        return g.sum(axis=-1), -(g * r).sum(axis=-1) / width


def fit_rbf(
    heights,
    counts,
    n_basis: int = 30,
    z_min: float = 0.2,
    z_max: float = 0.8,
) -> SafeFootholdFunction:
    """Least-squares fit of the RBF weights to (hip height, count) samples.

    Solved with a minimum-norm least-squares solve, so a rank-deficient
    design matrix never fails.
    """
    heights = np.asarray(heights, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    centers, width = rbf_centers_and_width(n_basis, z_min, z_max)
    f = SafeFootholdFunction(np.zeros(n_basis), centers, width)
    design = f.design_matrix(heights)
    weights, *_ = np.linalg.lstsq(design, counts, rcond=None)
    f.weights = weights
    return f


# ---------------------------------------------------------------------------
# Pose optimization
# ---------------------------------------------------------------------------


def check_cost(cost: str, margin: float) -> None:
    """Raise ValueError unless ``cost`` is a known kind with a usable margin."""
    if cost not in COST_KINDS:
        raise ValueError(f"unknown cost kind {cost!r}")
    if cost == "int" and not margin > 0:
        raise ValueError("cost 'int' needs margin > 0")


@dataclass(frozen=True)
class PoseOptProblem:
    """Box-constrained pose maximization problem.

    ``functions`` holds one SafeFootholdFunction per leg for each horizon
    step: shape [n_horizons][4], every function with the same number of
    basis functions.  The feasible box is the intersection of the global
    pose bounds with the rate box around ``u_prev``.

    ``cost`` picks the per-leg stencil s = sum_k w_k F(z_hip + o_k), given
    as (offsets o_k in m; weights w_k): sum and prod (0; 1), int (-margin,
    +margin; margin, margin), smooth (-1, 0, +1; 1/2, 1/2, 1/2).  The stage
    cost is q s^2 summed over the legs, or multiplied over them for prod.

    The problem is frozen because ``rbf`` stacks ``functions`` once; derive
    variants with :func:`dataclasses.replace`.
    """

    functions: tuple
    hip_offsets: np.ndarray
    u_prev: Pose
    u_min: np.ndarray = field(default_factory=lambda: DEFAULT_U_MIN.copy())
    u_max: np.ndarray = field(default_factory=lambda: DEFAULT_U_MAX.copy())
    du_min: np.ndarray = field(default_factory=lambda: -DEFAULT_DU.copy())
    du_max: np.ndarray = field(default_factory=lambda: DEFAULT_DU.copy())
    cost: str = "int"
    margin: float = 0.025
    q: float = 1.0
    smooth_weight: float = 10.0
    # weights and centers (n_horizons, 4, n_basis), widths (n_horizons, 4)
    rbf: SafeFootholdFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_cost(self.cost, self.margin)
        for name in ("hip_offsets", "u_min", "u_max", "du_min", "du_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.any(self.u_min > self.u_max):
            raise ValueError("u_min must be <= u_max")
        layers = tuple(tuple(layer) for layer in self.functions)
        object.__setattr__(self, "functions", layers)
        stack = [
            np.array([[getattr(f, name) for f in layer] for layer in layers], dtype=np.float64)
            for name in ("weights", "centers", "width")
        ]
        object.__setattr__(self, "rbf", SafeFootholdFunction(*stack))

    @property
    def n_horizons(self) -> int:
        return len(self.functions)


@dataclass
class PoseOptResult:
    poses: list
    objective: float
    rate_box_clamped: bool

    @property
    def pose(self) -> Pose:
        return self.poses[0]


def feasible_box(problem: PoseOptProblem) -> tuple[np.ndarray, np.ndarray, bool]:
    """Intersect the global bounds with the rate box.  A disjoint rate box
    is clamped into the global bounds and flagged."""
    prev = problem.u_prev.as_array()
    lo = np.maximum(problem.u_min, prev + problem.du_min)
    hi = np.minimum(problem.u_max, prev + problem.du_max)
    if np.any(lo > hi):
        lo = np.clip(prev + problem.du_min, problem.u_min, problem.u_max)
        hi = np.clip(prev + problem.du_max, problem.u_min, problem.u_max)
        return lo, hi, True
    return lo, hi, False


def _stencil(problem: PoseOptProblem) -> tuple[np.ndarray, np.ndarray]:
    """Offsets o_k and weights w_k of the per-leg sum s = sum_k w_k F(z + o_k)."""
    if problem.cost == "int":
        return problem.margin * np.array([-1.0, 1.0]), np.full(2, problem.margin)
    if problem.cost == "smooth":
        return np.array([-1.0, 0.0, 1.0]), np.full(3, 0.5)
    return np.zeros(1), np.ones(1)


def objective_batch(problem: PoseOptProblem, U) -> tuple[np.ndarray, np.ndarray]:
    """Objective and its gradient for a batch of stacked pose vectors.

    ``U`` has shape (n, 3*N_h): the poses (z_b, roll, pitch) of horizon
    steps 0..N_h-1 side by side.  The objective is the summed stage costs
    minus ``smooth_weight`` times the squared deviation between consecutive
    poses.  Returns values (n,) and gradients (n, 3*N_h).
    """
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    n, n_h = U.shape[0], problem.n_horizons
    P = U.reshape(n, n_h, 3)
    # Pose components (n, N_h, 1); the legs broadcast along the last axis.
    z_b, roll, pitch = P[..., 0, None], P[..., 1, None], P[..., 2, None]
    z = hip_height_from(z_b, roll, pitch, problem.hip_offsets)

    offsets, weights = _stencil(problem)
    f, df = problem.rbf.value_and_slope(z + offsets[:, None, None, None])  # (K, n, N_h, 4)
    s = (weights @ f.reshape(len(weights), -1)).reshape(z.shape)
    ds = (weights @ df.reshape(len(weights), -1)).reshape(z.shape)
    term = problem.q * s * s
    dterm = 2.0 * problem.q * s * ds  # d term / d z_hip
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

    lam = problem.smooth_weight
    d = P[:, :-1] - P[:, 1:]
    value = stage.sum(axis=-1) - lam * (d * d).sum(axis=(1, 2))
    grad[:, :-1] -= 2.0 * lam * d
    grad[:, 1:] += 2.0 * lam * d
    return value, grad.reshape(n, 3 * n_h)


def _coarse_grid(lo: np.ndarray, hi: np.ndarray, max_pts: int = 13) -> np.ndarray:
    axes = []
    for d in range(3):
        span = hi[d] - lo[d]
        n = int(min(max_pts, max(2, math.ceil(span / 0.04) + 1))) if span > 0 else 1
        axes.append(np.linspace(lo[d], hi[d], n))
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def _polish(problem: PoseOptProblem, seeds: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Local ascent from each seed; returns the best (vector, objective)."""
    n_h = problem.n_horizons
    lo_full = np.tile(lo, n_h)
    hi_full = np.tile(hi, n_h)
    bounds = list(zip(lo_full, hi_full))

    def negative(x):
        value, grad = objective_batch(problem, x[None, :])
        return -value[0], -grad[0]

    ends = [minimize(negative, seed, method="L-BFGS-B", jac=True, bounds=bounds).x for seed in seeds]
    ends = np.clip(ends, lo_full, hi_full)
    values = objective_batch(problem, ends)[0]
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best] + 1e-15:
            best = k
    return ends[best], float(values[best])


def optimize_pose_single(problem: PoseOptProblem) -> PoseOptResult:
    """Maximize the selected cost over the feasible pose box.

    Deterministic multi-start local ascent seeded from a coarse grid; the
    result is feasible exactly and matches a dense-grid search to within
    1% of the objective.
    """
    if problem.n_horizons != 1:
        raise ValueError("single-horizon problem expected")
    lo, hi, clamped = feasible_box(problem)
    grid = _coarse_grid(lo, hi)
    vals = objective_batch(problem, grid)[0]
    order = np.argsort(vals)[::-1]
    seeds = [grid[k] for k in order[:6]]
    seeds.append(np.clip(problem.u_prev.as_array(), lo, hi))
    seeds.append((lo + hi) / 2.0)
    best_x, best_f = _polish(problem, np.array(seeds), lo, hi)
    return PoseOptResult([Pose.from_array(best_x)], best_f, clamped)


def optimize_pose_receding(problem: PoseOptProblem) -> PoseOptResult:
    """Maximize summed per-horizon costs minus the consecutive-pose
    deviation penalty; all horizon steps share the feasible box and the
    first pose is the one to execute."""
    n_h = problem.n_horizons
    if n_h == 1:
        return optimize_pose_single(problem)
    lo, hi, clamped = feasible_box(problem)

    # Per-horizon solo optima seed the joint search.
    solos = [
        optimize_pose_single(dataclasses.replace(problem, functions=[layer])).poses[0].as_array()
        for layer in problem.functions
    ]
    seeds = [np.concatenate(solos), *(np.tile(s, n_h) for s in solos)]
    seeds += [np.tile(np.clip(problem.u_prev.as_array(), lo, hi), n_h), np.tile((lo + hi) / 2.0, n_h)]

    best_x, best_f = _polish(problem, np.array(seeds), lo, hi)
    poses = [Pose.from_array(best_x[3 * j : 3 * j + 3]) for j in range(n_h)]
    return PoseOptResult(poses, best_f, clamped)

import dataclasses
import math

import numpy as np
import pytest

import vital.sim
import vital.vpa
from vital.terrain import TerrainMap, extract_heightmap
from vital.vpa import (
    PoseOptProblem,
    SafeFootholdFunction,
    feasible_box,
    fit_rbf,
    objective_batch,
    optimize_pose_receding,
    pose_evaluation,
)

HIP_OFFSETS = np.array(
    [[0.37, 0.21, -0.1], [0.37, -0.21, -0.1], [-0.37, 0.21, -0.1], [-0.37, -0.21, -0.1]]
)
# The scenario's default pose bounds and swept hip heights.
U_MIN = np.array([0.2, -0.35, -0.35])
U_MAX = np.array([0.8, 0.35, 0.35])
HEIGHTS = np.linspace(0.2, 0.8, 31)


def value(f, z):
    return f.value_and_slope(z)[0]


def basis(n_basis, heights=HEIGHTS):
    """The centers and width that ``fit_rbf`` gives ``n_basis`` Gaussians."""
    fitted = fit_rbf(heights, np.zeros(len(heights)), n_basis=n_basis)
    return fitted.centers, fitted.width


def bumps(centers, height=100.0, width=0.08):
    """Exact Gaussian bumps in the fitted-function class, peaking at the hip
    heights ``centers`` (N_h, 4): one stacked model with a basis at 0.5 m,
    and the ground that shifts each leg's bump to its centre."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    weights = np.broadcast_to(np.asarray(height, dtype=np.float64), centers.shape)[..., None]
    return SafeFootholdFunction(weights, np.array([0.5]), width), centers - 0.5


def constant(values):
    """Per-leg values, effectively constant over the hip-height range (one
    huge Gaussian each), on level ground."""
    weights = np.asarray(values, dtype=np.float64).reshape(1, 4, 1)
    return SafeFootholdFunction(weights, np.array([0.5]), 1e3), np.zeros((1, 4))


def make_problem(rbf, ground, u_prev=(0.5, 0.0, 0.0), du=0.5, **kw):
    return PoseOptProblem(
        rbf=rbf,
        ground=ground,
        hip_offsets=HIP_OFFSETS,
        u_prev=u_prev,
        u_min=U_MIN,
        u_max=U_MAX,
        du=du * np.ones(3),
        **kw,
    )


def dense_grid_best(problem, step=0.005):
    """Independent dense-grid maximization over the feasible box."""
    lo, hi, _ = feasible_box(problem)
    axes = []
    for d in range(3):
        n = max(int(math.floor((hi[d] - lo[d]) / step)) + 1, 1)
        ax = lo[d] + step * np.arange(n)
        if ax[-1] < hi[d] - 1e-12:
            ax = np.append(ax, hi[d])
        axes.append(ax)
    zz, bb, gg = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([zz.ravel(), bb.ravel(), gg.ravel()], axis=1)
    # in chunks, to bound the kernel's per-row temporaries
    vals = np.concatenate(
        [objective_batch(problem, pts[i : i + 65536])[0] for i in range(0, len(pts), 65536)]
    )
    k = int(np.argmax(vals))
    return float(vals[k]), pts[k]


class TestRbfBasis:
    def test_widths_match_intersection_rule(self):
        centers, width = basis(3)
        np.testing.assert_allclose(centers, [0.2, 0.5, 0.8], atol=1e-12)
        assert width == pytest.approx(0.15 / math.sqrt(2 * math.log(2)), abs=1e-15)
        # adjacent Gaussians intersect at value 0.5
        mid = 0.35
        g = math.exp(-0.5 * ((mid - 0.2) / width) ** 2)
        assert g == pytest.approx(0.5, abs=1e-12)

    def test_default_count_centers(self):
        centers, width = basis(30)
        assert len(centers) == 30
        spacing = centers[1] - centers[0]
        assert width == pytest.approx((spacing / 2) / math.sqrt(2 * math.log(2)))

    def test_centers_span_the_heights(self):
        centers, width = basis(7, np.linspace(0.3, 0.6, 16))
        assert centers[0] == 0.3 and centers[-1] == 0.6
        np.testing.assert_allclose(np.diff(centers), 0.05, atol=1e-12)
        assert width == pytest.approx(0.025 / math.sqrt(2 * math.log(2)), abs=1e-15)

    def test_fewer_than_two_bases_rejected(self):
        with pytest.raises(ValueError, match="at least 2 basis functions"):
            basis(1)


class TestFitRbf:
    def test_model_class_recovery(self):
        rng = np.random.default_rng(21)
        centers, width = basis(5)
        w_true = rng.uniform(-2, 5, size=5)
        truth = SafeFootholdFunction(w_true, centers, width)
        z = np.linspace(0.2, 0.8, 31)
        fitted = fit_rbf(z, value(truth, z), n_basis=5)
        assert np.max(np.abs(fitted.weights - w_true)) < 1e-8
        rmse = np.sqrt(np.mean((value(fitted, z) - value(truth, z)) ** 2))
        assert rmse < 1e-8

    def test_zero_samples_zero_function(self):
        z = np.linspace(0.2, 0.8, 31)
        f = fit_rbf(z, np.zeros(31))
        np.testing.assert_allclose(f.weights, 0.0, atol=1e-9)
        assert value(f, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficient_minimum_norm(self):
        # two samples with 30 basis functions: underdetermined, must not fail
        f = fit_rbf([0.4, 0.6], [10.0, 12.0], n_basis=30)
        assert value(f, 0.4) == pytest.approx(10.0, abs=1e-6)
        assert value(f, 0.6) == pytest.approx(12.0, abs=1e-6)

    def test_residual_no_worse_than_zero_function(self):
        rng = np.random.default_rng(33)
        z = np.linspace(0.2, 0.8, 31)
        y = rng.uniform(0, 900, size=31)
        f = fit_rbf(z, y)
        rmse_fit = np.sqrt(np.mean((value(f, z) - y) ** 2))
        rmse_zero = np.sqrt(np.mean(y**2))
        assert rmse_fit <= rmse_zero

    def test_symmetric_weights_symmetric_function(self):
        centers, width = basis(7)
        w = np.array([1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0])
        f = SafeFootholdFunction(w, centers, width)
        for dz in (0.05, 0.11, 0.2):
            assert value(f, 0.5 - dz) == pytest.approx(value(f, 0.5 + dz), abs=1e-12)

    @pytest.mark.parametrize("n_heights", [31, 2])
    def test_stacked_fit_matches_separate_fits(self, n_heights):
        # 2 heights with 30 bases is underdetermined: the minimum-norm
        # solution of every model in the stack is that of its own fit.
        rng = np.random.default_rng(5)
        z = np.linspace(0.2, 0.8, n_heights)
        counts = rng.uniform(0, 1089, size=(2, 4, n_heights))
        stacked = fit_rbf(z, counts)
        assert stacked.weights.shape == (2, 4, 30)
        for j in range(2):
            for l in range(4):
                alone = fit_rbf(z, counts[j, l])
                np.testing.assert_allclose(stacked.weights[j, l], alone.weights, rtol=1e-10)
                np.testing.assert_array_equal(stacked.centers, alone.centers)
                assert stacked.width == alone.width


def stage_cost(model, cost="sum", **kw):
    """Objective of one horizon step at the level pose that puts every hip
    at 0.5 m (hip z-offset -0.1)."""
    prob = make_problem(*model, u_prev=np.array([0.6, 0.0, 0.0]), cost=cost, **kw)
    return float(objective_batch(prob, [0.6, 0.0, 0.0])[0][0])


class TestCosts:
    def test_sum_of_unit_functions(self):
        assert stage_cost(constant([1.0] * 4), "sum") == pytest.approx(4.0, abs=1e-6)

    def test_int_two_point_quadrature(self):
        # per-leg integral ~ m * (1 + 1) = 0.05, squared = 0.0025, x4 legs
        assert stage_cost(constant([1.0] * 4), "int") == pytest.approx(0.01, abs=1e-6)

    def test_prod_zeroes_on_starved_leg(self):
        model = constant([0.0, 1.0, 1.0, 1.0])
        assert stage_cost(model, "prod") == pytest.approx(0.0, abs=1e-9)
        assert stage_cost(model, "sum") == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("n_h", [1, 2])
    @pytest.mark.parametrize("cost", ["sum", "prod", "int"])
    def test_gradient_matches_central_differences(self, cost, n_h):
        rng = np.random.default_rng(11)
        centers, width = basis(10)
        model = SafeFootholdFunction(rng.uniform(0.5, 3.0, (n_h, 4, 10)), centers, width)
        u = np.tile([0.55, 0.0, 0.0], n_h) + rng.uniform(-0.1, 0.1, 3 * n_h)
        prob = make_problem(model, rng.uniform(-0.05, 0.05, (n_h, 4)), cost=cost)
        _, grad = objective_batch(prob, u)
        h = 1e-6
        steps = h * np.eye(3 * n_h)
        numeric = (objective_batch(prob, u + steps)[0] - objective_batch(prob, u - steps)[0]) / (2 * h)
        assert np.abs(numeric).max() > 0
        np.testing.assert_allclose(grad[0], numeric, rtol=1e-5, atol=1e-6 * np.abs(numeric).max())


class TestPoseEvaluation:
    def test_flat_sweep_counts(self, model, zero_velocity, gait, flat):
        hms = [extract_heightmap(flat, (off[0], off[1]), 0.0) for off in model.hip_offsets]
        z = HEIGHTS
        counts, ground = pose_evaluation(hms, zero_velocity, gait, z, model)
        assert counts.shape == (4, 31)
        np.testing.assert_array_equal(ground, 0.0)
        full = counts == 33 * 33
        # a hip-height band exists where the whole patch is safe
        assert full[:, (z >= 0.46) & (z <= 0.58)].all()
        # unreachable beyond the outer workspace radius
        assert (counts[:, z > model.r_max + 0.011] == 0).all()

    def test_matches_direct_eval(self, model, forward_velocity, gait, stairs):
        from vital.fec import FecEvaluator

        hms = [extract_heightmap(stairs, (0.3 + off[0], off[1]), 0.0) for off in model.hip_offsets]
        heights = np.linspace(0.2, 0.8, 7)
        counts, ground = pose_evaluation(hms, forward_velocity, gait, heights, model)
        for l, hm in enumerate(hms):
            ev = FecEvaluator(hm, hm.center, forward_velocity, gait, model)
            assert ground[l] == hm.cells[16, 16]
            np.testing.assert_array_equal(counts[l], ev.sweep_counts(heights + ground[l]))

    def test_extreme_heights_zero(self, model, zero_velocity, gait, flat):
        hms = [extract_heightmap(flat, (off[0], off[1]), 0.0) for off in model.hip_offsets]
        counts, _ = pose_evaluation(hms, zero_velocity, gait, np.array([0.05, 1.9]), model)
        assert (counts == 0).all()

    def test_front_hind_differ_on_stairs(self, model, forward_velocity, gait):
        stairs = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.2)
        hms = [extract_heightmap(stairs, (off[0], off[1]), 0.0) for off in model.hip_offsets]
        counts, _ = pose_evaluation(hms, forward_velocity, gait, HEIGHTS, model)
        assert not np.array_equal(counts[0], counts[2])


class TestOptimizeSingle:
    def test_symmetric_bumps_centered_solution(self):
        prob = make_problem(*bumps([0.5] * 4), cost="sum")
        res = optimize_pose_receding(prob)
        # hip z-offset -0.1 means base height 0.6 puts every hip at 0.5
        best_val, best_u = dense_grid_best(prob)
        assert res.objective >= 0.99 * best_val
        z_b, roll, pitch = res.poses[0]
        assert z_b == pytest.approx(0.6, abs=0.01)
        assert abs(roll) < 0.01
        assert abs(pitch) < 0.01

    def test_front_peak_higher_pitches_up(self):
        prob = make_problem(*bumps([0.55, 0.55, 0.5, 0.5]), cost="sum")
        res = optimize_pose_receding(prob)
        # front hips at x > 0 rise when sin(pitch) < 0
        assert res.poses[0, 2] < -0.01
        best_val, _ = dense_grid_best(prob)
        assert res.objective >= 0.99 * best_val

    def test_zero_rate_box_returns_previous(self):
        prev = np.array([0.47, 0.02, -0.03])
        prob = make_problem(*bumps([0.5] * 4), u_prev=prev, du=0.0, cost="sum")
        res = optimize_pose_receding(prob)
        np.testing.assert_allclose(res.poses[0], prev, rtol=0, atol=1e-12)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(7)
        for k in range(5):
            model = bumps(rng.uniform(0.35, 0.65, 4), height=rng.uniform(50, 500, 4))
            prev = np.array([rng.uniform(0.3, 0.7), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)])
            prob = make_problem(*model, u_prev=prev, du=0.08, cost="int")
            res = optimize_pose_receding(prob)
            u = res.poses[0]
            lo, hi, _ = feasible_box(prob)
            assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)

    def test_disjoint_rate_box_clamped(self):
        prob = make_problem(*bumps([0.5] * 4), u_prev=(1.5, 0.0, 0.0), du=0.02, cost="sum")
        res = optimize_pose_receding(prob)
        assert res.rate_box_clamped
        assert res.poses[0, 0] <= 0.8 + 1e-12

    def test_deterministic(self):
        prob = make_problem(*bumps([0.45, 0.52, 0.48, 0.55]), cost="int")
        a = optimize_pose_receding(prob)
        b = optimize_pose_receding(prob)
        assert np.array_equal(a.poses, b.poses) and a.objective == b.objective


class TestFeasibleBox:
    def test_overlapping_rate_box_is_the_intersection(self):
        prev = np.array([0.79, -0.34, 0.0])
        lo, hi, clamped = feasible_box(make_problem(*bumps([0.5] * 4), u_prev=prev, du=0.02))
        np.testing.assert_array_equal(lo, np.maximum(U_MIN, prev - 0.02))
        np.testing.assert_array_equal(hi, np.minimum(U_MAX, prev + 0.02))
        assert clamped is False

    def test_rate_box_touching_a_bound_is_not_clamped(self):
        lo, hi, clamped = feasible_box(make_problem(*bumps([0.5] * 4), u_prev=(0.8, 0.0, -0.35), du=0.0))
        np.testing.assert_array_equal(lo, [0.8, 0.0, -0.35])
        np.testing.assert_array_equal(hi, lo)
        assert clamped is False

    @pytest.mark.parametrize("prev, axis", [((1.5, 0.0, 0.0), 0), ((0.5, -0.5, 0.0), 1), ((0.5, 0.0, 0.4), 2)])
    def test_disjoint_axis_is_clamped_to_the_nearer_bound(self, prev, axis):
        lo, hi, clamped = feasible_box(make_problem(*bumps([0.5] * 4), u_prev=prev, du=0.02))
        assert clamped is True
        nearer = U_MAX[axis] if prev[axis] > U_MAX[axis] else U_MIN[axis]
        assert lo[axis] == hi[axis] == nearer
        others = np.arange(3) != axis
        np.testing.assert_array_equal(lo[others], np.asarray(prev)[others] - 0.02)
        np.testing.assert_array_equal(hi[others], np.asarray(prev)[others] + 0.02)


class TestOptimizeReceding:
    def make(self, centers, u_prev=(0.5, 0.0, 0.0), du=0.5, cost="sum"):
        return make_problem(*bumps(centers), u_prev=u_prev, du=du, cost=cost)

    def test_identical_horizons_match_single(self):
        # horizon 2 with the same model at both steps against horizon 1
        centers = [0.5, 0.52, 0.5, 0.48]
        one = optimize_pose_receding(self.make([centers]))
        two = optimize_pose_receding(self.make([centers, centers]))
        u1, u2 = two.poses
        us = one.poses[0]
        assert abs(u1[0] - u2[0]) < 1e-4
        assert abs(u1[0] - us[0]) < 1e-3
        assert abs(u1[2] - us[2]) < 1e-3

    def test_large_smoothness_locks_horizons_together(self, monkeypatch):
        gaps = []
        for lam in (10.0, 1e6, 1e9):
            monkeypatch.setattr(vital.vpa, "SMOOTH_WEIGHT", lam)
            rec = optimize_pose_receding(self.make([[0.45] * 4, [0.6] * 4]))
            u1, u2 = rec.poses
            gaps.append(np.linalg.norm(u1 - u2))
        # the deviation shrinks as the penalty weight grows and vanishes
        # in the limit
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    @pytest.mark.parametrize("n_h", [1, 2])
    def test_one_multi_start_of_eight_ascents(self, monkeypatch, n_h):
        # one batched ascent from the 6 best coarse-grid points, the previous
        # pose and the box centre
        seed_batches = []
        minimize = vital.vpa.minimize

        def spy(problem, seeds, lo, hi):
            seed_batches.append(np.shape(seeds))
            return minimize(problem, seeds, lo, hi)

        monkeypatch.setattr(vital.vpa, "minimize", spy)
        prob = self.make([[0.5, 0.52, 0.5, 0.48]] * n_h, du=0.02, cost="int")
        optimize_pose_receding(prob)
        assert seed_batches == [(8, 3 * n_h)]

    def test_pairwise_grid_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(3):
            centers, heights = rng.uniform(0.4, 0.6, (2, 4)), rng.uniform(80, 300, (2, 4))
            kw = dict(du=0.03, cost="int")
            prob = make_problem(*bumps(centers, heights), **kw)
            res = optimize_pose_receding(prob)
            # oracle: dense grid over pose pairs using precomputed stage costs
            lo, hi, _ = feasible_box(prob)
            axes = [lo[d] + 0.005 * np.arange(int((hi[d] - lo[d]) / 0.005) + 1) for d in range(3)]
            zz, bb, gg = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([zz.ravel(), bb.ravel(), gg.ravel()], axis=1)
            c1, c2 = (objective_batch(make_problem(*bumps(c, h), **kw), pts)[0] for c, h in zip(centers, heights))
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            total = c1[:, None] + c2[None, :] - vital.vpa.SMOOTH_WEIGHT * d2
            best = float(total.max())
            assert res.objective >= 0.99 * best

    def test_feasibility(self):
        prob = self.make([[0.42] * 4, [0.58] * 4], du=0.05)
        res = optimize_pose_receding(prob)
        lo, hi, _ = feasible_box(prob)
        assert res.poses.shape == (2, 3)
        assert np.all(res.poses >= lo - 1e-12) and np.all(res.poses <= hi + 1e-12)


# The benchmark's two vpa workloads, cut to 1 s.
REPLAYED_RUNS = {
    "stairs_vpa": dict(
        terrain_kind="stairs",
        terrain_steps=10,
        terrain_rise=0.10,
        terrain_going=0.25,
        terrain_start_x=0.4,
        planner="vpa",
        cost="int",
        horizon=2,
    ),
    "composite_diag": dict(terrain_kind="composite", terrain_start_x=0.4, gait="crawl", planner="vpa", horizon=1, cost="prod"),
}


def pairwise_grid_best(problem, step=0.005):
    """Dense-grid maximum of a horizon-2 objective over pose pairs, from the
    stage costs of each step alone on the grid of the feasible box."""
    lo, hi, _ = feasible_box(problem)
    axes = [lo[d] + step * np.arange(int((hi[d] - lo[d]) / step) + 1) for d in range(3)]
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    stage = []
    for j in range(2):
        rbf = dataclasses.replace(problem.rbf, weights=problem.rbf.weights[j : j + 1])
        alone = dataclasses.replace(problem, rbf=rbf, ground=problem.ground[j : j + 1])
        stage.append(objective_batch(alone, pts)[0])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float((stage[0][:, None] + stage[1][None, :] - vital.vpa.SMOOTH_WEIGHT * d2).max())


@pytest.mark.parametrize("workload", sorted(REPLAYED_RUNS))
def test_replayed_run_problems(monkeypatch, workload):
    """Every pose problem of a 1-s run: the result lies in the feasible box,
    beats the best seed and is within 1% of the dense-grid optimum."""
    solved, seed_batches = [], []
    optimize, minimize = vital.sim.optimize_pose_receding, vital.vpa.minimize

    def spy_optimize(problem):
        result = optimize(problem)
        solved.append((problem, result))
        return result

    def spy_minimize(problem, seeds, lo, hi):
        seed_batches.append(np.array(seeds))
        return minimize(problem, seeds, lo, hi)

    monkeypatch.setattr(vital.sim, "optimize_pose_receding", spy_optimize)
    monkeypatch.setattr(vital.vpa, "minimize", spy_minimize)
    vital.sim.run_scenario(vital.sim.Scenario(**REPLAYED_RUNS[workload], duration=1.0, seed=1))
    assert len(solved) == len(seed_batches) == 5
    for (problem, result), seeds in zip(solved, seed_batches):
        lo, hi, _ = feasible_box(problem)
        assert np.all(result.poses >= lo) and np.all(result.poses <= hi)
        assert result.objective >= objective_batch(problem, seeds)[0].max()
        if problem.n_horizons == 1:
            best, _ = dense_grid_best(problem)
        else:
            best = pairwise_grid_best(problem)
        assert result.objective >= best - 0.01 * abs(best)


class TestCostValidation:
    def test_unknown_cost_kind(self):
        with pytest.raises(ValueError):
            make_problem(*bumps([0.5] * 4), cost="max")

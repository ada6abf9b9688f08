import dataclasses
import math

import numpy as np
import pytest

from vital.fec import FecConfig
from vital.robot import BodyTwist, GaitParams, Pose, robot_preset
from vital.terrain import TerrainMap, extract_heightmap
from vital.vpa import (
    HipHeightSet,
    PoseOptProblem,
    SafeFootholdFunction,
    fit_rbf,
    objective_batch,
    optimize_pose_receding,
    optimize_pose_single,
    pose_evaluation,
    rbf_centers_and_width,
)

HIP_OFFSETS = np.array(
    [[0.37, 0.21, -0.1], [0.37, -0.21, -0.1], [-0.37, 0.21, -0.1], [-0.37, -0.21, -0.1]]
)


def bump(center, height=100.0, width=0.08):
    """A single exact Gaussian bump in the fitted-function class."""
    return SafeFootholdFunction(np.array([height]), np.array([center]), width)


def constant(value=1.0):
    """Effectively constant over the hip-height range (one huge Gaussian)."""
    return SafeFootholdFunction(np.array([value]), np.array([0.5]), 1e3)


def dense_grid_best(problem, step=0.005):
    """Independent dense-grid maximization over the feasible box."""
    from vital.vpa import feasible_box

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


class TestHipHeightSet:
    def test_default_sampling(self):
        hs = HipHeightSet()
        vals = hs.values
        assert len(vals) == 31
        assert vals[0] == 0.2 and vals[-1] == 0.8
        np.testing.assert_allclose(np.diff(vals), 0.02, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            HipHeightSet(z_min=0.8, z_max=0.2)
        with pytest.raises(ValueError):
            HipHeightSet(count=1)


class TestRbfBasis:
    def test_widths_match_intersection_rule(self):
        centers, width = rbf_centers_and_width(3, 0.2, 0.8)
        np.testing.assert_allclose(centers, [0.2, 0.5, 0.8], atol=1e-12)
        assert width == pytest.approx(0.15 / math.sqrt(2 * math.log(2)), abs=1e-15)
        # adjacent Gaussians intersect at value 0.5
        mid = 0.35
        g = math.exp(-0.5 * ((mid - 0.2) / width) ** 2)
        assert g == pytest.approx(0.5, abs=1e-12)

    def test_default_count_centers(self):
        centers, width = rbf_centers_and_width(30, 0.2, 0.8)
        assert len(centers) == 30
        spacing = centers[1] - centers[0]
        assert width == pytest.approx((spacing / 2) / math.sqrt(2 * math.log(2)))


class TestFitRbf:
    def test_model_class_recovery(self):
        rng = np.random.default_rng(21)
        centers, width = rbf_centers_and_width(5, 0.2, 0.8)
        w_true = rng.uniform(-2, 5, size=5)
        truth = SafeFootholdFunction(w_true, centers, width)
        z = np.linspace(0.2, 0.8, 31)
        fitted = fit_rbf(z, truth(z), n_basis=5)
        assert np.max(np.abs(fitted.weights - w_true)) < 1e-8
        rmse = np.sqrt(np.mean((fitted(z) - truth(z)) ** 2))
        assert rmse < 1e-8

    def test_zero_samples_zero_function(self):
        z = np.linspace(0.2, 0.8, 31)
        f = fit_rbf(z, np.zeros(31))
        np.testing.assert_allclose(f.weights, 0.0, atol=1e-9)
        assert f(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficient_minimum_norm(self):
        # two samples with 30 basis functions: underdetermined, must not fail
        f = fit_rbf([0.4, 0.6], [10.0, 12.0], n_basis=30)
        assert f(0.4) == pytest.approx(10.0, abs=1e-6)
        assert f(0.6) == pytest.approx(12.0, abs=1e-6)

    def test_residual_no_worse_than_zero_function(self):
        rng = np.random.default_rng(33)
        z = np.linspace(0.2, 0.8, 31)
        y = rng.uniform(0, 900, size=31)
        f = fit_rbf(z, y)
        rmse_fit = np.sqrt(np.mean((f(z) - y) ** 2))
        rmse_zero = np.sqrt(np.mean(y**2))
        assert rmse_fit <= rmse_zero

    def test_symmetric_weights_symmetric_function(self):
        centers, width = rbf_centers_and_width(7, 0.2, 0.8)
        w = np.array([1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0])
        f = SafeFootholdFunction(w, centers, width)
        for dz in (0.05, 0.11, 0.2):
            assert f(0.5 - dz) == pytest.approx(f(0.5 + dz), abs=1e-12)


def stage_cost(funcs, cost="sum", **kw):
    """Objective of one horizon step at the level pose that puts every hip
    at 0.5 m (hip z-offset -0.1)."""
    prob = PoseOptProblem(
        functions=[funcs], hip_offsets=HIP_OFFSETS, u_prev=Pose(0.6), cost=cost, **kw
    )
    return float(objective_batch(prob, [0.6, 0.0, 0.0])[0][0])


class TestCosts:
    def test_sum_of_unit_functions(self):
        funcs = [constant(1.0) for _ in range(4)]
        assert stage_cost(funcs, "sum") == pytest.approx(4.0, abs=1e-6)

    def test_int_two_point_quadrature(self):
        funcs = [constant(1.0) for _ in range(4)]
        # per-leg integral ~ m * (1 + 1) = 0.05, squared = 0.0025, x4 legs
        assert stage_cost(funcs, "int", margin=0.025) == pytest.approx(0.01, abs=1e-6)

    def test_prod_zeroes_on_starved_leg(self):
        one = constant(1.0)
        zero = constant(0.0)
        funcs = [zero, one, one, one]
        assert stage_cost(funcs, "prod") == pytest.approx(0.0, abs=1e-9)
        assert stage_cost(funcs, "sum") == pytest.approx(3.0, abs=1e-6)

    def test_smooth_moving_average(self):
        # a bump so narrow the +-1 m offsets contribute nothing
        funcs = [bump(0.5, height=1.0, width=0.05) for _ in range(4)]
        expected = 4 * ((1.0 / 2.0) ** 2)
        assert stage_cost(funcs, "smooth") == pytest.approx(expected, rel=1e-6)

    def test_q_scales(self):
        funcs = [constant(1.0) for _ in range(4)]
        assert stage_cost(funcs, "sum", q=2.0) == pytest.approx(8.0, abs=1e-5)

    @pytest.mark.parametrize("n_h", [1, 2])
    @pytest.mark.parametrize("cost", ["sum", "prod", "int", "smooth"])
    def test_gradient_matches_central_differences(self, cost, n_h):
        rng = np.random.default_rng(11)
        centers, width = rbf_centers_and_width(10, 0.2, 0.8)
        layers = [
            [SafeFootholdFunction(rng.uniform(0.5, 3.0, 10), centers, width) for _ in range(4)]
            for _ in range(n_h)
        ]
        prob = PoseOptProblem(
            functions=layers, hip_offsets=HIP_OFFSETS, u_prev=Pose(0.5), cost=cost
        )
        u = np.tile([0.55, 0.0, 0.0], n_h) + rng.uniform(-0.1, 0.1, 3 * n_h)
        _, grad = objective_batch(prob, u)
        h = 1e-6
        steps = h * np.eye(3 * n_h)
        numeric = (objective_batch(prob, u + steps)[0] - objective_batch(prob, u - steps)[0]) / (2 * h)
        assert np.abs(numeric).max() > 0
        np.testing.assert_allclose(grad[0], numeric, rtol=1e-5, atol=1e-6 * np.abs(numeric).max())


class TestPoseEvaluation:
    def test_flat_sweep_counts(self, model, config, zero_twist, gait, flat):
        hms = [extract_heightmap(flat, (off[0], off[1]), 0.0) for off in model.hip_offsets]
        heights = HipHeightSet()
        samples = pose_evaluation(hms, zero_twist, gait, heights, model, config)
        assert samples.counts.shape == (4, 31)
        z = samples.heights
        full = samples.counts == 33 * 33
        # a hip-height band exists where the whole patch is safe
        assert full[:, (z >= 0.46) & (z <= 0.58)].all()
        # unreachable beyond the outer workspace radius
        assert (samples.counts[:, z > model.r_max + 0.011] == 0).all()

    def test_matches_direct_eval(self, model, config, forward_twist, gait, stairs):
        from vital.fec import FecEvaluator

        hms = [extract_heightmap(stairs, (0.3 + off[0], off[1]), 0.0) for off in model.hip_offsets]
        heights = HipHeightSet(count=7)
        samples = pose_evaluation(hms, forward_twist, gait, heights, model, config)
        for l, hm in enumerate(hms):
            ev = FecEvaluator(hm, hm.center, forward_twist, gait, model, config)
            assert samples.ground[l] == hm.cells[16, 16]
            np.testing.assert_array_equal(samples.counts[l], ev.sweep_counts(heights.values + samples.ground[l]))

    def test_extreme_heights_zero(self, model, config, zero_twist, gait, flat):
        hms = [extract_heightmap(flat, (off[0], off[1]), 0.0) for off in model.hip_offsets]
        heights = HipHeightSet(z_min=0.05, z_max=1.9, count=2)
        samples = pose_evaluation(hms, zero_twist, gait, heights, model, config)
        assert (samples.counts == 0).all()

    def test_front_hind_differ_on_stairs(self, model, config, forward_twist, gait):
        stairs = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.2)
        hms = [extract_heightmap(stairs, (off[0], off[1]), 0.0) for off in model.hip_offsets]
        heights = HipHeightSet()
        samples = pose_evaluation(hms, forward_twist, gait, heights, model, config)
        assert not np.array_equal(samples.counts[0], samples.counts[2])


class TestOptimizeSingle:
    def problem(self, funcs, u_prev=Pose(0.5, 0.0, 0.0), du=0.5, cost="sum", **kw):
        return PoseOptProblem(
            functions=[list(funcs)],
            hip_offsets=HIP_OFFSETS,
            u_prev=u_prev,
            du_min=-du * np.ones(3),
            du_max=du * np.ones(3),
            cost=cost,
            **kw,
        )

    def test_symmetric_bumps_centered_solution(self):
        funcs = [bump(0.5) for _ in range(4)]
        prob = self.problem(funcs)
        res = optimize_pose_single(prob)
        # hip z-offset -0.1 means base height 0.6 puts every hip at 0.5
        best_val, best_u = dense_grid_best(prob)
        assert res.objective >= 0.99 * best_val
        assert res.pose.z_b == pytest.approx(0.6, abs=0.01)
        assert abs(res.pose.roll) < 0.01
        assert abs(res.pose.pitch) < 0.01

    def test_front_peak_higher_pitches_up(self):
        funcs = [bump(0.55), bump(0.55), bump(0.5), bump(0.5)]
        prob = self.problem(funcs)
        res = optimize_pose_single(prob)
        # front hips at x > 0 rise when sin(pitch) < 0
        assert res.pose.pitch < -0.01
        best_val, _ = dense_grid_best(prob)
        assert res.objective >= 0.99 * best_val

    def test_zero_rate_box_returns_previous(self):
        funcs = [bump(0.5) for _ in range(4)]
        prev = Pose(0.47, 0.02, -0.03)
        prob = self.problem(funcs, u_prev=prev, du=0.0)
        res = optimize_pose_single(prob)
        assert res.pose.z_b == pytest.approx(prev.z_b, abs=1e-12)
        assert res.pose.roll == pytest.approx(prev.roll, abs=1e-12)
        assert res.pose.pitch == pytest.approx(prev.pitch, abs=1e-12)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(7)
        for k in range(5):
            funcs = [bump(rng.uniform(0.35, 0.65), height=rng.uniform(50, 500)) for _ in range(4)]
            prev = Pose(rng.uniform(0.3, 0.7), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            prob = self.problem(funcs, u_prev=prev, du=0.08, cost="int", margin=0.025)
            res = optimize_pose_single(prob)
            u = res.pose.as_array()
            from vital.vpa import feasible_box

            lo, hi, _ = feasible_box(prob)
            assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)

    def test_disjoint_rate_box_clamped(self):
        funcs = [bump(0.5) for _ in range(4)]
        prob = self.problem(funcs, u_prev=Pose(1.5, 0.0, 0.0), du=0.02)
        res = optimize_pose_single(prob)
        assert res.rate_box_clamped
        assert res.pose.z_b <= 0.8 + 1e-12

    def test_deterministic(self):
        funcs = [bump(0.45), bump(0.52), bump(0.48), bump(0.55)]
        prob = self.problem(funcs, cost="int", margin=0.025)
        a = optimize_pose_single(prob)
        b = optimize_pose_single(prob)
        assert a.pose == b.pose and a.objective == b.objective


class TestOptimizeReceding:
    def make(self, layers, u_prev=Pose(0.5, 0.0, 0.0), du=0.5, smooth=10.0, cost="sum"):
        return PoseOptProblem(
            functions=layers,
            hip_offsets=HIP_OFFSETS,
            u_prev=u_prev,
            du_min=-du * np.ones(3),
            du_max=du * np.ones(3),
            cost=cost,
            smooth_weight=smooth,
        )

    def test_identical_horizons_match_single(self):
        funcs = [bump(0.5), bump(0.52), bump(0.5), bump(0.48)]
        single = optimize_pose_single(self.make([funcs]))
        rec = optimize_pose_receding(self.make([funcs, funcs]))
        u1, u2 = rec.poses
        us = single.pose
        assert abs(u1.z_b - u2.z_b) < 1e-4
        assert abs(u1.z_b - us.z_b) < 1e-3
        assert abs(u1.pitch - us.pitch) < 1e-3

    def test_large_smoothness_locks_horizons_together(self):
        a = [bump(0.45) for _ in range(4)]
        b = [bump(0.6) for _ in range(4)]
        gaps = []
        for lam in (10.0, 1e6, 1e9):
            rec = optimize_pose_receding(self.make([a, b], smooth=lam))
            u1, u2 = rec.poses
            gaps.append(np.linalg.norm(u1.as_array() - u2.as_array()))
        # the deviation shrinks as the penalty weight grows and vanishes
        # in the limit
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_horizon_one_delegates_to_single(self):
        funcs = [bump(0.5) for _ in range(4)]
        rec = optimize_pose_receding(self.make([funcs]))
        single = optimize_pose_single(self.make([funcs]))
        assert rec.poses[0] == single.pose
        assert rec.objective == single.objective

    def test_pairwise_grid_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(3):
            a = [bump(rng.uniform(0.4, 0.6), height=rng.uniform(80, 300)) for _ in range(4)]
            b = [bump(rng.uniform(0.4, 0.6), height=rng.uniform(80, 300)) for _ in range(4)]
            prev = Pose(0.5, 0.0, 0.0)
            prob = self.make([a, b], u_prev=prev, du=0.03, smooth=10.0, cost="int")
            prob = dataclasses.replace(prob, margin=0.025)
            res = optimize_pose_receding(prob)
            # oracle: dense grid over pose pairs using precomputed stage costs
            from vital.vpa import feasible_box

            lo, hi, _ = feasible_box(prob)
            axes = [lo[d] + 0.005 * np.arange(int((hi[d] - lo[d]) / 0.005) + 1) for d in range(3)]
            zz, bb, gg = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([zz.ravel(), bb.ravel(), gg.ravel()], axis=1)
            c1, c2 = (
                objective_batch(dataclasses.replace(prob, functions=[layer]), pts)[0]
                for layer in prob.functions
            )
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            total = c1[:, None] + c2[None, :] - prob.smooth_weight * d2
            best = float(total.max())
            assert res.objective >= 0.99 * best

    def test_feasibility(self):
        a = [bump(0.42) for _ in range(4)]
        b = [bump(0.58) for _ in range(4)]
        prob = self.make([a, b], u_prev=Pose(0.5, 0, 0), du=0.05)
        res = optimize_pose_receding(prob)
        from vital.vpa import feasible_box

        lo, hi, _ = feasible_box(prob)
        for p in res.poses:
            u = p.as_array()
            assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)


class TestCostValidation:
    def test_unknown_cost_kind(self):
        with pytest.raises(ValueError):
            PoseOptProblem(
                functions=[[bump(0.5)] * 4],
                hip_offsets=HIP_OFFSETS,
                u_prev=Pose(0.5, 0, 0),
                cost="max",
            )

    def test_int_needs_positive_margin(self):
        with pytest.raises(ValueError):
            PoseOptProblem(
                functions=[[bump(0.5)] * 4],
                hip_offsets=HIP_OFFSETS,
                u_prev=Pose(0.5, 0, 0),
                cost="int",
                margin=0.0,
            )

import math

import numpy as np
import pytest

from vital.robot import (
    BodyTwist,
    GaitParams,
    Pose,
    RobotModel,
    hip_height,
    nominal_foothold,
    robot_preset,
    swing_trajectory,
    workspace_contains,
)


def rotation_oracle(roll, pitch, yaw):
    """Independent Cardan roll-pitch-yaw rotation built from the axis matrices."""
    cb, sb = math.cos(roll), math.sin(roll)
    cg, sg = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
    ry = np.array([[cg, 0, sg], [0, 1, 0], [-sg, 0, cg]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry @ rx


class TestHipHeight:
    def test_level_pose_collapses_to_sum(self):
        assert hip_height(Pose(0.6, 0.0, 0.0), (0.4, 0.3, -0.1)) == pytest.approx(0.5)

    def test_pitch_only(self):
        z = hip_height(Pose(0.6, 0.0, 0.1), (0.4, 0.3, -0.1))
        expect = 0.6 - 0.4 * math.sin(0.1) - 0.1 * math.cos(0.1)
        assert z == pytest.approx(expect, abs=1e-12)
        assert z == pytest.approx(0.46057, abs=1e-4)

    def test_roll_only(self):
        z = hip_height(Pose(0.6, 0.1, 0.0), (0.4, 0.3, -0.1))
        expect = 0.6 + 0.3 * math.sin(0.1) - 0.1 * math.cos(0.1)
        assert z == pytest.approx(expect, abs=1e-12)

    def test_matches_rotation_matrix_fk(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            roll, pitch, yaw = rng.uniform(-0.5, 0.5, size=3)
            z_b = rng.uniform(0.2, 0.9)
            offset = rng.uniform(-0.5, 0.5, size=3)
            fk = z_b + (rotation_oracle(roll, pitch, yaw) @ offset)[2]
            assert hip_height(Pose(z_b, roll, pitch), offset) == pytest.approx(fk, abs=1e-12)

    def test_monotone_in_base_height(self):
        offsets = (0.37, 0.21, 0.0)
        zs = [hip_height(Pose(z, 0.2, -0.1), offsets) for z in np.linspace(0.2, 0.8, 13)]
        assert np.all(np.diff(zs) > 0)


class TestNominalFoothold:
    def test_zero_twist_is_hip_projection(self, flat, gait):
        twist = BodyTwist(np.zeros(3), np.zeros(3))
        p = nominal_foothold((1.0, 0.5, 0.6), twist, gait, flat)
        np.testing.assert_allclose(p, [1.0, 0.5, 0.0])

    def test_velocity_lookahead_offset(self, flat):
        gait = GaitParams(step_length=0.2, step_frequency=1.0, duty_factor=0.5, t_remaining=0.25)
        twist = BodyTwist(np.array([0.2, 0.0, 0.0]), np.zeros(3))
        p = nominal_foothold((0.0, 0.0, 0.6), twist, gait, flat)
        # lookahead = t_remaining + half the stance = 0.25 + 0.25
        assert p[0] == pytest.approx(0.2 * 0.5)
        assert p[1] == 0.0

    def test_height_snaps_to_tread(self, stairs, gait):
        twist = BodyTwist(np.array([0.2, 0.0, 0.0]), np.zeros(3))
        p = nominal_foothold((0.25, 0.0, 0.6), twist, gait, stairs)
        from vital.terrain import sample_height

        assert p[2] == sample_height(stairs, p[0], p[1])


class TestSwingTrajectory:
    def test_apex_at_midpoint_for_degenerate_arc(self):
        traj = swing_trajectory((0, 0, 0), (0, 0, 0), 0.12)
        assert traj.point_at(0.5)[2] == pytest.approx(0.12)

    def test_endpoints_exact(self):
        traj = swing_trajectory((0.1, 0.2, 0.05), (0.4, -0.1, 0.15), 0.12)
        np.testing.assert_array_equal(traj.point_at(0.0), [0.1, 0.2, 0.05])
        np.testing.assert_array_equal(traj.point_at(1.0), [0.4, -0.1, 0.15])

    def test_midpoint_height_formula(self):
        traj = swing_trajectory((0, 0, 0), (0.2, 0, 0.1), 0.12)
        assert traj.point_at(0.5)[2] == pytest.approx(0.05 + 0.12)

    def test_symmetric_profile_for_level_endpoints(self):
        traj = swing_trajectory((0, 0, 0.3), (0.4, 0, 0.3), 0.1)
        z = np.array([traj.point_at(s)[2] for s in np.linspace(0.0, 1.0, 21)])
        np.testing.assert_allclose(z, z[::-1], atol=1e-12)

    def test_apex_above_endpoints(self):
        traj = swing_trajectory((0, 0, 0.0), (0.3, 0, 0.1), 0.08)
        z = [traj.point_at(s)[2] for s in np.linspace(0.0, 1.0, 41)]
        assert max(z) >= 0.1

    def test_negative_apex_rejected(self):
        with pytest.raises(ValueError):
            swing_trajectory((0, 0, 0), (1, 0, 0), -0.01)


class TestWorkspace:
    def test_mid_shell_inside(self, model):
        mid = (model.r_min + model.r_max) / 2
        assert workspace_contains((0, 0, 1.0), (0, 0, 1.0 - mid), model)

    def test_coincident_violates_inner_radius(self, model):
        assert not workspace_contains((0, 0, 1.0), (0, 0, 1.0), model)

    def test_just_beyond_outer_radius(self, model):
        assert not workspace_contains((0, 0, 1.0), (0, 0, 1.0 - model.r_max - 0.001), model)

    def test_rotation_invariance(self, model):
        rng = np.random.default_rng(99)
        hip = np.array([0.5, -0.2, 0.9])
        for _ in range(50):
            d = rng.uniform(0.1, 0.9)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            foot = hip + d * direction
            assert workspace_contains(hip, foot, model) == (model.r_min <= d <= model.r_max)


class TestModelValidation:
    def test_presets_exist(self):
        a = robot_preset("hyq-like")
        b = robot_preset("hyqreal-like")
        assert a.hip_offsets.shape == (4, 3)
        assert not np.array_equal(a.hip_offsets, b.hip_offsets)
        assert (a.r_min, a.r_max) != (b.r_min, b.r_max)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            robot_preset("spot-like")

    def test_asymmetric_hips_rejected(self):
        bad = [[0.3, 0.2, 0], [0.3, -0.25, 0], [-0.3, 0.2, 0], [-0.3, -0.2, 0]]
        with pytest.raises(ValueError):
            RobotModel(np.array(bad))

    def test_shell_ordering_enforced(self):
        offs = robot_preset("hyq-like").hip_offsets
        with pytest.raises(ValueError):
            RobotModel(offs, r_min=0.8, r_max=0.5)

    def test_gait_durations(self):
        g = GaitParams(step_length=0.1, step_frequency=2.0, duty_factor=0.6, t_remaining=0.0)
        assert g.cycle_duration == pytest.approx(0.5)
        assert g.stance_duration == pytest.approx(0.3)
        assert g.swing_duration == pytest.approx(0.2)
        with pytest.raises(ValueError):
            GaitParams(step_frequency=0.0)
        with pytest.raises(ValueError):
            GaitParams(duty_factor=1.0)

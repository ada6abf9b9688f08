import math

import numpy as np
import pytest

from vital.robot import (
    GaitParams,
    hip_height_from,
    nominal_foothold,
    robot_preset,
    swing_points,
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
        assert hip_height_from(0.6, 0.0, 0.0, (0.4, 0.3, -0.1)) == pytest.approx(0.5)

    def test_pitch_only(self):
        z = hip_height_from(0.6, 0.0, 0.1, (0.4, 0.3, -0.1))
        expect = 0.6 - 0.4 * math.sin(0.1) - 0.1 * math.cos(0.1)
        assert z == pytest.approx(expect, abs=1e-12)
        assert z == pytest.approx(0.46057, abs=1e-4)

    def test_roll_only(self):
        z = hip_height_from(0.6, 0.1, 0.0, (0.4, 0.3, -0.1))
        expect = 0.6 + 0.3 * math.sin(0.1) - 0.1 * math.cos(0.1)
        assert z == pytest.approx(expect, abs=1e-12)

    def test_matches_rotation_matrix_fk(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            roll, pitch, yaw = rng.uniform(-0.5, 0.5, size=3)
            z_b = rng.uniform(0.2, 0.9)
            offset = rng.uniform(-0.5, 0.5, size=3)
            fk = z_b + (rotation_oracle(roll, pitch, yaw) @ offset)[2]
            assert hip_height_from(z_b, roll, pitch, offset) == pytest.approx(fk, abs=1e-12)

    def test_monotone_in_base_height(self):
        offsets = (0.37, 0.21, 0.0)
        zs = [hip_height_from(z, 0.2, -0.1, offsets) for z in np.linspace(0.2, 0.8, 13)]
        assert np.all(np.diff(zs) > 0)


class TestNominalFoothold:
    def test_zero_twist_is_hip_projection(self, flat, gait):
        p = nominal_foothold((1.0, 0.5, 0.6), np.zeros(2), gait, flat)
        np.testing.assert_allclose(p, [1.0, 0.5, 0.0])

    def test_velocity_lookahead_offset(self, flat):
        gait = GaitParams(duty_factor=0.5, t_remaining=0.25)
        p = nominal_foothold((0.0, 0.0, 0.6), np.array([0.2, 0.0]), gait, flat)
        # lookahead = t_remaining + half the stance = 0.25 + 0.5 * 0.5 / 1.4
        assert p[0] == pytest.approx(0.2 * (0.25 + 0.25 / 1.4))
        assert p[1] == 0.0

    def test_height_snaps_to_tread(self, stairs, gait):
        p = nominal_foothold((0.25, 0.0, 0.6), np.array([0.2, 0.0]), gait, stairs)
        from vital.terrain import sample_height

        assert p[2] == sample_height(stairs, p[0], p[1])


class TestSwingTrajectory:
    def test_apex_at_midpoint_for_degenerate_arc(self):
        assert swing_points((0, 0, 0), (0, 0, 0), 0.5, 0.12)[2] == pytest.approx(0.12)

    def test_endpoints_exact(self):
        p_lo, p_td = (0.1, 0.2, 0.05), (0.4, -0.1, 0.15)
        np.testing.assert_array_equal(swing_points(p_lo, p_td, 0.0, 0.12), [0.1, 0.2, 0.05])
        np.testing.assert_array_equal(swing_points(p_lo, p_td, 1.0, 0.12), [0.4, -0.1, 0.15])
        # stacked arcs keep their ends too
        both = swing_points([p_lo, p_lo], [p_td, p_td], np.array([0.0, 1.0]), 0.12)
        np.testing.assert_array_equal(both, [p_lo, p_td])

    def test_midpoint_height_formula(self):
        assert swing_points((0, 0, 0), (0.2, 0, 0.1), 0.5, 0.12)[2] == pytest.approx(0.05 + 0.12)

    def test_symmetric_profile_for_level_endpoints(self):
        s = np.linspace(0.0, 1.0, 21)
        z = swing_points(np.tile([0, 0, 0.3], (21, 1)), np.tile([0.4, 0, 0.3], (21, 1)), s, 0.1)[:, 2]
        np.testing.assert_allclose(z, z[::-1], atol=1e-12)

    def test_apex_above_endpoints(self):
        z = [swing_points((0, 0, 0.0), (0.3, 0, 0.1), s, 0.08)[2] for s in np.linspace(0.0, 1.0, 41)]
        assert max(z) >= 0.1


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

    @pytest.mark.parametrize("name", ["hyq-like", "hyqreal-like"])
    def test_preset_geometry(self, name):
        # RobotModel checks nothing: a model comes only from a preset, so
        # the presets are what must hold four left/right symmetric hips, a
        # workspace shell 0 < r_min < r_max and a foot of positive radius.
        m = robot_preset(name)
        assert m.hip_offsets.shape == (4, 3) and m.hip_offsets.dtype == np.float64
        y = m.hip_offsets[:, 1]
        assert y[0] == -y[1] > 0 and y[2] == -y[3] > 0
        assert 0 < m.r_min < m.r_max and m.foot_radius > 0 and m.step_height > 0

    def test_gait_durations(self):
        # At 1.4 Hz a cycle lasts 1 / 1.4 s: 3/7 s of stance and 2/7 s of swing.
        g = GaitParams(duty_factor=0.6, t_remaining=0.0)
        assert g.stance_duration == pytest.approx(3 / 7)
        assert g.swing_duration == pytest.approx(2 / 7)

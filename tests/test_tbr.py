import math

import numpy as np
import pytest

from vital.robot import hip_height_from
from vital.tbr import tbr_pose


class TestTbrPose:
    def test_level_footholds_identity_reference(self):
        feet = np.array([[0.4, 0.3, 0.0], [0.4, -0.3, 0.0], [-0.4, 0.3, 0.0], [-0.4, -0.3, 0.0]])
        ref = tbr_pose(feet, height_offset=0.55)
        assert ref.roll == pytest.approx(0.0, abs=1e-12)
        assert ref.pitch == pytest.approx(0.0, abs=1e-12)
        assert ref.z_b == pytest.approx(0.55)

    def test_sloped_plane_pitch_sign(self):
        # footholds on z = 0.2 x: uphill along +x, front hips must rise,
        # which the hip-height formula encodes as negative pitch
        feet = np.array([
            [0.4, 0.3, 0.08],
            [0.4, -0.3, 0.08],
            [-0.4, 0.3, -0.08],
            [-0.4, -0.3, -0.08],
        ])
        ref = tbr_pose(feet, height_offset=0.55)
        assert ref.pitch == pytest.approx(-math.atan(0.2), abs=1e-9)
        assert ref.roll == pytest.approx(0.0, abs=1e-12)
        front = hip_height_from(ref.z_b, ref.roll, ref.pitch, (0.4, 0.3, 0.0))
        hind = hip_height_from(ref.z_b, ref.roll, ref.pitch, (-0.4, 0.3, 0.0))
        assert front > hind

    def test_roll_from_lateral_slope(self):
        # footholds on z = 0.1 y
        feet = np.array([
            [0.4, 0.3, 0.03],
            [0.4, -0.3, -0.03],
            [-0.4, 0.3, 0.03],
            [-0.4, -0.3, -0.03],
        ])
        ref = tbr_pose(feet, height_offset=0.5)
        assert ref.pitch == pytest.approx(0.0, abs=1e-12)
        assert abs(ref.roll) == pytest.approx(math.asin(0.1 / math.sqrt(1.01)), abs=1e-9)
        left = hip_height_from(ref.z_b, ref.roll, ref.pitch, (0.4, 0.3, 0.0))
        right = hip_height_from(ref.z_b, ref.roll, ref.pitch, (0.4, -0.3, 0.0))
        assert left > right

    def test_coplanar_exact_interpolation(self):
        rng = np.random.default_rng(8)
        a, b, c = 0.15, -0.08, 0.3
        pts = []
        for _ in range(6):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            pts.append([x, y, a * x + b * y + c])
        pts = np.array(pts)
        ref = tbr_pose(pts, height_offset=0.0)
        n = ref.normal
        # residuals of the fitted plane are zero for coplanar inputs
        d = n @ np.array([0.0, 0.0, c])  # plane passes through (0, 0, c)
        for p in pts:
            assert n @ p == pytest.approx(d, abs=1e-12)

    def test_normal_points_up_unit(self):
        feet = np.array([[0.4, 0.3, 0.2], [0.4, -0.3, 0.1], [-0.4, 0.3, 0.0], [-0.4, -0.3, -0.1]])
        ref = tbr_pose(feet)
        assert ref.normal[2] > 0
        assert np.linalg.norm(ref.normal) == pytest.approx(1.0, abs=1e-12)

    def test_yaw_rotation_leaves_tilt_magnitude(self):
        rng = np.random.default_rng(11)
        feet = np.array([[0.4, 0.3, 0.1], [0.4, -0.3, 0.05], [-0.4, 0.3, -0.02], [-0.4, -0.3, 0.0]])
        base = tbr_pose(feet)
        tilt0 = math.acos(base.normal[2])
        for _ in range(10):
            th = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1]])
            ref = tbr_pose(feet @ rot.T)
            assert math.acos(ref.normal[2]) == pytest.approx(tilt0, abs=1e-9)

    def test_degenerate_footholds_rejected(self):
        collinear = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0], [0.2, 0.2, 0.0], [0.3, 0.3, 0.0]])
        with pytest.raises(ValueError, match="degenerate support polygon"):
            tbr_pose(collinear)
        with pytest.raises(ValueError):
            tbr_pose(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_height_is_centroid_plus_offset(self):
        feet = np.array([[0.4, 0.3, 0.3], [0.4, -0.3, 0.2], [-0.4, 0.3, 0.1], [-0.4, -0.3, 0.2]])
        ref = tbr_pose(feet, height_offset=0.6)
        assert ref.z_b == pytest.approx(0.2 + 0.6)

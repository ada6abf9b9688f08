import math

import numpy as np
import pytest

from vital.robot import hip_height_from
from vital.tbr import D_REF, tbr_pose


def normal(pose):
    """The body z-axis of the pose (z_b, roll, pitch), the fitted plane's
    upward unit normal: (sin p cos r, -sin r, cos p cos r)."""
    _, r, p = pose
    return np.array([math.sin(p) * math.cos(r), -math.sin(r), math.cos(p) * math.cos(r)])


class TestTbrPose:
    def test_level_footholds_identity_reference(self):
        feet = np.array([[0.4, 0.3, 0.0], [0.4, -0.3, 0.0], [-0.4, 0.3, 0.0], [-0.4, -0.3, 0.0]])
        z_b, roll, pitch = tbr_pose(feet)
        assert roll == pytest.approx(0.0, abs=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)
        assert z_b == pytest.approx(0.55)

    def test_sloped_plane_pitch_sign(self):
        # footholds on z = 0.2 x: uphill along +x, front hips must rise,
        # which the hip-height formula encodes as negative pitch
        feet = np.array([
            [0.4, 0.3, 0.08],
            [0.4, -0.3, 0.08],
            [-0.4, 0.3, -0.08],
            [-0.4, -0.3, -0.08],
        ])
        z_b, roll, pitch = tbr_pose(feet)
        assert pitch == pytest.approx(-math.atan(0.2), abs=1e-9)
        assert roll == pytest.approx(0.0, abs=1e-12)
        front = hip_height_from(z_b, roll, pitch, (0.4, 0.3, 0.0))
        hind = hip_height_from(z_b, roll, pitch, (-0.4, 0.3, 0.0))
        assert front > hind

    def test_roll_from_lateral_slope(self):
        # footholds on z = 0.1 y
        feet = np.array([
            [0.4, 0.3, 0.03],
            [0.4, -0.3, -0.03],
            [-0.4, 0.3, 0.03],
            [-0.4, -0.3, -0.03],
        ])
        z_b, roll, pitch = tbr_pose(feet)
        assert pitch == pytest.approx(0.0, abs=1e-12)
        assert abs(roll) == pytest.approx(math.asin(0.1 / math.sqrt(1.01)), abs=1e-9)
        left = hip_height_from(z_b, roll, pitch, (0.4, 0.3, 0.0))
        right = hip_height_from(z_b, roll, pitch, (0.4, -0.3, 0.0))
        assert left > right

    def test_coplanar_exact_interpolation(self):
        rng = np.random.default_rng(8)
        a, b, c = 0.15, -0.08, 0.3
        pts = []
        for _ in range(6):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            pts.append([x, y, a * x + b * y + c])
        pts = np.array(pts)
        n = normal(tbr_pose(pts))
        # residuals of the fitted plane are zero for coplanar inputs
        d = n @ np.array([0.0, 0.0, c])  # plane passes through (0, 0, c)
        for p in pts:
            assert n @ p == pytest.approx(d, abs=1e-12)

    def test_normal_points_up_unit(self):
        feet = np.array([[0.4, 0.3, 0.2], [0.4, -0.3, 0.1], [-0.4, 0.3, 0.0], [-0.4, -0.3, -0.1]])
        n = normal(tbr_pose(feet))
        assert n[2] > 0
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)

    def test_yaw_rotation_leaves_tilt_magnitude(self):
        rng = np.random.default_rng(11)
        feet = np.array([[0.4, 0.3, 0.1], [0.4, -0.3, 0.05], [-0.4, 0.3, -0.02], [-0.4, -0.3, 0.0]])
        tilt0 = math.acos(normal(tbr_pose(feet))[2])
        for _ in range(10):
            th = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1]])
            assert math.acos(normal(tbr_pose(feet @ rot.T))[2]) == pytest.approx(tilt0, abs=1e-9)

    def test_degenerate_footholds_rejected(self):
        collinear = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 0.0], [0.2, 0.2, 0.0], [0.3, 0.3, 0.0]])
        with pytest.raises(ValueError, match="degenerate support polygon"):
            tbr_pose(collinear)
        # two footholds leave the plane fit's design matrix rank 2 at most
        with pytest.raises(ValueError, match="degenerate support polygon"):
            tbr_pose(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_height_is_centroid_plus_offset(self):
        feet = np.array([[0.4, 0.3, 0.3], [0.4, -0.3, 0.2], [-0.4, 0.3, 0.1], [-0.4, -0.3, 0.2]])
        pose = tbr_pose(feet)
        assert pose.shape == (3,)
        assert pose[0] == pytest.approx(0.2 + D_REF)

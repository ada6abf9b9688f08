import numpy as np
import pytest

from vital.fec import SafetyGrid, eval_fec
from vital.robot import nominal_foothold, swing_points
from vital.terrain import extract_heightmap, sample_height
from vital.vfa import (
    FALLBACK_NO_SAFE_CELL,
    FALLBACK_SELECTED,
    FootholdDecision,
    foothold_evaluation,
    select_closest_safe,
)

from maps import sampled_map


def grid_from_mask(mask):
    return SafetyGrid(mask, mask, mask, mask, mask)


def cell_of(hm, point):
    """The one heightmap cell whose world point is ``point``."""
    wx, wy = hm.world_points()
    ((i, j),) = np.argwhere((wx == point[0]) & (wy == point[1]) & (hm.cells == point[2]))
    return int(i), int(j)


class TestSelection:
    def test_nominal_cell_when_all_safe(self, flat):
        hm = sampled_map(flat, (1.0, 2.0), 0.0, 9, 9)
        mask = np.ones((9, 9), dtype=bool)
        nominal = np.array([1.0, 2.0, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert d.fallback == FALLBACK_SELECTED
        assert cell_of(hm, d.optimal) == (4, 4)
        np.testing.assert_allclose(d.optimal, nominal, atol=1e-12)

    def test_single_safe_column_one_cell_left(self, flat):
        hm = sampled_map(flat, (0.0, 0.0), 0.0, 9, 9)
        mask = np.zeros((9, 9), dtype=bool)
        mask[3, :] = True  # one cell toward -x of the nominal
        nominal = np.array([0.0, 0.0, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert cell_of(hm, d.optimal) == (3, 4)
        assert np.hypot(*(d.optimal[:2] - nominal[:2])) == pytest.approx(0.02)

    def test_exhaustive_scan_optimality(self, flat):
        rng = np.random.default_rng(17)
        hm = sampled_map(flat, (0.3, -0.2), 0.5, 11, 11)
        wx, wy = hm.world_points()
        nominal = np.array([0.33, -0.18, 0.0])
        for _ in range(20):
            mask = rng.random((11, 11)) > 0.8
            d = select_closest_safe(grid_from_mask(mask), hm, nominal)
            if not mask.any():
                assert d.fallback == FALLBACK_NO_SAFE_CELL
                continue
            best = min(
                (wx[i, j] - nominal[0]) ** 2 + (wy[i, j] - nominal[1]) ** 2
                for i in range(11)
                for j in range(11)
                if mask[i, j]
            )
            got = (d.optimal[0] - nominal[0]) ** 2 + (d.optimal[1] - nominal[1]) ** 2
            assert got == pytest.approx(best, abs=1e-15)

    def test_tie_breaking_deterministic(self, flat):
        hm = sampled_map(flat, (0.0, 0.0), 0.0, 9, 9)
        mask = np.zeros((9, 9), dtype=bool)
        # four cells equidistant from the nominal at the center
        mask[3, 4] = mask[5, 4] = mask[4, 3] = mask[4, 5] = True
        nominal = np.array([0.0, 0.0, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        # |dx| breaks the tie first: the two cells offset purely in y have
        # |dx| = 0, and the lower row-major index wins among those
        assert cell_of(hm, d.optimal) == (4, 3)
        d2 = select_closest_safe(grid_from_mask(mask), hm, nominal)
        np.testing.assert_array_equal(d2.optimal, d.optimal)
        mask2 = np.zeros((9, 9), dtype=bool)
        mask2[3, 4] = mask2[5, 4] = True
        d3 = select_closest_safe(grid_from_mask(mask2), hm, nominal)
        assert cell_of(hm, d3.optimal) == (3, 4)

    def test_all_false_keeps_nominal(self, flat):
        hm = sampled_map(flat, (0.0, 0.0), 0.0, 9, 9)
        mask = np.zeros((9, 9), dtype=bool)
        nominal = np.array([0.01, -0.01, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert d.fallback == FALLBACK_NO_SAFE_CELL
        assert d.safe_count == 0
        np.testing.assert_array_equal(d.optimal, nominal)


class TestFootholdEvaluation:
    def test_flat_selects_nominal(self, flat, model, zero_velocity, gait):
        nominal = np.array([0.5, 0.1, 0.0])
        hm = extract_heightmap(flat, (0.5, 0.1), 0.0)
        hip = np.array([0.5, 0.1, 0.55])
        d = foothold_evaluation(hm, hip, zero_velocity, gait, model, current_foot=np.array([0.4, 0.1, 0.0]))
        assert d.fallback == FALLBACK_SELECTED
        np.testing.assert_allclose(d.optimal[:2], nominal[:2], atol=1e-9)
        assert d.safe_count > 0

    def test_no_safe_cell_flags_fallback(self, flat, model, zero_velocity, gait):
        nominal = np.array([0.5, 0.1, 0.0])
        hm = extract_heightmap(flat, (0.5, 0.1), 0.0)
        hip = np.array([0.5, 0.1, 1.9])  # far out of reach
        d = foothold_evaluation(hm, hip, zero_velocity, gait, model)
        assert d.fallback == FALLBACK_NO_SAFE_CELL
        np.testing.assert_array_equal(d.optimal, nominal)

    def test_selection_survives_erosion(self, stairs, model, forward_velocity, gait):
        hip = np.array([0.2, 0.0, 0.65])
        nominal = nominal_foothold(hip, forward_velocity, gait, stairs)
        hm = extract_heightmap(stairs, nominal[:2], 0.0)
        foot = np.array([0.2, 0.0, sample_height(stairs, 0.2, 0.0)])
        d = foothold_evaluation(hm, hip, forward_velocity, gait, model, current_foot=foot)
        assert d.fallback == FALLBACK_SELECTED
        grid = eval_fec(hm, hip, forward_velocity, gait, model, current_foot=foot)
        assert grid.cells[cell_of(hm, d.optimal)]
        np.testing.assert_array_equal(d.grid.cells, grid.cells)

    def test_determinism(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.31, 0.02), 0.2)
        hip = np.array([0.2, 0.02, 0.6])
        a = foothold_evaluation(hm, hip, forward_velocity, gait, model)
        b = foothold_evaluation(hm, hip, forward_velocity, gait, model)
        np.testing.assert_array_equal(a.optimal, b.optimal)


class TestAdjustTrajectory:
    def test_endpoints_bind_to_decision(self):
        d = FootholdDecision(np.array([0.3, 0.1, 0.05]), 10, FALLBACK_SELECTED)
        foot = np.array([0.1, 0.1, 0.0])
        np.testing.assert_array_equal(swing_points(foot, d.optimal, 0.0, 0.12), foot)
        np.testing.assert_array_equal(swing_points(foot, d.optimal, 1.0, 0.12), d.optimal)

    def test_shifted_touchdown_shifts_endpoint_only(self):
        foot = np.array([0.0, 0.0, 0.0])
        d1 = FootholdDecision(np.array([0.3, 0.0, 0.0]), 5, FALLBACK_SELECTED)
        d2 = FootholdDecision(np.array([0.32, 0.0, 0.0]), 5, FALLBACK_SELECTED)
        td1, td2 = (swing_points(foot, d.optimal, 1.0, 0.12) for d in (d1, d2))
        assert td2[0] - td1[0] == pytest.approx(0.02)
        mid1, mid2 = (swing_points(foot, d.optimal, 0.5, 0.12) for d in (d1, d2))
        assert mid1[2] == pytest.approx(mid2[2])

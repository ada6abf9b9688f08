import numpy as np
import pytest

from vital.fec import SafetyGrid
from vital.robot import BodyTwist, GaitParams, swing_trajectory
from vital.terrain import extract_heightmap, sample_height
from vital.vfa import (
    FALLBACK_NO_SAFE_CELL,
    FALLBACK_SELECTED,
    VfaInput,
    foothold_evaluation,
    select_closest_safe,
)


def grid_from_mask(mask):
    return SafetyGrid(mask, mask, mask, mask, mask, mask)


class TestSelection:
    def test_nominal_cell_when_all_safe(self, flat):
        hm = extract_heightmap(flat, (1.0, 2.0), 0.0, h_x=9, h_y=9)
        mask = np.ones((9, 9), dtype=bool)
        nominal = np.array([1.0, 2.0, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert d.fallback == FALLBACK_SELECTED
        assert d.cell == (4, 4)
        np.testing.assert_allclose(d.optimal, nominal, atol=1e-12)

    def test_single_safe_column_one_cell_left(self, flat):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0, h_x=9, h_y=9)
        mask = np.zeros((9, 9), dtype=bool)
        mask[3, :] = True  # one cell toward -x of the nominal
        nominal = np.array([0.0, 0.0, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert d.cell == (3, 4)
        assert np.hypot(*(d.optimal[:2] - nominal[:2])) == pytest.approx(0.02)

    def test_exhaustive_scan_optimality(self, flat):
        rng = np.random.default_rng(17)
        hm = extract_heightmap(flat, (0.3, -0.2), 0.5, h_x=11, h_y=11)
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
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0, h_x=9, h_y=9)
        mask = np.zeros((9, 9), dtype=bool)
        # four cells equidistant from the nominal at the center
        mask[3, 4] = mask[5, 4] = mask[4, 3] = mask[4, 5] = True
        nominal = np.array([0.0, 0.0, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        # |dx| breaks the tie first: the two cells offset purely in y have
        # |dx| = 0, and the lower row-major index wins among those
        assert d.cell == (4, 3)
        d2 = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert d2.cell == d.cell
        mask2 = np.zeros((9, 9), dtype=bool)
        mask2[3, 4] = mask2[5, 4] = True
        d3 = select_closest_safe(grid_from_mask(mask2), hm, nominal)
        assert d3.cell == (3, 4)

    def test_all_false_keeps_nominal(self, flat):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0, h_x=9, h_y=9)
        mask = np.zeros((9, 9), dtype=bool)
        nominal = np.array([0.01, -0.01, 0.0])
        d = select_closest_safe(grid_from_mask(mask), hm, nominal)
        assert d.fallback == FALLBACK_NO_SAFE_CELL
        assert d.safe_count == 0
        np.testing.assert_array_equal(d.optimal, nominal)


class TestFootholdEvaluation:
    def test_flat_selects_nominal(self, flat, model, config, zero_twist, gait):
        nominal = np.array([0.5, 0.1, 0.0])
        hm = extract_heightmap(flat, (0.5, 0.1), 0.0)
        vin = VfaInput(hm, 0.55, zero_twist, gait, nominal)
        d = foothold_evaluation(vin, model, config, current_foot=np.array([0.4, 0.1, 0.0]))
        assert d.fallback == FALLBACK_SELECTED
        np.testing.assert_allclose(d.optimal[:2], nominal[:2], atol=1e-9)
        assert d.safe_count > 0

    def test_no_safe_cell_flags_fallback(self, flat, model, config, zero_twist, gait):
        nominal = np.array([0.5, 0.1, 0.0])
        hm = extract_heightmap(flat, (0.5, 0.1), 0.0)
        vin = VfaInput(hm, 1.9, zero_twist, gait, nominal)  # hips far out of reach
        d = foothold_evaluation(vin, model, config)
        assert d.fallback == FALLBACK_NO_SAFE_CELL
        np.testing.assert_array_equal(d.optimal, nominal)

    def test_nominal_outside_heightmap_rejected(self, flat, model, config, zero_twist, gait):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0, h_x=9, h_y=9)
        vin = VfaInput(hm, 0.55, zero_twist, gait, np.array([5.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="nominal not in heightmap"):
            foothold_evaluation(vin, model, config)

    def test_selection_survives_erosion(self, stairs, model, config, forward_twist, gait):
        from vital.fec import FecInput, eval_fec

        nominal = np.array([0.3, 0.0, sample_height(stairs, 0.3, 0.0)])
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        vin = VfaInput(hm, 0.65, forward_twist, gait, nominal)
        foot = np.array([0.2, 0.0, sample_height(stairs, 0.2, 0.0)])
        d = foothold_evaluation(vin, model, config, current_foot=foot)
        if d.fallback == FALLBACK_SELECTED:
            lookahead = gait.t_remaining + 0.5 * gait.duty_factor / gait.step_frequency
            hip_xy = nominal[:2] - forward_twist.planar * lookahead
            grid = eval_fec(
                FecInput(hm, 0.65, tuple(hip_xy), forward_twist, gait),
                model,
                config,
                current_foot=foot,
            )
            assert grid.cells[d.cell]
            np.testing.assert_array_equal(d.grid.cells, grid.cells)

    def test_determinism(self, stairs, model, config, forward_twist, gait):
        nominal = np.array([0.31, 0.02, sample_height(stairs, 0.31, 0.02)])
        hm = extract_heightmap(stairs, (0.31, 0.02), 0.2)
        vin = VfaInput(hm, 0.6, forward_twist, gait, nominal)
        a = foothold_evaluation(vin, model, config)
        b = foothold_evaluation(vin, model, config)
        assert a.cell == b.cell
        np.testing.assert_array_equal(a.optimal, b.optimal)


class TestAdjustTrajectory:
    def test_endpoints_bind_to_decision(self):
        from vital.vfa import FootholdDecision

        d = FootholdDecision(np.array([0.3, 0.1, 0.05]), 10, FALLBACK_SELECTED, (1, 2))
        foot = np.array([0.1, 0.1, 0.0])
        traj = swing_trajectory(foot, d.optimal, 0.12)
        np.testing.assert_array_equal(traj.p_lo, foot)
        np.testing.assert_array_equal(traj.p_td, d.optimal)

    def test_shifted_touchdown_shifts_endpoint_only(self):
        from vital.vfa import FootholdDecision

        foot = np.array([0.0, 0.0, 0.0])
        d1 = FootholdDecision(np.array([0.3, 0.0, 0.0]), 5, FALLBACK_SELECTED, None)
        d2 = FootholdDecision(np.array([0.32, 0.0, 0.0]), 5, FALLBACK_SELECTED, None)
        t1 = swing_trajectory(foot, d1.optimal, 0.12)
        t2 = swing_trajectory(foot, d2.optimal, 0.12)
        assert t2.p_td[0] - t1.p_td[0] == pytest.approx(0.02)
        assert t1.point_at(0.5)[2] == pytest.approx(t2.point_at(0.5)[2])

import numpy as np
import pytest

from vital.fec import (
    FecConfig,
    FecEvaluator,
    FecInput,
    count_safe,
    erode_safe_set,
    eval_fec,
    eval_tr,
)
from vital.robot import BodyTwist, GaitParams
from vital.terrain import Heightmap, TerrainMap, extract_heightmap

from naive_fec import NaiveFec, naive_tr


def make_input(terrain, center, z_h, twist, gait, h=33, yaw=0.0):
    hm = extract_heightmap(terrain, center, yaw, h_x=h, h_y=h)
    return FecInput(hm, z_h, center, twist, gait)


def evaluator(inp, model, config, current_foot=None):
    return FecEvaluator(
        inp.heightmap, inp.hip_world_xy, inp.twist, inp.gait, model, config, current_foot=current_foot
    )


class TestTerrainRoughness:
    def test_flat_all_true(self, flat, config):
        hm = extract_heightmap(flat, (0, 0), 0.0)
        assert eval_tr(hm, config).all()

    def test_step_edge_rejected(self, config):
        # single 0.10 m rise across one 0.02 m cell: slope 5 across the edge
        cells = np.zeros((9, 9))
        cells[5:, :] = 0.10
        hm = Heightmap(cells, 0.02, (0.0, 0.0))
        tr = eval_tr(hm, config)
        assert not tr[4].any() and not tr[5].any()
        assert tr[0].all() and tr[8].all()

    def test_uniform_ramp_passes(self, config):
        # slope 0.2 along x stays under both thresholds
        x = np.arange(9)[:, None] * 0.02
        hm = Heightmap(np.broadcast_to(0.2 * x, (9, 9)).copy(), 0.02, (0.0, 0.0))
        assert eval_tr(hm, config).all()

    def test_matches_naive(self, config):
        rng = np.random.default_rng(5)
        cells = rng.uniform(0, 0.05, size=(9, 9))
        hm = Heightmap(cells, 0.02, (0.0, 0.0))
        np.testing.assert_array_equal(eval_tr(hm, config), naive_tr(hm, config))


class TestErosion:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(3)
        mask = rng.random((15, 15)) > 0.3
        np.testing.assert_array_equal(erode_safe_set(mask, 0), mask)

    def test_single_false_becomes_block(self):
        mask = np.ones((9, 9), dtype=bool)
        mask[4, 4] = False
        out = erode_safe_set(mask, 1)
        assert not out[3:6, 3:6].any()
        assert out.sum() == 81 - 9

    def test_anti_extensive(self):
        rng = np.random.default_rng(4)
        mask = rng.random((21, 21)) > 0.2
        out = erode_safe_set(mask, 1)
        assert not np.any(out & ~mask)

    def test_all_true_border_preserved(self):
        mask = np.ones((7, 7), dtype=bool)
        np.testing.assert_array_equal(erode_safe_set(mask, 1), mask)


class TestCriteriaOnFlat:
    def test_lc_true_everywhere_nominal(self, flat, model, config, zero_twist, gait):
        inp = make_input(flat, (0.0, 0.0), 0.55, zero_twist, gait, h=9)
        lc = evaluator(inp, model, config).lc_grid(inp.hip_height)
        for i in (0, 4, 8):
            for j in (0, 4, 8):
                assert lc[i, j]

    def test_lc_zero_clearance_flat(self, flat, model, zero_twist, gait):
        config = FecConfig(lc_clearance=0.0)
        inp = make_input(flat, (0.0, 0.0), 0.55, zero_twist, gait, h=9)
        assert evaluator(inp, model, config).lc_grid(inp.hip_height).all()

    def test_lc_riser_lip_rejected(self, model, config):
        # candidate just before a riser; by the next lift-off the hip has
        # advanced well past the lip and the shin cuts through it
        stairs = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=3, start_x=0.1)
        twist = BodyTwist(np.array([0.6, 0.0, 0.0]), np.zeros(3))
        gait = GaitParams(0.2, 1.0, 0.6, 0.2)
        hm = extract_heightmap(stairs, (0.06, 0.0), 0.0, h_x=9, h_y=9)
        inp = FecInput(hm, 0.42, (-0.15, 0.0), twist, gait)
        # candidate: the center cell (x = 0.06, base of the riser at 0.10)
        assert hm.cells[4, 4] == 0.0
        ev = evaluator(inp, model, config, current_foot=np.array([-0.2, 0.0, 0.0]))
        ok = ev.lc_grid(inp.hip_height)[4, 4]
        # oracle: densely sample the final stance instant's segment
        hip_end = np.array([-0.15 + 0.6 * (0.2 + 0.6), 0.0, 0.42])
        foot = np.array([0.06, 0.0, 0.0])
        grazed = False
        for s in np.linspace(0, 1, 2001):
            q = foot + (hip_end - foot) * s
            if np.hypot(q[0] - foot[0], q[1] - foot[1]) <= model.foot_radius:
                continue
            if hm.contains_point(q[0], q[1]):
                i, j = hm.point_to_index(q[0], q[1])
                if q[2] - hm.cells[int(i), int(j)] < config.lc_clearance:
                    grazed = True
                    break
        assert grazed and not ok

    def test_kf_under_hip_true(self, flat, model, config, zero_twist, gait):
        mid = (model.r_min + model.r_max) / 2
        inp = make_input(flat, (0.0, 0.0), mid, zero_twist, gait, h=9)
        assert evaluator(inp, model, config).kf_grid(inp.hip_height)[4, 4]

    def test_kf_beyond_shell_false(self, flat, model, config, zero_twist, gait):
        inp = make_input(flat, (0.0, 0.0), 1.9, zero_twist, gait, h=9)
        assert not evaluator(inp, model, config).kf_grid(inp.hip_height).any()

    def test_kf_sunken_tread_out_of_reach(self, model, config, zero_twist, gait):
        # a tread 0.10 m below the surroundings pushes touchdown past r_max
        terrain = TerrainMap(kind="gapped_stairs", rise=0.10, going=0.4, n_steps=2,
                             start_x=-10.0, gap_width=0.4, gap_depth=0.85)
        hm = extract_heightmap(terrain, (-9.8, 0.0), 0.0, h_x=9, h_y=9)
        low = np.argwhere(hm.cells < -0.5)
        assert len(low) > 0
        inp = FecInput(hm, 0.74, (-9.8, 0.0), zero_twist, gait)
        i, j = low[0]
        assert not evaluator(inp, model, config).kf_grid(inp.hip_height)[i, j]

    def test_fc_flat_all_clear(self, flat, model, config, zero_twist, gait):
        inp = make_input(flat, (0.0, 0.0), 0.55, zero_twist, gait, h=9)
        foot = np.array([0.0, 0.0, 0.0])
        assert evaluator(inp, model, config, foot).fc.all()

    def test_fc_tall_riser_blocks_arc(self, model, config, zero_twist, gait):
        # a wall taller than the arc apex between the foot and the candidate
        terrain = TerrainMap(kind="composite", rise=0.40, going=0.14, n_steps=1,
                             start_x=0.07, plateau=0.0)
        hm = extract_heightmap(terrain, (0.0, 0.0), 0.0)
        inp = FecInput(hm, 0.75, (0.0, 0.0), zero_twist, gait)
        foot = np.array([-0.06, 0.0, 0.0])
        # candidate on ground level beyond the wall: the arc must cross it
        assert hm.cells[31, 16] == 0.0
        fc = evaluator(inp, model, config, foot).fc
        assert not fc[31, 16]
        # a nearby candidate on the same side as the foot stays clear
        assert hm.cells[14, 16] == 0.0
        assert fc[14, 16]


class TestEvalFec:
    def test_flat_nominal_all_true(self, flat, model, config, zero_twist, gait):
        inp = make_input(flat, (0.0, 0.0), 0.50, zero_twist, gait)
        grid = eval_fec(inp, model, config)
        assert grid.cells.all()
        assert count_safe(grid) == 33 * 33

    def test_conjunction_invariant(self, stairs, model, config, forward_twist, gait):
        inp = make_input(stairs, (0.3, 0.0), 0.6, forward_twist, gait)
        grid = eval_fec(inp, model, config)
        np.testing.assert_array_equal(grid.raw, grid.tr & grid.lc & grid.kf & grid.fc)
        # erosion only removes
        assert not np.any(grid.cells & ~grid.raw)

    def test_hip_height_extremes_empty(self, flat, model, config, zero_twist, gait):
        for z_h in (0.05, 1.9):
            inp = make_input(flat, (0.0, 0.0), z_h, zero_twist, gait)
            assert count_safe(eval_fec(inp, model, config)) == 0

    def test_input_sanity_bound(self, flat, zero_twist, gait):
        hm = extract_heightmap(flat, (0, 0), 0.0, h_x=9, h_y=9)
        with pytest.raises(ValueError):
            FecInput(hm, 2.5, (0.0, 0.0), zero_twist, gait)
        with pytest.raises(ValueError):
            FecInput(hm, 0.0, (0.0, 0.0), zero_twist, gait)

    def test_count_safe_examples(self):
        grid_true = np.ones((33, 33), dtype=bool)
        from vital.fec import SafetyGrid

        g = SafetyGrid(grid_true, grid_true, grid_true, grid_true, grid_true, grid_true)
        assert count_safe(g) == 1089
        g2 = SafetyGrid(~grid_true, grid_true, grid_true, grid_true, grid_true, grid_true)
        assert count_safe(g2) == 0

    def test_single_false_cell_erodes_block(self, flat, model, config, zero_twist, gait):
        inp = make_input(flat, (0.0, 0.0), 0.50, zero_twist, gait)
        ev = FecEvaluator(inp.heightmap, inp.hip_world_xy, zero_twist, gait, model, config)
        grid = ev.evaluate(0.50)
        assert count_safe(grid) == 1089
        forced = grid.raw.copy()
        forced[10, 10] = False
        eroded = erode_safe_set(forced, 1)
        assert int(eroded.sum()) == 1089 - 9

    def test_sweep_matches_individual_evaluations(self, stairs, model, config, forward_twist, gait):
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        ev = FecEvaluator(hm, (0.3, 0.0), forward_twist, gait, model, config)
        zs = np.linspace(0.3, 0.9, 7)
        counts = ev.sweep_counts(zs)
        for z, n in zip(zs, counts):
            assert count_safe(ev.evaluate(float(z))) == n

    def test_deterministic(self, stairs, model, config, forward_twist, gait):
        inp = make_input(stairs, (0.41, 0.07), 0.57, forward_twist, gait, yaw=0.3)
        a = eval_fec(inp, model, config)
        b = eval_fec(inp, model, config)
        np.testing.assert_array_equal(a.cells, b.cells)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_small_patches_bit_identical(self, seed, model, config):
        rng = np.random.default_rng(1000 + seed)
        if seed % 2 == 0:
            terrain = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=5,
                                 start_x=0.0)
        else:
            terrain = TerrainMap(kind="rough", cell=0.25, amplitude=0.08, seed=seed)
        center = (rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 0.5))
        yaw = rng.uniform(-np.pi, np.pi)
        z_h = rng.uniform(0.4, 0.75)
        twist = BodyTwist(np.array([rng.uniform(-0.3, 0.5), rng.uniform(-0.2, 0.2), 0]), np.zeros(3))
        gait = GaitParams(0.14, 1.4, 0.5, rng.uniform(0.05, 0.4))
        hm = extract_heightmap(terrain, center, yaw, h_x=9, h_y=9)
        hip = (center[0] + rng.uniform(-0.05, 0.05), center[1] + rng.uniform(-0.05, 0.05))
        inp = FecInput(hm, z_h, hip, twist, gait)
        fast = eval_fec(inp, model, config)
        naive = NaiveFec(hm, hip, twist, gait, model, config).evaluate(z_h)
        np.testing.assert_array_equal(fast.tr, naive["tr"])
        np.testing.assert_array_equal(fast.fc, naive["fc"])
        np.testing.assert_array_equal(fast.kf, naive["kf"])
        np.testing.assert_array_equal(fast.lc, naive["lc"])
        np.testing.assert_array_equal(fast.raw, naive["raw"])
        np.testing.assert_array_equal(fast.cells, naive["cells"])

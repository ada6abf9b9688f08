import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from vital.fec import (
    EROSION_RADIUS,
    LC_CLEARANCE,
    LC_TIME_SAMPLES,
    FecEvaluator,
    count_safe,
    erode_safe_set,
    eval_fec,
    eval_tr,
)
from vital.robot import GaitParams, robot_preset
from vital.terrain import Heightmap, TerrainMap, extract_heightmap, sample_height

from naive_fec import NaiveFec, loop_fc, loop_lc_threshold, loop_sweep_counts, naive_erode, naive_tr


def origin_evaluator(terrain, velocity, gait, model, h=9, current_foot=None):
    """An evaluator on an h x h map centred at the origin, hip above it."""
    hm = extract_heightmap(terrain, (0.0, 0.0), 0.0, h_x=h, h_y=h)
    return FecEvaluator(hm, (0.0, 0.0), velocity, gait, model, current_foot=current_foot)


class TestTerrainRoughness:
    def test_flat_all_true(self, flat):
        hm = extract_heightmap(flat, (0, 0), 0.0)
        assert eval_tr(hm).all()

    def test_step_edge_rejected(self):
        # single 0.10 m rise across one 0.02 m cell: slope 5 across the edge
        cells = np.zeros((9, 9))
        cells[5:, :] = 0.10
        hm = Heightmap(cells, 0.02, (0.0, 0.0))
        tr = eval_tr(hm)
        assert not tr[4].any() and not tr[5].any()
        assert tr[0].all() and tr[8].all()

    def test_uniform_ramp_passes(self):
        # slope 0.2 along x stays under both thresholds
        x = np.arange(9)[:, None] * 0.02
        hm = Heightmap(np.broadcast_to(0.2 * x, (9, 9)).copy(), 0.02, (0.0, 0.0))
        assert eval_tr(hm).all()

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        cells = rng.uniform(0, 0.05, size=(9, 9))
        hm = Heightmap(cells, 0.02, (0.0, 0.0))
        np.testing.assert_array_equal(eval_tr(hm), naive_tr(hm))


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

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 5), (7, 12), (33, 33)])
    def test_matches_cell_loop(self, shape, radius):
        rng = np.random.default_rng([radius, *shape])
        for p_true in (0.0, 0.5, 0.8, 0.95, 1.0):
            mask = rng.random(shape) < p_true
            before = mask.copy()
            out = erode_safe_set(mask, radius)
            assert out.dtype == bool and out.shape == shape
            np.testing.assert_array_equal(out, naive_erode(mask, radius))
            np.testing.assert_array_equal(mask, before)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_stack_erodes_grid_by_grid(self, radius):
        rng = np.random.default_rng(50 + radius)
        for shape in [(3, 1, 1), (4, 1, 6), (4, 6, 1), (6, 9, 11)]:
            stack = rng.random(shape) < rng.uniform(0.6, 0.97, (shape[0], 1, 1))
            out = erode_safe_set(stack, radius)
            assert out.dtype == bool and out.shape == shape
            np.testing.assert_array_equal(out, np.array([naive_erode(grid, radius) for grid in stack]))


class TestCriteriaOnFlat:
    def test_lc_true_everywhere_nominal(self, flat, model, zero_velocity, gait):
        lc = origin_evaluator(flat, zero_velocity, gait, model).lc_grid(0.55)
        for i in (0, 4, 8):
            for j in (0, 4, 8):
                assert lc[i, j]

    def test_lc_riser_lip_rejected(self, model):
        # candidate just before a riser; by the next lift-off the hip has
        # advanced well past the lip and the shin cuts through it
        stairs = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=3, start_x=0.1)
        velocity = np.array([0.6, 0.0])
        gait = GaitParams(1.0, 0.6, 0.2)
        hm = extract_heightmap(stairs, (0.06, 0.0), 0.0, h_x=9, h_y=9)
        # candidate: the center cell (x = 0.06, base of the riser at 0.10)
        assert hm.cells[4, 4] == 0.0
        ev = FecEvaluator(hm, (-0.15, 0.0), velocity, gait, model, current_foot=np.array([-0.2, 0.0, 0.0]))
        ok = ev.lc_grid(0.42)[4, 4]
        # oracle: densely sample the final stance instant's segment
        hip_end = np.array([-0.15 + 0.6 * (0.2 + 0.6), 0.0, 0.42])
        foot = np.array([0.06, 0.0, 0.0])
        grazed = False
        for s in np.linspace(0, 1, 2001):
            q = foot + (hip_end - foot) * s
            if np.hypot(q[0] - foot[0], q[1] - foot[1]) <= model.foot_radius:
                continue
            # nearest cell of the yaw-0 map centred at (0.06, 0)
            i = int(np.floor((q[0] - 0.06) / hm.resolution + 0.5 + 4))
            j = int(np.floor(q[1] / hm.resolution + 0.5 + 4))
            if 0 <= i < 9 and 0 <= j < 9 and q[2] - hm.cells[i, j] < LC_CLEARANCE:
                grazed = True
                break
        assert grazed and not ok

    def test_kf_under_hip_true(self, flat, model, zero_velocity, gait):
        mid = (model.r_min + model.r_max) / 2
        assert origin_evaluator(flat, zero_velocity, gait, model).kf_grid(mid)[4, 4]

    def test_kf_beyond_shell_false(self, flat, model, zero_velocity, gait):
        assert not origin_evaluator(flat, zero_velocity, gait, model).kf_grid(1.9).any()

    def test_kf_sunken_tread_out_of_reach(self, model, zero_velocity, gait):
        # a tread 0.10 m below the surroundings pushes touchdown past r_max
        terrain = TerrainMap(kind="gapped_stairs", rise=0.10, going=0.4, n_steps=2,
                             start_x=-10.0, gap_width=0.4, gap_depth=0.85)
        hm = extract_heightmap(terrain, (-9.8, 0.0), 0.0, h_x=9, h_y=9)
        low = np.argwhere(hm.cells < -0.5)
        assert len(low) > 0
        i, j = low[0]
        assert not FecEvaluator(hm, (-9.8, 0.0), zero_velocity, gait, model).kf_grid(0.74)[i, j]

    def test_kf_last_arc_sample_inside_r_min(self, flat, model, zero_velocity, gait):
        # Touchdown is 0.3005 m from the hip and arc sample 9/11 is 0.3011 m,
        # both inside the shell; only the last interior sample, 10/11, comes
        # within r_min (0.2994 m), so it alone rejects the centre cell.
        foot = np.array([0.0, 0.0, -0.36])
        ev = origin_evaluator(flat, zero_velocity, gait, model, current_foot=foot)
        assert not ev.kf_grid(0.3005)[4, 4]
        naive = NaiveFec(ev.heightmap, (0.0, 0.0), zero_velocity, gait, model, current_foot=foot)
        assert not naive.kf_cell(4, 4, 0.3005)

    def test_kf_touchdown_alone_beyond_r_max(self, flat, model, forward_velocity, gait):
        # The hip moves 0.071 m ahead by touchdown and 0.143 m by the next
        # lift-off.  At 0.6 m, the cell 0.56 m ahead is 0.774 m from the hip
        # at touchdown, past r_max (0.75), but 0.731 m at the next lift-off,
        # and every swing-arc sample is nearer still; the cell 0.52 m ahead
        # is 0.749 m at touchdown.  So the touchdown check alone decides.
        ev = origin_evaluator(flat, forward_velocity, gait, model, h=65)
        assert ev.gx[60, 0] == 0.56 and ev.gx[58, 0] == 0.52
        kf = ev.kf_grid(0.6)
        assert not kf[60, 32] and kf[58, 32]
        naive = NaiveFec(ev.heightmap, (0.0, 0.0), forward_velocity, gait, model)
        assert not naive.kf_cell(60, 32, 0.6) and naive.kf_cell(58, 32, 0.6)

    def test_fc_flat_all_clear(self, flat, model, zero_velocity, gait):
        foot = np.array([0.0, 0.0, 0.0])
        assert origin_evaluator(flat, zero_velocity, gait, model, current_foot=foot).fc.all()

    def test_fc_tall_riser_blocks_arc(self, model, zero_velocity, gait):
        # a wall taller than the arc apex between the foot and the candidate
        terrain = TerrainMap(kind="composite", rise=0.40, going=0.14, n_steps=1,
                             start_x=0.07, plateau=0.0)
        foot = np.array([-0.06, 0.0, 0.0])
        ev = origin_evaluator(terrain, zero_velocity, gait, model, h=33, current_foot=foot)
        hm = ev.heightmap
        # candidate on ground level beyond the wall: the arc must cross it
        assert hm.cells[31, 16] == 0.0
        fc = ev.fc
        assert not fc[31, 16]
        # a nearby candidate on the same side as the foot stays clear
        assert hm.cells[14, 16] == 0.0
        assert fc[14, 16]


class TestEvalFec:
    def test_flat_nominal_all_true(self, flat, model, zero_velocity, gait):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0)
        grid = eval_fec(hm, (0.0, 0.0, 0.50), zero_velocity, gait, model)
        assert grid.cells.all()
        assert count_safe(grid) == 33 * 33

    def test_conjunction_invariant(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        grid = eval_fec(hm, (0.3, 0.0, 0.6), forward_velocity, gait, model)
        raw = grid.tr & grid.lc & grid.kf & grid.fc
        np.testing.assert_array_equal(grid.cells, erode_safe_set(raw, EROSION_RADIUS))
        # erosion only removes
        assert not np.any(grid.cells & ~raw)

    def test_hip_height_extremes_empty(self, flat, model, zero_velocity, gait):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0)
        for z_h in (0.05, 1.9):
            assert count_safe(eval_fec(hm, (0.0, 0.0, z_h), zero_velocity, gait, model)) == 0

    def test_input_sanity_bound(self, flat, model, zero_velocity, gait):
        hm = extract_heightmap(flat, (0, 0), 0.0, h_x=9, h_y=9)
        for z_h in (2.5, 0.0):
            with pytest.raises(ValueError, match="sanity bound"):
                eval_fec(hm, (0.0, 0.0, z_h), zero_velocity, gait, model)

    def test_count_safe_examples(self):
        grid_true = np.ones((33, 33), dtype=bool)
        from vital.fec import SafetyGrid

        g = SafetyGrid(grid_true, grid_true, grid_true, grid_true, grid_true)
        assert count_safe(g) == 1089
        g2 = SafetyGrid(~grid_true, grid_true, grid_true, grid_true, grid_true)
        assert count_safe(g2) == 0

    def test_single_false_cell_erodes_block(self, flat, model, zero_velocity, gait):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0)
        grid = FecEvaluator(hm, (0.0, 0.0), zero_velocity, gait, model).evaluate(0.50)
        assert count_safe(grid) == 1089
        forced = grid.tr & grid.lc & grid.kf & grid.fc
        forced[10, 10] = False
        eroded = erode_safe_set(forced, 1)
        assert int(eroded.sum()) == 1089 - 9

    def test_sweep_matches_individual_evaluations(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        ev = FecEvaluator(hm, (0.3, 0.0), forward_velocity, gait, model)
        zs = np.linspace(0.3, 0.9, 7)
        counts = ev.sweep_counts(zs)
        for z, n in zip(zs, counts):
            assert count_safe(ev.evaluate(float(z))) == n

    def test_deterministic(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.41, 0.07), 0.3)
        a = eval_fec(hm, (0.41, 0.07, 0.57), forward_velocity, gait, model)
        b = eval_fec(hm, (0.41, 0.07, 0.57), forward_velocity, gait, model)
        np.testing.assert_array_equal(a.cells, b.cells)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_small_patches_bit_identical(self, seed, model):
        rng = np.random.default_rng(1000 + seed)
        if seed % 2 == 0:
            terrain = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=5,
                                 start_x=0.0)
        else:
            terrain = TerrainMap(kind="rough", cell=0.25, amplitude=0.08, seed=seed)
        center = (rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 0.5))
        yaw = rng.uniform(-np.pi, np.pi)
        z_h = rng.uniform(0.4, 0.75)
        velocity = np.array([rng.uniform(-0.3, 0.5), rng.uniform(-0.2, 0.2)])
        gait = GaitParams(1.4, 0.5, rng.uniform(0.05, 0.4))
        hm = extract_heightmap(terrain, center, yaw, h_x=9, h_y=9)
        hip = (center[0] + rng.uniform(-0.05, 0.05), center[1] + rng.uniform(-0.05, 0.05))
        fast = eval_fec(hm, (*hip, z_h), velocity, gait, model)
        naive = NaiveFec(hm, hip, velocity, gait, model).evaluate(z_h)
        np.testing.assert_array_equal(fast.tr, naive["tr"])
        np.testing.assert_array_equal(fast.fc, naive["fc"])
        np.testing.assert_array_equal(fast.kf, naive["kf"])
        np.testing.assert_array_equal(fast.lc, naive["lc"])
        np.testing.assert_array_equal(fast.tr & fast.lc & fast.kf & fast.fc, naive["raw"])
        np.testing.assert_array_equal(fast.cells, naive["cells"])


class TestOracleProperties:
    """The fast evaluator against the per-cell oracle on 9x9 patches."""

    # No shrink phase: each shrink step runs the per-cell oracle, and a
    # fault that fails every example would shrink for minutes.
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(
        kind=st.sampled_from(["flat", "stairs", "gapped_stairs", "rough", "composite"]),
        terrain_seed=st.integers(0, 1000),
        center=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 0.5)),
        yaw=st.floats(-np.pi, np.pi),
        velocity=st.tuples(st.floats(-0.3, 0.5), st.floats(-0.2, 0.2)),
        t_remaining=st.floats(0.05, 0.4),
        hip_offset=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
        dz_h=st.floats(0.3, 0.8),
        foot_offset=st.none() | st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    )
    def test_matches_naive(self, kind, terrain_seed, center, yaw, velocity, t_remaining, hip_offset, dz_h, foot_offset):
        model = robot_preset("hyq-like")
        start_x = terrain_seed / 1000.0 - 0.2
        terrain = TerrainMap(kind=kind, start_x=start_x, seed=terrain_seed, amplitude=0.1, cell=0.2)
        hm = extract_heightmap(terrain, center, yaw, h_x=9, h_y=9)
        z_h = max(float(hm.cells[4, 4]), 0.0) + dz_h
        hip = (center[0] + hip_offset[0], center[1] + hip_offset[1])
        gait = GaitParams(1.4, 0.5, t_remaining)
        foot = None
        if foot_offset is not None:
            xy = (center[0] + foot_offset[0], center[1] + foot_offset[1])
            foot = np.array([*xy, sample_height(terrain, *xy)])
        ev = FecEvaluator(hm, hip, velocity, gait, model, current_foot=foot)
        fast = ev.evaluate(z_h)
        naive = NaiveFec(hm, hip, velocity, gait, model, current_foot=foot).evaluate(z_h)
        for name in ("tr", "lc", "kf", "fc", "cells"):
            np.testing.assert_array_equal(getattr(fast, name), naive[name], err_msg=name)
        np.testing.assert_array_equal(fast.tr & fast.lc & fast.kf & fast.fc, naive["raw"])
        z = z_h + np.linspace(-0.25, 0.25, 11)
        np.testing.assert_array_equal(ev.sweep_counts(z), loop_sweep_counts(ev, z))


class TestReferenceLoops:
    """The stacked LC instants, the -inf-bordered lookups and the one-pass
    sweep give exactly what the per-instant and per-height loops give."""

    TERRAINS = {
        "stairs": dict(kind="stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.2),
        "rough": dict(kind="rough", cell=0.2, amplitude=0.15, seed=4),
        "composite": dict(kind="composite", rise=0.12, going=0.2, n_steps=3, start_x=0.1, plateau=0.3),
        "gapped_stairs": dict(kind="gapped_stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.1,
                              gap_width=0.08, gap_depth=1.0),
    }

    @pytest.mark.parametrize("kind", TERRAINS)
    # The hip on the map, then the hip and the lift-off foot off it.
    @pytest.mark.parametrize("hip_dx, foot_dx", [(0.03, -0.06), (-0.45, -0.4)])
    def test_full_map_bit_identical(self, kind, hip_dx, foot_dx, model):
        terrain = TerrainMap(**self.TERRAINS[kind])
        center = (0.42, 0.05)
        hm = extract_heightmap(terrain, center, 0.3)
        velocity = np.array([0.3, 0.08])
        gait = GaitParams(1.4, 0.5, 0.3)
        foot_xy = (center[0] + foot_dx, center[1] - 0.04)
        foot = np.array([*foot_xy, sample_height(terrain, *foot_xy)])
        ev = FecEvaluator(hm, (center[0] + hip_dx, center[1] + 0.02), velocity, gait, model, foot)
        lc = ev.lc_threshold
        assert np.isfinite(lc).any()
        np.testing.assert_array_equal(lc, loop_lc_threshold(ev))
        np.testing.assert_array_equal(ev.fc, loop_fc(ev))
        z = np.linspace(0.2, 0.8, 31) + hm.cells[16, 16]
        counts = ev.sweep_counts(z)
        assert counts.any()
        np.testing.assert_array_equal(counts, loop_sweep_counts(ev, z))

    def test_every_stance_instant_sets_some_threshold(self, model):
        # A 0.3 m post beside a hip that sweeps past it during the stance:
        # each stance instant, the first, the middle ones and the last, is
        # the only one whose leg crosses the post for some cells, so leaving
        # any one of them out of the LC threshold changes it.
        cells = np.zeros((33, 33))
        cells[16, 20] = 0.3
        hm = Heightmap(cells, 0.02, (0.0, 0.0))
        ev = FecEvaluator(hm, (0.0, 0.0), np.array([0.0, 0.5]), GaitParams(1.4, 0.5, 0.1), model)
        full = loop_lc_threshold(ev)
        np.testing.assert_array_equal(ev.lc_threshold, full)
        n_swing = LC_TIME_SAMPLES - 1
        for k in range(n_swing, n_swing + LC_TIME_SAMPLES):
            assert (loop_lc_threshold(ev, skip=(k,)) != full).any(), k

    def test_sweep_outside_sanity_bound_raises(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0, h_x=9, h_y=9)
        ev = FecEvaluator(hm, (0.3, 0.0), forward_velocity, gait, model)
        for z in ([0.5, 0.0], [2.1, 0.5], [-0.3, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError, match="sanity bound"):
                ev.sweep_counts(np.array(z))

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from vital.fec import (
    FC_ARC_SAMPLES,
    LC_CLEARANCE,
    LC_SEGMENT_SAMPLES,
    LC_TIME_SAMPLES,
    FecEvaluator,
    erode_safe_set,
    eval_fec,
    eval_tr,
)
from vital.robot import GaitParams, robot_preset, swing_arc_z
from vital.terrain import MAP_RESOLUTION, TERRAIN_KINDS, Heightmap, TerrainMap, extract_heightmap, sample_height

from maps import sampled_map
from naive_fec import NaiveFec, loop_fc, loop_lc_threshold, loop_sweep_counts, naive_erode, naive_tr


def origin_evaluator(terrain, velocity, gait, model, h=9, current_foot=None):
    """An evaluator on an h x h map centred at the origin, hip above it."""
    hm = sampled_map(terrain, (0.0, 0.0), 0.0, h, h)
    return FecEvaluator(hm, (0.0, 0.0), velocity, gait, model, current_foot=current_foot)


class TestTerrainRoughness:
    def test_flat_all_true(self, flat):
        hm = extract_heightmap(flat, (0, 0), 0.0)
        assert eval_tr(hm).all()

    def test_step_edge_rejected(self):
        # single 0.10 m rise across one 0.02 m cell: slope 5 across the edge
        cells = np.zeros((9, 9))
        cells[5:, :] = 0.10
        hm = Heightmap(cells, (0.0, 0.0))
        tr = eval_tr(hm)
        assert not tr[4].any() and not tr[5].any()
        assert tr[0].all() and tr[8].all()

    def test_uniform_ramp_passes(self):
        # slope 0.2 along x stays under both thresholds
        x = np.arange(9)[:, None] * 0.02
        hm = Heightmap(np.broadcast_to(0.2 * x, (9, 9)).copy(), (0.0, 0.0))
        assert eval_tr(hm).all()

    # The stacked slopes must add in the loop's order: mean and std are
    # compared with thresholds, so one rounding apart can flip a cell.
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(
        kind=st.sampled_from(TERRAIN_KINDS),
        rise=st.floats(0.01, 0.5),
        going=st.floats(0.09, 0.5),
        cell=st.floats(0.05, 0.5),
        terrain_seed=st.integers(0, 1000),
        center=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 0.5)),
        yaw=st.floats(-np.pi, np.pi),
        half=st.integers(1, 16),
    )
    def test_matches_naive(self, kind, rise, going, cell, terrain_seed, center, yaw, half):
        terrain = TerrainMap(kind=kind, rise=rise, going=going, start_x=terrain_seed / 1000.0 - 0.2,
                             seed=terrain_seed, amplitude=rise, cell=cell)
        hm = sampled_map(terrain, center, yaw, 2 * half + 1, 2 * half + 1)
        np.testing.assert_array_equal(eval_tr(hm), naive_tr(hm))


def random_grid(rng, shape, case, p):
    """A random grid for the erosion tests, by case: 0 a mask with a share p
    of false cells, 1 floats, 2 floats with a share p of +-inf, and 3 floats
    with a share p of +-inf and NaN."""
    if case == 0:
        return rng.random(shape) >= p
    grid = rng.normal(size=shape)
    if case > 1:
        pick = rng.random(shape) < p
        grid[pick] = rng.choice([np.inf, -np.inf, np.nan][:case], size=np.count_nonzero(pick))
    return grid


class TestErosion:
    def test_single_false_becomes_block(self):
        mask = np.ones((9, 9), dtype=bool)
        mask[4, 4] = False
        out = erode_safe_set(mask)
        assert not out[3:6, 3:6].any()
        assert out.sum() == 81 - 9

    def test_anti_extensive(self):
        rng = np.random.default_rng(4)
        mask = rng.random((21, 21)) > 0.2
        out = erode_safe_set(mask)
        assert not np.any(out & ~mask)

    def test_all_true_border_preserved(self):
        mask = np.ones((7, 7), dtype=bool)
        np.testing.assert_array_equal(erode_safe_set(mask), mask)

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 5), (7, 12), (33, 33)])
    def test_matches_cell_loop(self, shape, case):
        rng = np.random.default_rng([case, *shape])
        for p in (0.0, 0.05, 0.2, 0.5, 1.0):
            grid = random_grid(rng, shape, case, p)
            before = grid.copy()
            out = erode_safe_set(grid)
            assert out.dtype == grid.dtype and out.shape == shape
            # assert_array_equal takes NaN as equal to NaN.
            np.testing.assert_array_equal(out, naive_erode(grid))
            np.testing.assert_array_equal(grid, before)

    @pytest.mark.parametrize("case", range(4))
    def test_stack_erodes_grid_by_grid(self, case):
        rng = np.random.default_rng(50 + case)
        for shape in [(3, 1, 1), (4, 1, 6), (4, 6, 1), (6, 9, 11)]:
            stack = np.array([random_grid(rng, shape[1:], case, p) for p in rng.uniform(0.03, 0.4, shape[0])])
            out = erode_safe_set(stack)
            assert out.dtype == stack.dtype and out.shape == shape
            np.testing.assert_array_equal(out, np.array([naive_erode(grid) for grid in stack]))


class TestCriteriaOnFlat:
    def test_lc_true_everywhere_nominal(self, flat, model, zero_velocity, gait):
        lc = 0.55 >= origin_evaluator(flat, zero_velocity, gait, model).lc_threshold
        for i in (0, 4, 8):
            for j in (0, 4, 8):
                assert lc[i, j]

    def test_lc_riser_lip_rejected(self, model):
        # candidate just before a riser; by the next lift-off the hip has
        # advanced well past the lip and the shin cuts through it
        stairs = TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=3, start_x=0.1)
        velocity = np.array([0.6, 0.0])
        gait = GaitParams(duty_factor=0.6, t_remaining=0.2)
        hm = sampled_map(stairs, (0.06, 0.0), 0.0, 9, 9)
        # candidate: the center cell (x = 0.06, base of the riser at 0.10)
        assert hm.cells[4, 4] == 0.0
        ev = FecEvaluator(hm, (-0.15, 0.0), velocity, gait, model, current_foot=np.array([-0.2, 0.0, 0.0]))
        ok = 0.42 >= ev.lc_threshold[4, 4]
        # oracle: densely sample the final stance instant's segment
        hip_end = np.array([-0.15 + 0.6 * (0.2 + gait.stance_duration), 0.0, 0.42])
        foot = np.array([0.06, 0.0, 0.0])
        dx, dy = hip_end[:2] - foot[:2]
        grazed = False
        # s = 0 is the foot itself, always exempt.
        for s in np.linspace(0, 1, 2001)[1:]:
            q = foot + (hip_end - foot) * s
            if dx * dx + dy * dy <= (model.foot_radius / s) ** 2:
                continue
            # nearest cell of the yaw-0 map centred at (0.06, 0)
            i = int(np.floor((q[0] - 0.06) / MAP_RESOLUTION + 0.5 + 4))
            j = int(np.floor(q[1] / MAP_RESOLUTION + 0.5 + 4))
            if 0 <= i < 9 and 0 <= j < 9 and q[2] - hm.cells[i, j] < LC_CLEARANCE:
                grazed = True
                break
        assert grazed and not ok

    def test_kf_under_hip_true(self, flat, model, zero_velocity, gait):
        mid = (model.r_min + model.r_max) / 2
        assert origin_evaluator(flat, zero_velocity, gait, model).evaluate(mid).kf[4, 4]

    def test_kf_beyond_shell_false(self, flat, model, zero_velocity, gait):
        assert not origin_evaluator(flat, zero_velocity, gait, model).evaluate(1.9).kf.any()

    def test_kf_sunken_tread_out_of_reach(self, model, zero_velocity, gait):
        # a gap 1 m below its tread pushes touchdown past r_max; the tread
        # cell of the first row, beside the lift-off foot, stays in reach
        terrain = TerrainMap(kind="gapped_stairs", rise=0.10, going=0.4, n_steps=2, start_x=-10.0)
        hm = sampled_map(terrain, (-9.64, 0.0), 0.0, 9, 9)
        low = np.argwhere(hm.cells < -0.5)
        assert len(low) > 0 and hm.cells[0, 4] == 0.10
        i, j = low[0]
        foot = np.array([-9.7, 0.0, 0.10])
        kf = FecEvaluator(hm, (-9.64, 0.0), zero_velocity, gait, model, current_foot=foot).evaluate(0.74).kf
        assert not kf[i, j] and kf[0, 4]

    def test_kf_last_arc_sample_inside_r_min(self, flat, model, zero_velocity, gait):
        # Touchdown is 0.3005 m from the hip and arc sample 9/11 is 0.3011 m,
        # both inside the shell; only the last interior sample, 10/11, comes
        # within r_min (0.2994 m), so it alone rejects the centre cell.
        foot = np.array([0.0, 0.0, -0.36])
        ev = origin_evaluator(flat, zero_velocity, gait, model, current_foot=foot)
        assert not ev.evaluate(0.3005).kf[4, 4]
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
        kf = ev.evaluate(0.6).kf
        assert not kf[60, 32] and kf[58, 32]
        naive = NaiveFec(ev.heightmap, (0.0, 0.0), forward_velocity, gait, model)
        assert not naive.kf_cell(60, 32, 0.6) and naive.kf_cell(58, 32, 0.6)

    def test_fc_flat_all_clear(self, flat, model, zero_velocity, gait):
        foot = np.array([0.0, 0.0, 0.0])
        assert origin_evaluator(flat, zero_velocity, gait, model, current_foot=foot).fc.all()

    def test_fc_tall_riser_blocks_arc(self, model, zero_velocity, gait):
        # a 0.40 m wall, taller than the arc apex, across x = 0.08..0.20 m
        # between the foot and the candidate
        cells = np.zeros((33, 33))
        cells[20:27] = 0.40
        foot = np.array([-0.06, 0.0, 0.0])
        hm = Heightmap(cells, (0.0, 0.0))
        ev = FecEvaluator(hm, (0.0, 0.0), zero_velocity, gait, model, current_foot=foot)
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
        assert np.count_nonzero(grid.cells) == 33 * 33

    def test_conjunction_invariant(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        grid = eval_fec(hm, (0.3, 0.0, 0.6), forward_velocity, gait, model)
        raw = grid.tr & grid.lc & grid.kf & grid.fc
        np.testing.assert_array_equal(grid.cells, erode_safe_set(raw))
        # erosion only removes
        assert not np.any(grid.cells & ~raw)

    def test_hip_height_extremes_empty(self, flat, model, zero_velocity, gait):
        # A hip on, under or far above its map, or at no height at all, finds
        # no safe cell; none of these is an error.
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0)
        for z_h in (0.05, 1.9, 2.5, 0.0, -0.3, np.nan):
            assert np.count_nonzero(eval_fec(hm, (0.0, 0.0, z_h), zero_velocity, gait, model).cells) == 0

    def test_single_false_cell_erodes_block(self, flat, model, zero_velocity, gait):
        hm = extract_heightmap(flat, (0.0, 0.0), 0.0)
        grid = FecEvaluator(hm, (0.0, 0.0), zero_velocity, gait, model).evaluate(0.50)
        assert np.count_nonzero(grid.cells) == 1089
        forced = grid.tr & grid.lc & grid.kf & grid.fc
        forced[10, 10] = False
        eroded = erode_safe_set(forced)
        assert int(eroded.sum()) == 1089 - 9

    def test_sweep_matches_individual_evaluations(self, stairs, model, forward_velocity, gait):
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        ev = FecEvaluator(hm, (0.3, 0.0), forward_velocity, gait, model)
        zs = np.linspace(0.3, 0.9, 7)
        counts = ev.sweep_counts(zs)
        for z, n in zip(zs, counts):
            assert np.count_nonzero(ev.evaluate(float(z)).cells) == n
        # Heights out of reach of the map count 0, in a sweep as one by one.
        far = np.array([0.0, 2.1, -0.3, np.nan])
        np.testing.assert_array_equal(ev.sweep_counts(far), 0)
        assert [np.count_nonzero(ev.evaluate(z).cells) for z in far] == [0] * 4

    @pytest.mark.parametrize("heights", [
        [0.7, 0.55, 0.8],
        [0.6, np.nan, 0.75],
        [np.nan],
        [0.7, -np.inf, 0.65, 0.65, np.inf, 0.6, 0.65, np.nan, 0.7],
    ])
    def test_sweep_takes_any_heights(self, stairs, model, forward_velocity, gait, heights):
        # Unsorted, repeated, NaN and infinite heights sweep as one by one;
        # the NaN and infinite ones count 0, the others some cells.
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        ev = FecEvaluator(hm, (0.3, 0.0), forward_velocity, gait, model)
        counts = ev.sweep_counts(heights)
        np.testing.assert_array_equal(counts, loop_sweep_counts(ev, heights))
        np.testing.assert_array_equal(counts > 0, np.isfinite(heights))

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
        gait = GaitParams(duty_factor=0.5, t_remaining=rng.uniform(0.05, 0.4))
        hm = sampled_map(terrain, center, yaw, 9, 9)
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
        # Hips from below the centre cell up, and risers up to 0.5 m, put
        # some check points above the hip.
        dz_h=st.floats(-0.2, 0.8),
        rise=st.floats(0.05, 0.5),
        foot_offset=st.none() | st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
        # The presets differ in foot radius and shell.
        robot=st.sampled_from(["hyq-like", "hyqreal-like"]),
    )
    def test_matches_naive(self, kind, terrain_seed, center, yaw, velocity, t_remaining, hip_offset, dz_h, rise,
                           foot_offset, robot):
        model = robot_preset(robot)
        start_x = terrain_seed / 1000.0 - 0.2
        terrain = TerrainMap(kind=kind, rise=rise, start_x=start_x, seed=terrain_seed, amplitude=0.1, cell=0.2)
        hm = sampled_map(terrain, center, yaw, 9, 9)
        z_h = max(float(hm.cells[4, 4]), 0.0) + dz_h
        hip = (center[0] + hip_offset[0], center[1] + hip_offset[1])
        gait = GaitParams(duty_factor=0.5, t_remaining=t_remaining)
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
        "composite": dict(kind="composite", rise=0.12, going=0.2, n_steps=3, start_x=0.1),
        "gapped_stairs": dict(kind="gapped_stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.1),
    }

    @pytest.mark.parametrize("kind", TERRAINS)
    # The hip on the map, then the hip and the lift-off foot off it.
    @pytest.mark.parametrize("hip_dx, foot_dx", [(0.03, -0.06), (-0.45, -0.4)])
    def test_full_map_bit_identical(self, kind, hip_dx, foot_dx, model):
        terrain = TerrainMap(**self.TERRAINS[kind])
        center = (0.42, 0.05)
        hm = extract_heightmap(terrain, center, 0.3)
        velocity = np.array([0.3, 0.08])
        gait = GaitParams(duty_factor=0.5, t_remaining=0.3)
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
        hm = Heightmap(cells, (0.0, 0.0))
        ev = FecEvaluator(hm, (0.0, 0.0), np.array([0.0, 0.5]), GaitParams(duty_factor=0.5, t_remaining=0.1), model)
        full = loop_lc_threshold(ev)
        np.testing.assert_array_equal(ev.lc_threshold, full)
        n_swing = LC_TIME_SAMPLES - 1
        for k in range(n_swing, n_swing + LC_TIME_SAMPLES):
            assert (loop_lc_threshold(ev, skip=(k,)) != full).any(), k


def tall_riser_evaluator():
    """A hyqreal-like hip over a floor 0.5 m below the tread ahead, with the
    lift-off foot on the tread."""
    cells = np.zeros((33, 33))
    cells[26:] = 0.5
    hm = Heightmap(cells, (0.0, 0.0))
    gait = GaitParams(duty_factor=0.5, t_remaining=0.1)
    return FecEvaluator(hm, (0.05, 0.1), np.zeros(2), gait, robot_preset("hyqreal-like"), np.array([0.2, -0.05, 0.5]))


def heights_apart_evaluator(model, velocity, gait):
    """A hip 0.29 m beyond the edge cell (4, 8) of a flat 9 x 9 map, with the
    lift-off foot on that cell: its leg segments leave the map within the
    foot radius, so LC exempts them."""
    hm = Heightmap(np.zeros((9, 9)), (0.0, 0.0))
    return FecEvaluator(hm, (0.0, 0.37), velocity, gait, model, np.array([0.0, 0.08, 0.0]))


class TestRangeSweep:
    """The sweep of each cell's eroded safe interval against the per-height
    loop."""

    HEIGHTS = {
        "grid": np.linspace(0.2, 0.8, 31),
        "mm": np.arange(0.0, 0.4, 0.001),
        "repeated": np.repeat(np.linspace(0.2, 0.8, 7), 3),
        "empty": np.array([]),
        "unsorted": np.random.default_rng(0).permutation(np.linspace(0.2, 0.8, 31)),
        "non_finite": np.array([0.5, np.nan, -np.inf, 0.3, np.inf]),
        "out_of_reach": np.array([-2.0, -0.6, 0.0, 0.3, 0.5, 1.7, 3.0]),
    }

    # No shrink phase, as in TestOracleProperties.
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(
        kind=st.sampled_from(["flat", "stairs", "gapped_stairs", "rough", "composite"]),
        robot=st.sampled_from(["hyq-like", "hyqreal-like"]),
        size=st.sampled_from([9, 33]),
        terrain_seed=st.integers(0, 1000),
        rise=st.floats(0.05, 0.5),
        yaw=st.floats(-np.pi, np.pi),
        velocity=st.tuples(st.floats(-0.3, 0.5), st.floats(-0.2, 0.2)),
        t_remaining=st.floats(0.05, 0.4),
        hip_offset=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
        foot_offset=st.none() | st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
        heights=st.sampled_from(sorted(HEIGHTS)),
        dz=st.floats(-0.3, 0.5),
    )
    def test_matches_the_loop(self, kind, robot, size, terrain_seed, rise, yaw, velocity, t_remaining,
                              hip_offset, foot_offset, heights, dz):
        terrain = TerrainMap(kind=kind, rise=rise, start_x=terrain_seed / 1000.0 - 0.2, seed=terrain_seed,
                             amplitude=0.1, cell=0.2)
        center = (0.4, 0.0)
        hm = sampled_map(terrain, center, yaw, size, size)
        foot = None
        if foot_offset is not None:
            xy = (center[0] + foot_offset[0], center[1] + foot_offset[1])
            foot = np.array([*xy, sample_height(terrain, *xy)])
        hip = (center[0] + hip_offset[0], center[1] + hip_offset[1])
        gait = GaitParams(duty_factor=0.5, t_remaining=t_remaining)
        ev = FecEvaluator(hm, hip, velocity, gait, robot_preset(robot), current_foot=foot)
        z = self.HEIGHTS[heights] + hm.cells[size // 2, size // 2] + dz
        np.testing.assert_array_equal(ev.sweep_counts(z), loop_sweep_counts(ev, z))

    def test_heights_on_float_kf_ends(self, flat, model, forward_velocity, gait):
        # KF holds at each cell's range ends and fails at the adjacent floats
        # outside them, and a sweep of exactly those heights counts as the loop.
        ev = origin_evaluator(flat, forward_velocity, gait, model)
        outside = np.nextafter(ev.kf_lo, -np.inf), np.nextafter(ev.kf_hi, np.inf)
        for (i, j), lo in np.ndenumerate(ev.kf_lo):
            hi = ev.kf_hi[i, j]
            assert ev.evaluate(float(lo)).kf[i, j] and ev.evaluate(float(hi)).kf[i, j]
            assert not ev.evaluate(float(outside[0][i, j])).kf[i, j]
            assert not ev.evaluate(float(outside[1][i, j])).kf[i, j]
        z = np.concatenate([ev.kf_lo, ev.kf_hi, *outside], axis=None)
        counts = ev.sweep_counts(z)
        assert counts.any() and not counts.all()
        np.testing.assert_array_equal(counts, loop_sweep_counts(ev, z))

    def test_heights_on_float_safe_ends(self, stairs, model, forward_velocity, gait):
        # Each cell with a safe interval is safe at both of its ends and not
        # at the adjacent floats outside them, as the erosion of the criterion
        # grids says, and a sweep of exactly those heights counts as the loop.
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        ev = FecEvaluator(hm, (0.3, 0.0), forward_velocity, gait, model)
        live = ev.safe_lo <= ev.safe_hi
        assert live.any() and not live.all()
        heights = []
        for end, away in ((ev.safe_lo, -np.inf), (ev.safe_hi, np.inf)):
            for i, j in np.argwhere(live):
                for z, safe in ((end[i, j], True), (np.nextafter(end[i, j], away), False)):
                    grid = ev.evaluate(float(z))
                    np.testing.assert_array_equal(grid.cells, naive_erode(grid.tr & grid.lc & grid.kf & grid.fc))
                    assert grid.cells[i, j] == safe
                    heights.append(z)
        np.testing.assert_array_equal(ev.sweep_counts(heights), loop_sweep_counts(ev, heights))

    @pytest.mark.parametrize("case", ["heights_apart", "tall_riser"])
    def test_each_cell_passes_on_one_run_of_heights(self, model, zero_velocity, gait, case):
        # On both maps some KF checks clear r_min with the hip below their
        # point (the tall riser's from under its tread up); KF needs the hip
        # at or above every point, so each cell's conjunction holds on one
        # run of the swept heights.
        if case == "heights_apart":
            ev, z = heights_apart_evaluator(model, zero_velocity, gait), np.linspace(-0.8, 0.8, 81)
        else:
            ev, z = tall_riser_evaluator(), np.linspace(0.1, 1.3, 61)
        grids = [ev.evaluate(float(h)) for h in z]
        raw = np.array([g.tr & g.lc & g.kf & g.fc for g in grids])
        first, last = raw.argmax(axis=0), z.size - 1 - raw[::-1].argmax(axis=0)
        np.testing.assert_array_equal(raw.sum(axis=0), np.where(raw.any(axis=0), last - first + 1, 0))
        counts = ev.sweep_counts(z)
        assert counts.any()
        np.testing.assert_array_equal(counts, loop_sweep_counts(ev, z))

    def test_shell_hits_only_below_a_check_point_fail_kf(self, model, zero_velocity, gait):
        # The lift-off foot rests on the centre cell, so its swing arc rises
        # straight above it, and the hip is w = 0.09 m short of r_max away in
        # plan.  Every check then lies within the shell for hip heights from
        # the arc's top less w up to w, below that top (0.119 m): those are
        # the cell's only shell hits, and KF holds at no height.
        w = 0.09
        hip = (float(np.sqrt(model.r_max**2 - w**2)), 0.0)
        hm = Heightmap(np.zeros((9, 9)), (0.0, 0.0))
        foot = np.zeros(3)
        ev = FecEvaluator(hm, hip, zero_velocity, gait, model, foot)
        # The checks' heights: the candidate, then the interior arc samples.
        points = np.append(0.0, swing_arc_z(0.0, 0.0, np.linspace(0.0, 1.0, FC_ARC_SAMPLES)[1:-1], model.step_height))
        hits = np.arange(0.031, w, 0.001)
        dist = np.hypot(hip[0], hits[:, None] - points)
        assert ((model.r_min <= dist) & (dist <= model.r_max)).all() and (hits < points.max()).all()
        z = np.arange(-0.5, 1.0, 0.001)
        assert not any(ev.evaluate(float(h)).kf[4, 4] for h in z)
        naive = NaiveFec(hm, hip, zero_velocity, gait, model, current_foot=foot)
        assert not any(naive.kf_cell(4, 4, float(h)) for h in hits)


class _RecordingMap(np.ndarray):
    """A bordered map that keeps a copy of every index array taken from it."""

    def take(self, indices, *args, **kwargs):
        self.taken.append(np.array(indices))
        return np.asarray(self).take(indices, *args, **kwargs)


class TestIndexing:
    """Every flat index lies in the -inf-bordered map, so the lookups'
    ``mode="wrap"`` never wraps, and the index type holds every index."""

    def test_nan_hip_or_lift_off_foot_counts_zero(self, stairs, model, forward_velocity, gait):
        # NaN clamps to the border like a point off the map: no invalid cast
        # (the suite turns warnings into errors) and no safe cell.
        hm = extract_heightmap(stairs, (0.3, 0.0), 0.0)
        z = np.linspace(0.2, 0.8, 31) + hm.cells[16, 16]
        for hip, foot in [((np.nan, 0.0), None), ((0.3, 0.0), (np.nan, 0.0, 0.0))]:
            ev = FecEvaluator(hm, hip, forward_velocity, gait, model, foot)
            np.testing.assert_array_equal(ev.sweep_counts(z), 0)

    @pytest.mark.parametrize("yaw", [0.0, 0.7])
    @pytest.mark.parametrize("point", [(np.inf, 0.0), (-np.inf, 0.0), (1e300, 0.0)])
    @pytest.mark.parametrize("role", ["hip", "foot"])
    def test_far_hip_or_lift_off_foot_counts_zero(self, stairs, model, forward_velocity, gait, yaw, point, role):
        # A point at inf, or so far off that squaring its distance would
        # overflow, builds and sweeps without a warning, like a NaN one, and
        # no cell is in reach.
        hm = extract_heightmap(stairs, (0.3, 0.0), yaw)
        z = np.linspace(0.2, 0.8, 31) + hm.cells[16, 16]
        hip, foot = (point, None) if role == "hip" else ((0.3, 0.0), (*point, 0.0))
        ev = FecEvaluator(hm, hip, forward_velocity, gait, model, foot)
        np.testing.assert_array_equal(ev.sweep_counts(z), 0)
        assert not ev.evaluate(0.5 + hm.cells[16, 16]).cells.any()

    def test_extreme_points_index_the_border(self, stairs, model, zero_velocity, gait):
        hm = sampled_map(stairs, (0.3, 0.05), 0.7, 7, 11)
        ev = FecEvaluator(hm, (0.3, 0.05), zero_velocity, gait, model)
        far = np.array([-np.inf, -1e9, -0.2, 0.2, 1e9, np.inf, np.nan])
        values = np.concatenate([far, [-0.05, 0.0, 0.03]])
        rows, cols = ev._index_parts(values[:, None], values[None, :])
        idx = rows + cols
        assert idx.min() >= 0 and idx.max() < ev._bordered.size
        off_map = np.arange(values.size) < far.size
        np.testing.assert_array_equal(ev._bordered[idx[off_map]], -np.inf)
        np.testing.assert_array_equal(ev._bordered[idx[:, off_map]], -np.inf)
        assert np.isfinite(ev._bordered[idx[~off_map][:, ~off_map]]).all()

    @pytest.mark.parametrize("hip, foot", [
        ((1e9, 0.05), (0.3, 0.05, 0.0)),
        ((0.3, -1e9), (1e9, 1e9, 0.0)),
        ((np.nan, 0.05), (0.3, np.nan, 0.0)),
    ])
    def test_every_lookup_in_range(self, stairs, model, forward_velocity, gait, hip, foot):
        hm = sampled_map(stairs, (0.3, 0.05), 0.7, 7, 11)
        ev = FecEvaluator(hm, hip, forward_velocity, gait, model, foot)
        lc, fc = ev.lc_threshold, ev.fc
        ev._bordered = ev._bordered.view(_RecordingMap)
        ev._bordered.taken = []
        ev._build_arc_tables()
        ev._build_lc_threshold()
        np.testing.assert_array_equal(ev.lc_threshold, lc)
        np.testing.assert_array_equal(ev.fc, fc)
        assert len(ev._bordered.taken) == 1 + (LC_SEGMENT_SAMPLES - 1)
        for idx in ev._bordered.taken:
            assert idx.min() >= 0 and idx.max() < ev._bordered.size

    def test_index_type_holds_a_long_map(self, model):
        # The bordered copy of a 9 x 8191 map has 11 * 8193 > 65535 cells,
        # so a 16-bit index would wrap and read the wrong heights.
        terrain = TerrainMap(kind="rough", cell=0.2, amplitude=0.15, seed=4)
        hm = sampled_map(terrain, (0.4, 0.0), 0.2, 9, 8191)
        foot = np.array([0.34, 0.03, sample_height(terrain, 0.34, 0.03)])
        gait = GaitParams(duty_factor=0.5, t_remaining=0.3)
        ev = FecEvaluator(hm, (0.42, 0.02), np.array([0.3, 0.08]), gait, model, foot)
        assert ev._bordered.size > np.iinfo(np.uint16).max + 1
        assert np.isfinite(ev.lc_threshold).any()
        np.testing.assert_array_equal(ev.lc_threshold, loop_lc_threshold(ev))
        np.testing.assert_array_equal(ev.fc, loop_fc(ev))

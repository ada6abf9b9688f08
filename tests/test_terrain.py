import numpy as np
import pytest

from vital.terrain import (
    GAP_WIDTH,
    MAP_CELLS,
    MAP_RESOLUTION,
    TERRAIN_KINDS,
    Heightmap,
    TerrainMap,
    extract_heightmap,
    sample_height,
)


class TestSampleHeight:
    def test_flat_is_zero_everywhere(self, flat):
        assert sample_height(flat, 1.3, -0.2) == 0.0

    def test_stairs_hand_evaluated(self, stairs):
        # piecewise-constant staircase: x = 0.30 lies on the second tread
        assert sample_height(stairs, 0.30, 0.0) == pytest.approx(0.20)
        assert sample_height(stairs, -0.01, 0.0) == 0.0
        assert sample_height(stairs, 0.0, 0.0) == pytest.approx(0.10)
        assert sample_height(stairs, 0.24, 3.0) == pytest.approx(0.10)
        # clamped to the top beyond the staircase extent
        assert sample_height(stairs, 10.0, 0.0) == pytest.approx(0.50)

    def test_stairs_monotone_in_x(self, stairs):
        xs = np.linspace(-1.0, 3.0, 400)
        hs = sample_height(stairs, xs, np.zeros_like(xs))
        assert np.all(np.diff(hs) >= 0.0)

    def test_rough_deterministic(self):
        t1 = TerrainMap(kind="rough", cell=0.3, amplitude=0.06, seed=42)
        t2 = TerrainMap(kind="rough", cell=0.3, amplitude=0.06, seed=42)
        xs = np.random.default_rng(0).uniform(-5, 5, size=100)
        ys = np.random.default_rng(1).uniform(-5, 5, size=100)
        a = sample_height(t1, xs, ys)
        b = sample_height(t2, xs, ys)
        np.testing.assert_array_equal(a, b)
        t3 = TerrainMap(kind="rough", cell=0.3, amplitude=0.06, seed=43)
        assert not np.array_equal(a, sample_height(t3, xs, ys))

    def test_rough_amplitude_bound(self):
        t = TerrainMap(kind="rough", cell=0.3, amplitude=0.06, seed=7)
        xs = np.random.default_rng(2).uniform(-10, 10, size=2000)
        ys = np.random.default_rng(3).uniform(-10, 10, size=2000)
        hs = sample_height(t, xs, ys)
        assert np.all(np.abs(hs) <= 0.03 + 1e-12)

    def test_gapped_stairs_reads_below_tread(self):
        t = TerrainMap(kind="gapped_stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.0)
        tread = sample_height(t, 0.30, 0.0)
        gap = sample_height(t, 0.45, 0.0)  # last 8 cm of the second tread
        assert tread == pytest.approx(0.20)
        assert gap == pytest.approx(0.20 - 1.0)

    def test_composite_up_plateau_down(self):
        t = TerrainMap(kind="composite", rise=0.10, going=0.25, n_steps=5, start_x=0.0)
        assert sample_height(t, -0.1, 0.0) == 0.0
        assert sample_height(t, 1.0, 0.0) == pytest.approx(0.50)  # top
        assert sample_height(t, 1.5, 0.0) == pytest.approx(0.50)  # plateau end
        assert sample_height(t, 1.80, 0.0) == pytest.approx(0.40)  # stepping down
        assert sample_height(t, 3.2, 0.0) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TerrainMap(kind="lava")

    def test_gapped_stairs_need_a_tread_wider_than_the_gap(self):
        # With going <= GAP_WIDTH every point of every tread is gap.
        with pytest.raises(ValueError, match="GAP_WIDTH"):
            TerrainMap(kind="gapped_stairs", going=GAP_WIDTH)
        t = TerrainMap(kind="gapped_stairs", rise=0.10, going=0.1, n_steps=5, start_x=0.0)
        assert sample_height(t, 0.01, 0.0) == pytest.approx(0.10)


class TestExtractHeightmap:
    def test_flat_all_zero_grid(self, flat):
        hm = extract_heightmap(flat, (3.0, -1.0), 0.7)
        assert hm.cells.shape == (33, 33)
        np.testing.assert_array_equal(hm.cells, np.zeros((33, 33)))

    def test_cells_match_direct_sampling(self, stairs):
        hm = extract_heightmap(stairs, (0.4, 0.1), 0.3)
        wx, wy = hm.world_points()
        for i in range(0, 33, 7):
            for j in range(0, 33, 7):
                assert hm.cells[i, j] == sample_height(stairs, wx[i, j], wy[i, j])

    def test_center_cell_is_center_sample(self):
        # VFA takes the map's centre point and centre cell as the nominal
        # foothold, so both must equal the extraction centre exactly.
        for kind in TERRAIN_KINDS:
            terrain = TerrainMap(kind=kind, start_x=0.3)
            for yaw in (0.0, 1.1, -2.5):
                hm = extract_heightmap(terrain, (0.37, 0.013), yaw)
                wx, wy = hm.world_points()
                assert (wx[16, 16], wy[16, 16]) == hm.center == (0.37, 0.013)
                assert hm.cells[16, 16] == sample_height(terrain, 0.37, 0.013)

    def test_grid_offsets_separable(self):
        # FecEvaluator computes cell rows from x and columns from y alone,
        # so grid x is one value per row and grid y one per column, on every
        # terrain, at any yaw and on non-square maps; world_points
        # broadcasts them to every cell, as sample_height saw them.
        for kind in TERRAIN_KINDS:
            terrain = TerrainMap(kind=kind, start_x=0.3)
            for yaw in (0.0, 1.1):
                hm = Heightmap(np.zeros((21, 13)), (0.37, 0.013), yaw)
                gx, gy = hm.grid_offsets()
                assert gx.shape == (21, 1) and gy.shape == (1, 13)
                np.testing.assert_array_equal(gx[:, 0], (np.arange(21) - 10) * MAP_RESOLUTION)
                np.testing.assert_array_equal(gy[0], (np.arange(13) - 6) * MAP_RESOLUTION)
                wx, wy = hm.world_points()
                assert wx.shape == wy.shape == (21, 13)
                full = extract_heightmap(terrain, (0.37, 0.013), yaw)
                np.testing.assert_array_equal(full.cells, sample_height(terrain, *full.world_points()))

    def test_gradient_along_plus_x_at_zero_yaw(self, stairs):
        hm = extract_heightmap(stairs, (0.25, 0.0), 0.0)
        assert hm.cells[0, 16] < hm.cells[-1, 16]
        # one rise across a single spanned edge
        assert hm.cells[-1, 16] - hm.cells[0, 16] == pytest.approx(0.10 * 3)

    def test_quarter_turn_moves_gradient_to_minus_y(self, stairs):
        hm = extract_heightmap(stairs, (0.25, 0.0), np.pi / 2)
        wx, wy = hm.world_points()
        for i in (0, 16, 32):
            for j in (0, 16, 32):
                assert hm.cells[i, j] == sample_height(stairs, wx[i, j], wy[i, j])
        mid = 16
        assert hm.cells[mid, 0] > hm.cells[mid, -1]

    def test_translation_equivariance_on_flat(self, flat):
        a = extract_heightmap(flat, (0.0, 0.0), 0.0)
        b = extract_heightmap(flat, (12.3, -4.5), 2.1)
        np.testing.assert_array_equal(a.cells, b.cells)

    def test_map_cells_odd(self, flat):
        # An odd side gives the map a centre cell: the nominal foothold.
        assert MAP_CELLS % 2 == 1
        assert extract_heightmap(flat, (0, 0), 0.0).cells.shape == (MAP_CELLS, MAP_CELLS)

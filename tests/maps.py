"""Heightmaps of any size for the tests.

The library samples every map at ``MAP_CELLS`` x ``MAP_CELLS``; the oracle
tests also want small maps, which their per-cell loops walk fast, and
odd-shaped ones.  :func:`sampled_map` samples them the way
``extract_heightmap`` samples its maps.
"""

import numpy as np

from vital.terrain import Heightmap, sample_height


def sampled_map(terrain, center, yaw, h_x, h_y):
    """The (h_x, h_y) heightmap of ``terrain`` around ``center``, rotated by
    ``yaw``."""
    hm = Heightmap(np.zeros((h_x, h_y)), (float(center[0]), float(center[1])), yaw)
    hm.cells = sample_height(terrain, *hm.world_points())
    return hm

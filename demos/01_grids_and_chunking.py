"""Walk through the volumetric grid layer: TDF normalization, the
window/chunk/patch hierarchy cut by one tiling primitive, scene windows,
and the RFG1 file format.
"""

import numpy as np

from retrivox import (ChunkLayout, ScalarGrid3, coarsen, from_blocks,
                      normalize_tdf, occupancy_from_points, read_grid,
                      to_blocks, upsample, windows, write_grid)

# A scene window is 64^3 voxels at the default layout; retrieval works on
# 16^3 chunks and attention on 4^3 patches, so one window holds 4^3 = 64
# chunks and each chunk holds 4^3 patches.
layout = ChunkLayout()
print(f"layout: window {layout.scene_dim}^3, chunk {layout.chunk_dim}^3, "
      f"patch {layout.patch_dim}^3 -> {layout.chunks_per_window} chunks/window")

# Raw distances (in voxels) clamp at the truncation radius and rescale to
# [0, 1]: 0 on the surface, 1 in free space.
rng = np.random.default_rng(0)
raw = ScalarGrid3(rng.uniform(0, 6, size=(64, 64, 64)).astype(np.float32), 0.054)
tdf = normalize_tdf(raw, trunc=3.0)
print(f"normalized range: [{tdf.values.min():.3f}, {tdf.values.max():.3f}]")

# One primitive cuts every level: to_blocks turns a window into its 4x4x4
# grid of chunks, and each chunk into its grid of patches; from_blocks is
# the exact inverse.  Flattened, the block order is lexicographic (i, j, k).
chunks = to_blocks(tdf.values, layout.chunk_dim)
patches = to_blocks(chunks, layout.patch_dim)
print(f"chunks {chunks.shape}, patches {patches.shape}")
back = from_blocks(from_blocks(patches))
print("from_blocks(to_blocks(x)) exact:", np.array_equal(back, tdf.values))

# Larger scenes, boxes included, tile into disjoint 64^3 windows (padding
# value 1.0 = empty); from_blocks and a crop give the scene back.
big = ScalarGrid3(rng.uniform(0, 1, size=(70, 100, 64)).astype(np.float32), 0.054)
wins = windows(big.values, layout.scene_dim)
print(f"70x100x64 scene -> {wins.shape[:3]} grid of {layout.scene_dim}^3 windows")
restored = from_blocks(wins)[:70, :100, :64]
print("window round trip exact:", np.array_equal(restored, big.values))

# Point clouds become occupancy grids; out-of-bounds points are counted.
pts = rng.uniform(-0.1, 64 * 0.054, size=(1000, 3))
occ, dropped = occupancy_from_points(pts, (64, 64, 64), 0.054)
print(f"occupancy: {int(occ.values.sum())} voxels, {dropped} points outside")

# Min-pool coarsening preserves zero crossings of distance fields; nearest
# upsampling is how a coarse input reaches the target resolution.
lowres = coarsen(tdf, 4)
print(f"coarsened to {lowres.dims}, voxel {lowres.voxel_size:.3f} m")
print(f"upsampled back to {upsample(lowres.values, 4).shape}")

# RFG1 round trip is bit-exact.
write_grid("/tmp/demo_grid.rfg1", tdf)
again = read_grid("/tmp/demo_grid.rfg1")
print("file round trip exact:", np.array_equal(again.values, tdf.values))

"""Dense volumetric grids: truncation, tiling, occupancy, coarsening.

A grid stores one scalar per voxel in a (nx, ny, nz) array with z varying
fastest in memory (C order).  The world-space box of voxel (0,0,0) is
[origin, origin + voxel_size)^3 and its sample point is the voxel center.
All grids are immutable after construction; every operation here is a pure
function returning new grids.

to_blocks / from_blocks is the one tiler: scenes into windows, windows into
chunks, chunks into patches, and the factor^3 blocks that coarsen pools.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fileio import atomic_write

GRID_MAGIC = b"RFG1"
# u32 nx, ny, nz, f32 voxel size, 3 x f32 origin
GRID_HEADER = struct.Struct("<IIIf3f")

# Normalized TDF value below which a voxel counts as occupied (raw distance
# under one voxel at the default truncation of 3 voxels).
OCCUPANCY_TDF_THRESHOLD = 1.0 / 3.0
PAD_TDF_VALUE = 1.0  # windows pad a scene with empty space at full truncation


@dataclass(frozen=True, eq=False)
class ScalarGrid3:
    """Dense rank-3 scalar grid with world placement."""

    values: np.ndarray
    voxel_size: float
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 3:
            raise ValueError(f"grid values must be rank-3, got shape {values.shape}")
        if not self.voxel_size > 0:
            raise ValueError(f"voxel_size must be positive, got {self.voxel_size}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3).copy()
        values = values.copy() if values.flags.writeable else values
        values.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "voxel_size", float(self.voxel_size))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    @classmethod
    def full(cls, dims, value: float) -> "ScalarGrid3":
        """Constant float32 grid of unit voxels at the world origin."""
        return cls(np.full(tuple(dims), value, dtype=np.float32), 1.0)

    def with_values(self, values: np.ndarray) -> "ScalarGrid3":
        """Same placement, new payload."""
        return replace(self, values=values)


@dataclass(frozen=True)
class ChunkLayout:
    """Window / chunk / patch side lengths in voxels."""

    scene_dim: int = 64
    chunk_dim: int = 16
    patch_dim: int = 4

    def __post_init__(self):
        if self.scene_dim % self.chunk_dim != 0:
            raise ValueError(f"chunk_dim {self.chunk_dim} must divide scene_dim {self.scene_dim}")
        if self.chunk_dim % self.patch_dim != 0:
            raise ValueError(f"patch_dim {self.patch_dim} must divide chunk_dim {self.chunk_dim}")

    @property
    def n(self) -> int:
        """Chunks per window side; n^3 chunks per window."""
        return self.scene_dim // self.chunk_dim

    @property
    def chunks_per_window(self) -> int:
        return self.n ** 3

    @property
    def cells_per_side(self) -> int:
        """Patch-resolution cells per window side."""
        return self.scene_dim // self.patch_dim


# Fast test profile; the default matches the 64/16/4 operating levels.
MINI_LAYOUT = ChunkLayout(scene_dim=32, chunk_dim=8, patch_dim=4)


@dataclass
class HyperParams:
    """Every tuned constant in one auditable record.

    batch_retrieval defaults to the desk-scale 32; the reference large-scale
    value is 196. iou_a/iou_b shape the sigmoid that maps chunk IoU to the
    softened temperature: the default centers the softening at IoU 0.95, so
    only near-duplicates of the positive are forgiven while merely similar
    chunks still separate (centering lower collapses look-alike chunks and
    ruins retrieval ranking). C_sharpness sharpens the attention softmax.
    """

    tau_retrieval: float = 0.2
    tau_attention: float = 0.05
    k: int = 4
    lambda_retr: float = 0.5
    lambda_attn: float = 0.05
    C_sharpness: float = 10.0
    iou_a: float = 30.0
    iou_b: float = -28.5
    trunc_voxels: float = 3.0
    embed_dim: int = 64
    attn_dim: int = 32
    lr: float = 1e-4
    batch_retrieval: int = 32
    batch_refine: int = 8

    def __post_init__(self):
        for name in ("tau_retrieval", "tau_attention"):
            tau = getattr(self, name)
            if not (0.0 < tau <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {tau}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("lambda_retr", "lambda_attn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.trunc_voxels <= 0:
            raise ValueError("trunc_voxels must be positive")
        if self.C_sharpness <= 0:
            raise ValueError("C_sharpness must be positive")
        if self.embed_dim < 1 or self.attn_dim < 1:
            raise ValueError("embedding dimensions must be positive")


def normalize_tdf(grid: ScalarGrid3, trunc: float) -> ScalarGrid3:
    """Clamp raw voxel distances at `trunc` and rescale to [0, 1].

    Surface voxels map near 0, free space to 1.  Raw distances must be
    non-negative (unsigned TDF).
    """
    if not trunc > 0:
        raise ValueError(f"trunc must be positive, got {trunc}")
    raw = grid.values
    if np.any(raw < 0):
        raise ValueError("normalize_tdf expects unsigned distances, found negatives")
    out = np.minimum(raw, trunc) / np.asarray(trunc, dtype=raw.dtype)
    return grid.with_values(out.astype(raw.dtype, copy=False))


def to_blocks(values: np.ndarray, block: int) -> np.ndarray:
    """(..., X, Y, Z) -> (..., X/b, Y/b, Z/b, b, b, b), b = block: the grid of
    b^3 blocks, in lexicographic (i, j, k) order under .reshape(-1, b, b, b)."""
    if values.ndim < 3 or block < 1 or any(d % block for d in values.shape[-3:]):
        raise ValueError(f"grid of shape {values.shape} does not split into {block}^3 blocks")
    lead, (nx, ny, nz) = values.shape[:-3], (d // block for d in values.shape[-3:])
    nl = len(lead)
    v = values.reshape(*lead, nx, block, ny, block, nz, block)
    return np.ascontiguousarray(v.transpose(*range(nl), nl, nl + 2, nl + 4,
                                            nl + 1, nl + 3, nl + 5))


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Exact inverse of to_blocks: (..., nx, ny, nz, b, b, b) -> (..., nx*b, ny*b, nz*b)."""
    if blocks.ndim < 6 or len(set(blocks.shape[-3:])) != 1:
        raise ValueError(f"blocks of shape {blocks.shape} are not a grid of cubes")
    lead, (nx, ny, nz, b) = blocks.shape[:-6], blocks.shape[-6:-2]
    nl = len(lead)
    v = blocks.transpose(*range(nl), nl, nl + 3, nl + 1, nl + 4, nl + 2, nl + 5)
    return np.ascontiguousarray(v).reshape(*lead, nx * b, ny * b, nz * b)


def windows(values: np.ndarray, side: int) -> np.ndarray:
    """Disjoint windows (gx, gy, gz, side, side, side) of a scene (X, Y, Z)
    padded with PAD_TDF_VALUE to a multiple of side; from_blocks and a crop
    to (X, Y, Z) invert it."""
    if side < 1:
        raise ValueError(f"window side must be >= 1, got {side}")
    padded = np.full([-(-d // side) * side for d in values.shape], PAD_TDF_VALUE, values.dtype)
    padded[tuple(map(slice, values.shape))] = values
    return to_blocks(padded, side)


def occupancy_from_points(points: np.ndarray, dims, voxel_size: float) -> tuple[ScalarGrid3, int]:
    """Binary occupancy grid at the world origin: a voxel is 1 iff at least
    one point lands in it.

    Points outside the grid bounds are dropped; their count is returned
    alongside the grid.
    """
    dims = tuple(int(d) for d in dims)
    grid = np.zeros(dims, dtype=np.float32)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        return ScalarGrid3(grid, voxel_size), 0
    idx = np.floor(points / voxel_size).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < np.asarray(dims)), axis=1)
    kept = idx[inside]
    grid[kept[:, 0], kept[:, 1], kept[:, 2]] = 1.0
    return ScalarGrid3(grid, voxel_size), int(len(points) - inside.sum())


def coarsen(scene: ScalarGrid3, factor: int) -> ScalarGrid3:
    """Min-pool over factor^3 blocks; min keeps distance-field zero crossings."""
    if factor == 1:
        return scene
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    pooled = to_blocks(scene.values, factor).min(axis=(3, 4, 5))
    return ScalarGrid3(pooled, scene.voxel_size * factor, scene.origin)


def upsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Nearest upsampling (..., X, Y, Z) -> (..., fX, fY, fZ), f = factor, of
    a coarse input; training records and serving both use it."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return values.repeat(factor, -3).repeat(factor, -2).repeat(factor, -1)


def occupancy_fraction(grid: ScalarGrid3) -> float:
    """Fraction of voxels whose TDF value marks them as near-surface."""
    return float(np.mean(grid.values < OCCUPANCY_TDF_THRESHOLD))


def write_grid(path, grid: ScalarGrid3) -> None:
    """Serialize to the RFG1 binary format (little-endian, z fastest); a
    reader of path sees the old file or the new one."""
    header = GRID_MAGIC + GRID_HEADER.pack(*grid.dims, grid.voxel_size,
                                           *np.asarray(grid.origin, dtype=np.float32))
    with atomic_write(path) as f:
        f.write(header)
        f.write(np.ascontiguousarray(grid.values, dtype="<f4").tobytes())


def read_grid(path) -> ScalarGrid3:
    """Read an RFG1 file; a short, overlong or foreign file raises ValueError."""
    data = Path(path).read_bytes()
    if data[:4] != GRID_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {GRID_MAGIC!r}")
    off = 4 + GRID_HEADER.size
    if len(data) < off:
        raise ValueError(f"{path}: truncated RFG1 header")
    nx, ny, nz, voxel_size, ox, oy, oz = GRID_HEADER.unpack_from(data, 4)
    if len(data) != off + 4 * nx * ny * nz:
        raise ValueError(f"{path}: payload is {len(data) - off} bytes, "
                         f"expected {4 * nx * ny * nz} for {nx}x{ny}x{nz}")
    values = np.frombuffer(data, "<f4", nx * ny * nz, off).reshape(nx, ny, nz).astype(np.float32)
    return ScalarGrid3(values, voxel_size, np.array([ox, oy, oz], dtype=np.float64))

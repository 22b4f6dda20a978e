"""Dense volumetric grids: truncation, chunking, windows, occupancy, coarsening.

A grid stores one scalar per voxel in a (nx, ny, nz) array with z varying
fastest in memory (C order).  The world-space box of voxel (0,0,0) is
[origin, origin + voxel_size)^3 and its sample point is the voxel center.
All grids are immutable after construction; every operation here is a pure
function returning new grids.
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
        self.validate()

    def validate(self):
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
    """(..., D, D, D) windows -> (..., (D/block)^3, block, block, block) blocks,
    lexicographic (i, j, k) block order within each window."""
    if (values.ndim < 3 or len(set(values.shape[-3:])) != 1 or block < 1
            or values.shape[-1] % block):
        raise ValueError(f"windows of shape {values.shape} do not split into {block}^3 blocks")
    lead, n = values.shape[:-3], values.shape[-1] // block
    nl = len(lead)
    v = values.reshape(*lead, n, block, n, block, n, block)
    v = v.transpose(*range(nl), nl, nl + 2, nl + 4, nl + 1, nl + 3, nl + 5)
    return np.ascontiguousarray(v).reshape(*lead, n ** 3, block, block, block)


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Exact inverse of to_blocks: (..., n^3, b, b, b) -> (..., n*b, n*b, n*b)."""
    n = round(blocks.shape[-4] ** (1 / 3)) if blocks.ndim >= 4 else 0
    if n < 1 or n ** 3 != blocks.shape[-4] or len(set(blocks.shape[-3:])) != 1:
        raise ValueError(f"blocks of shape {blocks.shape} do not fold into a cube")
    lead, b = blocks.shape[:-4], blocks.shape[-1]
    nl = len(lead)
    v = blocks.reshape(*lead, n, n, n, b, b, b)
    v = v.transpose(*range(nl), nl, nl + 3, nl + 1, nl + 4, nl + 2, nl + 5)
    return np.ascontiguousarray(v).reshape(*lead, n * b, n * b, n * b)


def unfold(scene: ScalarGrid3, layout: ChunkLayout) -> list[ScalarGrid3]:
    """Split one window into its n^3 chunks in lexicographic (i, j, k) order."""
    d = layout.scene_dim
    if scene.dims != (d, d, d):
        raise ValueError(f"scene dims {scene.dims} do not match layout window {d}^3")
    c, n = layout.chunk_dim, layout.n
    origins = scene.origin + np.indices((n, n, n)).reshape(3, -1).T * (c * scene.voxel_size)
    return [ScalarGrid3(block, scene.voxel_size, org)
            for block, org in zip(to_blocks(scene.values, c), origins)]


def fold(chunks: list[ScalarGrid3], layout: ChunkLayout) -> ScalarGrid3:
    """Exact inverse of unfold: reassemble n^3 chunks into one window."""
    c = layout.chunk_dim
    n = layout.n
    if len(chunks) != n ** 3:
        raise ValueError(f"expected {n ** 3} chunks, got {len(chunks)}")
    for ch in chunks:
        if ch.dims != (c, c, c):
            raise ValueError(f"chunk dims {ch.dims} do not match layout chunk {c}^3")
    out = from_blocks(np.stack([ch.values for ch in chunks]).astype(chunks[0].values.dtype,
                                                                     copy=False))
    return ScalarGrid3(out, chunks[0].voxel_size, chunks[0].origin)


PAD_TDF_VALUE = 1.0  # empty space at full truncation


def windows(scene: ScalarGrid3, layout: ChunkLayout,
            stride: int | None = None) -> list[tuple[tuple[int, int, int], ScalarGrid3]]:
    """Decompose a scene into window-sized blocks at the given voxel stride.

    The scene is padded with PAD_TDF_VALUE so windows tile it exactly; at
    stride == scene_dim the cover is non-overlapping.  Returns
    (voxel_offset, window) pairs; offsets index the padded scene and feed
    reassemble_windows.
    """
    w = layout.scene_dim
    if stride is None:
        stride = w
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    # smallest count with (count-1)*stride + w >= d
    counts = [-(-(d - w) // stride) + 1 if d > w else 1 for d in scene.dims]
    padded_dims = tuple((cnt - 1) * stride + w for cnt in counts)
    padded = np.full(padded_dims, PAD_TDF_VALUE, dtype=scene.values.dtype)
    padded[:scene.dims[0], :scene.dims[1], :scene.dims[2]] = scene.values
    out = []
    for ci in range(counts[0]):
        for cj in range(counts[1]):
            for ck in range(counts[2]):
                o = (ci * stride, cj * stride, ck * stride)
                block = padded[o[0]:o[0] + w, o[1]:o[1] + w, o[2]:o[2] + w]
                org = scene.origin + np.asarray(o, dtype=np.float64) * scene.voxel_size
                out.append((o, ScalarGrid3(np.ascontiguousarray(block), scene.voxel_size, org)))
    return out


def reassemble_windows(pairs: list[tuple[tuple[int, int, int], ScalarGrid3]],
                       dims: tuple[int, int, int],
                       voxel_size: float | None = None,
                       origin=None) -> ScalarGrid3:
    """Place windows back at their voxel offsets and crop to `dims`."""
    if not pairs:
        raise ValueError("no windows to reassemble")
    first = pairs[0][1]
    voxel_size = first.voxel_size if voxel_size is None else voxel_size
    w = first.dims[0]
    full_dims = tuple(max(dims[a], max(o[a] for o, _ in pairs) + w) for a in range(3))
    buf = np.full(full_dims, PAD_TDF_VALUE, dtype=first.values.dtype)
    for o, win in pairs:
        buf[o[0]:o[0] + w, o[1]:o[1] + w, o[2]:o[2] + w] = win.values
    if origin is None:
        base = min(pairs, key=lambda p: p[0])
        origin = base[1].origin - np.asarray(base[0], dtype=np.float64) * voxel_size
    return ScalarGrid3(np.ascontiguousarray(buf[:dims[0], :dims[1], :dims[2]]), voxel_size, origin)


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
    nx, ny, nz = scene.dims
    if nx % factor or ny % factor or nz % factor:
        raise ValueError(f"factor {factor} does not divide dims {scene.dims}")
    v = scene.values.reshape(nx // factor, factor, ny // factor, factor, nz // factor, factor)
    pooled = v.min(axis=(1, 3, 5))
    return ScalarGrid3(pooled, scene.voxel_size * factor, scene.origin)


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

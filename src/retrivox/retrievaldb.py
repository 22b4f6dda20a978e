"""Chunk database: embedded target chunks, exact k-NN retrieval, assembly of
rank-r approximate reconstructions, and test-time extension.

k-NN is an exact brute-force search in two passes. A float64 GEMM screen
scores every query against every entry as |e|^2 - 2 q.e + |q|^2 and keeps
the entries that a stated rounding-error bound cannot rule out of the top k.
The survivors are re-ranked with the same float64 kernel and (distance, id)
tie rule as the brute-force oracle, so results match it bitwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embed import ChunkEncoderPair
from .fileio import atomic_write
from .grids import ChunkLayout, ScalarGrid3, from_blocks, to_blocks
from .metrics import OCCUPANCY_TDF_THRESHOLD

DB_MAGIC = b"RFDB"
DB_HEADER = np.dtype([("chunk_dim", "<u4"), ("embed_dim", "<u4"), ("count", "<u8")])
EMPTY_CHUNK_TAG = "canonical-empty"
# the screen's distance block is at most this many bytes, whatever the batch
SCREEN_BLOCK_BYTES = 4 << 20


def _sqdist(embeddings: np.ndarray, rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
    """Shared distance kernel: float64 squared l2 of selected rows to q."""
    diff = embeddings[rows].astype(np.float64) - q64
    return np.einsum("ij,ij->i", diff, diff)


@dataclass
class ApproxReconstruction:
    """Scene window assembled from the rank-th neighbor at every chunk slot."""

    rank: int
    scene: ScalarGrid3


@dataclass
class ChunkDatabase:
    chunk_dim: int
    embed_dim: int
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint64))
    tags: list[str] = field(default_factory=list)
    embeddings: np.ndarray | None = None
    chunks: np.ndarray | None = None
    version: int = 0
    # float64 embeddings and their squared norms for the k-NN screen
    _screen: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.embeddings is None:
            self.embeddings = np.zeros((0, self.embed_dim), dtype=np.float32)
        if self.chunks is None:
            self.chunks = np.zeros((0, self.chunk_dim ** 3), dtype=np.float32)

    def __len__(self) -> int:
        return len(self.ids)

    def add_entries(self, chunks: np.ndarray, embeddings: np.ndarray, tags: list[str]):
        chunks = np.asarray(chunks, dtype=np.float32).reshape(len(tags), -1)
        if chunks.shape[1] != self.chunk_dim ** 3:
            raise ValueError(f"chunk payload size {chunks.shape[1]} != {self.chunk_dim ** 3}")
        embeddings = np.asarray(embeddings, dtype=np.float32).reshape(len(tags), self.embed_dim)
        next_id = int(self.ids.max()) + 1 if len(self.ids) else 0
        new_ids = np.arange(next_id, next_id + len(tags), dtype=np.uint64)
        self.ids = np.concatenate([self.ids, new_ids])
        self.tags.extend(tags)
        self.embeddings = np.concatenate([self.embeddings, embeddings])
        self.chunks = np.concatenate([self.chunks, chunks])
        self._screen = None

    def build_index(self):
        """Precompute what the k-NN screen reads; k-NN calls this when needed."""
        e64 = self.embeddings.astype(np.float64)
        self._screen = (e64, np.einsum("ij,ij->i", e64, e64))

    def chunk_grid(self, row: int, voxel_size: float = 1.0, origin=(0, 0, 0)) -> ScalarGrid3:
        c = self.chunk_dim
        return ScalarGrid3(self.chunks[row].reshape(c, c, c), voxel_size, np.asarray(origin))

    def row_of_id(self, ident: int) -> int:
        rows = np.nonzero(self.ids == ident)[0]
        if not len(rows):
            raise KeyError(f"no chunk with id {ident}")
        return int(rows[0])


def knn_bruteforce(db: ChunkDatabase, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Oracle scanner: ascending squared l2, ties broken by lower id."""
    if k > len(db):
        raise ValueError(f"k={k} exceeds database size {len(db)}")
    q64 = np.asarray(query, dtype=np.float64).reshape(-1)
    d = _sqdist(db.embeddings, np.arange(len(db), dtype=np.int64), q64)
    order = np.lexsort((db.ids, d))[:k]
    return [(int(db.ids[r]), float(d[r])) for r in order]


def _knn_rows(db: ChunkDatabase, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN of every query row: (m, k) database rows and float64
    squared distances, equal to knn_bruteforce per query, ties included."""
    if not 1 <= k <= len(db):
        raise ValueError(f"k={k} must be in [1, database size {len(db)}]")
    q64 = np.asarray(queries, dtype=np.float64)
    if q64.ndim != 2 or q64.shape[1] != db.embed_dim:
        raise ValueError(f"queries of shape {q64.shape} are not (m, {db.embed_dim})")
    if not np.isfinite(q64).all():
        raise ValueError("query embedding is not finite")
    if db._screen is None:
        db.build_index()
    e64, e_sq = db._screen
    q_sq = np.einsum("ij,ij->i", q64, q64)
    # Each of the screen and _sqdist is off from the exact squared distance by
    # at most ~(dim + 2) unit roundoffs of (|e| + |q|)^2, in any summation
    # order, so they differ by less than slack (eps is two unit roundoffs).
    # Every true top-k entry then screens below kth + 2 * slack.
    reach = (np.sqrt(e_sq.max()) + np.sqrt(q_sq)) ** 2
    slack = (db.embed_dim + 4) * np.finfo(np.float64).eps * reach
    rows = np.empty((len(q64), k), dtype=np.int64)
    dists = np.empty((len(q64), k), dtype=np.float64)
    block = max(1, SCREEN_BLOCK_BYTES // (8 * len(db)))
    for lo in range(0, len(q64), block):
        screen = e_sq - 2.0 * (q64[lo:lo + block] @ e64.T) + q_sq[lo:lo + block, None]
        kth = np.partition(screen, k - 1, axis=1)[:, k - 1]
        for i, cut in enumerate(kth + 2.0 * slack[lo:lo + block], start=lo):
            cand = np.flatnonzero(screen[i - lo] <= cut)
            d = _sqdist(db.embeddings, cand, q64[i])
            order = np.lexsort((db.ids[cand], d))[:k]
            rows[i], dists[i] = cand[order], d[order]
    return rows, dists


def knn(db: ChunkDatabase, query: np.ndarray, k: int) -> list[tuple[int, float]]:
    """k nearest database entries by squared l2 embedding distance."""
    rows, dists = _knn_rows(db, np.reshape(query, (1, -1)), k)
    return [(int(db.ids[r]), float(d)) for r, d in zip(rows[0], dists[0])]


def _occupied(rows: np.ndarray, min_occupancy: float) -> np.ndarray:
    """The one keep rule for chunk rows (m, c^3): a row enters when at least
    min_occupancy of its voxels read occupied."""
    return (rows < OCCUPANCY_TDF_THRESHOLD).mean(axis=1) >= min_occupancy


def select_training_pairs(input_chunks: np.ndarray, target_chunks: np.ndarray,
                          min_occupancy: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Drop pairs whose target chunk is (near-)empty, keeping one canonical
    empty pair so empty regions still learn an empty retrieval."""
    targets = np.asarray(target_chunks, dtype=np.float32)
    keep = _occupied(targets.reshape(len(targets), -1), min_occupancy)
    keep[np.flatnonzero(~keep)[:1]] = True  # the first dropped pair, if any, stays
    return np.asarray(input_chunks, dtype=np.float32)[keep], targets[keep]


def build(encoders: ChunkEncoderPair, scenes: list[ScalarGrid3], layout: ChunkLayout,
          scene_tags: list[str] | None = None, min_occupancy: float = 0.01) -> ChunkDatabase:
    """Embed the train windows' target chunks that `_occupied` keeps: one
    stacked unfold, window-major rows, each tagged with its window's tag.
    With min_occupancy > 0 a canonical empty chunk is row 0, so empty queries
    retrieve emptiness."""
    if not scenes:
        raise ValueError("no scenes to build a database from")
    if scene_tags is None:
        scene_tags = [f"scene{num}" for num in range(len(scenes))]
    if len(scene_tags) != len(scenes):
        raise ValueError(f"{len(scene_tags)} tags for {len(scenes)} scenes")
    c = layout.chunk_dim
    rows = unfold_values(np.stack([s.values for s in scenes]), layout).reshape(-1, c ** 3)
    keep = _occupied(rows, min_occupancy)
    rows = rows[keep].astype(np.float32, copy=False)
    tags = np.repeat(np.asarray(scene_tags, dtype=object), layout.n ** 3)[keep].tolist()
    if min_occupancy > 0:
        rows = np.concatenate([np.ones((1, c ** 3), dtype=np.float32), rows])
        tags.insert(0, EMPTY_CHUNK_TAG)
    db = ChunkDatabase(chunk_dim=c, embed_dim=encoders.embed_dim)
    db.add_entries(rows, encoders.encode_targets(rows), tags)
    db.build_index()
    return db


def unfold_values(values: np.ndarray, layout: ChunkLayout) -> np.ndarray:
    """Raw chunks (m, c, c, c) of one window (d, d, d) or a stack of windows
    (..., d, d, d): window-major, lexicographic (i, j, k) within a window."""
    d, c = layout.scene_dim, layout.chunk_dim
    if values.shape[-3:] != (d, d, d):
        raise ValueError(f"window shape {values.shape} != (..., {d}, {d}, {d})")
    return to_blocks(values, c).reshape(-1, c, c, c)


def retrieve_windows(db: ChunkDatabase, encoders: ChunkEncoderPair,
                     input_windows: np.ndarray, layout: ChunkLayout, k: int) -> np.ndarray:
    """Approximation values (N, k, S, S, S) of N input windows (N, s, s, s):
    rank r holds the r-th neighbor at every chunk slot.  One encoder pass and
    one k-NN search cover every chunk slot of every window."""
    wins = np.asarray(input_windows)
    n, c = layout.n, layout.chunk_dim
    if wins.ndim != 4 or len(set(wins.shape[1:])) != 1 or wins.shape[1] % n:
        raise ValueError(f"input windows of shape {wins.shape} are not (N, s, s, s) "
                         f"cubes that split into {n}^3 chunks")
    nb = wins.shape[0]
    in_chunks = to_blocks(wins, wins.shape[1] // n).reshape(nb * n ** 3, -1)
    rows, _ = _knn_rows(db, encoders.encode_inputs(in_chunks), k)
    rows = rows.reshape(nb, n, n, n, k).transpose(0, 4, 1, 2, 3)
    return from_blocks(db.chunks[rows].reshape(nb, k, n, n, n, c, c, c))


def assemble_approximations(db: ChunkDatabase, encoders: ChunkEncoderPair,
                            input_window: ScalarGrid3, layout: ChunkLayout,
                            k: int) -> list[ApproxReconstruction]:
    """k candidate windows: rank-r uses the r-th neighbor at every chunk slot."""
    values = retrieve_windows(db, encoders, input_window.values[None], layout, k)[0]
    values.setflags(write=False)  # the grids below share it instead of copying
    target_vs = input_window.voxel_size * input_window.dims[0] / layout.scene_dim
    return [ApproxReconstruction(rank=r + 1, scene=ScalarGrid3(values[r], target_vs,
                                                               input_window.origin))
            for r in range(k)]


def extend(db: ChunkDatabase, new_chunks: np.ndarray, encoders: ChunkEncoderPair,
           tag: str = "extension", min_occupancy: float = 0.01) -> ChunkDatabase:
    """Append the chunks (..., c^3) or (..., c, c, c) kept under the one rule
    of `_occupied` (min_occupancy = 0 keeps all), embedded with the frozen
    target encoder; ids stay stable."""
    new_chunks = np.asarray(new_chunks, dtype=np.float32)
    c = db.chunk_dim
    if new_chunks.shape[-1:] != (c ** 3,) and new_chunks.shape[-3:] != (c, c, c):
        raise ValueError(f"extension chunks of shape {new_chunks.shape} end in neither "
                         f"{(c ** 3,)} nor {(c, c, c)}")
    new_chunks = new_chunks.reshape(-1, c ** 3)
    new_chunks = new_chunks[_occupied(new_chunks, min_occupancy)]
    if len(new_chunks):
        db.add_entries(new_chunks, encoders.encode_targets(new_chunks),
                       [tag] * len(new_chunks))
    db.version += 1
    return db


# ---------------------------------------------------------------------------
# RFDB serialization
# ---------------------------------------------------------------------------

def _record_dtype(tag_len: int, embed_dim: int, chunk_dim: int) -> np.dtype:
    """One packed RFDB entry record: id, tag length, tag, embedding, chunk."""
    return np.dtype({"names": ["id", "tag_len", "tag", "embedding", "chunk"],
                     "formats": ["<u8", "<u2", ("u1", (tag_len,)), ("<f4", (embed_dim,)),
                                 ("<f4", (chunk_dim ** 3,))],
                     "offsets": [0, 8, 10, 10 + tag_len, 10 + tag_len + 4 * embed_dim],
                     "itemsize": 10 + tag_len + 4 * (embed_dim + chunk_dim ** 3)})


def save_db(path, db: ChunkDatabase) -> None:
    """Write db as RFDB; a reader of path sees the old file or the new one."""
    path = Path(path)
    tags = [t.encode("utf-8") for t in db.tags]
    if any(len(t) > 0xFFFF for t in tags):
        raise ValueError(f"{path}: a tag is longer than 65535 bytes")
    with atomic_write(path) as f:
        f.write(DB_MAGIC + np.array((db.chunk_dim, db.embed_dim, len(db)), DB_HEADER).tobytes())
        lo = 0
        # one packed record array per run of entries with equal tag lengths
        for tag_len, run in itertools.groupby(tags, len):
            run = list(run)
            hi = lo + len(run)
            rec = np.empty(len(run), _record_dtype(tag_len, db.embed_dim, db.chunk_dim))
            rec["id"], rec["tag_len"] = db.ids[lo:hi], tag_len
            rec["tag"] = np.frombuffer(b"".join(run), np.uint8).reshape(len(run), tag_len)
            rec["embedding"], rec["chunk"] = db.embeddings[lo:hi], db.chunks[lo:hi]
            f.write(rec.tobytes())
            lo = hi


def load_db(path) -> ChunkDatabase:
    """Read an RFDB file; a short, overlong or foreign file raises ValueError."""
    data = Path(path).read_bytes()
    if data[:4] != DB_MAGIC:
        raise ValueError(f"{path}: not an RFDB file")
    off = 4 + DB_HEADER.itemsize
    if len(data) < off:
        raise ValueError(f"{path}: truncated RFDB header")
    chunk_dim, embed_dim, count = (int(v) for v in np.frombuffer(data, DB_HEADER, 1, 4)[0])
    runs, done = [], 0
    while done < count:
        # map every whole record that fits at this entry's tag length, keep the run
        dtype = _record_dtype(int.from_bytes(data[off + 8:off + 10], "little"),
                              embed_dim, chunk_dim)
        fit = min(count - done, (len(data) - off) // dtype.itemsize)
        if fit == 0:
            raise ValueError(f"{path}: truncated after {done} of {count} entries")
        rec = np.frombuffer(data, dtype, fit, off)
        changed = np.flatnonzero(rec["tag_len"] != rec["tag_len"][0])
        runs.append(rec[:changed[0]] if len(changed) else rec)
        done += len(runs[-1])
        off += len(runs[-1]) * dtype.itemsize
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes after {count} entries")
    db = ChunkDatabase(chunk_dim=chunk_dim, embed_dim=embed_dim)
    if count:
        db.ids = np.concatenate([r["id"] for r in runs], dtype=np.uint64)
        db.tags = [t.tobytes().decode("utf-8") for r in runs for t in r["tag"]]
        db.embeddings = np.concatenate([r["embedding"] for r in runs], dtype=np.float32)
        db.chunks = np.concatenate([r["chunk"] for r in runs], dtype=np.float32)
    return db

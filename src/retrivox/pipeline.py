"""Experiment orchestration: configuration, procedural roomlet generation,
stage execution (data, retrieval training, database, caching, refinement,
reconstruction, evaluation, database extension), and report emission.

All randomness flows from one master seed through named substreams, and
every stage rewrites its artifacts deterministically, so re-running a stage
with unchanged inputs reproduces byte-identical files.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import embed as E
from . import fusion as FU
from . import geometry as G
from . import metrics as M
from . import retrievaldb as RDB
from .grids import (ChunkLayout, HyperParams, ScalarGrid3, coarsen,
                    occupancy_fraction, occupancy_from_points, read_grid,
                    upsample, write_grid)

STAGES = ("gen_data", "train_retrieval", "build_db", "cache_retrievals",
          "train_refine", "reconstruct", "evaluate", "extend_db")

CATEGORIES = ("box", "cylinder", "sphere")


class StageError(RuntimeError):
    """A stage prerequisite is missing; the message names the fix."""


def named_rng(seed: int, *names: str | int) -> np.random.Generator:
    """Deterministic substream: master seed plus hashed stream names."""
    keys = [int(seed)]
    for n in names:
        if isinstance(n, int):
            keys.append(n)
        else:
            keys.append(int.from_bytes(hashlib.sha256(n.encode()).digest()[:4], "little"))
    return np.random.default_rng(np.random.SeedSequence(keys))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    task: str = "super_resolution"        # or surface_reconstruction
    mode: str = "attention"
    seed: int = 7
    layout: ChunkLayout = field(default_factory=ChunkLayout)
    hp: HyperParams = field(default_factory=HyperParams)
    sr_factor: int = 4
    voxel_size: float = 0.054
    # dataset
    n_train: int = 200
    n_test: int = 20
    n_holdout_test: int = 0
    n_extension: int = 0
    holdout_category: str = ""
    points_per_window: int = 1000
    max_furnishings: int = 6
    # training
    retrieval_iters: int = 5000
    refine_iters: int = 15000
    retrieval_lr: float = 0.0             # 0 -> hp.lr
    refine_lr: float = 0.0
    feat_channels: int = 64
    base_channels: int = 16
    retr_base_channels: int = 8
    # evaluation
    eval_samples: int = 100_000
    eval_split: str = "test"              # or holdout
    db_variant: str = "base"              # or extended
    # paths
    out_dir: str = "runs/desk"

    def __post_init__(self):
        if self.task not in ("super_resolution", "surface_reconstruction"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.mode not in FU.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.task == "super_resolution":
            if self.layout.scene_dim % self.sr_factor or self.layout.chunk_dim % self.sr_factor:
                raise ValueError("sr_factor must divide scene_dim and chunk_dim")

    @property
    def input_factor(self) -> int:
        return self.sr_factor if self.task == "super_resolution" else 1

    def paths(self) -> "RunPaths":
        return RunPaths(Path(self.out_dir))

    def fusion_config(self, mode: str | None = None, k: int | None = None) -> FU.FusionConfig:
        return FU.FusionConfig(
            layout=self.layout, k=self.hp.k if k is None else k, mode=mode or self.mode,
            feat_channels=self.feat_channels, base_channels=self.base_channels,
            retr_base_channels=self.retr_base_channels, attn_dim=self.hp.attn_dim,
            C_sharpness=self.hp.C_sharpness)


def desk_config(**overrides) -> ExperimentConfig:
    """Paper-flavoured desk defaults: 64/16/4 layout, x4 super-resolution."""
    return replace(ExperimentConfig(), **overrides)


def mini_config(**overrides) -> ExperimentConfig:
    """Fast test profile: 32/8/4 layout, x2 super-resolution, small budgets."""
    base = ExperimentConfig(
        layout=ChunkLayout(32, 8, 4), sr_factor=2, voxel_size=0.054,
        n_train=48, n_test=10, n_holdout_test=0, n_extension=0,
        points_per_window=1800,
        retrieval_iters=2000, refine_iters=400,
        retrieval_lr=1e-3, refine_lr=1e-3,
        feat_channels=32, base_channels=12, retr_base_channels=6,
        eval_samples=20_000, out_dir="runs/mini",
        hp=HyperParams(batch_retrieval=64, batch_refine=2),
    )
    return replace(base, **overrides)


_CFG_SECTIONS = {
    "experiment": ("task", "mode", "seed", "sr_factor", "voxel_size"),
    "layout": (),
    "hyperparams": (),
    "dataset": ("n_train", "n_test", "n_holdout_test", "n_extension", "holdout_category",
                "points_per_window", "max_furnishings"),
    "training": ("retrieval_iters", "refine_iters", "retrieval_lr", "refine_lr",
                 "feat_channels", "base_channels", "retr_base_channels"),
    "evaluation": ("eval_samples", "eval_split", "db_variant"),
    "paths": ("out_dir",),
}


def save_config(cfg: ExperimentConfig, path) -> None:
    cp = configparser.ConfigParser()
    for section, keys in _CFG_SECTIONS.items():
        cp[section] = {}
        for key in keys:
            cp[section][key] = str(getattr(cfg, key))
    cp["layout"] = {k: str(getattr(cfg.layout, k))
                    for k in ("scene_dim", "chunk_dim", "patch_dim")}
    cp["hyperparams"] = {k: str(getattr(cfg.hp, k)) for k in vars(cfg.hp)}
    with open(path, "w") as f:
        cp.write(f)


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    layout = ChunkLayout(scene_dim=cp.getint("layout", "scene_dim"),
                         chunk_dim=cp.getint("layout", "chunk_dim"),
                         patch_dim=cp.getint("layout", "patch_dim"))
    hp_kwargs = {}
    for key, default in vars(HyperParams()).items():
        if cp.has_option("hyperparams", key):
            cast = int if isinstance(default, int) else float
            hp_kwargs[key] = cast(cp.get("hyperparams", key))
    kwargs = {"layout": layout, "hp": HyperParams(**hp_kwargs)}
    for section, keys in _CFG_SECTIONS.items():
        for key in keys:
            if not cp.has_option(section, key):
                continue
            default = getattr(ExperimentConfig(), key)
            raw = cp.get(section, key)
            if isinstance(default, bool):
                kwargs[key] = cp.getboolean(section, key)
            elif isinstance(default, int):
                kwargs[key] = int(raw)
            elif isinstance(default, float):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = raw
    return ExperimentConfig(**kwargs)


@dataclass
class RunPaths:
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    @property
    def data(self) -> Path:
        return self.root / "data"

    def split_dir(self, split: str) -> Path:
        return self.data / split

    @property
    def encoders(self) -> Path:
        return self.root / "retrieval" / "encoders.rfc1"

    @property
    def retrieval_log(self) -> Path:
        return self.root / "retrieval" / "training_log.csv"

    def db_file(self, variant: str = "base") -> Path:
        name = "chunks.rfdb" if variant == "base" else "chunks_extended.rfdb"
        return self.root / "db" / name

    @property
    def cache(self) -> Path:
        return self.root / "cache"

    def model_file(self, mode: str, k: int) -> Path:
        return self.root / "models" / f"fusion_{mode}_k{k}.rfc1"

    def model_log(self, mode: str, k: int) -> Path:
        return self.root / "models" / f"fusion_{mode}_k{k}_log.csv"

    def recon_dir(self, mode: str, k: int, split: str, db_variant: str) -> Path:
        suffix = "" if db_variant == "base" else "_ext"
        return self.root / "recon" / f"{mode}_k{k}_{split}{suffix}"

    def report_dir(self, mode: str, k: int, split: str, db_variant: str) -> Path:
        suffix = "" if db_variant == "base" else "_ext"
        return self.root / "reports" / f"{mode}_k{k}_{split}{suffix}"


# ---------------------------------------------------------------------------
# procedural scenes
# ---------------------------------------------------------------------------

@dataclass
class SceneRecord:
    name: str
    categories: list[str]
    mesh: G.TriMesh | None  # None once read back: stages read gt, never the mesh
    gt: ScalarGrid3
    input_coarse: ScalarGrid3
    input_points: ScalarGrid3


def _aabb_overlap(a_lo, a_hi, b_lo, b_hi, margin=0.5) -> bool:
    return all(a_lo[i] - margin < b_hi[i] and b_lo[i] - margin < a_hi[i] for i in range(3))


@dataclass(frozen=True)
class _CatalogItem:
    kind: str
    size: tuple  # box: (sx, sy, sz); cylinder: (r, h); sphere: (r,)


def _furniture_catalog(seed: int, dim: int, per_kind: int = 4) -> list[_CatalogItem]:
    """Finite furniture catalog shared by all scenes of one experiment.

    Reusing a small set of instances (like repeated furniture across real
    rooms) makes cross-scene chunks bitwise-repeatable, the regime the
    chunk database is built for.
    """
    rng = named_rng(seed, "catalog")
    items = []
    for _ in range(per_kind):
        items.append(_CatalogItem("box", (
            max(round(rng.uniform(3, dim * 0.28)), 2),
            max(round(rng.uniform(3, dim * 0.28)), 2),
            max(round(rng.uniform(3, dim * 0.35)), 2))))
    for _ in range(per_kind):
        items.append(_CatalogItem("cylinder", (
            max(round(rng.uniform(1.8, dim * 0.12) * 2) / 2, 1.5),
            max(round(rng.uniform(3, dim * 0.35)), 2))))
    for _ in range(per_kind):
        items.append(_CatalogItem("sphere", (
            max(round(rng.uniform(2.2, dim * 0.11) * 2) / 2, 1.5),)))
    return items


def _roomlet_mesh(rng: np.random.Generator, dim: int, allowed: tuple[str, ...],
                  require: str | None, max_furnishings: int,
                  catalog: list[_CatalogItem]) -> tuple[G.TriMesh, list[str]]:
    """Floor slab, 2-4 walls, 1-6 catalog furnishings, all in voxel units,
    every surface kept >= 2 voxels inside the window so solids stay sealed.

    Sizes snap to the voxel lattice and placements to half-chunk steps:
    scenes then share bitwise-identical chunks (flat floor, wall segments,
    repeated furniture at matching phases).
    """
    m = 2               # inset margin, voxels
    gap = 0.02          # keeps stacked solids from sharing coplanar faces
    place = 8           # placement step: one chunk side, so item chunks share
    #                     a single grid phase and repeat bitwise across scenes
    clear = 3.2         # min clearance between chunk-aligned footprints: each
    parts = []          # solid's occupied chunks then see no neighbour within
    boxes = []          # the truncation band and repeat bitwise across scenes

    def cell_box(lo, hi):
        """Chunk-aligned footprint: the cells a solid occupies."""
        return (np.floor(np.asarray(lo) / place) * place,
                np.ceil(np.asarray(hi) / place) * place)

    def slot(rng, lo_min: float, hi_max: float) -> float | None:
        """A chunk-grid multiple inside [lo_min, hi_max]; placements then
        share one grid phase, so repeated geometry repeats bitwise."""
        first = int(np.ceil(lo_min / place))
        last = int(np.floor(hi_max / place))
        if first > last:
            return None
        return float(place * (first + int(rng.integers(0, last - first + 1))))

    # constant floor height keeps the vertical chunk phase identical across
    # scenes, so repeated items produce repeated chunks
    floor_t = 2.0
    floor_lo = np.array([m, m, m], dtype=float)
    floor_sz = np.array([dim - 2 * m, dim - 2 * m, floor_t])
    parts.append(G.box_mesh(floor_lo, floor_sz))
    floor_top = m + floor_t + gap

    n_walls = int(rng.integers(2, 5))
    sides = list(rng.permutation(4)[:n_walls])
    wall_h = float(np.clip(np.round(rng.uniform(0.45, 0.7) * dim / 4) * 4,
                           4, dim - floor_top - m - 1))
    for side in sides:
        t = 2.0
        placed = False
        for _ in range(10):
            span = slot(rng, place, (dim - 2 * m) * 0.9)
            if span is None:
                break
            start = slot(rng, m, dim - m - span)
            if start is None:
                continue
            if side == 0:
                lo, sz = [m, start, floor_top], [t, span, wall_h]
            elif side == 1:
                lo, sz = [dim - m - t, start, floor_top], [t, span, wall_h]
            elif side == 2:
                lo, sz = [start, m, floor_top], [span, t, wall_h]
            else:
                lo, sz = [start, dim - m - t, floor_top], [span, t, wall_h]
            lo, sz = np.asarray(lo, dtype=float), np.asarray(sz, dtype=float)
            c_lo, c_hi = cell_box(lo, lo + sz)
            # walls must not interpenetrate at corners (buried faces break
            # the watertight-by-construction guarantee) nor crowd another
            # solid's chunks
            if any(_aabb_overlap(c_lo, c_hi, b_lo, b_hi, margin=clear)
                   for b_lo, b_hi in boxes):
                continue
            placed = True
            break
        if placed:
            parts.append(G.box_mesh(lo, sz))
            boxes.append(cell_box(lo, lo + sz))

    cats: list[str] = []
    usable = [it for it in catalog if it.kind in allowed]
    required = [it for it in catalog if it.kind == require]
    n_f = int(rng.integers(1, max_furnishings + 1))
    for fi in range(n_f):
        if require and require not in cats and fi == n_f - 1 and required:
            item = required[int(rng.integers(0, len(required)))]
        else:
            item = usable[int(rng.integers(0, len(usable)))]
        for _ in range(40):
            if item.kind == "box":
                sz = np.asarray(item.size, dtype=float)
                px = slot(rng, m + 1, dim - m - 1 - sz[0])
                py = slot(rng, m + 1, dim - m - 1 - sz[1])
                if px is None or py is None:
                    break
                lo = np.array([px, py, floor_top])
                hi = lo + sz
                build = partial(G.box_mesh, lo, sz)
            elif item.kind == "cylinder":
                r, h = item.size
                px = slot(rng, m + 1 + r, dim - m - 1 - r)
                py = slot(rng, m + 1 + r, dim - m - 1 - r)
                if px is None or py is None:
                    break
                cx, cy = px + 0.5, py + 0.5
                lo = np.array([cx - r, cy - r, floor_top])
                hi = np.array([cx + r, cy + r, floor_top + h])
                build = partial(G.cylinder_mesh, (cx, cy, floor_top), r, h, n_seg=14)
            else:  # sphere
                (r,) = item.size
                px = slot(rng, m + 1 + r, dim - m - 1 - r)
                py = slot(rng, m + 1 + r, dim - m - 1 - r)
                if px is None or py is None:
                    break
                cx, cy = px + 0.5, py + 0.5
                cz = floor_top + r
                lo = np.array([cx - r, cy - r, cz - r])
                hi = np.array([cx + r, cy + r, cz + r])
                build = partial(G.uv_sphere_mesh, (cx, cy, cz), r, n_theta=10, n_phi=14)
            if hi[2] > dim - m or hi[0] > dim - m or hi[1] > dim - m:
                continue
            if lo[0] < m or lo[1] < m:
                continue
            c_lo, c_hi = cell_box(lo, hi)
            if any(_aabb_overlap(c_lo, c_hi, b_lo, b_hi, margin=clear)
                   for b_lo, b_hi in boxes):
                continue
            parts.append(build())  # only accepted placements are meshed
            boxes.append((c_lo, c_hi))
            cats.append(item.kind)
            break
    if require and require not in cats:
        return _roomlet_mesh(rng, dim, allowed, require, max_furnishings, catalog)
    return G.merge_meshes(parts), sorted(set(cats))


def generate_scene(cfg: ExperimentConfig, split: str, index: int) -> SceneRecord:
    """One deterministic window-sized scene with paired inputs."""
    dim = cfg.layout.scene_dim
    allowed, require = CATEGORIES, None
    if cfg.holdout_category:
        if split in ("holdout", "extension"):
            require = cfg.holdout_category  # must contain the held-out kind
        else:
            allowed = tuple(c for c in CATEGORIES if c != cfg.holdout_category)

    catalog = _furniture_catalog(cfg.seed, dim)
    for attempt in range(20):
        rng = named_rng(cfg.seed, "scene", split, index, attempt)
        mesh_vox, cats = _roomlet_mesh(rng, dim, allowed, require,
                                       cfg.max_furnishings, catalog)
        verts = mesh_vox.vertices * cfg.voxel_size
        mesh = G.TriMesh(verts, mesh_vox.faces)
        gt = G.mesh_to_tdf(mesh, (dim, dim, dim), cfg.voxel_size,
                           (0.0, 0.0, 0.0), trunc=cfg.hp.trunc_voxels)
        occ = occupancy_fraction(gt)
        if 0.02 <= occ <= 0.60:
            coarse = coarsen(gt, cfg.sr_factor)
            pts = G.sample_surface(mesh, cfg.points_per_window,
                                   named_rng(cfg.seed, "points", split, index))
            occ_grid, _ = occupancy_from_points(pts, (dim, dim, dim), cfg.voxel_size)
            # occupancy as pseudo-TDF: occupied voxels read as surface (0)
            pts_grid = occ_grid.with_values((1.0 - occ_grid.values).astype(np.float32))
            return SceneRecord(name=f"{split}_{index:03d}", categories=cats,
                               mesh=mesh, gt=gt, input_coarse=coarse,
                               input_points=pts_grid)
    raise RuntimeError(f"scene {split}/{index}: no acceptable occupancy after 20 attempts")


def point_distance_field(occupancy: ScalarGrid3, trunc: float = 3.0) -> ScalarGrid3:
    """Truncated distance transform of a point-occupancy grid (surface-coded:
    occupied voxels are 0).  Densifies the sparse observation into a noisy
    pseudo-TDF that retrieval and refinement can actually match against
    target chunks; derived deterministically, never stored.
    """
    from scipy.ndimage import distance_transform_edt
    occupied = occupancy.values < 0.5
    if not occupied.any():
        return occupancy.with_values(np.ones_like(occupancy.values))
    dist = distance_transform_edt(~occupied)
    vals = np.minimum(dist, trunc) / trunc
    return occupancy.with_values(vals.astype(np.float32))


def input_grid(record: SceneRecord, cfg: ExperimentConfig) -> ScalarGrid3:
    """The observation grid both pipeline stages consume."""
    if cfg.task == "super_resolution":
        return record.input_coarse
    return point_distance_field(record.input_points, cfg.hp.trunc_voxels)


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------

def _split_counts(cfg: ExperimentConfig) -> dict[str, int]:
    out = {"train": cfg.n_train, "test": cfg.n_test}
    if cfg.n_holdout_test:
        out["holdout"] = cfg.n_holdout_test
    if cfg.n_extension:
        out["extension"] = cfg.n_extension
    return out


def _save_scene(dirpath: Path, rec: SceneRecord) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    write_grid(dirpath / f"{rec.name}.gt.rfg1", rec.gt)
    write_grid(dirpath / f"{rec.name}.coarse.rfg1", rec.input_coarse)
    write_grid(dirpath / f"{rec.name}.points.rfg1", rec.input_points)
    G.save_obj(dirpath / f"{rec.name}.obj", rec.mesh)
    meta = {"name": rec.name, "categories": rec.categories}
    (dirpath / f"{rec.name}.meta.json").write_text(json.dumps(meta, sort_keys=True))


def load_scenes(cfg: ExperimentConfig, split: str) -> list[SceneRecord]:
    d = cfg.paths().split_dir(split)
    metas = sorted(d.glob("*.meta.json")) if d.exists() else []
    if not metas:
        raise StageError(f"no {split!r} scenes under {d}; run the gen_data stage first")
    out = []
    for mp in metas:
        meta = json.loads(mp.read_text())
        name = meta["name"]
        out.append(SceneRecord(
            name=name, categories=meta["categories"], mesh=None,
            gt=read_grid(d / f"{name}.gt.rfg1"),
            input_coarse=read_grid(d / f"{name}.coarse.rfg1"),
            input_points=read_grid(d / f"{name}.points.rfg1")))
    return out


def _load_encoders(cfg: ExperimentConfig) -> E.ChunkEncoderPair:
    p = cfg.paths().encoders
    if not p.exists():
        raise StageError(f"missing encoder checkpoint {p}; run the train_retrieval stage first")
    in_chunk = cfg.layout.chunk_dim // cfg.input_factor
    return E.ChunkEncoderPair.load(p, in_chunk, cfg.layout.chunk_dim, cfg.hp)


def _load_db(cfg: ExperimentConfig, variant: str | None = None) -> RDB.ChunkDatabase:
    p = cfg.paths().db_file(variant or cfg.db_variant)
    if not p.exists():
        raise StageError(f"missing chunk database {p}; run the build_db stage first")
    db = RDB.load_db(p)
    db.build_index()
    return db


def _training_pairs(cfg: ExperimentConfig, scenes: list[SceneRecord]):
    """(input chunk, target chunk) rows over all train windows, filtered."""
    f = cfg.input_factor
    in_layout = ChunkLayout(cfg.layout.scene_dim // f, cfg.layout.chunk_dim // f, 1)
    xs = RDB.unfold_values(np.stack([input_grid(rec, cfg).values for rec in scenes]), in_layout)
    ys = RDB.unfold_values(np.stack([rec.gt.values for rec in scenes]), cfg.layout)
    return RDB.select_training_pairs(xs.reshape(len(xs), -1), ys.reshape(len(ys), -1))


# retrieved approximation bytes held at once by the cache_retrievals stage
_CACHE_BATCH_BYTES = 64 << 20


def _cache_file(cfg: ExperimentConfig, name: str) -> Path:
    return cfg.paths().cache / f"{name}.approx.rfdb"


def _save_cache(path: Path, values: np.ndarray) -> None:
    """Per-window retrieval cache as an RFDB mini-file of k window blocks;
    values is (k, S, S, S), rank r + 1 at index r."""
    k = len(values)
    db = RDB.ChunkDatabase(chunk_dim=values.shape[1], embed_dim=1)
    db.add_entries(values.reshape(k, -1), np.zeros((k, 1), dtype=np.float32),
                   [f"rank{r + 1}" for r in range(k)])
    path.parent.mkdir(parents=True, exist_ok=True)
    RDB.save_db(path, db)


def _load_cache(path: Path, scene_dim: int) -> np.ndarray:
    if not path.exists():
        raise StageError(f"missing retrieval cache {path}; run the cache_retrievals stage first")
    db = RDB.load_db(path)
    return db.chunks.reshape(len(db), scene_dim, scene_dim, scene_dim)


def _upsampled_input(rec: SceneRecord, cfg: ExperimentConfig) -> np.ndarray:
    return upsample(input_grid(rec, cfg).values, cfg.input_factor).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_gen_data(cfg: ExperimentConfig) -> dict:
    counts = _split_counts(cfg)
    for split, count in counts.items():
        d = cfg.paths().split_dir(split)
        for i in range(count):
            _save_scene(d, generate_scene(cfg, split, i))
    save_config(cfg, cfg.paths().root / "config.cfg")
    return {"splits": {s: c for s, c in counts.items()}}


def stage_train_retrieval(cfg: ExperimentConfig) -> dict:
    scenes = load_scenes(cfg, "train")
    xs, ys = _training_pairs(cfg, scenes)
    lr = cfg.retrieval_lr or cfg.hp.lr
    pair, log = E.train_retrieval(xs, ys, cfg.hp, seed=cfg.seed,
                                  iters=cfg.retrieval_iters, lr=lr)
    p = cfg.paths()
    p.encoders.parent.mkdir(parents=True, exist_ok=True)
    pair.save(p.encoders)
    lines = ["iteration,loss,lr"] + [f"{i},{v!r},{l!r}" for i, v, l in log]
    p.retrieval_log.write_text("\n".join(lines) + "\n")
    return {"pairs": len(xs), "final_loss": log[-1][1] if log else None}


def stage_build_db(cfg: ExperimentConfig) -> dict:
    scenes = load_scenes(cfg, "train")
    encoders = _load_encoders(cfg)
    db = RDB.build(encoders, [r.gt for r in scenes], cfg.layout,
                   scene_tags=[r.name for r in scenes])
    out = cfg.paths().db_file("base")
    out.parent.mkdir(parents=True, exist_ok=True)
    RDB.save_db(out, db)
    return {"entries": len(db)}


def stage_cache_retrievals(cfg: ExperimentConfig) -> dict:
    scenes = load_scenes(cfg, "train")
    encoders = _load_encoders(cfg)
    db = _load_db(cfg, "base")
    # one retrieval call per batch of windows whose approximations fit
    # _CACHE_BATCH_BYTES (every train window of the mini profile in one)
    per_window = cfg.hp.k * cfg.layout.scene_dim ** 3 * np.float32().itemsize
    step = max(1, _CACHE_BATCH_BYTES // per_window)
    for i in range(0, len(scenes), step):
        batch = scenes[i:i + step]
        windows = np.stack([input_grid(rec, cfg).values for rec in batch])
        approxs = RDB.retrieve_windows(db, encoders, windows, cfg.layout, cfg.hp.k)
        for rec, values in zip(batch, approxs):
            _save_cache(_cache_file(cfg, rec.name), values)
    return {"cached": len(scenes)}


def stage_train_refine(cfg: ExperimentConfig, mode: str | None = None,
                       k: int | None = None) -> dict:
    mode = mode or cfg.mode
    fcfg = cfg.fusion_config(mode=mode, k=k)
    scenes = load_scenes(cfg, "train")
    s = cfg.layout.scene_dim
    records = []
    for rec in scenes:
        approx = None
        if mode != "no_retrieval":
            approx = _load_cache(_cache_file(cfg, rec.name), s)
        records.append(FU.RefineRecord(input_up=_upsampled_input(rec, cfg),
                                       gt=rec.gt.values.astype(np.float32),
                                       approx=approx))
    lr = cfg.refine_lr or cfg.hp.lr
    model, log = FU.train_refinement(records, fcfg, cfg.hp, seed=cfg.seed,
                                     iters=cfg.refine_iters, lr=lr)
    p = cfg.paths()
    mpath = p.model_file(mode, fcfg.k)
    mpath.parent.mkdir(parents=True, exist_ok=True)
    model.save(mpath)
    lines = ["iteration,loss"] + [f"{i},{v!r}" for i, v in log]
    p.model_log(mode, fcfg.k).write_text("\n".join(lines) + "\n")
    return {"mode": mode, "k": fcfg.k, "final_loss": log[-1][1] if log else None}


def _load_model(cfg: ExperimentConfig, mode: str, k: int) -> FU.FusionModel:
    fcfg = cfg.fusion_config(mode=mode, k=k)
    p = cfg.paths().model_file(mode, fcfg.k)
    if not p.exists():
        raise StageError(f"missing fusion checkpoint {p}; run the train_refine stage first")
    return FU.FusionModel.load(p, fcfg)


def stage_reconstruct(cfg: ExperimentConfig, mode: str | None = None,
                      k: int | None = None) -> dict:
    mode = mode or cfg.mode
    k = k if k is not None else cfg.hp.k
    split, variant = cfg.eval_split, cfg.db_variant
    scenes = load_scenes(cfg, split)
    model = _load_model(cfg, mode, k)
    db = encoders = None
    if mode != "no_retrieval":
        encoders = _load_encoders(cfg)
        db = _load_db(cfg, variant)
    out_dir = cfg.paths().recon_dir(mode, k, split, variant)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in scenes:
        scene, mesh = FU.reconstruct_scene(model, db, encoders, input_grid(rec, cfg),
                                           cfg.layout, sr_factor=cfg.input_factor)
        write_grid(out_dir / f"{rec.name}.pred.rfg1", scene)
        G.save_obj(out_dir / f"{rec.name}.pred.obj", mesh)
    return {"scenes": len(scenes), "dir": str(out_dir)}


def stage_evaluate(cfg: ExperimentConfig, mode: str | None = None,
                   k: int | None = None) -> dict:
    mode = mode or cfg.mode
    k = k if k is not None else cfg.hp.k
    split, variant = cfg.eval_split, cfg.db_variant
    scenes = load_scenes(cfg, split)
    recon = cfg.paths().recon_dir(mode, k, split, variant)
    report_dir = cfg.paths().report_dir(mode, k, split, variant)
    report_dir.mkdir(parents=True, exist_ok=True)
    s = cfg.layout.scene_dim
    world = s * cfg.voxel_size
    bounds = (np.zeros(3), np.full(3, world))
    threshold = 0.01 * world
    reports = []
    for rec in scenes:
        pred_grid_path = recon / f"{rec.name}.pred.rfg1"
        if not pred_grid_path.exists():
            raise StageError(f"missing reconstruction {pred_grid_path}; "
                             "run the reconstruct stage first")
        pred_mesh = G.load_obj(recon / f"{rec.name}.pred.obj")
        gt_mesh = G.marching_cubes(rec.gt)
        rep = M.evaluate_meshes(pred_mesh, gt_mesh, cfg.voxel_size, bounds,
                                threshold, samples=cfg.eval_samples, seed=cfg.seed)
        (report_dir / f"{rec.name}.json").write_text(rep.to_json())
        (report_dir / f"{rec.name}.txt").write_text(rep.to_text())
        reports.append(rep)
    agg = M.aggregate_reports(reports)
    (report_dir / "aggregate.json").write_text(json.dumps(agg, sort_keys=True, indent=2))
    row = (f"{mode}_k{k}_{split}{'' if variant == 'base' else '_ext'} | "
           f"IoU {agg['iou']:.4f} | CD {agg['chamfer_l1']:.4f} | "
           f"F1 {agg['f_score']:.4f} | NC {agg['normal_consistency']:.4f}")
    (report_dir / "aggregate.txt").write_text(
        "method | IoU | CD | F1 | NC\n" + row + "\n")
    return agg


def stage_extend_db(cfg: ExperimentConfig) -> dict:
    scenes = load_scenes(cfg, "extension")
    encoders = _load_encoders(cfg)
    db = _load_db(cfg, "base")
    before = len(db)
    chunks = RDB.unfold_values(np.stack([rec.gt.values for rec in scenes]), cfg.layout)
    RDB.extend(db, chunks, encoders, tag=f"extension-{cfg.holdout_category or 'extra'}")
    out = cfg.paths().db_file("extended")
    out.parent.mkdir(parents=True, exist_ok=True)
    RDB.save_db(out, db)
    return {"before": before, "after": len(db)}


_STAGE_FNS = {
    "gen_data": stage_gen_data,
    "train_retrieval": stage_train_retrieval,
    "build_db": stage_build_db,
    "cache_retrievals": stage_cache_retrievals,
    "train_refine": stage_train_refine,
    "reconstruct": stage_reconstruct,
    "evaluate": stage_evaluate,
    "extend_db": stage_extend_db,
}


def run_stage(cfg: ExperimentConfig, stage: str, **kwargs) -> dict:
    """Execute one pipeline stage; raises StageError on missing prerequisites."""
    if stage not in _STAGE_FNS:
        raise ValueError(f"unknown stage {stage!r}; stages: {', '.join(STAGES)}")
    return _STAGE_FNS[stage](cfg, **kwargs)

"""The two benchmark workloads, each a set-up step plus timed phases.

sr_pipeline: x2 super-resolution at the mini 32/8/4 layout, attention mode,
k=4.  Set-up writes the train scenes with the gen_data stage and generates
the test windows the served scenes are tiled from; the train
phase runs the train_retrieval, build_db, cache_retrievals and train_refine
stages; the serve phase reconstructs multi-window scenes one at a time, each
after one retrieval read of a test window; the evaluate phase scores served
scenes against their ground truth.  The database is small and highly
repetitive (one furniture catalog), so reads hit the same chunks.

retrieval_scale: surface reconstruction from point clouds, encoders only.
Set-up generates scenes under many seeds (distinct furniture catalogs),
rotated and shifted; the train phase trains the encoders and bulk-builds a
database ten times larger than sr_pipeline's, with a much higher
distinct-chunk share; the load phase mixes reads (one
assemble_approximations per window of an unseen scene) with extend writes in
a fixed seeded ratio.

The corpus (the scenes a database and the models are built from) and the
model initialisation are fixed, the same on every seed; --seed draws what
the clients send: the windows of each served scene and read, the scenes the
writes come from, rotations, shifts and request order.  k-NN cost depends on
the corpus and the trained encoder as a whole (per-window read time moved by
up to 1.7x between corpora drawn from different seeds, on the seed code), so
a corpus per seed would swamp every comparison between runs.

Both workloads are one closed-loop client in this process: the next request
is sent when the previous one returns.  Throughput probes (a short
train_retrieval run, and on sr_pipeline a build_db run) and repeat set-ups
are spread evenly over the request loop and reported as medians, so every
end-to-end figure samples the whole run rather than one burst of it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from retrivox import embed as E
from retrivox import fusion as FU
from retrivox import geometry as G
from retrivox import metrics as M
from retrivox import pipeline as P
from retrivox import retrievaldb as RDB
from retrivox.grids import OCCUPANCY_TDF_THRESHOLD, ChunkLayout, ScalarGrid3

K = 4
CORPUS_SEED = 7
# encoder training steps of both workloads' train phase
RETRIEVAL_ITERS = 60
# requests per second of --seconds: 100 requests at 60 s, so the p90 of each
# latency has ten samples beyond it
REQUESTS_PER_SECOND = 100 / 60
# throughput probes per run, spread evenly over the request loop, and the
# train_retrieval steps of one probe
PROBES = 10
PROBE_STEPS = 6
# share of served scenes with 1 to 4 windows, and the tiling of each count;
# ranks 50 and 90 of 100 fall inside the 1- and 2-window classes
WINDOW_MIX = (0.7, 0.25, 0.03, 0.02)
TILING = {1: (1, 1, 1), 2: (2, 1, 1), 3: (3, 1, 1), 4: (2, 2, 1)}
# build_db's and extend's rule for keeping a chunk: at least this share of
# its voxels occupied
MIN_OCCUPANCY = 0.01


def request_count(seconds: float) -> int:
    return max(2, round(REQUESTS_PER_SECOND * seconds))


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least q of all
    samples at or below it."""
    ordered = sorted(samples)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def probe_rounds(rounds: int, probes: int) -> set[int]:
    """`probes` request rounds, evenly spread, that run a probe first."""
    return {(2 * i + 1) * rounds // (2 * probes) for i in range(min(probes, rounds))}


@dataclass
class Outcome:
    """What one measured pass produced."""

    metrics: dict = field(default_factory=dict)     # end-to-end name -> value
    extra: dict = field(default_factory=dict)       # workload-only figures
    manifest: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)     # every set-up of the pass
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)      # check name -> passed
    tracer: object = None                           # spans.Tracer of a traced pass

    def attempt(self, label: str, fn, *args):
        """Run one request; a raise counts as a failure and returns None."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.next_request()
        try:
            return fn(*args)
        except Exception:  # a request that raises is a failed request
            self.fail(label, traceback.format_exc(limit=4))
            return None

    def timed(self, label: str, samples: list, fn, *args):
        """attempt(), appending the call's wall time to `samples` if it
        succeeded."""
        t0 = time.perf_counter()
        out = self.attempt(label, fn, *args)
        if out is not None:
            samples.append(time.perf_counter() - t0)
        return out

    def fail(self, label: str, detail: str = ""):
        self.failed += 1
        self.failures.append(label)
        print(f"request failed: {label}\n{detail}", file=sys.stderr)

    def check(self, fn, *args):
        """Run check-only work, which a traced pass leaves out of its spans."""
        with self.tracer.paused() if self.tracer is not None else nullcontext():
            return fn(*args)

    def setup_probe(self, workload):
        """Time one more set-up of the same inputs, into a directory of its
        own so that the measured pass's files stay in place."""
        twin = type(workload)(workload.seed, workload.workdir / "setup-probe", workload.sizes)
        self.timed("setup probe", self.setup_s, twin.setup)


def run_pass(workload, tracer=None):
    """Set up once, then measure; returns the outcome and the wall time."""
    t0 = time.perf_counter()
    state = workload.setup()
    setup_s = time.perf_counter() - t0
    outcome = workload.measure(state, Outcome(setup_s=[setup_s], tracer=tracer))
    return outcome, time.perf_counter() - t0


def _window_requests(rng: np.random.Generator, n_requests: int, n_windows: int):
    """Per request, the window indices it is built from.  The count of each
    scene size is fixed by WINDOW_MIX and only the order and the windows are
    seeded, so every seed puts the p50 and p90 inside the same size class."""
    counts = [round(share * n_requests) for share in WINDOW_MIX]
    counts[0] += n_requests - sum(counts)
    sizes = np.repeat(np.arange(1, 5), counts)
    rng.shuffle(sizes)
    return [rng.integers(0, n_windows, size=int(s)).tolist() for s in sizes]


def _read_order(rng: np.random.Generator, n_reads: int, n_windows: int) -> list[int]:
    """Window index of each read: every window is read equally often (to
    within one), in a seeded order."""
    order = np.concatenate([rng.permutation(n_windows)
                            for _ in range(-(-n_reads // n_windows))])
    return order[:n_reads].tolist()


def _tile(blocks: list[np.ndarray], count: int) -> np.ndarray:
    nx, ny, nz = TILING[count]
    side = blocks[0].shape[0]
    out = np.empty((nx * side, ny * side, nz * side), dtype=blocks[0].dtype)
    for slot, block in enumerate(blocks):
        i, j, k = np.unravel_index(slot, (nx, ny, nz))
        out[i * side:(i + 1) * side, j * side:(j + 1) * side, k * side:(k + 1) * side] = block
    return out


def _training_pairs(windows, in_layout: ChunkLayout, layout: ChunkLayout):
    """Filtered (input chunk, target chunk) rows of (input, target) windows."""
    xs, ys = [], []
    for inp, gt in windows:
        xs.extend(c.ravel() for c in RDB.unfold_values(inp, in_layout))
        ys.extend(c.ravel() for c in RDB.unfold_values(gt, layout))
    return RDB.select_training_pairs(np.stack(xs), np.stack(ys))


def _distinct_share(db: RDB.ChunkDatabase) -> float:
    return len(np.unique(db.chunks, axis=0)) / len(db)


def _hash_grid(h, values: np.ndarray):
    h.update(np.ascontiguousarray(values, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# sr_pipeline
# ---------------------------------------------------------------------------

TRAIN_STAGES = ("train_retrieval", "build_db", "cache_retrievals", "train_refine")
TRAIN_SCENES = 8
# on the corpus, served meshes are all empty after 48 steps and all non-empty
# from 64; the mini profile's lr of 1e-3 needs ~300 steps.  At lr 1e-2, 64
# steps keep meshes non-empty too, but the evaluated IoU falls to about 0.01
REFINE_ITERS = 80
REFINE_LR = 5e-3


@dataclass
class SrSizes:
    requests: int = 100          # served scenes, each after one read
    # set-ups per run: the one whose state is measured, then repeats spread
    # over the request loop; setup_s is their median
    setups: int = 4
    test_windows: int = 16
    eval_samples: int = 1000     # more samples let evaluation memory pass training's


class SrPipeline:
    name = "sr_pipeline"

    def __init__(self, seed: int, workdir: Path, sizes: SrSizes):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.cfg = P.mini_config(
            seed=CORPUS_SEED, n_train=TRAIN_SCENES, n_test=0,
            retrieval_iters=RETRIEVAL_ITERS, refine_iters=REFINE_ITERS,
            refine_lr=REFINE_LR, eval_samples=sizes.eval_samples,
            out_dir=str(workdir / "sr"))

    def setup(self) -> dict:
        """Write train/test scenes, build the served scene requests and the
        ground-truth mesh of the first 1-window scene, the one evaluated."""
        cfg, sz = self.cfg, self.sizes
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        P.run_stage(cfg, "gen_data")
        rng = P.named_rng(self.seed, "perfbench", "sr")
        # unseen scenes of the corpus's furniture catalog
        tests = [P.generate_scene(cfg, "test", int(i))
                 for i in rng.choice(1 << 20, size=sz.test_windows, replace=False)]
        in_layout = ChunkLayout(cfg.layout.scene_dim // cfg.sr_factor,
                                cfg.layout.chunk_dim // cfg.sr_factor, 1)
        pairs = _training_pairs([(r.input_coarse.values, r.gt.values)
                                 for r in P.load_scenes(cfg, "train")], in_layout, cfg.layout)
        requests = _window_requests(rng, sz.requests, len(tests))
        reads = _read_order(rng, sz.requests, len(tests))
        coarse_vs = cfg.voxel_size * cfg.sr_factor
        scenes = [ScalarGrid3(_tile([tests[w].input_coarse.values for w in req], len(req)),
                              coarse_vs) for req in requests]
        evaluated = next(i for i, req in enumerate(requests) if len(req) == 1)
        gt_mesh = G.marching_cubes(tests[requests[evaluated][0]].gt)
        return {"tests": tests, "pairs": pairs, "requests": requests, "reads": reads,
                "scenes": scenes, "evaluated": evaluated, "gt_mesh": gt_mesh}

    def measure(self, state: dict, out: Outcome) -> Outcome:
        cfg, sz = self.cfg, self.sizes
        stage_s = {}
        for stage in TRAIN_STAGES:
            runs = []
            if out.timed(f"stage {stage}", runs, P.run_stage, cfg, stage) is None:
                return out
            stage_s[stage] = runs[0]

        paths = cfg.paths()
        fcfg = cfg.fusion_config()
        model = FU.FusionModel.load(paths.model_file(cfg.mode, fcfg.k), fcfg)
        db = RDB.load_db(paths.db_file("base"))
        db.build_index()
        encoders = E.ChunkEncoderPair.load(paths.encoders, cfg.layout.chunk_dim // cfg.sr_factor,
                                           cfg.layout.chunk_dim, cfg.hp)

        probes = probe_rounds(len(state["scenes"]), PROBES)
        setups = probe_rounds(len(state["scenes"]), sz.setups - 1)
        train_s, ingest_s, read_s, serve_s = [], [], [], []
        windows, eval_mesh = 0, None
        tdf_hash = hashlib.sha256()
        for i, scene in enumerate(state["scenes"]):
            if i in setups:
                out.setup_probe(self)
            if i in probes:
                out.timed("train probe", train_s, E.train_retrieval, *state["pairs"], cfg.hp,
                          cfg.seed, PROBE_STEPS, cfg.retrieval_lr)
                out.timed("ingest probe", ingest_s, P.run_stage, cfg, "build_db")
            out.timed(f"read {i}", read_s, RDB.assemble_approximations, db, encoders,
                      state["tests"][state["reads"][i]].input_coarse, cfg.layout, K)
            res = out.timed(f"serve {i}", serve_s, FU.reconstruct_scene, model, db, encoders,
                            scene, cfg.layout, cfg.sr_factor)
            if res is None:
                continue
            windows += len(state["requests"][i])
            pred, mesh = res
            _hash_grid(tdf_hash, pred.values)
            if mesh.is_empty:
                out.fail(f"serve {i}: empty mesh")
            elif i == state["evaluated"]:
                eval_mesh = mesh

        reports, eval_s = [], []
        if eval_mesh is not None:
            world = np.asarray(state["scenes"][state["evaluated"]].dims) * cfg.sr_factor * cfg.voxel_size
            rep = out.timed("evaluate", eval_s, M.evaluate_meshes, eval_mesh, state["gt_mesh"],
                            cfg.voxel_size, (np.zeros(3), world),
                            0.01 * cfg.layout.scene_dim * cfg.voxel_size,
                            sz.eval_samples, self.seed)
            if rep is not None:
                reports.append(rep)

        if train_s:
            out.metrics["train_retrieval_steps_per_s"] = PROBE_STEPS / statistics.median(train_s)
        if ingest_s:
            out.metrics["ingest_chunks_per_s"] = len(db) / statistics.median(ingest_s)
        if read_s:
            out.metrics["retrieve_window_p50_s"] = quantile(read_s, 0.5)
            out.metrics["retrieve_window_p90_s"] = quantile(read_s, 0.9)
        if serve_s:
            out.metrics["serve_scene_p50_s"] = quantile(serve_s, 0.5)
            out.metrics["serve_scene_p90_s"] = quantile(serve_s, 0.9)
            out.metrics["serve_windows_per_s"] = windows / sum(serve_s)
        out.extra = {
            "train_refine_steps_per_s": REFINE_ITERS / stage_s["train_refine"],
            "eval_scenes_per_s": len(eval_s) / sum(eval_s) if eval_s else 0.0,
            "recon_iou": float(np.mean([r.iou for r in reports])) if reports else 0.0,
            "recon_chamfer_l1": float(np.mean([r.chamfer_l1 for r in reports])) if reports else 0.0,
            "stage_s": stage_s,
        }
        out.checks = {"served_meshes_non_empty": not any("empty mesh" in f for f in out.failures)}
        out.manifest = {
            "retrieval_iters": RETRIEVAL_ITERS, "refine_iters": REFINE_ITERS,
            "refine_lr": REFINE_LR, "train_scenes": TRAIN_SCENES,
            "test_windows": sz.test_windows, "setups": len(out.setup_s), "probes": len(train_s),
            "probe_steps": PROBE_STEPS, "served_scenes": len(serve_s),
            "served_windows": windows, "reads": len(read_s),
            "evaluated_scenes": len(reports), "eval_samples": sz.eval_samples,
            "db_entries": len(db), "db_distinct_share": _distinct_share(db),
            "db_bytes_per_entry": paths.db_file("base").stat().st_size / len(db),
            "percentile_samples": {"retrieve_window": len(read_s), "serve_scene": len(serve_s)},
            "served_tdf_sha256": tdf_hash.hexdigest(),
        }
        return out


# ---------------------------------------------------------------------------
# retrieval_scale
# ---------------------------------------------------------------------------

# cube rotations applied to whole scenes (k quarter turns in a plane, composed
# left to right); turns about x and y stand floors up as walls
ROTATIONS = tuple(((up, axes),) + ((spin, (0, 1)),) if up else ((spin, (0, 1)),)
                  for up, axes in ((0, (0, 1)), (1, (1, 2)), (2, (1, 2)), (3, (1, 2)),
                                   (1, (0, 2)), (3, (0, 2)))
                  for spin in range(4))
# each rotated copy is also shifted by up to this many voxels per axis, which
# moves geometry off the chunk lattice: the generator snaps everything to it,
# so without the shift most chunks of different scenes repeat bitwise
MAX_SHIFT = 7


def _place(values: np.ndarray, turns, shift) -> np.ndarray:
    """Rotate, then shift toward +x/+y/+z, filling vacated voxels with empty
    space and cropping what leaves the window."""
    for k, axes in turns:
        values = np.rot90(values, k, axes)
    out = np.ones_like(values)
    dst = tuple(slice(int(s), None) for s in shift)
    src = tuple(slice(0, n - int(s)) for n, s in zip(values.shape, shift))
    out[dst] = values[src]
    return out


@dataclass
class RsSizes:
    requests: int = 100          # reads; writes come on top at WRITE_RATIO
    setups: int = 4              # as SrSizes.setups
    db_scenes: int = 8           # one furniture catalog each
    query_scenes: int = 6
    query_rotations: int = 8
    write_scenes: int = 4


DB_ROTATIONS = 13                # placed copies of each database scene
WRITE_ROTATIONS = 10
WRITE_RATIO = 0.25               # writes per read
WRITE_BATCH = 32                 # occupied chunks per extend
CHECK_EVERY = 20                 # every n-th read is checked against brute force


class RetrievalScale:
    name = "retrieval_scale"

    def __init__(self, seed: int, workdir: Path, sizes: RsSizes):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.cfg = P.mini_config(task="surface_reconstruction", seed=CORPUS_SEED,
                                 retrieval_iters=RETRIEVAL_ITERS, out_dir=str(workdir / "rs"))
        self.in_layout = ChunkLayout(self.cfg.layout.scene_dim, self.cfg.layout.chunk_dim, 1)

    def _scenes(self, seed: int, split: str, count: int, rotations: int):
        """(input, target) value pairs of `count` scenes, each generated
        under its own catalog seed, in `rotations` seeded rotations with
        seeded shifts."""
        out = []
        for i in range(count):
            rng = P.named_rng(seed, "perfbench", split, i)
            scene_cfg = dataclasses.replace(self.cfg, seed=int(rng.integers(1 << 30)))
            rec = P.generate_scene(scene_cfg, "train", 0)
            inp = P.input_grid(rec, scene_cfg).values
            for r in rng.choice(len(ROTATIONS), size=rotations, replace=False):
                shift = rng.integers(0, MAX_SHIFT + 1, size=3)
                out.append((_place(inp, ROTATIONS[r], shift),
                            _place(rec.gt.values, ROTATIONS[r], shift)))
        return out

    def setup(self) -> dict:
        cfg, sz = self.cfg, self.sizes
        db_scenes = self._scenes(CORPUS_SEED, "db", sz.db_scenes, DB_ROTATIONS)
        queries = self._scenes(self.seed, "query", sz.query_scenes, sz.query_rotations)
        rng = P.named_rng(self.seed, "perfbench", "rs")
        reads = _read_order(rng, sz.requests, len(queries))
        n_writes = round(WRITE_RATIO * sz.requests)
        # write batches hold only chunks extend keeps, so every write adds
        # exactly WRITE_BATCH entries
        writes = self._scenes(self.seed, "write", sz.write_scenes, WRITE_ROTATIONS)
        chunks = np.stack([c.ravel() for _, gt in writes
                           for c in RDB.unfold_values(gt, cfg.layout)])
        chunks = chunks[(chunks < OCCUPANCY_TDF_THRESHOLD).mean(axis=1) >= MIN_OCCUPANCY]
        if len(chunks) < n_writes * WRITE_BATCH:
            raise ValueError(f"{len(chunks)} write chunks for {n_writes} writes")
        ops = ["read"] * len(reads) + ["write"] * n_writes
        rng.shuffle(ops)
        return {
            "db_targets": [ScalarGrid3(gt, cfg.voxel_size) for _, gt in db_scenes],
            "pairs": _training_pairs(db_scenes, self.in_layout, cfg.layout),
            "query_windows": [ScalarGrid3(inp, cfg.voxel_size) for inp, _ in queries],
            "write_batches": np.split(chunks[:n_writes * WRITE_BATCH], n_writes),
            "reads": reads, "ops": ops,
        }

    def measure(self, state: dict, out: Outcome) -> Outcome:
        cfg, sz = self.cfg, self.sizes
        train_run, build_run = [], []
        trained = out.timed("train_retrieval", train_run, E.train_retrieval, *state["pairs"],
                            cfg.hp, cfg.seed, cfg.retrieval_iters, cfg.retrieval_lr)
        if trained is None:
            return out
        encoders = trained[0]
        db = out.timed("build", build_run, RDB.build, encoders, state["db_targets"], cfg.layout)
        if db is None:
            return out
        built_entries = len(db)
        built_distinct = _distinct_share(db)

        probes = probe_rounds(len(state["ops"]), PROBES)
        setups = probe_rounds(len(state["ops"]), sz.setups - 1)
        train_s, read_s, write_s = [], [], []
        checked = mismatched = 0
        tdf_hash = hashlib.sha256()
        reads = iter(state["reads"])
        batches = iter(state["write_batches"])
        for i, op in enumerate(state["ops"]):
            if i in setups:
                out.setup_probe(self)
            if i in probes:
                out.timed("train probe", train_s, E.train_retrieval, *state["pairs"], cfg.hp,
                          cfg.seed, PROBE_STEPS, cfg.retrieval_lr)
            if op == "write":
                before = db.ids.copy()
                if out.timed(f"write {i}", write_s, RDB.extend, db, next(batches),
                             encoders) is None:
                    continue
                if not (len(db) == len(before) + WRITE_BATCH
                        and np.array_equal(db.ids[:len(before)], before)
                        and len(np.unique(db.ids)) == len(db)):
                    out.fail(f"write {i} changed existing ids or dropped chunks")
                continue
            win = state["query_windows"][next(reads)]
            approx = out.timed(f"read {i}", read_s, RDB.assemble_approximations, db, encoders,
                               win, cfg.layout, K)
            if approx is None:
                continue
            for a in approx:
                _hash_grid(tdf_hash, a.scene.values)
            if len(read_s) % CHECK_EVERY == 0:
                checked += 1
                if not out.check(self._matches_oracle, db, encoders, win):
                    mismatched += 1
                    out.fail(f"read {i}: knn differs from knn_bruteforce")

        # the closing request persists the database and reopens it
        db_file = Path(cfg.out_dir) / "chunks.rfdb"
        db_file.parent.mkdir(parents=True, exist_ok=True)
        loaded = out.attempt("persist", self._persist, db_file, db)
        round_trip = loaded is not None and (
            np.array_equal(loaded.ids, db.ids) and loaded.tags == db.tags
            and np.array_equal(loaded.embeddings, db.embeddings)
            and np.array_equal(loaded.chunks, db.chunks))
        if loaded is not None and not round_trip:
            out.fail("RFDB round trip changed the database")

        if train_s:
            out.metrics["train_retrieval_steps_per_s"] = PROBE_STEPS / statistics.median(train_s)
        if write_s:
            out.metrics["ingest_chunks_per_s"] = WRITE_BATCH / statistics.median(write_s)
        if read_s:
            out.metrics["retrieve_window_p50_s"] = quantile(read_s, 0.5)
            out.metrics["retrieve_window_p90_s"] = quantile(read_s, 0.9)
            # a request here is one window read or one write: the scene
            # latency is that of every request, and the throughput is windows
            # read per second of request time
            requests = read_s + write_s
            out.metrics["serve_scene_p50_s"] = quantile(requests, 0.5)
            out.metrics["serve_scene_p90_s"] = quantile(requests, 0.9)
            out.metrics["serve_windows_per_s"] = len(read_s) / sum(requests)
        out.extra = {"train_retrieval_run_steps_per_s": RETRIEVAL_ITERS / train_run[0],
                     "build_chunks_per_s": built_entries / build_run[0]}
        out.checks = {"knn_matches_bruteforce": mismatched == 0,
                      "extend_keeps_ids": not any("write" in f for f in out.failures),
                      "rfdb_round_trip": round_trip}
        out.manifest = {
            "retrieval_iters": RETRIEVAL_ITERS, "db_scenes": sz.db_scenes,
            "db_rotations": DB_ROTATIONS, "query_scenes": sz.query_scenes,
            "query_rotations": sz.query_rotations, "write_scenes": sz.write_scenes,
            "write_rotations": WRITE_ROTATIONS, "setups": len(out.setup_s),
            "probes": len(train_s), "probe_steps": PROBE_STEPS,
            "reads": len(read_s), "writes": len(write_s), "write_batch": WRITE_BATCH,
            "knn_checked_reads": checked,
            "db_entries_built": built_entries, "db_distinct_share_built": built_distinct,
            "db_entries": len(db), "db_distinct_share": _distinct_share(db),
            "db_bytes_per_entry": db_file.stat().st_size / len(db) if round_trip else 0.0,
            "percentile_samples": {"retrieve_window": len(read_s),
                                   "serve_scene": len(read_s) + len(write_s)},
            "served_tdf_sha256": tdf_hash.hexdigest(),
        }
        return out

    @staticmethod
    def _persist(db_file: Path, db: RDB.ChunkDatabase) -> RDB.ChunkDatabase:
        RDB.save_db(db_file, db)
        return RDB.load_db(db_file)

    def _matches_oracle(self, db, encoders, window: ScalarGrid3) -> bool:
        chunks = np.stack([c.ravel() for c in RDB.unfold_values(window.values, self.in_layout)])
        return all(RDB.knn(db, e, K) == RDB.knn_bruteforce(db, e, K)
                   for e in encoders.encode_inputs(chunks))


WORKLOADS = {"sr_pipeline": (SrPipeline, SrSizes), "retrieval_scale": (RetrievalScale, RsSizes)}

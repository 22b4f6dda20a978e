"""Acceptance criteria, one test per criterion, with a printed verdict line.

Criteria 7-10 share one pipeline battery (procedural data, retrieval
training, database, cached retrievals, four fusion trainings, evaluation,
database extension) at the mini profile. Set RETRIVOX_ACCEPT_DIR to persist
battery artifacts across runs (a cached summary is reused if present);
RETRIVOX_DESK=1 switches the battery to the desk profile.  The battery's
tests are marked `slow`.
"""

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from retrivox import embed as E
from retrivox import fusion as FU
from retrivox import geometry as G
from retrivox import metrics as M
from retrivox import pipeline as P
from retrivox import retrievaldb as RDB
from retrivox import tensor as T
from retrivox.grids import ChunkLayout, HyperParams, ScalarGrid3

from tests.test_geometry import analytic_sphere_field, oracle_point_triangle
from tests.test_tensor import op_cases

SEED = 7


def verdict(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    worst_op, worst_err = "", 0.0
    for trial in range(5):
        rng = np.random.default_rng(1000 + 17 * trial)
        for name, builder in op_cases(rng):
            fn, inputs = builder()
            err = T.gradcheck(fn, inputs, seed=trial, max_coords=24)
            if err > worst_err:
                worst_op, worst_err = name, err

    # composed contrastive loss (embedding objective)
    rng = np.random.default_rng(3)
    iou = rng.random((4, 4))

    def ntxent_fn(x_raw, y_raw):
        return E.ntxent_loss(T.l2_normalize(x_raw, axis=1), T.l2_normalize(y_raw, axis=1),
                             iou_matrix=iou, tau=0.2, a=30.0, b=-28.5)

    err = T.gradcheck(ntxent_fn, [rng.normal(size=(4, 6)), rng.normal(size=(4, 6))], seed=1)
    if err > worst_err:
        worst_op, worst_err = "ntxent", err

    # composed full refinement loss on a tiny f64 model
    cfg = FU.FusionConfig(layout=ChunkLayout(8, 4, 2), k=2, mode="attention",
                          feat_channels=6, base_channels=4, retr_base_channels=3,
                          attn_dim=4)
    model = FU.FusionModel(cfg, seed=7, dtype=np.float64)
    hp = HyperParams()
    data_rng = np.random.default_rng(8)
    inputs = data_rng.random((1, 8, 8, 8))
    gts = data_rng.random((1, 8, 8, 8))
    approx = data_rng.random((1, 2, 8, 8, 8))

    def loss_value():
        pred, _, aux = model.refine_batch(inputs, approx)
        loss, _ = FU.refinement_loss(model, pred, gts, aux, hp,
                                     np.random.default_rng(99), n_attn_patches=8)
        return loss

    loss = loss_value()
    T.backward(loss)
    grads = {n: p.grad.copy() for n, p in model.store.params.items()}
    model.store.zero_grad()
    h = 1e-5
    coord_rng = np.random.default_rng(11)
    for name, p in model.store.params.items():
        flat = p.data.reshape(-1)
        for c in coord_rng.choice(flat.size, size=min(2, flat.size), replace=False):
            orig = flat[c]
            flat[c] = orig + h
            with T.no_grad():
                fp = loss_value().item()
            flat[c] = orig - h
            with T.no_grad():
                fm = loss_value().item()
            flat[c] = orig
            numeric = (fp - fm) / (2 * h)
            err = abs(grads[name].reshape(-1)[c] - numeric) / max(1.0, abs(numeric))
            if err > worst_err:
                worst_op, worst_err = f"refinement_loss/{name}", err

    elapsed = time.time() - t0
    verdict(1, worst_err < 1e-4 and elapsed < 300,
            f"worst rel err {worst_err:.2e} ({worst_op}), {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# criterion 2: k-NN exactness
# ---------------------------------------------------------------------------

def test_criterion_2_knn_exactness():
    rng = np.random.default_rng(21)
    dim, n = 64, 10_000
    emb = rng.normal(size=(n, dim)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    emb[2000:2500] = emb[:500]          # deliberate exact duplicates -> ties
    db = RDB.ChunkDatabase(chunk_dim=2, embed_dim=dim)
    db.add_entries(np.zeros((n, 8), dtype=np.float32), emb, ["e"] * n)
    db.build_index()
    mismatches = 0
    for q in range(1000):
        if q % 2 == 0:
            query = emb[rng.integers(0, n)]  # stored vector: guaranteed ties
        else:
            query = rng.normal(size=dim).astype(np.float32)
        if RDB.knn(db, query, 8) != RDB.knn_bruteforce(db, query, 8):
            mismatches += 1
    verdict(2, mismatches == 0, f"0 mismatches required, got {mismatches} on 1000 queries")


# ---------------------------------------------------------------------------
# criterion 3: attention invariants
# ---------------------------------------------------------------------------

def test_criterion_3_attention_invariants():
    rng = np.random.default_rng(33)
    n_cfg, k, f = 10_000, 4, 6
    ok, detail = True, []
    max_sum_err = max_shift_err = max_perm_err = 0.0
    beta_ok = mono_ok = True
    for _ in range(n_cfg):
        s = rng.normal(size=k)
        w = FU.attention_weights(s, 10.0)
        max_sum_err = max(max_sum_err, abs(w.sum() - 1.0))
        max_shift_err = max(max_shift_err,
                            np.abs(FU.attention_weights(s + rng.normal(), 10.0) - w).max())
        beta = 1.0 / (1.0 + math.exp(-(rng.normal() * s.max() + rng.normal())))
        beta_ok &= 0.0 < beta < 1.0
        p_in = rng.normal(size=f)
        p_retr = rng.normal(size=(k, f))
        out = FU.blend(p_in, p_retr, s, 10.0, 1.0, 0.0)
        perm = rng.permutation(k)
        out_p = FU.blend(p_in, p_retr[perm], s[perm], 10.0, 1.0, 0.0)
        max_perm_err = max(max_perm_err, np.abs(out - out_p).max())
        prev = 0.0
        for c_sharp in (1.0, 10.0, 100.0):
            mx = FU.attention_weights(s, c_sharp).max()
            mono_ok &= mx >= prev - 1e-12
            prev = mx
    ok = (max_sum_err <= 1e-6 and beta_ok and max_shift_err <= 1e-7
          and max_perm_err <= 1e-6 and mono_ok)
    verdict(3, ok, f"sum err {max_sum_err:.1e}<=1e-6, shift err {max_shift_err:.1e}<=1e-7, "
                   f"perm err {max_perm_err:.1e}<=1e-6, beta in (0,1): {beta_ok}, "
                   f"max-weight monotone in C: {mono_ok} over 10^4 configs")


def test_criterion_3_model_trace_matches_reference_forms():
    """The model's attention in float64 against the reference forms above,
    patch by patch: scores from the h_in / h_retr projections, weights from
    the sharpened softmax of those scores, beta = sigmoid(c * max + d)."""
    cfg = FU.FusionConfig(layout=ChunkLayout(8, 4, 2), k=3, feat_channels=6, base_channels=4,
                          retr_base_channels=3, attn_dim=4, C_sharpness=10.0)
    model = FU.FusionModel(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(34)
    approx = rng.random((2, cfg.k, 8, 8, 8))
    with T.no_grad():
        _, trace, aux = model.refine_batch(rng.random((2, 8, 8, 8)), approx)
        x_p = aux["x_patches"]
        p_count, f = x_p.shape
        r_p = model.cells_to_patches(model.retrieval_cells(approx)).data
        r_p = r_p.reshape(cfg.k, p_count, f).transpose(1, 0, 2).reshape(-1, f)
        h_in = model.h_in(x_p).data
        h_retr = model.h_retr(T.Tensor(r_p)).data.reshape(p_count, cfg.k, cfg.attn_dim)
    c, d = float(model.blend_c.data[0]), float(model.blend_d.data[0])
    score_err = weight_err = beta_err = 0.0
    for p in range(p_count):
        s = trace.scores[p]
        score_err = max(score_err, np.abs(s - FU.attention_scores(h_in[p], h_retr[p])).max())
        weight_err = max(weight_err, np.abs(trace.weights[p]
                                            - FU.attention_weights(s, cfg.C_sharpness)).max())
        beta_err = max(beta_err, abs(trace.beta[p] - 1.0 / (1.0 + math.exp(-(c * s.max() + d)))))
    ok = max(score_err, weight_err, beta_err) <= 1e-12
    verdict(3, ok, f"model trace over {p_count} patches: score err {score_err:.1e}, "
                   f"weight err {weight_err:.1e}, beta err {beta_err:.1e} <= 1e-12")


# ---------------------------------------------------------------------------
# criterion 4: temperature bound
# ---------------------------------------------------------------------------

def test_criterion_4_temperature_bound():
    rng = np.random.default_rng(44)
    n = 10_000
    a_occ = rng.random((n, 64)) < rng.random((n, 1))
    b_occ = rng.random((n, 64)) < rng.random((n, 1))
    inter = (a_occ & b_occ).sum(axis=1)
    union = (a_occ | b_occ).sum(axis=1)
    iou = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    ok = True
    for tau in (0.05, 0.2, 0.9):
        tp = E.temperature_from_iou(tau, iou, a=30.0, b=-28.5)
        ok &= bool(np.all(tp > tau) and np.all(tp < 1.0))
        order = np.argsort(iou, kind="stable")
        ok &= bool(np.all(np.diff(tp[order]) >= -1e-15))
    verdict(4, ok, "tau < tau' < 1 and tau' monotone in chunk IoU for "
                   "tau in {0.05, 0.2, 0.9} over 10^4 chunk pairs")


# ---------------------------------------------------------------------------
# criterion 5: geometry fixtures
# ---------------------------------------------------------------------------

def test_criterion_5_geometry_fixtures():
    n, center, r = 28, np.array([14.3, 13.8, 14.1]), 10.0
    field = analytic_sphere_field(n, center, r)
    mesh = G.marching_cubes_field(field, 0.0, 1.0, (0, 0, 0))
    area_err = abs(mesh.area - 4 * np.pi * r ** 2) / (4 * np.pi * r ** 2)
    euler = G.euler_characteristic(mesh)
    vol = G.voxelize_mesh(mesh, (n, n, n), 1.0, (0, 0, 0)).values.sum()
    vol_err = abs(vol - 4 / 3 * np.pi * r ** 3) / (4 / 3 * np.pi * r ** 3)

    rng = np.random.default_rng(5)
    tri = rng.uniform(2, 10, size=(3, 3))
    tmesh = G.TriMesh(tri, [[0, 1, 2]])
    tdf = G.mesh_to_tdf(tmesh, (12, 12, 12), 1.0, (0, 0, 0), trunc=3.0)
    worst = 0.0
    for _ in range(50):
        v = rng.integers(0, 12, size=3)
        d = oracle_point_triangle((v + 0.5).astype(float), tri[0], tri[1], tri[2])
        worst = max(worst, abs(tdf.values[v[0], v[1], v[2]] - min(d, 3.0) / 3.0))
    ok = area_err < 0.05 and euler == 2 and vol_err < 0.03 and worst < 1e-6
    verdict(5, ok, f"sphere area err {area_err:.3f}<0.05, euler {euler}==2, "
                   f"volume err {vol_err:.3f}<0.03, tdf-vs-oracle {worst:.2e}<1e-6")


# ---------------------------------------------------------------------------
# criterion 6: metric fixtures
# ---------------------------------------------------------------------------

def test_criterion_6_metric_fixtures():
    samples = 20_000
    sphere = G.uv_sphere_mesh((0.5, 0.5, 0.5), 0.4, n_theta=16, n_phi=22)
    bounds = (np.zeros(3), np.ones(3))
    cd_same, _, _ = M.chamfer_l1(sphere, sphere, samples, seed=1)
    nc_same = M.normal_consistency(sphere, sphere, samples, seed=1)
    f1_same, _, _ = M.f_score(sphere, sphere, 0.01, samples, seed=1)
    iou_same = M.volumetric_iou(sphere, sphere, 0.02, bounds)

    a = G.square_mesh((0, 0, 0), (1, 0, 0), (0, 1, 0))
    b = G.square_mesh((0, 0, 0.1), (1, 0, 0), (0, 1, 0))
    cd_off, _, _ = M.chamfer_l1(a, b, samples, seed=2)

    box = G.box_mesh((0, 0, 0), (1, 1, 1))
    blob = G.uv_sphere_mesh((0.4, 0.5, 0.5), 0.7, n_theta=10, n_phi=14)
    sym = (M.chamfer_l1(box, blob, samples, 3)[0] == M.chamfer_l1(blob, box, samples, 3)[0]
           and M.normal_consistency(box, blob, samples, 3) == M.normal_consistency(blob, box, samples, 3)
           and M.f_score(box, blob, 0.05, samples, 3)[0] == M.f_score(blob, box, 0.05, samples, 3)[0]
           and M.volumetric_iou(box, blob, 0.05, bounds) == M.volumetric_iou(blob, box, 0.05, bounds))

    ok = (iou_same == 1.0 and cd_same < 1e-6 and f1_same == 1.0 and nc_same >= 0.999
          and abs(cd_off - 0.1) < 1e-3 and sym)
    verdict(6, ok, f"identical: IoU {iou_same}, CD {cd_same:.1e}, F1 {f1_same}, "
                   f"NC {nc_same:.4f}; plane offset CD {cd_off:.4f}=0.1+-1e-3; "
                   f"swap symmetry exact: {sym}")


# ---------------------------------------------------------------------------
# pipeline battery for criteria 7-10
# ---------------------------------------------------------------------------

def battery_config(out_dir: str) -> P.ExperimentConfig:
    if os.environ.get("RETRIVOX_DESK"):
        return P.desk_config(task="surface_reconstruction", out_dir=out_dir,
                             n_holdout_test=6, n_extension=20,
                             holdout_category="sphere", seed=SEED)
    return P.mini_config(task="surface_reconstruction", out_dir=out_dir,
                         n_train=48, n_test=10, n_holdout_test=6, n_extension=10,
                         holdout_category="sphere", refine_iters=500, seed=SEED)


def run_battery(cfg: P.ExperimentConfig) -> dict:
    t0 = time.time()
    out = {}
    P.run_stage(cfg, "gen_data")
    P.run_stage(cfg, "train_retrieval")
    P.run_stage(cfg, "build_db")

    scenes = P.load_scenes(cfg, "train")
    enc = P._load_encoders(cfg)
    db = P._load_db(cfg, "base")
    xs, ys = P._training_pairs(cfg, scenes)
    ex = enc.encode_inputs(xs)
    hits = 0
    for i in range(len(ex)):
        got = RDB.knn(db, ex[i], 4)
        tgt = ys[i].reshape(-1)
        if any(np.array_equal(db.chunks[db.row_of_id(ident)], tgt) for ident, _ in got):
            hits += 1
    out["recall4"] = hits / len(ex)

    c = cfg.layout.chunk_dim
    n_side = cfg.layout.n
    s = cfg.layout.scene_dim
    rng = np.random.default_rng(0)
    r1, rnd = [], []
    for rec in P.load_scenes(cfg, "test"):
        approxs = RDB.assemble_approximations(db, enc, P.input_grid(rec, cfg),
                                              cfg.layout, 1)
        r1.append(M.occupancy_iou(approxs[0].scene.values, rec.gt.values))
        rows = rng.integers(0, len(db), size=cfg.layout.chunks_per_window)
        rv = np.stack([db.chunks[r].reshape(c, c, c) for r in rows])
        rscene = rv.reshape(n_side, n_side, n_side, c, c, c) \
            .transpose(0, 3, 1, 4, 2, 5).reshape(s, s, s)
        rnd.append(M.occupancy_iou(rscene, rec.gt.values))
    out["rank1_iou"] = float(np.mean(r1))
    out["random_iou"] = float(np.mean(rnd))

    P.run_stage(cfg, "cache_retrievals")
    for mode, k in (("attention", 4), ("naive", 4), ("no_retrieval", 4), ("attention", 1)):
        P.run_stage(cfg, "train_refine", mode=mode, k=k)
        P.run_stage(cfg, "reconstruct", mode=mode, k=k)
        out[f"iou_{mode}_k{k}"] = P.run_stage(cfg, "evaluate", mode=mode, k=k)["iou"]

    hold = dataclasses.replace(cfg, eval_split="holdout")
    P.run_stage(hold, "reconstruct", mode="attention", k=4)
    out["holdout_before"] = P.run_stage(hold, "evaluate", mode="attention", k=4)["iou"]
    P.run_stage(cfg, "extend_db")
    ext = dataclasses.replace(cfg, eval_split="holdout", db_variant="extended")
    P.run_stage(ext, "reconstruct", mode="attention", k=4)
    out["holdout_after"] = P.run_stage(ext, "evaluate", mode="attention", k=4)["iou"]
    out["wall_seconds"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def battery(tmp_path_factory):
    persist = os.environ.get("RETRIVOX_ACCEPT_DIR")
    root = Path(persist) if persist else tmp_path_factory.mktemp("acceptance")
    summary_path = root / "acceptance_summary.json"
    if persist and summary_path.exists():
        return json.loads(summary_path.read_text())
    cfg = battery_config(str(root / "run"))
    out = run_battery(cfg)
    root.mkdir(parents=True, exist_ok=True)
    summary_path.write_text(json.dumps(out, indent=2, sort_keys=True))
    return out


@pytest.mark.slow
def test_criterion_7_retrieval_quality(battery):
    gap = battery["rank1_iou"] - battery["random_iou"]
    ok = battery["recall4"] >= 0.9 and gap >= 0.15
    verdict(7, ok, f"self-retrieval recall@4 {battery['recall4']:.4f}>=0.9; "
                   f"rank-1 vs random assembly IoU gap {gap:.3f}>=0.15")


@pytest.mark.slow
def test_criterion_8_ablation_direction(battery):
    att, naive = battery["iou_attention_k4"], battery["iou_naive_k4"]
    unet = battery["iou_no_retrieval_k4"]
    hours = battery["wall_seconds"] / 3600
    ok = att >= unet + 0.01 and att >= naive and hours <= 4.0
    verdict(8, ok, f"attention IoU {att:.4f} >= no_retrieval {unet:.4f}+0.01 "
                   f"and >= naive {naive:.4f}; pipeline {hours:.2f}h <= 4h")


@pytest.mark.slow
def test_criterion_9_k_sweep_direction(battery):
    k4, k1 = battery["iou_attention_k4"], battery["iou_attention_k1"]
    verdict(9, k4 >= k1, f"test IoU at k=4 {k4:.4f} >= k=1 {k1:.4f}")


@pytest.mark.slow
def test_criterion_10_database_extension(battery):
    before, after = battery["holdout_before"], battery["holdout_after"]
    verdict(10, after >= before,
            f"held-out IoU {before:.4f} -> {after:.4f} after extension "
            f"(delta {after - before:+.4f}, non-decrease required)")


# ---------------------------------------------------------------------------
# criterion 11: stage determinism
# ---------------------------------------------------------------------------

def _stage_artifacts(cfg: P.ExperimentConfig, stage: str) -> dict[str, bytes]:
    p = cfg.paths()
    globs = {
        "gen_data": [p.data.rglob("*")],
        "train_retrieval": [p.encoders.parent.rglob("*")],
        "build_db": [p.db_file("base").parent.glob("chunks.rfdb")],
        "cache_retrievals": [p.cache.rglob("*")],
        "train_refine": [(p.root / "models").rglob("*")],
        "reconstruct": [(p.root / "recon").rglob("*")],
        "evaluate": [(p.root / "reports").rglob("*")],
        "extend_db": [p.db_file("extended").parent.glob("chunks_extended.rfdb")],
    }[stage]
    out = {}
    for g in globs:
        for f in g:
            if f.is_file():
                out[str(f)] = f.read_bytes()
    return out


def test_criterion_11_stage_determinism(tmp_path):
    cfg = P.mini_config(task="surface_reconstruction", out_dir=str(tmp_path / "det"),
                        n_train=5, n_test=2, n_holdout_test=0, n_extension=2,
                        holdout_category="sphere", retrieval_iters=25,
                        refine_iters=6, seed=SEED)
    stages = ("gen_data", "train_retrieval", "build_db", "cache_retrievals",
              "train_refine", "reconstruct", "evaluate", "extend_db")
    unstable = []
    for stage in stages:
        P.run_stage(cfg, stage)
        first = _stage_artifacts(cfg, stage)
        P.run_stage(cfg, stage)
        if _stage_artifacts(cfg, stage) != first:
            unstable.append(stage)
    verdict(11, not unstable,
            "every stage re-run byte-identical" if not unstable
            else f"non-deterministic stages: {unstable}")

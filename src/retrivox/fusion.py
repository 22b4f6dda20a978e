"""Refinement stage: feature extraction over the input and the retrieved
approximations, patch-based attention blending, decoding to a TDF window,
the three-term training loss, and sliding-window scene reconstruction.

Feature geometry: a window of side S with patch side p yields a cell grid of
side M = S/p, one feature vector per patch.  The input trunk is a small
encoder-decoder with a skip connection; each retrieved window is processed
chunk-by-chunk by a lighter extractor, and the per-chunk cells are folded
back into a full cell grid aligned with the input's.  Every cut and join
(scene <-> windows, window <-> chunks, chunk <-> patches) goes through
grids.to_blocks / grids.from_blocks.

Retrieved chunks repeat heavily (every window draws its k candidates from the
same database), so the chunk batch of all k ranks of a batch is reduced to
its distinct payloads, f_retr runs once per distinct chunk, and the features
are gathered back to every slot.  A sample's convolution features do not
depend on its batch, so this changes no forward value; under grad the
gradients of duplicates are summed before the weight update.

Serving: reconstruct_scene stacks every window of a scene, retrieves for all
their chunk slots with one encoder pass and one k-NN search, and refines all
windows in one no-grad forward pass.

Modes: "attention" blends input and retrieval patches through scored softmax
selection and a learned input/retrieval tradeoff; "naive" concatenates
features and mixes them with a linear layer; "no_retrieval" decodes the
input features alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import retrievaldb as RDB
from . import tensor as T
from .embed import ntxent_loss
from .geometry import TriMesh, marching_cubes
from .grids import (OCCUPANCY_TDF_THRESHOLD, ChunkLayout, HyperParams,
                    ScalarGrid3, from_blocks, to_blocks, upsample, windows)
from .metrics import pairwise_occupancy_iou
from .nn import Conv3, Dense, TConv3

MODES = ("attention", "naive", "no_retrieval")

# learnable blend gate init (c, d): d > 0 starts the gate retrieval-leaning,
# which converges much faster when retrievals are strong
BLEND_INIT = (1.0, 1.5)


# ---------------------------------------------------------------------------
# the attention primitives (reference numpy forms)
# ---------------------------------------------------------------------------

def attention_scores(h_in_vec: np.ndarray, h_retr_vecs: np.ndarray) -> np.ndarray:
    """Cosine scores of one projected input patch against k projected
    retrieval patches; all vectors unit-norm, so scores lie in [-1, 1]."""
    h_retr_vecs = np.atleast_2d(h_retr_vecs)
    if h_retr_vecs.shape[0] == 0:
        raise ValueError("need at least one retrieval")
    return h_retr_vecs @ np.asarray(h_in_vec)


def attention_weights(scores: np.ndarray, sharpness: float) -> np.ndarray:
    """Sharpened softmax over the k retrieval scores."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    z = sharpness * np.asarray(scores, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def blend(p_in: np.ndarray, p_retr: np.ndarray, scores: np.ndarray,
          sharpness: float, c: float, d: float) -> np.ndarray:
    """(1 - beta) * p_in + beta * sum_i w_i p_retr_i, beta from the max score."""
    p_in = np.asarray(p_in, dtype=np.float64)
    p_retr = np.atleast_2d(np.asarray(p_retr, dtype=np.float64))
    if p_retr.shape[1:] != p_in.shape:
        raise ValueError(f"patch shapes differ: {p_retr.shape[1:]} vs {p_in.shape}")
    w = attention_weights(scores, sharpness)
    beta = 1.0 / (1.0 + np.exp(-(c * np.max(scores) + d)))
    return (1.0 - beta) * p_in + beta * (w[:, None] * p_retr).sum(axis=0)


@dataclass
class PatchAttentionTrace:
    """Per-patch attention diagnostics from one refine pass."""

    scores: np.ndarray   # (P, k)
    weights: np.ndarray  # (P, k)
    beta: np.ndarray     # (P,)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class FusionConfig:
    layout: ChunkLayout
    k: int = 4
    mode: str = "attention"
    feat_channels: int = 64
    base_channels: int = 16
    retr_base_channels: int = 8
    attn_dim: int = 32
    C_sharpness: float = 10.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        p = self.layout.patch_dim
        if p < 2 or p & (p - 1):
            raise ValueError("patch_dim must be a power of two >= 2")


class FusionModel:
    """Trainable refinement network; parameters live in one ParamStore."""

    def __init__(self, config: FusionConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.store = T.ParamStore()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF51]))
        c = config
        levels = int(np.log2(c.layout.patch_dim))
        f = c.feat_channels

        # input trunk: stride-2 downs to cell resolution, bottleneck, up + skip
        self.downs = []
        ch_in, ch_out = 1, c.base_channels
        for i in range(levels):
            self.downs.append(Conv3(self.store, f"f_in.down{i}", ch_in, ch_out,
                                    k=3, stride=2, pad=1, rng=rng, dtype=dtype))
            ch_in, ch_out = ch_out, min(ch_out * 2, f)
        self.bott = Conv3(self.store, "f_in.bott", ch_in, ch_out,
                          k=3, stride=2, pad=1, rng=rng, dtype=dtype)
        self.up = TConv3(self.store, "f_in.up", ch_out, ch_in,
                         k=2, stride=2, pad=0, rng=rng, dtype=dtype)
        self.fuse = Conv3(self.store, "f_in.fuse", 2 * ch_in, f,
                          k=3, stride=1, pad=1, rng=rng, dtype=dtype)

        if c.mode != "no_retrieval":
            self.retr_convs = []
            r_in, r_out = 1, c.retr_base_channels
            for i in range(levels):
                self.retr_convs.append(Conv3(self.store, f"f_retr.down{i}", r_in, r_out,
                                             k=3, stride=2, pad=1, rng=rng, dtype=dtype))
                r_in, r_out = r_out, min(r_out * 3, f)
            self.retr_proj = Conv3(self.store, "f_retr.proj", r_in, f,
                                   k=3, stride=1, pad=1, rng=rng, dtype=dtype)

        if c.mode == "attention":
            self.h_in1 = Dense(self.store, "h_in.l1", f, f, rng=rng, dtype=dtype)
            self.h_in2 = Dense(self.store, "h_in.l2", f, c.attn_dim, rng=rng, dtype=dtype)
            self.h_retr1 = Dense(self.store, "h_retr.l1", f, f, rng=rng, dtype=dtype)
            self.h_retr2 = Dense(self.store, "h_retr.l2", f, c.attn_dim, rng=rng, dtype=dtype)
            self.blend_c = self.store.create("blend.c", np.array([BLEND_INIT[0]], dtype=dtype))
            self.blend_d = self.store.create("blend.d", np.array([BLEND_INIT[1]], dtype=dtype))
        elif c.mode == "naive":
            self.naive_mix = Dense(self.store, "naive.mix", (c.k + 1) * f, f,
                                   rng=rng, dtype=dtype)

        # decoder: patch_dim x upsampling back to the window, final sigmoid
        self.dec = []
        d_in = f
        for i in range(levels):
            d_out = max(d_in // 2, 8)
            self.dec.append(TConv3(self.store, f"f_dec.up{i}", d_in, d_out,
                                   k=2, stride=2, pad=0, rng=rng, dtype=dtype))
            d_in = d_out
        self.dec_out = Conv3(self.store, "f_dec.out", d_in, 1,
                             k=3, stride=1, pad=1, rng=rng, dtype=dtype)

    # -- submodule forwards ------------------------------------------------

    def f_in(self, x: T.Tensor) -> T.Tensor:
        """Input grid (N, 1, S, S, S) -> cell features (N, F, M, M, M)."""
        h = x
        for conv in self.downs:
            h = T.leaky_relu(conv(h))
        skip = h
        h = T.leaky_relu(self.bott(h))
        h = T.leaky_relu(self.up(h))
        h = T.concat([h, skip], axis=1)
        return T.leaky_relu(self.fuse(h))

    def f_retr(self, chunks: T.Tensor) -> T.Tensor:
        """Chunk batch (B, 1, C, C, C) -> cell features (B, F, m, m, m)."""
        h = chunks
        for conv in self.retr_convs:
            h = T.leaky_relu(conv(h))
        return T.leaky_relu(self.retr_proj(h))

    def f_dec(self, cells: T.Tensor) -> T.Tensor:
        """Cell features (N, F, M, M, M) -> TDF (N, 1, S, S, S) in (0, 1)."""
        h = cells
        for up in self.dec:
            h = T.leaky_relu(up(h))
        return T.sigmoid(self.dec_out(h))

    def h_in(self, p: T.Tensor) -> T.Tensor:
        return T.l2_normalize(self.h_in2(T.leaky_relu(self.h_in1(p))), axis=1)

    def h_retr(self, p: T.Tensor) -> T.Tensor:
        return T.l2_normalize(self.h_retr2(T.leaky_relu(self.h_retr1(p))), axis=1)

    # -- shape plumbing ------------------------------------------------------

    def window_chunks(self, scenes: np.ndarray) -> np.ndarray:
        """(..., S, S, S) windows -> (B, 1, C, C, C) chunk batch, B the product
        of the leading axes times n^3, chunks in grids.to_blocks order."""
        c = self.config.layout.chunk_dim
        return to_blocks(scenes, c).reshape(-1, 1, c, c, c)

    def fold_chunk_cells(self, cells: T.Tensor, n_windows: int) -> T.Tensor:
        """(N * n^3, F, m, m, m) per-chunk cells -> (N, F, M, M, M)."""
        f, m, n = cells.shape[1], cells.shape[2], self.config.layout.n
        h = T.reshape(cells, (n_windows, n, n, n, f, m, m, m))
        h = T.transpose(h, (0, 4, 1, 2, 3, 5, 6, 7))
        return T.rearrange(h, from_blocks, lambda g: to_blocks(g, m))

    def cells_to_patches(self, cells: T.Tensor) -> T.Tensor:
        """(N, F, M, M, M) -> (N * M^3, F) patch-major feature rows."""
        nb, f, m = cells.shape[0], cells.shape[1], cells.shape[2]
        h = T.transpose(cells, (0, 2, 3, 4, 1))
        return T.reshape(h, (nb * m ** 3, f))

    def patches_to_cells(self, patches: T.Tensor, n_windows: int) -> T.Tensor:
        f = patches.shape[1]
        m = self.config.layout.cells_per_side
        h = T.reshape(patches, (n_windows, m, m, m, f))
        return T.transpose(h, (0, 4, 1, 2, 3))

    def gt_patches(self, scenes: np.ndarray) -> np.ndarray:
        """Raw patch payloads (N * M^3, p^3) in the same order as
        cells_to_patches, for patch-level IoU."""
        p = self.config.layout.patch_dim
        return to_blocks(scenes, p).reshape(-1, p ** 3)

    # -- refine --------------------------------------------------------------

    def chunk_features(self, chunks: np.ndarray) -> T.Tensor:
        """f_retr over a (B, 1, C, C, C) chunk batch, run once per distinct
        chunk payload and gathered back to all B rows.  Features of a chunk
        do not depend on its batch, so the values equal f_retr(chunks) exactly."""
        flat = np.ascontiguousarray(chunks).reshape(len(chunks), -1)
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        cells = self.f_retr(T.Tensor(chunks[first].astype(self.dtype)))
        return T.gather_rows(cells, inverse)

    def retrieval_cells(self, approx: np.ndarray) -> T.Tensor:
        """Cell grids (k * N, F, M, M, M), rank-major, of approximation
        windows (N, k, S, S, S)."""
        nb, k = approx.shape[0], approx.shape[1]
        cells = self.chunk_features(self.window_chunks(approx.swapaxes(0, 1)))
        return self.fold_chunk_cells(cells, k * nb)

    def refine_batch(self, inputs: np.ndarray, approx: np.ndarray | None
                     ) -> tuple[T.Tensor, PatchAttentionTrace | None, dict]:
        """Forward pass over (N, S, S, S) inputs and (N, k, S, S, S)
        approximations; returns the decoded windows, the attention trace, and
        intermediate tensors reused by the training loss."""
        cfg = self.config
        nb = inputs.shape[0]
        s = cfg.layout.scene_dim
        if inputs.shape[1:] != (s, s, s):
            raise ValueError(f"input windows must be (N, {s}, {s}, {s})")
        if cfg.mode != "no_retrieval":
            if approx is None:
                raise ValueError(f"mode {cfg.mode!r} needs retrieval approximations")
            if approx.shape != (nb, cfg.k, s, s, s):
                raise ValueError(f"approximations of shape {approx.shape} are not "
                                 f"(N, k, S, S, S) = {(nb, cfg.k, s, s, s)}")
        x = T.Tensor(inputs.reshape(nb, 1, s, s, s).astype(self.dtype))
        x_cells = self.f_in(x)
        x_p = self.cells_to_patches(x_cells)
        aux = {"x_patches": x_p}
        trace = None

        if cfg.mode == "no_retrieval":
            blended = x_p
        else:
            p_count, f = x_p.shape
            r_p = self.cells_to_patches(self.retrieval_cells(approx))
            # (P, k, F): the k retrieval features of every patch
            stack = T.transpose(T.reshape(r_p, (cfg.k, p_count, f)), (1, 0, 2))
            if cfg.mode == "attention":
                hi = self.h_in(x_p)
                hr = self.h_retr(T.reshape(stack, (p_count * cfg.k, f)))
                hr = T.reshape(hr, (p_count, cfg.k, cfg.attn_dim))
                hi_b = T.broadcast_to(T.reshape(hi, (p_count, 1, cfg.attn_dim)),
                                      (p_count, cfg.k, cfg.attn_dim))
                scores = T.tsum(T.mul(hi_b, hr), axis=2)
                weights = T.softmax(scores, axis=1, scale=cfg.C_sharpness)
                smax = T.tmax(scores, axis=1)
                beta = T.sigmoid(T.add(T.mul(T.broadcast_to(self.blend_c, (p_count,)), smax),
                                       T.broadcast_to(self.blend_d, (p_count,))))
                w_b = T.broadcast_to(T.reshape(weights, (p_count, cfg.k, 1)),
                                     (p_count, cfg.k, f))
                retr_sum = T.tsum(T.mul(w_b, stack), axis=1)
                beta_col = T.reshape(beta, (p_count, 1))
                one_minus = T.add(T.mul(beta_col, -1.0), 1.0)
                blended = T.add(T.mul(x_p, T.broadcast_to(one_minus, (p_count, f))),
                                T.mul(retr_sum, T.broadcast_to(beta_col, (p_count, f))))
                trace = PatchAttentionTrace(scores=scores.data.copy(),
                                            weights=weights.data.copy(),
                                            beta=beta.data.copy())
            else:  # naive
                blended = self.naive_mix(
                    T.concat([x_p, T.reshape(stack, (p_count, cfg.k * f))], axis=1))
        out = self.f_dec(self.patches_to_cells(blended, nb))
        return out, trace, aux

    def refine(self, input_window: ScalarGrid3,
               approx: list[RDB.ApproxReconstruction] | None
               ) -> tuple[ScalarGrid3, PatchAttentionTrace | None]:
        """Single-window inference; the input grid must already be at the
        target resolution (upsample a coarse input before calling)."""
        arr = input_window.values[None].astype(np.float32)
        ap = None
        if self.config.mode != "no_retrieval":
            if approx is None:
                raise ValueError("refine needs approximations in this mode")
            ap = np.stack([a.scene.values for a in approx])[None]
        with T.no_grad():
            out, trace, _ = self.refine_batch(arr, ap)
        vals = out.data[0, 0].astype(np.float32)
        return ScalarGrid3(vals, input_window.voxel_size, input_window.origin), trace

    def save(self, path):
        T.save_checkpoint(self.store, path)

    @classmethod
    def load(cls, path, config: FusionConfig) -> "FusionModel":
        model = cls(config, seed=0)
        T.load_checkpoint(model.store, path)
        return model


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def _mean_l1(a: T.Tensor, b_const: np.ndarray) -> T.Tensor:
    diff = T.sub(a, T.constant(b_const.astype(a.data.dtype)))
    return T.mul(T.abs_sum(diff), 1.0 / diff.size)


def refinement_loss(model: FusionModel, pred: T.Tensor, gt: np.ndarray,
                    aux: dict, hp: HyperParams, rng: np.random.Generator,
                    n_attn_patches: int = 48) -> tuple[T.Tensor, dict]:
    """L_recon + lambda_retr * L_retr + lambda_attn * L_attn.

    L_recon: mean l1 between the decoded windows and the targets.
    L_retr: the decoder reproduces one random target chunk from its own
    retrieval features.  L_attn: contrastive alignment of projected input
    patch features with the matching target patch features, IoU-softened at
    the patch level (attention mode only).
    """
    cfg = model.config
    nb = gt.shape[0]
    s = cfg.layout.scene_dim
    comps = {}
    loss = _mean_l1(pred, gt.reshape(pred.shape))
    comps["recon"] = loss.item()

    if cfg.mode != "no_retrieval":
        gt_chunks = model.window_chunks(gt.reshape(nb, s, s, s))
    if cfg.mode != "no_retrieval" and hp.lambda_retr > 0:
        j = int(rng.integers(0, len(gt_chunks)))
        chunk = gt_chunks[j:j + 1]
        dec = model.f_dec(model.f_retr(T.Tensor(chunk.astype(model.dtype))))
        l_retr = _mean_l1(dec, chunk)
        comps["retr"] = l_retr.item()
        loss = T.add(loss, T.mul(l_retr, hp.lambda_retr))

    if cfg.mode == "attention" and hp.lambda_attn > 0:
        gt_cells = model.fold_chunk_cells(model.chunk_features(gt_chunks), nb)
        gt_p = model.cells_to_patches(gt_cells)
        raw = model.gt_patches(gt.reshape(nb, s, s, s))
        # contrast informative patches: all-empty or all-interior patches are
        # featureless duplicates and starve the projection heads of signal
        occ = (raw < OCCUPANCY_TDF_THRESHOLD).mean(axis=1)
        pool = np.nonzero((occ > 0.0) & (occ < 1.0))[0]
        if len(pool) < 2:
            pool = np.arange(gt_p.shape[0])
        take = min(n_attn_patches, len(pool))
        idx = pool[rng.choice(len(pool), size=take, replace=False)]
        hx = model.h_in(T.gather_rows(aux["x_patches"], idx))
        hy = model.h_retr(T.gather_rows(gt_p, idx))
        iou = pairwise_occupancy_iou(raw[idx])
        l_attn = ntxent_loss(hx, hy, iou_matrix=iou, tau=hp.tau_attention,
                             a=hp.iou_a, b=hp.iou_b)
        comps["attn"] = l_attn.item()
        loss = T.add(loss, T.mul(l_attn, hp.lambda_attn))

    comps["total"] = loss.item()
    return loss, comps


# ---------------------------------------------------------------------------
# training and inference
# ---------------------------------------------------------------------------

@dataclass
class RefineRecord:
    """One training window: input at target resolution, ground truth, and the
    cached retrieval approximations (k, S, S, S)."""

    input_up: np.ndarray
    gt: np.ndarray
    approx: np.ndarray | None = None


def train_refinement(records: list[RefineRecord], config: FusionConfig,
                     hp: HyperParams, seed: int = 0, iters: int = 1000,
                     lr: float | None = None, log_every: int = 50
                     ) -> tuple[FusionModel, list[tuple[int, float]]]:
    """Train a fusion model on cached windows; deterministic for fixed seed."""
    if not records:
        raise ValueError("no refinement records")
    if config.mode != "no_retrieval":
        missing = [i for i, r in enumerate(records)
                   if r.approx is None or r.approx.shape[0] < config.k]
        if missing:
            raise ValueError(f"records {missing[:5]} lack k={config.k} cached "
                             "approximations; run the retrieval cache stage first")
    lr = hp.lr if lr is None else lr
    model = FusionModel(config, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAF5]))
    batch = min(hp.batch_refine, len(records))
    log = []
    for it in range(iters):
        idx = rng.choice(len(records), size=batch, replace=False)
        inputs = np.stack([records[i].input_up for i in idx])
        gts = np.stack([records[i].gt for i in idx])
        approx = None
        if config.mode != "no_retrieval":
            approx = np.stack([records[i].approx[:config.k] for i in idx])
        pred, _, aux = model.refine_batch(inputs, approx)
        loss, comps = refinement_loss(model, pred, gts, aux, hp, rng)
        T.backward(loss)
        T.adam_step(model.store, lr=lr)
        if it % log_every == 0 or it == iters - 1:
            log.append((it, comps["total"]))
    return model, log


def reconstruct_scene(model: FusionModel, db: RDB.ChunkDatabase | None,
                      encoders, input_scene: ScalarGrid3, layout: ChunkLayout,
                      sr_factor: int = 1) -> tuple[ScalarGrid3, TriMesh]:
    """Sliding-window reconstruction of a whole scene plus its mesh.

    The input scene is at target resolution divided by sr_factor (1 for
    occupancy input).  grids.windows cuts it into disjoint windows, so the
    join by from_blocks is exact at seams.  All windows are served as one
    batch: one retrieval over every chunk slot of the scene, then one refine
    pass.
    """
    if sr_factor < 1 or layout.chunk_dim % sr_factor:
        raise ValueError(f"sr_factor {sr_factor} does not divide chunk_dim {layout.chunk_dim}")
    if not np.isfinite(input_scene.values).all():
        raise ValueError("input scene has non-finite values")
    mode = model.config.mode
    if mode != "no_retrieval" and (db is None or encoders is None):
        raise ValueError("reconstruction in this mode needs db and encoders")
    w = layout.scene_dim
    in_win = w // sr_factor
    grid = windows(input_scene.values, in_win)
    wins = grid.reshape(-1, in_win, in_win, in_win)
    approx = None
    if mode != "no_retrieval":
        approx = RDB.retrieve_windows(db, encoders, wins, layout, model.config.k)
    with T.no_grad():
        out, _, _ = model.refine_batch(upsample(wins, sr_factor).astype(np.float32, copy=False),
                                       approx)
    full = from_blocks(out.data.reshape(*grid.shape[:3], w, w, w))
    nx, ny, nz = (d * sr_factor for d in input_scene.dims)
    scene = ScalarGrid3(full[:nx, :ny, :nz].astype(np.float32, copy=False),
                        input_scene.voxel_size / sr_factor, input_scene.origin)
    mesh = marching_cubes(scene)
    return scene, mesh

"""Retrieval-stage contrastive embedding.

Two conv encoders map input-resolution chunks and target chunks into one
unit-norm embedding space.  The contrastive objective pulls matched pairs
together against in-batch negatives, with each negative's temperature
raised toward 1 as a sigmoid function of its occupancy IoU with the
positive target chunk, softening the penalty on look-alike chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .grids import HyperParams, ScalarGrid3
from .metrics import occupancy_iou, pairwise_occupancy_iou
from .nn import Conv3, Dense


def temperature_from_iou(tau: float, iou, a: float, b: float):
    """tau' = tau + (1 - tau) * sigmoid(a * iou + b); in (tau, 1) for tau < 1."""
    iou = np.asarray(iou, dtype=np.float64)
    sig = 1.0 / (1.0 + np.exp(-(a * iou + b)))
    return tau + (1.0 - tau) * sig


def iou_temperature(tau: float, y_i: ScalarGrid3, y_k: ScalarGrid3,
                    a: float, b: float) -> float:
    """Softened temperature for one pair of target chunks."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    from .metrics import chunk_iou
    return float(temperature_from_iou(tau, chunk_iou(y_i, y_k), a, b))


def ntxent_loss(x_embeds: T.Tensor, y_embeds: T.Tensor, y_chunks: np.ndarray | None = None,
                tau: float = 0.2, a: float = 10.0, b: float = -5.0,
                iou_matrix: np.ndarray | None = None) -> T.Tensor:
    """Temperature-scaled contrastive loss over a batch of matched pairs.

    Row i: -sim(x_i, y_i)/tau + logsumexp_{k != i} sim(x_i, y_k)/tau'(i, k).
    Embeddings must be unit-norm (N, D); the IoU matrix (or the raw target
    chunks to derive it from) supplies tau' per negative.
    """
    n = x_embeds.shape[0]
    if n < 2:
        raise ValueError("ntxent_loss needs a batch of at least 2 pairs")
    if y_embeds.shape != x_embeds.shape:
        raise ValueError(f"embedding shapes differ: {x_embeds.shape} vs {y_embeds.shape}")
    if iou_matrix is None:
        if y_chunks is None:
            raise ValueError("provide y_chunks or iou_matrix")
        iou_matrix = pairwise_occupancy_iou(np.asarray(y_chunks).reshape(n, -1))
    tprime = temperature_from_iou(tau, iou_matrix, a, b)

    sims = T.matmul(x_embeds, T.transpose(y_embeds, (1, 0)))       # (N, N)
    inv_t = (1.0 / tprime).astype(x_embeds.data.dtype)
    z = T.mul(sims, T.constant(inv_t))
    neg_diag = np.zeros((n, n), dtype=x_embeds.data.dtype)
    np.fill_diagonal(neg_diag, -1e9)                               # exclude positives
    z = T.add(z, T.constant(neg_diag))

    m = T.tmax(z, axis=1)                                          # (N,)
    m_full = T.broadcast_to(T.reshape(m, (n, 1)), (n, n))
    lse = T.add(m, T.log(T.tsum(T.exp(T.sub(z, m_full)), axis=1)))

    eye = np.eye(n, dtype=x_embeds.data.dtype)
    pos = T.mul(T.tsum(T.mul(sims, T.constant(eye)), axis=1), 1.0 / tau)
    return T.mul(T.tsum(T.sub(lse, pos)), 1.0 / n)


ENCODER_BASE_CHANNELS, ENCODER_MAX_CHANNELS = 16, 64


class ChunkEncoder:
    """Stride-2 conv stack shrinking the side to 1, dense head, unit norm.

    The first conv has ENCODER_BASE_CHANNELS outputs; each later one doubles
    them, up to ENCODER_MAX_CHANNELS.
    """

    def __init__(self, store: T.ParamStore, prefix: str, in_dim: int, embed_dim: int,
                 rng: np.random.Generator):
        if in_dim < 2 or in_dim & (in_dim - 1):
            raise ValueError(f"encoder input side must be a power of two >= 2, got {in_dim}")
        self.in_dim = in_dim
        self.convs = []
        side, c_in, c_out = in_dim, 1, ENCODER_BASE_CHANNELS
        i = 0
        while side > 1:
            self.convs.append(Conv3(store, f"{prefix}.conv{i}", c_in, c_out,
                                    k=3, stride=2, pad=1, rng=rng))
            side //= 2
            c_in, c_out = c_out, min(c_out * 2, ENCODER_MAX_CHANNELS)
            i += 1
        self.head = Dense(store, f"{prefix}.head", c_in, embed_dim, rng=rng)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        n = x.shape[0]
        h = x
        for conv in self.convs:
            h = T.leaky_relu(conv(h))
        h = T.reshape(h, (n, h.shape[1]))
        return T.l2_normalize(self.head(h), axis=1)


@dataclass
class ChunkEncoderPair:
    """g_in over input-resolution chunks, g_tgt over target chunks."""

    store: T.ParamStore
    g_in: ChunkEncoder
    g_tgt: ChunkEncoder
    input_dim: int
    chunk_dim: int
    embed_dim: int

    @classmethod
    def create(cls, input_dim: int, chunk_dim: int, hp: HyperParams,
               seed: int = 0) -> "ChunkEncoderPair":
        rng = np.random.default_rng(seed)
        store = T.ParamStore()
        g_in = ChunkEncoder(store, "g_in", input_dim, hp.embed_dim, rng)
        g_tgt = ChunkEncoder(store, "g_tgt", chunk_dim, hp.embed_dim, rng)
        return cls(store, g_in, g_tgt, input_dim, chunk_dim, hp.embed_dim)

    def save(self, path):
        T.save_checkpoint(self.store, path)

    @classmethod
    def load(cls, path, input_dim: int, chunk_dim: int, hp: HyperParams) -> "ChunkEncoderPair":
        pair = cls.create(input_dim, chunk_dim, hp, seed=0)
        T.load_checkpoint(pair.store, path)
        return pair

    def _encode(self, encoder: ChunkEncoder, chunks: np.ndarray, batch: int = 256) -> np.ndarray:
        d = encoder.in_dim
        chunks = np.asarray(chunks, dtype=np.float32).reshape(-1, 1, d, d, d)
        outs = []
        with T.no_grad():
            for lo in range(0, len(chunks), batch):
                outs.append(encoder(T.Tensor(chunks[lo:lo + batch])).data)
        return np.concatenate(outs) if outs else np.zeros((0, self.embed_dim), dtype=np.float32)

    def encode_inputs(self, chunks: np.ndarray) -> np.ndarray:
        return self._encode(self.g_in, chunks)

    def encode_targets(self, chunks: np.ndarray) -> np.ndarray:
        return self._encode(self.g_tgt, chunks)


def train_retrieval(input_chunks: np.ndarray, target_chunks: np.ndarray,
                    hp: HyperParams, seed: int = 0, iters: int = 2000,
                    lr: float | None = None,
                    log_every: int = 50) -> tuple[ChunkEncoderPair, list[tuple[int, float, float]]]:
    """Contrastive training over prepared (input chunk, target chunk) pairs.

    Chunks arrive pre-filtered (surface chunks plus one canonical empty).
    Deterministic for a fixed seed; returns the encoders and a
    (iteration, loss, lr) log.
    """
    m = len(input_chunks)
    if m == 0:
        raise ValueError("empty retrieval training set")
    if len(target_chunks) != m:
        raise ValueError("input/target pair count mismatch")
    lr = hp.lr if lr is None else lr
    input_dim = round(len(np.ravel(input_chunks[0])) ** (1 / 3))
    chunk_dim = round(len(np.ravel(target_chunks[0])) ** (1 / 3))
    inputs = np.asarray(input_chunks, dtype=np.float32).reshape(m, -1)
    targets = np.asarray(target_chunks, dtype=np.float32).reshape(m, -1)

    pair = ChunkEncoderPair.create(input_dim, chunk_dim, hp, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7e7]))
    batch = min(hp.batch_retrieval, m)
    log = []
    for it in range(iters):
        idx = rng.choice(m, size=batch, replace=False)
        xb = T.Tensor(inputs[idx].reshape(batch, 1, input_dim, input_dim, input_dim))
        yb = T.Tensor(targets[idx].reshape(batch, 1, chunk_dim, chunk_dim, chunk_dim))
        ex = pair.g_in(xb)
        ey = pair.g_tgt(yb)
        iou = pairwise_occupancy_iou(targets[idx])
        loss = ntxent_loss(ex, ey, iou_matrix=iou, tau=hp.tau_retrieval,
                           a=hp.iou_a, b=hp.iou_b)
        val = loss.item()
        T.backward(loss)
        T.adam_step(pair.store, lr=lr)
        if it % log_every == 0 or it == iters - 1:
            log.append((it, val, lr))
    return pair, log

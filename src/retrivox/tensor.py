"""Minimal dense reverse-mode autodiff engine over numpy arrays.

A Tensor wraps an ndarray.  Every op computes its output, defines its
backward closure and hands both to _node, the one place the tape is armed:
the closure and the op's inputs are recorded only while gradients are
enabled and some input requires them.  backward() runs a reverse
topological sweep, accumulates gradients into leaves that require them, and
releases the tape.  Training runs in float32; gradient checks build the
same graphs in float64.

No implicit broadcasting beyond bias-add: elementwise ops take equal shapes
or a python scalar, anything else goes through reshape/transpose/broadcast_to
explicitly.

conv3 and transposed_conv3 share one im2col core: one GEMM per sample and
column block, forward and backward.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .fileio import atomic_write

CHECKPOINT_MAGIC = b"RFC1"

LEAKY_SLOPE = 0.2
L2_EPS = 1e-12
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999

_grad_enabled = True
_live_tape_nodes = 0


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / data prep)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def live_tape_nodes() -> int:
    """Number of graph nodes whose backward closure has not been consumed."""
    return _live_tape_nodes


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result; arm the tape with backward_fn when gradients are on
    and some parent requires them.  The only place a closure is recorded."""
    global _live_tape_nodes
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
        _live_tape_nodes += 1
    return out


def _release(node: Tensor) -> bool:
    """Drop an armed node's closure and parents; False if it held none."""
    global _live_tape_nodes
    if node._backward is None:
        return False
    node._backward = None
    node._parents = ()
    _live_tape_nodes -= 1
    return True


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor):
    """Reverse sweep from a scalar loss; clears the tape afterwards."""
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")

    # iterative postorder topo sort
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    # release the tape; keep leaf gradients
    for node in topo:
        if _release(node):
            node.grad = None  # interior grads are not reused


def clear_graph(root: Tensor):
    """Drop the tape below an output that will never be backpropagated."""
    stack = [root]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        _release(node)


def constant(x, dtype=None) -> Tensor:
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr, requires_grad=False)


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape} "
                         "(use broadcast_to/reshape explicitly)")


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _node(a.data + float(b), (a,), lambda g: _accum(a, g))
    _check_same_shape(a, b, "add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)
    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    _check_same_shape(a, b, "sub")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)
    return _node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        bval = float(b)
        return _node(a.data * bval, (a,), lambda g: _accum(a, g * bval))
    _check_same_shape(a, b, "mul")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)
    return _node(a.data * b.data, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.data.reshape(tuple(shape)), (a,), lambda g: _accum(a, g.reshape(a.shape)))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                 lambda g: _accum(a, g.transpose(inv)))


def rearrange(a: Tensor, fwd, inverse) -> Tensor:
    """Apply fwd, a fixed reordering of a's elements (array in, array out);
    the gradient flows back through its inverse."""
    return _node(fwd(a.data), (a,), lambda g: _accum(a, inverse(g)))


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Explicit broadcast; gradient sums over the expanded axes."""
    shape = tuple(shape)
    np.broadcast_to(a.data, shape)  # raises on incompatibility
    lead = len(shape) - a.data.ndim
    sum_axes = tuple(range(lead)) + tuple(
        lead + i for i, d in enumerate(a.data.shape) if d == 1 and shape[lead + i] != 1)

    def bwd(g):
        gg = g.sum(axis=sum_axes, keepdims=True) if sum_axes else g
        _accum(a, gg.reshape(a.shape))
    return _node(np.ascontiguousarray(np.broadcast_to(a.data, shape)), (a,), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; gradient scatter-adds back (duplicates ok)."""
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        gg = np.zeros_like(a.data)
        np.add.at(gg, idx, g)
        _accum(a, gg)
    return _node(a.data[idx], (a,), bwd)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])
    return _node(data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# reductions and nonlinearities
# ---------------------------------------------------------------------------

def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=False))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))
    return _node(a.data.sum(axis=axis), (a,), bwd)


def mean(a: Tensor) -> Tensor:
    inv = 1.0 / a.size
    return _node(np.asarray(a.data.mean()), (a,),
                 lambda g: _accum(a, np.broadcast_to(g * inv, a.shape).astype(a.dtype, copy=False)))


def abs_sum(a: Tensor) -> Tensor:
    """l1 norm of all entries; subgradient sign(x) at 0 is 0."""
    return _node(np.asarray(np.abs(a.data).sum()), (a,), lambda g: _accum(a, g * np.sign(a.data)))


def tmax(a: Tensor, axis: int) -> Tensor:
    """Max along an axis; ties route the gradient to the first maximum."""
    idx = a.data.argmax(axis=axis)

    def bwd(g):
        gg = np.zeros_like(a.data)
        np.put_along_axis(gg, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        _accum(a, gg)
    return _node(a.data.max(axis=axis), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0), (a,), lambda g: _accum(a, g * mask))


def leaky_relu(a: Tensor) -> Tensor:
    """max(x, LEAKY_SLOPE * x)."""
    mask = a.data > 0
    return _node(np.where(mask, a.data, LEAKY_SLOPE * a.data), (a,),
                 lambda g: _accum(a, g * np.where(mask, 1.0, LEAKY_SLOPE).astype(a.dtype)))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x)))).astype(x.dtype)
    return _node(y, (a,), lambda g: _accum(a, g * y * (1.0 - y)))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: _accum(a, g / a.data))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _node(y, (a,), lambda g: _accum(a, g * y))


def softmax(a: Tensor, axis: int, scale: float = 1.0) -> Tensor:
    """softmax(scale * x) along axis, numerically stabilized."""
    if a.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    z = scale * a.data
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot_ = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, scale * y * (g - dot_))
    return _node(y, (a,), bwd)


def l2_normalize(a: Tensor, axis: int) -> Tensor:
    """a / max(|a|, L2_EPS) along axis."""
    n = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    n = np.maximum(n, L2_EPS)
    y = a.data / n

    def bwd(g):
        dot_ = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, (g - y * dot_) / n)
    return _node(y, (a,), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot expects equal-length vectors, got {a.shape} and {b.shape}")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)
    return _node(np.asarray(a.data @ b.data), (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)
    return _node(a.data @ b.data, (a, b), bwd)


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x (N, Fin) @ w (Fin, Fout) + b (Fout,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"dense shape mismatch: x {x.shape}, w {w.shape}")
    data = x.data @ w.data
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ValueError(f"dense bias shape {b.shape} != ({w.shape[1]},)")
        data = data + b.data

    def bwd(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        if b is not None:
            _accum(b, g.sum(axis=0))
    return _node(data, (x, w) if b is None else (x, w, b), bwd)


# ---------------------------------------------------------------------------
# 3-D convolution ops; activations are (N, C, X, Y, Z)
#
# One im2col core serves both ops.  _cols copies the k^3 strided views that a
# range of output x-planes reads into a column block (N, C*k^3, planes*Y*Z)
# whose rows follow w.reshape(rows, -1); _col2im, its adjoint, scatter-adds a
# block back.  A transposed conv is the adjoint of a conv, so it runs the same
# pair the other way round.
# ---------------------------------------------------------------------------

# Per-sample byte budget of one column block.  Blocks are sized from one
# sample's shape and every sample gets its own GEMM, so a sample's output does
# not depend on the batch it comes in (the f_retr dedup relies on that).
_COL_BLOCK_BYTES = 1 << 20


def _conv_args(op: str, x: Tensor, w: Tensor, b: Tensor | None, stride: int, pad: int,
               cin_axis: int):
    """Check a conv call before any work; returns (n, cin, spatial, cout, k)."""
    if x.data.ndim != 5:
        raise ValueError(f"{op} expects (N, C, X, Y, Z), got {x.shape}")
    if stride < 1 or pad < 0:
        raise ValueError(f"{op}: need stride >= 1 and pad >= 0, got stride={stride}, pad={pad}")
    n, cin, *spatial = x.shape
    if w.data.ndim != 5 or w.shape[cin_axis] != cin or len(set(w.shape[2:])) != 1:
        raise ValueError(f"{op} weight {w.shape} incompatible with input {x.shape}")
    cout, k = w.shape[1 - cin_axis], w.shape[2]
    if b is not None and b.shape != (cout,):
        raise ValueError(f"{op} bias shape {b.shape} != ({cout},)")
    return n, cin, spatial, cout, k


def _plane_blocks(rows: int, od, itemsize: int) -> list[tuple[int, int]]:
    """Ranges [x0, x1) of output x-planes whose per-sample column block of
    `rows` rows fits _COL_BLOCK_BYTES (at least one plane each)."""
    step = max(1, _COL_BLOCK_BYTES // (rows * od[1] * od[2] * itemsize))
    return [(x0, min(x0 + step, od[0])) for x0 in range(0, od[0], step)]


def _tap_views(a: np.ndarray, cols: np.ndarray, k: int, stride: int, x0: int, x1: int, od):
    """Per tap: its rows of the column block and the slice of a (N, C, ...)
    that it reads for output planes x0:x1 of an unpadded stride conv."""
    n, c = a.shape[:2]
    cols = cols.reshape(n, c, k ** 3, x1 - x0, od[1], od[2])
    for t, (i, j, l) in enumerate(np.ndindex(k, k, k)):
        yield cols[:, :, t], a[:, :, i + stride * x0:i + stride * (x1 - 1) + 1:stride,
                               j:j + stride * (od[1] - 1) + 1:stride,
                               l:l + stride * (od[2] - 1) + 1:stride]


def _cols(xp: np.ndarray, k: int, stride: int, x0: int, x1: int, od) -> np.ndarray:
    """Column block (N, C*k^3, (x1 - x0) * od[1] * od[2]) of xp."""
    cols = np.empty((*xp.shape[:2], k ** 3 * (x1 - x0) * od[1] * od[2]), dtype=xp.dtype)
    for rows, view in _tap_views(xp, cols, k, stride, x0, x1, od):
        rows[...] = view
    return cols.reshape(xp.shape[0], -1, (x1 - x0) * od[1] * od[2])


def _col2im(dst: np.ndarray, cols: np.ndarray, k: int, stride: int, x0: int, x1: int, od):
    """Adjoint of _cols: scatter-add a column block into dst."""
    for rows, view in _tap_views(dst, cols, k, stride, x0, x1, od):
        view += rows


def conv3(x: Tensor, w: Tensor, b: Tensor | None = None,
          stride: int = 1, pad: int = 0) -> Tensor:
    """3-D convolution; w is (Cout, Cin, K, K, K)."""
    n, cin, spatial, cout, k = _conv_args("conv3", x, w, b, stride, pad, cin_axis=1)
    od = [(d + 2 * pad - k) // stride + 1 for d in spatial]
    if min(od) < 1:
        raise ValueError(f"conv3 output would be empty: in {spatial}, k={k}, "
                         f"stride={stride}, pad={pad}")
    xp = np.pad(x.data, ((0, 0), (0, 0)) + ((pad, pad),) * 3) if pad else x.data
    wm = w.data.reshape(cout, -1)
    blocks = _plane_blocks(wm.shape[1], od, xp.itemsize)
    data = np.empty((n, cout, *od), dtype=x.dtype)
    for x0, x1 in blocks:
        data[:, :, x0:x1] = np.matmul(wm, _cols(xp, k, stride, x0, x1, od)).reshape(
            n, cout, x1 - x0, od[1], od[2])
    if b is not None:
        data += b.data.reshape(1, cout, 1, 1, 1)

    def bwd(g):
        gxp = np.zeros_like(xp) if x.requires_grad else None
        gwt = np.zeros_like(wm.T) if w.requires_grad else None
        for x0, x1 in blocks:
            gb = g[:, :, x0:x1].reshape(n, cout, -1)
            if gwt is not None:
                gwt += np.tensordot(_cols(xp, k, stride, x0, x1, od), gb, axes=([0, 2], [0, 2]))
            if gxp is not None:
                _col2im(gxp, np.matmul(wm.T, gb), k, stride, x0, x1, od)
        if gxp is not None:
            _accum(x, gxp[:, :, pad:pad + spatial[0], pad:pad + spatial[1], pad:pad + spatial[2]])
        if gwt is not None:
            _accum(w, gwt.T.reshape(w.shape))
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3, 4)))
    return _node(data, (x, w) if b is None else (x, w, b), bwd)


def transposed_conv3(x: Tensor, w: Tensor, b: Tensor | None = None,
                     stride: int = 1, pad: int = 0) -> Tensor:
    """3-D transposed convolution; w is (Cin, Cout, K, K, K).

    Output spatial dim = (in - 1) * stride + K - 2 * pad.
    """
    n, cin, spatial, cout, k = _conv_args("transposed_conv3", x, w, b, stride, pad, cin_axis=0)
    full = [(d - 1) * stride + k for d in spatial]
    od = [f - 2 * pad for f in full]
    if min(od) < 1:
        raise ValueError("transposed_conv3 output would be empty")
    # the adjoint of a stride conv with weight w from (N, Cout, *full) to x's shape
    wm = w.data.reshape(cin, -1)
    blocks = _plane_blocks(wm.shape[1], spatial, x.data.itemsize)
    out_full = np.zeros((n, cout, *full), dtype=x.dtype)
    for x0, x1 in blocks:
        _col2im(out_full, np.matmul(wm.T, x.data[:, :, x0:x1].reshape(n, cin, -1)),
                k, stride, x0, x1, spatial)
    data = np.ascontiguousarray(out_full[:, :, pad:pad + od[0], pad:pad + od[1], pad:pad + od[2]])
    if b is not None:
        data += b.data.reshape(1, cout, 1, 1, 1)

    def bwd(g):
        gfull = np.pad(g, ((0, 0), (0, 0)) + ((pad, pad),) * 3) if pad else g
        gx = np.empty_like(x.data) if x.requires_grad else None
        gwt = np.zeros_like(wm.T) if w.requires_grad else None
        for x0, x1 in blocks:
            cols = _cols(gfull, k, stride, x0, x1, spatial)
            if gx is not None:
                gx[:, :, x0:x1] = np.matmul(wm, cols).reshape(n, cin, x1 - x0, *spatial[1:])
            if gwt is not None:
                gwt += np.tensordot(cols, x.data[:, :, x0:x1].reshape(n, cin, -1),
                                    axes=([0, 2], [0, 2]))
        if gx is not None:
            _accum(x, gx)
        if gwt is not None:
            _accum(w, gwt.T.reshape(w.shape))
        if b is not None:
            _accum(b, g.sum(axis=(0, 2, 3, 4)))
    return _node(data, (x, w) if b is None else (x, w, b), bwd)


def nearest_upsample3(x: Tensor, factor: int) -> Tensor:
    """Repeat each voxel factor times along every spatial axis."""
    if x.data.ndim != 5:
        raise ValueError(f"nearest_upsample3 expects (N, C, X, Y, Z), got {x.shape}")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    data = x.data.repeat(factor, axis=2).repeat(factor, axis=3).repeat(factor, axis=4)
    n, c, dx, dy, dz = x.shape

    def bwd(g):
        _accum(x, g.reshape(n, c, dx, factor, dy, factor, dz, factor).sum(axis=(3, 5, 7)))
    return _node(data, (x,), bwd)


# ---------------------------------------------------------------------------
# parameters, optimizer, checkpoints
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable parameters plus Adam moments and the step counter."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step: int = 0

    def create(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data), requires_grad=True)
        self.params[name] = t
        self.m[name] = np.zeros_like(t.data)
        self.v[name] = np.zeros_like(t.data)
        return t

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


def adam_step(store: ParamStore, lr: float, eps: float = 1e-8):
    """One bias-corrected Adam update (betas ADAM_BETA1, ADAM_BETA2) over
    every parameter; consumes grads."""
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
    missing = [n for n, t in store.params.items() if t.grad is None]
    if missing:
        raise ValueError(f"adam_step: missing gradients for {missing}")
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.params.items():
        g = p.grad
        store.m[name] = beta1 * store.m[name] + (1.0 - beta1) * g
        store.v[name] = beta2 * store.v[name] + (1.0 - beta2) * (g * g)
        mhat = store.m[name] / bc1
        vhat = store.v[name] / bc2
        p.data = p.data - (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype, copy=False)
        p.grad = None


def save_checkpoint(store: ParamStore, path):
    """RFC1 checkpoint: parameters with Adam moments and the step counter; a
    reader of path sees the old file or the new one."""
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<QI", store.step, len(store.params)))
        for name, p in store.params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", p.data.ndim))
            f.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            for arr in (p.data, store.m[name], store.v[name]):
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(store: ParamStore, path):
    """Overwrite an existing store's arrays by name; shapes must match.  The
    whole file is checked before the store changes: a short, overlong or
    mismatched file raises ValueError and leaves the store as it was."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not an RFC1 checkpoint")
    off = 4

    def take(size: int) -> int:
        """Offset of the next size bytes; raises if the file ends first."""
        nonlocal off
        if off + size > len(data):
            raise ValueError(f"{path}: truncated RFC1 checkpoint at byte {off}")
        off += size
        return off - size

    def unpack(fmt: str) -> tuple:
        return struct.unpack_from(fmt, data, take(struct.calcsize(fmt)))

    step, count = unpack("<QI")
    loaded = {}
    for _ in range(count):
        (nlen,) = unpack("<H")
        start = take(nlen)
        name = data[start:start + nlen].decode("utf-8")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        numel = int(np.prod(shape)) if ndim else 1
        blobs = np.frombuffer(data, "<f4", 3 * numel, take(12 * numel)).reshape(3, *shape)
        if name not in store.params:
            raise ValueError(f"{path}: unknown parameter {name!r}")
        if store.params[name].data.shape != tuple(shape):
            raise ValueError(f"{path}: shape mismatch for {name!r}: "
                             f"{tuple(shape)} vs {store.params[name].data.shape}")
        loaded[name] = blobs
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes after {count} parameters")
    missing = set(store.params) - set(loaded)
    if missing:
        raise ValueError(f"{path}: checkpoint lacks parameters {sorted(missing)}")
    for name, (value, m, v) in loaded.items():
        dt = store.params[name].data.dtype
        store.params[name].data = value.astype(dt)
        store.m[name] = m.astype(dt)
        store.v[name] = v.astype(dt)
    store.step = step


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def gradcheck(fn, inputs: list[np.ndarray], h: float = 1e-4,
              max_coords: int = 64, seed: int = 0) -> float:
    """Compare analytic gradients of scalar fn(*tensors) to central differences.

    Inputs are promoted to float64.  Returns the worst relative error
    |analytic - numeric| / max(1, |numeric|) over the checked coordinates;
    tensors larger than max_coords are subsampled deterministically.
    """
    xs = [np.asarray(x, dtype=np.float64) for x in inputs]
    ts = [Tensor(x.copy(), requires_grad=True) for x in xs]
    loss = fn(*ts)
    backward(loss)
    grads = [np.zeros_like(x) if t.grad is None else t.grad.copy()
             for x, t in zip(xs, ts)]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, x in enumerate(xs):
        flat = x.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            with no_grad():
                fp = fn(*[Tensor(v) for v in xs]).item()
            flat[c] = orig - h
            with no_grad():
                fm = fn(*[Tensor(v) for v in xs]).item()
            flat[c] = orig
            numeric = (fp - fm) / (2.0 * h)
            analytic = grads[i].reshape(-1)[c]
            err = abs(analytic - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst

"""Parameterized layers on top of the tensor engine.

Layers register their weights in a ParamStore under a dotted prefix so
checkpoints stay name-stable.  Initialization is Kaiming-uniform
(limit sqrt(6 / fan_in)) from a caller-provided rng.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv3:
    def __init__(self, store: T.ParamStore, name: str, c_in: int, c_out: int,
                 k: int = 3, stride: int = 1, pad: int = 1, *,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = c_in * k ** 3
        self.stride, self.pad = stride, pad
        self.w = store.create(f"{name}.w", kaiming_uniform(rng, (c_out, c_in, k, k, k), fan_in, dtype))
        self.b = store.create(f"{name}.b", np.zeros(c_out, dtype=dtype))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.conv3(x, self.w, self.b, stride=self.stride, pad=self.pad)


class TConv3:
    def __init__(self, store: T.ParamStore, name: str, c_in: int, c_out: int,
                 k: int = 4, stride: int = 2, pad: int = 1, *,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = c_in * k ** 3
        self.stride, self.pad = stride, pad
        self.w = store.create(f"{name}.w", kaiming_uniform(rng, (c_in, c_out, k, k, k), fan_in, dtype))
        self.b = store.create(f"{name}.b", np.zeros(c_out, dtype=dtype))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.transposed_conv3(x, self.w, self.b, stride=self.stride, pad=self.pad)


class Dense:
    def __init__(self, store: T.ParamStore, name: str, f_in: int, f_out: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.w = store.create(f"{name}.w", kaiming_uniform(rng, (f_in, f_out), f_in, dtype))
        self.b = store.create(f"{name}.b", np.zeros(f_out, dtype=dtype))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.dense(x, self.w, self.b)

"""Shared float64 numerics: activations, layer norm, dropout, parameter traversal.

Everything here is deliberately allocation-simple and 64-bit; backward
functions accumulate into caller-owned gradient structures with ``+=``.
"""

from __future__ import annotations

import dataclasses
import numpy as np

LN_EPS = 1e-10
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def init_normal(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    """N(0, 0.02^2) draws; with no generator, an uninitialised array of the
    shape, for a caller that overwrites every entry."""
    if rng is None:
        return np.empty(shape)
    return rng.normal(0.0, 0.02, size=shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    # d/dx of softmax rows given upstream dp and the forward output p
    inner = (dp * p).sum(axis=-1, keepdims=True)
    return p * (dp - inner)


def log_sum_exp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    out = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU; returns (value, tanh term) for the backward pass."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_backward(dy: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Rowwise layer norm; returns (out, cache) with cache = (u, inv_std)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    u = xc * inv
    return u * gain + bias, (u, inv)


def layer_norm_backward(dy: np.ndarray, cache, gain: np.ndarray):
    """Returns (dx, dgain, dbias) for a rowwise layer norm."""
    u, inv = cache
    dgain = (dy * u).sum(axis=0)
    dbias = dy.sum(axis=0)
    du = dy * gain
    dx = inv * (du - du.mean(axis=-1, keepdims=True) - u * (du * u).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


def dropout(x: np.ndarray, p: float, rng: np.random.Generator | None, train: bool):
    """Inverted dropout; identity (mask None) when not training or p == 0."""
    if not train or p <= 0.0:
        return x, None
    mask = rng.random(x.shape) >= p
    return x * mask / (1.0 - p), mask


def dropout_backward(dy: np.ndarray, mask, p: float) -> np.ndarray:
    if mask is None:
        return dy
    return dy * mask / (1.0 - p)


def named_arrays(obj, prefix: str = ""):
    """Depth-first (name, array) pairs over a dataclass tree, in field order.

    The iteration order is the canonical parameter order used by the
    optimizer, checkpoint serialization, and the gradient checker.
    """
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        name = f"{prefix}{f.name}"
        if isinstance(v, np.ndarray):
            yield name, v
        elif isinstance(v, list) and v and dataclasses.is_dataclass(v[0]):
            for i, item in enumerate(v):
                yield from named_arrays(item, f"{name}.{i}.")
        elif dataclasses.is_dataclass(v):
            yield from named_arrays(v, f"{name}.")


def _map_arrays(fn, obj):
    """A structural copy of a parameter dataclass tree with ``fn`` applied to
    every array; other fields are shared."""
    kwargs = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            kwargs[f.name] = fn(v)
        elif isinstance(v, list) and v and dataclasses.is_dataclass(v[0]):
            kwargs[f.name] = [_map_arrays(fn, x) for x in v]
        elif dataclasses.is_dataclass(v):
            kwargs[f.name] = _map_arrays(fn, v)
        else:
            kwargs[f.name] = v
    return type(obj)(**kwargs)


def zeros_like_struct(obj):
    """A structural copy of a parameter dataclass tree with all arrays zeroed."""
    return _map_arrays(np.zeros_like, obj)


def copy_struct(obj):
    """Deep copy of a parameter dataclass tree (arrays copied)."""
    return _map_arrays(np.ndarray.copy, obj)

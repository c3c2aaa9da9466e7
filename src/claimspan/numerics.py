"""Shared float64 numerics: activations, layer norm, dropout, flat parameters.

Everything here is deliberately allocation-simple and 64-bit; backward
functions accumulate with ``+=`` into caller-owned gradient trees, whose
arrays are views into one vector (``flat_views``).
"""

from __future__ import annotations

import dataclasses
import itertools
import numpy as np

LN_EPS = 1e-10
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def init_normal(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    """N(0, 0.02^2) draws; with no generator, an uninitialised array of the
    shape, for a caller that reads only its shape."""
    if rng is None:
        return np.empty(shape)
    return rng.normal(0.0, 0.02, size=shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| cannot overflow; for x < 0 it is exp(x) exactly
    z = np.exp(-np.abs(x))
    denom = 1.0 + z
    return np.where(x >= 0, 1.0 / denom, z / denom)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    # x.max and e.sum as ufunc reductions, bit for bit, into one array in place
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def softmax_rows_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    # d/dx of softmax rows given upstream dp and the forward output p
    inner = (dp * p).sum(axis=-1, keepdims=True)
    return p * (dp - inner)


def log_sum_exp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    # one ufunc, shifted by the larger term; an all -inf slice gives -inf
    return np.logaddexp.reduce(a, axis=axis)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU; returns (value, tanh term) for the backward pass."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_backward(dy: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Rowwise layer norm; returns (out, cache) with cache = (u, inv_std)."""
    # a ufunc sum over the count is x.mean bit for bit; x - mu becomes u in place
    n = x.shape[-1]
    u = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True) / n + LN_EPS)
    u *= inv
    return u * gain + bias, (u, inv)


def layer_norm_backward(dy: np.ndarray, cache, gain: np.ndarray):
    """Returns (dx, dgain, dbias) for a rowwise layer norm."""
    u, inv = cache
    dgain = (dy * u).sum(axis=0)
    dbias = dy.sum(axis=0)
    du = dy * gain
    dx = inv * (du - du.mean(axis=-1, keepdims=True) - u * (du * u).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


def dropout(x: np.ndarray, p: float, rng: np.random.Generator | None):
    """Inverted dropout, on only when a generator is given (a training
    pass); otherwise, or at p == 0, the identity with mask None."""
    if rng is None or p <= 0.0:
        return x, None
    mask = rng.random(x.shape) >= p
    return x * mask / (1.0 - p), mask


def dropout_backward(dy: np.ndarray, mask, p: float) -> np.ndarray:
    if mask is None:
        return dy
    return dy * mask / (1.0 - p)


FLAT = {"flat": True}  # metadata of the field holding a tree's flat vector


def named_arrays(obj, prefix: str = ""):
    """Depth-first (name, array) pairs over a dataclass tree, in field order.

    The iteration order is the canonical parameter order used by the
    optimizer, checkpoint serialization, and the gradient checker.
    """
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        name = f"{prefix}{f.name}"
        if isinstance(v, np.ndarray) and "flat" not in f.metadata:
            yield name, v
        elif isinstance(v, list) and v and dataclasses.is_dataclass(v[0]):
            for i, item in enumerate(v):
                yield from named_arrays(item, f"{name}.{i}.")
        elif dataclasses.is_dataclass(v):
            yield from named_arrays(v, f"{name}.")


def flat_views(tree, vector: np.ndarray | None = None):
    """``tree`` rebuilt with its arrays as views of one ``vector`` (new zeros
    when None), in ``named_arrays`` order and each in C order, the layout of
    ``torch.nn.utils.parameters_to_vector``; a ``FLAT`` field holds
    ``vector``, so that whole-tree steps act on it at once."""
    sizes = [arr.size for _name, arr in named_arrays(tree)]
    vector = np.zeros(sum(sizes)) if vector is None else vector
    bounds = itertools.pairwise(itertools.accumulate(sizes, initial=0))
    return _rebuild(tree, (vector[start:end] for start, end in bounds), vector)


def _rebuild(obj, parts, vector):
    kwargs = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if "flat" in f.metadata:
            v = vector
        elif isinstance(v, np.ndarray):
            v = next(parts).reshape(v.shape)
        elif isinstance(v, list) and v and dataclasses.is_dataclass(v[0]):
            v = [_rebuild(x, parts, vector) for x in v]
        elif dataclasses.is_dataclass(v):
            v = _rebuild(v, parts, vector)
        kwargs[f.name] = v
    return type(obj)(**kwargs)

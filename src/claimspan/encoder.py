"""Toy transformer token encoder: embeddings plus a stack of encoder blocks.

Runs in float64 on a packed chunk: the rows of all its sequences stacked in
one array, described by a ``Packing`` that every caller passes (a single
sequence of ``n`` rows is the chunk ``Packing([n])``).
Token-wise steps run on the rows at once; attention pads them to the chunk's
longest sequence and masks the padded keys. Forward passes return caches that
the matching ``*_backward`` functions consume; backward accumulates parameter
gradients in place so a batch can share one gradient structure.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import (
    dropout,
    dropout_backward,
    gelu,
    gelu_backward,
    init_normal,
    layer_norm,
    layer_norm_backward,
    softmax_rows,
    softmax_rows_backward,
)
from .packing import Packing

ATTENTION_VARIANTS = ("coda", "dpa")

# A config field's annotation (a string, under postponed evaluation) and the
# type of its values; ``training.configs_from_mapping`` parses file values
# into these types.
CONFIG_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def check_field_types(config) -> None:
    """Raise TypeError unless each field of the config dataclass holds its
    annotated type: a bool field a bool, an int field an integer that is not
    a bool, a float field any real number that is not a bool, a str field a
    str."""
    for f in fields(config):
        value, typ = getattr(config, f.name), CONFIG_TYPES[f.type]
        accepted = {int: numbers.Integral, float: numbers.Real}.get(typ, typ)
        if not isinstance(value, accepted) or (typ is not bool and isinstance(value, bool)):
            raise TypeError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and adapter-placement settings for the tagger."""

    d: int = 64
    h: int = 4
    d_ff: int = 128
    layers: int = 4
    max_len: int = 64
    vocab_size: int = 2000
    dropout_p: float = 0.1
    adapter_layer: int = 4
    use_descnet: bool = True
    attention_variant: str = "coda"
    use_igm: bool = True
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        # sizes first, so a head count of 0 fails here and not as a division
        for name in ("d", "h", "d_ff", "layers", "max_len", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d % self.h != 0:
            raise ValueError(f"head count {self.h} must divide width {self.d}")
        if not 1 <= self.adapter_layer <= self.layers:
            raise ValueError(f"adapter_layer {self.adapter_layer} outside [1, {self.layers}]")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p {self.dropout_p} outside [0, 1)")
        if self.attention_variant not in ATTENTION_VARIANTS:
            raise ValueError(f"attention_variant must be one of {ATTENTION_VARIANTS}")


@dataclass
class EncoderBlockParams:
    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    w_ff1: np.ndarray
    b_ff1: np.ndarray
    w_ff2: np.ndarray
    b_ff2: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class EncoderParams:
    token_embedding: np.ndarray       # V x d
    positional_embedding: np.ndarray  # N x d
    blocks: list[EncoderBlockParams] = field(default_factory=list)


def init_block_params(rng: np.random.Generator, d: int, d_ff: int) -> EncoderBlockParams:
    return EncoderBlockParams(
        w_q=init_normal(rng, d, d),
        b_q=np.zeros(d),
        w_k=init_normal(rng, d, d),
        w_v=init_normal(rng, d, d),
        b_v=np.zeros(d),
        w_o=init_normal(rng, d, d),
        b_o=np.zeros(d),
        ln1_gain=np.ones(d),
        ln1_bias=np.zeros(d),
        w_ff1=init_normal(rng, d, d_ff),
        b_ff1=np.zeros(d_ff),
        w_ff2=init_normal(rng, d_ff, d),
        b_ff2=np.zeros(d),
        ln2_gain=np.ones(d),
        ln2_bias=np.zeros(d),
    )


def init_encoder_params(rng: np.random.Generator, config: ModelConfig, vocab_size: int) -> EncoderParams:
    if vocab_size > config.vocab_size:
        raise ValueError(f"vocab of {vocab_size} exceeds configured cap {config.vocab_size}")
    return EncoderParams(
        token_embedding=init_normal(rng, vocab_size, config.d),
        positional_embedding=init_normal(rng, config.max_len, config.d),
        blocks=[init_block_params(rng, config.d, config.d_ff) for _ in range(config.layers)],
    )


def embed(token_ids, params: EncoderParams, config: ModelConfig, packing: Packing) -> np.ndarray:
    """Token embeddings plus learned positional embeddings for a chunk's
    packed token ids."""
    ids = np.asarray(token_ids, dtype=np.intp)
    if packing.n_rows != ids.size:
        raise ValueError(f"{ids.size} token ids for a chunk of {packing.n_rows} rows")
    if packing.n_max > config.max_len:
        raise ValueError(f"sequence of {packing.n_max} tokens exceeds max length {config.max_len}")
    if ids.min() < 0 or ids.max() >= params.token_embedding.shape[0]:
        raise ValueError("token id outside vocabulary range")
    return params.token_embedding[ids] + params.positional_embedding[packing.positions]


def embed_backward(d_z: np.ndarray, token_ids, grads: EncoderParams, packing: Packing) -> None:
    ids = np.asarray(token_ids, dtype=np.intp)
    np.add.at(grads.token_embedding, ids, d_z)
    np.add.at(grads.positional_embedding, packing.positions, d_z)


def mhsa_forward(z: np.ndarray, blk: EncoderBlockParams, n_heads: int, packing: Packing):
    """Scaled dot-product self-attention over h heads within each sequence
    of the chunk; returns (out, cache). Keys have no bias: softmax cancels
    the constant it would add to each row of logits."""
    dh = z.shape[1] // n_heads
    shape = (packing.size, packing.n_max, n_heads, dh)

    def heads(x):  # (sequences, h, longest, dh), zero rows past each end
        return packing.pad(x).reshape(shape).transpose(0, 2, 1, 3)

    qh = heads(z @ blk.w_q + blk.b_q)
    kh = heads(z @ blk.w_k)
    vh = heads(z @ blk.w_v + blk.b_v)
    scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(dh)
    if not packing.uniform:
        scores += packing.key_mask
    probs = softmax_rows(scores)
    concat = _packed_rows(probs @ vh, packing)
    out = concat @ blk.w_o + blk.b_o
    cache = {"z": z, "qh": qh, "kh": kh, "vh": vh, "probs": probs, "concat": concat,
             "packing": packing}
    return out, cache


def _packed_rows(x: np.ndarray, packing: Packing) -> np.ndarray:
    """(sequences, h, longest, dh) per-head rows back to packed (rows, d)."""
    return packing.unpad(x.transpose(0, 2, 1, 3)).reshape(packing.n_rows, -1)


def mhsa_backward(d_out: np.ndarray, cache, blk: EncoderBlockParams, g: EncoderBlockParams) -> np.ndarray:
    z, qh, kh, vh, probs, concat, packing = (
        cache["z"], cache["qh"], cache["kh"], cache["vh"], cache["probs"], cache["concat"],
        cache["packing"],
    )
    b, n_heads, n, dh = qh.shape
    g.w_o += concat.T @ d_out
    g.b_o += d_out.sum(axis=0)
    d_concat = packing.pad(d_out @ blk.w_o.T)
    d_heads = d_concat.reshape(b, n, n_heads, dh).transpose(0, 2, 1, 3)
    d_probs = d_heads @ vh.transpose(0, 1, 3, 2)
    d_vh = probs.transpose(0, 1, 3, 2) @ d_heads
    d_scores = softmax_rows_backward(probs, d_probs) / np.sqrt(dh)
    d_q = _packed_rows(d_scores @ kh, packing)
    d_k = _packed_rows(d_scores.transpose(0, 1, 3, 2) @ qh, packing)
    d_v = _packed_rows(d_vh, packing)
    g.w_q += z.T @ d_q
    g.b_q += d_q.sum(axis=0)
    g.w_k += z.T @ d_k
    g.w_v += z.T @ d_v
    g.b_v += d_v.sum(axis=0)
    return d_q @ blk.w_q.T + d_k @ blk.w_k.T + d_v @ blk.w_v.T


def ffn_forward(u: np.ndarray, blk: EncoderBlockParams):
    h1 = u @ blk.w_ff1 + blk.b_ff1
    act, tanh_term = gelu(h1)
    out = act @ blk.w_ff2 + blk.b_ff2
    # the activation is rebuilt from h1 and the tanh term in backward
    return out, {"u": u, "h1": h1, "tanh_term": tanh_term}


def ffn_backward(d_out: np.ndarray, cache, blk: EncoderBlockParams, g: EncoderBlockParams) -> np.ndarray:
    h1, tanh_term = cache["h1"], cache["tanh_term"]
    act = 0.5 * h1 * (1.0 + tanh_term)
    g.w_ff2 += act.T @ d_out
    g.b_ff2 += d_out.sum(axis=0)
    d_act = d_out @ blk.w_ff2.T
    d_h1 = gelu_backward(d_act, h1, tanh_term)
    g.w_ff1 += cache["u"].T @ d_h1
    g.b_ff1 += d_h1.sum(axis=0)
    return d_h1 @ blk.w_ff1.T


def encoder_block_forward(z, blk: EncoderBlockParams, config: ModelConfig, packing: Packing,
                          rng=None):
    """One block on a chunk's packed rows: LN(z + Dropout(MHSA(z))) then
    LN(. + Dropout(FFN(.))); dropout is on when ``rng`` is given."""
    attn, attn_cache = mhsa_forward(z, blk, config.h, packing)
    attn_drop, mask1 = dropout(attn, config.dropout_p, rng)
    u, ln1_cache = layer_norm(z + attn_drop, blk.ln1_gain, blk.ln1_bias)
    ff, ffn_cache = ffn_forward(u, blk)
    ff_drop, mask2 = dropout(ff, config.dropout_p, rng)
    out, ln2_cache = layer_norm(u + ff_drop, blk.ln2_gain, blk.ln2_bias)
    cache = {
        "attn": attn_cache, "mask1": mask1, "ln1": ln1_cache,
        "ffn": ffn_cache, "mask2": mask2, "ln2": ln2_cache,
    }
    return out, cache


def encoder_block_backward(d_out, cache, blk: EncoderBlockParams, config: ModelConfig,
                           g: EncoderBlockParams) -> np.ndarray:
    d_res2, d_g2, d_b2 = layer_norm_backward(d_out, cache["ln2"], blk.ln2_gain)
    g.ln2_gain += d_g2
    g.ln2_bias += d_b2
    d_ff = dropout_backward(d_res2, cache["mask2"], config.dropout_p)
    d_u = d_res2 + ffn_backward(d_ff, cache["ffn"], blk, g)
    d_res1, d_g1, d_b1 = layer_norm_backward(d_u, cache["ln1"], blk.ln1_gain)
    g.ln1_gain += d_g1
    g.ln1_bias += d_b1
    d_attn = dropout_backward(d_res1, cache["mask1"], config.dropout_p)
    return d_res1 + mhsa_backward(d_attn, cache["attn"], blk, g)

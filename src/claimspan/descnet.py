"""Description-infusing adapter: quasi-attention over an encoded description
bank, description fusion, and an interactive gating mechanism.

The adapter takes the running token representation Z (the packed rows of a
chunk's sequences, rows x d) and lets every token interact with all m encoded
claim descriptions through compositional de-attention (weights in (-1, 1), so
descriptions can add, ignore, or subtract). The bank is packed like a chunk,
so a chunk computes one (rows, bank rows) CoDA matrix, through one
(rows, bank rows, d) temporary, and one product with the bank's
block-diagonal values gives the m interaction outputs side by side for
fusion. Each sequence's rows of Z are then gated with a d-vector pooled from
that sequence, built from a conflict gate and a refine gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    EncoderBlockParams,
    EncoderParams,
    ModelConfig,
    embed,
    embed_backward,
    encoder_block_backward,
    encoder_block_forward,
    init_block_params,
)
from .numerics import dropout, dropout_backward, init_normal, sigmoid
from .packing import Packing


@dataclass
class DescNetParams:
    description_encoder: EncoderBlockParams
    w_fuse: np.ndarray   # (m*d) x d, fuses the concatenated interactions
    b_fuse: np.ndarray
    w_proj: np.ndarray   # d x d, applied to the fused output before gating
    w_c1: np.ndarray
    w_c2: np.ndarray
    w_c3: np.ndarray
    w_c4: np.ndarray
    b_c1: np.ndarray
    b_c2: np.ndarray
    w_r1: np.ndarray
    w_r2: np.ndarray
    w_r3: np.ndarray
    w_r4: np.ndarray
    b_r1: np.ndarray
    b_r2: np.ndarray
    w_a: np.ndarray
    b_a: np.ndarray


@dataclass
class DescriptionBank:
    """Encoded claim descriptions, packed as one chunk: ``keys`` holds every
    description's tokens as (bank rows, d), ``packing`` where each one sits,
    and ``values`` the block-diagonal (bank rows, m*d) matrix with description
    j's rows in column block j. ``cache`` holds the packed token ids and
    encoder intermediates so gradients can flow back into the shared
    embeddings and the dedicated encoder block.
    """

    texts: list[str]
    keys: np.ndarray
    packing: Packing
    values: np.ndarray
    cache: dict

    @property
    def size(self) -> int:
        return self.packing.size

    def diagonal_blocks(self, x: np.ndarray) -> np.ndarray:
        """Each row's own description block of a (bank rows, m*d) array."""
        rows = self.packing.n_rows
        return x.reshape(rows, self.size, -1)[np.arange(rows), self.packing.seg]


def init_descnet_params(rng: np.random.Generator, config: ModelConfig, bank_size: int) -> DescNetParams:
    if bank_size < 1:
        raise ValueError("description bank must hold at least one description")
    d = config.d
    return DescNetParams(
        description_encoder=init_block_params(rng, d, config.d_ff),
        w_fuse=init_normal(rng, bank_size * d, d),
        b_fuse=np.zeros(d),
        w_proj=init_normal(rng, d, d),
        w_c1=init_normal(rng, d, d),
        w_c2=init_normal(rng, d, d),
        w_c3=init_normal(rng, d, d),
        w_c4=init_normal(rng, d, d),
        b_c1=np.zeros(d),
        b_c2=np.zeros(d),
        w_r1=init_normal(rng, d, d),
        w_r2=init_normal(rng, d, d),
        w_r3=init_normal(rng, d, d),
        w_r4=init_normal(rng, d, d),
        b_r1=np.zeros(d),
        b_r2=np.zeros(d),
        w_a=init_normal(rng, d, d),
        b_a=np.zeros(d),
    )


def load_bank_texts(path) -> list[str]:
    """One description per line; '#' comments and blank lines ignored."""
    texts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                texts.append(line)
    if not texts:
        raise ValueError(f"description bank {path} holds no descriptions")
    return texts


def encode_description_bank(texts: list[str], token_id_lists: list[list[int]],
                            enc_params: EncoderParams, desc_block: EncoderBlockParams,
                            config: ModelConfig) -> DescriptionBank:
    """Embed each description with the shared tables and run the dedicated
    encoder block (no dropout on the description path)."""
    if not texts:
        raise ValueError("empty description bank")
    for text, ids in zip(texts, token_id_lists):
        if not ids:
            raise ValueError(f"description tokenizes to nothing: {text!r}")
    packing = Packing([len(ids) for ids in token_id_lists])
    flat = np.array([t for ids in token_id_lists for t in ids], dtype=np.intp)
    z0 = embed(flat, enc_params, config, packing)
    out, block_cache = encoder_block_forward(z0, desc_block, config, packing=packing)
    values = np.zeros((packing.n_rows, packing.size, out.shape[1]))
    values[np.arange(packing.n_rows), packing.seg] = out
    return DescriptionBank(list(texts), out, packing, values.reshape(packing.n_rows, -1),
                           {"ids": flat, "block": block_cache})


def bank_backward(d_keys: np.ndarray, bank: DescriptionBank,
                  desc_block: EncoderBlockParams, config: ModelConfig,
                  g_desc_block: EncoderBlockParams, g_enc: EncoderParams) -> None:
    """Push the keys' gradient back into the description encoder block and
    the shared embeddings; one call covers a batch sharing ``bank``."""
    cache = bank.cache
    d_z0 = encoder_block_backward(d_keys, cache["block"], desc_block, config, g_desc_block)
    embed_backward(d_z0, cache["ids"], g_enc, bank.packing)


def coda_forward(q: np.ndarray, k: np.ndarray):
    """Compositional de-attention matrix, every entry strictly inside (-1, 1);
    returns (matrix, cache).

    tanh of the scaled affinity, damped by a sigmoid of the scaled negative
    L1 distance; rows are deliberately not normalized.
    """
    scale = np.sqrt(q.shape[1])
    t = np.tanh(q @ k.T / scale)
    # negative L1 distance G[s, t] = -sum_f |q[s, f] - k[t, f]|, through one
    # (rows, tokens, d) temporary taken in place
    dist = q[:, None, :] - k[None, :, :]
    np.abs(dist, out=dist)
    gs = sigmoid(-dist.sum(axis=-1) / scale)
    return t * gs, {"q": q, "k": k, "t": t, "gs": gs, "scale": scale}


def coda_backward(d_a: np.ndarray, cache):
    q, k, t, gs, scale = cache["q"], cache["k"], cache["t"], cache["gs"], cache["scale"]
    d_t = d_a * gs
    d_gs = d_a * t
    d_s = d_t * (1.0 - t**2) / scale
    d_q = d_s @ k
    d_k = d_s.T @ q
    d_g = d_gs * gs * (1.0 - gs) / scale
    # d_g times the sign of q - k, in one (rows, tokens, d) temporary
    term = q[:, None, :] - k[None, :, :]
    np.sign(term, out=term)
    term *= d_g[:, :, None]
    d_q -= term.sum(axis=1)
    d_k += term.sum(axis=0)
    return d_q, d_k


def coda_interact_forward(z: np.ndarray, bank: DescriptionBank):
    """Tokens-to-descriptions interaction: one CoDA matrix of z against every
    token of the bank, applied to the block-diagonal values, so column block
    j of the (rows, m*d) output is description j's CoDA matrix times its
    token matrix."""
    a, a_cache = coda_forward(z, bank.keys)
    return a @ bank.values, {"a": a, "a_cache": a_cache, "bank": bank}


def coda_interact_backward(d_out: np.ndarray, cache):
    """Returns (d_z, d_keys) for a (rows, m*d) upstream gradient."""
    a, bank = cache["a"], cache["bank"]
    d_z, d_k = coda_backward(d_out @ bank.values.T, cache["a_cache"])
    return d_z, bank.diagonal_blocks(a.T @ d_out) + d_k


def dpa_interact_forward(z: np.ndarray, bank: DescriptionBank):
    """Ablation variant: plain dot-product attention, one softmax over each
    description's tokens."""
    scale = np.sqrt(z.shape[1])
    starts, seg = bank.packing.starts, bank.packing.seg
    s = z @ bank.keys.T / scale
    e = np.exp(s - np.maximum.reduceat(s, starts, axis=1)[:, seg])
    p = e / np.add.reduceat(e, starts, axis=1)[:, seg]
    return p @ bank.values, {"p": p, "z": z, "bank": bank, "scale": scale}


def dpa_interact_backward(d_out: np.ndarray, cache):
    """Returns (d_z, d_keys) for a (rows, m*d) upstream gradient."""
    p, z, bank, scale = cache["p"], cache["z"], cache["bank"], cache["scale"]
    d_p = d_out @ bank.values.T
    inner = np.add.reduceat(d_p * p, bank.packing.starts, axis=1)[:, bank.packing.seg]
    d_s = p * (d_p - inner) / scale
    return d_s @ bank.keys, bank.diagonal_blocks(p.T @ d_out) + d_s.T @ z


def fuse_forward(concat: np.ndarray, params: DescNetParams, rng, train, dropout_p):
    """Fuses the (rows, m*d) interaction outputs into (rows, d)."""
    dropped, mask = dropout(concat, dropout_p, rng, train)
    fused = np.tanh(dropped @ params.w_fuse + params.b_fuse)
    return fused, {"dropped": dropped, "mask": mask, "fused": fused}


def fuse_backward(d_fused: np.ndarray, cache, params: DescNetParams, g: DescNetParams, dropout_p):
    fused = cache["fused"]
    d_pre = d_fused * (1.0 - fused**2)
    g.w_fuse += cache["dropped"].T @ d_pre
    g.b_fuse += d_pre.sum(axis=0)
    return dropout_backward(d_pre @ params.w_fuse.T, cache["mask"], dropout_p)


def igm_forward(zp: np.ndarray, z: np.ndarray, params: DescNetParams,
                packing: Packing | None = None):
    """Interactive gating: conflict/refine gates pooled from each sequence of
    the chunk rescale every row of that sequence in z; returns (out, cache).

    The gates of all sequences are (sequences, d) arrays.
    """
    if zp.shape != z.shape:
        raise ValueError(f"shape mismatch {zp.shape} vs {z.shape}")
    p = params
    packing = packing or Packing.single(len(z))
    z_vec, idx_z = packing.seg_argmax(z)
    zp_vec, idx_zp = packing.seg_argmax(zp)
    mu_c = sigmoid(z_vec @ p.w_c1 + zp_vec @ p.w_c2 + p.b_c1)
    conflict = np.tanh((z_vec * mu_c) @ p.w_c3 + (zp_vec * (1.0 - mu_c)) @ p.w_c4 + p.b_c2)
    mu_r = sigmoid(z_vec @ p.w_r1 + zp_vec @ p.w_r2 + p.b_r1)
    refine = np.tanh((z_vec * mu_r) @ p.w_r3 + (zp_vec * mu_r) @ p.w_r4 + p.b_r2)
    adaptive = refine + (1.0 - mu_r) * conflict
    gate = np.tanh(adaptive @ p.w_a + p.b_a)
    out = z * gate[packing.seg]
    cache = {
        "z": z, "zp": zp, "z_vec": z_vec, "zp_vec": zp_vec, "idx_z": idx_z, "idx_zp": idx_zp,
        "mu_c": mu_c, "conflict": conflict, "mu_r": mu_r, "refine": refine,
        "adaptive": adaptive, "gate": gate, "packing": packing,
    }
    return out, cache


def igm_backward(d_out: np.ndarray, cache, p: DescNetParams, g: DescNetParams):
    """Returns (d_zp, d_z); the max-pool routes pooled gradients back to the
    argmax rows, the gate itself carries gradient to every row of z."""
    z, zp, packing = cache["z"], cache["zp"], cache["packing"]
    z_vec, zp_vec = cache["z_vec"], cache["zp_vec"]
    mu_c, conflict = cache["mu_c"], cache["conflict"]
    mu_r, refine = cache["mu_r"], cache["refine"]
    adaptive, gate = cache["adaptive"], cache["gate"]

    d_z = d_out * gate[packing.seg]
    d_gate = packing.seg_sum(d_out * z)
    d_pre_gate = d_gate * (1.0 - gate**2)
    g.w_a += adaptive.T @ d_pre_gate
    g.b_a += d_pre_gate.sum(axis=0)
    d_adaptive = d_pre_gate @ p.w_a.T

    d_refine = d_adaptive
    d_conflict = d_adaptive * (1.0 - mu_r)
    d_mu_r = -d_adaptive * conflict

    d_pre_r = d_refine * (1.0 - refine**2)
    g.w_r3 += (z_vec * mu_r).T @ d_pre_r
    g.w_r4 += (zp_vec * mu_r).T @ d_pre_r
    g.b_r2 += d_pre_r.sum(axis=0)
    t3 = d_pre_r @ p.w_r3.T
    t4 = d_pre_r @ p.w_r4.T
    d_z_vec = t3 * mu_r
    d_zp_vec = t4 * mu_r
    d_mu_r += t3 * z_vec + t4 * zp_vec
    d_u_r = d_mu_r * mu_r * (1.0 - mu_r)
    g.w_r1 += z_vec.T @ d_u_r
    g.w_r2 += zp_vec.T @ d_u_r
    g.b_r1 += d_u_r.sum(axis=0)
    d_z_vec += d_u_r @ p.w_r1.T
    d_zp_vec += d_u_r @ p.w_r2.T

    d_pre_c = d_conflict * (1.0 - conflict**2)
    g.w_c3 += (z_vec * mu_c).T @ d_pre_c
    g.w_c4 += (zp_vec * (1.0 - mu_c)).T @ d_pre_c
    g.b_c2 += d_pre_c.sum(axis=0)
    s3 = d_pre_c @ p.w_c3.T
    s4 = d_pre_c @ p.w_c4.T
    d_z_vec += s3 * mu_c
    d_zp_vec += s4 * (1.0 - mu_c)
    d_mu_c = s3 * z_vec - s4 * zp_vec
    d_u_c = d_mu_c * mu_c * (1.0 - mu_c)
    g.w_c1 += z_vec.T @ d_u_c
    g.w_c2 += zp_vec.T @ d_u_c
    g.b_c1 += d_u_c.sum(axis=0)
    d_z_vec += d_u_c @ p.w_c1.T
    d_zp_vec += d_u_c @ p.w_c2.T

    # each (row, column) pair is the maximum of one sequence only
    cols = np.arange(z.shape[1])
    d_zp = np.zeros_like(zp)
    d_zp[cache["idx_zp"], cols] += d_zp_vec
    d_z[cache["idx_z"], cols] += d_z_vec
    return d_zp, d_z


def descnet_forward(z: np.ndarray, bank: DescriptionBank, params: DescNetParams,
                    config: ModelConfig, rng=None, train=False, packing: Packing | None = None):
    """Full adapter pass over a chunk's packed rows; returns (z_hat, cache)."""
    if bank.size * config.d != params.w_fuse.shape[0]:
        raise ValueError(f"bank of {bank.size} descriptions does not match fusion "
                         f"weights built for {params.w_fuse.shape[0] // config.d}")
    interact_fwd = coda_interact_forward if config.attention_variant == "coda" else dpa_interact_forward
    concat, interact_cache = interact_fwd(z, bank)
    fused, fuse_cache = fuse_forward(concat, params, rng, train, config.dropout_p)
    zp = fused @ params.w_proj
    if config.use_igm:
        z_hat, igm_cache = igm_forward(zp, z, params, packing)
    else:
        z_hat, igm_cache = zp, None
    cache = {"interact": interact_cache, "fuse": fuse_cache, "fused": fused, "igm": igm_cache}
    return z_hat, cache


def descnet_backward(d_out: np.ndarray, cache, params: DescNetParams, config: ModelConfig,
                     g_desc: DescNetParams, d_bank: np.ndarray) -> np.ndarray:
    """Mirror of ``descnet_forward``; returns the gradient w.r.t. z.

    Adds the gradient w.r.t. the bank's keys into ``d_bank`` for the caller,
    which runs ``bank_backward`` once for the whole batch that shares the
    bank.
    """
    interact_bwd = coda_interact_backward if config.attention_variant == "coda" else dpa_interact_backward
    if config.use_igm:
        d_zp, d_z = igm_backward(d_out, cache["igm"], params, g_desc)
    else:
        d_zp = d_out
        d_z = 0.0
    g_desc.w_proj += cache["fused"].T @ d_zp
    d_fused = d_zp @ params.w_proj.T
    d_concat = fuse_backward(d_fused, cache["fuse"], params, g_desc, config.dropout_p)
    d_z_bank, d_keys = interact_bwd(d_concat, cache["interact"])
    d_bank += d_keys
    return d_z + d_z_bank

"""Description-infusing adapter: quasi-attention over an encoded description
bank, description fusion, and an interactive gating mechanism.

The adapter takes the running token representation Z (n x d), lets every
token interact with each encoded claim description through compositional
de-attention (weights in (-1, 1), so descriptions can add, ignore, or
subtract), fuses the m interaction outputs, and gates Z with a pooled
d-vector built from a conflict gate and a refine gate.
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
from .numerics import dropout, dropout_backward, init_normal, sigmoid, softmax_rows, softmax_rows_backward


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
    """Encoded claim descriptions: one (tokens x d) matrix per description.

    ``caches`` holds the description-encoder forward intermediates so
    gradients can flow back into the shared embeddings and the dedicated
    encoder block.
    """

    texts: list[str]
    token_ids: list[list[int]]
    matrices: list[np.ndarray]
    caches: list[dict]

    @property
    def size(self) -> int:
        return len(self.matrices)


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
    matrices, caches = [], []
    for text, ids in zip(texts, token_id_lists):
        if not ids:
            raise ValueError(f"description tokenizes to nothing: {text!r}")
        z0 = embed(ids, enc_params, config)
        d_j, block_cache = encoder_block_forward(z0, desc_block, config, rng=None, train=False)
        matrices.append(d_j)
        caches.append(block_cache)
    return DescriptionBank(list(texts), [list(i) for i in token_id_lists], matrices, caches)


def bank_backward(d_matrices: list[np.ndarray], bank: DescriptionBank,
                  desc_block: EncoderBlockParams, config: ModelConfig,
                  g_desc_block: EncoderBlockParams, g_enc: EncoderParams) -> None:
    """Push description-matrix gradients back into the description encoder
    block and the shared embeddings; one call covers a batch sharing ``bank``."""
    for d_mat, cache, ids in zip(d_matrices, bank.caches, bank.token_ids):
        d_z0 = encoder_block_backward(d_mat, cache, desc_block, config, g_desc_block)
        embed_backward(d_z0, ids, g_enc)


def negative_l1_matrix(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """G[s, t] = -sum_f |q[s, f] - k[t, f]|."""
    return -np.abs(q[:, None, :] - k[None, :, :]).sum(axis=-1)


def coda_forward(q: np.ndarray, k: np.ndarray):
    """Compositional de-attention matrix, every entry strictly inside (-1, 1);
    returns (matrix, cache).

    tanh of the scaled affinity, damped by a sigmoid of the scaled negative
    L1 distance; rows are deliberately not normalized.
    """
    scale = np.sqrt(q.shape[1])
    t = np.tanh(q @ k.T / scale)
    gs = sigmoid(negative_l1_matrix(q, k) / scale)
    return t * gs, {"q": q, "k": k, "t": t, "gs": gs, "scale": scale}


def coda_backward(d_a: np.ndarray, cache):
    q, k, t, gs, scale = cache["q"], cache["k"], cache["t"], cache["gs"], cache["scale"]
    d_t = d_a * gs
    d_gs = d_a * t
    d_s = d_t * (1.0 - t**2) / scale
    d_q = d_s @ k
    d_k = d_s.T @ q
    d_g = d_gs * gs * (1.0 - gs) / scale
    sgn = np.sign(q[:, None, :] - k[None, :, :])
    d_q += np.einsum("sm,smf->sf", d_g, -sgn)
    d_k += np.einsum("sm,smf->mf", d_g, sgn)
    return d_q, d_k


def coda_interact_forward(z: np.ndarray, desc: np.ndarray):
    """Tokens-to-description interaction: the CoDA matrix of (z, desc) applied
    to desc as values."""
    a, a_cache = coda_forward(z, desc)
    return a @ desc, {"a": a, "a_cache": a_cache, "desc": desc}


def coda_interact_backward(d_out: np.ndarray, cache):
    a, desc = cache["a"], cache["desc"]
    d_a = d_out @ desc.T
    d_desc = a.T @ d_out
    d_z, d_k = coda_backward(d_a, cache["a_cache"])
    return d_z, d_desc + d_k


def dpa_interact_forward(z: np.ndarray, desc: np.ndarray):
    """Ablation variant: plain softmax dot-product attention over the description."""
    scale = np.sqrt(z.shape[1])
    p = softmax_rows(z @ desc.T / scale)
    return p @ desc, {"p": p, "z": z, "desc": desc, "scale": scale}


def dpa_interact_backward(d_out: np.ndarray, cache):
    p, z, desc, scale = cache["p"], cache["z"], cache["desc"], cache["scale"]
    d_p = d_out @ desc.T
    d_desc = p.T @ d_out
    d_s = softmax_rows_backward(p, d_p) / scale
    d_z = d_s @ desc
    d_desc += d_s.T @ z
    return d_z, d_desc


def fuse_forward(parts: list[np.ndarray], params: DescNetParams, rng, train, dropout_p):
    concat = np.concatenate(parts, axis=1)
    dropped, mask = dropout(concat, dropout_p, rng, train)
    fused = np.tanh(dropped @ params.w_fuse + params.b_fuse)
    return fused, {"dropped": dropped, "mask": mask, "fused": fused, "n_parts": len(parts)}


def fuse_backward(d_fused: np.ndarray, cache, params: DescNetParams, g: DescNetParams, dropout_p):
    fused = cache["fused"]
    d_pre = d_fused * (1.0 - fused**2)
    g.w_fuse += cache["dropped"].T @ d_pre
    g.b_fuse += d_pre.sum(axis=0)
    d_concat = dropout_backward(d_pre @ params.w_fuse.T, cache["mask"], dropout_p)
    return np.split(d_concat, cache["n_parts"], axis=1)


def igm_forward(zp: np.ndarray, z: np.ndarray, params: DescNetParams):
    """Interactive gating: pooled conflict/refine gates rescale every row of z;
    returns (out, cache)."""
    if zp.shape != z.shape:
        raise ValueError(f"shape mismatch {zp.shape} vs {z.shape}")
    p = params
    z_vec = z.max(axis=0)
    zp_vec = zp.max(axis=0)
    idx_z = z.argmax(axis=0)
    idx_zp = zp.argmax(axis=0)
    mu_c = sigmoid(z_vec @ p.w_c1 + zp_vec @ p.w_c2 + p.b_c1)
    conflict = np.tanh((z_vec * mu_c) @ p.w_c3 + (zp_vec * (1.0 - mu_c)) @ p.w_c4 + p.b_c2)
    mu_r = sigmoid(z_vec @ p.w_r1 + zp_vec @ p.w_r2 + p.b_r1)
    refine = np.tanh((z_vec * mu_r) @ p.w_r3 + (zp_vec * mu_r) @ p.w_r4 + p.b_r2)
    adaptive = refine + (1.0 - mu_r) * conflict
    gate = np.tanh(adaptive @ p.w_a + p.b_a)
    out = z * gate
    cache = {
        "z": z, "zp": zp, "z_vec": z_vec, "zp_vec": zp_vec, "idx_z": idx_z, "idx_zp": idx_zp,
        "mu_c": mu_c, "conflict": conflict, "mu_r": mu_r, "refine": refine,
        "adaptive": adaptive, "gate": gate,
    }
    return out, cache


def igm_backward(d_out: np.ndarray, cache, p: DescNetParams, g: DescNetParams):
    """Returns (d_zp, d_z); the max-pool routes pooled gradients back to the
    argmax rows, the gate itself carries gradient to every row of z."""
    z, zp = cache["z"], cache["zp"]
    z_vec, zp_vec = cache["z_vec"], cache["zp_vec"]
    mu_c, conflict = cache["mu_c"], cache["conflict"]
    mu_r, refine = cache["mu_r"], cache["refine"]
    adaptive, gate = cache["adaptive"], cache["gate"]

    d_z = d_out * gate
    d_gate = (d_out * z).sum(axis=0)
    d_pre_gate = d_gate * (1.0 - gate**2)
    g.w_a += np.outer(adaptive, d_pre_gate)
    g.b_a += d_pre_gate
    d_adaptive = d_pre_gate @ p.w_a.T

    d_refine = d_adaptive
    d_conflict = d_adaptive * (1.0 - mu_r)
    d_mu_r = -d_adaptive * conflict

    d_pre_r = d_refine * (1.0 - refine**2)
    g.w_r3 += np.outer(z_vec * mu_r, d_pre_r)
    g.w_r4 += np.outer(zp_vec * mu_r, d_pre_r)
    g.b_r2 += d_pre_r
    t3 = d_pre_r @ p.w_r3.T
    t4 = d_pre_r @ p.w_r4.T
    d_z_vec = t3 * mu_r
    d_zp_vec = t4 * mu_r
    d_mu_r += t3 * z_vec + t4 * zp_vec
    d_u_r = d_mu_r * mu_r * (1.0 - mu_r)
    g.w_r1 += np.outer(z_vec, d_u_r)
    g.w_r2 += np.outer(zp_vec, d_u_r)
    g.b_r1 += d_u_r
    d_z_vec += d_u_r @ p.w_r1.T
    d_zp_vec += d_u_r @ p.w_r2.T

    d_pre_c = d_conflict * (1.0 - conflict**2)
    g.w_c3 += np.outer(z_vec * mu_c, d_pre_c)
    g.w_c4 += np.outer(zp_vec * (1.0 - mu_c), d_pre_c)
    g.b_c2 += d_pre_c
    s3 = d_pre_c @ p.w_c3.T
    s4 = d_pre_c @ p.w_c4.T
    d_z_vec += s3 * mu_c
    d_zp_vec += s4 * (1.0 - mu_c)
    d_mu_c = s3 * z_vec - s4 * zp_vec
    d_u_c = d_mu_c * mu_c * (1.0 - mu_c)
    g.w_c1 += np.outer(z_vec, d_u_c)
    g.w_c2 += np.outer(zp_vec, d_u_c)
    g.b_c1 += d_u_c
    d_z_vec += d_u_c @ p.w_c1.T
    d_zp_vec += d_u_c @ p.w_c2.T

    cols = np.arange(z.shape[1])
    d_zp = np.zeros_like(zp)
    d_zp[cache["idx_zp"], cols] += d_zp_vec
    d_z[cache["idx_z"], cols] += d_z_vec
    return d_zp, d_z


def descnet_forward(z: np.ndarray, bank: DescriptionBank, params: DescNetParams,
                    config: ModelConfig, rng=None, train=False):
    """Full adapter pass; returns (z_hat, cache)."""
    if bank.size * config.d != params.w_fuse.shape[0]:
        raise ValueError(f"bank of {bank.size} descriptions does not match fusion "
                         f"weights built for {params.w_fuse.shape[0] // config.d}")
    interact_fwd = coda_interact_forward if config.attention_variant == "coda" else dpa_interact_forward
    parts, part_caches = [], []
    for desc in bank.matrices:
        out, c = interact_fwd(z, desc)
        parts.append(out)
        part_caches.append(c)
    fused, fuse_cache = fuse_forward(parts, params, rng, train, config.dropout_p)
    zp = fused @ params.w_proj
    if config.use_igm:
        z_hat, igm_cache = igm_forward(zp, z, params)
    else:
        z_hat, igm_cache = zp, None
    cache = {"parts": part_caches, "fuse": fuse_cache, "fused": fused, "igm": igm_cache}
    return z_hat, cache


def descnet_backward(d_out: np.ndarray, cache, params: DescNetParams, config: ModelConfig,
                     g_desc: DescNetParams, d_bank: list[np.ndarray]) -> np.ndarray:
    """Mirror of ``descnet_forward``; returns the gradient w.r.t. z.

    Adds the gradient w.r.t. each description matrix into ``d_bank`` for the
    caller, which runs ``bank_backward`` once for the whole batch that shares
    the bank.
    """
    interact_bwd = coda_interact_backward if config.attention_variant == "coda" else dpa_interact_backward
    if config.use_igm:
        d_zp, d_z = igm_backward(d_out, cache["igm"], params, g_desc)
    else:
        d_zp = d_out
        d_z = 0.0
    g_desc.w_proj += cache["fused"].T @ d_zp
    d_fused = d_zp @ params.w_proj.T
    d_parts = fuse_backward(d_fused, cache["fuse"], params, g_desc, config.dropout_p)
    for j, (d_part, part_cache) in enumerate(zip(d_parts, cache["parts"])):
        d_z_j, d_desc_j = interact_bwd(d_part, part_cache)
        d_z = d_z + d_z_j
        d_bank[j] += d_desc_j
    return d_z

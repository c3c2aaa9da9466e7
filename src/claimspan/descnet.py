"""Description-infusing adapter: quasi-attention over an encoded description
bank, description fusion, and an interactive gating mechanism.

The adapter takes the running token representation Z (the packed rows of a
chunk's sequences, rows x d) and lets every token interact with all m encoded
claim descriptions through compositional de-attention (weights in (-1, 1), so
descriptions can add, ignore, or subtract). The bank is packed like a chunk,
so a chunk computes one (rows, bank rows) CoDA matrix, its L1 term found
from per-feature maxima (sum |q - k| = 2 sum max(q, k) - sum q - sum k),
summed one feature column at a time so that no (rows, bank rows, d)
temporary is ever built; description j's columns of it times j's own key
rows give column block j of the (rows, m*d) fusion input.

The interactive gating mechanism then rescales each sequence's rows of Z by
a d-vector pooled from that sequence. With z and z' the max-pooled rows of Z
and of the projected fusion output, a gate is tanh((z * mu) W3 + (z' * mu')
W4 + b2), mu = sigmoid(z W1 + z' W2 + b1), where mu' is 1 - mu for the
conflict gate and mu for the refine gate; refine + (1 - mu_refine) * conflict
then goes through one more tanh projection.
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
class GateParams:
    """One IGM gate's tensors, in the order they are drawn and stored."""

    w1: np.ndarray   # d x d, pooled post vector into mu
    w2: np.ndarray   # d x d, pooled description vector into mu
    w3: np.ndarray   # d x d, weighted post vector into the gate output
    w4: np.ndarray   # d x d, weighted description vector into the gate output
    b1: np.ndarray
    b2: np.ndarray


@dataclass
class DescNetParams:
    """The adapter's tensors; with ``use_igm`` off the four IGM fields are
    None, so none of them is drawn or stored."""

    description_encoder: EncoderBlockParams
    w_fuse: np.ndarray   # (m*d) x d, fuses the concatenated interactions
    b_fuse: np.ndarray
    w_proj: np.ndarray   # d x d, applied to the fused output before gating
    conflict: GateParams | None = None
    refine: GateParams | None = None
    w_a: np.ndarray | None = None
    b_a: np.ndarray | None = None


@dataclass
class DescriptionBank:
    """Encoded claim descriptions, packed as one chunk: ``keys`` holds every
    description's tokens as (bank rows, d), both keys and values, and
    ``packing`` where each description sits. ``cache`` holds the packed token
    ids and encoder intermediates so gradients can flow back into the shared
    embeddings and the dedicated encoder block. A chunk's CoDA interaction
    with the bank allocates (rows, bank rows) arrays, never one of
    (rows, bank rows, d).
    """

    keys: np.ndarray
    packing: Packing
    cache: dict

    @property
    def size(self) -> int:
        return self.packing.size

    @property
    def blocks(self) -> list[tuple[slice, slice]]:
        """Description j's bank rows and column block of a (rows, m*d) output."""
        d, starts = self.keys.shape[1], self.packing.starts.tolist()
        return [(slice(lo, lo + n), slice(j * d, (j + 1) * d))
                for j, (lo, n) in enumerate(zip(starts, self.packing.lengths.tolist()))]


def init_gate_params(rng: np.random.Generator | None, d: int) -> GateParams:
    w1, w2, w3, w4 = (init_normal(rng, d, d) for _ in range(4))
    return GateParams(w1, w2, w3, w4, b1=np.zeros(d), b2=np.zeros(d))


def init_descnet_params(rng: np.random.Generator, config: ModelConfig, bank_size: int) -> DescNetParams:
    if bank_size < 1:
        raise ValueError("description bank must hold at least one description")
    d = config.d
    params = DescNetParams(
        description_encoder=init_block_params(rng, d, config.d_ff),
        w_fuse=init_normal(rng, bank_size * d, d),
        b_fuse=np.zeros(d),
        w_proj=init_normal(rng, d, d),
    )
    if config.use_igm:
        params.conflict, params.refine = init_gate_params(rng, d), init_gate_params(rng, d)
        params.w_a, params.b_a = init_normal(rng, d, d), np.zeros(d)
    return params


def load_bank_texts(path) -> list[str]:
    """One description per line; '#' comments and blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        texts = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    if not texts:
        raise ValueError(f"description bank {path} holds no descriptions")
    return texts


def encode_description_bank(token_id_lists: list[list[int]], enc_params: EncoderParams,
                            desc_block: EncoderBlockParams, config: ModelConfig) -> DescriptionBank:
    """Embed each description's token ids (none empty) with the shared tables
    and run the dedicated encoder block (no dropout on the description path)."""
    if not token_id_lists:
        raise ValueError("empty description bank")
    packing = Packing([len(ids) for ids in token_id_lists])
    flat = np.array([t for ids in token_id_lists for t in ids], dtype=np.intp)
    z0 = embed(flat, enc_params, config, packing)
    out, block_cache = encoder_block_forward(z0, desc_block, config, packing)
    return DescriptionBank(out, packing, {"ids": flat, "block": block_cache})


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
    # L1 distance as 2 sum_f max(q_f, k_f) - sum_f q_f - sum_f k_f: two NumPy
    # passes per feature column, one fewer than |q_f - k_f| needs, and no
    # temporary outgrows (rows, tokens)
    acc = np.zeros(t.shape)
    col = np.empty(t.shape)
    for q_f, k_f in zip(q.T, k.T):
        np.maximum(q_f[:, None], k_f, out=col)
        acc += col
    # acc becomes exp(-l1 / scale) in place; -l1 is clamped at 0, which
    # roundoff can overshoot where a query row equals a key row, so the gate
    # is at most 1/2 and exp needs no guard against overflow
    acc *= -2.0
    acc += q.sum(axis=1)[:, None]
    acc += k.sum(axis=1)
    np.minimum(acc, 0.0, out=acc)
    acc /= scale
    np.exp(acc, out=acc)
    gs = acc / (1.0 + acc)
    return t * gs, {"q": q, "k": k, "t": t, "gs": gs, "scale": scale}


def coda_backward(d_a: np.ndarray, cache):
    q, k, t, gs, scale = cache["q"], cache["k"], cache["t"], cache["gs"], cache["scale"]
    d_t = d_a * gs
    d_gs = d_a * t
    d_s = d_t * (1.0 - t**2) / scale
    d_q = d_s @ k
    d_k = d_s.T @ q
    d_g = d_gs * gs * (1.0 - gs) / scale
    # d_g times the sign of q - k (0 on a tie), one feature column at a time;
    # its row and column sums are products with ones, which BLAS runs faster
    # than NumPy's reductions at these shapes
    term = np.empty(d_g.shape)
    ones_rows, ones_keys = np.ones(len(q)), np.ones(len(k))
    for f, (q_f, k_f) in enumerate(zip(q.T, k.T)):
        np.subtract(q_f[:, None], k_f, out=term)
        np.sign(term, out=term)
        term *= d_g
        d_q[:, f] -= term @ ones_keys
        d_k[:, f] += ones_rows @ term
    return d_q, d_k


def _apply_per_description(w: np.ndarray, bank: DescriptionBank) -> np.ndarray:
    """(rows, bank rows) weights to (rows, m*d): ``w_j @ keys_j`` in block j."""
    out = np.empty((len(w), bank.size * bank.keys.shape[1]))
    for rows, cols in bank.blocks:
        np.matmul(w[:, rows], bank.keys[rows], out=out[:, cols])
    return out


def _per_description_backward(d_out: np.ndarray, w: np.ndarray, bank: DescriptionBank):
    """(d_w, d_keys) of ``_apply_per_description`` from j's products alone."""
    d_w, d_keys = np.empty(w.shape), np.empty(bank.keys.shape)
    for rows, cols in bank.blocks:
        np.matmul(d_out[:, cols], bank.keys[rows].T, out=d_w[:, rows])
        np.matmul(w[:, rows].T, d_out[:, cols], out=d_keys[rows])
    return d_w, d_keys


def coda_interact_forward(z: np.ndarray, bank: DescriptionBank):
    """Tokens-to-descriptions interaction: one CoDA matrix of z against every
    token of the bank, each description's columns applied to its tokens."""
    a, a_cache = coda_forward(z, bank.keys)
    return _apply_per_description(a, bank), {"a": a, "a_cache": a_cache, "bank": bank}


def coda_interact_backward(d_out: np.ndarray, cache):
    """Returns (d_z, d_keys) for a (rows, m*d) upstream gradient."""
    d_a, d_values = _per_description_backward(d_out, cache["a"], cache["bank"])
    d_z, d_k = coda_backward(d_a, cache["a_cache"])
    return d_z, d_values + d_k


def dpa_interact_forward(z: np.ndarray, bank: DescriptionBank):
    """Ablation variant: plain dot-product attention, one softmax over each
    description's tokens."""
    scale = np.sqrt(z.shape[1])
    starts, seg = bank.packing.starts, bank.packing.seg
    s = z @ bank.keys.T / scale
    e = np.exp(s - np.maximum.reduceat(s, starts, axis=1)[:, seg])
    p = e / np.add.reduceat(e, starts, axis=1)[:, seg]
    return _apply_per_description(p, bank), {"p": p, "z": z, "bank": bank, "scale": scale}


def dpa_interact_backward(d_out: np.ndarray, cache):
    """Returns (d_z, d_keys) for a (rows, m*d) upstream gradient."""
    p, z, bank, scale = cache["p"], cache["z"], cache["bank"], cache["scale"]
    d_p, d_values = _per_description_backward(d_out, p, bank)
    inner = np.add.reduceat(d_p * p, bank.packing.starts, axis=1)[:, bank.packing.seg]
    d_s = p * (d_p - inner) / scale
    return d_s @ bank.keys, d_values + d_s.T @ z


def fuse_forward(concat: np.ndarray, params: DescNetParams, rng, dropout_p):
    """Fuses the (rows, m*d) interaction outputs into (rows, d)."""
    dropped, mask = dropout(concat, dropout_p, rng)
    fused = np.tanh(dropped @ params.w_fuse + params.b_fuse)
    return fused, {"dropped": dropped, "mask": mask, "fused": fused}


def fuse_backward(d_fused: np.ndarray, cache, params: DescNetParams, g: DescNetParams, dropout_p):
    fused = cache["fused"]
    d_pre = d_fused * (1.0 - fused**2)
    g.w_fuse += cache["dropped"].T @ d_pre
    g.b_fuse += d_pre.sum(axis=0)
    return dropout_backward(d_pre @ params.w_fuse.T, cache["mask"], dropout_p)


def _gate_forward(z_vec: np.ndarray, zp_vec: np.ndarray, p: GateParams, complement: bool):
    """One gate of the module docstring, its description side weighted by
    1 - mu if ``complement`` else by mu; returns (mu, out)."""
    mu = sigmoid(z_vec @ p.w1 + zp_vec @ p.w2 + p.b1)
    mu_p = 1.0 - mu if complement else mu
    return mu, np.tanh((z_vec * mu) @ p.w3 + (zp_vec * mu_p) @ p.w4 + p.b2)


def _gate_backward(d_out, d_mu, mu, out, z_vec, zp_vec, p: GateParams, g: GateParams,
                   d_z_vec, d_zp_vec, complement: bool) -> None:
    """Mirror of ``_gate_forward``: adds the weights' gradients into ``g`` and
    the pooled vectors' into ``d_z_vec`` and ``d_zp_vec``; ``d_mu`` is the
    gradient mu already takes from outside the gate."""
    mu_p = 1.0 - mu if complement else mu
    d_pre = d_out * (1.0 - out**2)
    g.w3 += (z_vec * mu).T @ d_pre
    g.w4 += (zp_vec * mu_p).T @ d_pre
    g.b2 += d_pre.sum(axis=0)
    s3 = d_pre @ p.w3.T
    s4 = d_pre @ p.w4.T
    d_z_vec += s3 * mu
    d_zp_vec += s4 * mu_p
    d_mu = d_mu + (s3 * z_vec - s4 * zp_vec if complement else s3 * z_vec + s4 * zp_vec)
    d_u = d_mu * mu * (1.0 - mu)
    g.w1 += z_vec.T @ d_u
    g.w2 += zp_vec.T @ d_u
    g.b1 += d_u.sum(axis=0)
    d_z_vec += d_u @ p.w1.T
    d_zp_vec += d_u @ p.w2.T


def igm_forward(zp: np.ndarray, z: np.ndarray, params: DescNetParams, packing: Packing):
    """Interactive gating: conflict/refine gates pooled from each sequence of
    the chunk rescale every row of that sequence in z; returns (out, cache).

    The gates of all sequences are (sequences, d) arrays.
    """
    if zp.shape != z.shape:
        raise ValueError(f"shape mismatch {zp.shape} vs {z.shape}")
    z_vec = np.maximum.reduceat(z, packing.starts, axis=0)
    zp_vec = np.maximum.reduceat(zp, packing.starts, axis=0)
    mu_c, conflict = _gate_forward(z_vec, zp_vec, params.conflict, complement=True)
    mu_r, refine = _gate_forward(z_vec, zp_vec, params.refine, complement=False)
    adaptive = refine + (1.0 - mu_r) * conflict
    gate = np.tanh(adaptive @ params.w_a + params.b_a)
    out = z * gate[packing.seg]
    return out, {
        "z": z, "zp": zp, "z_vec": z_vec, "zp_vec": zp_vec,
        "mu_c": mu_c, "conflict": conflict, "mu_r": mu_r, "refine": refine,
        "adaptive": adaptive, "gate": gate, "packing": packing,
    }


def igm_backward(d_out: np.ndarray, cache, p: DescNetParams, g: DescNetParams):
    """Returns (d_zp, d_z); the max-pool routes each pooled gradient to the
    first row holding the maximum, the gate carries gradient to every row."""
    z, zp, packing = cache["z"], cache["zp"], cache["packing"]
    z_vec, zp_vec = cache["z_vec"], cache["zp_vec"]
    mu_r, conflict, gate = cache["mu_r"], cache["conflict"], cache["gate"]

    d_z = d_out * gate[packing.seg]
    d_gate = packing.seg_sum(d_out * z)
    d_pre_gate = d_gate * (1.0 - gate**2)
    g.w_a += cache["adaptive"].T @ d_pre_gate
    g.b_a += d_pre_gate.sum(axis=0)
    d_adaptive = d_pre_gate @ p.w_a.T

    d_z_vec, d_zp_vec = np.zeros_like(z_vec), np.zeros_like(zp_vec)
    _gate_backward(d_adaptive, -d_adaptive * conflict, mu_r, cache["refine"], z_vec, zp_vec,
                   p.refine, g.refine, d_z_vec, d_zp_vec, complement=False)
    _gate_backward(d_adaptive * (1.0 - mu_r), 0.0, cache["mu_c"], conflict, z_vec, zp_vec,
                   p.conflict, g.conflict, d_z_vec, d_zp_vec, complement=True)

    # each (row, column) pair is the maximum of one sequence only
    cols = np.arange(z.shape[1])
    d_zp = np.zeros_like(zp)
    d_zp[_first_max_rows(zp, zp_vec, packing), cols] += d_zp_vec
    d_z[_first_max_rows(z, z_vec, packing), cols] += d_z_vec
    return d_zp, d_z


def _first_max_rows(x: np.ndarray, x_vec: np.ndarray, packing: Packing) -> np.ndarray:
    """For each sequence and column, the first row equal to the column's
    maximum in ``x_vec``, as a (sequences, width) array: a row that is not
    equal counts as ``n_rows``, and each sequence takes its least row."""
    rows = np.where(x == x_vec[packing.seg], np.arange(packing.n_rows)[:, None], packing.n_rows)
    return np.minimum.reduceat(rows, packing.starts, axis=0)


def descnet_forward(z: np.ndarray, bank: DescriptionBank, params: DescNetParams,
                    config: ModelConfig, packing: Packing, rng=None):
    """Full adapter pass over a chunk's packed rows; returns (z_hat, cache)."""
    if bank.size * config.d != params.w_fuse.shape[0]:
        raise ValueError(f"bank of {bank.size} descriptions does not match fusion "
                         f"weights built for {params.w_fuse.shape[0] // config.d}")
    interact_fwd = coda_interact_forward if config.attention_variant == "coda" else dpa_interact_forward
    concat, interact_cache = interact_fwd(z, bank)
    fused, fuse_cache = fuse_forward(concat, params, rng, config.dropout_p)
    zp = fused @ params.w_proj
    z_hat, igm_cache = igm_forward(zp, z, params, packing) if config.use_igm else (zp, None)
    return z_hat, {"interact": interact_cache, "fuse": fuse_cache, "igm": igm_cache}


def descnet_backward(d_out: np.ndarray, cache, params: DescNetParams, config: ModelConfig,
                     g_desc: DescNetParams, d_bank: np.ndarray) -> np.ndarray:
    """Mirror of ``descnet_forward``; returns the gradient w.r.t. z.

    Adds the gradient w.r.t. the bank's keys into ``d_bank`` for the caller,
    which runs ``bank_backward`` once for the whole batch that shares the
    bank.
    """
    interact_bwd = coda_interact_backward if config.attention_variant == "coda" else dpa_interact_backward
    d_zp, d_z = igm_backward(d_out, cache["igm"], params, g_desc) if config.use_igm else (d_out, None)
    g_desc.w_proj += cache["fuse"]["fused"].T @ d_zp
    d_fused = d_zp @ params.w_proj.T
    d_concat = fuse_backward(d_fused, cache["fuse"], params, g_desc, config.dropout_p)
    d_z_interact, d_keys = interact_bwd(d_concat, cache["interact"])
    d_bank += d_keys
    return d_z_interact if d_z is None else d_z + d_z_interact

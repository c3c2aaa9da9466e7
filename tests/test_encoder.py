import numpy as np
import pytest

import claimspan.model as model_mod
from claimspan.encoder import (
    ModelConfig,
    embed,
    encoder_block_backward,
    encoder_block_forward,
    ffn_backward,
    ffn_forward,
    init_block_params,
    init_encoder_params,
    mhsa_backward,
    mhsa_forward,
)
from claimspan.numerics import (
    dropout,
    dropout_backward,
    flat_views,
    gelu,
    gelu_backward,
    layer_norm,
    layer_norm_backward,
    named_arrays,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
)
from claimspan.model import build_bank, sequence_forward
from claimspan.packing import Packing

from oracles import layer_norm_methods, sigmoid_masked, softmax_rows_methods


def fd_grad(f, x, step=1e-6):
    """Central finite differences of scalar f over array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# numerics

def test_softmax_rows_normalized_and_stable():
    x = np.array([[1e4, 1e4 + 1.0], [-5.0, 3.0]])
    p = softmax_rows(x)
    assert np.allclose(p.sum(axis=-1), 1.0)
    assert np.all(p > 0)


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5))
    c = rng.normal(size=(3, 5))
    p = softmax_rows(x)
    analytic = softmax_rows_backward(p, c)
    fd = fd_grad(lambda: float((softmax_rows(x) * c).sum()), x)
    assert np.allclose(analytic, fd, atol=1e-8)


def test_gelu_values_and_grad():
    x = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    y, cache = gelu(x)
    assert y[2] == 0.0
    assert y[4] == pytest.approx(3.0, abs=0.02)
    assert y[0] == pytest.approx(0.0, abs=0.005)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    c = rng.normal(size=(4, 6))
    _y, cache = gelu(x)
    analytic = gelu_backward(c, x, cache)
    fd = fd_grad(lambda: float((gelu(x)[0] * c).sum()), x)
    assert np.allclose(analytic, fd, atol=1e-8)


def test_layer_norm_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(3.0, 5.0, size=(7, 16))
    out, _cache = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-9)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-5)


def test_layer_norm_backward_matches_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8))
    gain = 1.0 + 0.1 * rng.normal(size=8)
    bias = 0.1 * rng.normal(size=8)
    c = rng.normal(size=(4, 8))
    _out, cache = layer_norm(x, gain, bias)
    dx, dgain, dbias = layer_norm_backward(c, cache, gain)
    fd_x = fd_grad(lambda: float((layer_norm(x, gain, bias)[0] * c).sum()), x)
    fd_gain = fd_grad(lambda: float((layer_norm(x, gain, bias)[0] * c).sum()), gain)
    fd_bias = fd_grad(lambda: float((layer_norm(x, gain, bias)[0] * c).sum()), bias)
    assert np.allclose(dx, fd_x, atol=1e-7)
    assert np.allclose(dgain, fd_gain, atol=1e-7)
    assert np.allclose(dbias, fd_bias, atol=1e-7)


def test_softmax_rows_and_layer_norm_bitwise_equal_to_method_versions():
    # attention-shaped (sequences, heads, longest, longest) scores, some keys
    # masked to -inf as padding leaves them, token- and FFN-shaped rows, and
    # constant rows, whose layer-norm variance is 0
    rng = np.random.default_rng(11)
    scores = rng.normal(scale=3.0, size=(5, 4, 9, 9))
    scores[1, ..., 6:] = -np.inf
    scores[3, ..., 1:] = -np.inf
    rows = [rng.normal(scale=s, size=(r, w)) * 10.0 ** rng.uniform(-3, 3, size=(r, 1))
            for r, w, s in [(103, 32, 1.0), (103, 64, 4.0), (7, 16, 1e-3)]]
    constant = np.repeat(rng.normal(size=(6, 1)), 32, axis=1)
    constant[0] = 0.0
    for x in (scores, *rows, constant):
        assert np.array_equal(softmax_rows(x), softmax_rows_methods(x))
    for x in (*rows, constant):
        gain, bias = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[1])
        out, (u, inv) = layer_norm(x, gain, bias)
        ref_out, (ref_u, ref_inv) = layer_norm_methods(x, gain, bias)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(u, ref_u) and np.array_equal(inv, ref_inv)


def test_sigmoid_bitwise_equal_to_masked_version():
    # edges (signed zeros, exp under- and overflow range, the largest and
    # subnormal magnitudes) and random values of every scale
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, tiny, -tiny, 2.2e-308,
                      -2.2e-308, 36.7, -36.7, 709.8, -709.8, 1.0, -1.0])
    rng = np.random.default_rng(0)
    random = rng.normal(size=(9, 32)) * 10.0 ** rng.uniform(-320, 3, size=(9, 32))
    for x in (edges, random, random.T):
        got = sigmoid(x)
        assert got.shape == x.shape
        assert got.tobytes() == sigmoid_masked(x).tobytes()


def test_dropout_train_eval_and_backward():
    rng = np.random.default_rng(4)
    x = np.ones((50, 20))
    out, mask = dropout(x, 0.4, rng)
    kept = out != 0
    assert np.all(out[kept] == pytest.approx(1.0 / 0.6))
    assert 0.3 < 1 - kept.mean() < 0.5
    out_eval, mask_eval = dropout(x, 0.4, None)
    assert mask_eval is None and np.array_equal(out_eval, x)
    d = dropout_backward(np.ones_like(x), mask, 0.4)
    assert np.array_equal(d != 0, kept)
    assert np.all(d[kept] == pytest.approx(1.0 / 0.6))


# ---------------------------------------------------------------------------
# embedding and attention

def test_embed_shape_and_errors(tiny_config):
    rng = np.random.default_rng(0)
    params = init_encoder_params(rng, tiny_config, 30)
    z = embed([1, 2, 3], params, tiny_config, Packing([3]))
    assert z.shape == (3, tiny_config.d)
    with pytest.raises(ValueError):
        embed([], params, tiny_config, Packing([0]))
    with pytest.raises(ValueError):
        embed([99], params, tiny_config, Packing([1]))
    with pytest.raises(ValueError, match="2 token ids for a chunk of 3 rows"):
        embed([1, 2], params, tiny_config, Packing([3]))
    n = tiny_config.max_len + 1
    with pytest.raises(ValueError):
        embed(list(range(n)), params, tiny_config, Packing([n]))


def test_init_rejects_oversized_vocab(tiny_config):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        init_encoder_params(rng, tiny_config, tiny_config.vocab_size + 1)


def test_attention_probabilities_row_normalized():
    rng = np.random.default_rng(5)
    blk = init_block_params(rng, 16, 32)
    z = rng.normal(size=(6, 16))
    _out, cache = mhsa_forward(z, blk, 2, Packing([6]))
    assert cache["probs"].shape == (1, 2, 6, 6)
    assert np.allclose(cache["probs"].sum(axis=-1), 1.0)


def test_attention_permutation_consistency():
    # self-attention with positions removed is permutation-equivariant
    rng = np.random.default_rng(6)
    blk = init_block_params(rng, 16, 32)
    z = rng.normal(size=(5, 16))
    perm = np.array([3, 1, 4, 0, 2])
    out = mhsa_forward(z, blk, 2, Packing([5]))[0]
    out_p = mhsa_forward(z[perm], blk, 2, Packing([5]))[0]
    assert np.allclose(out[perm], out_p, atol=1e-12)


def _block_fd_case(seed=7, d=8, h=2, d_ff=12, n=4):
    rng = np.random.default_rng(seed)
    blk = init_block_params(rng, d, d_ff)
    for _name, arr in named_arrays(blk):
        arr[...] = 0.4 * rng.normal(size=arr.shape)
    blk.ln1_gain[...] = 1.0 + 0.1 * rng.normal(size=d)
    blk.ln2_gain[...] = 1.0 + 0.1 * rng.normal(size=d)
    z = rng.normal(size=(n, d))
    c = rng.normal(size=(n, d))
    return blk, z, c


def test_mhsa_backward_matches_fd():
    blk, z, c = _block_fd_case()
    one = Packing([len(z)])
    out, cache = mhsa_forward(z, blk, 2, one)
    g = flat_views(blk)
    dz = mhsa_backward(c, cache, blk, g)
    fd_z = fd_grad(lambda: float((mhsa_forward(z, blk, 2, one)[0] * c).sum()), z)
    assert np.allclose(dz, fd_z, atol=1e-6)
    fd_wq = fd_grad(lambda: float((mhsa_forward(z, blk, 2, one)[0] * c).sum()), blk.w_q)
    assert np.allclose(g.w_q, fd_wq, atol=1e-6)
    fd_bv = fd_grad(lambda: float((mhsa_forward(z, blk, 2, one)[0] * c).sum()), blk.b_v)
    assert np.allclose(g.b_v, fd_bv, atol=1e-6)


def test_ffn_backward_matches_fd():
    blk, z, c = _block_fd_case(seed=8)
    _out, cache = ffn_forward(z, blk)
    g = flat_views(blk)
    dz = ffn_backward(c, cache, blk, g)
    fd_z = fd_grad(lambda: float((ffn_forward(z, blk)[0] * c).sum()), z)
    assert np.allclose(dz, fd_z, atol=1e-6)
    fd_w1 = fd_grad(lambda: float((ffn_forward(z, blk)[0] * c).sum()), blk.w_ff1)
    assert np.allclose(g.w_ff1, fd_w1, atol=1e-6)


def test_block_on_ragged_chunk_matches_each_sequence():
    # attention stays within each sequence: a ragged chunk gives every
    # sequence the rows it gets alone, and its backward matches differences
    blk, _z, _c = _block_fd_case(seed=10)
    config = ModelConfig(d=8, h=2, d_ff=12, layers=1, max_len=8, vocab_size=16,
                         dropout_p=0.0, adapter_layer=1)
    packing = Packing([3, 1, 4])
    rng = np.random.default_rng(11)
    z = rng.normal(size=(8, 8))
    c = rng.normal(size=(8, 8))
    out, cache = encoder_block_forward(z, blk, config, packing)
    for lo, n in zip(packing.starts, packing.lengths):
        alone = encoder_block_forward(z[lo:lo + n], blk, config, Packing([n]))[0]
        assert np.max(np.abs(out[lo:lo + n] - alone)) < 1e-12

    def loss():
        return float((encoder_block_forward(z, blk, config, packing)[0] * c).sum())

    g = flat_views(blk)
    dz = encoder_block_backward(c, cache, blk, config, g)
    assert np.allclose(dz, fd_grad(loss, z), atol=1e-6)
    assert np.allclose(g.w_k, fd_grad(loss, blk.w_k), atol=1e-6)
    assert np.allclose(g.w_v, fd_grad(loss, blk.w_v), atol=1e-6)


def test_block_backward_matches_fd():
    blk, z, c = _block_fd_case(seed=9)
    config = ModelConfig(d=8, h=2, d_ff=12, layers=1, max_len=8, vocab_size=16,
                         dropout_p=0.0, adapter_layer=1)
    one = Packing([len(z)])
    _out, cache = encoder_block_forward(z, blk, config, one)
    g = flat_views(blk)
    dz = encoder_block_backward(c, cache, blk, config, g)
    def loss():
        return float((encoder_block_forward(z, blk, config, one)[0] * c).sum())
    assert np.allclose(dz, fd_grad(loss, z), atol=1e-6)
    assert np.allclose(g.w_o, fd_grad(loss, blk.w_o), atol=1e-6)
    assert np.allclose(g.ln1_gain, fd_grad(loss, blk.ln1_gain), atol=1e-6)


# ---------------------------------------------------------------------------
# full encoder stack, run through the model's sequence forward pass

@pytest.fixture
def tiny_bank(tiny_config, tiny_vocab, tiny_params):
    return build_bank(["claims with numbers", "a quote"], tiny_vocab, tiny_params, tiny_config)


def zero_adapter(monkeypatch):
    """Replace the adapter by one that records its input shapes and outputs zeros."""
    calls = []

    def adapter(z, bank, params, config, packing, rng=None):
        calls.append(z.shape)
        return np.zeros_like(z), None

    monkeypatch.setattr(model_mod, "descnet_forward", adapter)
    return calls


def test_encode_deterministic_and_shaped(tiny_config, tiny_params, tiny_bank):
    ids = [3, 1, 4, 1, 5]
    e1, cache = sequence_forward(tiny_params, tiny_config, ids, tiny_bank, Packing([5]))
    e2 = sequence_forward(tiny_params, tiny_config, ids, tiny_bank, Packing([5]))[0]
    assert cache["z"].shape == (5, tiny_config.d)
    assert e1.shape == (5, 3)
    assert np.array_equal(e1, e2)


def test_encode_position_sensitivity(tiny_config, tiny_params, tiny_bank):
    a = sequence_forward(tiny_params, tiny_config, [3, 1, 4], tiny_bank, Packing([3]))[0]
    b = sequence_forward(tiny_params, tiny_config, [4, 1, 3], tiny_bank, Packing([3]))[0]
    assert not np.allclose(a, b)


def test_adapter_rewrites_representation(monkeypatch, tiny_config, tiny_params, tiny_bank):
    calls = zero_adapter(monkeypatch)
    e, _cache = sequence_forward(tiny_params, tiny_config, [3, 1, 4], tiny_bank, Packing([3]))
    assert calls == [(3, tiny_config.d)]
    # adapter at layer 2 of 2: zeroed output goes through no further blocks
    assert np.array_equal(e, np.broadcast_to(tiny_params.crf.b_emit, e.shape))


def test_dropout_zero_train_equals_eval(tiny_config, tiny_params, tiny_bank):
    ids = [2, 7, 9]
    e_eval = sequence_forward(tiny_params, tiny_config, ids, tiny_bank, Packing([3]))[0]
    e_train = sequence_forward(tiny_params, tiny_config, ids, tiny_bank, Packing([3]),
                               rng=np.random.default_rng(1))[0]
    assert np.array_equal(e_eval, e_train)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimspan.descnet import (
    DescNetParams,
    DescriptionBank,
    coda_forward,
    coda_interact_backward,
    coda_interact_forward,
    dpa_interact_backward,
    dpa_interact_forward,
    encode_description_bank,
    fuse_backward,
    fuse_forward,
    igm_backward,
    igm_forward,
    init_descnet_params,
    load_bank_texts,
)
from claimspan.encoder import ModelConfig
from claimspan.numerics import named_arrays, zeros_like_struct
from claimspan.packing import Packing

from oracles import coda_scalar, igm_scalar, interact_per_description
from test_encoder import fd_grad


def rand_descnet(rng, d, bank_size=2, scale=0.4) -> DescNetParams:
    cfg = ModelConfig(d=d, h=1, d_ff=2 * d, layers=1, max_len=8, vocab_size=16,
                      dropout_p=0.0, adapter_layer=1)
    params = init_descnet_params(rng, cfg, bank_size)
    for _name, arr in named_arrays(params):
        arr[...] = scale * rng.normal(size=arr.shape)
    return params


def bank_of(keys, lengths) -> DescriptionBank:
    """A bank over given keys: description j is the next ``lengths[j]`` rows,
    its values in column block j of an otherwise zero matrix."""
    packing = Packing(lengths)
    d = keys.shape[1]
    values = np.zeros((len(keys), len(lengths) * d))
    for j, (lo, n) in enumerate(zip(packing.starts, lengths)):
        values[lo:lo + n, j * d:(j + 1) * d] = keys[lo:lo + n]
    return DescriptionBank([f"d{j}" for j in range(len(lengths))], keys, packing, values, {})


# ---------------------------------------------------------------------------
# CoDA

def test_coda_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, m, d = (int(x) for x in rng.integers(1, 7, size=3))
        q = rng.normal(scale=2.0, size=(n, d))
        k = rng.normal(scale=2.0, size=(m, d))
        assert np.max(np.abs(coda_forward(q, k)[0] - coda_scalar(q, k))) < 1e-12


def test_coda_entries_strictly_inside_unit_interval():
    rng = np.random.default_rng(1)
    for scale in (0.1, 1.0, 100.0):
        q = rng.normal(scale=scale, size=(5, 8))
        k = rng.normal(scale=scale, size=(4, 8))
        a = coda_forward(q, k)[0]
        assert np.all(a > -1.0) and np.all(a < 1.0)


def test_coda_identical_rows_give_half_tanh():
    # q == k row: L1 distance 0, so the sigmoid damping is exactly 1/2
    q = np.array([[0.3, -0.7, 1.1]])
    a = coda_forward(q, q.copy())[0]
    expected = 0.5 * np.tanh((q @ q.T)[0, 0] / np.sqrt(3))
    assert a[0, 0] == pytest.approx(expected, abs=1e-15)


def test_coda_rows_are_not_normalized():
    rng = np.random.default_rng(2)
    a = coda_forward(rng.normal(size=(3, 6)), rng.normal(size=(5, 6)))[0]
    assert not np.allclose(a.sum(axis=1), 1.0)


def test_coda_interact_backward_matches_fd():
    rng = np.random.default_rng(3)
    lengths = [3, 1, 2]
    z = rng.normal(size=(4, 6))
    keys = rng.normal(size=(6, 6))
    c = rng.normal(size=(4, 3 * 6))
    _out, cache = coda_interact_forward(z, bank_of(keys, lengths))
    d_z, d_keys = coda_interact_backward(c, cache)
    fd_z = fd_grad(lambda: float((coda_interact_forward(z, bank_of(keys, lengths))[0] * c).sum()), z)
    fd_keys = fd_grad(lambda: float((coda_interact_forward(z, bank_of(keys, lengths))[0] * c).sum()),
                      keys)
    assert np.allclose(d_z, fd_z, atol=1e-7)
    assert np.allclose(d_keys, fd_keys, atol=1e-7)


def test_dpa_rows_normalized_and_backward():
    rng = np.random.default_rng(4)
    lengths = [3, 1, 2]
    z = rng.normal(size=(4, 6))
    keys = rng.normal(size=(6, 6))
    c = rng.normal(size=(4, 3 * 6))
    bank = bank_of(keys, lengths)
    _out, cache = dpa_interact_forward(z, bank)
    # one distribution over each description's tokens
    assert np.allclose(np.add.reduceat(cache["p"], bank.packing.starts, axis=1), 1.0)
    d_z, d_keys = dpa_interact_backward(c, cache)
    fd_z = fd_grad(lambda: float((dpa_interact_forward(z, bank_of(keys, lengths))[0] * c).sum()), z)
    fd_keys = fd_grad(lambda: float((dpa_interact_forward(z, bank_of(keys, lengths))[0] * c).sum()),
                      keys)
    assert np.allclose(d_z, fd_z, atol=1e-7)
    assert np.allclose(d_keys, fd_keys, atol=1e-7)


@settings(max_examples=60)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       rows=st.integers(1, 6), d=st.integers(1, 6), seed=st.integers(0, 2**16),
       variant=st.sampled_from(["coda", "dpa"]))
@example(lengths=[1, 1, 1], rows=3, d=4, seed=0, variant="coda")
@example(lengths=[1, 1, 1], rows=3, d=4, seed=0, variant="dpa")
@example(lengths=[4], rows=5, d=3, seed=1, variant="coda")
@example(lengths=[4], rows=5, d=3, seed=1, variant="dpa")
@example(lengths=[1, 5, 2], rows=2, d=6, seed=2, variant="coda")
@example(lengths=[1, 5, 2], rows=2, d=6, seed=2, variant="dpa")
def test_bank_interaction_matches_per_description_oracle(lengths, rows, d, seed, variant):
    # one interaction against the packed bank equals running each description
    # on its own and concatenating, forward and backward
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(sum(lengths), d))
    z = rng.normal(size=(rows, d))
    d_out = rng.normal(size=(rows, len(lengths) * d))
    forward, backward = ((coda_interact_forward, coda_interact_backward) if variant == "coda"
                         else (dpa_interact_forward, dpa_interact_backward))
    out, cache = forward(z, bank_of(keys, lengths))
    d_z, d_keys = backward(d_out, cache)
    ref_out, ref_d_z, ref_d_keys = interact_per_description(
        variant, z, np.split(keys, np.cumsum(lengths)[:-1]), d_out)
    for got, ref in [(out, ref_out), (d_z, ref_d_z), (d_keys, ref_d_keys)]:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


# ---------------------------------------------------------------------------
# IGM

def test_igm_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 9))
        p = rand_descnet(rng, d)
        z = rng.normal(size=(n, d))
        zp = rng.normal(size=(n, d))
        assert np.max(np.abs(igm_forward(zp, z, p)[0] - igm_scalar(zp, z, p))) < 1e-12


def test_igm_ragged_chunk_matches_scalar_oracle_per_sequence():
    # each sequence of a packed chunk is pooled and gated on its own
    rng = np.random.default_rng(15)
    for lengths in ([1, 4, 6], [3, 1, 2, 1], [2, 2], [5, 5, 1]):
        d = int(rng.integers(1, 9))
        p = rand_descnet(rng, d)
        packing = Packing(lengths)
        z = rng.normal(size=(packing.n_rows, d))
        zp = rng.normal(size=(packing.n_rows, d))
        out = igm_forward(zp, z, p, packing)[0]
        for lo, n in zip(packing.starts, lengths):
            rows = slice(lo, lo + n)
            assert np.max(np.abs(out[rows] - igm_scalar(zp[rows], z[rows], p))) < 1e-12


def test_igm_ragged_backward_matches_fd():
    rng = np.random.default_rng(16)
    d = 4
    p = rand_descnet(rng, d)
    packing = Packing([3, 1, 2])
    z = rng.normal(size=(6, d))
    zp = rng.normal(size=(6, d))
    c = rng.normal(size=(6, d))

    def loss():
        return float((igm_forward(zp, z, p, packing)[0] * c).sum())

    _out, cache = igm_forward(zp, z, p, packing)
    g = zeros_like_struct(p)
    d_zp, d_z = igm_backward(c, cache, p, g)
    assert np.allclose(d_zp, fd_grad(loss, zp), atol=1e-6)
    assert np.allclose(d_z, fd_grad(loss, z), atol=1e-6)
    for arr, grad in [(p.w_c2, g.w_c2), (p.w_r1, g.w_r1), (p.w_a, g.w_a), (p.b_r2, g.b_r2)]:
        assert np.allclose(grad, fd_grad(loss, arr), atol=1e-6)


def test_igm_never_amplifies():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        p = rand_descnet(rng, d, scale=1.5)
        z = rng.normal(scale=3.0, size=(n, d))
        zp = rng.normal(scale=3.0, size=(n, d))
        assert np.all(np.abs(igm_forward(zp, z, p)[0]) <= np.abs(z) + 1e-15)


def test_igm_shape_mismatch_rejected():
    rng = np.random.default_rng(7)
    p = rand_descnet(rng, 4)
    with pytest.raises(ValueError):
        igm_forward(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), p)


def test_igm_backward_matches_fd():
    rng = np.random.default_rng(8)
    d = 5
    p = rand_descnet(rng, d)
    z = rng.normal(size=(4, d))
    zp = rng.normal(size=(4, d))
    c = rng.normal(size=(4, d))
    _out, cache = igm_forward(zp, z, p)
    g = zeros_like_struct(p)
    d_zp, d_z = igm_backward(c, cache, p, g)
    fd_zp = fd_grad(lambda: float((igm_forward(zp, z, p)[0] * c).sum()), zp)
    fd_z = fd_grad(lambda: float((igm_forward(zp, z, p)[0] * c).sum()), z)
    assert np.allclose(d_zp, fd_zp, atol=1e-6)
    assert np.allclose(d_z, fd_z, atol=1e-6)
    for arr, grad in [(p.w_c1, g.w_c1), (p.w_c4, g.w_c4), (p.w_r3, g.w_r3),
                      (p.w_a, g.w_a), (p.b_c2, g.b_c2), (p.b_a, g.b_a)]:
        fd = fd_grad(lambda: float((igm_forward(zp, z, p)[0] * c).sum()), arr)
        assert np.allclose(grad, fd, atol=1e-6)


# ---------------------------------------------------------------------------
# fusion

def test_fuse_shapes_and_backward():
    rng = np.random.default_rng(9)
    d, m, n = 4, 3, 5
    cfg = ModelConfig(d=d, h=2, d_ff=8, layers=1, max_len=8, vocab_size=16,
                      dropout_p=0.0, adapter_layer=1)
    p = init_descnet_params(rng, cfg, m)
    for _name, arr in named_arrays(p):
        arr[...] = 0.4 * rng.normal(size=arr.shape)
    concat = rng.normal(size=(n, m * d))
    c = rng.normal(size=(n, d))
    fused, cache = fuse_forward(concat, p, None, False, 0.0)
    assert fused.shape == (n, d)
    assert np.all(np.abs(fused) < 1.0)
    g = zeros_like_struct(p)
    d_concat = fuse_backward(c, cache, p, g, 0.0)
    assert d_concat.shape == (n, m * d)
    fd = fd_grad(lambda: float((fuse_forward(concat, p, None, False, 0.0)[0] * c).sum()), concat)
    assert np.allclose(d_concat, fd, atol=1e-7)
    fd_w = fd_grad(lambda: float((fuse_forward(concat, p, None, False, 0.0)[0] * c).sum()),
                   p.w_fuse)
    assert np.allclose(g.w_fuse, fd_w, atol=1e-7)


# ---------------------------------------------------------------------------
# description bank

def test_bank_identical_texts_identical_matrices(tiny_config, tiny_params, tiny_vocab):
    texts = ["garlic cures flu", "garlic cures flu"]
    ids = [[tiny_vocab.lookup(w) for w in t.split()] for t in texts]
    bank = encode_description_bank(texts, ids, tiny_params.encoder,
                                   tiny_params.descnet.description_encoder, tiny_config)
    assert bank.size == 2
    first, second = np.split(bank.keys, bank.packing.starts[1:])
    assert np.array_equal(first, second)
    assert np.array_equal(bank.values, bank_of(bank.keys, [3, 3]).values)


def test_bank_single_description(tiny_config, tiny_params, tiny_vocab):
    bank = encode_description_bank(["claims with numbers"], [[1, 2, 3]],
                                   tiny_params.encoder,
                                   tiny_params.descnet.description_encoder, tiny_config)
    assert bank.size == 1
    assert bank.keys.shape == (3, tiny_config.d)
    assert np.array_equal(bank.values, bank.keys)


def test_bank_rejects_empty(tiny_config, tiny_params):
    with pytest.raises(ValueError):
        encode_description_bank([], [], tiny_params.encoder,
                                tiny_params.descnet.description_encoder, tiny_config)


def test_load_bank_texts(tmp_path):
    path = tmp_path / "bank.txt"
    path.write_text("# comment\n\nfirst description\n  second one  \n# more\n")
    assert load_bank_texts(path) == ["first description", "second one"]
    empty = tmp_path / "empty.txt"
    empty.write_text("# only comments\n")
    with pytest.raises(ValueError):
        load_bank_texts(empty)


def test_packaged_default_bank_has_six_descriptions():
    from importlib import resources
    ref = resources.files("claimspan.data").joinpath("claim_descriptions.txt")
    with resources.as_file(ref) as p:
        texts = load_bank_texts(p)
    assert len(texts) == 6
    assert any("statistics" in t for t in texts)
    assert any("sarcasm" in t for t in texts)
    assert any("quote" in t for t in texts)

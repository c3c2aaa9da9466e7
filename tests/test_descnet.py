import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimspan.descnet import (
    DescNetParams,
    DescriptionBank,
    coda_backward,
    coda_forward,
    coda_interact_backward,
    coda_interact_forward,
    descnet_forward,
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
from claimspan.numerics import flat_views, named_arrays
from claimspan.packing import Packing

from oracles import (
    coda_backward_3d,
    coda_forward_3d,
    coda_scalar,
    first_max_rows,
    igm_scalar,
    interact_per_description,
)
from test_encoder import fd_grad


def rand_descnet(rng, d, bank_size=2, scale=0.4) -> DescNetParams:
    cfg = ModelConfig(d=d, h=1, d_ff=2 * d, layers=1, max_len=8, vocab_size=16,
                      dropout_p=0.0, adapter_layer=1)
    params = init_descnet_params(rng, cfg, bank_size)
    for _name, arr in named_arrays(params):
        arr[...] = scale * rng.normal(size=arr.shape)
    return params


def bank_of(keys, lengths) -> DescriptionBank:
    """A bank over given keys: description j is the next ``lengths[j]`` rows."""
    return DescriptionBank(keys, Packing(lengths), {})


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


@settings(max_examples=80)
@given(rows=st.integers(1, 6), keys=st.integers(1, 8), d=st.integers(1, 6),
       seed=st.integers(0, 2**16), grid=st.booleans(), tie_row=st.booleans(),
       tie_feature=st.booleans())
@example(rows=1, keys=1, d=1, seed=0, grid=False, tie_row=True, tie_feature=False)
@example(rows=3, keys=1, d=4, seed=1, grid=False, tie_row=False, tie_feature=True)
@example(rows=4, keys=3, d=1, seed=2, grid=True, tie_row=False, tie_feature=False)
@example(rows=5, keys=6, d=5, seed=3, grid=False, tie_row=True, tie_feature=True)
def test_coda_matches_3d_reference(rows, keys, d, seed, grid, tie_row, tie_feature):
    # the L1 term summed one feature column at a time gives the forward pass
    # and both gradients of the (rows, tokens, d) reference, exact ties
    # included: a tied feature adds sign(0) = 0 to the gradient. ``keys=1``
    # is a one-token description; ``grid`` draws entries from five values,
    # so that many single features tie.
    rng = np.random.default_rng(seed)
    if grid:
        q = rng.integers(-2, 3, size=(rows, d)) / 2.0
        k = rng.integers(-2, 3, size=(keys, d)) / 2.0
    else:
        q = rng.normal(size=(rows, d))
        k = rng.normal(size=(keys, d))
    if tie_row:
        q[0] = k[-1]
    if tie_feature:
        f = int(rng.integers(d))
        q[-1, f] = k[0, f]
    d_a = rng.normal(size=(rows, keys))
    a, cache = coda_forward(q, k)
    ref_a, ref_cache = coda_forward_3d(q, k)
    for got, ref in zip((a, *coda_backward(d_a, cache)),
                        (ref_a, *coda_backward_3d(d_a, ref_cache))):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@settings(max_examples=60)
@given(rows=st.integers(1, 4), keys=st.integers(1, 4), d=st.integers(1, 40),
       seed=st.integers(0, 2**16), magnitude=st.sampled_from([0.1, 1.0, 10.0, 100.0]))
@example(rows=1, keys=1, d=32, seed=0, magnitude=1.0)
def test_coda_gate_of_equal_rows_stays_at_most_half(rows, keys, d, seed, magnitude):
    # L1 from sums of maxima leaves roundoff where a query row equals a key
    # row; the gate there is clamped to at most 1/2 and matches the reference
    rng = np.random.default_rng(seed)
    q = rng.normal(scale=magnitude, size=(rows, d))
    k = rng.normal(scale=magnitude, size=(keys, d))
    row, key = int(rng.integers(rows)), int(rng.integers(keys))
    q[row] = k[key]
    gs = coda_forward(q, k)[1]["gs"]
    assert gs[row, key] <= 0.5
    assert np.max(np.abs(gs - coda_forward_3d(q, k)[1]["gs"])) <= 1e-12


def test_coda_l1_of_large_entries():
    # entries of magnitude 1e3 at small L1 distances: the sums of maxima
    # cancel to l1 within 1e-12 of sum|q| + sum|k| of each pair, read back
    # from the gate sigmoid(-l1 / sqrt d)
    rng = np.random.default_rng(8)
    d = 32
    base = 1e3 * rng.choice([-1.0, 1.0], size=d)
    q = base + rng.normal(size=(6, d))
    k = base + rng.normal(size=(5, d))
    gs = coda_forward(q, k)[1]["gs"]
    l1 = np.sqrt(d) * (np.log1p(-gs) - np.log(gs))
    exact = np.abs(q[:, None, :] - k[None, :, :]).sum(axis=-1)
    magnitude = np.abs(q).sum(axis=1)[:, None] + np.abs(k).sum(axis=1)
    assert np.all(np.abs(l1 - exact) <= 1e-12 * magnitude)


def test_coda_never_allocates_a_rows_by_bank_rows_by_d_array():
    # forward plus backward of a 128-row chunk against a 9-description bank
    # of 88 tokens at d=32 peaks below one (128, 88, 32) float64 array
    rng = np.random.default_rng(6)
    q = rng.normal(size=(128, 32))
    k = rng.normal(size=(88, 32))
    d_a = rng.normal(size=(128, 88))
    tracemalloc.start()
    try:
        _a, cache = coda_forward(q, k)
        coda_backward(d_a, cache)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < q.shape[0] * k.shape[0] * q.shape[1] * 8


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
        assert np.max(np.abs(igm_forward(zp, z, p, Packing([n]))[0] - igm_scalar(zp, z, p))) < 1e-12


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
    g = flat_views(p)
    d_zp, d_z = igm_backward(c, cache, p, g)
    assert np.allclose(d_zp, fd_grad(loss, zp), atol=1e-6)
    assert np.allclose(d_z, fd_grad(loss, z), atol=1e-6)
    for arr, grad in [(p.conflict.w2, g.conflict.w2), (p.refine.w1, g.refine.w1),
                      (p.w_a, g.w_a), (p.refine.b2, g.refine.b2)]:
        assert np.allclose(grad, fd_grad(loss, arr), atol=1e-6)


@settings(max_examples=60)
@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4), d=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@example(lengths=[4, 1, 5], d=3, seed=0)
def test_igm_pooling_ties_go_to_the_first_maximum(lengths, d, seed):
    # entries from a 3-value grid, so columns often hold their maximum in
    # several rows: the pooled maxima are the segment maxima, and each pooled
    # column's gradient goes to the first row holding its maximum, whole
    rng = np.random.default_rng(seed)
    packing = Packing(lengths)
    z = rng.integers(-1, 2, size=(packing.n_rows, d)).astype(float)
    zp = rng.integers(-1, 2, size=(packing.n_rows, d)).astype(float)
    p = rand_descnet(rng, d)
    d_out = rng.normal(size=z.shape)
    _out, cache = igm_forward(zp, z, p, packing)
    d_zp, d_z = igm_backward(d_out, cache, p, flat_views(p))
    cols = np.arange(d)
    pooled = {"z": d_z - d_out * cache["gate"][packing.seg], "zp": d_zp}
    for name, x in (("z", z), ("zp", zp)):
        first = first_max_rows(x, lengths)
        assert np.array_equal(cache[f"{name}_vec"], x[first, cols])
        routed = np.zeros(x.shape, dtype=bool)
        routed[first, cols] = True
        assert not pooled[name][~routed].any()
    assert np.array_equal(d_zp[first_max_rows(zp, lengths), cols], packing.seg_sum(d_zp))


def test_igm_tied_maximum_routes_to_the_first_row():
    # column 0's maximum sits in two rows of each sequence, and column 1's in
    # two rows of the second: each pooled gradient goes to the first of them
    rng = np.random.default_rng(8)
    packing = Packing([2, 3])
    z = np.array([[1.0, 0.0], [1.0, 2.0], [3.0, 5.0], [3.0, 5.0], [0.0, 1.0]])
    p = rand_descnet(rng, 2)
    d_out = rng.normal(size=z.shape)
    _out, cache = igm_forward(0.5 * z, z, p, packing)
    d_zp, d_z = igm_backward(d_out, cache, p, flat_views(p))
    routed = np.array([[1, 0], [0, 1], [1, 1], [0, 0], [0, 0]], dtype=bool)
    assert np.array_equal(d_zp != 0, routed)
    assert np.array_equal(d_z - d_out * cache["gate"][packing.seg] != 0, routed)


def test_igm_never_amplifies():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        p = rand_descnet(rng, d, scale=1.5)
        z = rng.normal(scale=3.0, size=(n, d))
        zp = rng.normal(scale=3.0, size=(n, d))
        assert np.all(np.abs(igm_forward(zp, z, p, Packing([n]))[0]) <= np.abs(z) + 1e-15)


def test_igm_shape_mismatch_rejected():
    rng = np.random.default_rng(7)
    p = rand_descnet(rng, 4)
    with pytest.raises(ValueError):
        igm_forward(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), p, Packing([2]))


def test_igm_backward_matches_fd():
    rng = np.random.default_rng(8)
    d = 5
    p = rand_descnet(rng, d)
    z = rng.normal(size=(4, d))
    zp = rng.normal(size=(4, d))
    c = rng.normal(size=(4, d))
    one = Packing([4])

    def loss():
        return float((igm_forward(zp, z, p, one)[0] * c).sum())

    _out, cache = igm_forward(zp, z, p, one)
    g = flat_views(p)
    d_zp, d_z = igm_backward(c, cache, p, g)
    assert np.allclose(d_zp, fd_grad(loss, zp), atol=1e-6)
    assert np.allclose(d_z, fd_grad(loss, z), atol=1e-6)
    # every tensor of both gates, so both weightings of the description side
    tensors = [("w_a", p.w_a, g.w_a), ("b_a", p.b_a, g.b_a)]
    for group in ("conflict", "refine"):
        tensors += [(f"{group}.{name}", arr, grad) for (name, arr), (_name, grad)
                    in zip(named_arrays(getattr(p, group)), named_arrays(getattr(g, group)))]
    assert len(tensors) == 14
    for name, arr, grad in tensors:
        assert np.allclose(grad, fd_grad(loss, arr), atol=1e-6), name


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
    fused, cache = fuse_forward(concat, p, None, 0.0)
    assert fused.shape == (n, d)
    assert np.all(np.abs(fused) < 1.0)
    g = flat_views(p)
    d_concat = fuse_backward(c, cache, p, g, 0.0)
    assert d_concat.shape == (n, m * d)
    fd = fd_grad(lambda: float((fuse_forward(concat, p, None, 0.0)[0] * c).sum()), concat)
    assert np.allclose(d_concat, fd, atol=1e-7)
    fd_w = fd_grad(lambda: float((fuse_forward(concat, p, None, 0.0)[0] * c).sum()),
                   p.w_fuse)
    assert np.allclose(g.w_fuse, fd_w, atol=1e-7)


# ---------------------------------------------------------------------------
# description bank

def test_bank_identical_texts_identical_matrices(tiny_config, tiny_params, tiny_vocab):
    texts = ["garlic cures flu", "garlic cures flu"]
    ids = [tiny_vocab.ids(t.split()) for t in texts]
    bank = encode_description_bank(ids, tiny_params.encoder,
                                   tiny_params.descnet.description_encoder, tiny_config)
    assert bank.size == 2
    first, second = np.split(bank.keys, bank.packing.starts[1:])
    assert np.array_equal(first, second)
    # each description's rows give its own column block, so the two blocks
    # of any interaction output are equal too
    out = coda_interact_forward(np.ones((2, tiny_config.d)), bank)[0]
    assert np.array_equal(*np.split(out, 2, axis=1))


def test_bank_single_description(tiny_config, tiny_params, tiny_vocab):
    bank = encode_description_bank([[1, 2, 3]], tiny_params.encoder,
                                   tiny_params.descnet.description_encoder, tiny_config)
    assert bank.size == 1
    assert bank.keys.shape == (3, tiny_config.d)
    # a single description's keys are all the rows, so the interaction is
    # one product with them
    z = np.ones((2, tiny_config.d))
    out, cache = coda_interact_forward(z, bank)
    assert np.array_equal(out, cache["a"] @ bank.keys)


def test_bank_rejects_empty(tiny_config, tiny_params):
    with pytest.raises(ValueError):
        encode_description_bank([], tiny_params.encoder,
                                tiny_params.descnet.description_encoder, tiny_config)
    with pytest.raises(ValueError, match="at least one description"):
        init_descnet_params(np.random.default_rng(0), tiny_config, 0)


def test_adapter_rejects_a_bank_of_another_size(tiny_config, tiny_params):
    # tiny_params' fusion weights are built for two descriptions
    bank = encode_description_bank([[1, 2, 3]], tiny_params.encoder,
                                   tiny_params.descnet.description_encoder, tiny_config)
    with pytest.raises(ValueError, match="bank of 1 descriptions does not match fusion "
                                         "weights built for 2"):
        descnet_forward(np.ones((2, tiny_config.d)), bank, tiny_params.descnet, tiny_config,
                        Packing([2]))


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

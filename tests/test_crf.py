import numpy as np
import pytest

from claimspan.crf import (
    FORBIDDEN_SCORE,
    CrfParams,
    emissions_backward,
    emissions_from,
    forbidden_masks,
    INDEX_TAG,
    init_crf_params,
    nll_backward,
    nll_loss,
    pin_forbidden,
    score_sequence,
    tags_to_indices,
    viterbi_decode,
)
from claimspan.numerics import zeros_like_struct
from claimspan.packing import Packing

from oracles import crf_enumerate
from test_encoder import fd_grad


def rand_crf(rng, scale=1.0) -> CrfParams:
    crf = init_crf_params(rng, d=4)
    crf.transitions[...] = scale * rng.normal(size=(3, 3))
    crf.start_scores[...] = scale * rng.normal(size=3)
    crf.end_scores[...] = scale * rng.normal(size=3)
    pin_forbidden(crf)
    return crf


def log_z_and_marginals(e, crf, tags, packing=None):
    """log Z per sequence from the training loss and tag marginals from its
    gradient: nll_loss plus the gold score, and nll_backward's d_e plus the
    gold one-hot, for a packed chunk (one sequence when packing is None)."""
    tag_ids = tags_to_indices(tags)
    loss, messages = nll_loss(e, crf, tags, packing)
    marginals = nll_backward(e, crf, tags, messages, zeros_like_struct(crf), packing)
    marginals[np.arange(len(tags)), tag_ids] += 1.0
    return loss + score_sequence(e, crf, tag_ids, packing), marginals


def test_tags_to_indices_and_validation():
    assert list(tags_to_indices(["B", "I", "O"])) == [0, 1, 2]
    with pytest.raises(ValueError):
        tags_to_indices(["B", "X"])


def test_pinned_entries_set():
    rng = np.random.default_rng(0)
    crf = rand_crf(rng)
    assert crf.transitions[2, 1] == FORBIDDEN_SCORE  # O -> I
    assert crf.start_scores[1] == FORBIDDEN_SCORE    # start -> I
    trans_mask, start_mask = forbidden_masks()
    assert trans_mask.sum() == 1 and start_mask.sum() == 1


def test_partition_and_marginals_match_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        e = rng.normal(scale=2.0, size=(n, 3))
        crf = rand_crf(rng)
        log_z, marg, best = crf_enumerate(e, crf)
        got_log_z, got_marg = log_z_and_marginals(e, crf, [INDEX_TAG[i] for i in best])
        assert got_log_z == pytest.approx(log_z, abs=1e-9)
        assert np.allclose(got_marg, marg, atol=1e-9)
        assert [tags_to_indices(viterbi_decode(e, crf))[i] for i in range(n)] == best


def test_ragged_chunk_matches_enumeration_per_sequence():
    # one time loop over a ragged chunk gives every sequence its own log Z,
    # marginals and Viterbi path, whatever the order of the lengths
    rng = np.random.default_rng(11)
    for lengths in ([1, 3, 6], [5, 1, 4, 1], [2, 2, 2], [6, 6, 1]):
        crf = rand_crf(rng)
        packing = Packing(lengths)
        e = rng.normal(scale=2.0, size=(packing.n_rows, 3))
        refs = [crf_enumerate(e[lo:lo + n], crf) for lo, n in zip(packing.starts, lengths)]
        tags = [INDEX_TAG[i] for _lz, _m, best in refs for i in best]
        log_z, marg = log_z_and_marginals(e, crf, tags, packing)
        assert log_z.shape == (len(lengths),)
        for b, (ref_log_z, ref_marg, _best) in enumerate(refs):
            lo = packing.starts[b]
            assert log_z[b] == pytest.approx(ref_log_z, abs=1e-9)
            assert np.allclose(marg[lo:lo + lengths[b]], ref_marg, atol=1e-9)
        assert viterbi_decode(e, crf, packing) == tags


def test_marginals_are_distributions():
    rng = np.random.default_rng(2)
    e = rng.normal(size=(5, 3))
    crf = rand_crf(rng)
    _log_z, m = log_z_and_marginals(e, crf, ["B", "I", "O", "O", "B"])
    assert np.all(m >= 0)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_score_sequence_is_lse_component():
    # exp(score(y)) / exp(logZ) must be a probability
    rng = np.random.default_rng(3)
    e = rng.normal(size=(4, 3))
    crf = rand_crf(rng)
    s = score_sequence(e, crf, tags_to_indices(["B", "I", "O", "B"]))
    loss, (_alpha, log_z) = nll_loss(e, crf, ["B", "I", "O", "B"])
    assert s <= log_z
    assert loss >= 0.0


def test_viterbi_never_emits_forbidden_transitions():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        # push emissions hard toward I to tempt illegal transitions
        e = rng.normal(size=(n, 3))
        e[:, 1] += 5.0
        crf = rand_crf(rng)
        tags = viterbi_decode(e, crf)
        assert tags[0] != "I", "sequence starts with I"
        for prev, cur in zip(tags, tags[1:]):
            assert not (prev == "O" and cur == "I"), "O -> I emitted"


def test_viterbi_tie_break_prefers_earlier_tag():
    # all-equal scores everywhere: every backpointer and the final argmax
    # resolve to the first index, which is B
    crf = CrfParams(w_emit=np.zeros((4, 3)), b_emit=np.zeros(3),
                    transitions=np.zeros((3, 3)), start_scores=np.zeros(3),
                    end_scores=np.zeros(3))
    pin_forbidden(crf)
    assert viterbi_decode(np.zeros((4, 3)), crf) == ["B", "B", "B", "B"]


def test_emissions_affine_and_backward():
    rng = np.random.default_rng(5)
    crf = init_crf_params(rng, d=6)
    z = rng.normal(size=(4, 6))
    e = emissions_from(z, crf)
    assert e.shape == (4, 3)
    assert np.allclose(e, z @ crf.w_emit + crf.b_emit)
    c = rng.normal(size=(4, 3))
    g = zeros_like_struct(crf)
    d_z = emissions_backward(c, z, crf, g)
    fd_z = fd_grad(lambda: float((emissions_from(z, crf) * c).sum()), z)
    fd_w = fd_grad(lambda: float((emissions_from(z, crf) * c).sum()), crf.w_emit)
    assert np.allclose(d_z, fd_z, atol=1e-7)
    assert np.allclose(g.w_emit, fd_w, atol=1e-7)


def test_nll_gradient_is_marginals_minus_onehot():
    rng = np.random.default_rng(6)
    e = rng.normal(size=(5, 3))
    crf = rand_crf(rng)
    tags = ["O", "B", "I", "O", "B"]
    g = zeros_like_struct(crf)
    d_e = nll_backward(e, crf, tags, nll_loss(e, crf, tags)[1], g)
    expected = crf_enumerate(e, crf)[1].copy()
    for t, y in enumerate(tags_to_indices(tags)):
        expected[t, y] -= 1.0
    assert np.allclose(d_e, expected, atol=1e-12)


def test_nll_backward_matches_fd_on_all_params():
    rng = np.random.default_rng(7)
    e = rng.normal(size=(4, 3))
    crf = rand_crf(rng)
    tags = ["B", "I", "I", "O"]
    g = zeros_like_struct(crf)
    d_e = nll_backward(e, crf, tags, nll_loss(e, crf, tags)[1], g)
    fd_e = fd_grad(lambda: nll_loss(e, crf, tags)[0].sum(), e)
    assert np.allclose(d_e, fd_e, atol=1e-6)
    trans_mask, start_mask = forbidden_masks()
    fd_trans = fd_grad(lambda: nll_loss(e, crf, tags)[0].sum(), crf.transitions)
    fd_start = fd_grad(lambda: nll_loss(e, crf, tags)[0].sum(), crf.start_scores)
    fd_end = fd_grad(lambda: nll_loss(e, crf, tags)[0].sum(), crf.end_scores)
    assert np.allclose(np.where(trans_mask, 0.0, g.transitions),
                       np.where(trans_mask, 0.0, fd_trans), atol=1e-6)
    assert np.allclose(np.where(start_mask, 0.0, g.start_scores),
                       np.where(start_mask, 0.0, fd_start), atol=1e-6)
    assert np.allclose(g.end_scores, fd_end, atol=1e-6)
    # pinned entries carry exactly zero gradient
    assert g.transitions[2, 1] == 0.0
    assert g.start_scores[1] == 0.0


def test_single_token_sequence():
    rng = np.random.default_rng(8)
    e = rng.normal(size=(1, 3))
    crf = rand_crf(rng)
    log_z, marg, best = crf_enumerate(e, crf)
    got_log_z, got_marg = log_z_and_marginals(e, crf, ["O"])
    assert got_log_z == pytest.approx(log_z, abs=1e-12)
    assert np.allclose(got_marg, marg, atol=1e-12)
    assert viterbi_decode(e, crf) == [["B", "I", "O"][best[0]]]


def test_empty_emissions_rejected():
    rng = np.random.default_rng(9)
    crf = rand_crf(rng)
    with pytest.raises(ValueError):
        nll_loss(np.zeros((0, 3)), crf, [])
    with pytest.raises(ValueError):
        viterbi_decode(np.zeros((0, 3)), crf)

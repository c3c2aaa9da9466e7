import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimspan.crf import (
    CrfParams,
    emissions_backward,
    emissions_from,
    init_crf_params,
    nll_backward,
    nll_loss,
    score_sequence,
    tags_to_indices,
    viterbi_decode,
)
from claimspan.numerics import flat_views, log_sum_exp
from claimspan.packing import Packing
from claimspan.preprocess import TAGS

from oracles import crf_enumerate, log_sum_exp_max_shift, viterbi_decode_per_sequence
from test_encoder import fd_grad


def rand_crf(rng, scale=1.0) -> CrfParams:
    crf = init_crf_params(rng, d=4)
    crf.transitions[...] = scale * rng.normal(size=(3, 3))
    crf.start_scores[...] = scale * rng.normal(size=3)
    crf.end_scores[...] = scale * rng.normal(size=3)
    return crf


def log_z_and_marginals(e, crf, tags, packing):
    """log Z per sequence from the training loss and tag marginals from its
    gradient: nll_loss plus the gold score, and nll_backward's d_e plus the
    gold one-hot, for a packed chunk."""
    loss, cache = nll_loss(e, crf, tags, packing)
    marginals = nll_backward(crf, cache, flat_views(crf))
    tag_ids = cache["tag_ids"]
    marginals[np.arange(len(tags)), tag_ids] += 1.0
    return loss + score_sequence(e, crf, tag_ids, packing), marginals


def test_tags_to_indices_and_validation():
    assert list(tags_to_indices(["B", "I", "O"])) == [0, 1, 2]
    with pytest.raises(ValueError):
        tags_to_indices(["B", "X"])


def test_nll_loss_rejects_gold_tags_that_break_bio():
    # a chunk of two sequences of three rows: an O -> I move or a start on I
    # inside the second is caught and its row named; O | B across the
    # sequence boundary is no move at all
    crf = rand_crf(np.random.default_rng(13))
    e, packing = np.zeros((6, 3)), Packing([3, 3])
    with pytest.raises(ValueError, match="gold tags break BIO at row 5"):
        nll_loss(e, crf, ["B", "I", "O", "B", "O", "I"], packing)
    with pytest.raises(ValueError, match="gold tags break BIO at row 3"):
        nll_loss(e, crf, ["B", "I", "I", "I", "O", "B"], packing)
    losses, _cache = nll_loss(e, crf, ["B", "I", "O", "B", "I", "O"], packing)
    assert np.all(np.isfinite(losses))


def test_partition_and_marginals_match_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        e = rng.normal(scale=2.0, size=(n, 3))
        crf = rand_crf(rng)
        log_z, marg, best = crf_enumerate(e, crf)
        got_log_z, got_marg = log_z_and_marginals(e, crf, [TAGS[i] for i in best],
                                                  Packing([n]))
        assert got_log_z == pytest.approx(log_z, abs=1e-9)
        assert np.allclose(got_marg, marg, atol=1e-9)
        assert [tags_to_indices(viterbi_decode(e, crf, Packing([n])))[i] for i in range(n)] == best


def test_ragged_chunk_matches_enumeration_per_sequence():
    # one time loop over a ragged chunk gives every sequence its own log Z,
    # marginals and Viterbi path, whatever the order of the lengths
    rng = np.random.default_rng(11)
    for lengths in ([1, 3, 6], [5, 1, 4, 1], [2, 2, 2], [6, 6, 1]):
        crf = rand_crf(rng)
        packing = Packing(lengths)
        e = rng.normal(scale=2.0, size=(packing.n_rows, 3))
        refs = [crf_enumerate(e[lo:lo + n], crf) for lo, n in zip(packing.starts, lengths)]
        tags = [TAGS[i] for _lz, _m, best in refs for i in best]
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
    _log_z, m = log_z_and_marginals(e, crf, ["B", "I", "O", "O", "B"], Packing([5]))
    assert np.all(m >= 0)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_score_sequence_is_lse_component():
    # exp(score(y)) / exp(logZ) must be a probability
    rng = np.random.default_rng(3)
    e = rng.normal(size=(4, 3))
    crf = rand_crf(rng)
    s = score_sequence(e, crf, tags_to_indices(["B", "I", "O", "B"]), Packing([4]))
    loss, cache = nll_loss(e, crf, ["B", "I", "O", "B"], Packing([4]))
    assert s <= cache["log_z"]
    assert loss >= 0.0
    with pytest.raises(ValueError, match="3 tags for 4 emission rows"):
        score_sequence(e, crf, tags_to_indices(["B", "I", "O"]), Packing([4]))


def test_viterbi_never_emits_forbidden_transitions():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        # push emissions hard toward I to tempt illegal transitions
        e = rng.normal(size=(n, 3))
        e[:, 1] += 5.0
        crf = rand_crf(rng)
        tags = viterbi_decode(e, crf, Packing([n]))
        assert tags[0] != "I", "sequence starts with I"
        for prev, cur in zip(tags, tags[1:]):
            assert not (prev == "O" and cur == "I"), "O -> I emitted"


def test_viterbi_tie_break_prefers_earlier_tag():
    # all-equal scores everywhere: every backpointer and the final argmax
    # resolve to the first index, which is B
    crf = CrfParams(w_emit=np.zeros((4, 3)), b_emit=np.zeros(3),
                    transitions=np.zeros((3, 3)), start_scores=np.zeros(3),
                    end_scores=np.zeros(3))
    assert viterbi_decode(np.zeros((4, 3)), crf, Packing([4])) == ["B", "B", "B", "B"]


@settings(max_examples=60)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=9),
       ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_viterbi_backtrack_matches_per_sequence_backtrack(lengths, ties, seed):
    # the backtrack vectorized over sequences gives each sequence the path
    # of a backtrack run on it alone, ties included (integer emissions)
    rng = np.random.default_rng(seed)
    crf = rand_crf(rng, scale=2.0)
    packing = Packing(lengths)
    shape = (packing.n_rows, 3)
    e = rng.integers(-1, 2, size=shape).astype(float) if ties else rng.normal(size=shape)
    assert viterbi_decode(e, crf, packing) == viterbi_decode_per_sequence(e, crf, packing)


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_log_sum_exp_matches_max_shift(axis):
    # the recursions' inputs: masked moves (-inf) next to entries of about
    # +-1e3 and ordinary ones
    rng = np.random.default_rng(23)
    a = rng.normal(size=(6, 3, 3))
    a[rng.random(a.shape) < 0.2] = -np.inf
    a[rng.random(a.shape) < 0.2] = 1e3
    a[rng.random(a.shape) < 0.2] = -1e3
    got, ref = log_sum_exp(a, axis=axis), log_sum_exp_max_shift(a, axis=axis)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_log_sum_exp_of_nothing_is_minus_inf():
    # a slice with no finite entry has no mass: -inf, with no NaN or warning
    a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, -np.inf]])
    assert log_sum_exp(a, axis=1).tolist() == [-np.inf, 0.0]


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e3])
def test_long_ragged_chunk_numerics_hold(scale):
    # one chunk from a single row to 1000 rows, emissions up to 1e3 and
    # transitions of about +-50: log Z reaches ~1e6, and every recursion must
    # stay finite. The Viterbi path is the gold path, so each loss is near 0
    # and a log Z that lost mass would show as a negative loss.
    rng = np.random.default_rng(17)
    packing = Packing([1, 48, 300, 1000])
    crf = init_crf_params(rng, d=4)
    for arr in (crf.transitions, crf.start_scores, crf.end_scores):
        arr[...] = rng.uniform(-50.0, 50.0, size=arr.shape)
    e = scale * rng.normal(size=(packing.n_rows, 3))
    tags = viterbi_decode(e, crf, packing)
    for seq in packing.split(tags):
        assert seq[0] != "I"
        assert ("O", "I") not in set(zip(seq, seq[1:]))
    losses, cache = nll_loss(e, crf, tags, packing)
    log_z = cache["log_z"]
    assert np.all(np.isfinite(losses)) and np.all(np.isfinite(log_z))
    assert np.all(losses >= -1e-12 * np.abs(log_z))
    _log_z, marginals = log_z_and_marginals(e, crf, tags, packing)
    assert np.all(np.isfinite(marginals))
    assert np.max(np.abs(marginals.sum(axis=1) - 1.0)) <= 1e-6


def test_emissions_affine_and_backward():
    rng = np.random.default_rng(5)
    crf = init_crf_params(rng, d=6)
    z = rng.normal(size=(4, 6))
    e = emissions_from(z, crf)
    assert e.shape == (4, 3)
    assert np.allclose(e, z @ crf.w_emit + crf.b_emit)
    c = rng.normal(size=(4, 3))
    g = flat_views(crf)
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
    one = Packing([5])
    g = flat_views(crf)
    d_e = nll_backward(crf, nll_loss(e, crf, tags, one)[1], g)
    expected = crf_enumerate(e, crf)[1].copy()
    for t, y in enumerate(tags_to_indices(tags)):
        expected[t, y] -= 1.0
    assert np.allclose(d_e, expected, atol=1e-12)


def test_nll_backward_matches_fd_on_all_params():
    rng = np.random.default_rng(7)
    e = rng.normal(size=(4, 3))
    crf = rand_crf(rng)
    tags = ["B", "I", "I", "O"]
    one = Packing([4])
    g = flat_views(crf)
    d_e = nll_backward(crf, nll_loss(e, crf, tags, one)[1], g)
    fd_e = fd_grad(lambda: nll_loss(e, crf, tags, one)[0].sum(), e)
    assert np.allclose(d_e, fd_e, atol=1e-6)
    fd_trans = fd_grad(lambda: nll_loss(e, crf, tags, one)[0].sum(), crf.transitions)
    fd_start = fd_grad(lambda: nll_loss(e, crf, tags, one)[0].sum(), crf.start_scores)
    fd_end = fd_grad(lambda: nll_loss(e, crf, tags, one)[0].sum(), crf.end_scores)
    assert np.allclose(g.transitions, fd_trans, atol=1e-6)
    assert np.allclose(g.start_scores, fd_start, atol=1e-6)
    assert np.allclose(g.end_scores, fd_end, atol=1e-6)
    # the BIO mask leaves the inert O -> I and start-I entries no mass, so
    # their gradient is exactly zero
    assert g.transitions[2, 1] == 0.0
    assert g.start_scores[1] == 0.0


def test_nll_backward_is_the_plain_gradient_at_every_entry():
    # every CRF entry, the two inert ones included, matches central
    # differences on a ragged chunk of valid BIO gold paths; the inert ones
    # read exactly 0 both ways, whatever they hold
    rng = np.random.default_rng(12)
    crf = init_crf_params(rng, d=4)
    for arr in (crf.transitions, crf.start_scores, crf.end_scores):
        arr[...] = rng.normal(size=arr.shape)
    packing = Packing([3, 1, 4])
    e = rng.normal(size=(packing.n_rows, 3))
    tags = ["B", "O", "B", "B", "O", "B", "I", "I"]
    g = flat_views(crf)
    d_e = nll_backward(crf, nll_loss(e, crf, tags, packing)[1], g)

    def loss() -> float:
        return nll_loss(e, crf, tags, packing)[0].sum()

    assert np.allclose(d_e, fd_grad(loss, e), atol=1e-6)
    fds = {name: fd_grad(loss, getattr(crf, name))
           for name in ("transitions", "start_scores", "end_scores")}
    for name, fd in fds.items():
        assert np.allclose(getattr(g, name), fd, atol=1e-6), name
    assert g.transitions[2, 1] == fds["transitions"][2, 1] == 0.0  # O -> I
    assert g.start_scores[1] == fds["start_scores"][1] == 0.0      # start -> I


def test_single_token_sequence():
    rng = np.random.default_rng(8)
    e = rng.normal(size=(1, 3))
    crf = rand_crf(rng)
    log_z, marg, best = crf_enumerate(e, crf)
    got_log_z, got_marg = log_z_and_marginals(e, crf, ["O"], Packing([1]))
    assert got_log_z == pytest.approx(log_z, abs=1e-12)
    assert np.allclose(got_marg, marg, atol=1e-12)
    assert viterbi_decode(e, crf, Packing([1])) == [["B", "I", "O"][best[0]]]


def test_empty_emissions_rejected():
    rng = np.random.default_rng(9)
    crf = rand_crf(rng)
    # a chunk of no rows cannot be described, so the empty input fails at
    # its Packing
    with pytest.raises(ValueError):
        nll_loss(np.zeros((0, 3)), crf, [], Packing([0]))
    with pytest.raises(ValueError):
        viterbi_decode(np.zeros((0, 3)), crf, Packing([0]))

"""Linear-chain CRF head over BIO tags.

All recursions run in log space, with one time loop over a whole packed
chunk of sequences. The BIO rule (no start on I, no O followed by I) is a
fixed additive mask of -inf on those two moves, which every score, recursion
and Viterbi adds to the stored scores, so no tag path that breaks it has any
mass and Viterbi never emits one. The two stored entries it covers are inert:
whatever they hold changes nothing, and their gradient is exactly 0. Tags are
ordered as ``preprocess.TAGS``; argmax ties take the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import init_normal, log_sum_exp
from .packing import Packing
from .preprocess import TAG_I, TAG_O, TAGS

TAG_INDEX = {tag: i for i, tag in enumerate(TAGS)}
N_TAGS = len(TAGS)
# the BIO rule: -inf on O -> I and on start -> I, 0 on every other move
TRANSITION_MASK = np.zeros((N_TAGS, N_TAGS))
TRANSITION_MASK[TAG_INDEX[TAG_O], TAG_INDEX[TAG_I]] = -np.inf
START_MASK = np.zeros(N_TAGS)
START_MASK[TAG_INDEX[TAG_I]] = -np.inf
TRANSITION_MASK.flags.writeable = START_MASK.flags.writeable = False


@dataclass
class CrfParams:
    w_emit: np.ndarray        # d x 3
    b_emit: np.ndarray        # 3
    transitions: np.ndarray   # 3 x 3, [from, to]
    start_scores: np.ndarray  # 3
    end_scores: np.ndarray    # 3


def init_crf_params(rng: np.random.Generator, d: int) -> CrfParams:
    return CrfParams(
        w_emit=init_normal(rng, d, N_TAGS),
        b_emit=np.zeros(N_TAGS),
        transitions=np.zeros((N_TAGS, N_TAGS)),
        start_scores=np.zeros(N_TAGS),
        end_scores=np.zeros(N_TAGS),
    )


def emissions_from(z: np.ndarray, crf: CrfParams) -> np.ndarray:
    """Project token representations to per-tag scores (n x 3)."""
    return z @ crf.w_emit + crf.b_emit


def emissions_backward(d_e: np.ndarray, z: np.ndarray, crf: CrfParams, g: CrfParams) -> np.ndarray:
    g.w_emit += z.T @ d_e
    g.b_emit += d_e.sum(axis=0)
    return d_e @ crf.w_emit.T


def tags_to_indices(tags: list[str]) -> np.ndarray:
    try:
        return np.array([TAG_INDEX[t] for t in tags], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"unknown tag {exc.args[0]!r}") from exc


def score_sequence(e: np.ndarray, crf: CrfParams, tag_ids: np.ndarray,
                   packing: Packing) -> np.ndarray:
    """Score of each sequence's tag path in a chunk's packed emissions, as a
    (sequences,) array."""
    if len(tag_ids) != len(e):
        raise ValueError(f"{len(tag_ids)} tags for {len(e)} emission rows")
    seg, pairs = packing.seg, packing.pair_rows
    transitions = crf.transitions + TRANSITION_MASK
    emit = np.bincount(seg, weights=e[np.arange(len(e)), tag_ids], minlength=packing.size)
    trans = np.bincount(seg[pairs], weights=transitions[tag_ids[pairs], tag_ids[pairs + 1]],
                        minlength=packing.size)
    return ((crf.start_scores + START_MASK)[tag_ids[packing.starts]] + emit + trans
            + crf.end_scores[tag_ids[packing.ends]])


def _forward_messages(e: np.ndarray, crf: CrfParams,
                      packing: Packing) -> tuple[np.ndarray, np.ndarray]:
    """Forward messages alpha (sequences, longest, 3) and log Z per sequence:
    the log sum over all its tag paths of exp(score).

    One time loop serves the whole chunk; past a sequence's end its row runs
    on with zero emissions, and nothing reads those values."""
    em = packing.pad(e, 0.0)
    transitions = crf.transitions + TRANSITION_MASK
    alpha = np.empty(em.shape)
    step = alpha[:, 0] = crf.start_scores + START_MASK + em[:, 0]
    for t in range(1, packing.n_max):
        step = alpha[:, t] = log_sum_exp(step[:, :, None] + transitions, axis=1) + em[:, t]
    last = alpha[np.arange(packing.size), packing.lengths - 1]
    return alpha, log_sum_exp(last + crf.end_scores, axis=1)


def nll_loss(e: np.ndarray, crf: CrfParams, tags: list[str],
             packing: Packing) -> tuple[np.ndarray, dict]:
    """Each sequence's log Z minus its gold-path score, nonnegative up to
    roundoff, as a (sequences,) array, and the cache ``nll_backward`` reads:
    the emissions, the gold tag ids, the forward messages alpha, log Z and
    the packing.

    ``e`` and ``tags`` are the chunk's packed emission rows and gold tags; a
    tag that is unknown or breaks BIO is a ValueError.
    """
    tag_ids = tags_to_indices(tags)
    gold = score_sequence(e, crf, tag_ids, packing)
    prev = np.roll(tag_ids, 1)
    prev[packing.starts] = TAG_INDEX[TAG_O]  # a start is held to O's rule
    broken = np.flatnonzero((tag_ids == TAG_INDEX[TAG_I]) & (prev == TAG_INDEX[TAG_O]))
    if broken.size:
        raise ValueError(f"gold tags break BIO at row {broken[0]}: an I starts a sequence or follows O")
    alpha, log_z = _forward_messages(e, crf, packing)
    return log_z - gold, {
        "e": e, "tag_ids": tag_ids, "alpha": alpha, "log_z": log_z, "packing": packing}


def nll_backward(crf: CrfParams, cache: dict, g: CrfParams) -> np.ndarray:
    """Accumulate CRF-parameter gradients of the chunk's summed NLL and return
    d(loss)/d(emissions) for its packed rows.

    ``cache`` is what ``nll_loss`` returned for the same parameters. Uses the
    exact identity: the emission gradient is marginals minus the gold
    one-hot; transition/start/end gradients are expected counts minus
    observed counts. The masked moves have no mass and a valid BIO gold path
    never takes them, so the two inert entries' gradient is exactly 0.
    """
    e, tag_ids, packing = cache["e"], cache["tag_ids"], cache["packing"]
    transitions = crf.transitions + TRANSITION_MASK
    em = packing.pad(e, 0.0)
    beta = np.empty(em.shape)
    step = beta[:, -1] = crf.end_scores
    for t in range(packing.n_max - 2, -1, -1):
        step = log_sum_exp(transitions + (em[:, t + 1] + step)[:, None, :], axis=2)
        ending = packing.ending.get(t)
        if ending is not None:  # these sequences' beta starts here
            step[ending] = crf.end_scores
        beta[:, t] = step

    # marginals minus the gold one-hot, and the pair marginals
    # p(y_t = i, y_t+1 = j) of every step of every sequence at once, all on
    # the packed rows, so no value past a sequence's end is read
    alpha, beta = packing.unpad(cache["alpha"]), packing.unpad(beta)
    log_z = cache["log_z"][packing.seg]
    d_e = np.exp(alpha + beta - log_z[:, None])
    d_e[np.arange(len(e)), tag_ids] -= 1.0
    pairs = packing.pair_rows
    log_pair = (alpha[pairs, :, None] + transitions
                + (e[pairs + 1] + beta[pairs + 1])[:, None, :] - log_z[pairs, None, None])
    d_trans = np.exp(log_pair).sum(axis=0)
    d_trans -= np.bincount(tag_ids[pairs] * N_TAGS + tag_ids[pairs + 1],
                           minlength=N_TAGS * N_TAGS).reshape(N_TAGS, N_TAGS)
    d_start = d_e[packing.starts].sum(axis=0)
    d_end = d_e[packing.ends].sum(axis=0)

    g.transitions += d_trans
    g.start_scores += d_start
    g.end_scores += d_end
    return d_e


def viterbi_decode(e: np.ndarray, crf: CrfParams, packing: Packing) -> list[str]:
    """Highest-scoring valid tag path of each sequence in a chunk's packed
    emissions, as packed tags; ties break toward B < I < O."""
    em = packing.pad(e, 0.0)
    transitions = crf.transitions + TRANSITION_MASK
    v = crf.start_scores + START_MASK + em[:, 0]
    final = np.empty_like(v)
    backptr = np.empty(em.shape, dtype=np.intp)
    for t in range(packing.n_max):
        if t:
            cand = v[:, :, None] + transitions
            backptr[:, t] = cand.argmax(axis=1)
            v = cand.max(axis=1) + em[:, t]
        ending = packing.ending.get(t)
        if ending is not None:
            final[ending] = v[ending]
    best = (final + crf.end_scores).argmax(axis=1)
    # backtrack every sequence at once, each from its own last row
    rows, path = np.arange(packing.size), np.zeros(em.shape[:2], dtype=np.intp)
    for t in range(packing.n_max - 1, -1, -1):
        ending = packing.ending.get(t)
        if ending is not None:
            path[ending, t] = best[ending]
        if t:
            path[:, t - 1] = backptr[rows, t, path[:, t]]
    return [TAGS[i] for i in packing.unpad(path).tolist()]

"""Linear-chain CRF head over BIO tags.

All recursions run in log space, with one time loop over a whole packed
chunk of sequences. Structurally forbidden moves (starting on I,
O followed by I) are pinned to a large negative score and masked out of
gradient updates, which guarantees Viterbi never emits an undecodable tag
sequence. Tag order is B, I, O; argmax ties resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import init_normal, log_sum_exp
from .packing import Packing

TAG_INDEX = {"B": 0, "I": 1, "O": 2}
INDEX_TAG = ("B", "I", "O")
N_TAGS = 3
FORBIDDEN_SCORE = -1.0e4


@dataclass
class CrfParams:
    w_emit: np.ndarray        # d x 3
    b_emit: np.ndarray        # 3
    transitions: np.ndarray   # 3 x 3, [from, to]
    start_scores: np.ndarray  # 3
    end_scores: np.ndarray    # 3


def forbidden_masks() -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the pinned (non-trainable) transition/start entries."""
    trans = np.zeros((N_TAGS, N_TAGS), dtype=bool)
    trans[TAG_INDEX["O"], TAG_INDEX["I"]] = True
    start = np.zeros(N_TAGS, dtype=bool)
    start[TAG_INDEX["I"]] = True
    return trans, start


def pin_forbidden(crf: CrfParams) -> None:
    trans_mask, start_mask = forbidden_masks()
    crf.transitions[trans_mask] = FORBIDDEN_SCORE
    crf.start_scores[start_mask] = FORBIDDEN_SCORE


def init_crf_params(rng: np.random.Generator, d: int) -> CrfParams:
    crf = CrfParams(
        w_emit=init_normal(rng, d, N_TAGS),
        b_emit=np.zeros(N_TAGS),
        transitions=np.zeros((N_TAGS, N_TAGS)),
        start_scores=np.zeros(N_TAGS),
        end_scores=np.zeros(N_TAGS),
    )
    pin_forbidden(crf)
    return crf


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
                   packing: Packing | None = None) -> np.ndarray:
    """Score of each sequence's tag path in a chunk's packed emissions, as a
    (sequences,) array."""
    packing = packing or Packing.single(len(e))
    if len(tag_ids) != len(e):
        raise ValueError(f"{len(tag_ids)} tags for {len(e)} emission rows")
    seg, pairs = packing.seg, packing.pair_rows
    emit = np.bincount(seg, weights=e[np.arange(len(e)), tag_ids], minlength=packing.size)
    trans = np.bincount(seg[pairs], weights=crf.transitions[tag_ids[pairs], tag_ids[pairs + 1]],
                        minlength=packing.size)
    return (crf.start_scores[tag_ids[packing.starts]] + emit + trans
            + crf.end_scores[tag_ids[packing.ends]])


def _forward_messages(e: np.ndarray, crf: CrfParams,
                      packing: Packing) -> tuple[np.ndarray, np.ndarray]:
    """Forward messages alpha (sequences, longest, 3) and log Z per sequence:
    the log sum over all its tag paths of exp(score).

    One time loop serves the whole chunk; past a sequence's end its row runs
    on with zero emissions, and nothing reads those values."""
    em = packing.pad(e, 0.0)
    alpha = np.empty(em.shape)
    step = alpha[:, 0] = crf.start_scores + em[:, 0]
    for t in range(1, packing.n_max):
        step = alpha[:, t] = log_sum_exp(step[:, :, None] + crf.transitions, axis=1) + em[:, t]
    last = alpha[np.arange(packing.size), packing.lengths - 1]
    return alpha, log_sum_exp(last + crf.end_scores, axis=1)


def nll_loss(e: np.ndarray, crf: CrfParams, tags: list[str],
             packing: Packing | None = None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Each sequence's log Z minus its gold-path score, nonnegative up to
    roundoff, as a (sequences,) array, and the forward messages
    ``(alpha, log_z)`` that ``nll_backward`` needs.

    ``e`` and ``tags`` are the chunk's packed emission rows and gold tags.
    """
    packing = packing or Packing.single(len(e))
    messages = _forward_messages(e, crf, packing)
    return messages[1] - score_sequence(e, crf, tags_to_indices(tags), packing), messages


def nll_backward(e: np.ndarray, crf: CrfParams, tags: list[str],
                 messages: tuple[np.ndarray, np.ndarray], g: CrfParams,
                 packing: Packing | None = None) -> np.ndarray:
    """Accumulate CRF-parameter gradients of the chunk's summed NLL and return
    d(loss)/d(emissions) for its packed rows.

    ``messages`` are the forward messages ``nll_loss`` returned for the same
    emissions and parameters. Uses the exact identity: the emission gradient
    is marginals minus the gold one-hot; transition/start/end gradients are
    expected counts minus observed counts. Pinned entries get zero gradient.
    """
    packing = packing or Packing.single(len(e))
    alpha, log_z = messages
    tag_ids = tags_to_indices(tags)
    em = packing.pad(e, 0.0)
    beta = np.empty(em.shape)
    step = beta[:, -1] = crf.end_scores
    for t in range(packing.n_max - 2, -1, -1):
        step = log_sum_exp(crf.transitions + (em[:, t + 1] + step)[:, None, :], axis=2)
        ending = packing.ending.get(t)
        if ending is not None:  # these sequences' beta starts here
            step[ending] = crf.end_scores
        beta[:, t] = step

    # marginals minus the gold one-hot, and the pair marginals
    # p(y_t = i, y_t+1 = j) of every step of every sequence at once, all on
    # the packed rows, so no value past a sequence's end is read
    alpha, beta, log_z = packing.unpad(alpha), packing.unpad(beta), log_z[packing.seg]
    d_e = np.exp(alpha + beta - log_z[:, None])
    d_e[np.arange(len(e)), tag_ids] -= 1.0
    pairs = packing.pair_rows
    log_pair = (alpha[pairs, :, None] + crf.transitions
                + (e[pairs + 1] + beta[pairs + 1])[:, None, :] - log_z[pairs, None, None])
    d_trans = np.exp(log_pair).sum(axis=0)
    d_trans -= np.bincount(tag_ids[pairs] * N_TAGS + tag_ids[pairs + 1],
                           minlength=N_TAGS * N_TAGS).reshape(N_TAGS, N_TAGS)
    d_start = d_e[packing.starts].sum(axis=0)
    d_end = d_e[packing.ends].sum(axis=0)

    trans_mask, start_mask = forbidden_masks()
    d_trans[trans_mask] = 0.0
    d_start[start_mask] = 0.0

    g.transitions += d_trans
    g.start_scores += d_start
    g.end_scores += d_end
    return d_e


def viterbi_decode(e: np.ndarray, crf: CrfParams, packing: Packing | None = None) -> list[str]:
    """Highest-scoring valid tag path of each sequence in a chunk's packed
    emissions, as packed tags; ties break toward B < I < O."""
    packing = packing or Packing.single(len(e))
    em = packing.pad(e, 0.0)
    v = crf.start_scores + em[:, 0]
    final = np.empty_like(v)
    backptr = np.empty(em.shape, dtype=np.intp)
    for t in range(packing.n_max):
        if t:
            cand = v[:, :, None] + crf.transitions
            backptr[:, t] = cand.argmax(axis=1)
            v = cand.max(axis=1) + em[:, t]
        ending = packing.ending.get(t)
        if ending is not None:
            final[ending] = v[ending]
    best = (final + crf.end_scores).argmax(axis=1).tolist()
    pointers = backptr.tolist()
    out = []
    for seq, n in enumerate(packing.lengths.tolist()):
        path, steps = [best[seq]], pointers[seq]
        for t in range(n - 1, 0, -1):
            path.append(steps[t][path[-1]])
        out.extend(INDEX_TAG[i] for i in reversed(path))
    return out

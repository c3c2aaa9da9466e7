"""Linear-chain CRF head over BIO tags.

All recursions run in log space. Structurally forbidden moves (starting on I,
O followed by I) are pinned to a large negative score and masked out of
gradient updates, which guarantees Viterbi never emits an undecodable tag
sequence. Tag order is B, I, O; argmax ties resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import init_normal, log_sum_exp

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


def score_sequence(e: np.ndarray, crf: CrfParams, tag_ids: np.ndarray) -> float:
    n = e.shape[0]
    if len(tag_ids) != n:
        raise ValueError(f"{len(tag_ids)} tags for {n} emission rows")
    s = crf.start_scores[tag_ids[0]] + e[np.arange(n), tag_ids].sum() + crf.end_scores[tag_ids[-1]]
    if n > 1:
        s += crf.transitions[tag_ids[:-1], tag_ids[1:]].sum()
    return float(s)


def _forward_messages(e: np.ndarray, crf: CrfParams) -> tuple[np.ndarray, float]:
    """Forward messages alpha (n x 3) and log Z, the log sum over all tag
    sequences of exp(score)."""
    n = e.shape[0]
    if n < 1:
        raise ValueError("need at least one emission row")
    alpha = np.empty((n, N_TAGS))
    alpha[0] = crf.start_scores + e[0]
    for t in range(1, n):
        alpha[t] = log_sum_exp(alpha[t - 1][:, None] + crf.transitions, axis=0) + e[t]
    return alpha, float(log_sum_exp(alpha[-1] + crf.end_scores, axis=0))


def nll_loss(e: np.ndarray, crf: CrfParams,
             tags: list[str]) -> tuple[float, tuple[np.ndarray, float]]:
    """log Z minus the gold-sequence score, nonnegative up to roundoff, and the
    forward messages ``(alpha, log_z)`` that ``nll_backward`` needs."""
    messages = _forward_messages(e, crf)
    return messages[1] - score_sequence(e, crf, tags_to_indices(tags)), messages


def nll_backward(e: np.ndarray, crf: CrfParams, tags: list[str],
                 messages: tuple[np.ndarray, float], g: CrfParams) -> np.ndarray:
    """Accumulate CRF-parameter gradients of the NLL and return d(loss)/d(emissions).

    ``messages`` are the forward messages ``nll_loss`` returned for the same
    emissions and parameters. Uses the exact identity: the emission gradient
    is marginals minus the gold one-hot; transition/start/end gradients are
    expected counts minus observed counts. Pinned entries get zero gradient.
    """
    alpha, log_z = messages
    tag_ids = tags_to_indices(tags)
    n = e.shape[0]
    beta = np.empty((n, N_TAGS))
    beta[n - 1] = crf.end_scores
    for t in range(n - 2, -1, -1):
        beta[t] = log_sum_exp(crf.transitions + (e[t + 1] + beta[t + 1])[None, :], axis=1)

    marginals = np.exp(alpha + beta - log_z)
    d_e = marginals.copy()
    d_e[np.arange(n), tag_ids] -= 1.0

    # pair marginals p(y_t = i, y_t+1 = j) for every t at once: (n-1) x 3 x 3
    log_pair = alpha[:-1, :, None] + crf.transitions + (e[1:] + beta[1:])[:, None, :] - log_z
    d_trans = np.exp(log_pair).sum(axis=0)
    np.add.at(d_trans, (tag_ids[:-1], tag_ids[1:]), -1.0)
    d_start = marginals[0].copy()
    d_start[tag_ids[0]] -= 1.0
    d_end = marginals[-1].copy()
    d_end[tag_ids[-1]] -= 1.0

    trans_mask, start_mask = forbidden_masks()
    d_trans[trans_mask] = 0.0
    d_start[start_mask] = 0.0

    g.transitions += d_trans
    g.start_scores += d_start
    g.end_scores += d_end
    return d_e


def viterbi_decode(e: np.ndarray, crf: CrfParams) -> list[str]:
    """Highest-scoring valid tag sequence; ties break toward B < I < O."""
    n = e.shape[0]
    if n < 1:
        raise ValueError("need at least one emission row")
    v = crf.start_scores + e[0]
    backptr = np.empty((n, N_TAGS), dtype=np.intp)
    for t in range(1, n):
        cand = v[:, None] + crf.transitions
        backptr[t] = cand.argmax(axis=0)
        v = cand.max(axis=0) + e[t]
    final = v + crf.end_scores
    best = int(final.argmax())
    path = [best]
    for t in range(n - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    return [INDEX_TAG[i] for i in path]

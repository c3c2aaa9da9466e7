"""Independent reference implementations used to check the vectorized code.

Everything here is deliberately written as plain scalar loops over Python
floats (no numpy vector math), so a shared bug with the library code is
unlikely.
"""

import itertools
import math

import numpy as np

from claimspan.descnet import coda_backward, coda_forward
from claimspan.numerics import softmax_rows, softmax_rows_backward
from claimspan.retrieval import index_terms


def sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def coda_scalar(q, k) -> np.ndarray:
    """tanh(QK^T/sqrt d) * sigmoid(-L1(Q,K)/sqrt d), one entry at a time."""
    s_n, d = q.shape
    m = k.shape[0]
    out = np.zeros((s_n, m))
    root = math.sqrt(d)
    for s in range(s_n):
        for t in range(m):
            dot = 0.0
            l1 = 0.0
            for f in range(d):
                dot += q[s, f] * k[t, f]
                l1 += abs(q[s, f] - k[t, f])
            out[s, t] = math.tanh(dot / root) * sig(-l1 / root)
    return out


def _coda_one_description(z, desc, d_out):
    a, cache = coda_forward(z, desc)
    d_z, d_k = coda_backward(d_out @ desc.T, cache)
    return a @ desc, d_z, a.T @ d_out + d_k


def _dpa_one_description(z, desc, d_out):
    scale = math.sqrt(z.shape[1])
    p = softmax_rows(z @ desc.T / scale)
    d_s = softmax_rows_backward(p, d_out @ desc.T) / scale
    return p @ desc, d_s @ desc, p.T @ d_out + d_s.T @ z


def interact_per_description(variant, z, descs, d_out):
    """The adapter's token-description interaction run one description at a
    time (CoDA or softmax attention of z over that description's tokens,
    applied to the same tokens as values), the outputs concatenated.

    Returns (output (rows, m*d), d_z, d_keys (bank rows, d)) for the upstream
    gradient ``d_out``; a reference for the bank-wide vectorized path.
    """
    one = _coda_one_description if variant == "coda" else _dpa_one_description
    d = z.shape[1]
    outs, d_z, d_keys = [], np.zeros_like(z), []
    for j, desc in enumerate(descs):
        out, d_z_j, d_desc = one(z, desc, d_out[:, j * d:(j + 1) * d])
        outs.append(out)
        d_z += d_z_j
        d_keys.append(d_desc)
    return np.concatenate(outs, axis=1), d_z, np.concatenate(d_keys)


def igm_scalar(zp, z, p) -> np.ndarray:
    """Pooled conflict/refine gating, scalar loops throughout."""
    n, d = z.shape
    z_vec = [max(z[i, j] for i in range(n)) for j in range(d)]
    zp_vec = [max(zp[i, j] for i in range(n)) for j in range(d)]

    def affine(u, v, wu, wv, b):
        return [sum(u[i] * wu[i, j] for i in range(d))
                + sum(v[i] * wv[i, j] for i in range(d)) + b[j]
                for j in range(d)]

    mu_c = [sig(x) for x in affine(z_vec, zp_vec, p.w_c1, p.w_c2, p.b_c1)]
    zc = [z_vec[i] * mu_c[i] for i in range(d)]
    zpc = [zp_vec[i] * (1.0 - mu_c[i]) for i in range(d)]
    conflict = [math.tanh(x) for x in affine(zc, zpc, p.w_c3, p.w_c4, p.b_c2)]

    mu_r = [sig(x) for x in affine(z_vec, zp_vec, p.w_r1, p.w_r2, p.b_r1)]
    zr = [z_vec[i] * mu_r[i] for i in range(d)]
    zpr = [zp_vec[i] * mu_r[i] for i in range(d)]
    refine = [math.tanh(x) for x in affine(zr, zpr, p.w_r3, p.w_r4, p.b_r2)]

    adaptive = [refine[j] + (1.0 - mu_r[j]) * conflict[j] for j in range(d)]
    gate = [math.tanh(sum(adaptive[i] * p.w_a[i, j] for i in range(d)) + p.b_a[j])
            for j in range(d)]
    out = np.zeros((n, d))
    for t in range(n):
        for j in range(d):
            out[t, j] = z[t, j] * gate[j]
    return out


def crf_enumerate(e, crf):
    """Brute force over all 3^N tag sequences with the same scoring rule.

    Returns (log_partition, marginals (N,3), best tag-index sequence).
    """
    n = e.shape[0]
    scored = []
    for seq in itertools.product(range(3), repeat=n):
        s = float(crf.start_scores[seq[0]]) + float(e[0, seq[0]])
        for t in range(1, n):
            s += float(crf.transitions[seq[t - 1], seq[t]]) + float(e[t, seq[t]])
        s += float(crf.end_scores[seq[-1]])
        scored.append((seq, s))
    m = max(s for _seq, s in scored)
    total = sum(math.exp(s - m) for _seq, s in scored)
    log_z = m + math.log(total)
    marg = np.zeros((n, 3))
    for seq, s in scored:
        w = math.exp(s - log_z)
        for t, y in enumerate(seq):
            marg[t, y] += w
    best_seq, _best_s = max(scored, key=lambda item: item[1])
    return log_z, marg, list(best_seq)


def bm25_score_scalar(query_terms, doc_terms, all_doc_term_lists,
                      k1: float = 1.2, b: float = 0.75) -> float:
    """Okapi BM25 score of one document for one query, from raw term lists."""
    n_docs = len(all_doc_term_lists)
    avgdl = sum(len(d) for d in all_doc_term_lists) / n_docs
    dl = len(doc_terms)
    score = 0.0
    for term in query_terms:
        tf = sum(1 for t in doc_terms if t == term)
        if tf == 0:
            continue
        df = sum(1 for d in all_doc_term_lists if term in d)
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return score


def bm25_full_scan(docs, text, k, k1: float = 1.2, b: float = 0.75):
    """Top-k (doc_id, score) by probing every document for every query term.

    The arithmetic of each (document, term) value and the order of the sums
    are those of ``retrieval.query``, so the results must be equal, not close.
    """
    doc_terms = []
    for doc in docs:
        tf = {}
        for term in index_terms(doc["text"]):
            tf[term] = tf.get(term, 0) + 1
        doc_terms.append(tf)
    lengths = [sum(tf.values()) for tf in doc_terms]
    avgdl = sum(lengths) / len(lengths) if lengths else 0.0
    n_docs = len(docs)
    scores = {}
    for term in index_terms(text):
        df = sum(1 for tf in doc_terms if term in tf)
        term_idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        for di in range(n_docs):
            tf = doc_terms[di].get(term, 0)
            if tf == 0:
                continue
            norm = k1 * (1.0 - b + b * lengths[di] / avgdl)
            scores[di] = scores.get(di, 0.0) + term_idf * tf * (k1 + 1.0) / (tf + norm)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], docs[kv[0]]["id"]))
    return [(docs[di]["id"], s) for di, s in ranked[:k]]

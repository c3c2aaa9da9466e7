"""Independent reference implementations used to check the vectorized code.

Most of it is deliberately written as plain scalar loops over Python floats
(no numpy vector math), so a shared bug with the library code is unlikely.
The rest are earlier implementations that a faster library version replaced,
kept so that tests can compare the two.
"""

import itertools
import math
import re
from collections import Counter

import numpy as np

from claimspan.crf import START_MASK, TRANSITION_MASK
from claimspan.metrics import Scores
from claimspan.numerics import LN_EPS, named_arrays, sigmoid, softmax_rows, softmax_rows_backward
from claimspan.preprocess import TAGS, split_hashtag
from claimspan.retrieval import B, K1, Bm25Index, idf, index_terms
from claimspan.training import ADAM_EPS, BETA1, BETA2


def sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """The logistic function as first vectorized: each sign's entries
    gathered and scattered through a boolean mask."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sum_exp_max_shift(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` as first written: shift by the
    maximum, exponentiate, sum, take the log and shift back."""
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)), axis=axis)


def softmax_rows_methods(x: np.ndarray) -> np.ndarray:
    """Row softmax as first written, through array methods and a new array
    at each step."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_methods(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Rowwise layer norm as first written, through ``mean`` and a new array
    at each step; returns (out, (u, inv_std))."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    u = xc * inv
    return u * gain + bias, (u, inv)


def first_max_rows(x: np.ndarray, lengths) -> np.ndarray:
    """For each sequence of packed rows and each column, the first row that
    holds the column's maximum, by a scan over the rows; (sequences, width)."""
    out = np.zeros((len(lengths), x.shape[1]), dtype=np.intp)
    start = 0
    for b, n in enumerate(lengths):
        for f in range(x.shape[1]):
            best = start
            for r in range(start + 1, start + n):
                if x[r, f] > x[best, f]:
                    best = r
            out[b, f] = best
        start += n
    return out


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


def coda_forward_3d(q, k):
    """CoDA as it was first vectorized, kept as a reference: the negative L1
    term goes through one (rows, tokens, d) temporary. Returns (matrix,
    cache)."""
    scale = np.sqrt(q.shape[1])
    t = np.tanh(q @ k.T / scale)
    dist = q[:, None, :] - k[None, :, :]
    np.abs(dist, out=dist)
    gs = sigmoid(-dist.sum(axis=-1) / scale)
    return t * gs, {"q": q, "k": k, "t": t, "gs": gs, "scale": scale}


def coda_backward_3d(d_a, cache):
    """(d_q, d_k) of ``coda_forward_3d``: the L1 term's gradient is d_g times
    sign(q - k), sign(0) = 0, through one (rows, tokens, d) temporary."""
    q, k, t, gs, scale = cache["q"], cache["k"], cache["t"], cache["gs"], cache["scale"]
    d_t = d_a * gs
    d_gs = d_a * t
    d_s = d_t * (1.0 - t**2) / scale
    d_q = d_s @ k
    d_k = d_s.T @ q
    d_g = d_gs * gs * (1.0 - gs) / scale
    term = q[:, None, :] - k[None, :, :]
    np.sign(term, out=term)
    term *= d_g[:, :, None]
    d_q -= term.sum(axis=1)
    d_k += term.sum(axis=0)
    return d_q, d_k


def _coda_one_description(z, desc, d_out):
    a, cache = coda_forward_3d(z, desc)
    d_z, d_k = coda_backward_3d(d_out @ desc.T, cache)
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

    mu_c = [sig(x) for x in affine(z_vec, zp_vec, p.conflict.w1, p.conflict.w2, p.conflict.b1)]
    zc = [z_vec[i] * mu_c[i] for i in range(d)]
    zpc = [zp_vec[i] * (1.0 - mu_c[i]) for i in range(d)]
    conflict = [math.tanh(x) for x in affine(zc, zpc, p.conflict.w3, p.conflict.w4, p.conflict.b2)]

    mu_r = [sig(x) for x in affine(z_vec, zp_vec, p.refine.w1, p.refine.w2, p.refine.b1)]
    zr = [z_vec[i] * mu_r[i] for i in range(d)]
    zpr = [zp_vec[i] * mu_r[i] for i in range(d)]
    refine = [math.tanh(x) for x in affine(zr, zpr, p.refine.w3, p.refine.w4, p.refine.b2)]

    adaptive = [refine[j] + (1.0 - mu_r[j]) * conflict[j] for j in range(d)]
    gate = [math.tanh(sum(adaptive[i] * p.w_a[i, j] for i in range(d)) + p.b_a[j])
            for j in range(d)]
    out = np.zeros((n, d))
    for t in range(n):
        for j in range(d):
            out[t, j] = z[t, j] * gate[j]
    return out


def crf_enumerate(e, crf):
    """Brute force over all 3^N tag sequences with the same scoring rule,
    the BIO mask included (a masked move scores -inf).

    Returns (log_partition, marginals (N,3), best tag-index sequence).
    """
    n = e.shape[0]
    scored = []
    for seq in itertools.product(range(3), repeat=n):
        s = float(crf.start_scores[seq[0]] + START_MASK[seq[0]]) + float(e[0, seq[0]])
        for t in range(1, n):
            move = crf.transitions[seq[t - 1], seq[t]] + TRANSITION_MASK[seq[t - 1], seq[t]]
            s += float(move) + float(e[t, seq[t]])
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


def viterbi_decode_per_sequence(e, crf, packing) -> list[str]:
    """Viterbi decoding with the chunk-wide forward pass and a backtrack run
    one sequence and one token at a time in Python, as first written."""
    em = packing.pad(e)
    v = crf.start_scores + START_MASK + em[:, 0]
    scores = [v]
    backptr = np.empty(em.shape, dtype=np.intp)
    for t in range(1, packing.n_max):
        cand = v[:, :, None] + crf.transitions + TRANSITION_MASK
        backptr[:, t] = cand.argmax(axis=1)
        v = cand.max(axis=1) + em[:, t]
        scores.append(v)
    lengths = packing.lengths.tolist()
    final = np.array([scores[n - 1][seq] for seq, n in enumerate(lengths)])
    best = (final + crf.end_scores).argmax(axis=1).tolist()
    pointers = backptr.tolist()
    out = []
    for seq, n in enumerate(lengths):
        path, steps = [best[seq]], pointers[seq]
        for t in range(n - 1, 0, -1):
            path.append(steps[t][path[-1]])
        out.extend(TAGS[i] for i in reversed(path))
    return out


class AdamPerTensor:
    """Adam as first written: a walk over the parameter and gradient trees,
    with moments kept per tensor name."""

    def __init__(self):
        self.m, self.v, self.step_count = {}, {}, 0

    def step(self, params, grads, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        for (name, p), (_gname, g) in zip(named_arrays(params), named_arrays(grads)):
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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

    The arithmetic of each (document, term) value is that of
    ``retrieval.build_index`` and the order of the sums that of
    ``retrieval.query``, so the results must be equal, not close.
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


def build_index_by_counter(docs) -> Bm25Index:
    """The index as built before inversion by sorting: a ``Counter`` per
    document and a ``(docs, tfs)`` pair of lists per term, in the order the
    terms first appear; the values are computed as ``build_index`` does."""
    ids, lengths = [], []
    postings: dict[str, tuple[list[int], list[int]]] = {}
    for di, doc in enumerate(docs):
        terms = index_terms(doc["text"])
        for term, count in Counter(terms).items():
            entry = postings.get(term)
            if entry is None:
                entry = postings[term] = ([], [])
            entry[0].append(di)
            entry[1].append(count)
        ids.append(doc["id"])
        lengths.append(len(terms))
    n_docs = len(ids)
    avgdl = sum(lengths) / n_docs if n_docs else 0.0
    doc_rank = np.empty(n_docs, dtype=np.intp)
    doc_rank[sorted(range(n_docs), key=ids.__getitem__)] = np.arange(n_docs)
    dfs = [len(d) for d, _t in postings.values()]
    bounds = itertools.pairwise(itertools.accumulate(dfs, initial=0))
    slices = {term: slice(start, end) for term, (start, end) in zip(postings, bounds)}
    posting_docs = np.fromiter(itertools.chain.from_iterable(
        d for d, _t in postings.values()), np.intp, sum(dfs))
    tf = np.fromiter(itertools.chain.from_iterable(
        t for _d, t in postings.values()), np.float64, sum(dfs))
    doc_norm = K1 * (1.0 - B + B * np.array(lengths, dtype=np.float64) / (avgdl or 1.0))
    values = np.repeat([idf(n_docs, df) for df in dfs], dfs)
    values *= tf
    values *= K1 + 1.0
    tf += doc_norm[posting_docs]
    values /= tf
    return Bm25Index(tuple(ids), slices, posting_docs, values, doc_rank)


# ---------------------------------------------------------------------------
# Text front end: one chunk and one character at a time

_URL_PREFIX = re.compile(r"https?://")
_ASCII_ALNUM = re.compile(r"[A-Za-z0-9]")
_CHUNK = re.compile(r"\S+")
_TOKEN = re.compile(r"#[A-Za-z0-9_]+|n't|[A-Za-z0-9]+(?=n't)|[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def normalize_text_scalar(raw: str):
    """(text, norm_to_raw, raw_to_norm) with a keep flag per raw character.

    A whitespace chunk is junk if it starts with a URL scheme or holds no
    ASCII alphanumeric; it is removed with the whitespace run after it, or,
    when it ends the text, with the still-kept whitespace run before it.
    """
    keep = [True] * len(raw)
    for m in _CHUNK.finditer(raw):
        chunk = m.group()
        if not (_URL_PREFIX.match(chunk) or not _ASCII_ALNUM.search(chunk)):
            continue
        for j in range(m.start(), m.end()):
            keep[j] = False
        j = m.end()
        if j < len(raw) and raw[j].isspace():
            while j < len(raw) and raw[j].isspace():
                keep[j] = False
                j += 1
        else:
            j = m.start() - 1
            while j >= 0 and raw[j].isspace() and keep[j]:
                keep[j] = False
                j -= 1
    norm_to_raw = [j for j in range(len(raw)) if keep[j]]
    raw_to_norm = [-1] * len(raw)
    for i, j in enumerate(norm_to_raw):
        raw_to_norm[j] = i
    return "".join(raw[j] for j in norm_to_raw), norm_to_raw, raw_to_norm


def tokenize_scalar(text: str) -> list[tuple[str, int, int]]:
    """(surface, start, end) per token, hashtags expanded piece by piece."""
    tokens = []
    for m in _TOKEN.finditer(text):
        surface = m.group()
        if surface.startswith("#") and len(surface) > 1:
            cursor = m.start()
            for piece in split_hashtag(surface):
                at = text.index(piece, cursor)
                tokens.append((piece, at, at + len(piece)))
                cursor = at + len(piece)
        else:
            tokens.append((surface, m.start(), m.end()))
    return tokens


def index_terms_scalar(text: str) -> list[str]:
    """Lowercased tokens of the normalized text that hold an alphanumeric
    character, tested character by character."""
    clean = normalize_text_scalar(text)[0]
    return [s.lower() for s, _a, _b in tokenize_scalar(clean)
            if any(c.isalnum() for c in s)]


def encode_bio_scan(starts, ends, spans) -> list[str]:
    """BIO tags by testing every token against every span: a token is in a
    span iff their ranges intersect, and one already tagged by an earlier
    span keeps its tag."""
    tags = ["O"] * len(starts)
    for sp in spans:
        members = [i for i in range(len(starts))
                   if starts[i] < sp.end and sp.start < ends[i] and tags[i] == "O"]
        for rank, i in enumerate(members):
            tags[i] = "B" if rank == 0 else "I"
    return tags


def per_tag_prf_scan(pred, gold) -> dict:
    """Per-tag micro scores by walking every token once per tag."""
    out = {}
    for tag in TAGS:
        tp = fp = fn = 0
        for a_seq, g_seq in zip(pred, gold):
            for a, g in zip(a_seq, g_seq):
                if a == tag and g == tag:
                    tp += 1
                elif a == tag:
                    fp += 1
                elif g == tag:
                    fn += 1
        # a 0/0 score is 1 when the tag is neither predicted nor gold, else 0
        neither = tp + fp == 0 and tp + fn == 0
        p = tp / (tp + fp) if tp + fp else float(neither)
        r = tp / (tp + fn) if tp + fn else float(neither)
        f1 = 2.0 * p * r / (p + r) if p + r else 0.0
        out[tag] = Scores(p, r, f1)
    return out

"""Okapi BM25 retrieval and the tweet-query vs span-query comparison.

The experiment: retrieve evidence documents once using each post's full text
as the query and once using only its annotated claim spans, then compare mean
P@k and nDCG@k between the two conditions against shared relevance judgments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import sub

import numpy as np

from .preprocess import (
    AnnotatedPost,
    CorpusFormatError,
    is_plain,
    json_id,
    normalize_text,
    read_jsonl,
    tokenize,
)

# Standard Okapi BM25 (Robertson & Zaragoza, 2009): term-frequency
# saturation K1 and length normalization B.
K1 = 1.2
B = 0.75


def index_terms(text: str) -> list[str]:
    """Query/document terms: URL-stripped, tokenized, lowercased; tokens with
    no alphanumeric character are dropped."""
    clean, _ = normalize_text(text)
    # Only a one-character token can lack an alphanumeric character: hashtag
    # pieces and alphanumeric runs are alphanumeric, and n't holds n and t.
    return [s.lower() for s in tokenize(clean).surfaces if len(s) > 1 or s.isalnum()]


@dataclass(frozen=True, eq=False)
class Bm25Index:
    """An inverted index of precomputed impacts (Anh & Moffat, SIGIR 2006).

    ``postings[term]`` is the term's slice of two flat arrays:
    ``posting_docs`` holds the indices of the documents containing the term
    (ascending, intp) and ``posting_values`` each one's BM25 value
    ``idf * tf * (K1 + 1) / (tf + K1 * (1 - B + B * len / avgdl))``, computed
    once at build from the document's term count ``len`` and the mean count
    ``avgdl``; a term's df is the length of its slice. Terms are keyed, and
    their slices laid out, in the order of their first occurrence in the
    documents. A document's terms are its ``index_terms``, taken as
    ``str.lower().split()`` when its raw text is plain
    (``preprocess.is_plain``; see ``build_index``). Every value is > 0:
    idf > 0 since df <= n_docs, tf >= 1 and the length normalization is at
    least K1 * (1 - B) > 0.
    ``doc_rank[d]`` is document d's position in doc-id order, which breaks
    score ties."""

    doc_ids: tuple[str, ...]
    postings: dict
    posting_docs: np.ndarray
    posting_values: np.ndarray
    doc_rank: np.ndarray

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def build_index(docs: list[dict]) -> Bm25Index:
    """``docs`` entries need "id" and "text"; duplicate ids are rejected.

    Inversion by sorting (Witten, Moffat & Bell, *Managing Gigabytes*, 1999,
    ch. 5): each term occurrence is one int64 key ``term id * n_docs + doc``.
    A term's id is the position of its first occurrence among all of them, so
    ids follow first appearance, as ``postings`` does, and stay below the
    occurrence count. Sorted, the keys run term by term and, within a term,
    document by document: each run of equal keys is one posting, its length
    the tf, and a term's df is its number of runs.

    A document whose raw text is plain (``preprocess.is_plain``, the one
    home of that rule) is indexed by ``text.lower().split()``, which equals
    its ``index_terms``; any other goes through ``index_terms``. Test the
    raw text: the Kelvin sign U+212A is junk to ``index_terms`` but lowers
    to a plain ``k``.
    """
    ids, lengths = [], []
    first: dict[str, int] = {}
    occurrences: list[int] = []  # the term id of every occurrence, doc by doc
    position = itertools.count()
    seen = set()
    for doc in docs:
        doc_id = doc["id"]
        if doc_id in seen:
            raise ValueError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        text = doc["text"]
        terms = text.lower().split() if is_plain(text) else index_terms(text)
        occurrences.extend(map(first.setdefault, terms, position))
        ids.append(doc_id)
        lengths.append(len(terms))
    n_docs = len(ids)
    avgdl = sum(lengths) / n_docs if n_docs else 0.0
    doc_rank = np.empty(n_docs, dtype=np.intp)
    doc_rank[sorted(range(n_docs), key=ids.__getitem__)] = np.arange(n_docs)
    keys = np.fromiter(occurrences, np.int64, len(occurrences))
    del occurrences
    keys *= n_docs
    keys += np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    keys.sort()
    runs = _run_starts(keys)
    tf = np.diff(runs, append=keys.size).astype(np.float64)
    keys = keys[runs]  # one key per posting
    del runs
    # Split each key in place into its term id and its document; n_docs is 0
    # only when there are no keys.
    posting_docs = keys % (n_docs or 1)
    keys //= n_docs or 1
    bounds = _run_starts(keys).tolist() + [keys.size]  # where each term's postings start
    del keys
    slices = dict(zip(first, map(slice, bounds, bounds[1:])))
    dfs = list(map(sub, bounds[1:], bounds))
    # One pass over all postings: idf * tf * (K1 + 1) / (tf + norm), in place.
    # avgdl is 0 only when no document has a term, and then there are no postings.
    doc_norm = K1 * (1.0 - B + B * np.array(lengths, dtype=np.float64) / (avgdl or 1.0))
    idfs = {df: idf(n_docs, df) for df in set(dfs)}  # terms share few distinct dfs
    values = np.repeat(list(map(idfs.__getitem__, dfs)), dfs)
    values *= tf
    values *= K1 + 1.0
    tf += doc_norm[posting_docs]
    values /= tf
    return Bm25Index(tuple(ids), slices, posting_docs, values, doc_rank)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal values."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def idf(n_docs: int, df: int) -> float:
    """Okapi BM25's idf of a term in ``df`` of ``n_docs`` documents."""
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def query(index: Bm25Index, text: str, k: int) -> list[tuple[str, float]]:
    """Top-k (doc_id, score), score-descending with ties broken by doc id.

    Every occurrence of a query term contributes; documents sharing no term
    with the query are not returned, so an all-unknown query yields [].
    Only the postings of the query terms are read. Each document's score
    adds its precomputed per-term values in query-term order, as a full scan
    would; since every value is > 0, the documents scoring above 0 are the
    hits. With more than k hits, only those scoring at least the k-th
    largest score are sorted: documents tied with it stay in, so the tie
    break by doc id decides the cut as a sort of all hits would.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    spans = [s for s in map(index.postings.get, index_terms(text)) if s is not None]
    if not spans:
        return []
    # bincount adds the weights into zeros in the order given, term by term.
    scores = np.bincount(np.concatenate([index.posting_docs[s] for s in spans]),
                         np.concatenate([index.posting_values[s] for s in spans]),
                         index.n_docs)
    hits = np.flatnonzero(scores)
    hit_scores = scores[hits]
    if hits.size > k:
        cut = hits.size - k
        keep = hit_scores >= np.partition(hit_scores, cut)[cut]
        hits, hit_scores = hits[keep], hit_scores[keep]
    top = hits[np.lexsort((index.doc_rank[hits], -hit_scores))[:k]]
    return [(index.doc_ids[di], float(scores[di])) for di in top]


# ---------------------------------------------------------------------------
# Ranking quality

@dataclass
class RetrievalJudgment:
    query_id: str
    ranked: list[str]
    relevant: set = field(default_factory=set)

    def __post_init__(self):
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"query {self.query_id}: ranked list repeats a document")


def precision_at_k(judged: RetrievalJudgment, k: int) -> float:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    hits = sum(1 for d in judged.ranked[:k] if d in judged.relevant)
    return hits / k


def ndcg_at_k(judged: RetrievalJudgment, k: int) -> float:
    """Binary-relevance nDCG; 0 when the query has no relevant documents."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    dcg = sum(1.0 / math.log2(i + 2)
              for i, d in enumerate(judged.ranked[:k]) if d in judged.relevant)
    ideal_hits = min(k, len(judged.relevant))
    idcg = sum(1.0 / math.log2(i + 2) for i in range(ideal_hits))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


# ---------------------------------------------------------------------------
# Tweet vs span conditions

def span_query_text(post: AnnotatedPost) -> str:
    return " ".join(post.text[s.start:s.end] for s in post.spans)


def compare_conditions(posts: list[AnnotatedPost], docs: list[dict],
                       relevant_by_query: dict[str, set],
                       k_list: tuple[int, ...] = (3, 5)) -> dict:
    """Mean P@k and nDCG@k per condition over all posts, at each of the
    distinct cutoffs ``k_list``.

    A post with no annotated spans gets an empty span-condition query and
    scores 0 there; both conditions always cover every post.
    """
    if not posts:
        raise ValueError("no query posts")
    if not k_list or len(set(k_list)) != len(k_list):
        raise ValueError(f"cutoffs must be non-empty and distinct, got {list(k_list)}")
    index = build_index(docs)
    max_k = max(k_list)
    conditions = {"tweets": lambda p: p.text, "spans": span_query_text}
    report: dict = {"k_list": list(k_list), "n_queries": len(posts), "conditions": {}}
    for name, to_query in conditions.items():
        sums = {f"p@{k}": 0.0 for k in k_list}
        sums.update({f"ndcg@{k}": 0.0 for k in k_list})
        for post in posts:
            ranked = [d for d, _s in query(index, to_query(post), max_k)]
            judged = RetrievalJudgment(post.id, ranked,
                                       relevant_by_query.get(post.id, set()))
            for k in k_list:
                sums[f"p@{k}"] += precision_at_k(judged, k)
                sums[f"ndcg@{k}"] += ndcg_at_k(judged, k)
        report["conditions"][name] = {key: val / len(posts) for key, val in sums.items()}
    return report


# ---------------------------------------------------------------------------
# File formats

def load_documents(path) -> list[dict]:
    """Line-delimited JSON objects with "id" and "text"."""
    docs = []
    for where, doc in read_jsonl(path, ("id", "text")):
        if not isinstance(doc["text"], str):
            raise CorpusFormatError(f"{where}: \"text\" must be a string")
        docs.append({"id": json_id(doc["id"], f"{where}: \"id\""), "text": doc["text"]})
    return docs


def load_judgments(path) -> dict[str, set]:
    """Line-delimited {"query_id", "relevant": [...]} records."""
    out: dict[str, set] = {}
    for where, rec in read_jsonl(path, ("query_id", "relevant")):
        qid = json_id(rec["query_id"], f"{where}: \"query_id\"")
        if qid in out:
            raise CorpusFormatError(f"{where}: duplicate query_id {qid!r}")
        if not isinstance(rec["relevant"], list):
            raise CorpusFormatError(f"{where}: \"relevant\" must be a list")
        out[qid] = {json_id(d, f"{where}: a \"relevant\" entry") for d in rec["relevant"]}
    return out

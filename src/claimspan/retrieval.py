"""Okapi BM25 retrieval and the tweet-query vs span-query comparison.

The experiment: retrieve evidence documents once using each post's full text
as the query and once using only its annotated claim spans, then compare mean
P@k and nDCG@k between the two conditions against shared relevance judgments.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .preprocess import AnnotatedPost, CorpusFormatError, json_id, normalize_text, tokenize

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
    return [s.lower() for s, _start, _end in tokenize(clean)
            if len(s) > 1 or s.isalnum()]


@dataclass(frozen=True, eq=False)
class Bm25Index:
    """An inverted index: ``postings[term]`` holds the indices of the
    documents containing ``term`` (ascending, intp) and its count in each
    (float64). ``doc_norm[d]`` is document d's length normalization
    ``K1 * (1 - B + B * len / avgdl)``; ``doc_rank[d]`` is its position in
    doc-id order, which breaks score ties."""

    doc_ids: tuple[str, ...]
    doc_lengths: tuple[int, ...]
    doc_freq: dict
    avgdl: float
    postings: dict
    doc_norm: np.ndarray
    doc_rank: np.ndarray

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def build_index(docs: list[dict]) -> Bm25Index:
    """``docs`` entries need "id" and "text"; duplicate ids are rejected."""
    ids, lengths = [], []
    postings: dict[str, tuple[list[int], list[int]]] = {}
    seen = set()
    for di, doc in enumerate(docs):
        doc_id = doc["id"]
        if doc_id in seen:
            raise ValueError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        terms = index_terms(doc["text"])
        for term, count in Counter(terms).items():
            entry = postings.get(term)
            if entry is None:
                entry = postings[term] = ([], [])
            entry[0].append(di)
            entry[1].append(count)
        ids.append(doc_id)
        lengths.append(len(terms))
    avgdl = sum(lengths) / len(lengths) if lengths else 0.0
    # avgdl is 0 only when no document has a term, so no posting reads doc_norm.
    if avgdl > 0.0:
        doc_norm = K1 * (1.0 - B + B * np.array(lengths, dtype=np.float64) / avgdl)
    else:
        doc_norm = np.zeros(len(lengths))
    doc_rank = np.empty(len(ids), dtype=np.intp)
    doc_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    doc_freq = {term: len(d) for term, (d, _t) in postings.items()}
    arrays = {term: (np.array(d, dtype=np.intp), np.array(t, dtype=np.float64))
              for term, (d, t) in postings.items()}
    return Bm25Index(tuple(ids), tuple(lengths), doc_freq, avgdl, arrays, doc_norm, doc_rank)


def idf(index: Bm25Index, term: str) -> float:
    df = index.doc_freq.get(term, 0)
    return math.log((index.n_docs - df + 0.5) / (df + 0.5) + 1.0)


def query(index: Bm25Index, text: str, k: int) -> list[tuple[str, float]]:
    """Top-k (doc_id, score), score-descending with ties broken by doc id.

    Every occurrence of a query term contributes; documents sharing no term
    with the query are not returned, so an all-unknown query yields [].
    Only the postings of the query terms are read. Each document's score
    adds its per-term values in query-term order, as a full scan would.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    scores = np.zeros(index.n_docs)
    touched = np.zeros(index.n_docs, dtype=bool)
    for term in index_terms(text):
        posting = index.postings.get(term)
        if posting is None:
            continue
        docs, tf = posting
        scores[docs] += idf(index, term) * tf * (K1 + 1.0) / (tf + index.doc_norm[docs])
        touched[docs] = True
    hits = np.flatnonzero(touched)
    top = hits[np.lexsort((index.doc_rank[hits], -scores[hits]))[:k]]
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(doc, dict) or "id" not in doc or "text" not in doc:
                raise CorpusFormatError(f"{path}:{lineno}: need \"id\" and \"text\" fields")
            if not isinstance(doc["text"], str):
                raise CorpusFormatError(f"{path}:{lineno}: \"text\" must be a string")
            docs.append({"id": json_id(doc["id"], f"{path}:{lineno}: \"id\""), "text": doc["text"]})
    return docs


def load_judgments(path) -> dict[str, set]:
    """Line-delimited {"query_id", "relevant": [...]} records."""
    out: dict[str, set] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict) or "query_id" not in rec or "relevant" not in rec:
                raise CorpusFormatError(f"{path}:{lineno}: need \"query_id\" and \"relevant\"")
            qid = json_id(rec["query_id"], f"{path}:{lineno}: \"query_id\"")
            if qid in out:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate query_id {qid!r}")
            if not isinstance(rec["relevant"], list):
                raise CorpusFormatError(f"{path}:{lineno}: \"relevant\" must be a list")
            out[qid] = {json_id(d, f"{path}:{lineno}: a \"relevant\" entry") for d in rec["relevant"]}
    return out

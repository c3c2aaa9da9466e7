import math
import random
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimspan import preprocess, retrieval
from claimspan.preprocess import AnnotatedPost, CharSpan, CorpusFormatError
from claimspan.retrieval import (
    RetrievalJudgment,
    build_index,
    compare_conditions,
    idf,
    index_terms,
    load_documents,
    load_judgments,
    ndcg_at_k,
    precision_at_k,
    query,
    span_query_text,
)

from claimspan.synthetic import generate_retrieval_fixture

from oracles import bm25_full_scan, bm25_score_scalar, build_index_by_counter

DOCS3 = [
    {"id": "d1", "text": "garlic cures covid"},
    {"id": "d2", "text": "garlic garlic soup recipe"},
    {"id": "d3", "text": "weather report for tuesday"},
]


# ---------------------------------------------------------------------------
# term extraction

def test_index_terms_lowercase_and_strip():
    terms = index_terms("Garlic CURES covid! https://t.co/abc123 ...")
    assert terms == ["garlic", "cures", "covid"]


def test_index_terms_keeps_numbers():
    assert index_terms("5G towers, 100% fake") == ["5g", "towers", "100", "fake"]


def test_index_and_query_run_the_text_front_end(monkeypatch):
    # The benchmark's tracer fails a retrieve pass in which
    # preprocess.tokenize or preprocess.normalize_text records no call. Each
    # is counted in both modules a retrieve pass runs through. Plain
    # documents are indexed by str.lower().split() with no call, so the
    # calls come from the query.
    calls = Counter()
    for name in ("tokenize", "normalize_text"):
        real = getattr(preprocess, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (preprocess, retrieval):
            if getattr(module, name) is real:
                monkeypatch.setattr(module, name, counted)
    assert all(preprocess.is_plain(d["text"]) for d in DOCS3)
    index = build_index(DOCS3)
    assert not calls
    query(index, "garlic soup", 2)
    assert calls == {"tokenize": 1, "normalize_text": 1}


# ---------------------------------------------------------------------------
# index statistics

def test_index_stats_hand_tally():
    index = build_index(DOCS3)
    assert index.n_docs == 3
    # "garlic" appears in two documents (tf inside a doc does not add df)
    assert len(index.posting_docs[index.postings["garlic"]]) == 2
    assert len(index.posting_docs[index.postings["covid"]]) == 1
    span = index.postings["garlic"]
    assert index.posting_docs[span].tolist() == [0, 1]
    # garlic once in d1 (3 terms) and twice in d2 (4 terms); avgdl 11/3
    garlic_idf = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0)
    assert index.posting_values[span].tolist() == [
        garlic_idf * 1 * 2.2 / (1 + 1.2 * (1.0 - 0.75 + 0.75 * 3 / (11 / 3))),
        garlic_idf * 2 * 2.2 / (2 + 1.2 * (1.0 - 0.75 + 0.75 * 4 / (11 / 3))),
    ]
    # weather once in d3 (4 terms)
    weather_idf = math.log((3 - 1 + 0.5) / (1 + 0.5) + 1.0)
    assert index.posting_values[index.postings["weather"]].tolist() == [
        weather_idf * 1 * 2.2 / (1 + 1.2 * (1.0 - 0.75 + 0.75 * 4 / (11 / 3))),
    ]


def test_idf_hand_value():
    assert idf(3, 1) == pytest.approx(math.log((3 - 1 + 0.5) / 1.5 + 1))
    assert idf(3, 2) == pytest.approx(math.log((3 - 2 + 0.5) / 2.5 + 1))
    # a term in every document keeps a positive idf
    assert idf(3, 3) == pytest.approx(math.log(0.5 / 3.5 + 1))


def test_duplicate_doc_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_index([{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])


# ---------------------------------------------------------------------------
# querying

def test_query_matches_scalar_oracle():
    index = build_index(DOCS3)
    term_lists = [index_terms(d["text"]) for d in DOCS3]
    results = dict(query(index, "garlic cures", k=3))
    for di, doc in enumerate(DOCS3):
        expected = bm25_score_scalar(index_terms("garlic cures"), term_lists[di], term_lists)
        if expected == 0.0:
            assert doc["id"] not in results
        else:
            assert results[doc["id"]] == pytest.approx(expected, abs=1e-12)


def test_query_ordering():
    index = build_index(DOCS3)
    ranked = [d for d, _s in query(index, "garlic cures covid", k=3)]
    # d1 matches all three terms and wins; d3 shares nothing and is absent
    assert ranked == ["d1", "d2"]


def test_query_no_shared_terms():
    index = build_index(DOCS3)
    assert query(index, "unrelated nonsense", k=5) == []


def test_query_tie_broken_by_doc_id():
    docs = [{"id": "b", "text": "alpha beta"}, {"id": "a", "text": "alpha beta"},
            {"id": "c", "text": "other stuff"}]
    index = build_index(docs)
    ranked = [d for d, _s in query(index, "alpha", k=3)]
    assert ranked == ["a", "b"]


def test_query_k_validation():
    index = build_index(DOCS3)
    with pytest.raises(ValueError):
        query(index, "garlic", k=0)


def test_one_doc_corpus():
    index = build_index([{"id": "only", "text": "garlic cures covid"}])
    results = query(index, "garlic", k=1)
    assert [d for d, _s in results] == ["only"]
    assert results[0][1] > 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8),
                min_size=1, max_size=6),
       st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5))
def test_query_scores_match_oracle_random(doc_words, query_words):
    docs = [{"id": f"d{i}", "text": " ".join(ws)} for i, ws in enumerate(doc_words)]
    index = build_index(docs)
    got = dict(query(index, " ".join(query_words), k=len(docs)))
    term_lists = [index_terms(d["text"]) for d in docs]
    for i, doc in enumerate(docs):
        expected = bm25_score_scalar(query_words, term_lists[i], term_lists)
        if doc["id"] in got:
            assert got[doc["id"]] == pytest.approx(expected, abs=1e-12)
        else:
            assert expected == 0.0


# Words drawn from a small pool so documents repeat (equal scores) and
# queries repeat terms; "zz" is in no document and "!!" is no term at all.
_POOL_TEXTS = ["a b", "a b", "b c c", "c", "a a a d", "d e", "!!", "e b a"]
_QUERY_WORDS = ["a", "b", "c", "d", "e", "zz", "!!"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_POOL_TEXTS), min_size=1, max_size=10),
       st.randoms(use_true_random=False),
       st.lists(st.sampled_from(_QUERY_WORDS), min_size=1, max_size=6),
       st.integers(1, 13))
# "a" ties d0 and d1 (both "a b") across the cut-off at k=1.
@example(["a b", "a b", "c"], None, ["a"], 1)
# Repeated and missing terms, k beyond the number of matches.
@example(["a a a d", "d e", "!!", "a b"], None, ["a", "zz", "a", "d"], 9)
# Five documents score and three tie ("a b") across the cut-off at k=2 and
# at k=3; the shuffles put the tied documents' ids out of index order.
@example(["a a a d", "a b", "e b a", "a b", "a b", "c"], random.Random(0), ["a"], 2)
@example(["a a a d", "a b", "e b a", "a b", "a b", "c"], random.Random(7), ["a"], 3)
def test_query_equals_full_scan(texts, rnd, query_words, k):
    ids = [f"d{i}" for i in range(len(texts))]
    if rnd is not None:
        rnd.shuffle(ids)   # doc-id order differs from index order
    docs = [{"id": i, "text": t} for i, t in zip(ids, texts)]
    text = " ".join(query_words)
    assert query(build_index(docs), text, k) == bm25_full_scan(docs, text, k)


# The property that lets a query take the documents scoring above 0 as its hits.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=1, max_size=8),
       st.integers(0, 500))
@example([[]], 0)                      # one document, one term
@example([["a", "b"], ["c"], []], 500)  # one document 500 terms longer than the rest
def test_posting_values_positive(doc_words, extra_len):
    # "every" is in every document (df = n_docs); the first has extra_len more terms.
    texts = [" ".join(words + ["every"]) for words in doc_words]
    texts[0] += " long" * extra_len
    index = build_index([{"id": f"d{i}", "text": t} for i, t in enumerate(texts)])
    assert len(index.posting_docs[index.postings["every"]]) == index.n_docs
    assert index.posting_values.size == sum(
        len(index.posting_docs[span]) for span in index.postings.values())
    assert (index.posting_values > 0.0).all()


# Words that make hashtags, URLs, junk-only chunks, repeated and mixed-case
# terms and non-ASCII letters; a text of only "", "🙂", "→→", "!!!", the
# Kelvin sign (which lowers to "k") or a URL has no term. Texts join their
# words with ASCII or Unicode whitespace, so that plain documents, indexed
# by str.lower().split(), mix with the others.
_LAYOUT_WORDS = ["garlic", "Garlic", "GARLIC", "cures", "5G", "don't", "#WuhanLab",
                 "#covid_19", "#COVID19", "#", "https://t.co/x1", "🙂", "→→", "!!!",
                 "naïve", "ÉCOLE", "x日本", "İstanbul", "\u212a", "a", "a", ""]
_LAYOUT_SPACES = [" ", "\u2003", "\x1c", "\t\n"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(str.join, st.sampled_from(_LAYOUT_SPACES),
                          st.lists(st.sampled_from(_LAYOUT_WORDS), max_size=9)),
                max_size=8).flatmap(
           lambda texts: st.tuples(st.just(texts), st.permutations(range(len(texts))))))
@example(([], []))
@example((["", "🙂 !!!", "https://t.co/x1"], [2, 0, 1]))
@example((["a a A", "#WuhanLab wuhan LAB", "a"], [1, 2, 0]))
@example((["\u212a cures flu", "k\u2003K\x1c5G\t\n"], [1, 0]))
def test_posting_layout_equals_counter_build(case):
    texts, order = case
    # ids out of index order, so doc_rank is no identity
    docs = [{"id": f"d{i}", "text": t} for i, t in zip(order, texts)]
    index, want = build_index(docs), build_index_by_counter(docs)
    assert index.doc_ids == want.doc_ids
    assert list(index.postings.items()) == list(want.postings.items())
    assert index.posting_docs.dtype == want.posting_docs.dtype == np.intp
    assert index.posting_docs.tolist() == want.posting_docs.tolist()
    assert index.posting_values.dtype == np.float64
    assert index.posting_values.tobytes() == want.posting_values.tobytes()
    assert index.doc_rank.dtype == want.doc_rank.dtype
    assert index.doc_rank.tolist() == want.doc_rank.tolist()


def test_plain_docs_index_as_their_comma_copies():
    # The fixture's documents are plain (ASCII letters, digits and spaces), so
    # the front end takes its plain branch on them; with ", " for each space
    # it takes the token grammar, whose comma tokens are no terms.
    _posts, docs, _relevant = generate_retrieval_fixture(40, seed=5)
    assert all(re.fullmatch(r"[ A-Za-z0-9]+", d["text"]) for d in docs)
    commas = [{"id": d["id"], "text": d["text"].replace(" ", ", ")} for d in docs]
    plain, spaced = build_index(docs), build_index(commas)
    assert list(plain.postings.items()) == list(spaced.postings.items())
    assert plain.posting_docs.tolist() == spaced.posting_docs.tolist()
    assert plain.posting_values.tobytes() == spaced.posting_values.tobytes()
    assert plain.doc_rank.tolist() == spaced.doc_rank.tolist()


@pytest.mark.parametrize("docs", [[], [{"id": "x", "text": "!! ..."},
                                       {"id": "y", "text": ""}]],
                         ids=["empty", "term-free"])
def test_index_without_terms(docs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = build_index(docs)
        assert query(index, "garlic !!", k=3) == []


# ---------------------------------------------------------------------------
# ranking metrics

def test_precision_fixtures():
    j = RetrievalJudgment("q", ["a", "b", "c", "d", "e"], {"a", "c", "e", "x"})
    assert precision_at_k(j, 1) == 1.0
    assert precision_at_k(j, 2) == 0.5
    assert precision_at_k(j, 5) == 0.6
    # ranked list shorter than k: misses count against precision
    short = RetrievalJudgment("q2", ["a"], {"a"})
    assert precision_at_k(short, 5) == 0.2


def test_mean_precision_forty_four():
    # 25 queries, hit counts 3,2,2,2,2 repeating: mean P@5 = 55/(25*5) = 0.44
    hits_pattern = [3, 2, 2, 2, 2] * 5
    total = 0.0
    for qi, hits in enumerate(hits_pattern):
        ranked = [f"h{qi}-{i}" for i in range(5)]
        relevant = set(ranked[:hits])
        total += precision_at_k(RetrievalJudgment(f"q{qi}", ranked, relevant), 5)
    assert total / len(hits_pattern) == pytest.approx(0.44)


def test_ndcg_fixtures():
    perfect = RetrievalJudgment("q", ["a", "b", "c"], {"a", "b", "c"})
    assert ndcg_at_k(perfect, 3) == pytest.approx(1.0)
    # one relevant doc, retrieved at rank 2: dcg = 1/log2(3), idcg = 1
    rank2 = RetrievalJudgment("q", ["x", "a", "y"], {"a"})
    assert ndcg_at_k(rank2, 3) == pytest.approx(1.0 / math.log2(3.0), abs=1e-15)
    nothing = RetrievalJudgment("q", ["x", "y"], {"a"})
    assert ndcg_at_k(nothing, 2) == 0.0
    no_relevant = RetrievalJudgment("q", ["x", "y"], set())
    assert ndcg_at_k(no_relevant, 2) == 0.0


def test_ndcg_ideal_truncates_to_relevant_count():
    # 2 relevant available, both found at top: ndcg must be exactly 1
    j = RetrievalJudgment("q", ["a", "b", "x", "y", "z"], {"a", "b"})
    assert ndcg_at_k(j, 5) == pytest.approx(1.0)


def test_judgment_duplicate_ranked():
    with pytest.raises(ValueError, match="repeats"):
        RetrievalJudgment("q", ["a", "a"], set())


# ---------------------------------------------------------------------------
# condition comparison

def _post(pid, text, spans=()):
    return AnnotatedPost(id=pid, text=text, spans=[CharSpan(*s) for s in spans])


def test_span_query_text():
    p = _post("p", "i heard garlic cures covid today", [(8, 26)])
    assert span_query_text(p) == "garlic cures covid"
    assert span_query_text(_post("p2", "no spans here")) == ""


def test_compare_conditions_identical_when_text_is_span():
    posts = [_post("p1", "garlic cures covid", [(0, 18)])]
    rel = {"p1": {"d1"}}
    report = compare_conditions(posts, DOCS3, rel, k_list=(1, 2))
    assert report["n_queries"] == 1
    assert report["conditions"]["tweets"] == report["conditions"]["spans"]
    assert report["conditions"]["spans"]["p@1"] == 1.0


def test_compare_conditions_span_beats_noisy_tweet():
    text = "weather report for tuesday says garlic cures covid"
    posts = [_post("p1", text, [(32, 50)])]
    rel = {"p1": {"d1"}}
    report = compare_conditions(posts, DOCS3, rel, k_list=(1,))
    spans = report["conditions"]["spans"]
    tweets = report["conditions"]["tweets"]
    assert spans["p@1"] == 1.0
    # the full tweet shares 4 terms with d3 and only 3 with d1
    assert tweets["p@1"] == 0.0


def test_compare_conditions_empty_posts():
    with pytest.raises(ValueError):
        compare_conditions([], DOCS3, {})
    # a repeated cutoff would be scored twice (p@3 of 1.33); none leaves nothing to score
    posts = [_post("p1", "garlic cures covid", [(0, 18)])]
    for k_list in [(3, 3), ()]:
        with pytest.raises(ValueError, match=re.escape(str(list(k_list)))):
            compare_conditions(posts, DOCS3, {"p1": {"d1"}}, k_list=k_list)


# ---------------------------------------------------------------------------
# file formats

def test_documents_io(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n\n{"id": "b", "text": "two"}\n')
    docs = load_documents(path)
    assert [d["id"] for d in docs] == ["a", "b"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    with pytest.raises(CorpusFormatError, match="bad.jsonl:1"):
        load_documents(bad)
    bad.write_text("not json\n")
    with pytest.raises(CorpusFormatError, match="bad JSON"):
        load_documents(bad)


def test_load_judgments(tmp_path):
    path = tmp_path / "judged.jsonl"
    path.write_text('{"query_id": "q1", "relevant": ["b", "a"]}\n'
                    '{"query_id": "q2", "relevant": []}\n')
    loaded = load_judgments(path)
    assert loaded == {"q1": {"a", "b"}, "q2": set()}


def test_judgments_duplicate_query(tmp_path):
    path = tmp_path / "judged.jsonl"
    path.write_text('{"query_id": "q", "relevant": []}\n'
                    '{"query_id": "q", "relevant": ["a"]}\n')
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_judgments(path)
    # "relevant" must be a list: a string would load as its characters
    for relevant in ['"doc-7"', "7"]:
        path.write_text('{"query_id": "q", "relevant": []}\n'
                        f'{{"query_id": "r", "relevant": {relevant}}}\n')
        with pytest.raises(CorpusFormatError, match="judged.jsonl:2"):
            load_judgments(path)


# JSON ids load as strings; any other JSON value is an error, not its str()
BAD_IDS = ["null", "true", "1.5", '{"x": 1}', '["a"]']


def test_documents_ids_and_text_types(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": 7, "text": "one"}\n{"id": "7b", "text": "two"}\n')
    assert [d["id"] for d in load_documents(path)] == ["7", "7b"]
    for bad in BAD_IDS:
        path.write_text(f'{{"id": "a", "text": "one"}}\n{{"id": {bad}, "text": "two"}}\n')
        with pytest.raises(CorpusFormatError, match="docs.jsonl:2: \"id\""):
            load_documents(path)
    for bad in ["null", "3", '["one"]']:
        path.write_text(f'{{"id": "a", "text": {bad}}}\n')
        with pytest.raises(CorpusFormatError, match="docs.jsonl:1: \"text\""):
            load_documents(path)


def test_judgments_id_types(tmp_path):
    path = tmp_path / "judged.jsonl"
    path.write_text('{"query_id": 1, "relevant": [7, "d"]}\n')
    assert load_judgments(path) == {"1": {"7", "d"}}
    for bad in BAD_IDS:
        for rec in [f'{{"query_id": {bad}, "relevant": []}}',
                    f'{{"query_id": "q", "relevant": ["d", {bad}]}}']:
            path.write_text('{"query_id": "p", "relevant": []}\n' + rec + "\n")
            with pytest.raises(CorpusFormatError,
                               match="judged.jsonl:2: .* must be a string or an integer"):
                load_judgments(path)

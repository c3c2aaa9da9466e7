import pytest

from claimspan import synthetic
from claimspan.preprocess import tokenize
from claimspan.synthetic import (
    DISEASES,
    FILLER,
    HASHTAG_WORDS,
    SUBJECTS,
    TEMPLATE_WORDS,
    generate_corpus,
    generate_retrieval_fixture,
    split_corpus,
    synthetic_bank,
)


def test_vocab_pools_disjoint():
    claim_side = TEMPLATE_WORDS | set(SUBJECTS) | set(DISEASES)
    assert not claim_side & set(FILLER)
    assert not claim_side & set(HASHTAG_WORDS)


def test_corpus_shape_and_determinism():
    a = generate_corpus(n_posts=50, seed=9)
    b = generate_corpus(n_posts=50, seed=9)
    c = generate_corpus(n_posts=50, seed=10)
    assert len(a) == 50
    assert [p.text for p in a] == [p.text for p in b]
    assert [p.spans for p in a] == [p.spans for p in b]
    assert [p.text for p in a] != [p.text for p in c]
    assert len({p.id for p in a}) == 50


def test_every_span_slices_to_claim_words():
    posts = generate_corpus(n_posts=120, seed=2)
    claim_side = TEMPLATE_WORDS | set(SUBJECTS) | set(DISEASES)
    n_spans = 0
    for post in posts:
        for span in post.spans:
            assert 0 <= span.start < span.end <= len(post.text)
            phrase = post.text[span.start:span.end]
            assert phrase == phrase.strip()
            words = phrase.split()
            assert len(words) >= 3
            assert set(words) <= claim_side, (post.text, phrase)
            n_spans += 1
    assert n_spans >= 120  # every post carries at least one claim


def test_spans_do_not_overlap_and_are_sorted(monkeypatch):
    monkeypatch.setattr(synthetic, "MULTI_SPAN_RATE", 1.0)
    for post in generate_corpus(n_posts=100, seed=3):
        spans = post.spans
        assert spans == sorted(spans, key=lambda s: s.start)
        for left, right in zip(spans, spans[1:]):
            assert left.end < right.start


def test_multi_span_rate_extremes(monkeypatch):
    monkeypatch.setattr(synthetic, "MULTI_SPAN_RATE", 0.0)
    never = generate_corpus(n_posts=40, seed=4)
    assert all(len(p.spans) == 1 for p in never)
    monkeypatch.setattr(synthetic, "MULTI_SPAN_RATE", 1.0)
    always = generate_corpus(n_posts=40, seed=4)
    assert all(len(p.spans) == 2 for p in always)


def test_noise_rates(monkeypatch):
    monkeypatch.setattr(synthetic, "HASHTAG_RATE", 0.0)
    monkeypatch.setattr(synthetic, "URL_RATE", 0.0)
    plain = generate_corpus(n_posts=60, seed=5)
    assert not any("#" in p.text or "https://" in p.text for p in plain)
    monkeypatch.setattr(synthetic, "HASHTAG_RATE", 1.0)
    monkeypatch.setattr(synthetic, "URL_RATE", 1.0)
    noisy = generate_corpus(n_posts=60, seed=5)
    assert all("#" in p.text for p in noisy)
    assert all("https://t.co/" in p.text for p in noisy)


def test_posts_tokenize_cleanly():
    for post in generate_corpus(n_posts=30, seed=6):
        toks = tokenize(post.text)
        assert toks, post.text
        assert all(toks.surfaces)


def test_split_sizes():
    posts = generate_corpus(n_posts=500, seed=0)
    tr, va, te = split_corpus(posts)
    assert (len(tr), len(va), len(te)) == (400, 50, 50)
    assert tr + va + te == posts  # positional split, no shuffling
    with pytest.raises(ValueError):
        split_corpus(posts[:2])


def test_retrieval_fixture_size_limit():
    # each post needs its own (subject, disease) pair
    n_pairs = len(SUBJECTS) * len(DISEASES)
    assert len(generate_retrieval_fixture(n_pairs)[0]) == n_pairs
    with pytest.raises(ValueError, match=f"at most {n_pairs} posts supported"):
        generate_retrieval_fixture(n_pairs + 1)


def test_bank_descriptions():
    bank = synthetic_bank()
    assert len(bank) == 3
    assert all(isinstance(d, str) and d for d in bank)
    # descriptions mention the claim-template vocabulary so attention over
    # them can key on the span words
    joined = " ".join(bank).lower()
    assert "cures" in joined or "prevents" in joined


def test_retrieval_fixture_shapes():
    posts, docs, relevant = generate_retrieval_fixture(n_posts=20, seed=5)
    assert len(posts) == 20
    ids = [d["id"] for d in docs]
    assert len(set(ids)) == len(ids)
    # 2 relevant docs per post + 6 distractors per theme * 5 themes
    assert len(docs) == 20 * 2 + 30
    for post in posts:
        assert post.id in relevant
        assert len(relevant[post.id]) == 2
        assert relevant[post.id] <= set(ids)
        assert len(post.spans) == 1


def test_retrieval_fixture_relevant_docs_echo_span():
    posts, docs, relevant = generate_retrieval_fixture(n_posts=20, seed=5)
    by_id = {d["id"]: d["text"] for d in docs}
    for post in posts:
        span = post.spans[0]
        span_words = set(post.text[span.start:span.end].split())
        for doc_id in relevant[post.id]:
            doc_words = set(by_id[doc_id].split())
            assert span_words <= doc_words, (post.text, by_id[doc_id])


def test_retrieval_fixture_deterministic():
    a = generate_retrieval_fixture(n_posts=12, seed=7)
    b = generate_retrieval_fixture(n_posts=12, seed=7)
    assert [p.text for p in a[0]] == [p.text for p in b[0]]
    assert a[1] == b[1]
    assert a[2] == b[2]

import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimspan import preprocess
from claimspan.preprocess import (
    AnnotatedPost,
    CharSpan,
    CorpusFormatError,
    Tokens,
    decode_bio,
    encode_bio,
    load_corpus,
    normalize_post,
    normalize_text,
    remap_span,
    save_corpus,
    split_hashtag,
    tokenize,
)
from claimspan.encoder import ModelConfig
from claimspan.model import bank_token_ids, post_to_example
from claimspan.retrieval import index_terms, load_documents, load_judgments

from oracles import encode_bio_scan, index_terms_scalar, normalize_text_scalar, tokenize_scalar


# ---------------------------------------------------------------------------
# tokenize

def test_tokenize_contraction_and_punctuation():
    surfaces = tokenize("No! Bleach won't cure it").surfaces
    assert surfaces == ["No", "!", "Bleach", "wo", "n't", "cure", "it"]


def test_tokenize_offsets_slice_back():
    text = "No! Bleach won't cure it"
    toks = tokenize(text)
    for surface, start, end in zip(toks.surfaces, toks.starts, toks.ends):
        assert text[start:end] == surface or surface in ("wo", "n't")
    # the contraction split shares the original word's characters
    assert text[toks.starts[3]:toks.ends[4]] == "won't"


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == Tokens([], [], [])
    assert tokenize("   \t\n ") == Tokens([], [], [])


def test_tokens_contract():
    text = "go #WuhanLab now, don't"
    toks = tokenize(text)
    # len() counts tokens, not the three columns
    assert len(toks) == len(toks.surfaces) == len(toks.starts) == len(toks.ends) == 7
    for cut in (slice(None, 3), slice(2, 6), slice(5, None), slice(7, 20), slice(None, 0)):
        part = toks[cut]
        assert type(part) is Tokens
        assert part == Tokens(toks.surfaces[cut], toks.starts[cut], toks.ends[cut])
        assert len(part) == len(toks.surfaces[cut])
        # the columns stay aligned: each offset pair still cuts out its surface
        assert [text[a:b] for a, b in zip(part.starts, part.ends)] == part.surfaces
    # a single token is read through a column, not by indexing
    with pytest.raises(TypeError):
        toks[0]


def test_tokenize_trailing_whitespace_is_linear():
    # A regex search started inside a trailing whitespace run scans the rest
    # of it before failing; started at every position, that is quadratic
    # (16 s for this text on a 2-vCPU machine, against under 1 ms).
    text = "a," + " \t" * 10_000
    began = time.perf_counter()
    assert tokenize(text) == Tokens(["a", ","], [0, 1], [1, 2])
    assert time.perf_counter() - began < 1.0


def test_tokenize_hashtag_expansion_offsets():
    text = "go #WuhanLab now"
    toks = tokenize(text)
    assert toks.surfaces == ["go", "Wuhan", "Lab", "now"]
    assert (toks.starts, toks.ends) == ([0, 4, 9, 13], [2, 9, 12, 16])
    assert text[toks.starts[1]:toks.ends[1]] == "Wuhan"
    assert text[toks.starts[2]:toks.ends[2]] == "Lab"


@pytest.mark.parametrize("tag,parts", [
    ("#WuhanLab", ["Wuhan", "Lab"]),
    ("#covid_19", ["covid", "19"]),
    ("#COVID19", ["COVID19"]),
    ("#StaySafeEveryone", ["Stay", "Safe", "Everyone"]),
    ("#lowercase", ["lowercase"]),
    ("#", []),
    ("#_", []),
])
def test_split_hashtag_cases(tag, parts):
    assert split_hashtag(tag) == parts


def test_split_hashtag_requires_prefix():
    with pytest.raises(ValueError):
        split_hashtag("WuhanLab")


# ---------------------------------------------------------------------------
# normalize_text

def test_normalize_strips_urls_and_emoji():
    text, norm_to_raw = normalize_text("read this https://t.co/abc123 now →→")
    assert text == "read this now"
    # surviving characters map back onto their raw positions
    raw = "read this https://t.co/abc123 now →→"
    for i, ch in enumerate(text):
        assert raw[norm_to_raw[i]] == ch


def test_normalize_clean_text_is_identity():
    raw = "plain words only"
    text, norm_to_raw = normalize_text(raw)
    assert text == raw
    assert [norm_to_raw[i] for i in range(len(text))] == list(range(len(raw)))
    assert norm_to_raw == range(len(raw))


def test_normalize_idempotent():
    once, _ = normalize_text("a https://x.y b ☃ c")
    twice, _ = normalize_text(once)
    assert once == twice


_NORM_PIECES = ["garlic", "Cures", "5G", "don't", "#WuhanLab", "naïve", "ÉCOLE", "日本",
                "https://t.co/x1", "http://a.b", "🙂", "x🙂", "→→", "!!!", "..."]
_NORM_GAPS = ["", " ", "  ", "\t", "\n", " \n\t"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_NORM_PIECES), st.sampled_from(_NORM_GAPS)),
                max_size=12),
       st.sampled_from(["", "🙂 ", "https://t.co/a ", "\t", " "]),
       st.sampled_from(["", " →", " https://t.co/z", "\n", " "]))
def test_normalize_offset_map_property(pieces, lead, trail):
    raw = lead + "".join(p + g for p, g in pieces) + trail
    norm, norm_to_raw = normalize_text(raw)
    assert len(norm_to_raw) == len(norm)
    for i, j in enumerate(norm_to_raw):
        assert norm[i] == raw[j]
    assert_remap_matches_per_character(norm_to_raw, normalize_text_scalar(raw)[2])


def assert_remap_matches_per_character(norm_to_raw, raw_to_norm):
    """``remap_span`` on every ``(start, end)`` pair of the raw text against
    its per-character definition: the normalized positions of the span's
    kept characters, first to last, or None when none is kept."""
    n = len(raw_to_norm)
    for start in range(n + 1):
        assert remap_span(norm_to_raw, start, start) is None
        first = last = None
        for end in range(start + 1, n + 1):
            if raw_to_norm[end - 1] >= 0:
                if first is None:
                    first = raw_to_norm[end - 1]
                last = raw_to_norm[end - 1]
            assert remap_span(norm_to_raw, start, end) == (
                None if first is None else (first, last + 1))


# Pieces are joined with no gap, so they also make mixed chunks such as
# "!!!word", "x🙂" or "https://a.b#WuhanLab".
_FRONT_END_ALPHABET = [
    "http://", "https://", "https://t.co/x1", "🙂", "→→", "!!!", "...", "-",
    "#covid_19", "#WuhanLab", "#", "n't", "N'T", "don't", "é", "İ", "²", "_",
    "a", "Z", "5", "word", "Cures", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c",
]
# Plain texts (ASCII letters, digits and whitespace only), which normalize_text
# and tokenize handle by a branch of their own; Unicode whitespace included.
_PLAIN_ALPHABET = ["a", "Z", "5", "word", "Cures", "n", "t", " ", "  ", "\t", "\n",
                   "\x1c", "\u00a0", "\u2003", "\u2028"]
_FRONT_END_TEXTS = st.one_of(*(st.lists(st.sampled_from(alphabet), max_size=16).map("".join)
                               for alphabet in (_FRONT_END_ALPHABET, _PLAIN_ALPHABET)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_FRONT_END_TEXTS)
@example("")
@example(" \t")
@example("Word 5\u2028x ")
@example("!!!word 🙂")
@example("a ²")
@example("x https://t.co/x1")
# offsets summed across a hashtag's trailing underscores and then a "_" token,
# across Unicode whitespace, over whitespace alone, and after a hashtag that
# ends in n or is followed by n't
@example("#ab_ _")
@example(" a\x1cb ")
@example(" \t\u2003\n")
@example("#WuhanLabn't")
@example("#ab n't")
def test_front_end_matches_scalar_oracle(raw):
    norm, norm_to_raw = normalize_text(raw)
    ref_norm, ref_norm_to_raw, ref_raw_to_norm = normalize_text_scalar(raw)
    assert norm == ref_norm
    assert list(norm_to_raw) == ref_norm_to_raw
    assert_remap_matches_per_character(norm_to_raw, ref_raw_to_norm)
    for text in (raw, norm):
        tokens = tokenize(text)
        oracle = tokenize_scalar(text)
        assert list(zip(tokens.surfaces, tokens.starts, tokens.ends)) == oracle
        assert type(tokens) is Tokens
        assert all(type(column) is list for column in (tokens.surfaces, tokens.starts, tokens.ends))
        # a slice is the Tokens of the oracle's columns cut the same way
        columns = [list(column) for column in zip(*oracle)] or [[], [], []]
        n = len(oracle)
        for cut in (slice(None, n // 2), slice(1, n - 1), slice(None, None, 2), slice(n, None)):
            assert tokens[cut] == Tokens(*(column[cut] for column in columns))
    assert index_terms(raw) == index_terms_scalar(raw)


def test_plain_text_skips_the_grammar(monkeypatch):
    # a text of ASCII letters, digits and whitespace is cut into its words,
    # with their offsets, by the word scan: the junk and token regexes never run
    class Unused:
        def __getattr__(self, name):
            raise AssertionError(f"a grammar regex ran its {name}")

    monkeypatch.setattr(preprocess, "_JUNK_RE", Unused())
    monkeypatch.setattr(preprocess, "_SPACED_TOKEN_RE", Unused())
    text = " Garlic cures\u2003flu 5 times\n"
    norm, norm_to_raw = normalize_text(text)
    assert norm == text and norm_to_raw == range(len(text))
    tokens = tokenize(text)
    assert list(zip(tokens.surfaces, tokens.starts, tokens.ends)) == tokenize_scalar(text)
    assert index_terms(text) == ["garlic", "cures", "flu", "5", "times"]


def test_bank_descriptions_take_the_posts_normalization(tiny_config, tiny_vocab):
    # a URL and an emoji in a description are removed as in a post
    ids = bank_token_ids(["cures flu https://t.co/x \U0001F642"], tiny_vocab, tiny_config)
    assert ids == bank_token_ids(["cures flu"], tiny_vocab, tiny_config)
    assert ids == [tiny_vocab.ids(["cures", "flu"])] and 0 not in ids[0]


def test_normalize_post_remaps_spans():
    post = AnnotatedPost(id="x", text="see https://t.co/q garlic cures flu ok",
                         spans=[CharSpan(19, 35)])
    assert post.text[19:35] == "garlic cures flu"
    text, spans, _norm_to_raw = normalize_post(post)
    assert len(post.spans) - len(spans) == 0
    s = spans[0]
    assert text[s.start:s.end] == "garlic cures flu"


def test_normalize_post_drops_vanished_span():
    post = AnnotatedPost(id="x", text="keep →→→ tail",
                         spans=[CharSpan(5, 8)])
    text, spans, _norm_to_raw = normalize_post(post)
    assert len(post.spans) - len(spans) == 1
    assert spans == []
    assert text == "keep tail"


# ---------------------------------------------------------------------------
# BIO encode / decode

def toks(*surfaces_with_offsets):
    surfaces, starts, ends = map(list, zip(*surfaces_with_offsets))
    return Tokens(surfaces, starts, ends)


def test_encode_bio_basic():
    tokens = toks(("the", 0, 3), ("garlic", 4, 10), ("cures", 11, 16), ("flu", 17, 20))
    tags = encode_bio(tokens, [CharSpan(4, 16)])
    assert tags == ["O", "B", "I", "O"]


def test_encode_bio_partial_overlap_counts():
    # span starts mid-token: the token still intersects and is tagged
    tokens = toks(("abcdef", 0, 6), ("gh", 7, 9))
    assert encode_bio(tokens, [CharSpan(3, 9)]) == ["B", "I"]


def test_encode_bio_rejects_overlapping_spans():
    tokens = toks(("a", 0, 1), ("b", 2, 3))
    with pytest.raises(ValueError):
        encode_bio(tokens, [CharSpan(0, 3), CharSpan(2, 3)])


def test_decode_bio_roundtrip_and_repair():
    tokens = toks(("a", 0, 1), ("b", 2, 3), ("c", 4, 5), ("d", 6, 7))
    assert decode_bio(tokens, ["O", "B", "I", "O"]) == [CharSpan(2, 5)]
    # a stray I, at position 0 or after O, opens a run as B does
    assert decode_bio(tokens, ["I", "O", "I", "I"]) == [CharSpan(0, 1), CharSpan(4, 7)]


def test_decode_bio_length_mismatch():
    with pytest.raises(ValueError):
        decode_bio(toks(("a", 0, 1)), ["O", "O"])


def test_decode_bio_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown tag 'X' at position 1"):
        decode_bio(toks(("a", 0, 1), ("b", 2, 3)), ["B", "X"])


@pytest.mark.parametrize("start, end", [(3, 3), (4, 3)], ids=["empty", "inverted"])
def test_char_span_rejects_empty_and_inverted(start, end):
    with pytest.raises(ValueError, match=rf"empty or inverted span \[{start}, {end}\)"):
        CharSpan(start, end)


@st.composite
def token_aligned_spans(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    tokens = Tokens([], [], [])
    pos = 0
    for _ in range(n):
        length = draw(st.integers(min_value=1, max_value=5))
        tokens.surfaces.append("x" * length)
        tokens.starts.append(pos)
        tokens.ends.append(pos + length)
        pos += length + 1
    # choose disjoint token-index runs
    flags = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    spans = []
    i = 0
    while i < n:
        if flags[i] == 1:
            j = i
            while j + 1 < n and flags[j + 1] == 2:
                j += 1
            spans.append(CharSpan(tokens.starts[i], tokens.ends[j]))
            i = j + 1
        else:
            i += 1
    return tokens, spans


@given(token_aligned_spans())
@settings(max_examples=300, deadline=None)
def test_bio_roundtrip_property(case):
    tokens, spans = case
    tags = encode_bio(tokens, spans)
    assert decode_bio(tokens, tags) == spans
    # encoder output is always transition-valid: no I at position 0 and no
    # O -> I, the only places decode_bio has a stray I to open as B
    prev = "O"
    for t in tags:
        assert not (t == "I" and prev == "O")
        prev = t


# Sorted cut points over the text of at most 12 tokens (72 characters), and
# which of the intervals between consecutive points are spans: spans that
# abut, leave gaps, start or end inside a token, or fall between tokens.
_CUTS = st.lists(st.integers(min_value=0, max_value=72), max_size=10, unique=True).map(sorted)


@given(token_aligned_spans(), _CUTS, st.lists(st.booleans(), min_size=10, max_size=10))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_encode_bio_matches_scan(case, cuts, keep):
    tokens, spans = case
    assert encode_bio(tokens, spans) == encode_bio_scan(tokens.starts, tokens.ends, spans)
    free = [CharSpan(a, b) for a, b, k in zip(cuts, cuts[1:], keep) if k]
    assert encode_bio(tokens, free) == encode_bio_scan(tokens.starts, tokens.ends, free)
    # tagging and then cutting equals tagging the cut tokens, so an example
    # cuts both at max_len after encode_post; the post joining the tokens by
    # single spaces tokenizes back to them
    post = AnnotatedPost("p", " ".join(tokens.surfaces), spans)
    tags, free_tags = encode_bio(tokens, spans), encode_bio(tokens, free)
    for n in range(len(tokens) + 1):
        assert encode_bio(tokens[:n], spans) == tags[:n]
        assert encode_bio(tokens[:n], free) == free_tags[:n]
        if n:
            assert post_to_example(post, None, ModelConfig(max_len=n)).gold_tags == tags[:n]


def test_encode_bio_token_cut_by_span_boundary():
    # "abcdef" is cut at 3 by the boundary between two abutting spans: it
    # stays with the first, and the second begins at the next token
    tokens = toks(("abcdef", 0, 6), ("gh", 7, 9), ("ij", 10, 12))
    spans = [CharSpan(0, 3), CharSpan(3, 9)]
    assert encode_bio(tokens, spans) == ["B", "B", "O"]
    assert encode_bio_scan(tokens.starts, tokens.ends, spans) == ["B", "B", "O"]
    # a token covering a whole later span leaves that span no token
    tokens = toks(("abcdefgh", 0, 8), ("ij", 9, 11))
    spans = [CharSpan(0, 2), CharSpan(3, 4), CharSpan(6, 11)]
    assert encode_bio(tokens, spans) == encode_bio_scan(tokens.starts, tokens.ends, spans) == ["B", "B"]


# ---------------------------------------------------------------------------
# corpus IO

def test_corpus_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus, path)
    loaded = load_corpus(path)
    assert loaded == small_corpus
    # a second save is byte-identical
    again = tmp_path / "again.jsonl"
    save_corpus(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_corpus_with_predictions_roundtrip(tmp_path, small_corpus):
    small_corpus[0].predicted_spans = [CharSpan(0, 3)]
    path = tmp_path / "pred.jsonl"
    save_corpus(small_corpus, path)
    loaded = load_corpus(path)
    assert loaded[0].predicted_spans == [CharSpan(0, 3)]
    assert loaded[1].predicted_spans is None


def test_load_corpus_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "ok", "spans": []}\nnot json\n')
    with pytest.raises(CorpusFormatError, match="bad.jsonl:2"):
        load_corpus(path)


# each loader with a record it accepts, made of the loader's two required keys
@pytest.mark.parametrize("loader, good", [
    (load_corpus, {"id": "a", "text": "ok"}),
    (load_documents, {"id": "a", "text": "ok"}),
    (load_judgments, {"query_id": "a", "relevant": []}),
], ids=["corpus", "documents", "judgments"])
def test_loaders_share_line_checks(tmp_path, loader, good):
    path = tmp_path / "in.jsonl"
    path.write_text(f"\n  \n{json.dumps(good)}\n\t \n")
    assert len(loader(path)) == 1
    first, second = good
    need = f"need an object with {first!r} and {second!r}"
    for line, message in [("{not json", "bad JSON: "), ('["a"]', need), ("7", need),
                          (json.dumps({first: good[first]}), need),
                          (json.dumps({second: good[second]}), need)]:
        path.write_text(f"{json.dumps(good)}\n \n{line}\n")
        with pytest.raises(CorpusFormatError) as info:
            loader(path)
        assert str(info.value).startswith(f"{path}:3: {message}")
        if message == need:
            assert str(info.value) == f"{path}:3: {need}"


def test_readme_corpus_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "example.jsonl"
    path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
    [post] = load_corpus(path)
    assert [post.text[s.start:s.end] for s in post.spans] == ["Garlic cures covid"]


def test_load_corpus_id_types(tmp_path):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"id": 7, "text": "ok"}\n{"id": "b", "text": "ok"}\n')
    assert [p.id for p in load_corpus(path)] == ["7", "b"]
    for bad in ["null", "true", "1.5", '{"x": 1}', '["a"]']:
        path.write_text(f'{{"id": "a", "text": "ok"}}\n{{"id": {bad}, "text": "ok"}}\n')
        with pytest.raises(CorpusFormatError, match="ids.jsonl:2: 'id'"):
            load_corpus(path)


def test_load_corpus_text_must_be_a_string(tmp_path):
    path = tmp_path / "texts.jsonl"
    for bad in ["null", "7", '["ok"]', '{"t": "ok"}']:
        path.write_text(f'{{"id": "a", "text": "ok"}}\n{{"id": "b", "text": {bad}}}\n')
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}:2: record 'b': 'text' must be a string"


def test_load_corpus_bad_span_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "text": "short", "spans": [{"start": 2, "end": 99}]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusFormatError, match="out of range"):
        load_corpus(path)
    # a span list that is not a list fails as bad data, naming the line
    for key in ["spans", "predicted_spans"]:
        path.write_text(json.dumps({"id": "a", "text": "short", key: 5}) + "\n")
        with pytest.raises(CorpusFormatError, match="bad.jsonl:1: .* expected a list of spans, got 5"):
            load_corpus(path)


def test_load_corpus_checks_each_span_list_once(tmp_path, monkeypatch):
    posts = [AnnotatedPost(f"p{i}", "garlic cures flu", [CharSpan(0, 6)]) for i in range(83)]
    posts[0].predicted_spans = [CharSpan(7, 12)]
    posts[5].predicted_spans = []
    path = tmp_path / "corpus.jsonl"
    save_corpus(posts, path)
    calls = []
    real = preprocess.check_spans
    monkeypatch.setattr(preprocess, "check_spans", lambda *args: calls.append(1) or real(*args))
    assert load_corpus(path) == posts
    assert len(calls) == 83 + 2


def test_load_corpus_overlapping_spans_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"id": "a", "text": "abcdefgh", "spans": [
        {"start": 0, "end": 4}, {"start": 2, "end": 6}]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusFormatError, match="overlap"):
        load_corpus(path)

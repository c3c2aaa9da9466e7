"""Text normalization, tokenization, and the BIO tag set and codecs for
span-annotated posts; ``TAGS`` is the tag set's one definition.

Offsets are always character offsets into the text they were produced from.
Normalization edits (URL / junk-token removal) are tracked through one
offset list, ``norm_to_raw``, bisected so gold spans survive the rewrite.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, sub

TAGS = ("B", "I", "O")
TAG_B, TAG_I, TAG_O = TAGS

# A junk chunk (a whitespace-delimited run) is a URL, or has no ASCII
# alphanumeric character at all (emoji, arrows, bare punctuation runs). The
# lookbehind and the lookahead pin a match to whole chunks; group 1 is the
# whitespace run after the chunk, which the chunk swallows.
_JUNK_RE = re.compile(r"(?<!\S)(?:https?://\S*|[^\sA-Za-z0-9]+(?!\S))(\s*)")
# Alternation order matters: hashtags first, then the n't contraction split,
# then plain alphanumeric runs, then single punctuation characters.
_TOKEN_RE = re.compile(r"#[A-Za-z0-9_]+|n't|[A-Za-z0-9]+(?=n't)|[A-Za-z0-9]+|[^\sA-Za-z0-9]")
# A token and the whitespace run before it (see ``tokenize``).
_SPACED_TOKEN_RE = re.compile(rf"\s*(?:{_TOKEN_RE.pattern})")
_HASHTAG_BOUNDARY_RE = re.compile(r"(?<=[^A-Z])(?=[A-Z])")
# A character that no plain text holds (see ``is_plain``).
_NOT_PLAIN_RE = re.compile(r"[^\sA-Za-z0-9]")
# A word of a plain text and the whitespace run before it.
_SPACED_WORD_RE = re.compile(r"\s*\S+")


class CorpusFormatError(ValueError):
    """A corpus record failed validation (bad JSON, offsets, or spans)."""


@dataclass(frozen=True)
class CharSpan:
    start: int
    end: int

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"empty or inverted span [{self.start}, {self.end})")


@dataclass(frozen=True)
class Tokens:
    """A text's tokens as three parallel lists: ``surfaces[i]`` is token i's
    text and ``[starts[i], ends[i])`` its character range in the text it was
    cut from. Tokens are in text order and disjoint, so both offset lists
    ascend. ``len()`` is the token count, and a slice is a ``Tokens``."""

    surfaces: list[str]
    starts: list[int]
    ends: list[int]

    def __len__(self) -> int:
        return len(self.surfaces)

    def __getitem__(self, index: slice) -> Tokens:
        if not isinstance(index, slice):
            raise TypeError(f"Tokens takes a slice, not {type(index).__name__}; "
                            "index surfaces, starts or ends")
        return Tokens(self.surfaces[index], self.starts[index], self.ends[index])


@dataclass
class AnnotatedPost:
    id: str
    text: str
    spans: list[CharSpan] = field(default_factory=list)
    predicted_spans: list[CharSpan] | None = None

    def __post_init__(self):
        check_spans(self.spans, len(self.text), self.id, "spans")
        if self.predicted_spans is not None:
            check_spans(self.predicted_spans, len(self.text), self.id, "predicted_spans")


def check_spans(spans: list[CharSpan], text_len: int, post_id: str, key: str) -> None:
    """Reject out-of-range, unsorted, or overlapping spans; the error names
    the post and its span list ``key``."""
    prev_end = -1
    for sp in spans:
        if sp.start < 0 or sp.end > text_len:
            raise CorpusFormatError(f"record {post_id!r}: {key}: span [{sp.start}, {sp.end}) "
                                    f"out of range for text of length {text_len}")
        if sp.start < prev_end:
            raise CorpusFormatError(f"record {post_id!r}: {key}: spans overlap or are unsorted "
                                    f"at [{sp.start}, {sp.end})")
        prev_end = sp.end


def remap_span(norm_to_raw: Sequence[int], start: int, end: int) -> tuple[int, int] | None:
    """Project a raw-text span onto the normalized text.

    ``norm_to_raw[i]`` is the raw index of the character at normalized
    position ``i``. Normalization only removes characters, so the list
    ascends strictly and the span is found by bisecting it. Endpoints snap
    inward past removed characters; returns None when the whole span was
    removed.
    """
    lo = bisect_left(norm_to_raw, start)
    hi = bisect_left(norm_to_raw, end, lo)
    return None if lo == hi else (lo, hi)


def is_plain(text: str) -> bool:
    """Whether ``text`` holds only ASCII letters, digits and whitespace.

    A plain text is its own normalization (``normalize_text``), and its
    tokens are ``text.split()``, each one an ASCII alphanumeric run
    (``tokenize``). So its BM25 index terms are ``text.lower().split()``,
    which ``retrieval.build_index`` relies on. Test the raw text, not its
    lowered copy: some non-ASCII letters lower to ASCII ones (the Kelvin sign
    U+212A to ``k``).
    """
    return not _NOT_PLAIN_RE.search(text)


def normalize_text(raw: str) -> tuple[str, Sequence[int]]:
    """Strip URL tokens and special-character-only tokens; returns the text
    and ``norm_to_raw``, the raw index of each kept character.

    A removed token swallows the whitespace run after it (or before it when
    it ends the text) so the remaining tokens stay singly spaced. Idempotent:
    a clean text maps through unchanged, with a ``range`` as its offsets.

    A plain text (``is_plain``) is clean with no search for junk: a URL
    needs its ``:`` and a junk chunk a character that is not an ASCII
    alphanumeric, and neither can occur in it.
    """
    if is_plain(raw):
        return raw, range(len(raw))
    kept = []  # [start, end) raw ranges that survive, in order
    lo = 0
    for m in _JUNK_RE.finditer(raw):
        start = m.start()
        if m.end() == len(raw) and not m.group(1):
            # The chunk ends the text: it takes the whitespace before it, back
            # to where the previous removal stopped.
            start = lo + len(raw[lo:start].rstrip())
        if start > lo:
            kept.append((lo, start))
        lo = m.end()
    if lo == 0:  # no junk chunk
        return raw, range(len(raw))
    if lo < len(raw):
        kept.append((lo, len(raw)))
    norm_to_raw: list[int] = []
    for a, b in kept:
        norm_to_raw += range(a, b)
    return "".join(raw[a:b] for a, b in kept), norm_to_raw


def normalize_post(post: AnnotatedPost) -> tuple[str, list[CharSpan], Sequence[int]]:
    """Normalize a post's text and remap its gold spans.

    Returns the text, the spans that survive on it (a span whose text was
    all removed is gone) and ``norm_to_raw``. The spans are the post's own
    or remapped from them, so they are not checked again.
    """
    text, norm_to_raw = normalize_text(post.text)
    if len(text) == len(post.text):  # nothing removed, so the spans stand
        return text, post.spans, norm_to_raw
    remapped = [remap_span(norm_to_raw, sp.start, sp.end) for sp in post.spans]
    return text, [CharSpan(*r) for r in remapped if r is not None], norm_to_raw


def split_hashtag(token: str) -> list[str]:
    """Split a '#'-prefixed token on underscores and lower-to-upper boundaries.

    '#WuhanLab' -> ['Wuhan', 'Lab']; '#covid_19' -> ['covid', '19'];
    '#COVID19' -> ['COVID19'] (a run of consecutive uppercase stays whole).
    """
    if not token.startswith("#"):
        raise ValueError(f"not a hashtag token: {token!r}")
    body = token[1:]
    pieces = []
    for part in body.split("_"):
        pieces.extend(p for p in _HASHTAG_BOUNDARY_RE.split(part) if p)
    return pieces


def tokenize(text: str) -> Tokens:
    """Whitespace/punctuation tokenizer with exact character offsets.

    Hashtags are expanded through ``split_hashtag`` with each piece keeping
    its sub-range of the original offsets; the trailing contraction n't is
    split from its stem; every other punctuation character is its own token.

    Only whitespace lies between two tokens, since the last alternative of
    ``_TOKEN_RE`` takes any other character. So the matches of
    ``_SPACED_TOKEN_RE``, each a token and the whitespace run before it, tile
    the text up to its trailing whitespace: a token ends at the summed lengths
    of the matches up to its own, and starts its own length before that. The
    search ends before the trailing whitespace, where each failed match would
    rescan the rest of the run. The three columns are built whole, with no
    object per token.

    A plain text (``is_plain``) skips the grammar: no alternative but the
    alphanumeric run can match in it, and that run stops only at whitespace,
    so its tokens are its words, each matched with the whitespace before it by
    ``_SPACED_WORD_RE``. ``str.isspace``, which ``lstrip`` and ``rstrip`` use,
    and the regex whitespace class accept the same characters.
    """
    spaced = _SPACED_WORD_RE if is_plain(text) else _SPACED_TOKEN_RE
    chunks = spaced.findall(text, 0, len(text.rstrip()))
    surfaces = list(map(str.lstrip, chunks))
    ends = list(accumulate(map(len, chunks)))
    starts = list(map(sub, ends, map(len, surfaces)))
    if "#" in text:
        # Replace each hashtag by its pieces, last first, so the indices of
        # the hashtags still to do stay put.
        hashtags = [i for i, s in enumerate(surfaces) if s[0] == "#" and len(s) > 1]
        for i in reversed(hashtags):
            pieces = split_hashtag(surfaces[i])
            piece_starts, cursor = [], starts[i]
            for piece in pieces:
                cursor = text.index(piece, cursor)
                piece_starts.append(cursor)
                cursor += len(piece)
            surfaces[i:i + 1] = pieces
            starts[i:i + 1] = piece_starts
            ends[i:i + 1] = map(add, piece_starts, map(len, pieces))
    return Tokens(surfaces, starts, ends)


def encode_bio(tokens: Tokens, spans: list[CharSpan]) -> list[str]:
    """Tag tokens with B/I/O against character spans.

    A token is in-span iff its character range intersects the span; the first
    token of each span gets B, the rest I. Spans must be sorted and
    non-overlapping. A token cut by the boundary between two spans stays with
    the earlier one.

    Since the tokens are disjoint and in order, a span's tokens are the run
    from the first one ending after its start to the last one starting before
    its end, found by bisection; only the run's first token can belong to an
    earlier span.
    """
    tags = [TAG_O] * len(tokens)
    prev_end = -1
    for sp in spans:
        if sp.start < prev_end:
            raise ValueError(f"spans overlap or are unsorted at [{sp.start}, {sp.end})")
        prev_end = sp.end
        lo = bisect_right(tokens.ends, sp.start)
        hi = bisect_left(tokens.starts, sp.end)
        if lo < hi and tags[lo] != TAG_O:
            lo += 1
        if lo < hi:
            tags[lo:hi] = [TAG_B] + [TAG_I] * (hi - lo - 1)
    return tags


def encode_post(post: AnnotatedPost) -> tuple[str, list[CharSpan], Sequence[int], Tokens, list[str]]:
    """``normalize_post``'s result, then the text's tokens and BIO tags: the one
    path from a post to tags. The first n tags are those of the first n tokens,
    as bisecting a prefix of the offset lists gives ``min(i, n)``."""
    text, spans, norm_to_raw = normalize_post(post)
    tokens = tokenize(text)
    return text, spans, norm_to_raw, tokens, encode_bio(tokens, spans)


def decode_bio(tokens: Tokens, tags: list[str]) -> list[CharSpan]:
    """Turn a BIO tag sequence back into character spans.

    Each maximal B I* run becomes one span from the first token's start to the
    last token's end. A stray I (at position 0 or after O), which neither
    ``encode_bio`` nor the CRF's Viterbi emits, opens a run as B does.
    """
    if len(tags) != len(tokens):
        raise ValueError(f"{len(tags)} tags for {len(tokens)} tokens")
    starts, ends = tokens.starts, tokens.ends
    spans = []
    first = last = None  # the open run's first and last token
    for i, tag in enumerate(tags):
        if tag not in TAGS:
            raise ValueError(f"unknown tag {tag!r} at position {i}")
        if tag == TAG_I and first is not None:
            last = i
            continue
        if first is not None:
            spans.append(CharSpan(starts[first], ends[last]))
        first = last = None if tag == TAG_O else i
    if first is not None:
        spans.append(CharSpan(starts[first], ends[last]))
    return spans


def _parse_span_list(raw_spans, post_id: str, where: str) -> list[CharSpan]:
    """Spans from a JSON list of {"start", "end"} objects with integer
    offsets; range and order are checked by ``AnnotatedPost``."""
    if not isinstance(raw_spans, list):
        raise CorpusFormatError(f"{where}: record {post_id!r}: expected a list of spans, got {raw_spans!r}")
    spans = []
    for s in raw_spans:
        try:
            start, end = s["start"], s["end"]
            # A float or a numeric string is not an offset, nor a bool (an int subclass).
            if type(start) is not int or type(end) is not int:
                raise TypeError("offsets must be integers")
            spans.append(CharSpan(start, end))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{where}: record {post_id!r}: bad span {s!r}: {exc}") from exc
    return spans


def json_id(value, where: str) -> str:
    """A record id read from JSON: a string as it is, an integer (not a
    bool) as its decimal text; any other value fails, naming ``where``."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise CorpusFormatError(f"{where} must be a string or an integer, got {value!r}")


def read_jsonl(path, keys: tuple[str, ...]) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, record)`` for each non-blank line of a line-delimited
    JSON file, ``where`` being ``path:line``. A line that is not JSON, not an
    object, or lacks one of ``keys`` raises CorpusFormatError naming it."""
    need = " and ".join(map(repr, keys))
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{where}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict) or not all(k in rec for k in keys):
                raise CorpusFormatError(f"{where}: need an object with {need}")
            yield where, rec


def load_corpus(path) -> list[AnnotatedPost]:
    """Read a line-delimited JSON corpus; malformed records fail with the
    file and line."""
    posts = []
    for where, rec in read_jsonl(path, ("id", "text")):
        post_id = json_id(rec["id"], f"{where}: 'id'")
        text = rec["text"]
        if not isinstance(text, str):
            raise CorpusFormatError(f"{where}: record {post_id!r}: 'text' must be a string")
        spans = _parse_span_list(rec.get("spans", []), post_id, where)
        predicted = None
        if "predicted_spans" in rec:
            predicted = _parse_span_list(rec["predicted_spans"], post_id, where)
        try:
            posts.append(AnnotatedPost(post_id, text, spans, predicted))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
    return posts


def save_corpus(posts: list[AnnotatedPost], path) -> None:
    """Write posts as line-delimited JSON in a stable field order."""
    with open(path, "w", encoding="utf-8") as fh:
        for post in posts:
            rec = {
                "id": post.id,
                "text": post.text,
                "spans": [{"start": s.start, "end": s.end} for s in post.spans],
            }
            if post.predicted_spans is not None:
                rec["predicted_spans"] = [{"start": s.start, "end": s.end} for s in post.predicted_spans]
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

"""Seeded synthetic corpora: a claim-span tagging corpus with planted
templates, a matching description bank, and a retrieval fixture with planted
relevance.

The tagging corpus embeds claim phrases like "garlic cures covid19" inside
distractor text. Template words (subjects, diseases, triggers, glue) never
appear in the filler pool, so a small model can learn the tagging; the
generator is the oracle for the end-to-end training tests. The retrieval
fixture gives each post relevant documents that share terms only with its
claim span, while distractor documents share the post's filler theme, so
span queries should beat full-tweet queries.
"""

from __future__ import annotations

import numpy as np

from .preprocess import AnnotatedPost, CharSpan

SUBJECTS = [
    "garlic", "bleach", "vodka", "ginger", "sunlight", "zinc", "turmeric",
    "vinegar", "silver", "cocaine", "nicotine", "chloroquine", "ivermectin",
    "saltwater", "ozone", "peroxide", "lemon", "pepper", "cow", "copper",
]

DISEASES = [
    "covid19", "coronavirus", "flu", "malaria", "cancer", "ebola", "measles",
    "cholera", "zika", "dengue", "rabies", "sars",
]

# glue words appear only inside claim phrases, never in filler
TEMPLATES = [
    ("cure", lambda x, y: [x, "cures", y]),
    ("prevent", lambda x, y: [x, "prevents", y]),
    ("bioweapon", lambda x, y: [y, "is", "a", "bioweapon"]),
    ("lab", lambda x, y: [y, "was", "created", "in", "a", "lab"]),
]

TEMPLATE_WORDS = {
    "cures", "prevents", "is", "a", "bioweapon", "was", "created", "in", "lab",
}

FILLER = [
    "the", "morning", "news", "said", "people", "keep", "sharing", "this",
    "post", "today", "honestly", "cannot", "believe", "what", "friends",
    "send", "me", "every", "day", "please", "read", "before", "you",
    "forward", "it", "again", "my", "uncle", "saw", "online", "that",
    "someone", "wrote", "about", "town", "market", "street", "weather",
    "raining", "sunny", "cold", "warm", "coffee", "breakfast", "lunch",
    "dinner", "kitchen", "garden", "window", "door", "radio", "television",
    "phone", "battery", "charger", "internet", "slow", "fast", "bus",
    "train", "station", "ticket", "crowded", "quiet", "music", "song",
    "dance", "party", "weekend", "holiday", "travel", "beach", "mountain",
    "river", "bridge", "library", "book", "page", "story", "writer",
    "teacher", "school", "class", "homework", "exam", "result", "football",
    "match", "score", "team", "player", "coach", "season", "winter",
    "summer", "spring", "autumn", "leaves", "flowers", "birds", "singing",
    "neighbor", "dog", "cat", "walking", "running", "tired", "sleepy",
    "awake", "dream", "laughing", "smiling", "crying", "shouting",
    "whisper", "silence", "noise", "busy", "lazy", "happy", "grumpy",
]

HASHTAG_WORDS = ["stay", "safe", "truth", "wake", "up", "share", "now"]

URL_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"

# Shares of posts with a hashtag before the first claim, a second claim and a URL.
HASHTAG_RATE = 0.2
MULTI_SPAN_RATE = 0.25
URL_RATE = 0.3


def _words(rng: np.random.Generator, pool: list[str], n: int) -> list[str]:
    return [pool[int(i)] for i in rng.integers(0, len(pool), size=n)]


def _make_hashtag(rng: np.random.Generator) -> str:
    a, b = _words(rng, HASHTAG_WORDS, 2)
    return "#" + a.capitalize() + b.capitalize()


def _make_url(rng: np.random.Generator) -> str:
    tail = "".join(URL_CHARS[int(i)] for i in rng.integers(0, len(URL_CHARS), size=8))
    return "https://t.co/" + tail


def _claim_phrase(rng: np.random.Generator) -> list[str]:
    _name, build = TEMPLATES[int(rng.integers(0, len(TEMPLATES)))]
    x = SUBJECTS[int(rng.integers(0, len(SUBJECTS)))]
    y = DISEASES[int(rng.integers(0, len(DISEASES)))]
    return build(x, y)


def generate_corpus(n_posts: int = 500, seed: int = 0) -> list[AnnotatedPost]:
    """Posts with 1-2 planted claim spans surrounded by filler."""
    rng = np.random.default_rng(seed)
    posts = []
    for idx in range(n_posts):
        chunks: list[str] = []     # words and decorations, joined by spaces
        spans: list[CharSpan] = []
        cursor = 0

        def push(words: list[str]) -> None:
            nonlocal cursor
            for w in words:
                if chunks:
                    cursor += 1
                chunks.append(w)
                cursor += len(w)

        def push_span(words: list[str]) -> None:
            nonlocal cursor
            start = cursor + (1 if chunks else 0)
            push(words)
            spans.append(CharSpan(start, cursor))

        push(_words(rng, FILLER, int(rng.integers(2, 9))))
        if rng.random() < HASHTAG_RATE:
            push([_make_hashtag(rng)])
        push_span(_claim_phrase(rng))
        push(_words(rng, FILLER, int(rng.integers(1, 7))))
        if rng.random() < MULTI_SPAN_RATE:
            push_span(_claim_phrase(rng))
            push(_words(rng, FILLER, int(rng.integers(1, 5))))
        if rng.random() < URL_RATE:
            push([_make_url(rng)])
        posts.append(AnnotatedPost(id=f"post-{idx:04d}", text=" ".join(chunks), spans=spans))
    return posts


def split_corpus(posts: list[AnnotatedPost]):
    """Deterministic 80/10/10 (train, val, test) split by position."""
    n = len(posts)
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    parts = posts[:n_train], posts[n_train:n_train + n_val], posts[n_train + n_val:]
    if not all(parts):
        raise ValueError(f"{n} posts cannot fill an 80/10/10 split; need more data")
    return parts


def synthetic_bank() -> list[str]:
    """Claim descriptions worded to share terms with the planted templates."""
    return [
        "Texts claiming that a remedy cures or prevents a disease",
        "Texts claiming that a disease is a bioweapon or was created in a lab",
        "Texts containing a quote from someone",
    ]


# ---------------------------------------------------------------------------
# Retrieval fixture

N_THEMES = 5
THEME_SIZE = 8
DISTRACTORS_PER_THEME = 6
RELEVANT_PER_POST = 2


def generate_retrieval_fixture(n_posts: int = 20, seed: int = 0):
    """Returns (posts, docs, relevant_by_query).

    Each post: one claim span with a (subject, disease) pair unique to that
    post, filler drawn entirely from one theme. Relevant docs repeat the span
    words; distractor docs repeat a theme's words, several per theme, so full
    tweet queries surface distractors while span queries do not.
    """
    rng = np.random.default_rng(seed)
    themes = [FILLER[t * THEME_SIZE:(t + 1) * THEME_SIZE] for t in range(N_THEMES)]
    pairs = [(s, d) for s in SUBJECTS for d in DISEASES]
    if n_posts > len(pairs):
        raise ValueError(f"at most {len(pairs)} posts supported")
    order = rng.permutation(len(pairs))

    posts, docs = [], []
    relevant_by_query: dict[str, set] = {}
    for idx in range(n_posts):
        x, y = pairs[int(order[idx])]
        _name, build = TEMPLATES[idx % len(TEMPLATES)]
        phrase = build(x, y)
        theme = themes[idx % N_THEMES]
        lead = [theme[int(i)] for i in rng.permutation(THEME_SIZE)]
        tail = [theme[int(i)] for i in rng.integers(0, THEME_SIZE, size=4)]

        chunks = lead + phrase + tail
        text = " ".join(chunks)
        start = len(" ".join(lead)) + 1
        end = start + len(" ".join(phrase))
        post_id = f"query-{idx:03d}"
        posts.append(AnnotatedPost(id=post_id, text=text, spans=[CharSpan(start, end)]))

        rel_ids = set()
        for j in range(RELEVANT_PER_POST):
            doc_id = f"rel-{idx:03d}-{j}"
            body = " ".join(phrase) + " "
            doc_text = (body * 3).strip() + f" report{idx}{j}"
            docs.append({"id": doc_id, "text": doc_text})
            rel_ids.add(doc_id)
        relevant_by_query[post_id] = rel_ids

    for t, theme in enumerate(themes):
        for j in range(DISTRACTORS_PER_THEME):
            shuffled = [theme[int(i)] for i in rng.permutation(THEME_SIZE)]
            doc_text = " ".join(shuffled * 3) + f" memo{t}{j}"
            docs.append({"id": f"noise-{t}-{j}", "text": doc_text})

    return posts, docs, relevant_by_query

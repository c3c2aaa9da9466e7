"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``setup``), runs one measured
pass of the program over them (``run_pass``) and checks the program's
outputs. Only generated inputs reach the program; the seed does not.

Workloads call the program through module attributes (``training.train``,
``cli.main``, ``retrieval.query``) so that the traced run sees its wrappers,
and time it with the clock they are given (see ``speed.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from claimspan import cli, descnet, model, preprocess, retrieval, synthetic, training
from claimspan.encoder import ModelConfig
from claimspan.numerics import named_arrays
from claimspan.preprocess import AnnotatedPost, CharSpan

# The acceptance set-up's architecture (tests/test_acceptance.py SYNTH_MC).
ARCH = ModelConfig(d=32, h=4, d_ff=64, layers=2, max_len=48, vocab_size=400,
                   dropout_p=0.1, adapter_layer=2, seed=7)
LEARNING_RATE = 3e-3
BATCH_SIZE = 32

# Quality floors for the full-size inputs. Validation DSC is about 0.99 after
# one epoch on the acceptance set-up, and the tag checkpoint scores 1.0 on its
# inputs, so these floors trip only when training or tagging is broken.
TRAIN_DSC_FLOOR = 0.9
TAG_F1_FLOOR = 0.9
TAG_DSC_FLOOR = 0.9

REPORT_KEYS = {"overall", "per_tag", "dsc", "span_count_ratio", "n_posts", "overall_micro"}
SCORE_KEYS = {"p", "r", "f1"}

BM25_K = 10
SCORE_TOL = 1e-9

# The example build (train) and the checkpoint load (tag) take tens of
# milliseconds, so a pass times them this many times to give build_s a steady
# median.
BUILD_REPEATS = 4


@dataclass
class PassResult:
    wall_s: float              # time inside the measured program calls
    posts: int                 # posts those calls handled
    op_ms: list[float]         # latency of each unit operation
    builds: list[float]        # times of the one-off build before the first operation
    attempted: int
    failed: int


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _token_counts(posts: list[AnnotatedPost]) -> list[int]:
    return [len(preprocess.tokenize(preprocess.normalize_text(p.text)[0])) for p in posts]


def _length_properties(posts: list[AnnotatedPost]) -> dict:
    counts = _token_counts(posts)
    return {"posts": len(posts), "mean_tokens": float(np.mean(counts)),
            "max_tokens": int(max(counts)),
            "truncated_share": sum(c > ARCH.max_len for c in counts) / len(counts)}


def _train_config(epochs: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
                                max_epochs=epochs, patience=epochs, seed=seed,
                                adapter_layer=ARCH.adapter_layer)


# ---------------------------------------------------------------------------
# train

class TrainWorkload:
    """The acceptance training set-up: 400 training posts, 50 validation posts,
    the 3-description synthetic bank, a fixed number of epochs."""

    name = "train"

    def __init__(self, seed: int, smoke: bool, workdir, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.n_posts = 60 if smoke else 500
        self.epochs = 1 if smoke else 2
        self.dsc_floor = 0.0 if smoke else TRAIN_DSC_FLOOR
        self.reference: str | None = None

    def setup(self) -> None:
        corpus_seed, self.train_seed = _seeds(self.seed, 2)
        posts = synthetic.generate_corpus(n_posts=self.n_posts, seed=corpus_seed)
        self.tr, self.va, _te = synthetic.split_corpus(posts)
        self.bank = synthetic.synthetic_bank()
        self.config = _train_config(self.epochs, self.train_seed)

    def properties(self) -> dict:
        return {**_length_properties(self.tr), "val_posts": len(self.va),
                "epochs": self.epochs, "bank_m": len(self.bank),
                "train_seqs": len(self.tr) * self.epochs}

    def run_pass(self, measure_build: bool) -> PassResult:
        lap = self.clock.start()
        result = training.train(self.tr, self.va, self.bank, ARCH, self.config)
        scale = self.clock.factor(lap)  # for the epoch times the program measured
        wall = self.clock.stop(lap)
        builds = []
        for _ in range(BUILD_REPEATS if measure_build else 0):
            lap = self.clock.start()
            training.prepare_examples(self.tr + self.va, result.vocab, ARCH)
            builds.append(self.clock.stop(lap))

        # The same inputs and seed must give bitwise the same parameters and log.
        digest = hashlib.sha256()
        for _name, arr in named_arrays(result.params):
            digest.update(arr.tobytes())
        digest.update(repr([(r.train_loss, r.val_f1, r.val_dsc) for r in result.records]).encode())
        if self.reference is None:
            self.reference = digest.hexdigest()
        ok = (digest.hexdigest() == self.reference
              and len(result.records) == self.epochs
              and result.best_val_dsc >= self.dsc_floor)
        return PassResult(wall, len(self.tr) * self.epochs,
                          [r.elapsed_s * scale * 1e3 for r in result.records], builds, 1,
                          0 if ok else 1)

    def finish(self) -> tuple[int, int]:
        return 0, 0


# ---------------------------------------------------------------------------
# tag

def _joined_posts(n_posts: int, seed: int) -> list[AnnotatedPost]:
    """Posts made by joining 1-4 generated posts, so lengths reach past max_len."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=n_posts)
    base = iter(synthetic.generate_corpus(n_posts=int(sizes.sum()), seed=seed))
    out = []
    for idx, size in enumerate(sizes):
        texts, spans, offset = [], [], 0
        for part in (next(base) for _ in range(int(size))):
            if texts:
                offset += 1
            spans.extend(CharSpan(s.start + offset, s.end + offset) for s in part.spans)
            texts.append(part.text)
            offset += len(part.text)
        out.append(AnnotatedPost(f"tag-{idx:05d}", " ".join(texts), spans))
    return out


def _packaged_bank() -> list[str]:
    ref = resources.files("claimspan").joinpath("data", "claim_descriptions.txt")
    with resources.as_file(ref) as path:
        return descnet.load_bank_texts(path)


class TagWorkload:
    """In-process ``eval`` over files of long posts with a 9-description bank,
    on a checkpoint trained in set-up on ordinary generated posts."""

    name = "tag"

    def __init__(self, seed: int, smoke: bool, workdir, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.workdir = workdir
        self.n_train = 60 if smoke else 300
        self.ckpt_epochs = 1 if smoke else 2
        self.n_files = 2 if smoke else 10
        self.file_posts = 10 if smoke else 50
        self.floors = (0.0, 0.0) if smoke else (TAG_F1_FLOOR, TAG_DSC_FLOOR)

    def setup(self) -> None:
        train_seed, model_seed, eval_seed = _seeds(self.seed, 3)
        self.bank = _packaged_bank() + synthetic.synthetic_bank()
        tr, va, _te = synthetic.split_corpus(
            synthetic.generate_corpus(n_posts=self.n_train, seed=train_seed))
        result = training.train(tr, va, self.bank, ARCH, _train_config(self.ckpt_epochs, model_seed))
        self.checkpoint = str(self.workdir / "tag.ckpt.json")
        model.save_checkpoint(self.checkpoint, result.model_config, result.vocab,
                              result.bank_texts, result.params)
        posts = _joined_posts(self.n_files * self.file_posts, eval_seed)
        self.posts = posts
        self.files = []
        for i in range(self.n_files):
            path = str(self.workdir / f"tag-{i}.jsonl")
            preprocess.save_corpus(posts[i * self.file_posts:(i + 1) * self.file_posts], path)
            self.files.append(path)
        self.report_path = str(self.workdir / "tag-report.json")

    def properties(self) -> dict:
        return {**_length_properties(self.posts), "files": self.n_files,
                "bank_m": len(self.bank), "checkpoint_epochs": self.ckpt_epochs}

    def _report_ok(self) -> bool:
        with open(self.report_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        f1_floor, dsc_floor = self.floors
        return (set(doc) == REPORT_KEYS
                and set(doc["overall"]) == SCORE_KEYS | {"averaging"}
                and all(set(doc["per_tag"][t]) == SCORE_KEYS for t in "BIO")
                and doc["n_posts"] == self.file_posts
                and doc["overall"]["f1"] >= f1_floor
                and doc["dsc"] >= dsc_floor)

    def run_pass(self, measure_build: bool) -> PassResult:
        builds = []
        for _ in range(BUILD_REPEATS if measure_build else 0):
            lap = self.clock.start()
            config, vocab, bank_texts, params = model.load_checkpoint(self.checkpoint)
            model.build_bank(bank_texts, vocab, params, config)
            builds.append(self.clock.stop(lap))
        op_ms, failed = [], 0
        for path in self.files:
            lap = self.clock.start()
            code = cli.main(["eval", "--checkpoint", self.checkpoint, "--input", path,
                             "--output", self.report_path])
            op_ms.append(self.clock.stop(lap) * 1e3)
            if code != 0 or not self._report_ok():
                failed += 1
        return PassResult(sum(op_ms) / 1e3, self.n_files * self.file_posts, op_ms, builds,
                          len(self.files), failed)

    def finish(self) -> tuple[int, int]:
        return 0, 0


# ---------------------------------------------------------------------------
# retrieve

def _word(prefix: str, i: int) -> str:
    letters = []
    while True:
        i, r = divmod(i, 26)
        letters.append(chr(ord("a") + r))
        if i == 0:
            return prefix + "".join(reversed(letters))


class RetrieveWorkload:
    """BM25 index build, then a tweet query and a span query per post.

    Documents and query filler share one Zipf vocabulary, so document
    frequency runs from nearly every document down to one. Each post's claim
    span uses words of its own, planted in two relevant documents.
    """

    name = "retrieve"

    VOCAB = 5000
    ZIPF_S = 1.0
    CLAIM_WORDS = 4
    RELEVANT = 2

    def __init__(self, seed: int, smoke: bool, workdir, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.n_docs = 300 if smoke else 3000
        self.n_posts = 10 if smoke else 16
        self.first_results: dict | None = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # The word at each frequency rank depends on the seed.
        vocab = [_word("z", int(i)) for i in rng.permutation(self.VOCAB)]
        weights = 1.0 / np.arange(1, self.VOCAB + 1) ** self.ZIPF_S
        weights /= weights.sum()
        # Query filler takes its ranks from a stream that is the same for
        # every seed, so the seed changes which words a query holds but not
        # how common they are, and with it how many postings a query touches.
        query_ranks = np.random.default_rng(0)

        def zipf_text(n: int, draw=rng) -> str:
            return " ".join(vocab[i] for i in draw.choice(self.VOCAB, n, p=weights))

        # Lengths follow a fixed cycle, so the seed changes words but not the
        # amount of work: tweets of 16-38 terms, documents of 20-60 words.
        docs, posts, relevant = [], [], {}
        for q in range(self.n_posts):
            claim = [_word("c", q * self.CLAIM_WORDS + j) for j in range(self.CLAIM_WORDS)]
            lead = zipf_text(6 + q * 5 % 12, query_ranks)
            tail = zipf_text(6 + q * 7 % 12, query_ranks)
            start = len(lead) + 1
            span = " ".join(claim)
            post_id = f"query-{q:04d}"
            posts.append(AnnotatedPost(post_id, f"{lead} {span} {tail}",
                                       [CharSpan(start, start + len(span))]))
            relevant[post_id] = set()
            for j in range(self.RELEVANT):
                doc_id = f"rel-{q:04d}-{j}"
                docs.append({"id": doc_id,
                             "text": f"{span} {zipf_text(20 + (q + j) * 17 % 33)} {span}"})
                relevant[post_id].add(doc_id)
        for d in range(self.n_docs - len(docs)):
            docs.append({"id": f"doc-{d:05d}", "text": zipf_text(20 + d * 17 % 41)})
        order = rng.permutation(len(docs))
        self.docs = [docs[int(i)] for i in order]
        self.posts = posts
        self.relevant = relevant
        self.queries = [(post.id, (("tweets", post.text),
                                   ("spans", retrieval.span_query_text(post))))
                        for post in posts]
        self._reference = None

    def _ref(self) -> "Bm25Reference":
        if self._reference is None:
            self._reference = Bm25Reference(self.docs)
        return self._reference

    def properties(self) -> dict:
        ref = self._ref()
        terms = {c: [len(t.split()) for _q, conds in self.queries for cond, t in conds
                     if cond == c] for c in ("tweets", "spans")}
        return {"docs": len(self.docs), "query_posts": len(self.posts),
                "terms_per_query": float(np.mean(terms["tweets"] + terms["spans"])),
                "tweet_terms_per_query": float(np.mean(terms["tweets"])),
                "span_terms_per_query": float(np.mean(terms["spans"])),
                "useful_ratio": ref.useful_ratio(self._texts()),
                "max_df_share": max(ref.df.values()) / ref.n_docs,
                "min_df": min(ref.df.values())}

    def _texts(self) -> list[str]:
        return [text for _qid, conds in self.queries for _cond, text in conds]

    def run_pass(self, measure_build: bool) -> PassResult:
        lap = self.clock.start()
        index = retrieval.build_index(self.docs)
        build_s = self.clock.stop(lap)
        op_ms, results = [], {}
        for qid, conds in self.queries:
            lap = self.clock.start()
            for cond, text in conds:
                results[qid, cond] = retrieval.query(index, text, BM25_K)
            op_ms.append(self.clock.stop(lap) * 1e3)
        if self.first_results is None:
            self.first_results = results
        return PassResult(sum(op_ms) / 1e3, len(self.posts), op_ms, [build_s], len(results), 0)

    def finish(self) -> tuple[int, int]:
        """Check sampled top-k scores against the reference scorer, and that
        span queries rank at least as well as tweet queries (nDCG@k)."""
        ref = self._ref()
        failed = 0
        for qid, conds in self.queries[::max(1, len(self.queries) // 20)]:
            for cond, text in conds:
                got = [s for _d, s in self.first_results[qid, cond]]
                want = ref.top_scores(text, BM25_K)
                if len(got) != len(want) or any(abs(a - b) > SCORE_TOL
                                                for a, b in zip(got, want)):
                    failed += 1
        ndcg = {}
        for cond in ("tweets", "spans"):
            ndcg[cond] = float(np.mean([
                retrieval.ndcg_at_k(retrieval.RetrievalJudgment(
                    post.id, [d for d, _s in self.first_results[post.id, cond]],
                    self.relevant[post.id]), BM25_K)
                for post in self.posts]))
        if ndcg["spans"] < ndcg["tweets"]:
            failed += 1
        return 1, failed


class Bm25Reference:
    """Okapi BM25 as in Robertson & Zaragoza (2009), written apart from the
    program: whitespace terms (the generated texts are lowercase words), and
    each query term weighted by its count in the query."""

    def __init__(self, docs: list[dict], k1: float = 1.2, b: float = 0.75) -> None:
        self.k1, self.b = k1, b
        self.n_docs = len(docs)
        self.lengths = []
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for d, doc in enumerate(docs):
            terms = doc["text"].split()
            self.lengths.append(len(terms))
            for term, tf in Counter(terms).items():
                self.postings.setdefault(term, []).append((d, tf))
        self.avgdl = sum(self.lengths) / self.n_docs
        self.df = {term: len(p) for term, p in self.postings.items()}

    def top_scores(self, text: str, k: int) -> list[float]:
        scores: dict[int, float] = {}
        for term, qtf in Counter(text.split()).items():
            df = self.df.get(term, 0)
            idf = math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
            for d, tf in self.postings.get(term, ()):
                norm = self.k1 * (1.0 - self.b + self.b * self.lengths[d] / self.avgdl)
                scores[d] = scores.get(d, 0.0) + qtf * idf * tf * (self.k1 + 1.0) / (tf + norm)
        return sorted(scores.values(), reverse=True)[:k]

    def useful_ratio(self, texts: list[str]) -> float:
        """Share of a full scan's (document, query term) probes that find the term."""
        terms = [t for text in texts for t in text.split()]
        return sum(self.df.get(t, 0) for t in terms) / (self.n_docs * len(terms))


WORKLOADS = {w.name: w for w in (TrainWorkload, TagWorkload, RetrieveWorkload)}

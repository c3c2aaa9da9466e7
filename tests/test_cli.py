import base64
import json

import pytest

import numpy as np

from claimspan.cli import main
from claimspan.crf import pin_forbidden
from claimspan.encoder import ModelConfig
from claimspan.metrics import build_report
from claimspan.model import (
    Vocabulary,
    build_bank,
    init_model_params,
    post_to_example,
    predict_tags,
    save_checkpoint,
)
from claimspan.numerics import named_arrays
from claimspan.preprocess import AnnotatedPost, CharSpan, decode_bio, load_corpus, save_corpus
from claimspan.retrieval import load_judgments
from claimspan.synthetic import generate_corpus, generate_retrieval_fixture

TINY_CONFIG = """
d = 16
h = 2
d_ff = 32
layers = 2
max_len = 32
vocab_size = 128
dropout_p = 0.0
adapter_layer = 2
learning_rate = 0.005
batch_size = 8
max_epochs = 2
patience = 2
seed = 1
"""


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(n_posts=60, seed=3), path)
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def read_stdout_json(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out.splitlines()[-1])


# ---------------------------------------------------------------------------
# preprocess

def test_preprocess_stats_match_recount(tmp_path, corpus_file, capsys):
    out = tmp_path / "tokenized.jsonl"
    before = corpus_file.read_bytes()
    assert main(["preprocess", "--input", str(corpus_file), "--output", str(out)]) == 0
    assert corpus_file.read_bytes() == before
    stats = read_stdout_json(capsys)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert stats["n_posts"] == len(records) == 60
    n_spans = sum(sum(1 for t in r["tags"] if t == "B") for r in records)
    assert stats["n_spans"] == n_spans
    tok_total = sum(len(r["tokens"]) for r in records)
    assert stats["avg_tokens_per_post"] == pytest.approx(tok_total / 60)
    in_span = sum(sum(1 for t in r["tags"] if t != "O") for r in records)
    assert stats["avg_tokens_per_span"] == pytest.approx(in_span / n_spans)
    assert stats["single_span_posts"] + stats["multi_span_posts"] + stats["no_span_posts"] == 60
    for rec in records:
        assert len(rec["tokens"]) == len(rec["tags"])
        for tok in rec["tokens"]:
            assert rec["text"][tok["start"]:tok["end"]] == tok["surface"]


def test_preprocess_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["preprocess", "--input", str(empty)]) == 0
    stats = read_stdout_json(capsys)
    assert stats["n_posts"] == 0
    assert stats["avg_tokens_per_post"] == 0.0


def test_preprocess_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["preprocess", "--input", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert main(["preprocess", "--input", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval / predict round trip

def test_train_eval_predict_roundtrip(tmp_path, corpus_file, config_file, capsys):
    ckpt = tmp_path / "model.json"
    rc = main(["train", "--config", str(config_file), "--input", str(corpus_file),
               "--output", str(ckpt)])
    assert rc == 0
    summary = read_stdout_json(capsys)
    assert summary["checkpoint"] == str(ckpt)
    assert summary["epochs_run"] == 2
    assert ckpt.exists()
    log_lines = (tmp_path / "model.json.log").read_text().strip().splitlines()
    assert len(log_lines) == 2
    assert {"epoch", "train_loss", "val_f1", "val_dsc"} == set(json.loads(log_lines[0]))

    report_path = tmp_path / "report.json"
    rc = main(["eval", "--checkpoint", str(ckpt), "--input", str(corpus_file),
               "--output", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report) >= {"overall", "per_tag", "dsc", "span_count_ratio", "n_posts"}
    assert report["n_posts"] == 60
    assert 0.0 <= report["overall"]["f1"] <= 1.0

    pred_path = tmp_path / "predicted.jsonl"
    before = corpus_file.read_bytes()
    rc = main(["predict", "--checkpoint", str(ckpt), "--input", str(corpus_file),
               "--output", str(pred_path)])
    assert rc == 0
    assert corpus_file.read_bytes() == before
    predicted = load_corpus(pred_path)
    assert len(predicted) == 60
    for post in predicted:
        assert post.predicted_spans is not None
        for span in post.predicted_spans:
            assert 0 <= span.start < span.end <= len(post.text)


def _mixed_corpus_and_checkpoint(tmp_path):
    """A corpus of ordinary posts filling several packed chunks, posts that
    normalize to zero tokens and posts cut at max_len, and a checkpoint with
    O(1)-scale weights so predictions differ from post to post."""
    posts = generate_corpus(n_posts=30, seed=5)
    long_text = " ".join(p.text for p in posts[:3])
    posts.insert(4, AnnotatedPost("empty-url", "https://t.co/abc", []))
    posts.insert(11, AnnotatedPost("long", long_text, [CharSpan(0, 6)]))
    posts.insert(17, AnnotatedPost("empty-emoji", "\U0001F600 \U0001F643", []))
    posts.append(AnnotatedPost("long-2", long_text + " " + long_text, []))
    path = tmp_path / "mixed.jsonl"
    save_corpus(posts, path)

    config = ModelConfig(d=16, h=2, d_ff=32, layers=2, max_len=12, vocab_size=256,
                         dropout_p=0.0, adapter_layer=2)
    vocab = Vocabulary.build([p.text.lower().split() for p in posts], config.vocab_size)
    rng = np.random.default_rng(2)
    bank = ["claims with numbers", "a quote from someone"]
    params = init_model_params(config, len(vocab), len(bank), rng)
    for _name, arr in named_arrays(params):
        arr[...] = 0.5 * rng.normal(size=arr.shape)
    pin_forbidden(params.crf)
    ckpt = tmp_path / "mixed.ckpt.json"
    save_checkpoint(ckpt, config, vocab, bank, params)
    return posts, path, ckpt, config, vocab, bank, params


def test_eval_and_predict_keep_each_post_prediction(tmp_path, capsys):
    # posts run in packed chunks sorted by length; each post's prediction
    # must still be the one it gets alone
    posts, path, ckpt, config, vocab, bank, params = _mixed_corpus_and_checkpoint(tmp_path)
    out = tmp_path / "predicted.jsonl"
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(path),
                 "--output", str(out)]) == 0
    together = load_corpus(out)
    assert [p.id for p in together] == [p.id for p in posts]

    alone_spans = []
    for i, post in enumerate(posts):
        one_in, one_out = tmp_path / f"one-{i}.jsonl", tmp_path / f"one-{i}.out.jsonl"
        save_corpus([post], one_in)
        assert main(["predict", "--checkpoint", str(ckpt), "--input", str(one_in),
                     "--output", str(one_out)]) == 0
        alone_spans.append(load_corpus(one_out)[0].predicted_spans)
    assert [p.predicted_spans for p in together] == alone_spans
    assert together[4].predicted_spans == [] and together[17].predicted_spans == []
    assert len({tuple(s) for s in alone_spans}) > 3, "predictions do not vary across posts"

    report_path = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(path),
                 "--output", str(report_path)]) == 0
    encoded = build_bank(bank, vocab, params, config)
    examples = [post_to_example(p, vocab, config) for p in posts]
    tags = [predict_tags(params, config, ex.token_ids, encoded) if ex.token_ids else []
            for ex in examples]
    expected = build_report(tags, [ex.gold_tags for ex in examples],
                            [decode_bio(ex.tokens, t)[0] for ex, t in zip(examples, tags)],
                            [p.spans for p in posts])
    assert json.loads(report_path.read_text()) == json.loads(json.dumps(expected.to_dict()))


def test_eval_pretty_table(tmp_path, corpus_file, config_file, capsys):
    ckpt = tmp_path / "model.json"
    main(["train", "--config", str(config_file), "--input", str(corpus_file),
          "--output", str(ckpt)])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(corpus_file),
                 "--pretty"]) == 0
    table = capsys.readouterr().out
    assert "overall" in table and "tag B" in table and "span count ratio" in table


def test_eval_bad_checkpoint(tmp_path, corpus_file, capsys):
    bad = tmp_path / "ckpt.json"
    bad.write_text('{"format_version": 99}')
    assert main(["eval", "--checkpoint", str(bad), "--input", str(corpus_file)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("breakage,match", [
    (lambda doc: {k: v for k, v in doc.items() if k != "params"}, "no params"),
    (lambda doc: {**doc, "params": {**doc["params"], "crf.b_emit": {"shape": [3]}}},
     "crf.b_emit"),
    (lambda doc: [doc], "not a JSON object"),
    (lambda doc: {**doc, "bank_texts": [1, 2, 3]}, "bank_texts"),
    (lambda doc: {**doc, "bank_texts": "abc"}, "bank_texts"),
    (lambda doc: {**doc, "params": {**doc["params"],
                                    "crf.w_emit": {"shape": [8, 3], "values": "not base64!"}}},
     "bad tensor 'crf.w_emit'"),
    (lambda doc: {**doc, "params": {**doc["params"], "crf.b_emit": {
        "shape": [3], "values": base64.b64encode(np.zeros(2).tobytes()).decode("ascii")}}},
     "'crf.b_emit' holds 16 bytes"),
    (lambda doc: {**doc, "format_version": 1, "params": {
        name: {"shape": entry["shape"], "values": [0.0] * int(np.prod(entry["shape"]))}
        for name, entry in doc["params"].items()}},
     "version 1"),
])
def test_eval_malformed_checkpoint(tmp_path, corpus_file, capsys, breakage, match):
    path = tmp_path / "ckpt.json"
    config = ModelConfig(d=8, h=2, d_ff=16, layers=1, adapter_layer=1, use_descnet=False)
    save_checkpoint(path, config, Vocabulary(["<unk>"]), None,
                    init_model_params(config, 1, 1, np.random.default_rng(0)))
    path.write_text(json.dumps(breakage(json.loads(path.read_text()))))
    assert main(["eval", "--checkpoint", str(path), "--input", str(corpus_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err


# ---------------------------------------------------------------------------
# gradcheck / layer sweep

def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    doc = read_stdout_json(capsys)
    assert doc["passed"] is True
    assert doc["max_rel_err"] < doc["tolerance"] == 1e-4


def test_layer_sweep_rows(tmp_path, corpus_file, config_file, capsys):
    out = tmp_path / "sweep.json"
    rc = main(["layer-sweep", "--config", str(config_file), "--input", str(corpus_file),
               "--layers", "1,2", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [r["layer"] for r in doc["rows"]] == [1, 2]
    assert all(0.0 <= r["f1"] <= 1.0 for r in doc["rows"])


def test_layer_sweep_bad_layers_flag(corpus_file, capsys):
    assert main(["layer-sweep", "--input", str(corpus_file), "--layers", "1,x"]) == 1
    assert "--layers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# retrieval

def test_retrieve_eval(tmp_path, capsys):
    posts, docs, relevant = generate_retrieval_fixture(n_posts=12, seed=5)
    posts_path = tmp_path / "queries.jsonl"
    docs_path = tmp_path / "docs.jsonl"
    judg_path = tmp_path / "judgments.jsonl"
    save_corpus(posts, posts_path)
    docs_path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    judg_path.write_text("".join(
        json.dumps({"query_id": pid, "relevant": sorted(rel)}) + "\n"
        for pid, rel in relevant.items()))
    assert load_judgments(judg_path) == relevant
    rc = main(["retrieve-eval", "--input", str(posts_path), "--docs", str(docs_path),
               "--judgments", str(judg_path), "--k", "3,5"])
    assert rc == 0
    report = read_stdout_json(capsys)
    assert report["k_list"] == [3, 5]
    assert report["n_queries"] == 12
    spans = report["conditions"]["spans"]
    tweets = report["conditions"]["tweets"]
    assert spans["p@5"] > tweets["p@5"]
    assert spans["ndcg@5"] > tweets["ndcg@5"]


# ---------------------------------------------------------------------------
# parser behavior

def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ["preprocess", "train", "eval", "predict", "gradcheck",
                 "layer-sweep", "retrieve-eval"]:
        assert name in text


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", "x", "--bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--input", "x"])
    assert exc.value.code == 2

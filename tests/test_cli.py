import json
import os

import pytest

import numpy as np

from claimspan import cli
from claimspan.cli import main
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
from claimspan.packing import make_chunks
from claimspan.preprocess import AnnotatedPost, CharSpan, CorpusFormatError, decode_bio, load_corpus, save_corpus
from claimspan.retrieval import load_judgments
from claimspan.synthetic import generate_corpus, generate_retrieval_fixture

from checkpoint_files import as_format_3, edit_checkpoint, read_header, save_checkpoint_v2, tensors_edit

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


# Criterion 9's training set-up (test_acceptance.py), less its seed line.
SEEDLESS_CONFIG = """
d = 24
h = 4
d_ff = 48
layers = 2
max_len = 40
vocab_size = 256
dropout_p = 0.1
adapter_layer = 2
learning_rate = 0.003
batch_size = 16
max_epochs = 3
patience = 3
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


def test_preprocess_counts_posts_by_span_count(tmp_path, capsys):
    # posts with no span, one span and two spans, one of them a span that
    # normalization removes with its URL
    posts = generate_corpus(n_posts=12, seed=8) + [
        AnnotatedPost("none", "people keep sharing this", []),
        AnnotatedPost("url-span", "see https://t.co/abc today", [CharSpan(4, 20)])]
    path = tmp_path / "corpus.jsonl"
    save_corpus(posts, path)
    out = tmp_path / "tokenized.jsonl"
    assert main(["preprocess", "--input", str(path), "--output", str(out)]) == 0
    stats = read_stdout_json(capsys)
    per_post = [r["tags"].count("B") for r in map(json.loads, out.read_text().splitlines())]
    assert per_post[-2:] == [0, 0] and 2 in per_post
    assert stats["no_span_posts"] == per_post.count(0) == 2
    assert stats["single_span_posts"] == per_post.count(1)
    assert stats["multi_span_posts"] == per_post.count(2)


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


@pytest.mark.parametrize("span", ['{"start": 0.9, "end": 5}', '{"start": 0, "end": "5"}',
                                  '{"start": true, "end": 5}'], ids=["float", "string", "bool"])
def test_preprocess_rejects_non_integer_offsets(tmp_path, capsys, span):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(f'{{"id": "a", "text": "hello world", "spans": [{span}]}}\n')
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(bad)
    assert str(info.value).startswith(f"{bad}:1: ")
    assert main(["preprocess", "--input", str(bad)]) == 1
    assert f"{bad}:1: " in capsys.readouterr().err


@pytest.mark.parametrize("key,spans,message", [
    ("spans", [{"start": 0, "end": 9}], "span [0, 9) out of range for text of length 5"),
    ("predicted_spans", [{"start": 0, "end": 9}],
     "span [0, 9) out of range for text of length 5"),
    ("predicted_spans", [{"start": 0, "end": 3}, {"start": 2, "end": 4}],
     "spans overlap or are unsorted at [2, 4)"),
], ids=["gold-range", "predicted-range", "predicted-overlap"])
def test_preprocess_error_names_the_bad_span_list(tmp_path, capsys, key, spans, message):
    # the other list is valid, so only the list's name tells which one is bad
    good = [{"start": 0, "end": 5}]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "a", "text": "hello", "spans": good,
                               "predicted_spans": good, key: spans}) + "\n")
    assert main(["preprocess", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}:1: record 'a': {key}: {message}\n"


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


def _one_epoch_config(tmp_path):
    path = tmp_path / "one-epoch.cfg"
    path.write_text(TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1")
                    .replace("patience = 2", "patience = 1"))
    return path


def test_train_reads_the_bank_file(tmp_path, corpus_file, capsys):
    bank = tmp_path / "bank.txt"
    bank.write_text("# two descriptions\nclaims that a remedy cures a disease\n\n"
                    "  claims that a disease was made in a lab  \n")
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", str(_one_epoch_config(tmp_path)), "--input",
                 str(corpus_file), "--bank", str(bank), "--output", str(ckpt)]) == 0
    assert read_header(ckpt)["bank_texts"] == [
        "claims that a remedy cures a disease", "claims that a disease was made in a lab"]


def test_train_rejects_bank_with_the_adapter_off(tmp_path, corpus_file, capsys):
    # the flag would be dropped in silence; the missing file is never opened
    config = tmp_path / "bare.cfg"
    config.write_text(_one_epoch_config(tmp_path).read_text() + "use_descnet = false\n")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(config), "--input", str(corpus_file),
                 "--bank", str(tmp_path / "missing.txt"), "--output", str(ckpt)]) == 1
    assert capsys.readouterr().err == (
        "error: --bank given, but the config has use_descnet = false\n")
    assert not ckpt.exists()


@pytest.mark.parametrize("text, message", [
    (" ".join(["word"] * 33), "description longer than max_len"),
    # a description is normalized as a post is, which leaves nothing of this
    ("\U0001F642 https://t.co/x", "description tokenizes to nothing"),
], ids=["too_long", "junk_only"])
def test_train_rejects_a_description_longer_than_max_len(tmp_path, corpus_file, capsys,
                                                         text, message):
    bank = tmp_path / "bank.txt"
    bank.write_text(f"a short description\n{text}\n", encoding="utf-8")
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", str(_one_epoch_config(tmp_path)), "--input",
                 str(corpus_file), "--bank", str(bank), "--output", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"error: {message}: {text!r}\n"
    assert not ckpt.exists()


def test_train_without_any_token_exits_one(tmp_path, capsys):
    # posts that normalization empties: no example survives
    posts = [AnnotatedPost(f"p{i}", f"https://t.co/x{i} \U0001F600") for i in range(10)]
    path = tmp_path / "empty-tokens.jsonl"
    save_corpus(posts, path)
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", str(_one_epoch_config(tmp_path)), "--input", str(path),
                 "--output", str(ckpt)]) == 1
    assert capsys.readouterr().err == "error: no usable examples after preprocessing\n"
    assert not ckpt.exists()


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
    ckpt = tmp_path / "mixed.ckpt.json"
    save_checkpoint(ckpt, config, vocab, bank, params)
    return posts, path, ckpt, config, vocab, bank, params


def test_eval_and_predict_keep_each_post_prediction(tmp_path, capsys):
    # posts run in packed chunks sorted by length; each post's prediction
    # must still be the one it gets alone
    posts, path, ckpt, config, vocab, bank, params = _mixed_corpus_and_checkpoint(tmp_path)
    examples = [post_to_example(p, vocab, config) for p in posts]
    assert len(make_chunks([ex.token_ids for ex in examples if ex.token_ids])) >= 2
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
    tags = [predict_tags(params, config, [ex.token_ids], encoded)[0] for ex in examples]
    expected = build_report(tags, [ex.gold_tags for ex in examples],
                            [decode_bio(ex.tokens, t) for ex, t in zip(examples, tags)],
                            [p.spans for p in posts])
    assert json.loads(report_path.read_text()) == json.loads(json.dumps(expected.to_dict()))


def test_eval_ignores_stored_inert_crf_entries(tmp_path):
    # every format-4 checkpoint written while the BIO rule was stored as
    # -1e4 in the O -> I and start-I entries gives bitwise the eval report
    # of the same checkpoint holding 0.0 there
    posts, path, _ckpt, config, vocab, bank, params = _mixed_corpus_and_checkpoint(tmp_path)
    reports = []
    for value in (-1.0e4, 0.0):
        params.crf.transitions[2, 1] = params.crf.start_scores[1] = value
        ckpt, report = tmp_path / f"inert{value}.ckpt", tmp_path / f"inert{value}.json"
        save_checkpoint(ckpt, config, vocab, bank, params)
        assert main(["eval", "--checkpoint", str(ckpt), "--input", str(path),
                     "--output", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["overall"]["f1"] > 0.0


def test_eval_without_gold_spans_exits_one(tmp_path, capsys):
    # the span-count ratio is undefined without gold spans: a validation error
    posts, _path, ckpt, *_model = _mixed_corpus_and_checkpoint(tmp_path)
    bare = tmp_path / "bare.jsonl"
    save_corpus([AnnotatedPost(p.id, p.text) for p in posts], bare)
    for pretty in ([], ["--pretty"]):
        assert main(["eval", "--checkpoint", str(ckpt), "--input", str(bare), *pretty]) == 1
        assert capsys.readouterr().err == "error: no gold spans; ratio undefined\n"


def test_eval_empty_corpus_exits_one(tmp_path, capsys):
    _posts, _path, ckpt, *_model = _mixed_corpus_and_checkpoint(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"


def test_eval_pretty_table(tmp_path, corpus_file, config_file, capsys):
    ckpt = tmp_path / "model.json"
    main(["train", "--config", str(config_file), "--input", str(corpus_file),
          "--output", str(ckpt)])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(corpus_file),
                 "--pretty"]) == 0
    table = capsys.readouterr().out
    assert "overall" in table and "tag B" in table and "span count ratio" in table


def _tiny_checkpoint(path):
    """A small checkpoint without the adapter, and its payload's byte count."""
    config = ModelConfig(d=8, h=2, d_ff=16, layers=1, adapter_layer=1, use_descnet=False)
    params = init_model_params(config, 1, 1, np.random.default_rng(0))
    save_checkpoint(path, config, Vocabulary(["<unk>"]), None, params)
    return params.vector.nbytes


def test_eval_bad_checkpoint(tmp_path, corpus_file, capsys):
    bad = tmp_path / "model.ckpt"
    _tiny_checkpoint(bad)
    edit_checkpoint(bad, lambda h, p: ({**h, "format_version": 99}, p))
    assert main(["eval", "--checkpoint", str(bad), "--input", str(corpus_file)]) == 1
    assert capsys.readouterr().err == "error: unsupported checkpoint version 99\n"


def _config(**changes):
    return lambda h, p: ({**h, "config": {**h["config"], **changes}}, p)


@pytest.mark.parametrize("breakage,match", [
    pytest.param(lambda h, p: ({k: v for k, v in h.items() if k != "tensors"}, p),
                 "checkpoint tensors must be a list of [name, shape] pairs", id="no-tensor-list"),
    (tensors_edit(lambda ts: [[n, None] if n == "crf.b_emit" else [n, s] for n, s in ts]),
     "crf.b_emit"),
    (lambda h, p: ([h], p), "not a JSON object"),
    (lambda h, p: ({**h, "bank_texts": [1, 2, 3]}, p), "bank_texts"),
    (lambda h, p: ({**h, "bank_texts": "abc"}, p), "bank_texts"),
    # the adapter switched on with bank_texts null
    (_config(use_descnet=True), "checkpoint has adapter weights but no bank_texts"),
    # a bank stored beside a model without the adapter, which it cannot reach
    pytest.param(lambda h, p: ({**h, "bank_texts": ["claims with numbers"]}, p),
                 "checkpoint has bank_texts but no adapter weights", id="bank-without-adapter"),
    pytest.param(tensors_edit(lambda ts: [[n] if n == "crf.w_emit" else [n, s] for n, s in ts]),
                 "checkpoint tensors must be a list of [name, shape] pairs",
                 id="tensor-without-shape"),
    (lambda h, p: ({**h, "format_version": 1}, p), "version 1"),
    # config values of the wrong type: "false" is truthy, 8.0 cannot size a tensor
    (_config(use_igm="false"), "use_igm must be of type bool, got 'false'"),
    (_config(use_descnet=1), "use_descnet must be of type bool, got 1"),
    (_config(seed="x"), "seed must be of type int, got 'x'"),
    (_config(max_len=8.0), "max_len must be of type int, got 8.0"),
    # the payload must hold exactly the tensors' bytes
    pytest.param(lambda h, p: (h, p[:-8]),
                 "checkpoint payload holds {short} bytes, its tensors need {need}",
                 id="payload-8-bytes-short"),
    pytest.param(lambda h, p: (h, p + bytes(8)),
                 "checkpoint payload holds {long} bytes, its tensors need {need}",
                 id="payload-8-bytes-long"),
    pytest.param(lambda h, p: (h, p[:1]),
                 "checkpoint payload holds 1 bytes, its tensors need {need}", id="payload-1-byte"),
])
def test_eval_malformed_checkpoint(tmp_path, corpus_file, capsys, breakage, match):
    path = tmp_path / "model.ckpt"
    need = _tiny_checkpoint(path)
    edit_checkpoint(path, breakage)
    assert main(["eval", "--checkpoint", str(path), "--input", str(corpus_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert match.format(need=need, short=need - 8, long=need + 8) in err


@pytest.mark.parametrize("content", [b"", b"format_version = 3\n" + bytes(64),
                                     b"\xff\xfe\x00\x01\n"],
                         ids=["empty-file", "text-header", "binary-header"])
def test_eval_unreadable_checkpoint(tmp_path, corpus_file, capsys, content):
    path = tmp_path / "model.ckpt"
    path.write_bytes(content)
    assert main(["eval", "--checkpoint", str(path), "--input", str(corpus_file)]) == 1
    assert capsys.readouterr().err.startswith("error: checkpoint header is not JSON: ")


def _refused_by(command, path, version, corpus_file, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main([command, "--checkpoint", str(path), "--input", str(corpus_file),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unsupported checkpoint version {version}\n"
    assert not out.exists()


def _adapter_model():
    config = ModelConfig(d=8, h=2, d_ff=16, layers=1, adapter_layer=1)
    vocab = Vocabulary(["<unk>", "garlic"])
    bank = ["claims with numbers"]
    params = init_model_params(config, len(vocab), len(bank), np.random.default_rng(0))
    return config, vocab, bank, params


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_format_2_checkpoint_is_refused(tmp_path, corpus_file, capsys, command):
    # a model saved by an earlier writer must be retrained, not misread
    path = tmp_path / "model.json"
    save_checkpoint_v2(path, *_adapter_model())
    _refused_by(command, path, 2, corpus_file, tmp_path, capsys)


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_format_3_checkpoint_is_refused(tmp_path, corpus_file, capsys, command):
    # format 3 named each gate tensor on its own; its bytes are today's layout
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, *_adapter_model())
    edit_checkpoint(path, as_format_3)
    assert "descnet.w_c1" in {name for name, _shape in read_header(path)["tensors"]}
    _refused_by(command, path, 3, corpus_file, tmp_path, capsys)


def test_train_seed_flag_matches_seed_in_config(tmp_path, capsys):
    # --seed over a config file without a seed trains exactly as the same
    # config file holding that seed
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(n_posts=120, seed=21), corpus)
    seedless, seeded = tmp_path / "seedless.cfg", tmp_path / "seeded.cfg"
    seedless.write_text(SEEDLESS_CONFIG)
    seeded.write_text(SEEDLESS_CONFIG + "seed = 5\n")
    outputs = []
    for name, flags in [("flag", ["--config", str(seedless), "--seed", "5"]),
                        ("file", ["--config", str(seeded)])]:
        ckpt = tmp_path / f"{name}.json"
        assert main(["train", *flags, "--input", str(corpus), "--output", str(ckpt)]) == 0
        outputs.append((ckpt.read_bytes(), (tmp_path / f"{name}.json.log").read_bytes()))
    capsys.readouterr()
    assert read_header(tmp_path / "flag.json")["config"]["seed"] == 5
    assert outputs[0] == outputs[1]


def test_runtime_failure_exits_two(monkeypatch, corpus_file, capsys):
    def broken(_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_preprocess", broken)
    assert main(["preprocess", "--input", str(corpus_file)]) == 2
    assert capsys.readouterr().err == "runtime failure: RuntimeError: boom\n"


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_train_rejects_non_finite_learning_rate(tmp_path, corpus_file, capsys, rate):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_CONFIG.replace("learning_rate = 0.005", f"learning_rate = {rate}"))
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", str(config), "--input", str(corpus_file),
                 "--output", str(ckpt)]) == 1
    assert "learning_rate must be positive and finite" in capsys.readouterr().err
    assert not ckpt.exists()


# ---------------------------------------------------------------------------
# gradcheck / layer sweep

@pytest.fixture
def shared_grad_check(monkeypatch, default_grad_check):
    """``cli.grad_check`` served from the session's default check, which the
    CLI must ask for with the default config; returns that report."""
    def shared(config):
        assert config == ModelConfig()
        return default_grad_check.report

    monkeypatch.setattr(cli, "grad_check", shared)
    return default_grad_check.report


def test_gradcheck_passes(shared_grad_check, capsys):
    assert main(["gradcheck"]) == 0
    doc = read_stdout_json(capsys)
    assert doc["passed"] is True
    assert doc["max_rel_err"] < doc["tolerance"] == 1e-5


def test_gradcheck_pretty_prints_per_tensor(shared_grad_check, capsys):
    assert main(["gradcheck", "--pretty"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["per_tensor"] == shared_grad_check.per_tensor
    assert doc["parameter"] in doc["per_tensor"]


def test_layer_sweep_rows(tmp_path, corpus_file, config_file, capsys):
    out = tmp_path / "sweep.json"
    rc = main(["layer-sweep", "--config", str(config_file), "--input", str(corpus_file),
               "--layers", "1,2", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [r["layer"] for r in doc["rows"]] == [1, 2]
    assert all(0.0 <= r["f1"] <= 1.0 for r in doc["rows"])


def test_layer_sweep_without_the_adapter_exits_one(tmp_path, corpus_file, config_file, capsys):
    # every layer would train the same model
    config = tmp_path / "bare.cfg"
    config.write_text(config_file.read_text() + "use_descnet = false\n")
    out = tmp_path / "sweep.json"
    assert main(["layer-sweep", "--config", str(config), "--input", str(corpus_file),
                 "--layers", "1,2", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: layer sweep needs the adapter, but the config has use_descnet = false\n")
    assert not out.exists()


def test_layer_sweep_bad_layers_flag(corpus_file, capsys):
    assert main(["layer-sweep", "--input", str(corpus_file), "--layers", "1,x"]) == 1
    assert "--layers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# retrieval

def _retrieval_files(tmp_path):
    """The 12-query retrieval fixture written as queries, documents and
    judgments files; returns their paths and the judgments."""
    posts, docs, relevant = generate_retrieval_fixture(n_posts=12, seed=5)
    posts_path = tmp_path / "queries.jsonl"
    docs_path = tmp_path / "docs.jsonl"
    judg_path = tmp_path / "judgments.jsonl"
    save_corpus(posts, posts_path)
    docs_path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    judg_path.write_text("".join(
        json.dumps({"query_id": pid, "relevant": sorted(rel)}) + "\n"
        for pid, rel in relevant.items()))
    return posts_path, docs_path, judg_path, relevant


def test_retrieve_eval(tmp_path, capsys):
    posts_path, docs_path, judg_path, relevant = _retrieval_files(tmp_path)
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
    # repeated cutoffs are a validation error that names them
    rc = main(["retrieve-eval", "--input", str(posts_path), "--docs", str(docs_path),
               "--judgments", str(judg_path), "--k", "3,3"])
    assert rc == 1
    assert "[3, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, raw", [("--k", "3,,5"), ("--k", "3,"), ("--k", ","),
                                       ("--layers", "1,,2")])
def test_int_list_flag_rejects_empty_parts(tmp_path, corpus_file, capsys, flag, raw):
    # an empty part is an error that names the flag, not a value dropped
    if flag == "--k":
        docs, judged = tmp_path / "docs.jsonl", tmp_path / "judged.jsonl"
        docs.write_text('{"id": "d", "text": "garlic cures flu"}\n')
        judged.write_text('{"query_id": "p0", "relevant": ["d"]}\n')
        argv = ["retrieve-eval", "--docs", str(docs), "--judgments", str(judged)]
    else:
        argv = ["layer-sweep"]
    assert main(argv + ["--input", str(corpus_file), flag, raw]) == 1
    assert f"{flag}: expected comma-separated integers, got {raw!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inputs and outputs

@pytest.fixture
def input_files(tmp_path, corpus_file, config_file):
    """Valid inputs for every subcommand that writes a file, by name."""
    files = {"corpus": corpus_file, "cfg": config_file, "bank": tmp_path / "bank.txt",
             "ckpt": tmp_path / "model.ckpt", "run_log": tmp_path / "run.log",
             "link": tmp_path / "link.jsonl"}
    files["queries"], files["docs"], files["judgments"], _ = _retrieval_files(tmp_path)
    files["bank"].write_text("claims with numbers\na quote from someone\n")
    save_checkpoint(files["ckpt"], *_adapter_model())
    files["run_log"].write_bytes(corpus_file.read_bytes())
    os.link(corpus_file, files["link"])  # a second name for the corpus
    return files


@pytest.mark.parametrize("argv, out_flag, in_flag", [
    ("preprocess --input {corpus} --output {corpus}", "--output", "--input"),
    ("preprocess --input {corpus} --output {link}", "--output", "--input"),
    ("train --config {cfg} --input {corpus} --bank {bank} --output {corpus}", "--output", "--input"),
    ("train --config {cfg} --input {corpus} --bank {bank} --output {cfg}", "--output", "--config"),
    ("train --config {cfg} --input {corpus} --bank {bank} --output {bank}", "--output", "--bank"),
    ("train --config {cfg} --input {run_log} --output {run}", "--output's log", "--input"),
    ("eval --checkpoint {ckpt} --input {corpus} --output {ckpt}", "--output", "--checkpoint"),
    ("eval --checkpoint {ckpt} --input {corpus} --output {corpus}", "--output", "--input"),
    ("predict --checkpoint {ckpt} --input {corpus} --output {ckpt}", "--output", "--checkpoint"),
    ("predict --checkpoint {ckpt} --input {corpus} --output {corpus}", "--output", "--input"),
    ("layer-sweep --config {cfg} --input {corpus} --bank {bank} --output {bank}",
     "--output", "--bank"),
    ("retrieve-eval --input {queries} --docs {docs} --judgments {judgments} --output {docs}",
     "--output", "--docs"),
    ("retrieve-eval --input {queries} --docs {docs} --judgments {judgments} --output {judgments}",
     "--output", "--judgments"),
], ids=["preprocess-input", "preprocess-hard-link", "train-input", "train-config", "train-bank",
        "train-log", "eval-checkpoint", "eval-input", "predict-checkpoint", "predict-input",
        "layer-sweep-bank", "retrieve-eval-docs", "retrieve-eval-judgments"])
def test_no_subcommand_writes_over_its_input(input_files, tmp_path, capsys, argv, out_flag,
                                             in_flag):
    # an output that names an input file, by any path, is refused before
    # anything is read or written, and the input keeps its bytes
    before = {name: path.read_bytes() for name, path in input_files.items()}
    paths = {**input_files, "run": tmp_path / "run"}
    args = [str(paths[word[1:-1]]) if word.startswith("{") else word for word in argv.split()]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_flag} ") and f" is the {in_flag} file" in err
    assert {name: path.read_bytes() for name, path in input_files.items()} == before
    assert not (tmp_path / "run").exists()


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


def test_main_reuses_one_parser_and_keeps_each_namespace_its_own(tmp_path, corpus_file,
                                                                 config_file, monkeypatch,
                                                                 capsys):
    # main parses every call with the parser built once for the process, and
    # no option of one subcommand's call reaches the next call's namespace
    ckpt = tmp_path / "model.json"
    assert main(["train", "--config", str(config_file), "--input", str(corpus_file),
                 "--output", str(ckpt)]) == 0
    parser = cli.build_parser()
    seen = []

    def recording(argv):
        seen.append(real(argv))
        return seen[-1]

    real = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", recording)
    calls = {
        "eval": ["--checkpoint", str(ckpt), "--input", str(corpus_file),
                 "--output", str(tmp_path / "report.json")],
        "predict": ["--checkpoint", str(ckpt), "--input", str(corpus_file),
                    "--output", str(tmp_path / "pred.jsonl")],
        "preprocess": ["--input", str(corpus_file), "--pretty"],
    }
    for command, flags in calls.items():
        assert main([command, *flags]) == 0
    capsys.readouterr()
    assert [vars(ns) for ns in seen] == [
        {"command": "eval", "checkpoint": str(ckpt), "input": str(corpus_file),
         "output": str(tmp_path / "report.json"), "pretty": False},
        {"command": "predict", "checkpoint": str(ckpt), "input": str(corpus_file),
         "output": str(tmp_path / "pred.jsonl"), "pretty": False},
        {"command": "preprocess", "input": str(corpus_file), "output": None, "pretty": True},
    ]


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", "x", "--bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--input", "x"])
    assert exc.value.code == 2

import base64
import dataclasses
import json

import numpy as np
import pytest

from claimspan.model import (
    CheckpointError,
    Vocabulary,
    build_bank,
    init_model_params,
    load_checkpoint,
    post_to_example,
    predict_tags,
    save_checkpoint,
    sequence_loss,
    spans_to_raw,
)
from claimspan.numerics import named_arrays
from claimspan.preprocess import AnnotatedPost, CharSpan


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_build_frequency_and_ties():
    vocab = Vocabulary.build([["b", "a", "a", "C", "c"]], max_size=10)
    # a:2, c:2 (case-folded), b:1; ties alphabetical
    assert vocab.words == ["<unk>", "a", "c", "b"]
    assert vocab.lookup("A") == 1
    assert vocab.lookup("missing") == 0


def test_vocab_cap():
    lists = [[f"w{i}" for i in range(50)]]
    vocab = Vocabulary.build(lists, max_size=10)
    assert len(vocab) == 10
    assert vocab.words[0] == "<unk>"


def test_vocab_requires_unk_sentinel():
    with pytest.raises(ValueError):
        Vocabulary(["word"])


# ---------------------------------------------------------------------------
# examples

def test_post_to_example_roundtrip(tiny_config, tiny_vocab):
    post = AnnotatedPost(id="p", text="see https://t.co/x garlic cures flu ok",
                         spans=[CharSpan(19, 35)])
    ex = post_to_example(post, tiny_vocab, tiny_config)
    assert [t.surface for t in ex.tokens] == ["see", "garlic", "cures", "flu", "ok"]
    assert ex.gold_tags == ["O", "B", "I", "I", "O"]
    assert ex.token_ids[0] == 0  # "see" is out of vocabulary
    spans = spans_to_raw(ex, ex.gold_tags)
    assert spans == [CharSpan(19, 35)]
    assert post.text[spans[0].start:spans[0].end] == "garlic cures flu"


def test_post_to_example_truncates(tiny_config, tiny_vocab):
    text = " ".join(["the"] * 40)
    ex = post_to_example(AnnotatedPost(id="p", text=text, spans=[]), tiny_vocab, tiny_config)
    assert len(ex.tokens) == tiny_config.max_len


# ---------------------------------------------------------------------------
# init determinism

def test_init_deterministic(tiny_config, tiny_vocab):
    a = init_model_params(tiny_config, len(tiny_vocab), 2, np.random.default_rng(5))
    b = init_model_params(tiny_config, len(tiny_vocab), 2, np.random.default_rng(5))
    for (na, ta), (nb, tb) in zip(named_arrays(a), named_arrays(b)):
        assert na == nb
        assert np.array_equal(ta, tb)


def test_backbone_init_shared_across_adapter_variants(tiny_config, tiny_vocab):
    bare_cfg = dataclasses.replace(tiny_config, use_descnet=False)
    full = init_model_params(tiny_config, len(tiny_vocab), 2, np.random.default_rng(5))
    bare = init_model_params(bare_cfg, len(tiny_vocab), 2, np.random.default_rng(5))
    assert np.array_equal(full.encoder.token_embedding, bare.encoder.token_embedding)
    assert np.array_equal(full.crf.w_emit, bare.crf.w_emit)
    assert bare.descnet is None


# ---------------------------------------------------------------------------
# checkpoints

def _tensor_entry(values) -> dict:
    """A checkpoint tensor entry, encoded as ``save_checkpoint`` writes it."""
    arr = np.asarray(values, dtype="<f8")
    return {"shape": list(arr.shape), "values": base64.b64encode(arr.tobytes()).decode("ascii")}


def _roundtrip(tmp_path, config, vocab, bank_texts, params):
    path = tmp_path / "model.json"
    save_checkpoint(path, config, vocab, bank_texts, params)
    return path, load_checkpoint(path)


def test_checkpoint_roundtrip_bitwise(tmp_path, tiny_config, tiny_vocab, tiny_params):
    bank_texts = ["claims with numbers", "a quote from someone"]
    path, (config, vocab, texts, params) = _roundtrip(
        tmp_path, tiny_config, tiny_vocab, bank_texts, tiny_params)
    assert config == tiny_config
    assert vocab.words == tiny_vocab.words
    assert texts == bank_texts
    for (na, ta), (nb, tb) in zip(named_arrays(tiny_params), named_arrays(params)):
        assert na == nb
        assert np.array_equal(ta, tb), f"tensor {na} changed in round trip"
    # saving the loaded model reproduces the file byte for byte
    again = tmp_path / "again.json"
    save_checkpoint(again, config, vocab, texts, params)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_predictions_survive_roundtrip(tmp_path, tiny_config, tiny_vocab, tiny_params):
    bank_texts = ["claims with numbers", "a quote from someone"]
    bank = build_bank(bank_texts, tiny_vocab, tiny_params, tiny_config)
    ids = [1, 2, 3, 4]
    before = predict_tags(tiny_params, tiny_config, ids, bank)
    _path, (config, vocab, texts, params) = _roundtrip(
        tmp_path, tiny_config, tiny_vocab, bank_texts, tiny_params)
    bank2 = build_bank(texts, vocab, params, config)
    assert predict_tags(params, config, ids, bank2) == before


def test_checkpoint_rejects_bad_version(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_config, tiny_vocab, None if tiny_params.descnet is None
                    else ["a", "b"], tiny_params)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_and_unknown_tensors(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_config, tiny_vocab, ["a", "b"], tiny_params)
    doc = json.loads(path.read_text())
    del doc["params"]["crf.w_emit"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(path)

    save_checkpoint(path, tiny_config, tiny_vocab, ["a", "b"], tiny_params)
    doc = json.loads(path.read_text())
    doc["params"]["bogus.tensor"] = _tensor_entry([0.0])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="unknown"):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path = tmp_path / "model.json"
    save_checkpoint(path, tiny_config, tiny_vocab, ["a", "b"], tiny_params)
    doc = json.loads(path.read_text())
    doc["params"]["crf.b_emit"] = _tensor_entry([0.0] * 5)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# loss plumbing

def test_sequence_loss_requires_bank_when_adapter_on(tiny_config, tiny_vocab, tiny_params):
    with pytest.raises(ValueError):
        sequence_loss(tiny_params, tiny_config, [1, 2], ["O", "O"], bank=None)


def test_sequence_loss_eval_deterministic(tiny_config, tiny_vocab, tiny_params):
    bank = build_bank(["claims with numbers", "a quote"], tiny_vocab, tiny_params, tiny_config)
    l1, _ = sequence_loss(tiny_params, tiny_config, [1, 2, 3], ["O", "B", "I"], bank)
    l2, _ = sequence_loss(tiny_params, tiny_config, [1, 2, 3], ["O", "B", "I"], bank)
    assert l1 == l2

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from claimspan.crf import viterbi_decode
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
from claimspan.packing import _CHUNK_TOKENS, Packing, make_chunks
from claimspan.preprocess import AnnotatedPost, CharSpan

from checkpoint_files import as_format_3, edit_checkpoint, read_header, save_checkpoint_v2, tensors_edit


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_build_frequency_and_ties():
    vocab = Vocabulary.build([["b", "a", "a", "C", "c"]], max_size=10)
    # a:2, c:2 (case-folded), b:1; ties alphabetical
    assert vocab.words == ["<unk>", "a", "c", "b"]
    assert vocab.ids(["A", "missing", "C"]) == [1, 0, 2]


def test_vocab_cap():
    lists = [[f"w{i}" for i in range(50)]]
    vocab = Vocabulary.build(lists, max_size=10)
    assert len(vocab) == 10
    assert vocab.words[0] == "<unk>"


def test_vocab_requires_unk_sentinel():
    with pytest.raises(ValueError):
        Vocabulary(["word"])


def test_vocab_index_is_built_not_passed():
    # the index is derived from the words; passing one is an error, not a
    # value silently replaced
    with pytest.raises(TypeError, match="index"):
        Vocabulary(["<unk>", "a"], index={"a": 7})
    vocab = Vocabulary(["<unk>", "a", "b"])
    assert vocab.index == {"<unk>": 0, "a": 1, "b": 2}
    assert vocab == Vocabulary(["<unk>", "a", "b"])
    assert "index" not in repr(vocab)


# ---------------------------------------------------------------------------
# examples

def test_post_to_example_roundtrip(tiny_config, tiny_vocab):
    post = AnnotatedPost(id="p", text="see https://t.co/x garlic cures flu ok",
                         spans=[CharSpan(19, 35)])
    ex = post_to_example(post, tiny_vocab, tiny_config)
    assert ex.tokens.surfaces == ["see", "garlic", "cures", "flu", "ok"]
    assert ex.gold_tags == ["O", "B", "I", "I", "O"]
    assert ex.token_ids[0] == 0  # "see" is out of vocabulary
    spans = spans_to_raw(ex, ex.gold_tags)
    assert spans == [CharSpan(19, 35)]
    assert post.text[spans[0].start:spans[0].end] == "garlic cures flu"
    assert ex.dropped_spans == 0


def test_post_to_example_counts_dropped_spans(tiny_config, tiny_vocab):
    # the first span lies wholly in removed text, the second survives
    post = AnnotatedPost(id="p", text="keep →→→ tail garlic",
                         spans=[CharSpan(5, 8), CharSpan(14, 20)])
    ex = post_to_example(post, tiny_vocab, tiny_config)
    assert ex.dropped_spans == 1
    assert ex.gold_tags == ["O", "O", "B"]
    assert list(ex.norm_to_raw) == [*range(0, 5), *range(9, 20)]


def test_post_to_example_truncates(tiny_config, tiny_vocab):
    text = " ".join(["the"] * 40)
    # the span starts inside the kept tokens and ends past the cut
    ex = post_to_example(AnnotatedPost(id="p", text=text, spans=[CharSpan(4, len(text))]),
                         tiny_vocab, tiny_config)
    assert len(ex.tokens) == len(ex.token_ids) == len(ex.gold_tags) == tiny_config.max_len
    assert len(ex.tokens.starts) == len(ex.tokens.ends) == tiny_config.max_len
    assert ex.gold_tags == ["O", "B"] + ["I"] * (tiny_config.max_len - 2)


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

BANK = ["claims with numbers", "a quote from someone"]


def _roundtrip(tmp_path, config, vocab, bank_texts, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, vocab, bank_texts, params)
    return path, load_checkpoint(path)


def _saved(tmp_path, config, vocab, params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, vocab, BANK, params)
    return path


def test_checkpoint_roundtrip_bitwise(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path, (config, vocab, texts, params) = _roundtrip(
        tmp_path, tiny_config, tiny_vocab, BANK, tiny_params)
    assert config == tiny_config
    assert vocab.words == tiny_vocab.words
    assert texts == BANK
    for (na, ta), (nb, tb) in zip(named_arrays(tiny_params), named_arrays(params)):
        assert na == nb
        assert np.array_equal(ta, tb), f"tensor {na} changed in round trip"
    assert params.vector.flags.writeable
    # one header line listing the tensors, then the vector's bytes
    header = read_header(path)
    assert header["tensors"] == [[n, list(a.shape)] for n, a in named_arrays(tiny_params)]
    gates = [n for n, _shape in header["tensors"] if re.match(r"descnet\.(conflict|refine)\.", n)]
    assert gates == [f"descnet.{group}.{field}" for group in ("conflict", "refine")
                     for field in ("w1", "w2", "w3", "w4", "b1", "b2")]
    assert path.read_bytes().partition(b"\n")[2] == tiny_params.vector.astype("<f8").tobytes()
    # saving the loaded model reproduces the file byte for byte
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, config, vocab, texts, params)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_predictions_survive_roundtrip(tmp_path, tiny_config, tiny_vocab, tiny_params):
    bank = build_bank(BANK, tiny_vocab, tiny_params, tiny_config)
    ids = [1, 2, 3, 4]
    before = predict_tags(tiny_params, tiny_config, [ids], bank)
    _path, (config, vocab, texts, params) = _roundtrip(
        tmp_path, tiny_config, tiny_vocab, BANK, tiny_params)
    bank2 = build_bank(texts, vocab, params, config)
    assert predict_tags(params, config, [ids], bank2) == before


def test_save_checkpoint_refuses_a_bank_without_the_adapter(tmp_path, tiny_config, tiny_vocab):
    # a bank stored beside a model without adapter weights would mean nothing
    config = dataclasses.replace(tiny_config, use_descnet=False)
    params = init_model_params(config, len(tiny_vocab), 1, np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    for bank_texts in (BANK, []):
        with pytest.raises(ValueError, match="bank_texts given for a model without adapter"):
            save_checkpoint(path, config, tiny_vocab, bank_texts, params)
        assert not path.exists()
    save_checkpoint(path, config, tiny_vocab, None, params)
    assert load_checkpoint(path)[2] is None


def test_edited_inert_crf_entries_decode_valid_bio(tmp_path, tiny_config, tiny_vocab, tiny_params):
    # a checkpoint whose O -> I and start-I entries were edited to +5.0
    # loads, and still decodes no start on I and no O -> I on emissions that
    # favour I where those moves would win: the BIO mask, not the stored
    # values, keeps the rule
    tiny_params.crf.transitions[2, 1] = tiny_params.crf.start_scores[1] = 5.0
    _path, (_config, _vocab, _texts, params) = _roundtrip(
        tmp_path, tiny_config, tiny_vocab, BANK, tiny_params)
    assert params.crf.transitions[2, 1] == params.crf.start_scores[1] == 5.0
    favour_i, favour_o = [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]
    e = np.array([favour_i, favour_o, favour_i, favour_o, favour_i, favour_i, favour_o, favour_i])
    packing = Packing([5, 1, 2])
    tags = viterbi_decode(e, params.crf, packing)
    assert tags == ["B", "O", "B", "O", "B", "B", "O", "B"]
    for seq in packing.split(tags):
        assert seq[0] != "I"
        assert ("O", "I") not in set(zip(seq, seq[1:]))


def test_checkpoint_rejects_bad_version(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path = _saved(tmp_path, tiny_config, tiny_vocab, tiny_params)
    edit_checkpoint(path, lambda h, p: ({**h, "format_version": 99}, p))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 99"):
        load_checkpoint(path)
    # the previous format, one JSON document with base64 tensors
    save_checkpoint_v2(path, tiny_config, tiny_vocab, BANK, tiny_params)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)
    # format 3, the same bytes with each gate tensor named on its own
    save_checkpoint(path, tiny_config, tiny_vocab, BANK, tiny_params)
    edit_checkpoint(path, as_format_3)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 3"):
        load_checkpoint(path)
    # format 4, whose tensors also held the key biases, is refused by its version
    save_checkpoint(path, tiny_config, tiny_vocab, BANK, tiny_params)
    edit_checkpoint(path, lambda h, p: ({**h, "format_version": 4}, p))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 4"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_and_unknown_tensors(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path = _saved(tmp_path, tiny_config, tiny_vocab, tiny_params)
    edit_checkpoint(path, tensors_edit(lambda ts: [t for t in ts if t[0] != "crf.w_emit"]))
    with pytest.raises(CheckpointError, match="checkpoint missing tensor 'crf.w_emit'"):
        load_checkpoint(path)

    path = _saved(tmp_path, tiny_config, tiny_vocab, tiny_params)
    edit_checkpoint(path, tensors_edit(lambda ts: ts + [["bogus.tensor", [1]]]))
    with pytest.raises(CheckpointError, match="checkpoint holds unknown tensor 'bogus.tensor'"):
        load_checkpoint(path)

    # the right names and shapes in another order would misplace the bytes
    path = _saved(tmp_path, tiny_config, tiny_vocab, tiny_params)
    edit_checkpoint(path, tensors_edit(lambda ts: ts[1:] + ts[:1]))
    with pytest.raises(CheckpointError, match="not in the model's order"):
        load_checkpoint(path)


@pytest.mark.parametrize("entry, match", [
    (5, "entry 1 \\(5\\) is not a lowercase string"),
    ("repeat", "entry 2 .* repeats entry 1"),
    ("upper", "entry 1 .* is not a lowercase string"),
])
def test_checkpoint_rejects_bad_vocab_entries(tmp_path, tiny_config, tiny_vocab, tiny_params,
                                              entry, match):
    # a vocabulary the model could not have been trained with: a word that is
    # not a string, repeated, or upper case (never found by ids)
    def edit(header, payload):
        vocab = list(header["vocab"])
        if entry == "repeat":
            vocab[2] = vocab[1]
        elif entry == "upper":
            vocab[1] = vocab[1].upper()
        else:
            vocab[1] = entry
        return {**header, "vocab": vocab}, payload

    path = _saved(tmp_path, tiny_config, tiny_vocab, tiny_params)
    edit_checkpoint(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path, tiny_config, tiny_vocab, tiny_params):
    path = _saved(tmp_path, tiny_config, tiny_vocab, tiny_params)
    edit_checkpoint(path, tensors_edit(lambda ts: [[n, [5] if n == "crf.b_emit" else s]
                                               for n, s in ts]))
    with pytest.raises(CheckpointError,
                       match=re.escape("tensor 'crf.b_emit' has shape [5], expected [3]")):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# loss plumbing

def test_sequence_loss_requires_bank_when_adapter_on(tiny_config, tiny_vocab, tiny_params):
    with pytest.raises(ValueError):
        sequence_loss(tiny_params, tiny_config, [1, 2], ["O", "O"], None, Packing([2]))


def test_sequence_loss_eval_deterministic(tiny_config, tiny_vocab, tiny_params):
    bank = build_bank(["claims with numbers", "a quote"], tiny_vocab, tiny_params, tiny_config)
    l1, _ = sequence_loss(tiny_params, tiny_config, [1, 2, 3], ["O", "B", "I"], bank, Packing([3]))
    l2, _ = sequence_loss(tiny_params, tiny_config, [1, 2, 3], ["O", "B", "I"], bank, Packing([3]))
    assert l1 == l2


# ---------------------------------------------------------------------------
# prediction

@st.composite
def _id_lists(draw, max_len: int, vocab_size: int):
    """Token-id lists in caller order over at least three chunks: empty,
    1-token and ``max_len`` lists among them."""
    lengths = draw(st.lists(st.integers(0, max_len), max_size=20)) + [0, 1, max_len]
    while sum(lengths) <= 2 * _CHUNK_TOKENS:
        lengths.append(draw(st.integers(1, max_len)))
    lengths = draw(st.permutations(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return [rng.integers(vocab_size, size=n).tolist() for n in lengths]


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_decode_matches_each_sequence_alone(data, tiny_config, tiny_vocab):
    # the call's emissions are decoded in one Viterbi pass, yet each
    # sequence gets the tags it gets alone, in the caller's order; large
    # emission weights make the tags vary from token to token
    rng = np.random.default_rng(3)
    params = init_model_params(tiny_config, len(tiny_vocab), 2, rng)
    params.crf.w_emit[...] = 25.0 * rng.normal(size=params.crf.w_emit.shape)
    bank = build_bank(["claims with numbers", "a quote"], tiny_vocab, params, tiny_config)
    id_lists = data.draw(_id_lists(tiny_config.max_len, len(tiny_vocab)))
    assert len(make_chunks([ids for ids in id_lists if ids])) >= 3
    tags = predict_tags(params, tiny_config, id_lists, bank)
    assert tags == [predict_tags(params, tiny_config, [ids], bank)[0] for ids in id_lists]
    assert [len(t) for t in tags] == [len(ids) for ids in id_lists]


def test_predict_tags_of_empty_lists(tiny_config, tiny_vocab, tiny_params):
    bank = build_bank(["claims with numbers", "a quote"], tiny_vocab, tiny_params, tiny_config)
    assert predict_tags(tiny_params, tiny_config, [[], [], []], bank) == [[], [], []]
    assert predict_tags(tiny_params, tiny_config, [], bank) == []

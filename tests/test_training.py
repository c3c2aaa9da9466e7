import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimspan.crf as crf_mod
import claimspan.preprocess as preprocess
import claimspan.model as model_mod
import claimspan.synthetic as synthetic
import claimspan.training as training_mod
from claimspan.encoder import ModelConfig
from claimspan.metrics import EvalReport, Scores, build_report
from claimspan.model import (
    Example,
    Vocabulary,
    build_bank,
    init_model_params,
    post_to_example,
    predict_tags,
    sequence_loss,
)
from claimspan.numerics import flat_views, named_arrays
from claimspan.packing import _CHUNK_TOKENS, Packing, make_chunks
from claimspan.preprocess import TAGS, AnnotatedPost, CharSpan
from claimspan.synthetic import generate_corpus, split_corpus, synthetic_bank
from claimspan.training import (
    AdamState,
    ConfigError,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    configs_from_mapping,
    grad_check,
    layer_sweep,
    load_config,
    parse_config_text,
    prepare_examples,
    train,
)

from oracles import AdamPerTensor

TINY_MC = ModelConfig(d=16, h=2, d_ff=32, layers=2, max_len=32, vocab_size=128,
                      dropout_p=0.0, adapter_layer=2)
TINY_TC = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=4, patience=3,
                      seed=1, adapter_layer=2)
# Synthetic posts hold about 14 tokens, so this many of them fill more than
# one packed chunk: tests that need a batch spanning two or more chunks size
# it from the chunk's token budget.
MULTI_CHUNK_POSTS = _CHUNK_TOKENS // 10


# ---------------------------------------------------------------------------
# Adam

def _scalar_params(value=1.0):
    rng = np.random.default_rng(0)
    p = init_model_params(TINY_MC, 10, 2, rng)
    return p


def _copy(params):
    """A model's parameters in a vector of their own."""
    return flat_views(params, params.vector.copy())


def test_adam_first_step_hand_value():
    # one parameter tree, every gradient 1: after one step every entry, the
    # CRF's two inert ones included, moves by exactly lr / (1 + eps)
    params = _scalar_params()
    before = params.vector.copy()
    grads = flat_views(params)
    grads.vector[...] = 1.0
    state = AdamState(params)
    lr = 0.1
    adam_step(params, grads, state, lr)
    assert np.allclose(before - params.vector, lr / (1.0 + 1e-8), atol=1e-12)
    assert state.step == 1


def test_adam_zero_gradient_leaves_params():
    params = _scalar_params()
    before = params.vector.copy()
    state = AdamState(params)
    adam_step(params, flat_views(params), state, 0.5)
    assert np.array_equal(before, params.vector)
    assert state.step == 1


def test_adam_lr_zero_is_identity():
    params = _scalar_params()
    before = params.vector.copy()
    grads = flat_views(params)
    grads.vector[...] = 3.0
    adam_step(params, grads, AdamState(params), 0.0)
    assert np.array_equal(before, params.vector)


def test_adam_constant_gradient_update_approaches_lr():
    params = _scalar_params()
    grads = flat_views(params)
    grads.vector[...] = 0.37
    state = AdamState(params)
    lr = 0.01
    for _ in range(300):
        prev = params.encoder.token_embedding.copy()
        adam_step(params, grads, state, lr)
    last_delta = prev - params.encoder.token_embedding
    assert np.allclose(last_delta, lr, rtol=1e-3)


def test_pinned_entries_survive_many_steps():
    # random gradients, the inert entries' too, move the stored O -> I and
    # start -> I scores far from 0; the BIO rule still holds in decoding,
    # since the fixed mask, not the stored value, forbids those moves
    params = _scalar_params()
    rng = np.random.default_rng(1)
    grads = flat_views(params)
    state = AdamState(params)
    for _ in range(20):
        grads.vector[...] = rng.normal(size=grads.vector.shape)
        grads.crf.transitions[2, 1] = grads.crf.start_scores[1] = -1.0
        adam_step(params, grads, state, 0.05)
    assert params.crf.transitions[2, 1] > 0.5 and params.crf.start_scores[1] > 0.5
    for _ in range(50):
        n = int(rng.integers(1, 9))
        e = rng.normal(scale=2.0, size=(n, len(TAGS)))
        e[:, 1] += 3.0  # emissions that favour I everywhere
        tags = crf_mod.viterbi_decode(e, params.crf, Packing([n]))
        assert tags[0] != "I"
        assert all(not (a == "O" and b == "I") for a, b in zip(tags, tags[1:]))


def test_adam_in_place_matches_per_tensor_update():
    # bitwise the update of the per-tensor walk, step after step, with
    # gradients on the CRF's inert entries too; the gradient passed in is not
    # changed, since a caller may pass the same one again
    params = _scalar_params()
    reference = _copy(params)
    state, per_tensor = AdamState(params), AdamPerTensor()
    grads = flat_views(params)
    n = grads.vector.size
    rng = np.random.default_rng(2)
    for _ in range(6):
        grads.vector[...] = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2, n)
        assert grads.crf.transitions[2, 1] != 0.0 and grads.crf.start_scores[1] != 0.0
        sent = grads.vector.copy()
        adam_step(params, grads, state, 0.05)
        per_tensor.step(reference, grads, 0.05)
        assert np.array_equal(grads.vector, sent)
        assert params.vector.tobytes() == reference.vector.tobytes()
        for moments, by_name in ((state.m, per_tensor.m), (state.v, per_tensor.v)):
            flat = np.concatenate([by_name[name].ravel() for name, _a in named_arrays(params)])
            assert moments.tobytes() == flat.tobytes()


def _assert_views_of_vector(params):
    # the named arrays are views of the model's one vector that tile it in
    # order, each array's entries in C order
    for name, arr in named_arrays(params):
        assert np.shares_memory(arr, params.vector), name
    kept = params.vector.copy()
    params.vector[...] = np.arange(params.vector.size)
    tiles = np.concatenate([arr.ravel() for _name, arr in named_arrays(params)])
    assert np.array_equal(tiles, np.arange(params.vector.size))
    params.vector[...] = kept


def test_params_are_views_of_one_vector(tmp_path):
    # after init, in the best-epoch parameters train returns, and after a
    # checkpoint load; the loaded model saves to the same bytes
    _assert_views_of_vector(init_model_params(TINY_MC, 10, 2, np.random.default_rng(0)))
    tr, va, _ = split_corpus(_mini_corpus())
    res = train(tr, va, synthetic_bank(), TINY_MC,
                dataclasses.replace(TINY_TC, max_epochs=2, patience=2))
    _assert_views_of_vector(res.params)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    model_mod.save_checkpoint(first, res.model_config, res.vocab, res.bank_texts, res.params)
    config, vocab, bank_texts, loaded = model_mod.load_checkpoint(first)
    _assert_views_of_vector(loaded)
    assert loaded.vector.tobytes() == res.params.vector.tobytes()
    model_mod.save_checkpoint(second, config, vocab, bank_texts, loaded)
    assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# config files

def test_parse_config_text_basics():
    kv = parse_config_text("""
# a comment
d = 32
learning_rate = 0.001   # inline comment
use_descnet = true
attention_variant = coda
""")
    assert kv == {"d": "32", "learning_rate": "0.001", "use_descnet": "true",
                  "attention_variant": "coda"}


@pytest.mark.parametrize("text,match", [
    ("novalue\n", "key=value"),
    ("d = 1\nd = 2\n", "duplicate"),
    ("= 5\n", "empty key"),
])
def test_parse_config_text_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


def test_configs_from_mapping_types_and_sharing():
    mc, tc = configs_from_mapping({
        "d": "32", "h": "4", "layers": "3", "adapter_layer": "2",
        "learning_rate": "0.01", "use_descnet": "false", "seed": "9",
    })
    assert mc.d == 32 and mc.layers == 3
    assert mc.adapter_layer == 2 and tc.adapter_layer == 2
    assert mc.use_descnet is False
    assert mc.seed == 9 and tc.seed == 9
    assert tc.learning_rate == 0.01


@pytest.mark.parametrize("kv,match", [
    ({"bogus": "1"}, "unknown"),
    ({"use_descnet": "maybe"}, "true/false"),
    ({"d": "abc"}, "d"),
    ({"patience": "50", "max_epochs": "10"}, "patience"),
    ({"learning_rate": "-1"}, "learning_rate"),
    ({"attention_variant": "fancy"}, "attention_variant"),
    # the model's own checks, against the defaults d = 64 and layers = 4
    ({"h": "3"}, "head count 3 must divide width 64"),
    ({"adapter_layer": "5"}, "adapter_layer 5 outside"),
    ({"dropout_p": "1.0"}, "dropout_p 1.0 outside"),
    ({"d_ff": "0"}, "d_ff must be positive"),
    ({"h": "0"}, "h must be positive"),
])
def test_configs_from_mapping_errors(tmp_path, kv, match):
    with pytest.raises(ConfigError, match=match):
        configs_from_mapping(kv)
    # a config file holding the same keys fails the same way
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in kv.items()))
    with pytest.raises(ConfigError, match=match):
        load_config(path)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patience=10, max_epochs=5)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    # field types: an int field takes no float or bool, a float field no bool
    for kwargs in [{"batch_size": 8.0}, {"seed": True}, {"learning_rate": True}]:
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)
    assert TrainConfig(learning_rate=1).learning_rate == 1


# ---------------------------------------------------------------------------
# training loop

def _mini_corpus(n=24, seed=3):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "URL_RATE", 0.2)
        return generate_corpus(n_posts=n, seed=seed)


def test_train_memorizes_two_examples():
    posts = _mini_corpus(6)
    tc = dataclasses.replace(TINY_TC, max_epochs=150, patience=150,
                             learning_rate=2e-2, batch_size=2)
    res = train(posts[:2], posts[:2], None, dataclasses.replace(TINY_MC, use_descnet=False), tc)
    assert res.records[-1].train_loss < 1e-3
    # the BIO mask gives the inert entries a gradient of exactly 0, so 150
    # Adam steps leave them at their init value
    assert res.params.crf.transitions[2, 1] == 0.0  # O -> I
    assert res.params.crf.start_scores[1] == 0.0    # start -> I


def test_train_deterministic_given_seed(tmp_path):
    posts = _mini_corpus()
    tr, va, _ = split_corpus(posts)
    runs = []
    for _ in range(2):
        res = train(tr, va, synthetic_bank(), TINY_MC, TINY_TC)
        runs.append(res)
    a, b = runs
    assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
    assert [r.val_dsc for r in a.records] == [r.val_dsc for r in b.records]
    for (na, ta), (_nb, tb) in zip(named_arrays(a.params), named_arrays(b.params)):
        assert np.array_equal(ta, tb), na


def test_train_log_file_schema(tmp_path):
    posts = _mini_corpus()
    tr, va, _ = split_corpus(posts)
    log = tmp_path / "train.log"
    res = train(tr, va, synthetic_bank(), TINY_MC,
                dataclasses.replace(TINY_TC, max_epochs=2, patience=2), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == len(res.records) == 2
    for line, rec in zip(lines, res.records):
        doc = json.loads(line)
        # wall time lives on the in-memory record, not in the reproducible log
        assert sorted(doc) == ["epoch", "train_loss", "val_dsc", "val_f1"]
        assert doc["epoch"] == rec.epoch
        assert doc["train_loss"] == rec.train_loss
        assert math.isfinite(doc["train_loss"])
        assert rec.elapsed_s >= 0.0


def test_early_stopping_fires_after_exact_patience():
    # dice saturates at 1.0 quickly; afterwards "no improvement" epochs
    # accumulate and training stops at best_epoch + patience
    posts = generate_corpus(n_posts=60, seed=4)
    tr, va, _ = split_corpus(posts)
    tc = dataclasses.replace(TINY_TC, max_epochs=30, patience=3, learning_rate=1e-2)
    res = train(tr, va, synthetic_bank(), TINY_MC, tc)
    assert res.stopped_early
    assert len(res.records) == res.best_epoch + tc.patience
    assert res.best_val_dsc == max(r.val_dsc for r in res.records)


def test_train_keeps_best_dsc_checkpoint():
    posts = _mini_corpus()
    tr, va, _ = split_corpus(posts)
    res = train(tr, va, synthetic_bank(), TINY_MC, TINY_TC)
    best = max(res.records, key=lambda r: r.val_dsc)
    assert res.best_val_dsc == best.val_dsc
    assert res.best_epoch == min(r.epoch for r in res.records if r.val_dsc == best.val_dsc)


def test_train_returns_best_epoch_parameters(monkeypatch):
    # the parameters scored best, not the last epoch's, in a vector that
    # later epochs' steps do not write to
    tr, va, _ = split_corpus(_mini_corpus())
    scores, seen = iter([0.5, 0.9, 0.3, 0.2]), []

    def scripted(params, *args):
        seen.append(params.vector.copy())
        dsc = next(scores)
        return EvalReport(Scores(dsc, dsc, dsc), {}, dsc, None, 0, Scores(dsc, dsc, dsc))

    monkeypatch.setattr(training_mod, "evaluate_split", scripted)
    res = train(tr, va, synthetic_bank(), TINY_MC, dataclasses.replace(TINY_TC, patience=4))
    assert res.best_epoch == 2 and len(seen) == 4
    assert np.array_equal(res.params.vector, seen[1])
    assert not np.array_equal(res.params.vector, seen[-1])


def test_validation_scores_are_the_eval_report():
    # the logged validation F1 and dice of the best epoch are, bitwise, the
    # eval report's overall F1 and DSC of the returned parameters on the
    # validation split, a post that normalizes to no token scored too
    tr, va, _ = split_corpus(_mini_corpus())
    va = va + [AnnotatedPost("junk", "🙂 https://t.co/x")]
    res = train(tr, va, synthetic_bank(), TINY_MC, TINY_TC)
    mc = res.model_config
    val_ex = [post_to_example(post, res.vocab, mc) for post in va]
    assert val_ex[-1].token_ids == []
    bank = build_bank(res.bank_texts, res.vocab, res.params, mc)
    tags = predict_tags(res.params, mc, [ex.token_ids for ex in val_ex], bank)
    report = build_report(tags, [ex.gold_tags for ex in val_ex])
    assert report.n_posts == len(va)
    best = res.records[res.best_epoch - 1]
    assert best.val_f1.hex() == report.overall.f1.hex()
    assert best.val_dsc.hex() == res.best_val_dsc.hex() == report.dsc.hex()


def test_train_on_validation_posts_without_gold_spans():
    # validation scores tags only, so a split with no gold spans still trains
    tr, va, _ = split_corpus(_mini_corpus())
    bare = [AnnotatedPost(p.id, p.text) for p in va]
    tc = dataclasses.replace(TINY_TC, max_epochs=2, patience=2)
    res = train(tr, bare, synthetic_bank(), TINY_MC, tc)
    assert len(res.records) == 2
    assert all(0.0 <= r.val_f1 <= 1.0 and 0.0 <= r.val_dsc <= 1.0 for r in res.records)


def test_train_nan_aborts_with_diagnostic(monkeypatch):
    posts = _mini_corpus()
    tr, va, _ = split_corpus(posts)

    real = training_mod.sequence_loss
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        losses, rest = real(*args, **kwargs)
        if calls["n"] == 3:
            losses = losses.copy()
            losses[-1] = float("nan")
        return losses, rest

    monkeypatch.setattr(training_mod, "sequence_loss", poisoned)
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        train(tr, va, synthetic_bank(), TINY_MC, TINY_TC)


def test_train_applies_true_batch_gradient(monkeypatch):
    # The gradient handed to Adam on a later step of an epoch must be the
    # gradient of that batch's mean loss at that step's parameters, with the
    # description bank encoded from those same parameters.
    tr, va, _ = split_corpus(_mini_corpus(4 * MULTI_CHUNK_POSTS))
    tc = dataclasses.replace(TINY_TC, batch_size=MULTI_CHUNK_POSTS, max_epochs=1, patience=1,
                             learning_rate=2e-2)
    real_grads, real_adam = training_mod.batch_gradients, training_mod.adam_step
    batch, steps = [], []

    def recording_grads(params, config, examples, *args, **kwargs):
        batch[:] = examples
        return real_grads(params, config, examples, *args, **kwargs)

    def recording_adam(params, grads, *args, **kwargs):
        steps.append((_copy(params), _copy(grads), list(batch)))
        real_adam(params, grads, *args, **kwargs)

    monkeypatch.setattr(training_mod, "batch_gradients", recording_grads)
    monkeypatch.setattr(training_mod, "adam_step", recording_adam)
    res = train(tr, va, synthetic_bank(), TINY_MC, tc)
    # a later step whose batch holds several posts packed in two or more
    # chunks, so the bank gradient is summed across chunks
    multi = [step for step in steps[1:]
             if len(make_chunks([ex.token_ids for ex in step[2]])) >= 2]
    assert multi
    params, grads, examples = multi[-1]
    assert len(examples) > 2
    mc = res.model_config

    def mean_loss() -> float:
        # each example run alone, as a chunk of one
        bank = build_bank(synthetic_bank(), res.vocab, params, mc)
        return float(np.mean([sequence_loss(params, mc, ex.token_ids, ex.gold_tags, bank,
                                            Packing([len(ex.token_ids)]))[0][0]
                              for ex in examples]))

    # one central difference per tensor, along a random direction. The loss
    # is only piecewise smooth (CoDA's L1 distance, IGM's max-pool); at these
    # trained weights a difference step of 1e-5 along the token-embedding
    # direction crosses a kink, one of 1e-6 crosses none.
    rng = np.random.default_rng(0)
    step = 1e-6
    for (name, arr), (_n, g) in zip(named_arrays(params), named_arrays(grads)):
        direction = rng.normal(size=arr.shape)
        arr += step * direction
        up = mean_loss()
        arr -= 2 * step * direction
        down = mean_loss()
        arr += step * direction
        fd = (up - down) / (2 * step)
        analytic = float((g * direction).sum())
        assert abs(analytic - fd) <= 1e-5 * max(abs(analytic), abs(fd), 1e-3), name


def test_model_config_owns_adapter_switches():
    # A TrainConfig carries no adapter switches that could override these.
    tr, va, _ = split_corpus(_mini_corpus())
    mc = dataclasses.replace(TINY_MC, use_descnet=False, attention_variant="dpa")
    res = train(tr, va, None, mc, TrainConfig(adapter_layer=2, max_epochs=1, patience=1))
    assert res.model_config.use_descnet is False
    assert res.model_config.attention_variant == "dpa"
    assert res.params.descnet is None


def test_batch_gradients_runs_one_forward_recursion_per_example(monkeypatch):
    # nll_backward reuses the forward messages nll_loss computed
    tr, _va, _ = split_corpus(_mini_corpus())
    vocab = Vocabulary.build([p.text.split() for p in tr], TINY_MC.vocab_size)
    batch = training_mod.prepare_examples(tr[:5], vocab, TINY_MC)
    params = init_model_params(TINY_MC, len(vocab), len(synthetic_bank()),
                               np.random.default_rng(0))
    real, rows = crf_mod._forward_messages, []

    def counting(*args):
        msgs = real(*args)
        rows.append(len(msgs))
        return msgs

    monkeypatch.setattr(crf_mod, "_forward_messages", counting)
    bank = build_bank(synthetic_bank(), vocab, params, TINY_MC)
    training_mod.batch_gradients(params, TINY_MC, batch, bank)
    # the chunks' recursions cover every example exactly once
    assert sum(rows) == len(batch) == 5


def _ragged_batch():
    """Vocabulary and a batch of synthetic posts plus a one-token post and a
    post cut at max_len, spanning several packed chunks."""
    tr, _va, _ = split_corpus(_mini_corpus(4 * MULTI_CHUNK_POSTS))
    vocab = Vocabulary.build([p.text.lower().split() for p in tr], TINY_MC.vocab_size)
    words = " ".join(vocab.words[1:41])
    posts = tr[:MULTI_CHUNK_POSTS] + [
        AnnotatedPost("one", "garlic", [CharSpan(0, 6)]),
        AnnotatedPost("long", words, [CharSpan(0, len(vocab.words[1]))])]
    batch = [post_to_example(p, vocab, TINY_MC) for p in posts]
    lengths = [len(ex.token_ids) for ex in batch]
    assert min(lengths) == 1 and max(lengths) == TINY_MC.max_len
    assert len(make_chunks([ex.token_ids for ex in batch])) >= 2
    return vocab, batch


def test_batch_gradients_converts_each_chunks_tags_once(monkeypatch):
    # nll_loss converts a chunk's gold tags to ids and nll_backward reads
    # them from its cache
    vocab, batch = _ragged_batch()
    params = init_model_params(TINY_MC, len(vocab), len(synthetic_bank()),
                               np.random.default_rng(0))
    bank = build_bank(synthetic_bank(), vocab, params, TINY_MC)
    real, converted = crf_mod.tags_to_indices, []

    def counting(tags):
        converted.append(len(tags))
        return real(tags)

    monkeypatch.setattr(crf_mod, "tags_to_indices", counting)
    training_mod.batch_gradients(params, TINY_MC, batch, bank)
    chunks = make_chunks([ex.token_ids for ex in batch])
    assert converted == [chunk.packing.n_rows for chunk in chunks]


def _probe_params(vocab, seed, mc):
    """Weights of a model of config ``mc`` at O(1) scale, as in grad_check,
    so no backward formula hides behind a small gradient."""
    rng = np.random.default_rng(seed)
    params = init_model_params(mc, len(vocab), len(synthetic_bank()), rng)
    for name, arr in named_arrays(params):
        if name.endswith("_gain"):
            arr[...] = 1.0 + 0.2 * rng.normal(size=arr.shape)
        else:
            arr[...] = 0.3 * rng.normal(size=arr.shape)
    return params


# Without IGM every row's CoDA output reaches the loss, so a difference step
# on this batch crosses some of CoDA's L1 kinks at any usable step size; the
# no-IGM variant uses smooth dpa attention, and
# test_grad_check_passes_without_igm checks CoDA without IGM on grad_check's
# small probe. CoDA runs at four probe points, and once with dropout on. One
# case puts the adapter below TINY_MC's second block, as the layer sweep
# does, so the backward must run it between the two blocks.
@pytest.mark.parametrize("variant,seed", [
    ({"attention_variant": "coda"}, 1), ({"attention_variant": "coda"}, 2),
    ({"attention_variant": "coda"}, 3), ({"attention_variant": "coda"}, 4),
    ({"attention_variant": "coda", "dropout_p": 0.1}, 1),
    ({"attention_variant": "dpa"}, 1),
    ({"use_igm": False, "attention_variant": "dpa"}, 1), ({"use_descnet": False}, 1),
    ({"adapter_layer": 1}, 1)],
    ids=["coda", "coda-seed2", "coda-seed3", "coda-seed4", "coda-dropout", "dpa", "no_igm",
         "no_descnet", "adapter_layer1"])
def test_batch_gradients_match_fd_on_ragged_batch(variant, seed):
    # the packed batch step's gradient is the gradient of the batch's mean
    # loss, each example's loss taken alone. The loss is only piecewise
    # smooth (CoDA's L1 distance, IGM's max-pool), and a difference step can
    # cross a kink: a direction that misses at step 1e-5 is checked again at
    # 1e-6, and fails only if it misses there too.
    mc = dataclasses.replace(TINY_MC, **variant)
    vocab, batch = _ragged_batch()
    params = _probe_params(vocab, seed=seed, mc=mc)
    # With dropout on, the step draws its masks chunk by chunk from the
    # generator. The step and every loss below start a generator from one
    # saved state and run the same chunks, so all draw the same masks.
    saved = np.random.default_rng(seed).bit_generator.state

    def replay():
        if not mc.dropout_p:
            return None
        rng = np.random.default_rng()
        rng.bit_generator.state = saved
        return rng

    grads, losses = training_mod.batch_gradients(
        params, mc, batch, build_bank(synthetic_bank(), vocab, params, mc), replay())
    # every stored tensor can change the loss: none has a gradient that is 0,
    # or roundoff beside the largest tensor's
    peaks = {name: np.max(np.abs(g)) for name, g in named_arrays(grads)}
    top = max(peaks.values())
    assert not [name for name, peak in peaks.items() if peak <= 1e-8 * top]

    def mean_loss() -> float:
        bank = build_bank(synthetic_bank(), vocab, params, mc)
        rng = replay()
        if rng is None:
            return float(np.mean([sequence_loss(params, mc, ex.token_ids, ex.gold_tags, bank,
                                                Packing([len(ex.token_ids)]))[0][0]
                                  for ex in batch]))
        return float(np.mean(np.concatenate([
            sequence_loss(params, mc, chunk.token_ids,
                          [t for i in chunk.order for t in batch[i].gold_tags], bank,
                          chunk.packing, rng)[0]
            for chunk in make_chunks([ex.token_ids for ex in batch])])))

    assert np.mean(losses) == pytest.approx(mean_loss(), rel=1e-12)

    def central_difference(arr, direction, step) -> float:
        arr += step * direction
        up = mean_loss()
        arr -= 2 * step * direction
        down = mean_loss()
        arr += step * direction
        return (up - down) / (2 * step)

    def agrees(analytic, fd) -> bool:
        return abs(analytic - fd) <= 1e-5 * max(abs(analytic), abs(fd), 1e-3)

    rng = np.random.default_rng(1)
    for (name, arr), (_n, g) in zip(named_arrays(params), named_arrays(grads)):
        direction = rng.normal(size=arr.shape)
        analytic = float((g * direction).sum())
        if not agrees(analytic, central_difference(arr, direction, 1e-5)):
            fd = central_difference(arr, direction, 1e-6)
            assert agrees(analytic, fd), (name, analytic, fd)


@st.composite
def _ragged_sequences(draw):
    """Token ids and valid BIO tags of a batch holding lengths 1 and max_len
    and enough tokens for several chunks, and the index of one sequence."""
    top = TINY_MC.max_len
    # more tokens at max_len than one chunk holds
    lengths = ([1] + [top] * (_CHUNK_TOKENS // top + 1)
               + draw(st.lists(st.integers(1, top), max_size=4)))
    lengths = draw(st.permutations(lengths))
    seqs = []
    for n in lengths:
        ids = draw(st.lists(st.integers(0, 19), min_size=n, max_size=n))
        tags = draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n))
        tags = ["B" if t == "I" and (i == 0 or tags[i - 1] == "O") else t
                for i, t in enumerate(tags)]
        seqs.append((ids, tags))
    return seqs, draw(st.integers(0, len(seqs) - 1))


@settings(max_examples=15)
@given(case=_ragged_sequences())
def test_batch_invariance_of_loss_gradient_and_tags(case):
    seqs, pick = case
    vocab = Vocabulary.build([[f"w{i}" for i in range(19)] + synthetic_bank()], 64)
    params = _probe_params(vocab, seed=len(seqs), mc=TINY_MC)
    bank = build_bank(synthetic_bank(), vocab, params, TINY_MC)
    batch = [Example(f"s{i}", [], ids, tags, None) for i, (ids, tags) in enumerate(seqs)]
    assert len(make_chunks([ex.token_ids for ex in batch])) >= 2

    def summed(examples):
        grads, losses = training_mod.batch_gradients(params, TINY_MC, examples, bank)
        return dict(named_arrays(grads)), losses, len(examples)

    alone, (alone_loss,), _ = summed([batch[pick]])
    full, losses, n_full = summed(batch)
    rest, _losses, n_rest = summed(batch[:pick] + batch[pick + 1:])
    assert abs(losses[pick] - alone_loss) <= 1e-12 * max(1.0, abs(alone_loss))
    for name, g in alone.items():
        contribution = full[name] * n_full - rest[name] * n_rest
        scale = max(1.0, float(np.max(np.abs(full[name] * n_full), initial=0.0)))
        assert np.max(np.abs(contribution - g), initial=0.0) <= 1e-12 * scale, name
    tags = predict_tags(params, TINY_MC, [ex.token_ids for ex in batch], bank)
    assert tags[pick] == predict_tags(params, TINY_MC, [batch[pick].token_ids], bank)[0]


def test_train_encodes_one_bank_per_set_of_weights(monkeypatch):
    # one bank before the first step and one after each Adam step; validation
    # reuses the bank of the epoch's last step. The bank texts are tokenized
    # once, since only the weights change between banks.
    tr, va, _ = split_corpus(_mini_corpus())
    tc = dataclasses.replace(TINY_TC, max_epochs=2, patience=2)
    real_bank, real_adam = model_mod.encode_description_bank, training_mod.adam_step
    real_ids = model_mod.bank_token_ids
    banks, steps, lookups = [], [], []

    def counting_bank(*args, **kwargs):
        banks.append(1)
        return real_bank(*args, **kwargs)

    def counting_ids(*args, **kwargs):
        lookups.append(1)
        return real_ids(*args, **kwargs)

    def counting_adam(*args, **kwargs):
        steps.append(1)
        real_adam(*args, **kwargs)

    monkeypatch.setattr(model_mod, "encode_description_bank", counting_bank)
    monkeypatch.setattr(model_mod, "bank_token_ids", counting_ids)
    monkeypatch.setattr(training_mod, "adam_step", counting_adam)
    res = train(tr, va, synthetic_bank(), TINY_MC, tc)
    assert len(res.records) == 2
    assert len(banks) == len(steps) + 1
    assert len(lookups) == 1


def test_train_normalizes_each_post_once(monkeypatch):
    # the vocabulary is built from the examples' tokens, not from a second
    # normalize-and-tokenize pass over the training posts
    tr, va, _ = split_corpus(_mini_corpus())
    tc = dataclasses.replace(TINY_TC, max_epochs=1, patience=1)
    real = preprocess.normalize_post
    calls = []

    def counting(post):
        calls.append(post.id)
        return real(post)

    # patch every module that holds the function, so a second pass in
    # training would be counted too
    for mod in (preprocess, model_mod, training_mod):
        if hasattr(mod, "normalize_post"):
            monkeypatch.setattr(mod, "normalize_post", counting)
    train(tr, va, synthetic_bank(), TINY_MC, tc)
    assert len(calls) == len(tr) + len(va)


def test_train_looks_up_each_text_once(monkeypatch):
    # one vocabulary lookup per training post, validation post and bank text:
    # the training examples are made without ids and looked up once the
    # vocabulary is built from their tokens
    tr, va, _ = split_corpus(_mini_corpus())
    bank = synthetic_bank()
    tc = dataclasses.replace(TINY_TC, max_epochs=1, patience=1)
    real = model_mod.Vocabulary.ids
    calls = []

    def counting(self, surfaces):
        calls.append(len(surfaces))
        return real(self, surfaces)

    monkeypatch.setattr(model_mod.Vocabulary, "ids", counting)
    res = train(tr, va, bank, TINY_MC, tc)
    assert len(calls) == len(tr) + len(va) + len(bank)
    assert all(calls)
    # the ids are the real vocabulary's, as the model's inputs are
    ex = prepare_examples(tr[:1], res.vocab, TINY_MC)[0]
    assert ex.token_ids == res.vocab.ids(ex.tokens.surfaces)
    assert any(ex.token_ids)


def test_prepare_examples_without_vocabulary_keeps_the_same_posts():
    # a post is dropped only when no token survives, with or without ids
    posts = _mini_corpus()[:6] + [AnnotatedPost("junk", "🙂 https://t.co/x →→")]
    without = prepare_examples(posts, None, TINY_MC)
    with_ids = prepare_examples(posts, Vocabulary(["<unk>"]), TINY_MC)
    assert [ex.post_id for ex in without] == [ex.post_id for ex in with_ids] == [p.id for p in posts[:6]]
    assert all(ex.token_ids == [] for ex in without)
    assert [ex.tokens for ex in without] == [ex.tokens for ex in with_ids]


def test_prepare_examples_checks_no_spans(monkeypatch):
    # posts that exist were checked when they were built; making examples of
    # them, with normalization remapping some spans, checks none again
    monkeypatch.setattr(synthetic, "URL_RATE", 0.5)
    posts = generate_corpus(n_posts=40, seed=3)
    assert any("https://" in p.text for p in posts)
    calls = []
    real = preprocess.check_spans
    monkeypatch.setattr(preprocess, "check_spans", lambda *args: calls.append(1) or real(*args))
    examples = prepare_examples(posts, Vocabulary(["<unk>"]), TINY_MC)
    assert len(examples) == len(posts)
    assert calls == []


def test_train_validates_inputs():
    posts = _mini_corpus()
    with pytest.raises(ValueError):
        train([], posts, synthetic_bank(), TINY_MC, TINY_TC)
    with pytest.raises(ValueError):
        train(posts, posts, None, TINY_MC, TINY_TC)  # adapter on, no bank
    junk = [AnnotatedPost("junk", "🙂 https://t.co/x")]
    with pytest.raises(ValueError, match="no usable examples after preprocessing"):
        train(posts, junk, synthetic_bank(), TINY_MC, TINY_TC)


def test_train_rejects_a_bank_without_the_adapter():
    # the texts would be returned, and saved, with no adapter weights to use them
    posts = _mini_corpus()
    with pytest.raises(ValueError, match="description bank given, but the model has no adapter"):
        train(posts, posts, synthetic_bank(), dataclasses.replace(TINY_MC, use_descnet=False),
              TINY_TC)


# ---------------------------------------------------------------------------
# gradient checker

def test_grad_check_passes_default_instance(default_grad_check):
    # the probe post and each check-bank text are tokenized once, not once
    # per finite-difference evaluation
    report, calls, _elapsed = default_grad_check
    assert report.passed, f"max_rel_err {report.max_rel_err} at {report.parameter}"
    assert report.max_rel_err < 1e-4
    assert report.tolerance == 1e-4
    assert len(calls) <= 1 + len(training_mod._CHECK_BANK)


def test_grad_check_passes_without_igm():
    # CoDA without the gating mechanism, which the ragged-batch check runs
    # with dpa only; the model stores no gate tensors, and each it stores
    # has a gradient
    report = grad_check(dataclasses.replace(TINY_MC, use_igm=False))
    assert report.passed, f"max_rel_err {report.max_rel_err} at {report.parameter}"
    assert not [name for name in report.per_tensor
                if name.split(".")[1] in ("conflict", "refine", "w_a", "b_a")]


def test_grad_check_catches_sabotage(monkeypatch):
    real = training_mod.batch_gradients

    def sabotaged(*args, **kwargs):
        grads, losses = real(*args, **kwargs)
        grads.descnet.w_proj.flat[0] += 1.0
        return grads, losses

    monkeypatch.setattr(training_mod, "batch_gradients", sabotaged)
    report = grad_check()
    assert not report.passed
    assert report.parameter == "descnet.w_proj"


def test_grad_check_covers_descnet_tensors(default_grad_check):
    names = set(default_grad_check.report.per_tensor)
    assert any(n.startswith("descnet.") for n in names)
    assert any(n.startswith("encoder.") for n in names)
    assert any(n.startswith("crf.") for n in names)


# ---------------------------------------------------------------------------
# layer sweep

def test_layer_sweep_rows():
    posts = generate_corpus(n_posts=40, seed=6)
    tr, va, _ = split_corpus(posts)
    tc = dataclasses.replace(TINY_TC, max_epochs=2, patience=2)
    rows = layer_sweep(tr, va, synthetic_bank(), TINY_MC, tc, [1, 2])
    assert [r["layer"] for r in rows] == [1, 2]
    for row in rows:
        assert 0.0 <= row["f1"] <= 1.0
        assert 0.0 <= row["dsc"] <= 1.0
        # each row is the validation score train recorded for the parameters it returns
        res = train(tr, va, synthetic_bank(), TINY_MC,
                    dataclasses.replace(tc, adapter_layer=row["layer"]))
        assert row == {"layer": row["layer"], "f1": res.records[res.best_epoch - 1].val_f1,
                       "dsc": res.best_val_dsc}
    with pytest.raises(ValueError):
        layer_sweep(tr, va, synthetic_bank(), TINY_MC, tc, [99])


def test_layer_sweep_checks_every_layer_before_training(monkeypatch):
    monkeypatch.setattr(training_mod, "train", lambda *args: pytest.fail("trained"))
    posts = generate_corpus(n_posts=20, seed=6)
    for layers, message in [([1, 2, 9], "adapter layer 9 outside [1, 2]"),
                            ([2, 1, 2], "layers must be distinct, got [2, 1, 2]"),
                            ([], "no layers to sweep")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            layer_sweep(posts, posts, synthetic_bank(), TINY_MC, TINY_TC, layers)


def test_layer_sweep_rejects_a_model_without_the_adapter(monkeypatch):
    # without the adapter every layer trains the same model
    monkeypatch.setattr(training_mod, "train", lambda *args: pytest.fail("trained"))
    posts = generate_corpus(n_posts=20, seed=6)
    with pytest.raises(ValueError, match="layer sweep needs the adapter"):
        layer_sweep(posts, posts, synthetic_bank(), dataclasses.replace(TINY_MC, use_descnet=False),
                    TINY_TC, [1, 2])

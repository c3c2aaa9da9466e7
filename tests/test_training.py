import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimspan.crf as crf_mod
import claimspan.training as training_mod
from claimspan.crf import FORBIDDEN_SCORE
from claimspan.encoder import ModelConfig
from claimspan.crf import INDEX_TAG
from claimspan.model import (
    Example,
    Vocabulary,
    build_bank,
    init_model_params,
    post_to_example,
    predict_sequences,
    predict_tags,
    sequence_loss,
)
from claimspan.numerics import copy_struct, named_arrays, zeros_like_struct
from claimspan.packing import make_chunks
from claimspan.preprocess import AnnotatedPost, CharSpan
from claimspan.synthetic import generate_corpus, split_corpus, synthetic_bank
from claimspan.training import (
    AdamState,
    ConfigError,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    configs_from_mapping,
    crf_freeze_masks,
    grad_check,
    layer_sweep,
    parse_config_text,
    train,
)

TINY_MC = ModelConfig(d=16, h=2, d_ff=32, layers=2, max_len=32, vocab_size=128,
                      dropout_p=0.0, adapter_layer=2)
TINY_TC = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=4, patience=3,
                      seed=1, adapter_layer=2)


# ---------------------------------------------------------------------------
# Adam

def _scalar_params(value=1.0):
    rng = np.random.default_rng(0)
    p = init_model_params(TINY_MC, 10, 2, rng)
    return p


def test_adam_first_step_hand_value():
    # one parameter tree, every gradient 1: after one step each free entry
    # moves by exactly lr / (1 + eps)
    params = _scalar_params()
    before = copy_struct(params)
    grads = zeros_like_struct(params)
    for _name, arr in named_arrays(grads):
        arr[...] = 1.0
    state = AdamState()
    lr = 0.1
    adam_step(params, grads, state, lr, crf_freeze_masks())
    expected = lr / (1.0 + 1e-8)
    for (name, b), (_n, a) in zip(named_arrays(before), named_arrays(params)):
        delta = b - a
        if name == "crf.transitions":
            assert delta[2, 1] == 0.0
            check = np.delete(delta.ravel(), 2 * 3 + 1)
            assert np.allclose(check, expected, atol=1e-12)
        elif name == "crf.start_scores":
            assert delta[1] == 0.0
        else:
            assert np.allclose(delta, expected, atol=1e-12), name
    assert state.step == 1


def test_adam_zero_gradient_leaves_params():
    params = _scalar_params()
    before = copy_struct(params)
    state = AdamState()
    adam_step(params, zeros_like_struct(params), state, 0.5)
    for (_na, b), (_nb, a) in zip(named_arrays(before), named_arrays(params)):
        assert np.array_equal(b, a)
    assert state.step == 1


def test_adam_lr_zero_is_identity():
    params = _scalar_params()
    before = copy_struct(params)
    grads = zeros_like_struct(params)
    for _name, arr in named_arrays(grads):
        arr[...] = 3.0
    adam_step(params, grads, AdamState(), 0.0)
    for (_na, b), (_nb, a) in zip(named_arrays(before), named_arrays(params)):
        assert np.array_equal(b, a)


def test_adam_constant_gradient_update_approaches_lr():
    params = _scalar_params()
    grads = zeros_like_struct(params)
    for _name, arr in named_arrays(grads):
        arr[...] = 0.37
    state = AdamState()
    lr = 0.01
    prev = copy_struct(params)
    for _ in range(300):
        prev = copy_struct(params)
        adam_step(params, grads, state, lr)
    last_delta = prev.encoder.token_embedding - params.encoder.token_embedding
    assert np.allclose(last_delta, lr, rtol=1e-3)


def test_pinned_entries_survive_many_steps():
    params = _scalar_params()
    rng = np.random.default_rng(1)
    state = AdamState()
    freeze = crf_freeze_masks()
    for _ in range(20):
        grads = zeros_like_struct(params)
        for _name, arr in named_arrays(grads):
            arr[...] = rng.normal(size=arr.shape)
        adam_step(params, grads, state, 0.05, freeze)
    assert params.crf.transitions[2, 1] == FORBIDDEN_SCORE
    assert params.crf.start_scores[1] == FORBIDDEN_SCORE


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
])
def test_configs_from_mapping_errors(kv, match):
    with pytest.raises(ConfigError, match=match):
        configs_from_mapping(kv)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patience=10, max_epochs=5)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


# ---------------------------------------------------------------------------
# training loop

def _mini_corpus(n=24, seed=3):
    return generate_corpus(n_posts=n, seed=seed, url_rate=0.2)


def test_train_memorizes_two_examples():
    posts = _mini_corpus(6)
    tc = dataclasses.replace(TINY_TC, max_epochs=150, patience=150,
                             learning_rate=2e-2, batch_size=2)
    res = train(posts[:2], posts[:2], None, dataclasses.replace(TINY_MC, use_descnet=False), tc)
    assert res.records[-1].train_loss < 1e-3


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
    tr, va, _ = split_corpus(_mini_corpus())
    tc = dataclasses.replace(TINY_TC, batch_size=6, max_epochs=1, patience=1,
                             learning_rate=2e-2)
    real_grads, real_adam = training_mod.batch_gradients, training_mod.adam_step
    batch, steps = [], []

    def recording_grads(params, config, examples, *args, **kwargs):
        batch[:] = examples
        return real_grads(params, config, examples, *args, **kwargs)

    def recording_adam(params, grads, *args, **kwargs):
        steps.append((copy_struct(params), copy_struct(grads), list(batch)))
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
        return float(np.mean([sequence_loss(params, mc, ex.token_ids, ex.gold_tags, bank)[0][0]
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
        alpha, log_z = real(*args)
        rows.append(len(log_z))
        return alpha, log_z

    monkeypatch.setattr(crf_mod, "_forward_messages", counting)
    bank = build_bank(synthetic_bank(), vocab, params, TINY_MC)
    training_mod.batch_gradients(params, TINY_MC, batch, bank)
    # the chunks' recursions cover every example exactly once
    assert sum(rows) == len(batch) == 5


def _ragged_batch():
    """Vocabulary and a batch of synthetic posts plus a one-token post and a
    post cut at max_len, spanning several packed chunks."""
    tr, _va, _ = split_corpus(_mini_corpus())
    vocab = Vocabulary.build([p.text.lower().split() for p in tr], TINY_MC.vocab_size)
    words = " ".join(vocab.words[1:41])
    posts = tr[:6] + [AnnotatedPost("one", "garlic", [CharSpan(0, 6)]),
                      AnnotatedPost("long", words, [CharSpan(0, len(vocab.words[1]))])]
    batch = [post_to_example(p, vocab, TINY_MC) for p in posts]
    lengths = [len(ex.token_ids) for ex in batch]
    assert min(lengths) == 1 and max(lengths) == TINY_MC.max_len
    assert len(make_chunks([ex.token_ids for ex in batch])) >= 2
    return vocab, batch


def _probe_params(vocab, seed):
    """Weights at O(1) scale, as in grad_check, so no backward formula hides
    behind a small gradient."""
    rng = np.random.default_rng(seed)
    params = init_model_params(TINY_MC, len(vocab), len(synthetic_bank()), rng)
    for name, arr in named_arrays(params):
        if name.endswith("_gain"):
            arr[...] = 1.0 + 0.2 * rng.normal(size=arr.shape)
        else:
            arr[...] = 0.3 * rng.normal(size=arr.shape)
    crf_mod.pin_forbidden(params.crf)
    return params


@pytest.mark.parametrize("variant", ["coda", "dpa"])
def test_batch_gradients_match_fd_on_ragged_batch(variant):
    # the packed batch step's gradient is the gradient of the batch's mean
    # loss, each example's loss taken alone. The loss is only piecewise
    # smooth (CoDA's L1 distance, IGM's max-pool); as in grad_check, the
    # probe point is fixed, and no difference step from it crosses a kink.
    mc = dataclasses.replace(TINY_MC, attention_variant=variant)
    vocab, batch = _ragged_batch()
    params = _probe_params(vocab, seed=1)
    grads, losses = training_mod.batch_gradients(
        params, mc, batch, build_bank(synthetic_bank(), vocab, params, mc))

    def mean_loss() -> float:
        bank = build_bank(synthetic_bank(), vocab, params, mc)
        return float(np.mean([sequence_loss(params, mc, ex.token_ids, ex.gold_tags,
                                            bank)[0][0] for ex in batch]))

    assert np.mean(losses) == pytest.approx(mean_loss(), rel=1e-12)
    rng = np.random.default_rng(1)
    step = 1e-5
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


@st.composite
def _ragged_sequences(draw):
    """Token ids and valid BIO tags of a batch holding lengths 1 and max_len
    and enough tokens for several chunks, and the index of one sequence."""
    top = TINY_MC.max_len
    lengths = [1, top, top, top] + draw(st.lists(st.integers(1, top), max_size=4))
    lengths = draw(st.permutations(lengths))
    seqs = []
    for n in lengths:
        ids = draw(st.lists(st.integers(0, 19), min_size=n, max_size=n))
        tags = draw(st.lists(st.sampled_from(INDEX_TAG), min_size=n, max_size=n))
        tags = ["B" if t == "I" and (i == 0 or tags[i - 1] == "O") else t
                for i, t in enumerate(tags)]
        seqs.append((ids, tags))
    return seqs, draw(st.integers(0, len(seqs) - 1))


@settings(max_examples=15)
@given(case=_ragged_sequences())
def test_batch_invariance_of_loss_gradient_and_tags(case):
    seqs, pick = case
    vocab = Vocabulary.build([[f"w{i}" for i in range(19)] + synthetic_bank()], 64)
    params = _probe_params(vocab, seed=len(seqs))
    bank = build_bank(synthetic_bank(), vocab, params, TINY_MC)
    batch = [Example(f"s{i}", [], ids, tags, None, "") for i, (ids, tags) in enumerate(seqs)]
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
    tags = predict_sequences(params, TINY_MC, [ex.token_ids for ex in batch], bank)
    assert tags[pick] == predict_tags(params, TINY_MC, batch[pick].token_ids, bank)


def test_train_encodes_one_bank_per_set_of_weights(monkeypatch):
    # one bank before the first step and one after each Adam step; validation
    # reuses the bank of the epoch's last step
    tr, va, _ = split_corpus(_mini_corpus())
    tc = dataclasses.replace(TINY_TC, max_epochs=2, patience=2)
    real_bank, real_adam = training_mod.build_bank, training_mod.adam_step
    banks, steps = [], []

    def counting_bank(*args, **kwargs):
        banks.append(1)
        return real_bank(*args, **kwargs)

    def counting_adam(*args, **kwargs):
        steps.append(1)
        real_adam(*args, **kwargs)

    monkeypatch.setattr(training_mod, "build_bank", counting_bank)
    monkeypatch.setattr(training_mod, "adam_step", counting_adam)
    res = train(tr, va, synthetic_bank(), TINY_MC, tc)
    assert len(res.records) == 2
    assert len(banks) == len(steps) + 1


def test_train_validates_inputs():
    posts = _mini_corpus()
    with pytest.raises(ValueError):
        train([], posts, synthetic_bank(), TINY_MC, TINY_TC)
    with pytest.raises(ValueError):
        train(posts, posts, None, TINY_MC, TINY_TC)  # adapter on, no bank


# ---------------------------------------------------------------------------
# gradient checker

def test_grad_check_passes_default_instance():
    report = grad_check()
    assert report.passed, f"max_rel_err {report.max_rel_err} at {report.parameter}"
    assert report.max_rel_err < 1e-4


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


def test_grad_check_covers_descnet_tensors():
    report = grad_check()
    names = set(report.per_tensor)
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

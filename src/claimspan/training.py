"""Training loop, Adam optimizer, config-file parsing, gradient checker, and
the adapter-placement sweep.

Everything is driven by one seeded generator so a (seed, config, data) triple
reproduces the run bitwise: init, shuffling, and dropout all draw from it in a
fixed order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .crf import forbidden_masks, pin_forbidden
from .descnet import DescriptionBank, bank_backward
from .encoder import ModelConfig
from .metrics import inspan_indices, mean_dice, overall_prf
from .model import (
    Example,
    ModelParams,
    Vocabulary,
    build_bank,
    init_model_params,
    post_to_example,
    predict_sequences,
    sequence_backward,
    sequence_loss,
)
from .numerics import copy_struct, named_arrays, zeros_like_struct
from .packing import make_chunks
from .preprocess import AnnotatedPost, CharSpan, normalize_post, tokenize


class ConfigError(ValueError):
    """A config file or config value is invalid."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries where it happened."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    adapter_layer: int = 4

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "patience", "adapter_layer"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.patience > self.max_epochs:
            raise ConfigError(f"patience {self.patience} exceeds max_epochs {self.max_epochs}")


# ---------------------------------------------------------------------------
# key=value config files

def _coerce(name: str, raw: str, typ):
    if typ is bool:
        low = raw.lower()
        if low not in ("true", "false"):
            raise ConfigError(f"{name}: expected true/false, got {raw!r}")
        return low == "true"
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    """Lines of ``key = value``; '#' comments and blank lines ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def configs_from_mapping(kv: dict[str, str]) -> tuple[ModelConfig, TrainConfig]:
    """Build both configs from one flat namespace; shared keys feed both."""
    model_fields = {f.name: f.type for f in fields(ModelConfig)}
    train_fields = {f.name: f.type for f in fields(TrainConfig)}
    types = {"int": int, "float": float, "bool": bool, "str": str}
    model_kwargs, train_kwargs = {}, {}
    for key, raw in kv.items():
        hit = False
        if key in model_fields:
            model_kwargs[key] = _coerce(key, raw, types[model_fields[key]])
            hit = True
        if key in train_fields:
            train_kwargs[key] = _coerce(key, raw, types[train_fields[key]])
            hit = True
        if not hit:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> tuple[ModelConfig, TrainConfig]:
    with open(path, encoding="utf-8") as fh:
        return configs_from_mapping(parse_config_text(fh.read()))


def effective_model_config(mc: ModelConfig, tc: TrainConfig) -> ModelConfig:
    """TrainConfig's ``adapter_layer`` and ``seed`` win over ModelConfig's."""
    return replace(mc, adapter_layer=tc.adapter_layer, seed=tc.seed)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def crf_freeze_masks() -> dict[str, np.ndarray]:
    """Boolean masks (True = frozen) for the pinned CRF entries."""
    trans_mask, start_mask = forbidden_masks()
    return {"crf.transitions": trans_mask, "crf.start_scores": start_mask}


def adam_step(params, grads, state: AdamState, lr: float,
              freeze: dict[str, np.ndarray] | None = None) -> None:
    """Bias-corrected Adam update, in place, in canonical parameter order.

    ``freeze`` maps parameter names to boolean masks whose True entries are
    left untouched (used for the pinned CRF transitions).
    """
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    for (name, p), (gname, g) in zip(named_arrays(params), named_arrays(grads)):
        assert name == gname
        if freeze and name in freeze:
            g = np.where(freeze[name], 0.0, g)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        if freeze and name in freeze:
            update = np.where(freeze[name], 0.0, update)
        p -= update


# ---------------------------------------------------------------------------
# Training

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_f1: float
    val_dsc: float
    elapsed_s: float

    def to_json(self) -> str:
        # The log file must be byte-identical across reruns of the same
        # (seed, config, data); wall-clock timing stays on the in-memory
        # record only.
        return json.dumps({"epoch": self.epoch, "train_loss": self.train_loss,
                           "val_f1": self.val_f1, "val_dsc": self.val_dsc})


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    model_config: ModelConfig
    bank_texts: list[str] | None
    records: list[EpochRecord]
    best_epoch: int
    best_val_dsc: float
    stopped_early: bool


def _token_surfaces(post: AnnotatedPost, max_len: int) -> list[str]:
    norm, _omap, _dropped = normalize_post(post)
    return [t.surface for t in tokenize(norm.text)[:max_len]]


def prepare_examples(corpus: list[AnnotatedPost], vocab: Vocabulary,
                     config: ModelConfig) -> list[Example]:
    """Posts as model inputs; posts with no surviving tokens are dropped."""
    out = []
    for post in corpus:
        ex = post_to_example(post, vocab, config)
        if ex.token_ids:
            out.append(ex)
    return out


def _scale_grads(grads, factor: float) -> None:
    for _name, arr in named_arrays(grads):
        arr *= factor


def batch_gradients(params: ModelParams, config: ModelConfig, batch: list[Example],
                    bank: DescriptionBank | None, rng=None,
                    train=False) -> tuple[ModelParams, list[float]]:
    """Gradient of the batch's mean loss at the current parameters, and each
    example's loss.

    ``bank`` must be encoded from the current weights (``build_bank``; None
    for a model without the adapter). The whole batch shares it, and it is
    back-propagated once with the summed gradient of its keys. The
    examples run in packed chunks, each chunk's forward and backward pass
    before the next, so only one chunk's caches are alive at a time. This is
    the only place a gradient is computed: ``train`` calls it once per Adam
    step and ``grad_check`` on a batch of one.
    """
    grads = zeros_like_struct(params)
    d_bank = np.zeros_like(bank.keys) if bank is not None else None
    losses = np.empty(len(batch))
    for chunk in make_chunks([ex.token_ids for ex in batch]):
        tags = [t for i in chunk.order for t in batch[i].gold_tags]
        chunk_losses, (e, cache) = sequence_loss(params, config, chunk.token_ids, tags, bank,
                                                 rng, train, chunk.packing)
        for i, loss in zip(chunk.order, chunk_losses):
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at post {batch[i].post_id}")
            losses[i] = loss
        sequence_backward(params, config, tags, e, cache, grads, d_bank)
    if bank is not None:
        bank_backward(d_bank, bank, params.descnet.description_encoder, config,
                      grads.descnet.description_encoder, grads.encoder)
    _scale_grads(grads, 1.0 / len(batch))
    return grads, losses.tolist()


def evaluate_split(params: ModelParams, config: ModelConfig, examples: list[Example],
                   bank: DescriptionBank | None) -> tuple[float, float, float, float]:
    """Returns (precision, recall, f1, dice) over in-span token sets."""
    tags = predict_sequences(params, config, [ex.token_ids for ex in examples], bank)
    golds = [inspan_indices(ex.gold_tags) for ex in examples]
    preds = [inspan_indices(t) for t in tags]
    scores = overall_prf(preds, golds)
    return scores.p, scores.r, scores.f1, mean_dice(preds, golds)


def train(corpus_train: list[AnnotatedPost], corpus_val: list[AnnotatedPost],
          bank_texts: list[str] | None, model_config: ModelConfig,
          train_config: TrainConfig, log_path=None) -> TrainResult:
    """Adam training with early stopping on validation dice.

    Keeps the parameters from the epoch with the best validation dice; stops
    once that score has failed to improve for ``patience`` consecutive epochs.
    """
    if not corpus_train or not corpus_val:
        raise ValueError("training and validation corpora must be non-empty")
    mc = effective_model_config(model_config, train_config)
    tc = train_config
    if mc.use_descnet and not bank_texts:
        raise ValueError("adapter enabled but no description bank given")

    rng = np.random.default_rng(tc.seed)
    surfaces = [_token_surfaces(p, mc.max_len) for p in corpus_train]
    vocab = Vocabulary.build(surfaces, mc.vocab_size)
    train_ex = prepare_examples(corpus_train, vocab, mc)
    val_ex = prepare_examples(corpus_val, vocab, mc)
    if not train_ex or not val_ex:
        raise ValueError("no usable examples after preprocessing")

    params = init_model_params(mc, len(vocab), len(bank_texts) if bank_texts else 1, rng)
    state = AdamState()
    freeze = crf_freeze_masks()

    # One bank per set of weights: encoded before the first step and after
    # each Adam step, so validation reuses the bank of the epoch's last step.
    bank = build_bank(bank_texts, vocab, params, mc)
    records: list[EpochRecord] = []
    best_params = copy_struct(params)
    best_dsc = -math.inf
    best_epoch = 0
    bad_epochs = 0
    stopped_early = False
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, tc.max_epochs + 1):
            tic = time.perf_counter()
            order = rng.permutation(len(train_ex))
            losses = []
            for lo in range(0, len(order), tc.batch_size):
                batch = [train_ex[i] for i in order[lo:lo + tc.batch_size]]
                try:
                    grads, batch_losses = batch_gradients(params, mc, batch, bank, rng,
                                                          train=True)
                except TrainingDiverged as exc:
                    raise TrainingDiverged(f"{exc}, epoch {epoch}") from exc
                losses += batch_losses
                adam_step(params, grads, state, tc.learning_rate, freeze)
                bank = build_bank(bank_texts, vocab, params, mc)

            _p, _r, val_f1, val_dsc = evaluate_split(params, mc, val_ex, bank)
            rec = EpochRecord(epoch, float(np.mean(losses)), val_f1, val_dsc,
                              time.perf_counter() - tic)
            records.append(rec)
            if log_fh:
                log_fh.write(rec.to_json() + "\n")
                log_fh.flush()

            if val_dsc > best_dsc:
                best_dsc = val_dsc
                best_epoch = epoch
                best_params = copy_struct(params)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= tc.patience:
                    stopped_early = True
                    break
    finally:
        if log_fh:
            log_fh.close()

    return TrainResult(best_params, vocab, mc, list(bank_texts) if bank_texts else None,
                       records, best_epoch, best_dsc, stopped_early)


# ---------------------------------------------------------------------------
# Gradient checker

@dataclass
class GradCheckReport:
    max_rel_err: float
    parameter: str
    tolerance: float
    per_tensor: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


_CHECK_BANK = ["claims with numbers or statistics", "negation of a false claim"]


def grad_check(model_config: ModelConfig | None = None,
               train_config: TrainConfig | None = None,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare the training batch step's gradient on a batch of one against
    central finite differences of the sequence loss on a small instance.

    The probe model's sizes are fixed; ``model_config`` supplies only its
    switches (``use_descnet``, ``attention_variant``, ``use_igm``, ...).
    """
    tc = train_config or TrainConfig(adapter_layer=2)
    mc = replace(model_config or ModelConfig(), d=8, h=2, d_ff=16, layers=2, max_len=16,
                 vocab_size=64, dropout_p=0.0, adapter_layer=min(tc.adapter_layer, 2),
                 seed=tc.seed)
    rng = np.random.default_rng(mc.seed)

    words = [f"w{i}" for i in range(30)] + ["claims", "numbers", "statistics",
                                            "negation", "false", "claim", "with", "or", "of", "a"]
    vocab = Vocabulary.build([words], mc.vocab_size)
    # a five-word probe post whose words 2-4 are the claim span (tags O B I I O)
    picks = [vocab.words[i] for i in rng.integers(1, len(vocab), size=5)]
    span_start = len(picks[0]) + 1
    span = CharSpan(span_start, span_start + len(" ".join(picks[1:4])))
    probe = post_to_example(AnnotatedPost("probe", " ".join(picks), [span]), vocab, mc)

    params = init_model_params(mc, len(vocab), len(_CHECK_BANK), rng)
    # The production 0.02-std init leaves deep-tensor gradients near the
    # finite-difference noise floor; redraw the probe instance at O(1) scale
    # so every backward formula faces gradients it cannot hide behind.
    for name, arr in named_arrays(params):
        if name.endswith("ln1_gain") or name.endswith("ln2_gain"):
            arr[...] = 1.0 + 0.2 * rng.normal(size=arr.shape)
        else:
            arr[...] = 0.5 * rng.normal(size=arr.shape)
    pin_forbidden(params.crf)

    def loss_at(p: ModelParams) -> float:
        bank = build_bank(_CHECK_BANK, vocab, p, mc)
        return float(sequence_loss(p, mc, probe.token_ids, probe.gold_tags, bank)[0][0])

    bank = build_bank(_CHECK_BANK, vocab, params, mc)
    grads, _losses = batch_gradients(params, mc, [probe], bank)

    step = 1e-5
    # Softmax attention is invariant to key biases (a uniform logit shift per
    # row), so d/d(b_k) is exactly zero and only finite-difference noise
    # remains there; the floor keeps that degenerate direction from being
    # compared at noise scale. Every live tensor here has gradient norm well
    # above it.
    floor = 1e-4
    per_tensor: dict[str, float] = {}
    worst = (0.0, "")
    grad_map = dict(named_arrays(grads))
    for name, arr in named_arrays(params):
        analytic = grad_map[name]
        fd = np.zeros_like(arr)
        flat = arr.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_at(params)
            flat[i] = orig - step
            down = loss_at(params)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * step)
        scale = max(np.max(np.abs(analytic), initial=0.0),
                    np.max(np.abs(fd), initial=0.0), floor)
        err = float(np.max(np.abs(analytic - fd), initial=0.0) / scale)
        per_tensor[name] = err
        if err > worst[0]:
            worst = (err, name)
    return GradCheckReport(worst[0], worst[1], tolerance, per_tensor)


# ---------------------------------------------------------------------------
# Adapter placement sweep

def layer_sweep(corpus_train: list[AnnotatedPost], corpus_val: list[AnnotatedPost],
                bank_texts: list[str], model_config: ModelConfig,
                train_config: TrainConfig, layers: list[int]) -> list[dict]:
    """Train one model per insertion layer; same seed and data throughout."""
    if not layers:
        raise ValueError("no layers to sweep")
    rows = []
    for layer in layers:
        if not 1 <= layer <= model_config.layers:
            raise ValueError(f"adapter layer {layer} outside [1, {model_config.layers}]")
        tc = replace(train_config, adapter_layer=layer)
        result = train(corpus_train, corpus_val, bank_texts, model_config, tc)
        # train already scored the parameters it returns on the same split
        rows.append({"layer": layer, "f1": result.records[result.best_epoch - 1].val_f1,
                     "dsc": result.best_val_dsc})
    return rows

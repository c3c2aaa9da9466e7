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
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .descnet import DescriptionBank, bank_backward
from .encoder import CONFIG_TYPES, ModelConfig, check_field_types
from .metrics import EvalReport, build_report
from .model import (
    Example,
    ModelParams,
    Vocabulary,
    bank_encoder,
    init_model_params,
    post_to_example,
    predict_tags,
    sequence_backward,
    sequence_loss,
)
from .numerics import flat_views, named_arrays
from .packing import make_chunks
from .preprocess import AnnotatedPost, CharSpan, decode_bio


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
        check_field_types(self)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
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
    model_kwargs, train_kwargs = {}, {}
    for key, raw in kv.items():
        if key not in model_fields and key not in train_fields:
            raise ConfigError(f"unknown config key {key!r}")
        for known, kwargs in ((model_fields, model_kwargs), (train_fields, train_kwargs)):
            if key in known:
                kwargs[key] = _coerce(key, raw, CONFIG_TYPES[known[key]])
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

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam's step count and moment vectors over a model's parameter vector,
    and two scratch vectors for the update."""

    def __init__(self, params: ModelParams):
        self.step = 0
        self.m, self.v, *self.scratch = (np.zeros(params.vector.size) for _ in range(4))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update of ``params.vector`` in place, with the
    floating-point operations of a per-tensor update; ``grads`` is left
    unchanged. Every entry is updated alike: the CRF's two inert entries,
    under the BIO mask, have a gradient of exactly 0, so their moments and
    updates stay 0."""
    state.step += 1
    g, (a, b), m, v = grads.vector, state.scratch, state.m, state.v
    np.multiply(g, 1.0 - BETA1, out=a)
    np.multiply(g, 1.0 - BETA2, out=b)
    b *= g
    m *= BETA1
    m += a
    v *= BETA2
    v += b
    # lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - BETA1 ** state.step, out=a)
    np.divide(v, 1.0 - BETA2 ** state.step, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a *= lr
    a /= b
    params.vector -= a


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


def prepare_examples(corpus: list[AnnotatedPost], vocab: Vocabulary | None,
                     config: ModelConfig) -> list[Example]:
    """Posts as training inputs; posts with no surviving tokens are dropped.
    With ``vocab`` None the token ids are left empty (see ``post_to_example``)."""
    out = []
    for post in corpus:
        ex = post_to_example(post, vocab, config)
        if ex.tokens.surfaces:
            out.append(ex)
    return out


def batch_gradients(params: ModelParams, config: ModelConfig, batch: list[Example],
                    bank: DescriptionBank | None, rng=None,
                    grads: ModelParams | None = None) -> tuple[ModelParams, list[float]]:
    """Gradient of the batch's mean loss at the current parameters, written
    into ``grads`` (a ``flat_views(params)`` tree; a new one when None), and
    each example's loss; dropout is on when ``rng`` is given.

    ``bank`` must be encoded from the current weights (``build_bank``; None
    for a model without the adapter). The whole batch shares it, and it is
    back-propagated once with the summed gradient of its keys. The
    examples run in packed chunks, each chunk's forward and backward pass
    before the next, so only one chunk's caches are alive at a time. This is
    the only place a gradient is computed: ``train`` calls it once per Adam
    step and ``grad_check`` once on its probe batch.
    """
    grads = flat_views(params) if grads is None else grads
    grads.vector.fill(0.0)
    d_bank = np.zeros_like(bank.keys) if bank is not None else None
    losses = np.empty(len(batch))
    for chunk in make_chunks([ex.token_ids for ex in batch]):
        tags = [t for i in chunk.order for t in batch[i].gold_tags]
        chunk_losses, cache = sequence_loss(params, config, chunk.token_ids, tags, bank,
                                            chunk.packing, rng)
        for i, loss in zip(chunk.order, chunk_losses):
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} at post {batch[i].post_id}")
            losses[i] = loss
        sequence_backward(params, config, cache, grads, d_bank)
    if bank is not None:
        bank_backward(d_bank, bank, params.descnet.description_encoder, config,
                      grads.descnet.description_encoder, grads.encoder)
    grads.vector *= 1.0 / len(batch)
    return grads, losses.tolist()


def evaluate_split(params: ModelParams, config: ModelConfig, examples: list[Example],
                   bank: DescriptionBank | None,
                   gold_spans: list[list] | None = None) -> EvalReport:
    """The ``eval`` report of the model's tags for ``examples``: validation,
    ``eval`` and held-out scoring all go through here. Given each post's
    raw gold spans it also counts spans; without them, as on the validation
    split, the span-count ratio is None."""
    tags = predict_tags(params, config, [ex.token_ids for ex in examples], bank)
    pred_spans = None
    if gold_spans is not None:
        pred_spans = [decode_bio(ex.tokens, t) for ex, t in zip(examples, tags)]
    return build_report(tags, [ex.gold_tags for ex in examples], pred_spans, gold_spans)


def train(corpus_train: list[AnnotatedPost], corpus_val: list[AnnotatedPost],
          bank_texts: list[str] | None, model_config: ModelConfig,
          train_config: TrainConfig, log_path=None) -> TrainResult:
    """Adam training with early stopping on validation dice.

    Keeps the parameters from the epoch with the best validation dice; stops
    once that score has failed to improve for ``patience`` consecutive epochs,
    and reports ``stopped_early`` only when that leaves epochs unrun.
    """
    if not corpus_train or not corpus_val:
        raise ValueError("training and validation corpora must be non-empty")
    mc = effective_model_config(model_config, train_config)
    tc = train_config
    if mc.use_descnet and not bank_texts:
        raise ValueError("adapter enabled but no description bank given")
    if bank_texts and not mc.use_descnet:
        raise ValueError("description bank given, but the model has no adapter (use_descnet = false)")

    rng = np.random.default_rng(tc.seed)
    # Each post is tokenized once and its ids looked up once: the training
    # examples are made without ids, the vocabulary is built from their
    # tokens, and then their ids are looked up in it.
    train_ex = prepare_examples(corpus_train, None, mc)
    vocab = Vocabulary.build([ex.tokens.surfaces for ex in train_ex], mc.vocab_size)
    for ex in train_ex:
        ex.token_ids = vocab.ids(ex.tokens.surfaces)
    # every validation post is scored, as ``eval`` scores it, a post with no tokens too
    val_ex = [post_to_example(post, vocab, mc) for post in corpus_val]
    if not train_ex or not any(ex.token_ids for ex in val_ex):
        raise ValueError("no usable examples after preprocessing")

    params = init_model_params(mc, len(vocab), len(bank_texts) if bank_texts else 1, rng)
    grads = flat_views(params)
    state = AdamState(params)

    # One bank per set of weights: encoded before the first step and after
    # each Adam step, so validation reuses the bank of the epoch's last step.
    encode_bank = bank_encoder(bank_texts, vocab, params, mc)
    bank = encode_bank()
    records: list[EpochRecord] = []
    best_params = flat_views(params, params.vector.copy())
    best_epoch = 0
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log_fh:
        for epoch in range(1, tc.max_epochs + 1):
            tic = time.perf_counter()
            order = rng.permutation(len(train_ex))
            losses = []
            for lo in range(0, len(order), tc.batch_size):
                batch = [train_ex[i] for i in order[lo:lo + tc.batch_size]]
                try:
                    grads, batch_losses = batch_gradients(params, mc, batch, bank, rng,
                                                          grads=grads)
                except TrainingDiverged as exc:
                    raise TrainingDiverged(f"{exc}, epoch {epoch}") from exc
                losses += batch_losses
                adam_step(params, grads, state, tc.learning_rate)
                bank = encode_bank()

            report = evaluate_split(params, mc, val_ex, bank)
            rec = EpochRecord(epoch, float(np.mean(losses)), report.overall.f1, report.dsc,
                              time.perf_counter() - tic)
            records.append(rec)
            if log_fh:
                log_fh.write(rec.to_json() + "\n")
                log_fh.flush()

            if best_epoch == 0 or rec.val_dsc > records[best_epoch - 1].val_dsc:
                best_epoch = epoch
                best_params.vector[...] = params.vector
            elif epoch - best_epoch >= tc.patience:
                break

    return TrainResult(best_params, vocab, mc, list(bank_texts) if bank_texts else None,
                       records, best_epoch, records[best_epoch - 1].val_dsc,
                       len(records) < tc.max_epochs)


# ---------------------------------------------------------------------------
# Gradient checker

@dataclass
class GradCheckReport:
    max_rel_err: float
    parameter: str
    per_tensor: dict[str, float]
    tolerance: ClassVar[float] = 1e-5

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


_CHECK_BANK = ["claims with numbers or statistics", "negation of a false claim"]


def _unit_scale_params(config: ModelConfig, vocab_size: int, bank_size: int,
                       rng: np.random.Generator) -> ModelParams:
    """Weights at O(1) scale, layer-norm gains near 1: unlike the 0.02-std
    init, no backward formula hides behind a gradient as small as
    finite-difference noise."""
    params = init_model_params(config, vocab_size, bank_size, rng)
    for name, arr in named_arrays(params):
        arr[...] = (1.0 + 0.2 * rng.normal(size=arr.shape) if name.endswith("_gain")
                    else 0.5 * rng.normal(size=arr.shape))
    return params


def grad_check(model_config: ModelConfig | None = None) -> GradCheckReport:
    """Check the training step, ``batch_gradients`` as ``train`` runs it,
    against central differences of the batch's mean loss on a small model.

    The probe batch holds one post of each length from 1 to 4 past
    ``max_len`` (cut there), packed in two or more chunks that share one
    bank. Dropout runs at the config's ``dropout_p``; the step and each
    difference loss replay one generator state, so all draw the same masks.
    Each tensor is checked along one random direction: its error is the gap
    between the gradient's slope and the difference's over the larger of
    the two, or over 1e-3 when both are smaller. The loss is only piecewise
    smooth (CoDA's L1 distance, IGM's max-pool), so a miss is checked again
    at a 10x smaller step. A tensor whose slope is roundoff beside the
    largest tensor's both ways cannot change the loss and scores 1.0.

    The probe's sizes are fixed; ``model_config`` supplies its switches
    (``use_descnet``, ``attention_variant``, ``use_igm``, ...), its dropout
    rate and seed, and its adapter layer, capped at the probe's 2 layers.
    """
    base = model_config or ModelConfig()
    mc = replace(base, d=8, h=2, d_ff=16, layers=2, max_len=16, vocab_size=64,
                 adapter_layer=min(base.adapter_layer, 2))
    rng = np.random.default_rng(mc.seed)

    words = [f"w{i}" for i in range(30)] + " ".join(_CHECK_BANK).split()
    vocab = Vocabulary.build([words], mc.vocab_size)
    batch = []
    for n in range(1, mc.max_len + 5):
        # n words, the middle half of them the claim span
        picks = [vocab.words[i] for i in rng.integers(1, len(vocab), size=n)]
        lo, hi = n // 4, n // 4 + max(1, n // 2)
        start = sum(len(word) + 1 for word in picks[:lo])
        span = CharSpan(start, start + len(" ".join(picks[lo:hi])))
        batch.append(post_to_example(AnnotatedPost(f"probe{n}", " ".join(picks), [span]),
                                     vocab, mc))
    params = _unit_scale_params(mc, len(vocab), len(_CHECK_BANK), rng)
    directions = [rng.normal(size=arr.shape) for _name, arr in named_arrays(params)]
    encode_bank = bank_encoder(_CHECK_BANK, vocab, params, mc)
    chunks = make_chunks([ex.token_ids for ex in batch])
    saved = rng.bit_generator.state

    def replayed() -> np.random.Generator:
        rng.bit_generator.state = saved
        return rng

    def loss_at() -> float:
        bank, gen = encode_bank(), replayed()
        return float(np.mean(np.concatenate([
            sequence_loss(params, mc, chunk.token_ids,
                          [t for i in chunk.order for t in batch[i].gold_tags], bank,
                          chunk.packing, gen)[0]
            for chunk in chunks])))

    def slope(arr, direction, step) -> float:
        kept = arr.copy()
        arr[...] = kept + step * direction
        up = loss_at()
        arr[...] = kept - step * direction
        down = loss_at()
        arr[...] = kept
        return (up - down) / (2.0 * step)

    grads, _losses = batch_gradients(params, mc, batch, encode_bank(), replayed())
    analytic = [float(np.vdot(g, u)) for (_n, g), u in zip(named_arrays(grads), directions)]
    top = max(map(abs, analytic))
    per_tensor: dict[str, float] = {}
    for (name, arr), direction, exact in zip(named_arrays(params), directions, analytic):
        for step in (1e-5, 1e-6):
            fd = slope(arr, direction, step)
            err = abs(exact - fd) / max(abs(exact), abs(fd), 1e-3)
            if err < GradCheckReport.tolerance:
                break
        per_tensor[name] = 1.0 if max(abs(exact), abs(fd)) <= 1e-8 * top else err
    worst = max(per_tensor, key=per_tensor.get)
    return GradCheckReport(per_tensor[worst], worst, per_tensor)


# ---------------------------------------------------------------------------
# Adapter placement sweep

def layer_sweep(corpus_train: list[AnnotatedPost], corpus_val: list[AnnotatedPost],
                bank_texts: list[str], model_config: ModelConfig,
                train_config: TrainConfig, layers: list[int]) -> list[dict]:
    """Train one model per insertion layer; same seed and data throughout."""
    if not layers:
        raise ValueError("no layers to sweep")
    if not model_config.use_descnet:
        raise ValueError("layer sweep needs the adapter, but the config has use_descnet = false")
    if len(set(layers)) != len(layers):
        raise ValueError(f"layers must be distinct, got {list(layers)}")
    for layer in layers:
        if not 1 <= layer <= model_config.layers:
            raise ValueError(f"adapter layer {layer} outside [1, {model_config.layers}]")
    rows = []
    for layer in layers:
        tc = replace(train_config, adapter_layer=layer)
        result = train(corpus_train, corpus_val, bank_texts, model_config, tc)
        # train already scored the parameters it returns on the same split
        rows.append({"layer": layer, "f1": result.records[result.best_epoch - 1].val_f1,
                     "dsc": result.best_val_dsc})
    return rows

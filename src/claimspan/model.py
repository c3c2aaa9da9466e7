"""Full tagger assembly: vocabulary, parameter bundle, the loss and tags of a
packed chunk of sequences, and checkpoint serialization (a JSON document
holding each tensor as base64 of its little-endian float64 bytes).

The encoder, adapter, and CRF modules each own their math; this module wires
them into one forward and backward pass over a chunk (a single sequence is a
chunk of one), giving each sequence its own differentiable loss, and handles
everything a saved model needs to be reloaded and run (config, vocab, bank
texts, tensors).
"""

from __future__ import annotations

import base64
import json
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from . import crf as crf_mod
from .crf import CrfParams, emissions_backward, emissions_from, init_crf_params, nll_backward, nll_loss
from .descnet import (
    DescNetParams,
    DescriptionBank,
    descnet_backward,
    descnet_forward,
    encode_description_bank,
    init_descnet_params,
)
from .encoder import (
    EncoderParams,
    ModelConfig,
    embed,
    embed_backward,
    encoder_block_backward,
    encoder_block_forward,
    init_encoder_params,
)
from .numerics import named_arrays
from .packing import Packing, make_chunks
from .preprocess import AnnotatedPost, CharSpan, OffsetMap, Token, decode_bio, encode_bio, normalize_post, tokenize

CHECKPOINT_VERSION = 2
UNK = "<unk>"


class CheckpointError(ValueError):
    """A checkpoint document is malformed or inconsistent."""


@dataclass
class Vocabulary:
    """Lowercased word-level vocabulary; index 0 is the unknown token."""

    words: list[str]
    index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.words or self.words[0] != UNK:
            raise ValueError("vocabulary must start with the unknown token")
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def lookup(self, surface: str) -> int:
        return self.index.get(surface.lower(), 0)

    @classmethod
    def build(cls, token_lists: list[list[str]], max_size: int) -> "Vocabulary":
        """Most frequent lowercased surfaces, ties broken lexicographically."""
        counts = Counter(s.lower() for toks in token_lists for s in toks)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([UNK] + [w for w, _ in ranked[: max_size - 1]])


@dataclass
class ModelParams:
    encoder: EncoderParams
    crf: CrfParams
    descnet: DescNetParams | None = None


def init_model_params(config: ModelConfig, vocab_size: int, bank_size: int,
                      rng: np.random.Generator) -> ModelParams:
    """Draw all weights in canonical order so a seed pins every tensor.

    Encoder and CRF are drawn before the adapter, so ablation variants that
    share a seed also share their backbone initialization.
    """
    enc = init_encoder_params(rng, config, vocab_size)
    head = init_crf_params(rng, config.d)
    desc = init_descnet_params(rng, config, bank_size) if config.use_descnet else None
    return ModelParams(encoder=enc, crf=head, descnet=desc)


@dataclass
class Example:
    """A post converted to model inputs, with the bookkeeping to map
    predictions back onto the raw text."""

    post_id: str
    tokens: list[Token]
    token_ids: list[int]
    gold_tags: list[str]
    offset_map: OffsetMap
    raw_text: str
    dropped_spans: int = 0


def post_to_example(post: AnnotatedPost, vocab: Vocabulary, config: ModelConfig) -> Example:
    """Normalize, tokenize, truncate to the model's max length, BIO-encode."""
    norm, omap, dropped = normalize_post(post)
    tokens = tokenize(norm.text)[: config.max_len]
    tags = encode_bio(tokens, norm.spans)
    ids = [vocab.lookup(t.surface) for t in tokens]
    return Example(post.id, tokens, ids, tags, omap, post.text, dropped)


def spans_to_raw(example: Example, tags: list[str]) -> list[CharSpan]:
    """Decode predicted tags to spans in the post's original raw text."""
    spans, _repairs = decode_bio(example.tokens, tags)
    out = []
    for sp in spans:
        raw_start = example.offset_map.norm_to_raw[sp.start]
        raw_end = example.offset_map.norm_to_raw[sp.end - 1] + 1
        out.append(CharSpan(raw_start, raw_end))
    return out


def build_bank(texts: list[str] | None, vocab: Vocabulary, params: ModelParams,
               config: ModelConfig) -> DescriptionBank | None:
    """Tokenize description texts and encode them with the current weights;
    None for a model without adapter weights."""
    if params.descnet is None:
        return None
    id_lists = []
    for text in texts:
        toks = tokenize(text)
        if len(toks) > config.max_len:
            raise ValueError(f"description longer than max_len: {text!r}")
        id_lists.append([vocab.lookup(t.surface) for t in toks])
    return encode_description_bank(texts, id_lists, params.encoder,
                                   params.descnet.description_encoder, config)


def sequence_forward(params: ModelParams, config: ModelConfig, token_ids,
                     bank: DescriptionBank | None, rng=None, train=False,
                     packing: Packing | None = None):
    """Embeddings, the encoder blocks with the adapter after block
    ``config.adapter_layer`` if the model has adapter weights, then the
    emission projection, over a chunk's packed token ids (one sequence when
    ``packing`` is None); returns (emissions, cache)."""
    if params.descnet is not None and bank is None:
        raise ValueError("adapter enabled but no description bank supplied")
    packing = packing or Packing.single(len(token_ids))
    z = embed(token_ids, params.encoder, config, packing)
    block_caches = []
    adapter_cache = None
    for i, blk in enumerate(params.encoder.blocks, start=1):
        z, bc = encoder_block_forward(z, blk, config, rng, train, packing)
        block_caches.append(bc)
        if params.descnet is not None and i == config.adapter_layer:
            z_hat, adapter_cache = descnet_forward(z, bank, params.descnet, config, rng, train,
                                                   packing)
            z = z_hat + z if config.adapter_residual else z_hat
    e = emissions_from(z, params.crf)
    return e, {"token_ids": token_ids, "packing": packing, "blocks": block_caches,
               "adapter": adapter_cache, "z": z}


def sequence_loss(params: ModelParams, config: ModelConfig, token_ids, gold_tags: list[str],
                  bank: DescriptionBank | None, rng=None, train=False,
                  packing: Packing | None = None):
    """Each sequence's loss as a (sequences,) array, and (emissions, cache)
    for ``sequence_backward``; ``gold_tags`` are the chunk's packed tags."""
    e, cache = sequence_forward(params, config, token_ids, bank, rng, train, packing)
    losses, cache["crf"] = nll_loss(e, params.crf, gold_tags, cache["packing"])
    return losses, (e, cache)


def sequence_backward(params: ModelParams, config: ModelConfig, gold_tags: list[str],
                      e: np.ndarray, cache, grads: ModelParams,
                      d_bank: np.ndarray | None) -> None:
    """Accumulate the gradient of the chunk's summed loss into ``grads``.

    With the adapter on, the gradient w.r.t. the bank's keys is added into
    ``d_bank``; the caller runs ``bank_backward`` once per batch.
    """
    packing = cache["packing"]
    d_e = nll_backward(e, params.crf, gold_tags, cache["crf"], grads.crf, packing)
    d_z = emissions_backward(d_e, cache["z"], params.crf, grads.crf)
    blocks, g_blocks = params.encoder.blocks, grads.encoder.blocks
    for i in range(len(blocks), 0, -1):
        if params.descnet is not None and i == config.adapter_layer:
            d_in = descnet_backward(d_z, cache["adapter"], params.descnet, config,
                                    grads.descnet, d_bank)
            d_z = d_in + d_z if config.adapter_residual else d_in
        d_z = encoder_block_backward(d_z, cache["blocks"][i - 1], blocks[i - 1], config,
                                     g_blocks[i - 1])
    embed_backward(d_z, cache["token_ids"], grads.encoder, packing)


def predict_tags(params: ModelParams, config: ModelConfig, token_ids,
                 bank: DescriptionBank | None, packing: Packing | None = None) -> list[str]:
    """Viterbi tags of a chunk's sequences, packed like its token ids."""
    e, cache = sequence_forward(params, config, token_ids, bank, rng=None, train=False,
                                packing=packing)
    return crf_mod.viterbi_decode(e, params.crf, cache["packing"])


def predict_sequences(params: ModelParams, config: ModelConfig, id_lists: list[list[int]],
                      bank: DescriptionBank | None) -> list[list[str]]:
    """Tags of each token-id list, run in packed chunks; an empty list gets
    no tags."""
    out: list[list[str]] = [[] for _ in id_lists]
    nonempty = [i for i, ids in enumerate(id_lists) if ids]
    for chunk in make_chunks([id_lists[i] for i in nonempty]):
        tags = predict_tags(params, config, chunk.token_ids, bank, chunk.packing)
        for j, seq_tags in zip(chunk.order, chunk.split(tags)):
            out[nonempty[j]] = seq_tags
    return out


# ---------------------------------------------------------------------------
# Checkpoint serialization

def _config_to_dict(config: ModelConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config)}


def save_checkpoint(path, config: ModelConfig, vocab: Vocabulary,
                    bank_texts: list[str] | None, params: ModelParams) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": _config_to_dict(config),
        "vocab": vocab.words,
        "bank_texts": bank_texts,
        "params": {
            name: {"shape": list(arr.shape),
                   "values": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
            for name, arr in named_arrays(params)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (config, vocab, bank_texts, params); validates names, shapes
    and each tensor's byte count."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    try:
        config = ModelConfig(**doc["config"])
        vocab = Vocabulary(list(doc["vocab"]))
        bank_texts = doc["bank_texts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from exc
    if bank_texts is not None and not (isinstance(bank_texts, list)
                                       and all(isinstance(t, str) for t in bank_texts)):
        raise CheckpointError("bank_texts must be null or a list of strings")
    bank_size = len(bank_texts) if bank_texts else 1
    params = init_model_params(config, len(vocab), bank_size, np.random.default_rng(0))
    if params.descnet is not None and not bank_texts:
        raise CheckpointError("checkpoint has adapter weights but no bank_texts")
    stored = doc.get("params")
    if not isinstance(stored, dict):
        raise CheckpointError("checkpoint has no params")
    seen = set()
    for name, arr in named_arrays(params):
        if name not in stored:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        entry = stored[name]
        try:
            shape = tuple(entry["shape"])
            raw = base64.b64decode(entry["values"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad tensor {name!r}: {exc!r}") from exc
        if shape != arr.shape:
            raise CheckpointError(f"tensor {name!r} has shape {shape}, expected {arr.shape}")
        if len(raw) != arr.nbytes:
            raise CheckpointError(f"tensor {name!r} holds {len(raw)} bytes, "
                                  f"shape {shape} needs {arr.nbytes}")
        arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
        seen.add(name)
    extra = set(stored) - seen
    if extra:
        raise CheckpointError(f"checkpoint holds unknown tensors: {sorted(extra)}")
    return config, vocab, bank_texts, params

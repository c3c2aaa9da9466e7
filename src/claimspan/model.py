"""Full tagger assembly: vocabulary, parameter bundle, the loss and tags of a
packed chunk of sequences, and checkpoint serialization (one JSON header
line, then the parameter vector as raw little-endian float64 bytes).

The encoder, adapter, and CRF modules each own their math; this module wires
them into one forward and backward pass over a chunk (a single sequence is a
chunk of one), giving each sequence its own differentiable loss, and handles
everything a saved model needs to be reloaded and run (config, vocab, bank
texts, tensors).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field

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
from .numerics import FLAT, flat_views, named_arrays
from .packing import Packing, make_chunks
from .preprocess import AnnotatedPost, CharSpan, Tokens, decode_bio, encode_post, normalize_text, tokenize

CHECKPOINT_VERSION = 5
UNK = "<unk>"


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent."""


@dataclass
class Vocabulary:
    """Word-level vocabulary of distinct lowercase strings (``ids``
    lowercases the surfaces); index 0 is the unknown token."""

    words: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.words or self.words[0] != UNK:
            raise ValueError("vocabulary must start with the unknown token")
        self.index = {}
        for i, w in enumerate(self.words):
            if not isinstance(w, str) or w != w.lower():
                raise ValueError(f"vocabulary entry {i} ({w!r}) is not a lowercase string")
            if self.index.setdefault(w, i) != i:
                raise ValueError(f"vocabulary entry {i} ({w!r}) repeats entry {self.index[w]}")

    def __len__(self) -> int:
        return len(self.words)

    def ids(self, surfaces: list[str]) -> list[int]:
        get = self.index.get
        return [get(w, 0) for w in map(str.lower, surfaces)]

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
    # the vector every tensor above is a view of, in named_arrays order
    vector: np.ndarray | None = field(default=None, repr=False, metadata=FLAT)


def init_model_params(config: ModelConfig, vocab_size: int, bank_size: int,
                      rng: np.random.Generator) -> ModelParams:
    """Draw all weights in canonical order so a seed pins every tensor; the
    tensors returned are views of one float64 vector (``flat_views``).

    Encoder and CRF are drawn before the adapter, so ablation variants that
    share a seed also share their backbone initialization.
    """
    drawn = _param_tree(config, vocab_size, bank_size, rng)
    return flat_views(drawn, np.concatenate([arr.ravel() for _n, arr in named_arrays(drawn)]))


def _param_tree(config: ModelConfig, vocab_size: int, bank_size: int,
                rng: np.random.Generator | None) -> ModelParams:
    """The tensors as separate arrays; with ``rng`` None the weights are
    uninitialised, a layout of names and shapes for a checkpoint to fill."""
    enc = init_encoder_params(rng, config, vocab_size)
    head = init_crf_params(rng, config.d)
    desc = init_descnet_params(rng, config, bank_size) if config.use_descnet else None
    return ModelParams(encoder=enc, crf=head, descnet=desc)


@dataclass
class Example:
    """A post converted to model inputs, with the bookkeeping to map
    predictions back onto the raw text."""

    post_id: str
    tokens: Tokens
    token_ids: list[int]
    gold_tags: list[str]
    norm_to_raw: Sequence[int]
    dropped_spans: int = 0


def post_to_example(post: AnnotatedPost, vocab: Vocabulary | None, config: ModelConfig) -> Example:
    """The post's tokens and tags (``encode_post``), both cut at the model's
    max length. With ``vocab`` None the token ids are left empty, for ``train``
    to look up once it has built its vocabulary from the examples' tokens."""
    _text, spans, norm_to_raw, tokens, tags = encode_post(post)
    if len(tokens) > config.max_len:
        tokens, tags = tokens[: config.max_len], tags[: config.max_len]
    token_ids = [] if vocab is None else vocab.ids(tokens.surfaces)
    return Example(post.id, tokens, token_ids, tags, norm_to_raw, len(post.spans) - len(spans))


def spans_to_raw(example: Example, tags: list[str]) -> list[CharSpan]:
    """Decode predicted tags to spans in the post's original raw text."""
    norm_to_raw = example.norm_to_raw
    return [CharSpan(norm_to_raw[sp.start], norm_to_raw[sp.end - 1] + 1)
            for sp in decode_bio(example.tokens, tags)]


def bank_token_ids(texts: list[str], vocab: Vocabulary, config: ModelConfig) -> list[list[int]]:
    """Token ids of each description text, normalized as a post's is."""
    id_lists = []
    for text in texts:
        surfaces = tokenize(normalize_text(text)[0]).surfaces
        if not surfaces:
            raise ValueError(f"description tokenizes to nothing: {text!r}")
        if len(surfaces) > config.max_len:
            raise ValueError(f"description longer than max_len: {text!r}")
        id_lists.append(vocab.ids(surfaces))
    return id_lists


def bank_encoder(texts: list[str] | None, vocab: Vocabulary, params: ModelParams,
                 config: ModelConfig) -> Callable[[], DescriptionBank | None]:
    """A function encoding the description bank with ``params``' current
    weights; the texts are tokenized once, here, since only the weights
    change between banks. It returns None for a model without the adapter."""
    if params.descnet is None:
        return lambda: None
    ids = bank_token_ids(texts, vocab, config)
    return lambda: encode_description_bank(ids, params.encoder,
                                           params.descnet.description_encoder, config)


def build_bank(texts: list[str] | None, vocab: Vocabulary, params: ModelParams,
               config: ModelConfig) -> DescriptionBank | None:
    """Tokenize description texts and encode them with the current weights;
    None for a model without adapter weights."""
    return bank_encoder(texts, vocab, params, config)()


def sequence_forward(params: ModelParams, config: ModelConfig, token_ids,
                     bank: DescriptionBank | None, packing: Packing, rng=None):
    """Embeddings, the encoder blocks with the adapter after block
    ``config.adapter_layer`` if the model has adapter weights, then the
    emission projection, over a chunk's packed token ids; returns
    (emissions, cache). Passing ``rng`` turns dropout on."""
    if params.descnet is not None and bank is None:
        raise ValueError("adapter enabled but no description bank supplied")
    z = embed(token_ids, params.encoder, config, packing)
    block_caches = []
    adapter_cache = None
    for i, blk in enumerate(params.encoder.blocks, start=1):
        z, bc = encoder_block_forward(z, blk, config, packing, rng)
        block_caches.append(bc)
        if params.descnet is not None and i == config.adapter_layer:
            z, adapter_cache = descnet_forward(z, bank, params.descnet, config, packing, rng)
    e = emissions_from(z, params.crf)
    return e, {"token_ids": token_ids, "packing": packing, "blocks": block_caches,
               "adapter": adapter_cache, "z": z}


def sequence_loss(params: ModelParams, config: ModelConfig, token_ids, gold_tags: list[str],
                  bank: DescriptionBank | None, packing: Packing, rng=None):
    """Each sequence's loss as a (sequences,) array, and the cache
    ``sequence_backward`` reads; ``gold_tags`` are the chunk's packed tags."""
    e, cache = sequence_forward(params, config, token_ids, bank, packing, rng)
    losses, cache["crf"] = nll_loss(e, params.crf, gold_tags, packing)
    return losses, cache


def sequence_backward(params: ModelParams, config: ModelConfig, cache, grads: ModelParams,
                      d_bank: np.ndarray | None) -> None:
    """Accumulate the gradient of the chunk's summed loss into ``grads``.

    With the adapter on, the gradient w.r.t. the bank's keys is added into
    ``d_bank``; the caller runs ``bank_backward`` once per batch.
    """
    d_e = nll_backward(params.crf, cache["crf"], grads.crf)
    d_z = emissions_backward(d_e, cache["z"], params.crf, grads.crf)
    blocks, g_blocks = params.encoder.blocks, grads.encoder.blocks
    for i in range(len(blocks), 0, -1):
        if params.descnet is not None and i == config.adapter_layer:
            d_z = descnet_backward(d_z, cache["adapter"], params.descnet, config,
                                   grads.descnet, d_bank)
        d_z = encoder_block_backward(d_z, cache["blocks"][i - 1], blocks[i - 1], config,
                                     g_blocks[i - 1])
    embed_backward(d_z, cache["token_ids"], grads.encoder, cache["packing"])


def predict_tags(params: ModelParams, config: ModelConfig, id_lists: list[list[int]],
                 bank: DescriptionBank | None) -> list[list[str]]:
    """Viterbi tags of each token-id list; an empty list gets no tags.

    Emissions are computed in packed chunks; the chunks' emissions, in
    packing order, then go through one Viterbi decode. Its time loop treats
    every sequence's row on its own, so the tags equal those of decoding
    each sequence alone.
    """
    out: list[list[str]] = [[] for _ in id_lists]
    nonempty = [i for i, ids in enumerate(id_lists) if ids]
    if not nonempty:
        return out
    chunks = make_chunks([id_lists[i] for i in nonempty])
    emissions = [sequence_forward(params, config, chunk.token_ids, bank, chunk.packing)[0]
                 for chunk in chunks]
    order = [nonempty[j] for chunk in chunks for j in chunk.order]
    packing = Packing([len(id_lists[i]) for i in order])
    tags = crf_mod.viterbi_decode(np.concatenate(emissions), params.crf, packing)
    for i, seq_tags in zip(order, packing.split(tags)):
        out[i] = seq_tags
    return out


# ---------------------------------------------------------------------------
# Checkpoint serialization

def save_checkpoint(path, config: ModelConfig, vocab: Vocabulary,
                    bank_texts: list[str] | None, params: ModelParams) -> None:
    """One ASCII line of JSON, then the bytes of ``params.vector``. A model
    without the adapter stores no bank: ``bank_texts`` must be None."""
    if params.descnet is None and bank_texts is not None:
        raise ValueError("bank_texts given for a model without adapter weights")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "vocab": vocab.words,
        "bank_texts": bank_texts,
        "tensors": [[name, list(arr.shape)] for name, arr in named_arrays(params)],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(params.vector.astype("<f8", copy=False).tobytes())


def _tensor_mismatch(stored, expected: list) -> str:
    """The first missing, reshaped or unknown tensor of a header's list."""
    try:
        shapes, known = dict(stored), dict(expected)
    except (TypeError, ValueError):
        return "checkpoint tensors must be a list of [name, shape] pairs"
    for name, shape in expected:
        if name not in shapes:
            return f"checkpoint missing tensor {name!r}"
        if shapes[name] != shape:
            return f"tensor {name!r} has shape {shapes[name]}, expected {shape}"
    unknown = [name for name in shapes if name not in known]
    return (f"checkpoint holds unknown tensor {unknown[0]!r}" if unknown
            else "checkpoint tensors are not in the model's order")


def load_checkpoint(path):
    """Returns (config, vocab, bank_texts, params), the tensors viewing one
    writable vector over the payload; checks the header and the byte count."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise CheckpointError(f"checkpoint header is not JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {header.get('format_version')!r}")
        try:
            config = ModelConfig(**header["config"])
            vocab = Vocabulary(list(header["vocab"]))
            bank_texts = header["bank_texts"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad checkpoint header: {exc}") from exc
        if bank_texts is not None and not (isinstance(bank_texts, list)
                                           and all(isinstance(t, str) for t in bank_texts)):
            raise CheckpointError("bank_texts must be null or a list of strings")
        layout = _param_tree(config, len(vocab), len(bank_texts) if bank_texts else 1, None)
        if layout.descnet is not None and not bank_texts:
            raise CheckpointError("checkpoint has adapter weights but no bank_texts")
        if layout.descnet is None and bank_texts is not None:
            raise CheckpointError("checkpoint has bank_texts but no adapter weights")
        expected = [[name, list(arr.shape)] for name, arr in named_arrays(layout)]
        if header.get("tensors") != expected:
            raise CheckpointError(_tensor_mismatch(header.get("tensors"), expected))
        need = 8 * sum(arr.size for _name, arr in named_arrays(layout))
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        payload = bytearray(need)
        if size != need or fh.readinto(payload) != need:
            raise CheckpointError(f"checkpoint payload holds {size} bytes, its tensors need {need}")
    vector = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    return config, vocab, bank_texts, flat_views(layout, vector)

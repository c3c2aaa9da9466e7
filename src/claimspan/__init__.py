"""Claim span identification: a token encoder with a description-conditioned
gating adapter and a CRF tagging head, plus the evaluation and retrieval
experiments built around it."""

from .encoder import ModelConfig
from .metrics import EvalReport, build_report, dice, paired_f1_ttest
from .model import (
    ModelParams,
    Vocabulary,
    init_model_params,
    load_checkpoint,
    predict_tags,
    save_checkpoint,
)
from .preprocess import (
    AnnotatedPost,
    CharSpan,
    Tokens,
    decode_bio,
    encode_bio,
    load_corpus,
    normalize_text,
    save_corpus,
    split_hashtag,
    tokenize,
)
from .retrieval import Bm25Index, build_index, compare_conditions, ndcg_at_k, precision_at_k, query
from .synthetic import generate_corpus, generate_retrieval_fixture, split_corpus, synthetic_bank
from .training import TrainConfig, grad_check, layer_sweep, load_config, train

__version__ = "0.1.0"

__all__ = [
    "AnnotatedPost",
    "Bm25Index",
    "CharSpan",
    "EvalReport",
    "ModelConfig",
    "ModelParams",
    "Tokens",
    "TrainConfig",
    "Vocabulary",
    "build_index",
    "build_report",
    "compare_conditions",
    "decode_bio",
    "dice",
    "encode_bio",
    "generate_corpus",
    "generate_retrieval_fixture",
    "grad_check",
    "init_model_params",
    "layer_sweep",
    "load_checkpoint",
    "load_config",
    "load_corpus",
    "ndcg_at_k",
    "normalize_text",
    "paired_f1_ttest",
    "precision_at_k",
    "predict_tags",
    "query",
    "save_checkpoint",
    "save_corpus",
    "split_corpus",
    "split_hashtag",
    "synthetic_bank",
    "tokenize",
    "train",
]

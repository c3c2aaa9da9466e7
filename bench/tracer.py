"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``claimspan`` from outside the package:
each ``claimspan`` module imports functions by name and so holds its own
reference, and every such reference is found by identity and replaced. No
file of the package changes.

A span records its stage, start, end, parent span and the id of its
top-level operation (a ``train`` call and then each training step, an
``eval`` invocation, an index build or a query). Self time is a span's
duration minus the time its child spans cover. Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Stage:
    name: str
    module: str
    functions: tuple[str, ...]
    # Traced functions called inside an inclusive stage count as part of it,
    # so the description bank's encoder blocks stay in the bank's figures.
    inclusive: bool = False


STAGES = (
    Stage("preprocess.normalize", "preprocess", ("normalize_text", "normalize_post")),
    Stage("preprocess.tokenize", "preprocess", ("tokenize",)),
    Stage("preprocess.bio", "preprocess", ("encode_bio", "decode_bio")),
    Stage("preprocess.io", "preprocess", ("load_corpus", "save_corpus")),
    Stage("encoder.embed", "encoder", ("embed", "embed_backward")),
    Stage("encoder.block_fwd", "encoder", ("encoder_block_forward",)),
    Stage("encoder.block_bwd", "encoder", ("encoder_block_backward",)),
    Stage("descnet.bank_encode", "descnet", ("encode_description_bank",), inclusive=True),
    Stage("descnet.bank_bwd", "descnet", ("bank_backward",), inclusive=True),
    Stage("descnet.interact_fwd", "descnet", ("coda_interact_forward", "dpa_interact_forward")),
    Stage("descnet.interact_bwd", "descnet", ("coda_interact_backward", "dpa_interact_backward")),
    Stage("descnet.fuse", "descnet", ("fuse_forward", "fuse_backward")),
    Stage("descnet.igm", "descnet", ("igm_forward", "igm_backward")),
    Stage("descnet.adapter", "descnet", ("descnet_forward", "descnet_backward")),
    Stage("crf.emit", "crf", ("emissions_from", "emissions_backward")),
    Stage("crf.loss", "crf", ("nll_loss",)),
    Stage("crf.bwd", "crf", ("nll_backward",)),
    Stage("crf.viterbi", "crf", ("viterbi_decode",)),
    Stage("model.glue", "model", ("sequence_forward", "sequence_loss", "sequence_backward",
                                  "predict_tags", "build_bank")),
    Stage("model.examples", "model", ("post_to_example",)),
    Stage("model.checkpoint", "model", ("save_checkpoint", "load_checkpoint")),
    Stage("training.adam", "training", ("adam_step",)),
    Stage("training.validate", "training", ("evaluate_split",)),
    Stage("training.loop", "training", ("train",)),
    Stage("metrics.report", "metrics", ("build_report", "overall_prf", "mean_dice",
                                        "inspan_indices")),
    Stage("retrieval.terms", "retrieval", ("index_terms",)),
    Stage("retrieval.build", "retrieval", ("build_index",)),
    Stage("retrieval.query", "retrieval", ("query",)),
    Stage("cli", "cli", ("main",)),
)

STAGE_INDEX = {s.name: i for i, s in enumerate(STAGES)}

# Stages each workload must reach. A traced run in which one of them records
# no call fails, so a refactor cannot silently report a layer as zero.
EXERCISED = {
    "train": (
        "preprocess.normalize", "preprocess.tokenize", "preprocess.bio",
        "encoder.embed", "encoder.block_fwd", "encoder.block_bwd",
        "descnet.bank_encode", "descnet.bank_bwd", "descnet.interact_fwd",
        "descnet.interact_bwd", "descnet.fuse", "descnet.igm", "descnet.adapter",
        "crf.emit", "crf.loss", "crf.bwd", "crf.viterbi",
        "model.glue", "model.examples", "training.adam", "training.validate",
        "training.loop", "metrics.report",
    ),
    "tag": (
        "preprocess.normalize", "preprocess.tokenize", "preprocess.bio", "preprocess.io",
        "encoder.embed", "encoder.block_fwd", "descnet.bank_encode",
        "descnet.interact_fwd", "descnet.fuse", "descnet.igm", "descnet.adapter",
        "crf.emit", "crf.viterbi", "model.glue", "model.examples", "model.checkpoint",
        "metrics.report", "cli",
    ),
    "retrieve": (
        "preprocess.normalize", "preprocess.tokenize",
        "retrieval.terms", "retrieval.build", "retrieval.query",
    ),
}

# The per-layer figures each stage reports: self time always, calls where listed.
REPORTED_CALLS = {
    "preprocess.normalize", "preprocess.tokenize", "preprocess.bio",
    "encoder.block_fwd", "encoder.block_bwd", "descnet.bank_encode", "descnet.bank_bwd",
    "descnet.interact_fwd", "crf.loss", "crf.bwd", "crf.viterbi", "model.examples",
    "training.adam", "retrieval.terms", "retrieval.query",
}


class CoverageError(RuntimeError):
    """A traced function is gone, or a stage a workload exercises saw no call."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op = 0
        self._installed: list[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.self_s = [0.0] * len(STAGES)
        self.calls = [0] * len(STAGES)
        self.tokens = 0
        self.seqs = 0
        self.embed_calls = 0

    def take(self) -> dict:
        """Counters since the last call, per stage name; then start afresh."""
        out = {
            "self_s": dict(zip(STAGE_INDEX, self.self_s)),
            "calls": dict(zip(STAGE_INDEX, self.calls)),
            "tokens": self.tokens,
            "seqs": self.seqs,
            "embed_calls": self.embed_calls,
        }
        self._reset()
        return out

    def _count_tokens(self, token_ids) -> None:
        ids = np.asarray(token_ids)
        self.tokens += ids.size
        self.seqs += 1 if ids.ndim == 1 else ids.shape[0]
        self.embed_calls += 1

    def _wrap(self, idx: int, fn, count_tokens: bool):
        stack = self._stack
        spans = self.spans
        inclusive = [s.inclusive for s in STAGES]
        perf = time.perf_counter
        ends_step = idx == STAGE_INDEX["training.adam"]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and inclusive[stack[-1][0]]:
                return fn(*args, **kwargs)
            if count_tokens:
                tracer._count_tokens(args[0] if args else kwargs["token_ids"])
            parent = stack[-1] if stack else None
            if parent is None:
                tracer._op += 1
            op = tracer._op
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [idx, span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                tracer.self_s[idx] += dur - frame[2]
                if parent is None or parent[0] != idx:
                    tracer.calls[idx] += 1
                if parent is not None:
                    parent[2] += dur
                spans.append((span_id, idx, start, end, parent[1] if parent else -1, op))
                if ends_step:
                    tracer._op += 1

        return traced

    def install(self) -> None:
        """Replace every reference to each listed function in every claimspan module."""
        importlib.import_module("claimspan.cli")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "claimspan" or name.startswith("claimspan."))]
        for idx, stage in enumerate(STAGES):
            home = importlib.import_module("claimspan." + stage.module)
            for fname in stage.functions:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    raise CoverageError(f"claimspan.{stage.module}.{fname} no longer exists; "
                                        f"update stage {stage.name!r} in bench/tracer.py")
                wrapper = self._wrap(idx, fn, count_tokens=fname == "embed")
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stages": list(STAGE_INDEX),
                                 "fields": ["id", "stage", "start_s", "end_s", "parent", "op"]})
                     + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def check_coverage(workload: str, calls: dict[str, int]) -> None:
    missing = [name for name in EXERCISED[workload] if calls[name] == 0]
    if missing:
        raise CoverageError(f"workload {workload!r} recorded no call in stages {missing}; "
                            "a traced function moved or was renamed")


def layer_metrics(passes: list[dict], inputs: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced pass, as medians over passes.

    ``passes`` holds the tracer counters of each pass; ``inputs`` the
    workload's input properties, of which ``train_seqs``, ``terms_per_query``
    and ``useful_ratio`` are used where the workload has them.
    """
    def med(get) -> float:
        return float(np.median([get(p) for p in passes]))

    out: dict[str, tuple[float, str]] = {}
    for name in STAGE_INDEX:
        out[f"{name}.self_s"] = (med(lambda p, n=name: p["self_s"][n]), "s")
        if name in REPORTED_CALLS:
            out[f"{name}.calls"] = (med(lambda p, n=name: p["calls"][n]), "count")

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    out["encoder.tokens"] = (med(lambda p: p["tokens"]), "count")
    out["encoder.seqs_per_call"] = (med(lambda p: ratio(p["seqs"], p["embed_calls"])), "ratio")
    out["descnet.bank_bwd_per_step"] = (med(lambda p: ratio(
        p["calls"]["descnet.bank_bwd"], p["calls"]["training.adam"])), "ratio")
    out["crf.recursions_per_seq"] = (med(lambda p: ratio(
        p["calls"]["crf.loss"] + p["calls"]["crf.bwd"], inputs.get("train_seqs", 0))), "ratio")
    out["retrieval.terms_per_query"] = (inputs.get("terms_per_query", 0.0), "terms/query")
    out["retrieval.useful_ratio"] = (inputs.get("useful_ratio", 0.0), "ratio")
    return out

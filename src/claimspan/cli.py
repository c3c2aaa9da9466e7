"""Command-line entry point.

Subcommands: preprocess, train, eval, predict, gradcheck, layer-sweep,
retrieve-eval. Output is JSON on stdout (or --output); --pretty switches to
indented JSON plus aligned tables where one exists. Exit codes: 0 success,
1 validation error (bad data, config, or a failing gradient check), 2 runtime
failure. No subcommand modifies its input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources

from .descnet import load_bank_texts
from .encoder import ModelConfig
from .metrics import build_report
from .model import (
    CheckpointError,
    build_bank,
    load_checkpoint,
    post_to_example,
    predict_sequences,
    save_checkpoint,
    spans_to_raw,
)
from .preprocess import (
    CorpusFormatError,
    decode_bio,
    encode_bio,
    load_corpus,
    normalize_post,
    save_corpus,
    tokenize,
)
from .retrieval import compare_conditions, load_documents, load_judgments
from .synthetic import split_corpus
from .training import (
    ConfigError,
    TrainConfig,
    grad_check,
    layer_sweep,
    load_config,
    train,
)

DEFAULT_BANK_RESOURCE = ("claimspan.data", "claim_descriptions.txt")


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2 if args.pretty else None)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_configs(args):
    if args.config:
        mc, tc = load_config(args.config)
    else:
        mc, tc = ModelConfig(), TrainConfig()
    if getattr(args, "seed", None) is not None:
        mc = replace(mc, seed=args.seed)
        tc = replace(tc, seed=args.seed)
    return mc, tc


def _load_bank_texts(path) -> list[str]:
    if path:
        return load_bank_texts(path)
    ref = resources.files(DEFAULT_BANK_RESOURCE[0]).joinpath(DEFAULT_BANK_RESOURCE[1])
    with resources.as_file(ref) as p:
        return load_bank_texts(p)


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands

def cmd_preprocess(args) -> int:
    posts = load_corpus(args.input)
    n_spans = 0
    token_total = 0
    span_token_total = 0
    single = multi = empty = 0
    out_records = []
    for post in posts:
        norm, _omap, _dropped = normalize_post(post)
        tokens = tokenize(norm.text)
        tags = encode_bio(tokens, norm.spans)
        spans_here = sum(1 for t in tags if t == "B")
        n_spans += spans_here
        token_total += len(tokens)
        span_token_total += sum(1 for t in tags if t != "O")
        if spans_here == 0:
            empty += 1
        elif spans_here == 1:
            single += 1
        else:
            multi += 1
        out_records.append({
            "id": post.id,
            "text": norm.text,
            "tokens": [{"surface": t.surface, "start": t.start, "end": t.end} for t in tokens],
            "tags": tags,
            "spans": [{"start": s.start, "end": s.end} for s in norm.spans],
        })
    n = len(posts)
    stats = {
        "n_posts": n,
        "n_spans": n_spans,
        "avg_tokens_per_post": token_total / n if n else 0.0,
        "avg_tokens_per_span": span_token_total / n_spans if n_spans else 0.0,
        "spans_per_post": n_spans / n if n else 0.0,
        "single_span_posts": single,
        "multi_span_posts": multi,
        "no_span_posts": empty,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for rec in out_records:
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(stats, indent=2 if args.pretty else None))
    return 0


def cmd_train(args) -> int:
    mc, tc = _load_configs(args)
    posts = load_corpus(args.input)
    bank_texts = _load_bank_texts(args.bank) if mc.use_descnet else None
    tr, va, _te = split_corpus(posts)
    log_path = args.output + ".log"
    result = train(tr, va, bank_texts, mc, tc, log_path=log_path)
    save_checkpoint(args.output, result.model_config, result.vocab,
                    result.bank_texts, result.params)
    _summary = {
        "checkpoint": args.output,
        "log": log_path,
        "epochs_run": len(result.records),
        "best_epoch": result.best_epoch,
        "best_val_dsc": result.best_val_dsc,
        "stopped_early": result.stopped_early,
    }
    print(json.dumps(_summary, indent=2 if args.pretty else None))
    return 0


def _load_model(args):
    config, vocab, bank_texts, params = load_checkpoint(args.checkpoint)
    bank = build_bank(bank_texts, vocab, params, config)
    return config, vocab, bank, params


def _predict_corpus(posts, config, vocab, bank, params):
    """(post, example, predicted tags) per post, the posts run in packed
    chunks; empty posts get no tags."""
    examples = [post_to_example(post, vocab, config) for post in posts]
    tags = predict_sequences(params, config, [ex.token_ids for ex in examples], bank)
    return zip(posts, examples, tags)


def render_report(doc: dict) -> str:
    rows = [("", "DSC", "P", "R", "F1")]
    o = doc["overall"]
    rows.append(("overall", f"{doc['dsc']:.4f}", f"{o['p']:.4f}", f"{o['r']:.4f}", f"{o['f1']:.4f}"))
    for tag in ("B", "I", "O"):
        s = doc["per_tag"][tag]
        rows.append((f"tag {tag}", "", f"{s['p']:.4f}", f"{s['r']:.4f}", f"{s['f1']:.4f}"))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.append(f"span count ratio: {doc['span_count_ratio']:.4f}   posts: {doc['n_posts']}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    config, vocab, bank, params = _load_model(args)
    posts = load_corpus(args.input)
    if not posts:
        raise CorpusFormatError(f"{args.input}: empty corpus")
    pred_tags_all, gold_tags_all, pred_spans_all, gold_spans_all = [], [], [], []
    for post, ex, tags in _predict_corpus(posts, config, vocab, bank, params):
        pred_tags_all.append(tags)
        gold_tags_all.append(ex.gold_tags)
        pred_spans_all.append(decode_bio(ex.tokens, tags)[0] if tags else [])
        gold_spans_all.append(post.spans)
    report = build_report(pred_tags_all, gold_tags_all, pred_spans_all, gold_spans_all)
    doc = report.to_dict()
    if args.pretty and not args.output:
        print(render_report(doc))
    else:
        _emit(doc, args)
    return 0


def cmd_predict(args) -> int:
    config, vocab, bank, params = _load_model(args)
    posts = load_corpus(args.input)
    out_posts = []
    for post, ex, tags in _predict_corpus(posts, config, vocab, bank, params):
        post.predicted_spans = spans_to_raw(ex, tags) if tags else []
        out_posts.append(post)
    save_corpus(out_posts, args.output)
    print(json.dumps({"posts": len(out_posts), "output": args.output}))
    return 0


def cmd_gradcheck(args) -> int:
    mc, tc = _load_configs(args)
    report = grad_check(mc, tc)
    doc = {"max_rel_err": report.max_rel_err, "parameter": report.parameter,
           "tolerance": report.tolerance, "passed": report.passed}
    if args.pretty:
        doc["per_tensor"] = report.per_tensor
    print(json.dumps(doc, indent=2 if args.pretty else None))
    return 0 if report.passed else 1


def cmd_layer_sweep(args) -> int:
    mc, tc = _load_configs(args)
    posts = load_corpus(args.input)
    bank_texts = _load_bank_texts(args.bank)
    layers = _parse_int_list(args.layers, "--layers") if args.layers else list(range(1, mc.layers + 1))
    tr, va, _te = split_corpus(posts)
    rows = layer_sweep(tr, va, bank_texts, mc, tc, layers)
    _emit({"rows": rows}, args)
    return 0


def cmd_retrieve_eval(args) -> int:
    posts = load_corpus(args.input)
    docs = load_documents(args.docs)
    judgments = load_judgments(args.judgments)
    k_list = tuple(_parse_int_list(args.k, "--k")) if args.k else (3, 5)
    report = compare_conditions(posts, docs, judgments, k_list)
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="claimspan",
                                     description="Claim span tagging pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        for flag, (required, help_flag) in flags.items():
            if flag == "seed":
                p.add_argument("--seed", type=int, default=None, help=help_flag)
            else:
                p.add_argument(f"--{flag}", required=required, help=help_flag)
        p.add_argument("--pretty", action="store_true", help="indented/tabular output")
        p.set_defaults(func=func)
        return p

    add("preprocess", cmd_preprocess, "tokenize and BIO-encode a corpus, print stats",
        input=(True, "corpus JSONL"), output=(False, "tokenized corpus JSONL"))
    add("train", cmd_train, "train a tagger",
        config=(False, "key=value config file"), seed=(False, "seed override"),
        input=(True, "corpus JSONL (split 80/10/10 internally)"),
        bank=(False, "description bank file (default: packaged bank)"),
        output=(True, "checkpoint path (log written alongside as <path>.log)"))
    add("eval", cmd_eval, "evaluate a checkpoint on annotated data",
        checkpoint=(True, "model checkpoint"), input=(True, "corpus JSONL"),
        output=(False, "report JSON path (default stdout)"))
    add("predict", cmd_predict, "write predicted spans for a corpus",
        checkpoint=(True, "model checkpoint"), input=(True, "corpus JSONL"),
        output=(True, "corpus JSONL with predicted_spans"))
    add("gradcheck", cmd_gradcheck, "finite-difference check of all gradients",
        config=(False, "key=value config file"), seed=(False, "seed override"))
    add("layer-sweep", cmd_layer_sweep, "train once per adapter insertion layer",
        config=(False, "key=value config file"), seed=(False, "seed override"),
        input=(True, "corpus JSONL"), bank=(False, "description bank file"),
        layers=(False, "comma-separated layers (default: all)"),
        output=(False, "table JSON path (default stdout)"))
    add("retrieve-eval", cmd_retrieve_eval, "BM25 tweet-vs-span retrieval comparison",
        input=(True, "query posts JSONL with gold spans"),
        docs=(True, "document corpus JSONL"),
        judgments=(True, "relevance judgments JSONL"),
        k=(False, "comma-separated cutoffs (default 3,5)"),
        output=(False, "report JSON path (default stdout)"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusFormatError, CheckpointError, FileNotFoundError,
            IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

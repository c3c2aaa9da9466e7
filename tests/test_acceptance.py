"""End-to-end acceptance suite.

One test per shipping criterion, in order; each prints a single summary line
with the measured values so a log scrape shows the whole scorecard.
"""

import dataclasses
import math
import time
from collections import namedtuple

import numpy as np
import pytest

from claimspan.cli import main as cli_main
from claimspan.crf import INDEX_TAG, init_crf_params, pin_forbidden, viterbi_decode
from claimspan.descnet import coda_forward, igm_forward, init_descnet_params
from claimspan.encoder import ModelConfig
from claimspan.metrics import dice, paired_f1_ttest
from claimspan.model import build_bank
from claimspan.preprocess import CharSpan, decode_bio, encode_bio, save_corpus, tokenize
from claimspan.retrieval import (
    RetrievalJudgment,
    build_index,
    compare_conditions,
    ndcg_at_k,
    query,
)
from claimspan.synthetic import (
    generate_corpus,
    generate_retrieval_fixture,
    split_corpus,
    synthetic_bank,
)
from claimspan.training import TrainConfig, evaluate_split, grad_check, prepare_examples, train

from oracles import coda_scalar, crf_enumerate, igm_scalar
from test_crf import log_z_and_marginals

SYNTH_MC = ModelConfig(d=32, h=4, d_ff=64, layers=2, max_len=48, vocab_size=400,
                       dropout_p=0.1, adapter_layer=2, seed=7)
SYNTH_TC = TrainConfig(learning_rate=3e-3, batch_size=32, max_epochs=8, patience=5,
                       seed=7, adapter_layer=2)

FullRun = namedtuple("FullRun", "result train_s f1 dsc")


def _held_out_scores(result, test_posts):
    mc = result.model_config
    bank = build_bank(result.bank_texts, result.vocab, result.params, mc)
    test_ex = prepare_examples(test_posts, result.vocab, mc)
    _p, _r, f1, dsc = evaluate_split(result.params, mc, test_ex, bank)
    return f1, dsc


@pytest.fixture(scope="module")
def synth_splits():
    return split_corpus(generate_corpus(n_posts=500, seed=11))


@pytest.fixture(scope="module")
def full_run(synth_splits):
    tr, va, te = synth_splits
    tic = time.perf_counter()
    result = train(tr, va, synthetic_bank(), SYNTH_MC, SYNTH_TC)
    train_s = time.perf_counter() - tic
    f1, dsc = _held_out_scores(result, te)
    return FullRun(result, train_s, f1, dsc)


# ---------------------------------------------------------------------------

def test_criterion_1_crf_matches_enumeration():
    rng = np.random.default_rng(100)
    tic = time.perf_counter()
    max_lp_err = max_marg_err = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        e = rng.normal(scale=2.0, size=(n, 3))
        crf = init_crf_params(rng, d=4)
        crf.transitions = rng.normal(scale=1.5, size=(3, 3))
        crf.start_scores = rng.normal(size=3)
        crf.end_scores = rng.normal(size=3)
        pin_forbidden(crf)
        ref_lp, ref_marg, ref_best = crf_enumerate(e, crf)
        # log Z and marginals as training sees them, through nll_loss/nll_backward
        (lp,), marg = log_z_and_marginals(e, crf, [INDEX_TAG[i] for i in ref_best])
        max_lp_err = max(max_lp_err, abs(lp - ref_lp))
        max_marg_err = max(max_marg_err, float(np.max(np.abs(marg - ref_marg))))
        assert viterbi_decode(e, crf) == [INDEX_TAG[i] for i in ref_best]
    elapsed = time.perf_counter() - tic
    assert max_lp_err < 1e-9
    assert max_marg_err < 1e-9
    assert elapsed < 10.0
    print(f"criterion 1: PASS — 200 CRF instances, log-partition err {max_lp_err:.2e}, "
          f"marginal err {max_marg_err:.2e}, viterbi exact, {elapsed:.1f}s")


def test_criterion_2_gradients_match_finite_differences():
    tic = time.perf_counter()
    report = grad_check()
    elapsed = time.perf_counter() - tic
    assert report.max_rel_err < 1e-4, f"worst tensor {report.parameter}: {report.max_rel_err}"
    assert elapsed < 60.0
    print(f"criterion 2: PASS — max relative gradient error {report.max_rel_err:.2e} "
          f"(worst: {report.parameter}), {elapsed:.1f}s")


def test_criterion_3_coda_igm_match_scalar_reference():
    rng = np.random.default_rng(33)
    worst_coda = worst_igm = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        d = int(rng.integers(2, 10))
        q = rng.normal(scale=1.5, size=(n, d))
        k = rng.normal(scale=1.5, size=(m, d))
        a = coda_forward(q, k)[0]
        worst_coda = max(worst_coda, float(np.max(np.abs(a - coda_scalar(q, k)))))
        assert np.all(np.abs(a) < 1.0)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        config = ModelConfig(d=d, h=1, d_ff=2 * d, layers=1, max_len=8,
                             vocab_size=16, dropout_p=0.0, adapter_layer=1)
        params = init_descnet_params(rng, config, bank_size=1)
        for name in ("w_c1", "w_c2", "w_c3", "w_c4", "b_c1", "b_c2",
                     "w_r1", "w_r2", "w_r3", "w_r4", "b_r1", "b_r2", "w_a", "b_a"):
            arr = getattr(params, name)
            arr[...] = 0.4 * rng.normal(size=arr.shape)
        z = rng.normal(size=(n, d))
        zp = rng.normal(size=(n, d))
        out = igm_forward(zp, z, params)[0]
        worst_igm = max(worst_igm, float(np.max(np.abs(out - igm_scalar(zp, z, params)))))
        assert np.all(np.abs(out) <= np.abs(z) + 1e-15)
    assert worst_coda < 1e-12
    assert worst_igm < 1e-12
    print(f"criterion 3: PASS — 100+100 instances, CoDA err {worst_coda:.2e} "
          f"(entries in (-1,1)), IGM err {worst_igm:.2e} (never amplifies)")


def test_criterion_4_bio_round_trip():
    rng = np.random.default_rng(44)
    for trial in range(1000):
        n = int(rng.integers(1, 21))
        tokens = tokenize(" ".join(f"w{i}" for i in range(n)))
        assert len(tokens) == n
        flags = rng.random(n) < 0.35
        spans = []
        start = None
        for i, on in enumerate(list(flags) + [False]):
            if on and start is None:
                start = i
            elif not on and start is not None:
                spans.append(CharSpan(tokens[start].start, tokens[i - 1].end))
                start = None
        tags = encode_bio(tokens, spans)
        decoded, repairs = decode_bio(tokens, tags)
        assert repairs == 0
        assert decoded == spans, f"trial {trial}"

        # arbitrary (possibly ill-formed) tag strings decode to clean spans
        noisy = [INDEX_TAG[i] for i in rng.integers(0, 3, size=n)]
        noisy_spans, _reps = decode_bio(tokens, noisy)
        retags = encode_bio(tokens, noisy_spans)
        assert retags[0] != "I"
        assert all(not (a == "O" and b == "I") for a, b in zip(retags, retags[1:]))
        assert decode_bio(tokens, retags)[0] == noisy_spans
    print("criterion 4: PASS — 1000 span sets round-trip exactly; "
          "decoded output always re-encodes to valid BIO")


def test_criterion_5_synthetic_end_to_end(full_run):
    assert full_run.train_s < 300.0
    assert full_run.f1 >= 0.90
    assert full_run.dsc >= 0.90
    print(f"criterion 5: PASS — 500-post corpus, held-out F1 {full_run.f1:.4f}, "
          f"DSC {full_run.dsc:.4f}, trained in {full_run.train_s:.1f}s")


def test_criterion_6_ablation_direction(synth_splits, full_run):
    tr, va, te = synth_splits
    bank = synthetic_bank()
    runs = {"full": full_run.f1}
    no_adapter = train(tr, va, None, dataclasses.replace(SYNTH_MC, use_descnet=False),
                       SYNTH_TC)
    runs["none"] = _held_out_scores(no_adapter, te)[0]
    no_igm = train(tr, va, bank, dataclasses.replace(SYNTH_MC, use_igm=False), SYNTH_TC)
    runs["no_igm"] = _held_out_scores(no_igm, te)[0]
    dpa = train(tr, va, bank, dataclasses.replace(SYNTH_MC, attention_variant="dpa"), SYNTH_TC)
    runs["dpa"] = _held_out_scores(dpa, te)[0]
    # only the adapter-vs-none direction is asserted; the other variants are
    # recorded for the report
    assert runs["full"] >= runs["none"], runs
    print("criterion 6: PASS — held-out F1 by variant: "
          + ", ".join(f"{k}={v:.4f}" for k, v in runs.items())
          + " (full >= none asserted)")


def test_criterion_7_span_retrieval_beats_tweets():
    posts, docs, relevant = generate_retrieval_fixture(n_posts=20, seed=5)
    report = compare_conditions(posts, docs, relevant, k_list=(3, 5))
    spans = report["conditions"]["spans"]
    tweets = report["conditions"]["tweets"]
    assert spans["p@5"] > tweets["p@5"]
    assert spans["ndcg@5"] > tweets["ndcg@5"]

    # hand-computed 3-document fixture, written out from the scoring formula
    docs3 = [{"id": "d1", "text": "garlic cures covid"},
             {"id": "d2", "text": "garlic garlic soup recipe"},
             {"id": "d3", "text": "weather report for tuesday"}]
    index = build_index(docs3)
    results = query(index, "garlic cures", k=3)
    avgdl = (3 + 4 + 4) / 3
    idf_garlic = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0)
    idf_cures = math.log((3 - 1 + 0.5) / (1 + 0.5) + 1.0)
    norm_d1 = 1.2 * (1.0 - 0.75 + 0.75 * 3 / avgdl)
    norm_d2 = 1.2 * (1.0 - 0.75 + 0.75 * 4 / avgdl)
    d1_score = idf_garlic * 1 * 2.2 / (1 + norm_d1) + idf_cures * 1 * 2.2 / (1 + norm_d1)
    d2_score = idf_garlic * 2 * 2.2 / (2 + norm_d2)
    assert [doc_id for doc_id, _s in results] == ["d1", "d2"]
    assert results[0][1] == pytest.approx(d1_score, abs=1e-12)
    assert results[1][1] == pytest.approx(d2_score, abs=1e-12)
    print(f"criterion 7: PASS — spans p@5 {spans['p@5']:.3f} > tweets {tweets['p@5']:.3f}, "
          f"ndcg@5 {spans['ndcg@5']:.3f} > {tweets['ndcg@5']:.3f}; "
          "3-doc hand scores reproduced")


def test_criterion_8_metric_fixtures():
    assert dice({0, 1, 2, 3}, {0, 1, 2, 10, 11, 12}) == 0.6
    rank2 = RetrievalJudgment("q", ["x", "a", "y"], {"a"})
    assert abs(ndcg_at_k(rank2, 3) - 1.0 / math.log2(3.0)) < 1e-12
    a = [0.91, 0.88, 0.93, 0.85, 0.90, 0.87, 0.92, 0.89, 0.94, 0.86]
    b = [0.88, 0.85, 0.91, 0.84, 0.87, 0.86, 0.89, 0.88, 0.90, 0.85]
    res = paired_f1_ttest(a, b)
    # reference values computed offline: t = 6.128, p = 0.0001733
    assert float(f"{res['t']:.4g}") == 6.128
    assert float(f"{res['p_two_sided']:.4g}") == 0.0001733
    print("criterion 8: PASS — dice 0.6 exact, nDCG 1/log2(3) within 1e-12, "
          f"t-test t={res['t']:.4g} p={res['p_two_sided']:.4g} to 4 significant figures")


def test_criterion_9_train_determinism(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(n_posts=120, seed=21), corpus_path)
    config_path = tmp_path / "train.cfg"
    config_path.write_text(
        "d = 24\nh = 4\nd_ff = 48\nlayers = 2\nmax_len = 40\nvocab_size = 256\n"
        "dropout_p = 0.1\nadapter_layer = 2\nlearning_rate = 0.003\n"
        "batch_size = 16\nmax_epochs = 3\npatience = 3\nseed = 5\n")
    outputs = []
    for run in ("run1", "run2"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        ckpt = out_dir / "model.json"
        rc = cli_main(["train", "--config", str(config_path),
                       "--input", str(corpus_path), "--output", str(ckpt)])
        assert rc == 0
        outputs.append((ckpt.read_bytes(), (out_dir / "model.json.log").read_bytes()))
    capsys.readouterr()
    assert outputs[0][0] == outputs[1][0], "checkpoints differ between identical runs"
    assert outputs[0][1] == outputs[1][1], "training logs differ between identical runs"
    n_epochs = len(outputs[0][1].strip().splitlines())
    print(f"criterion 9: PASS — two cmd_train runs byte-identical "
          f"({len(outputs[0][0])}-byte checkpoint, {n_epochs}-epoch log)")

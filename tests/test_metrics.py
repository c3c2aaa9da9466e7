import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimspan.metrics import (
    EvalReport,
    Scores,
    build_report,
    dice,
    inspan_indices,
    mean_dice,
    micro_overall_prf,
    overall_prf,
    paired_f1_ttest,
    span_count_ratio,
    student_t_sf_two_sided,
)

from oracles import per_tag_prf_scan

scipy_stats = pytest.importorskip("scipy.stats")


tags = st.sampled_from(["B", "I", "O"])


def seqs(min_posts=1, max_posts=5):
    one = st.lists(tags, min_size=1, max_size=12)
    return st.lists(one, min_size=min_posts, max_size=max_posts).flatmap(
        lambda golds: st.tuples(
            st.just(golds),
            st.tuples(*[st.lists(tags, min_size=len(g), max_size=len(g)) for g in golds]),
        )
    )


# ---------------------------------------------------------------------------
# worked example: one post, gold B I O O, prediction B O O O

def test_single_post_worked_example():
    gold = [["B", "I", "O", "O"]]
    pred = [["B", "O", "O", "O"]]
    report = build_report(pred, gold)
    overall, per_tag = report.overall, report.per_tag
    # in-span tokens: predicted {0}, gold {0, 1}
    assert overall.p == 1.0
    assert overall.r == 0.5
    assert overall.f1 == pytest.approx(2 / 3)
    assert per_tag["B"] == Scores(1.0, 1.0, 1.0)
    assert per_tag["I"] == Scores(0.0, 0.0, 0.0)
    assert per_tag["O"].p == pytest.approx(2 / 3)
    assert per_tag["O"].r == 1.0
    assert per_tag["O"].f1 == pytest.approx(0.8)


def test_perfect_prediction_all_ones():
    gold = [["B", "I", "O"], ["O", "B", "I", "I"]]
    report = build_report(gold, gold)
    overall, per_tag = report.overall, report.per_tag
    assert overall == Scores(1.0, 1.0, 1.0)
    for t in "BIO":
        assert per_tag[t] == Scores(1.0, 1.0, 1.0)


def test_all_o_prediction():
    gold = [["B", "I", "O", "O"]]
    pred = [["O", "O", "O", "O"]]
    overall = build_report(pred, gold).overall
    # no predicted in-span tokens: precision 0/0 -> 0 because gold is non-empty
    assert overall.p == 0.0 and overall.r == 0.0 and overall.f1 == 0.0


def test_both_empty_conventions():
    report = build_report([["O", "O"]], [["O", "O"]])
    overall, per_tag = report.overall, report.per_tag
    assert overall == Scores(1.0, 1.0, 1.0)
    assert per_tag["B"] == Scores(1.0, 1.0, 1.0)  # no B anywhere


def test_macro_over_posts_vs_micro():
    # post 1: tiny, perfect. post 2: large, half recall.
    gold = [["B", "O"], ["B", "I", "I", "I", "I", "I", "I", "I"]]
    pred = [["B", "O"], ["B", "I", "I", "I", "O", "O", "O", "O"]]
    overall = build_report(pred, gold).overall
    # per-post recalls are 1.0 and 0.5 -> macro recall 0.75
    assert overall.r == pytest.approx(0.75)
    micro = micro_overall_prf([inspan_indices(t) for t in pred],
                              [inspan_indices(t) for t in gold])
    # pooled: 5 of 9 gold in-span tokens retrieved
    assert micro.r == pytest.approx(5 / 9)
    assert micro.p == 1.0


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        build_report([["B", "O"]], [["B"]])
    with pytest.raises(ValueError):
        build_report([["B"]], [["B"], ["O"]])
    with pytest.raises(ValueError, match="2 predictions vs 1 references"):
        overall_prf([{0}, set()], [{0}])
    with pytest.raises(ValueError, match="1 predictions vs 2 references"):
        micro_overall_prf([{0}], [{0}, set()])
    for score in (overall_prf, micro_overall_prf, mean_dice):
        with pytest.raises(ValueError, match="no posts to score"):
            score([], [])


# ---------------------------------------------------------------------------
# dice

def test_dice_fixture_point_six():
    a = ["B", "I", "I", "I", "O", "O"]      # in-span {0,1,2,3}
    b = ["O", "B", "I", "I", "O", "O"]      # in-span {1,2,3}, overlap 3
    assert dice(inspan_indices(a), inspan_indices(b)) == pytest.approx(2 * 3 / (4 + 3))
    # 4 predicted, 6 gold, 3 shared: 2*3 / (4+6) = 0.6 exactly
    pred = ["B", "I", "I", "I", "O", "O", "O", "O"]   # {0,1,2,3}
    gold = ["B", "I", "I", "O", "B", "I", "I", "O"]   # {0,1,2,4,5,6}
    assert dice(inspan_indices(pred), inspan_indices(gold)) == 0.6


def test_dice_edge_values():
    assert dice(set(), set()) == 1.0
    assert dice({1, 2}, set()) == 0.0
    assert dice({1}, {2}) == 0.0
    assert dice({1, 2, 3}, {1, 2, 3}) == 1.0


def test_mean_dice():
    pred = [inspan_indices(t) for t in [["B", "I", "O"], ["O", "O", "O"]]]
    gold = [inspan_indices(t) for t in [["B", "I", "O"], ["B", "O", "O"]]]
    assert mean_dice(pred, gold) == pytest.approx((1.0 + 0.0) / 2)
    with pytest.raises(ValueError):
        mean_dice([], [])
    with pytest.raises(ValueError):
        mean_dice(pred, gold[:1])


@given(st.lists(tags, min_size=1, max_size=15), st.lists(tags, min_size=1, max_size=15))
def test_dice_symmetric(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert dice(inspan_indices(a), inspan_indices(b)) == dice(inspan_indices(b), inspan_indices(a))


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=200)
@given(seqs())
def test_swap_exchanges_precision_and_recall(data):
    golds, preds = data
    preds = list(preds)
    r1, r2 = build_report(preds, golds), build_report(golds, preds)
    o1, t1, o2, t2 = r1.overall, r1.per_tag, r2.overall, r2.per_tag
    assert o1.p == pytest.approx(o2.r)
    assert o1.r == pytest.approx(o2.p)
    for t in "BIO":
        assert t1[t].p == pytest.approx(t2[t].r)


@settings(max_examples=200)
@given(seqs())
def test_scores_bounded_and_harmonic(data):
    golds, preds = data
    report = build_report(list(preds), golds)
    overall, per_tag = report.overall, report.per_tag
    for s in [overall, *per_tag.values()]:
        assert 0.0 <= s.p <= 1.0
        assert 0.0 <= s.r <= 1.0
        assert 0.0 <= s.f1 <= 1.0
        if s.p + s.r > 0:
            assert s.f1 == pytest.approx(2 * s.p * s.r / (s.p + s.r), abs=1e-12)
        else:
            assert s.f1 == 0.0


@settings(max_examples=200)
@given(seqs())
def test_per_tag_scores_match_scan(data):
    golds, preds = data
    assert build_report(list(preds), golds).per_tag == per_tag_prf_scan(list(preds), golds)


# ---------------------------------------------------------------------------
# span count ratio

def test_span_count_ratio():
    gold = [[(0, 2)], [(0, 1), (2, 3)]]       # 3 gold spans
    pred = [[(0, 2)], [(2, 3)]]               # 2 predicted
    assert span_count_ratio(pred, gold) == pytest.approx(2 / 3)
    assert span_count_ratio(gold, gold) == 1.0
    none = [[], []]
    assert span_count_ratio(none, gold) == 0.0
    with pytest.raises(ValueError):
        span_count_ratio(pred, none)


# ---------------------------------------------------------------------------
# t distribution / t-test

@settings(max_examples=300)
@given(st.floats(-40, 40), st.integers(1, 40) | st.sampled_from([99, 500, 1000]))
@example(5.96e-8, 32)  # 1 - x cancelled to 0 here and the p-value read exactly 1.0
@example(0.0, 1)
@example(0.0, 2)
@example(1000.0, 30)  # the series written naively as 1 - A reads -2.2e-16 here
def test_student_t_matches_scipy(t, df):
    ours = student_t_sf_two_sided(t, df)
    ref = 2 * scipy_stats.t.sf(abs(t), df)
    # the worst observed disagreement, ~5e-9 at df=1 and t~7e-9, is scipy's
    # own rounding: there ours equals the closed form 1 - 2*atan(t)/pi
    assert ours == pytest.approx(ref, abs=1e-8)
    assert 0.0 <= ours <= 1.0
    if t == 0.0:
        assert ours == 1.0


@settings(max_examples=300, derandomize=True)
@given(st.floats(allow_nan=False), st.integers(1, 1000))
def test_student_t_is_a_probability(t, df):
    assert 0.0 <= student_t_sf_two_sided(t, df) <= 1.0


def test_student_t_rejects_bad_arguments():
    for df in (0, -1, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            student_t_sf_two_sided(1.0, df)
    with pytest.raises(ValueError):
        student_t_sf_two_sided(math.nan, 3)


def test_paired_ttest_fixed_vector():
    a = [0.91, 0.88, 0.93, 0.85, 0.90, 0.87, 0.92, 0.89, 0.94, 0.86]
    b = [0.88, 0.85, 0.91, 0.84, 0.87, 0.86, 0.89, 0.88, 0.90, 0.85]
    res = paired_f1_ttest(a, b)
    ref = scipy_stats.ttest_rel(a, b)
    assert res["df"] == 9
    assert res["t"] == pytest.approx(ref.statistic, abs=1e-10)
    assert res["p_two_sided"] == pytest.approx(ref.pvalue, abs=1e-10)
    # frozen to four significant figures so regressions are loud
    assert float(f"{res['t']:.4g}") == 6.128
    assert float(f"{res['p_two_sided']:.4g}") == 0.0001733


def test_paired_ttest_errors():
    with pytest.raises(ValueError):
        paired_f1_ttest([1.0], [1.0])
    with pytest.raises(ValueError):
        paired_f1_ttest([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        paired_f1_ttest([0.5, 0.6], [0.4, 0.5])  # constant difference


def test_paired_ttest_roundoff_constant_difference():
    # differences 0.1 - 1 ulp, 0.1 + 1 ulp, 0.1 - 1 ulp are the scores' own
    # roundoff, not a spread: the same error as an exactly constant difference
    for a, b in [([0.9, 0.8, 0.7], [0.8, 0.7, 0.6]), ([0.7, 0.3], [0.6, 0.2])]:
        with pytest.raises(ValueError, match="zero variance"):
            paired_f1_ttest(a, b)
    # a real spread of 1e-9 still gives a finite p, with df = 2 to full precision
    a, b = [0.2, 0.2 + 1e-9, 0.2], [0.1, 0.1, 0.1]
    res = paired_f1_ttest(a, b)
    assert 0.0 < res["p_two_sided"] < 1.0
    assert res["p_two_sided"] == pytest.approx(scipy_stats.ttest_rel(a, b).pvalue, rel=1e-7)


def test_paired_ttest_rejects_non_finite_scores():
    # the error names the first bad pair, a NaN or an infinity on either side
    with pytest.raises(ValueError, match=r"pair 1 is not finite"):
        paired_f1_ttest([0.9, math.nan, 0.7, 0.8], [0.8, 0.7, math.inf, 0.6])
    with pytest.raises(ValueError, match=r"pair 2 is not finite"):
        paired_f1_ttest([0.9, 0.8, 0.7, 0.5], [0.8, 0.7, -math.inf, math.nan])


@settings(max_examples=100)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=25),
       st.integers(0, 2 ** 31 - 1))
def test_paired_ttest_matches_scipy(base, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=0.3, size=len(base))
    a = list(np.asarray(base) + noise)
    b = list(base)
    diff = np.asarray(a) - np.asarray(b)
    if np.std(diff, ddof=1) < 1e-9:
        return
    res = paired_f1_ttest(a, b)
    ref = scipy_stats.ttest_rel(a, b)
    assert res["t"] == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
    assert res["p_two_sided"] == pytest.approx(ref.pvalue, rel=1e-7, abs=1e-12)


# ---------------------------------------------------------------------------
# report assembly

def test_build_report_and_json():
    gold = [["B", "I", "O", "O"], ["O", "O", "B", "O"]]
    pred = [["B", "I", "O", "O"], ["O", "O", "O", "O"]]
    gold_spans = [[(0, 2)], [(2, 3)]]
    pred_spans = [[(0, 2)], []]
    report = build_report(pred, gold, pred_spans, gold_spans)
    assert isinstance(report, EvalReport)
    assert report.n_posts == 2
    assert report.averaging == "macro-over-posts"
    assert report.span_count_ratio == 0.5
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["overall"]["averaging"] == "macro-over-posts"
    assert doc["overall_micro"]["averaging"] == "micro-over-tokens"
    assert set(doc["per_tag"]) == {"B", "I", "O"}
    assert doc["dsc"] == pytest.approx(report.dsc)
    assert math.isfinite(doc["overall"]["f1"])
    # without span lists every score but the span-count ratio is the same
    bare = build_report(pred, gold)
    assert bare.span_count_ratio is None
    assert bare.to_dict() == {**report.to_dict(), "span_count_ratio": None}

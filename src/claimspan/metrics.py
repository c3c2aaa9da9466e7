"""Evaluation: token-level P/R/F1 (overall and per tag), dice similarity,
span-count ratio, and a paired t-test over per-post F1 scores.

Averaging rules, pinned by tests:
  * overall P/R are computed per post over in-span token sets and
    macro-averaged across posts; overall F1 is the harmonic mean of those two
    averages (a micro-over-tokens variant is also provided, always labeled);
  * per-tag scores are corpus-level micro, treating that tag as the positive
    class;
  * any 0/0 score is 1 when both positive sets are empty, else 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

from .preprocess import TAG_O, TAGS


@dataclass(frozen=True)
class Scores:
    p: float
    r: float
    f1: float


@dataclass
class EvalReport:
    overall: Scores
    per_tag: dict[str, Scores]
    dsc: float
    span_count_ratio: float | None
    n_posts: int
    overall_micro: Scores
    averaging: ClassVar[str] = "macro-over-posts"

    def to_dict(self) -> dict:
        return {
            "overall": {"p": self.overall.p, "r": self.overall.r, "f1": self.overall.f1,
                        "averaging": self.averaging},
            "per_tag": {t: {"p": s.p, "r": s.r, "f1": s.f1} for t, s in self.per_tag.items()},
            "dsc": self.dsc,
            "span_count_ratio": self.span_count_ratio,
            "n_posts": self.n_posts,
            "overall_micro": {"p": self.overall_micro.p, "r": self.overall_micro.r,
                              "f1": self.overall_micro.f1, "averaging": "micro-over-tokens"},
        }


def _ratio(num: int, den: int, other_empty: bool) -> float:
    if den == 0:
        return 1.0 if other_empty else 0.0
    return num / den


def _harmonic(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def inspan_indices(tags: list[str]) -> set[int]:
    return {i for i, t in enumerate(tags) if t != TAG_O}


def set_prf(pred: set[int], gold: set[int]) -> Scores:
    """P/R/F1 of one post's in-span token sets; empty vs empty scores 1."""
    tp = len(pred & gold)
    p = _ratio(tp, len(pred), not gold)
    r = _ratio(tp, len(gold), not pred)
    return Scores(p, r, _harmonic(p, r))


def dice(pred: set[int], gold: set[int]) -> float:
    """2|A∩B| / (|A|+|B|); both empty scores 1."""
    if not pred and not gold:
        return 1.0
    return 2.0 * len(pred & gold) / (len(pred) + len(gold))


def mean_dice(preds: list[set[int]], golds: list[set[int]]) -> float:
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} references")
    if not preds:
        raise ValueError("no posts to score")
    return sum(dice(a, g) for a, g in zip(preds, golds)) / len(preds)


def overall_prf(preds: list[set[int]], golds: list[set[int]]) -> Scores:
    """Macro-over-posts precision and recall; F1 as their harmonic mean."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} references")
    if not preds:
        raise ValueError("no posts to score")
    per_post = [set_prf(a, g) for a, g in zip(preds, golds)]
    p = sum(s.p for s in per_post) / len(per_post)
    r = sum(s.r for s in per_post) / len(per_post)
    return Scores(p, r, _harmonic(p, r))


def micro_overall_prf(preds: list[set[int]], golds: list[set[int]]) -> Scores:
    """Pooled-over-tokens variant of the overall score."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} references")
    pred_all = {(i, t) for i, s in enumerate(preds) for t in s}
    gold_all = {(i, t) for i, s in enumerate(golds) for t in s}
    return set_prf(pred_all, gold_all)


def _check_aligned(pred: list[list[str]], gold: list[list[str]]) -> None:
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predicted sequences vs {len(gold)} references")
    for i, (a, g) in enumerate(zip(pred, gold)):
        if len(a) != len(g):
            raise ValueError(f"post {i}: predicted {len(a)} tags vs {len(g)} gold")


def _per_tag_prf(pred: list[list[str]], gold: list[list[str]]) -> dict[str, Scores]:
    """Corpus-level micro scores per tag (that tag as the positive class),
    for tag sequences already checked to align, from one pair count."""
    pairs = Counter(zip(chain.from_iterable(pred), chain.from_iterable(gold)))
    out = {}
    for tag in TAGS:
        tp = pairs[tag, tag]
        fp = sum(n for (a, _g), n in pairs.items() if a == tag) - tp
        fn = sum(n for (_a, g), n in pairs.items() if g == tag) - tp
        p = _ratio(tp, tp + fp, tp + fn == 0)
        r = _ratio(tp, tp + fn, tp + fp == 0)
        out[tag] = Scores(p, r, _harmonic(p, r))
    return out


def span_count_ratio(pred_spans: list[list], gold_spans: list[list]) -> float:
    """Total predicted spans over total gold spans, corpus-wide."""
    gold_total = sum(len(s) for s in gold_spans)
    if gold_total == 0:
        raise ValueError("no gold spans; ratio undefined")
    return sum(len(s) for s in pred_spans) / gold_total


def build_report(pred: list[list[str]], gold: list[list[str]],
                 pred_spans: list[list] | None = None,
                 gold_spans: list[list] | None = None) -> EvalReport:
    """Every score of the predicted tag sequences against the gold ones; see
    the module docstring for the rules. The span-count ratio needs both span
    lists and is None without them."""
    _check_aligned(pred, gold)
    pred_sets = [inspan_indices(t) for t in pred]
    gold_sets = [inspan_indices(t) for t in gold]
    return EvalReport(
        overall=overall_prf(pred_sets, gold_sets),
        per_tag=_per_tag_prf(pred, gold),
        dsc=mean_dice(pred_sets, gold_sets),
        span_count_ratio=(None if gold_spans is None
                          else span_count_ratio(pred_spans, gold_spans)),
        n_posts=len(pred),
        overall_micro=micro_overall_prf(pred_sets, gold_sets),
    )


# ---------------------------------------------------------------------------
# Paired t-test with a self-contained t-distribution CDF

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 <= x <= 1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    a = df / 2.0
    x = df / (df + t * t)
    if x < (a + 1.0) / (a + 2.5):
        return reg_inc_beta(a, 0.5, x)
    # Near t = 0, 1 - x cancels to 0; take the small tail t^2 / (df + t^2)
    # directly and use I_x(a, b) = 1 - I_{1-x}(b, a).
    return 1.0 - reg_inc_beta(0.5, a, t * t / (df + t * t))


def paired_f1_ttest(f1_a: list[float], f1_b: list[float]) -> dict[str, float]:
    """Two-sided paired t-test over per-post score pairs.

    Returns {"t", "p_two_sided", "df"}. Zero difference variance (including
    identical lists) is an error: the statistic is undefined there.
    """
    if len(f1_a) != len(f1_b):
        raise ValueError(f"paired lists differ in length: {len(f1_a)} vs {len(f1_b)}")
    n = len(f1_a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    diffs = [a - b for a, b in zip(f1_a, f1_b)]
    mean = sum(diffs) / n
    ss = sum((d - mean) ** 2 for d in diffs)
    if ss == 0.0:
        raise ValueError("zero variance in paired differences; t-test undefined")
    sd = math.sqrt(ss / (n - 1))
    t = mean / (sd / math.sqrt(n))
    return {"t": t, "p_two_sided": student_t_sf_two_sided(t, n - 1), "df": float(n - 1)}

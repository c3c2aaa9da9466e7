"""Evaluation: token-level P/R/F1 (overall and per tag), dice similarity,
span-count ratio, and a paired t-test over paired scores (per post or per
seed), whose p-value is exact for its integer df = n - 1 (the finite series of
Abramowitz & Stegun 26.7.3-26.7.4); differences within a few ulps of the
largest score are a constant difference, for which the test is undefined.

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
from dataclasses import asdict, dataclass
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
        doc = asdict(self)
        doc["overall"]["averaging"] = self.averaging
        doc["overall_micro"]["averaging"] = "micro-over-tokens"
        return doc


def _harmonic(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def _prf(tp: int, n_pred: int, n_gold: int) -> Scores:
    """Scores of ``tp`` hits in ``n_pred`` predicted and ``n_gold`` gold; applies the 0/0 rule."""
    p = tp / n_pred if n_pred else float(n_gold == 0)
    r = tp / n_gold if n_gold else float(n_pred == 0)
    return Scores(p, r, _harmonic(p, r))


def inspan_indices(tags: list[str]) -> set[int]:
    return {i for i, t in enumerate(tags) if t != TAG_O}


def set_prf(pred: set[int], gold: set[int]) -> Scores:
    """P/R/F1 of one post's in-span token sets; empty vs empty scores 1."""
    return _prf(len(pred & gold), len(pred), len(gold))


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
    return _prf(sum(len(a & g) for a, g in zip(preds, golds)),
                sum(map(len, preds)), sum(map(len, golds)))


def _per_tag_prf(pred: list[list[str]], gold: list[list[str]]) -> dict[str, Scores]:
    """Corpus-level micro scores per tag (that tag as the positive class),
    from one pair count over the tag sequences, which must align."""
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predicted sequences vs {len(gold)} references")
    for i, (a, g) in enumerate(zip(pred, gold)):
        if len(a) != len(g):
            raise ValueError(f"post {i}: predicted {len(a)} tags vs {len(g)} gold")
    pairs = Counter(zip(chain.from_iterable(pred), chain.from_iterable(gold)))
    return {tag: _prf(pairs[tag, tag],
                      sum(n for (a, _g), n in pairs.items() if a == tag),
                      sum(n for (_a, g), n in pairs.items() if g == tag))
            for tag in TAGS}


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
    per_tag = _per_tag_prf(pred, gold)  # first, as it checks that the sequences align
    pred_sets = [inspan_indices(t) for t in pred]
    gold_sets = [inspan_indices(t) for t in gold]
    return EvalReport(
        overall=overall_prf(pred_sets, gold_sets),
        per_tag=per_tag,
        dsc=mean_dice(pred_sets, gold_sets),
        span_count_ratio=(None if gold_spans is None
                          else span_count_ratio(pred_spans, gold_spans)),
        n_posts=len(pred),
        overall_micro=micro_overall_prf(pred_sets, gold_sets),
    )


# ---------------------------------------------------------------------------
# Paired t-test with a self-contained t-distribution tail

def student_t_sf_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with a positive integer df (else a
    ValueError): the finite series of Abramowitz & Stegun 26.7.3 (odd df)
    and 26.7.4 (even df) in theta = atan(|t| / sqrt(df)). The absolute error
    is near 1e-16, so a smaller p may read 0; t = 0 gives exactly 1."""
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if math.isnan(t):
        raise ValueError("t is NaN")
    df = int(df)
    # theta and phi = pi/2 - theta, each from atan2 so the small one keeps its digits
    theta = math.atan2(abs(t), math.sqrt(df))
    phi = math.atan2(math.sqrt(df), abs(t))
    s, c, odd = math.sin(theta), math.sin(phi), df % 2
    term, total = 1.0, 0.0
    for k in range(1, df // 2 + 1):
        total += term
        term *= c * c * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:  # 1 - A with 1 - 2 theta / pi taken as 2 phi / pi
        p = (phi - s * c * total) / (math.pi / 2)
    else:  # 1 - A with 1 - sin theta taken as cos^2 theta / (1 + sin theta)
        p = c * c / (1.0 + s) - s * (total - 1.0)
    return max(p, 0.0)


def paired_f1_ttest(f1_a: list[float], f1_b: list[float]) -> dict[str, float]:
    """Two-sided paired t-test over paired scores (per post or per seed);
    returns {"t", "p_two_sided", "df"}. A NaN or infinite score, or a
    constant difference (where t is undefined), is a ValueError; differences
    within 4 ulps of the largest score magnitude count as constant."""
    if len(f1_a) != len(f1_b):
        raise ValueError(f"paired lists differ in length: {len(f1_a)} vs {len(f1_b)}")
    n = len(f1_a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    for i, pair in enumerate(zip(f1_a, f1_b)):
        if not all(map(math.isfinite, pair)):
            raise ValueError(f"pair {i} is not finite: {pair}")
    diffs = [a - b for a, b in zip(f1_a, f1_b)]
    mean = sum(diffs) / n
    ss = sum((d - mean) ** 2 for d in diffs)
    scale = max(map(abs, [*f1_a, *f1_b]))
    if ss == 0.0 or max(diffs) - min(diffs) <= 4 * math.ulp(scale):
        raise ValueError("zero variance in paired differences; t-test undefined")
    sd = math.sqrt(ss / (n - 1))
    t = mean / (sd / math.sqrt(n))
    return {"t": t, "p_two_sided": student_t_sf_two_sided(t, n - 1), "df": float(n - 1)}

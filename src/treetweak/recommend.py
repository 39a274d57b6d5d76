"""Turn transformations into ranked, human-readable change recommendations.

A transformation's diff vector (candidate minus original) yields one
recommendation per moved feature: a direction (increase/decrease), the
magnitude in standardized units, and the same change mapped back to
original units via the feature's standard deviation. Recommendations are
ordered by the model's feature-importance ranking so the most predictive
changes come first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from treetweak.errors import DegenerateRanking, EmptyInput
from treetweak.feature_space import Instance
from treetweak.forest import TreeEnsemble
from treetweak.trainer import midranks
from treetweak.tweaker import Found, Transformation, TweakOutcome

INCREASE = "increase"
DECREASE = "decrease"

HELPFUL = "helpful"
NON_HELPFUL = "non_helpful"
NON_ACTIONABLE = "non_actionable"

VERDICTS = (HELPFUL, NON_HELPFUL, NON_ACTIONABLE)


@dataclass(frozen=True)
class Recommendation:
    """One suggested feature change, in both standardized and raw units."""

    feature_index: int
    feature_name: str
    direction: str  # INCREASE or DECREASE
    magnitude_std: float
    magnitude_raw: float
    from_value_raw: float
    to_value_raw: float
    importance_rank: int


@dataclass(frozen=True)
class RatingRecord:
    """An external rater's verdict on one feature recommendation."""

    feature: int | str
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(
                f"verdict must be one of {VERDICTS}, got {self.verdict!r}"
            )


def importance_ranks(ens: TreeEnsemble) -> list[int]:
    """1-based importance rank per feature (1 = most important).

    Ties in importance break on the lower feature index.
    """
    order = np.argsort(-ens.importances, kind="stable")
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks.tolist()


def diff_to_recommendations(
    x: Instance, transformation: Transformation, ens: TreeEnsemble
) -> list[Recommendation]:
    """One recommendation per moved feature, most important first."""
    ranks = importance_ranks(ens)
    space = ens.feature_space
    diff = transformation.candidate.values - x.values
    recs = []
    for i in np.flatnonzero(diff != 0.0).tolist():
        meta = space.features[i]
        recs.append(
            Recommendation(
                feature_index=i,
                feature_name=meta.name,
                direction=INCREASE if diff[i] > 0 else DECREASE,
                magnitude_std=abs(float(diff[i])),
                magnitude_raw=abs(float(diff[i])) * meta.std_dev,
                from_value_raw=meta.mean + meta.std_dev * float(x.values[i]),
                to_value_raw=meta.mean
                + meta.std_dev * float(transformation.candidate.values[i]),
                importance_rank=ranks[i],
            )
        )
    recs.sort(key=lambda r: r.importance_rank)
    return recs


def categorical_switches(
    x: Instance, transformation: Transformation, ens: TreeEnsemble
) -> list[tuple[str, str, str]]:
    """(group, from_category, to_category) for tweaked indicator groups.

    Only meaningful when indicator features were marked adjustable; the
    tweaked group is projected to its arg-max member on each side.
    """
    space = ens.feature_space
    switches = []
    for group, members in sorted(space.one_hot_groups.items()):
        if not any(i in transformation.changed_indices for i in members):
            continue
        cats = [space.features[i].one_hot.category for i in members]
        raw_from = [
            space.features[i].mean + space.features[i].std_dev * float(x.values[i])
            for i in members
        ]
        raw_to = [
            space.features[i].mean
            + space.features[i].std_dev * float(transformation.candidate.values[i])
            for i in members
        ]
        before = cats[int(np.argmax(raw_from))]
        after = cats[int(np.argmax(raw_to))]
        switches.append((group, before, after))
    return switches


def top_k_transformations(outcome: TweakOutcome, k: int) -> list[Transformation]:
    """Up to k cheapest candidates, deduplicated on identical vectors.

    Ranks the rows of a Found table in (cost, tree, path) order; only the
    rows returned become Transformation objects. Fewer than k come back
    when the pool is smaller; a NotCovered outcome yields an empty list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not isinstance(outcome, Found):
        return []
    rows: list[int] = []
    seen: set[bytes] = set()
    for i in outcome.order.tolist():
        key = outcome.values[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        rows.append(i)
        if len(rows) == k:
            break
    return outcome.transformations(rows)


def feature_frequency_report(
    per_instance_recs: Sequence[Sequence[Sequence]],
) -> dict[str, dict]:
    """Relative feature frequencies in the top-1/2/3 transformations.

    Input: per instance, its ranked transformations, each a sequence of
    recommendations (Recommendation objects or plain feature names). For
    top-m, every recommendation occurrence in each instance's first m
    transformations counts once; frequencies are normalized over all
    occurrences, so each table sums to 1.
    """
    if not per_instance_recs:
        raise EmptyInput("no instances to report on")
    report: dict[str, dict] = {}
    for m in (1, 2, 3):
        counts: Counter = Counter()
        for ranked in per_instance_recs:
            for recs in ranked[:m]:
                for rec in recs:
                    name = rec.feature_name if isinstance(rec, Recommendation) else rec
                    counts[name] += 1
        total = sum(counts.values())
        report[f"top_{m}"] = (
            {name: counts[name] / total for name in sorted(counts)} if total else {}
        )
    return report


def helpfulness(ratings: Iterable[RatingRecord]) -> dict:
    """helpful / (helpful + non_helpful) per feature.

    Non-actionable ratings are a category of their own and stay out of the
    denominator; features with no helpful/non-helpful ratings are omitted.
    """
    helpful: Counter = Counter()
    non_helpful: Counter = Counter()
    for record in ratings:
        if record.verdict == HELPFUL:
            helpful[record.feature] += 1
        elif record.verdict == NON_HELPFUL:
            non_helpful[record.feature] += 1
    out = {}
    for feature in sorted(set(helpful) | set(non_helpful), key=str):
        h = helpful[feature]
        nh = non_helpful[feature]
        out[feature] = h / (h + nh)
    return out


def ranking_from_scores(scores: Mapping) -> dict:
    """Midrank features by descending score (rank 1 = best)."""
    ranks = midranks(-np.asarray(list(scores.values()), dtype=float))
    return dict(zip(scores, ranks.tolist()))


def rank_correlation(ranking_a: Mapping, ranking_b: Mapping) -> float:
    """Pearson correlation between two rankings of the same feature set."""
    if set(ranking_a) != set(ranking_b):
        raise ValueError("rankings must cover the same feature set")
    if len(ranking_a) < 2:
        raise ValueError("rank correlation needs at least 2 features")
    keys = sorted(ranking_a, key=str)
    a = np.asarray([ranking_a[k] for k in keys], dtype=float)
    b = np.asarray([ranking_b[k] for k in keys], dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    va = float((da * da).sum())
    vb = float((db * db).sum())
    if va == 0.0 or vb == 0.0:
        raise DegenerateRanking("constant ranks have no correlation")
    corr = float((da * db).sum()) / float(np.sqrt(va * vb))
    return max(-1.0, min(1.0, corr))

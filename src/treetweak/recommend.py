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

from treetweak.errors import DegenerateRanking, EmptyInput, ParseError, SchemaMismatch
from treetweak.feature_space import Instance, destandardize, read_csv
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
    raw_from = destandardize(x, space)
    raw_to = destandardize(transformation.candidate, space)
    recs = []
    for i in transformation.changed_indices:
        meta = space.features[i]
        recs.append(
            Recommendation(
                feature_index=i,
                feature_name=meta.name,
                direction=INCREASE if diff[i] > 0 else DECREASE,
                magnitude_std=abs(float(diff[i])),
                magnitude_raw=abs(float(diff[i])) * meta.std_dev,
                from_value_raw=float(raw_from[i]),
                to_value_raw=float(raw_to[i]),
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
    raw_from = destandardize(x, space)
    raw_to = destandardize(transformation.candidate, space)
    switches = []
    for group, members in sorted(space.one_hot_groups.items()):
        if transformation.changed_indices.isdisjoint(members):
            continue
        cats = [space.features[i].one_hot.category for i in members]
        before = cats[int(np.argmax(raw_from[list(members)]))]
        after = cats[int(np.argmax(raw_to[list(members)]))]
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
    recommended feature names. For top-m, every name occurrence in each
    instance's first m transformations counts once; frequencies are
    normalized over all occurrences, so each table sums to 1.
    """
    if not per_instance_recs:
        raise EmptyInput("no instances to report on")
    report: dict[str, dict] = {}
    for m in (1, 2, 3):
        counts: Counter = Counter()
        for ranked in per_instance_recs:
            for names in ranked[:m]:
                counts.update(names)
        total = sum(counts.values())
        report[f"top_{m}"] = (
            {name: counts[name] / total for name in sorted(counts)} if total else {}
        )
    return report


def load_ratings(path) -> list[RatingRecord]:
    """Read a ratings CSV with the header ``feature_name,verdict`` into
    records; a row of the wrong width or with a verdict outside
    :data:`VERDICTS` is a ParseError naming its line."""
    header, rows = read_csv(path)
    if header != ["feature_name", "verdict"]:
        raise SchemaMismatch("ratings file must have the header: feature_name,verdict")
    records = []
    for line, row in rows:
        if len(row) != 2:
            raise ParseError(line, f"expected 2 fields, got {len(row)}")
        try:
            records.append(RatingRecord(*row))
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
    return records


def helpfulness(ratings: Iterable[RatingRecord]) -> dict:
    """helpful / (helpful + non_helpful) per feature, best first, ties by
    name.

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
    scores = {f: helpful[f] / (helpful[f] + non_helpful[f]) for f in helpful | non_helpful}
    return dict(sorted(scores.items(), key=lambda kv: (-kv[1], str(kv[0]))))


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

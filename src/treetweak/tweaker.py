"""Minimum-cost feature tweaking for ensemble-negative instances.

Given an instance the forest predicts negative, every positive path of
every negative-voting tree proposes a candidate: conditioned features are
moved to their thresholds with a clearance of epsilon (below the threshold
for a <= condition, above it for a >), everything else keeps the
instance's value. Candidates the whole ensemble re-predicts positive form
the pool; the cheapest one under the chosen cost function is the answer.

Epsilon is expressed in standardized units, i.e. multiples of one standard
deviation of each feature.

One search serves every entry point. :func:`tweak` first checks its
arguments (:func:`check_search_args`), then routes x through every tree
at once (:func:`~treetweak.forest.tree_votes`) and rejects an
ensemble-positive x with NotNegative. It selects the ensemble's
positive-leaf boxes (:attr:`~treetweak.forest.TreeEnsemble.positive_boxes`,
built once per model) of x's negative-voting trees and places every
candidate for every epsilon of a grid at once (tweak's grid is its one
epsilon; :func:`sweep` routes all its instances in one ``tree_votes``
call and passes its whole grid once per eligible instance). Only a
box's entries, one per feature its path tests, are placed and checked;
a feasible candidate is x with those entries written in. The feasible
candidates of the whole grid are re-validated against the forest in one
:func:`~treetweak.forest.positive_rows` call, which stops routing a
candidate once the trees left cannot change the sign of its vote sum,
and the accepted ones of one instance are priced with one row-wise call
per cost function for the whole grid. The accepted candidates stay a table:
:class:`Found` keeps their tree, path, [C, n] values and cost arrays,
ranks them with one lexsort, and builds a Transformation object only for
a row it hands out (the best, the top-k a caller shows, or every row when
``all_candidates`` is read). :func:`candidate_set` is tweak's
``all_candidates``. :func:`brute_force_tweak` keeps the scalar,
path-by-path, candidate-by-candidate enumeration, placement and
validation as the test oracle, stacks its candidates into the same table
and prices them as tweak does.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress
from numbers import Integral, Real
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from treetweak.costs import cost_by_name
from treetweak.errors import (
    InfeasiblePath,
    LengthMismatch,
    NonFiniteValue,
    NotNegative,
    SearchSpaceTooLarge,
)
from treetweak.feature_space import FeatureSpace, Instance
from treetweak.forest import (
    GT,
    LE,
    Path,
    PositiveBoxes,
    TreeEnsemble,
    extract_paths,
    positive_rows,
    predict_ensemble,
    tree_votes,
)

logger = logging.getLogger(__name__)

BRUTE_FORCE_PATH_LIMIT = 100_000

INF = math.inf


@dataclass(frozen=True, eq=False)
class Transformation:
    """A candidate positive instance plus its provenance and cost."""

    candidate: Instance
    source_tree: int
    source_path: int
    cost: float
    changed_indices: frozenset[int]

    def sort_key(self):
        return (self.cost, self.source_tree, self.source_path)


@dataclass(frozen=True, eq=False)
class Found:
    """A transformation exists: the table of accepted candidates.

    Row i comes from positive path ``path[i]`` of tree ``tree[i]``, with
    values ``values[i]`` and cost ``costs[i]`` (inf where undefined); rows
    run in (tree, path) order. ``best`` is the cheapest row, ties broken on
    the smallest (tree, path) as in :meth:`Transformation.sort_key`. A row
    becomes a Transformation only when read, and only once.
    """

    x_values: np.ndarray
    tree: np.ndarray
    path: np.ndarray
    values: np.ndarray
    costs: np.ndarray
    _built: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def num_candidates(self) -> int:
        return len(self.costs)

    @cached_property
    def order(self) -> np.ndarray:
        """Row indices by (cost, tree, path); (tree, path) pairs are unique."""
        return np.lexsort((self.path, self.tree, self.costs))

    @property
    def best(self) -> Transformation:
        return self.transformations([self.order[0]])[0]

    @cached_property
    def all_candidates(self) -> tuple[Transformation, ...]:
        """Every row as a Transformation, in (tree, path) order."""
        return tuple(self.transformations(range(self.num_candidates)))

    def transformations(self, rows) -> list[Transformation]:
        """The given rows as Transformations, each built on first use."""
        rows = [int(i) for i in rows]
        new = [i for i in rows if i not in self._built]
        features = range(len(self.x_values))
        for i, k, p, cost, changed in zip(
            new,
            self.tree[new].tolist(),
            self.path[new].tolist(),
            self.costs[new].tolist(),
            (self.values[new] != self.x_values).tolist(),
        ):
            self._built[i] = Transformation(
                Instance(self.values[i]), k, p, cost, frozenset(compress(features, changed))
            )
        return [self._built[i] for i in rows]


@dataclass(frozen=True)
class NotCovered:
    """No epsilon-satisfactory candidate flips the ensemble."""

    reason: str


TweakOutcome = Found | NotCovered


@dataclass(frozen=True)
class SearchStats:
    trees_searched: int
    paths_examined: int
    infeasible: int
    rejected: int
    truncated: bool

    @property
    def accepted(self) -> int:
        """The candidates that flip the ensemble."""
        return self.paths_examined - self.infeasible - self.rejected


def _check_epsilon(epsilon) -> float:
    if isinstance(epsilon, bool) or not (isinstance(epsilon, Real) and 0 < epsilon < INF):
        raise ValueError(f"epsilon must be a finite real number > 0, got {epsilon!r}")
    return float(epsilon)


def _fold_conditions(conditions) -> dict[int, tuple[float, float]]:
    """Collapse a path's conditions into per-feature (lower, upper] bounds."""
    intervals: dict[int, tuple[float, float]] = {}
    for feature, direction, threshold in conditions:
        lo, hi = intervals.get(feature, (-INF, INF))
        if direction == LE:
            hi = min(hi, threshold)
        elif direction == GT:
            lo = max(lo, threshold)
        else:
            raise ValueError(f"unknown condition direction {direction!r}")
        intervals[feature] = (lo, hi)
    return intervals


def _apply_intervals(x_values, intervals, epsilon, adjustable, skip_satisfied):
    """Assign conditioned features from their folded (lower, upper] boxes.

    A non-adjustable feature keeps x's value, and so does an adjustable one
    x already satisfies when ``skip_satisfied`` is set. Every other feature
    is placed: upper - epsilon when the upper bound is finite, otherwise
    lower + epsilon. The path is infeasible when, for some feature, no
    value is both allowed and inside the box: the chosen value must be
    finite and satisfy lower < value <= upper.
    """
    values = x_values.copy()
    for feature in sorted(intervals):
        lo, hi = intervals[feature]
        v = x_values[feature]
        if adjustable[feature] and not (skip_satisfied and lo < v <= hi):
            v = hi - epsilon if hi < INF else lo + epsilon
        if not (lo < v <= hi and v < INF):
            raise InfeasiblePath(feature)
        values[feature] = v
    return values


def build_positive_instance(
    x: Instance,
    path: Path,
    epsilon: float,
    space: FeatureSpace,
    skip_satisfied: bool = False,
) -> Instance:
    """The epsilon-satisfactory instance of a positive path, seeded from x.

    Every feature the path conditions is set to clear its folded bounds by
    epsilon, even when x already satisfies the condition (pass
    ``skip_satisfied=True`` to keep already-satisfying values instead);
    unconditioned features keep x's values. The result is guaranteed to
    route through the path's tree to this exact leaf.

    x and epsilon are checked by :func:`check_search_args`. Raises
    InfeasiblePath when, for some feature, no value of the feature is both
    allowed and inside the box: an interval too narrow for epsilon, or a
    non-adjustable feature x puts outside its bounds.
    """
    if path.leaf_label != 1:
        raise ValueError("positive instances are built from positive paths only")
    (x_values,), (epsilon,), _ = check_search_args(space.n, [x], [epsilon], [], None)
    intervals = _fold_conditions(path.conditions)
    values = _apply_intervals(
        x_values, intervals, epsilon, space.adjustable_mask, skip_satisfied
    )
    return Instance(values)


def check_search_args(
    n: int,
    instances: Iterable[Instance],
    epsilons: Iterable[float],
    deltas: Iterable[Callable | str],
    budget: int | None,
) -> tuple[np.ndarray, list[float], list[Callable]]:
    """The ``[m, n]`` matrix of the instances' values, each epsilon and
    each cost function, once all pass: LengthMismatch unless an instance
    has n values; NonFiniteValue for a NaN or infinite value; ValueError
    unless epsilon is a finite real > 0, the budget None or an int >= 0
    (neither a bool) and a cost name known. Each argument is read once.
    Every search calls it before it routes an instance."""
    rows = [x.values for x in instances]
    for values in rows:
        if len(values) != n:
            raise LengthMismatch(f"expected {n} values, got {len(values)}")
    X = np.array(rows, dtype=float).reshape(len(rows), n)
    finite = np.isfinite(X)
    if not finite.all():
        bad = np.flatnonzero(~finite[np.argmin(finite.all(axis=1))]).tolist()
        raise NonFiniteValue(f"instance has non-finite values at features {bad}")
    epsilons = [_check_epsilon(epsilon) for epsilon in epsilons]
    if budget is not None and (
        isinstance(budget, bool) or not (isinstance(budget, Integral) and budget >= 0)
    ):
        raise ValueError(f"budget must be None or an int >= 0, got {budget!r}")
    deltas = [cost_by_name(d) if isinstance(d, str) else d for d in deltas]
    return X, epsilons, deltas


def _place(
    boxes: PositiveBoxes,
    rows: np.ndarray,
    x_values: np.ndarray,
    adjustable: np.ndarray,
    epsilons: Sequence[float],
    skip_satisfied: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of _apply_intervals over the entries of the given box
    rows, every epsilon at once: ``[E, rows]`` feasibility and the
    ``[C, n]`` values of the feasible candidates, epsilon by epsilon.

    An entry keeps x's value unless it bounds an adjustable feature (and,
    with skip_satisfied, x lies outside its bounds); the rest take the
    epsilon placement. A candidate is feasible iff every entry's value is
    finite and inside its (lo, hi] bounds: a path is infeasible when, for
    some feature, no value is both allowed and inside the box. A feature
    without an entry keeps x's value, which is finite and unbounded, and
    is never read. Every entry is bounded: the one unbounded entry belongs
    to a tree that is one positive leaf, which votes +1 for every x and so
    is never searched.
    """
    feature, lo, hi = boxes.feature[rows], boxes.lo[rows], boxes.hi[rows]
    x_at = x_values[feature]
    stays = ~adjustable[feature]
    if skip_satisfied:
        stays |= (lo < x_at) & (x_at <= hi)
    epsilon = np.array(epsilons)[:, None, None]
    # A placement past the float range overflows to inf: infeasible.
    with np.errstate(over="ignore"):
        placed = np.where(hi < INF, hi - epsilon, lo + epsilon)
    np.copyto(placed, x_at, where=stays)
    feasible = ((lo < placed) & (placed <= hi) & (placed < INF)).all(axis=2)
    # Each feasible row is x with its entries written in; a padded entry
    # writes the same value twice.
    values = np.tile(x_values, (np.count_nonzero(feasible), 1))
    cells = np.broadcast_to(feature, placed.shape)[feasible]
    cells += np.arange(0, values.size, len(x_values))[:, None]
    values.put(cells, placed[feasible])
    return feasible, values


def _generate_candidates(
    ens: TreeEnsemble,
    x_values: np.ndarray,
    votes: np.ndarray,
    epsilons: Sequence[float],
    skip_satisfied: bool,
    budget: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[SearchStats]]:
    """All ensemble-positive candidates from the negative-voting trees of
    an ensemble-negative x, epsilon by epsilon and in (tree, path) order
    within each, plus each epsilon's counters describing the search.

    The candidates come as three arrays over the whole grid: the source
    tree and path of each and the ``[C, n]`` matrix of their values;
    epsilon e's are the next ``stats[e].accepted`` rows. ``votes`` are
    x's per-tree votes; callers pass only an x whose votes sum to <= 0.
    The candidates of every epsilon are validated in one
    :func:`~treetweak.forest.positive_rows` call: only the sign of a
    candidate's vote sum decides, so a candidate is routed through the
    trees only until the rest cannot change it.
    """
    boxes = ens.positive_boxes
    rows = np.flatnonzero(votes[boxes.tree] == -1)
    # The budget is spent in (tree, ordinal) order, so the truncation
    # point is the same for every run.
    truncated = budget is not None and len(rows) > budget
    if truncated:
        rows = rows[:budget]
        logger.warning(
            "tweak search truncated by budget=%s after %d paths", budget, len(rows)
        )

    feasible, values = _place(
        boxes, rows, x_values, ens.feature_space.adjustable_mask, epsilons, skip_satisfied
    )
    accepted = positive_rows(ens, values)
    kept = np.zeros_like(feasible)
    kept[feasible] = accepted
    source = rows[np.nonzero(kept)[1]]
    searched, examined = int(np.count_nonzero(votes == -1)), len(rows)
    stats = [
        SearchStats(searched, examined, examined - f, f - a, truncated)
        for f, a in zip(feasible.sum(axis=1).tolist(), kept.sum(axis=1).tolist())
    ]
    return boxes.tree[source], boxes.ordinal[source], values[accepted], stats


def _row_costs(delta: Callable, x_values, values: np.ndarray) -> np.ndarray:
    """The cost of every candidate row, from one call to ``delta``.

    An undefined cost (NaN) becomes inf, which ranks the candidate last.
    """
    costs = np.asarray(delta(x_values, values), dtype=float)
    if costs.shape != (len(values),):
        raise LengthMismatch(
            f"cost function returned shape {costs.shape} for {len(values)} candidates"
        )
    undefined = np.isnan(costs)
    if undefined.any():
        logger.warning(
            "cost undefined for %d of %d candidates; ranked last", undefined.sum(), len(costs)
        )
    costs[undefined] = INF
    return costs


def candidate_set(
    ens: TreeEnsemble,
    x: Instance,
    epsilon: float,
    delta: Callable | str,
    skip_satisfied: bool = False,
    budget: int | None = None,
) -> list[Transformation]:
    """Every valid transformation of x: :func:`tweak`'s ``all_candidates``,
    in (tree, path) order.

    Empty when nothing qualifies, including when x is already predicted
    positive. The arguments are checked, and errors raised, as in tweak.
    """
    try:
        outcome = tweak(ens, x, delta, epsilon, skip_satisfied, budget)
    except NotNegative:
        return []
    return list(outcome.all_candidates) if isinstance(outcome, Found) else []


def tweak(
    ens: TreeEnsemble,
    x: Instance,
    delta: Callable | str,
    epsilon: float,
    skip_satisfied: bool = False,
    budget: int | None = None,
) -> TweakOutcome:
    """Cheapest ensemble-flipping transformation of a negative instance.

    Returns Found, the table of accepted candidates with the cheapest as
    ``best``, or NotCovered when no candidate flips the ensemble — an
    explicit outcome rather than silently handing back x unchanged.

    A callable ``delta`` is called once, as ``delta(x_values, Y)`` with the
    ``[C, n]`` matrix of all candidates, and must return a ``[C]`` array
    of costs, NaN where undefined (see :mod:`treetweak.costs`); any other
    shape raises LengthMismatch. The arguments are checked by
    :func:`check_search_args` before x is routed; NotNegative comes after.
    """
    (x_values,), (epsilon,), (delta_fn,) = check_search_args(
        ens.feature_space.n, [x], [epsilon], [delta], budget
    )
    votes = tree_votes(ens, x_values)
    if votes.sum() > 0:
        raise NotNegative("instance is already predicted positive by the ensemble")
    tree, path, values, (stats,) = _generate_candidates(
        ens, x_values, votes, [epsilon], skip_satisfied, budget
    )
    if not len(values):
        reason = (
            f"no candidate flips the ensemble: {stats.paths_examined} positive "
            f"paths over {stats.trees_searched} negative-voting trees "
            f"({stats.infeasible} infeasible, {stats.rejected} rejected)"
        )
        if stats.truncated:
            reason += "; search truncated by budget"
        return NotCovered(reason)
    costs = _row_costs(delta_fn, x_values, values)
    return Found(x_values, tree, path, values, costs)


def brute_force_tweak(
    ens: TreeEnsemble,
    x: Instance,
    delta: Callable | str,
    epsilon: float,
    only_negative_trees: bool = False,
    skip_satisfied: bool = False,
) -> TweakOutcome:
    """Testing oracle: plain enumeration over positive paths of all trees.

    Each tree's paths come from :func:`extract_paths`, and those ending on
    a -1 leaf are skipped. Unlike :func:`tweak` it also visits trees
    already voting positive (pass ``only_negative_trees=True`` for a strict
    A/B against tweak; x's votes then come from one ``tree_votes`` call),
    folds every path from scratch, and never budgets. Guarded to models with at most
    ``BRUTE_FORCE_PATH_LIMIT`` positive paths in scope. Prices the
    candidates as tweak does, with one call to ``delta``.
    """
    (x_values,), (epsilon,), (delta_fn,) = check_search_args(
        ens.feature_space.n, [x], [epsilon], [delta], None
    )
    scope = range(ens.num_trees)
    if only_negative_trees:
        scope = np.flatnonzero(tree_votes(ens, x_values) == -1).tolist()
    total_paths = int(np.isin(ens.positive_boxes.tree, scope).sum())
    if total_paths > BRUTE_FORCE_PATH_LIMIT:
        raise SearchSpaceTooLarge(
            f"{total_paths} positive paths exceed the {BRUTE_FORCE_PATH_LIMIT} limit"
        )

    rows = []
    for k in scope:
        for path in extract_paths(ens, k):
            if path.leaf_label != 1:
                continue
            try:
                inst = build_positive_instance(
                    x, path, epsilon, ens.feature_space, skip_satisfied
                )
            except InfeasiblePath:
                continue
            if predict_ensemble(ens, inst) == 1:
                rows.append((k, path.path_index, inst.values))
    if not rows:
        return NotCovered("exhaustive enumeration found no valid transformation")
    tree, path_index, values = map(np.array, zip(*rows))
    costs = _row_costs(delta_fn, x_values, values)
    return Found(x_values, tree, path_index, values, costs)


# ---------------------------------------------------------------------------
# Tolerance/cost sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    delta: str
    eligible: int
    covered: int
    coverage: float
    candidates_min: float | None
    candidates_p25: float | None
    candidates_p50: float | None
    candidates_p75: float | None
    candidates_max: float | None
    micro_avg_cost: float | None
    median_instance_avg_cost: float | None


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def sweep(
    ens: TreeEnsemble,
    instances: Iterable[Instance],
    epsilon_grid: Iterable[float],
    delta_names: Iterable[str],
    skip_satisfied: bool = False,
    budget: int | None = None,
) -> tuple[SweepRow, ...]:
    """Coverage and cost statistics over a tolerance x cost-function grid.

    For each (epsilon, delta): the fraction of eligible (model-negative)
    instances with at least one valid transformation, quantiles of the
    per-instance candidate counts, the micro-average cost over all
    candidates, and the median of per-instance mean costs. Every instance
    is routed in one ``tree_votes`` call; an eligible one's candidates for
    the whole epsilon grid are generated and validated in one forest call
    and priced in one call per cost function, whose costs are then split
    by epsilon, so a cost function logs undefined costs once per instance.
    Only the counts and costs are kept.

    Every argument is checked by :func:`check_search_args` before any
    instance is routed, and each is read once.
    """
    delta_names = list(delta_names)
    X, epsilons, delta_fns = check_search_args(
        ens.feature_space.n, instances, epsilon_grid, delta_names, budget
    )
    all_votes = tree_votes(ens, X)
    priced = []  # each eligible instance's counts and costs, cell by cell
    for x, votes in zip(X, all_votes):
        if votes.sum() > 0:
            continue
        _, _, values, stats = _generate_candidates(
            ens, x, votes, epsilons, skip_satisfied, budget
        )
        counts = [s.accepted for s in stats]
        ends = np.cumsum(counts)[:-1]
        priced.append((counts, [np.split(_row_costs(fn, x, values), ends) for fn in delta_fns]))
    rows: list[SweepRow] = []
    for e, epsilon in enumerate(epsilons):
        counts = np.asarray([c[e] for c, _ in priced], dtype=float)
        covered = int(np.count_nonzero(counts > 0))
        coverage = covered / len(priced) if priced else 0.0
        quantiles = (None,) * 5
        if priced:
            quantiles = tuple(np.percentile(counts, [0, 25, 50, 75, 100]).tolist())
        for d, name in enumerate(delta_names):
            finite = [c[np.isfinite(c)] for c in (costs[d][e] for _, costs in priced)]
            all_costs = np.concatenate(finite) if finite else np.empty(0)
            instance_means = [float(np.mean(c)) for c in finite if c.size]
            micro_avg = float(np.mean(all_costs)) if all_costs.size else None
            median_avg = float(np.median(instance_means)) if instance_means else None
            rows.append(SweepRow(epsilon, name, len(priced), covered, coverage,
                                 *quantiles, micro_avg, median_avg))
    return tuple(rows)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Serialize the rows of a sweep, one per (epsilon, delta) cell; floats
    are written by ``str``, which keeps full round-trip precision, and
    None as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(map(attrgetter(*SWEEP_COLUMNS), rows))

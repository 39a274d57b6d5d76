"""CART-style decision-tree and bagged random-forest training.

Greedy best-split trees: at every node a random subset of features is
scanned, candidate thresholds are midpoints between consecutive distinct
sorted values, and the split with the largest impurity decrease wins.
Leaves carry the majority label with ties resolved to -1, matching the
ensemble's vote-tie rule.

Training is a pure function of (data, config, seed): bootstrap resampling
and feature subsampling draw from per-tree generators spawned
deterministically from the master seed. All trees grow in lockstep, each
depth first over its own explicit stack: wave w takes node w, in
preorder, of every tree still growing, so each tree makes the same draws
and the same splits as it would alone. Each tree draws its nodes' feature
subsets a block of nodes ahead and each wave decodes them at once, as one
``Generator.choice`` call per node would draw them. A node holds the
distinct samples that reach it, each weighted by its bootstrap count in
its tree, so no repeat is ever expanded. The feature columns are sorted
once per forest, and one segmented search scores every splittable node
of a wave, in calls of at most COLUMN_CAP distinct sample columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from treetweak.errors import (
    DegenerateLabels,
    EmptyDataset,
    EmptyNode,
    LengthMismatch,
    NonFiniteValue,
)
from treetweak.feature_space import FeatureSpace, Instance
from treetweak.forest import ForestNodes, TreeEnsemble, tree_votes, trees_from_nodes

GINI = "gini"
ENTROPY = "entropy"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; None fields resolve against the data at train time.

    max_depth defaults to the number of features n, which bounds each tree
    to at most 2**n leaves. features_per_split defaults to ceil(sqrt(n));
    bootstrap defaults to True for ensembles of more than one tree.
    """

    criterion: str = GINI
    max_depth: int | None = None
    num_trees: int = 1
    features_per_split: int | None = None
    min_samples_split: int = 2
    bootstrap: bool | None = None
    seed: int = 0

    def __post_init__(self):
        if self.criterion not in (GINI, ENTROPY):
            raise ValueError(f"criterion must be {GINI!r} or {ENTROPY!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolve(self, n_features: int) -> tuple[int, int, bool]:
        max_depth = self.max_depth if self.max_depth is not None else n_features
        fps = self.features_per_split
        if fps is None:
            fps = max(1, math.ceil(math.sqrt(n_features)))
        if not 1 <= fps <= n_features:
            raise ValueError(
                f"features_per_split must be in [1, {n_features}], got {fps}"
            )
        bootstrap = self.bootstrap
        if bootstrap is None:
            bootstrap = self.num_trees > 1
        return max_depth, fps, bootstrap


def impurity(counts: tuple[int, int], criterion: str) -> float:
    """Node impurity from (negative, positive) sample counts."""
    neg, pos = counts
    total = neg + pos
    if total <= 0:
        raise EmptyNode("impurity of an empty node is undefined")
    p_neg = neg / total
    p_pos = pos / total
    if criterion == GINI:
        return 1.0 - p_neg * p_neg - p_pos * p_pos
    if criterion == ENTROPY:
        out = 0.0
        for p in (p_neg, p_pos):
            if p > 0.0:
                out -= p * math.log2(p)
        return out
    raise ValueError(f"criterion must be {GINI!r} or {ENTROPY!r}")


def _impurity_vec(neg: np.ndarray, pos: np.ndarray, criterion: str) -> np.ndarray:
    total = neg + pos
    p_neg = neg / total
    p_pos = np.divide(pos, total, out=total)
    if criterion == GINI:
        # 1 - p_neg**2 - p_pos**2, in that order, written over p_neg.
        p_neg *= p_neg
        np.subtract(1.0, p_neg, out=p_neg)
        p_pos *= p_pos
        p_neg -= p_pos
        return p_neg
    # -(p_neg log2 p_neg + p_pos log2 p_pos), where 0 log2 0 is 0.
    log = np.zeros_like(p_neg)
    np.log2(p_neg, out=log, where=p_neg > 0)
    p_neg *= log
    log.fill(0.0)
    np.log2(p_pos, out=log, where=p_pos > 0)
    p_pos *= log
    p_neg += p_pos
    return np.negative(p_neg, out=p_neg)


# Distinct sample columns one segmented split search takes at most. More
# nodes per call save per-call overhead; fewer keep its [features, columns]
# temporaries small. A node with more samples than this is searched alone.
COLUMN_CAP = 8192


class _SortedColumns(NamedTuple):
    """Every feature column sorted once per training run.

    ``rank[f, i]`` is sample i's place in the stable sort of feature f.
    ``sample``, ``values`` and ``pos`` are the samples in that order, their
    values and their positive masks, flat, so that ``f * m + rank``
    indexes them.
    """

    rank: np.ndarray
    sample: np.ndarray
    values: np.ndarray
    pos: np.ndarray


def _sort_columns(Xt: np.ndarray, pos: np.ndarray) -> _SortedColumns:
    order = Xt.argsort(axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(Xt.shape[1]), axis=1)
    values = np.take_along_axis(Xt, order, axis=1)
    return _SortedColumns(rank, order.ravel(), values.ravel(), pos[order].ravel())


class _Splits(NamedTuple):
    """The best split of each node of a segmented search.

    ``gain`` is -inf where no sampled feature has two distinct values;
    ``row`` indexes the winning feature in the node's feature ids.
    ``samples`` holds every node's distinct samples ascending on its
    winning feature, in the node's own columns; the first ``cut`` of them
    have values <= ``threshold``, and weigh ``n_left`` in all, ``pos_left``
    of it positive.
    """

    gain: np.ndarray
    row: np.ndarray
    threshold: np.ndarray
    samples: np.ndarray
    cut: np.ndarray
    n_left: np.ndarray
    pos_left: np.ndarray


def _best_splits(
    cols: _SortedColumns, idx, starts, tree, counts, features, parent_imp, criterion
) -> _Splits:
    """Search the best split of S nodes at once, as one segmented array.

    Node s owns the distinct sample columns ``idx[starts[s]:starts[s + 1]]``,
    each weighted by its count ``counts[tree[s], sample]`` in the node's
    tree (``counts`` is a float64 ``[trees, m]`` table; a node weighs at
    least two), the sorted feature ids ``features[s]`` and the impurity
    ``parent_imp[s]``. Every node gets what a search of it alone, with each
    sample repeated as often as it weighs, gives: thresholds are midpoints
    between consecutive distinct sorted values; within a feature the lowest
    threshold of the largest gain wins, and across features the first.
    """
    width, m, S = len(idx), cols.rank.shape[1], len(starts)
    sizes = np.diff(starts, append=width)
    seg = np.repeat(np.arange(S), sizes)
    # Offsets of every column's features into the flat [n, m] tables.
    offset = (features * m).T.take(seg, axis=1)
    # One sort per feature row by (node, rank) puts each node's samples in
    # ascending value order inside its own columns.
    at = cols.rank.take(offset + idx)
    at += seg * m
    at.sort(axis=1)
    at -= seg * m
    at += offset  # feature * m + rank
    del offset
    boundary = np.zeros(at.shape, dtype=bool)
    v = cols.values.take(at)
    np.greater(v[:, 1:], v[:, :-1], out=boundary[:, :-1])
    del v
    boundary[:, starts + sizes - 1] = False
    # Weights are exact integer counts (float64 holds them), so every
    # cumulative weight read at a value boundary equals the count of the
    # same samples repeated, whatever the order of tied values inside the
    # sort. Taking each node's total off at the next node's first column
    # makes one cumsum restart at every node.
    key = cols.sample.take(at)
    key += (tree * m).take(seg)
    n_left = counts.take(key)
    del key
    pos_left = cols.pos.take(at)
    pos_left *= n_left
    n_node = np.add.reduceat(n_left[0], starts)
    n_pos = np.add.reduceat(pos_left[0], starts)
    for cum, total in ((n_left, n_node), (pos_left, n_pos)):
        cum[:, starts[1:]] -= total[:-1]
        cum.cumsum(axis=1, out=cum)
    # (n_left imp_left + n_right imp_right) / n_node, with the right side
    # written over the left side's cumulative counts. A node's last column
    # has nothing on its right: its 0/0 is masked out below.
    with np.errstate(divide="ignore", invalid="ignore"):
        neg = n_left - pos_left
        child = _impurity_vec(neg, pos_left, criterion)
        child *= n_left
        n_right = np.subtract(n_node.take(seg), n_left, out=n_left)
        pos_right = np.subtract(n_pos.take(seg), pos_left, out=pos_left)
        np.subtract(n_right, pos_right, out=neg)
        right = _impurity_vec(neg, pos_right, criterion)
        right *= n_right
        child += right
        child /= n_node.take(seg)
    gains = np.subtract(parent_imp.take(seg), child, out=child)
    gains[~boundary] = -math.inf
    feature_best = np.maximum.reduceat(gains, starts, axis=1)
    row = feature_best.argmax(axis=0)  # the first feature wins a tie
    gain = feature_best.take(row * S + np.arange(S))
    # The lowest threshold wins within the feature: the first column of the
    # winning row that reaches the best gain.
    column = np.arange(width)
    win = row[seg] * width + column
    hit = gains.take(win) == gain[seg]
    b = np.minimum.reduceat(np.where(hit, column, width), starts)
    at = at.take(win)
    v = cols.values.take(at)
    # A node of one distinct sample has no boundary; clipping keeps its
    # unused hi inside the array.
    lo, hi = v[b], v.take(b + 1, mode="clip")
    # (lo + hi) / 2 is the correctly rounded midpoint unless the sum
    # overflows; there halving first keeps it finite. Halving first
    # everywhere would round twice on subnormal values.
    with np.errstate(over="ignore"):
        threshold = (lo + hi) / 2.0
    huge = np.isinf(threshold)
    threshold[huge] = lo[huge] / 2.0 + hi[huge] / 2.0
    # The partition compares values with the threshold, as routing does;
    # a midpoint may round up onto the next value.
    cut = np.add.reduceat(v <= threshold[seg], starts)
    last = row * width + starts + cut - 1
    return _Splits(
        gain, row, threshold, cols.sample.take(at), cut,
        n_node - n_right.take(last), n_pos - pos_right.take(last),
    )


def _as_arrays(data, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``[n, m]`` transposed feature matrix and the float positive mask.
    Raises LengthMismatch unless every row has n values, and
    NonFiniteValue, naming the row and feature, for a NaN or inf."""
    if len(data) == 0:
        raise EmptyDataset("no instances")
    for inst in data:
        if len(inst.values) != n:
            raise LengthMismatch(f"expected {n} values, got {len(inst.values)}")
    X = np.stack([inst.values for inst in data])
    finite = np.isfinite(X)
    if not finite.all():
        row, feature = np.argwhere(~finite)[0].tolist()
        raise NonFiniteValue(f"instance {row} has value {X[row, feature]} at feature {feature}")
    labels = [inst.label for inst in data]
    if any(lab is None for lab in labels):
        raise ValueError("every instance must be labeled")
    pos = (np.asarray(labels, dtype=int) == 1).astype(np.float64)
    return np.ascontiguousarray(X.T), pos


def _chunks(wave: list) -> Iterator[slice]:
    """Slices of consecutive nodes of the wave holding at most COLUMN_CAP
    distinct samples in all; a node larger than that forms a slice alone."""
    start, width = 0, 0
    for i, node in enumerate(wave):
        if i > start and width + len(node[1]) > COLUMN_CAP:
            yield slice(start, i)
            start, width = i, 0
        width += len(node[1])
    if wave:
        yield slice(start, len(wave))


# Nodes of one tree whose feature subsets one refill draws ahead.
_DRAW_BLOCK = 64


def _subset_drawer(n: int, fps: int, rngs) -> Callable[[list], np.ndarray]:
    """``draw(trees)``: for each tree k in ``trees``, the ascending feature
    ids of its next node, ``np.sort(rngs[k].choice(n, fps, replace=False))``.

    Below n, ``choice`` runs Floyd's method (unless n > 10000 and
    fps > n // 50, where it shuffles instead and is still called): fps
    draws in [0, j], j = n - fps .. n - 1, then fps - 1 shuffle draws in
    [0, i], i = fps - 1 .. 1, each the bounded draw that ``integers`` makes
    with an array ``high``. So one ``integers`` call per tree draws
    _DRAW_BLOCK nodes ahead, and a wave decodes all its sets at once:
    draw s joins the set unless already in it, and then n - fps + s does.
    """
    if fps >= n:
        return lambda trees: np.broadcast_to(np.arange(n), (len(trees), n))
    if n > 10000 and fps > n // 50:
        return lambda trees: np.sort(np.reshape(
            [rngs[k].choice(n, fps, replace=False) for k in trees], (-1, fps)), axis=1)
    highs = np.r_[n - fps + 1 : n + 1, fps : 1 : -1]
    block = np.empty((len(rngs), _DRAW_BLOCK, fps), np.min_scalar_type(n))
    used = np.full(len(rngs), _DRAW_BLOCK)

    def draw(trees):
        trees = np.array(trees, dtype=np.intp)
        for k in trees[used[trees] == _DRAW_BLOCK].tolist():
            block[k] = rngs[k].integers(0, highs, size=(_DRAW_BLOCK, highs.size))[:, :fps]
            used[k] = 0
        drawn = block[trees, used[trees]]
        used[trees] += 1
        rows = np.arange(len(trees))
        chosen = np.zeros((len(trees), n), dtype=bool)
        for s, last in enumerate(range(n - fps, n)):
            chosen[rows, np.where(chosen[rows, drawn[:, s]], last, drawn[:, s])] = True
        return np.nonzero(chosen)[1].reshape(len(trees), fps)

    return draw


def _grow(Xt, pos, counts, cfg: TrainConfig, rngs) -> tuple[ForestNodes, np.ndarray]:
    """Grow one tree per row ``counts[k]``, the float64 number of times
    each sample of ``Xt`` is in tree k's sample, with generator
    ``rngs[k]``, all trees in lockstep.

    A node holds the distinct samples that reach it, each weighted by its
    count: all copies of a sample go the same way at every split, so the
    weight is the same at every node of the tree, and node sizes, the leaf
    majority, ``min_samples_split`` and the importances all count the
    weight. Each tree grows depth first over its own explicit stack, left
    child first, so its nodes (in the JSON layout), its draws from its
    generator and its ``gains`` updates all come in preorder, as if it grew
    alone. Wave w takes node w of every tree still growing; the wave's
    splittable nodes draw their feature subsets through
    :func:`_subset_drawer` and are then scored together by
    :func:`_best_splits`, in calls of at most COLUMN_CAP distinct sample
    columns. The drawer draws up to a block of nodes past a tree's last
    one; that leaves the model unchanged only because nothing draws from
    ``rngs[k]`` after tree k's feature subsets. Returns the
    forest's node store and the ``[K, n]`` per-feature impurity decreases,
    each split adding (node weight fraction x gain).
    """
    n_features = Xt.shape[0]
    max_depth, fps, _ = cfg.resolve(n_features)
    cols = _sort_columns(Xt, pos)
    draw = _subset_drawer(n_features, fps, rngs)
    gains = np.zeros((len(counts), n_features))
    nodes: list[list[dict]] = [[] for _ in counts]
    totals = [int(c.sum()) for c in counts]
    # Per tree: (distinct samples, their weight, its positive part, depth,
    # the split whose right child it is).
    stacks = [
        [(np.flatnonzero(c), total, int(c @ pos), 0, None)]
        for c, total in zip(counts, totals)
    ]
    growing = range(len(counts))
    while growing:
        wave = []
        for k in growing:
            idx, size, n_pos, depth, parent = stacks[k].pop()
            if parent is not None:
                parent["right"] = len(nodes[k])
            n_neg = size - n_pos
            nodes[k].append({"leaf": 1 if n_pos > n_neg else -1})  # majority, ties to -1
            if n_pos and n_neg and depth < max_depth and size >= cfg.min_samples_split:
                parent_imp = impurity((n_neg, n_pos), cfg.criterion)
                wave.append((k, idx, size, n_pos, depth, parent_imp))
        features = draw([node[0] for node in wave])
        for part in _chunks(wave):
            chunk, sampled = wave[part], features[part]
            tree, idx, _, _, _, parent_imp = zip(*chunk)
            starts = np.cumsum([0] + [len(i) for i in idx[:-1]])
            found = _best_splits(
                cols, np.concatenate(idx), starts, np.array(tree), counts,
                sampled, np.array(parent_imp), cfg.criterion,
            )
            ordered = found.samples
            winner = sampled[np.arange(len(chunk)), found.row]
            for node, start, gain, feature, threshold, cut, n_left, pos_left in zip(
                chunk, starts.tolist(), found.gain.tolist(), winner.tolist(),
                found.threshold.tolist(), found.cut.tolist(), found.n_left.tolist(),
                found.pos_left.tolist(),
            ):
                k, idx, size, n_pos, depth, _ = node
                if gain == -math.inf:
                    continue
                # Positive-gain splits are preferred; an impure node where
                # every candidate has exactly zero gain (e.g. XOR patterns)
                # still splits so the subtrees get a chance to separate.
                # Terminates regardless: both children are strictly smaller,
                # unless the midpoint rounds onto the node's largest value
                # and the right child is empty, which max_depth stops.
                gains[k, feature] += (size / totals[k]) * max(gain, 0.0)
                # The split replaces the node's leaf, still its tree's last
                # node: a tree gives one node per wave.
                split = dict(feature=feature, threshold=threshold, left=len(nodes[k]))
                nodes[k][-1] = split
                cut, end = start + cut, start + len(idx)
                n_left, pos_left = int(n_left), int(pos_left)
                stacks[k].append((
                    ordered[cut:end].copy(), size - n_left, n_pos - pos_left, depth + 1, split,
                ))
                stacks[k].append((ordered[start:cut].copy(), n_left, pos_left, depth + 1, None))
        growing = [k for k in growing if stacks[k]]
    return trees_from_nodes(nodes), gains


def train_forest(
    data: list[Instance],
    cfg: TrainConfig,
    space: FeatureSpace,
) -> TreeEnsemble:
    """Train a bagged forest of cfg.num_trees trees.

    Each tree draws its bootstrap sample and feature subsets from its own
    generator, spawned from the master seed; the trees grow in lockstep,
    each over its distinct samples weighted by their bootstrap count.
    The importances, set as the ensemble is built, are the trees' impurity
    decreases averaged over trees and normalized to sum 1, or all zeros
    when no split ever gained (e.g. a forest of single leaves).
    """
    Xt, pos = _as_arrays(data, space.n)
    max_depth, fps, bootstrap = cfg.resolve(space.n)
    m = len(pos)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.num_trees)
    rngs = [np.random.default_rng(stream) for stream in streams]
    counts = np.ones((cfg.num_trees, m))
    if bootstrap:
        for row, rng in zip(counts, rngs):
            row[:] = np.bincount(rng.integers(0, m, size=m), minlength=m)
    nodes, gains = _grow(Xt, pos, counts, cfg, rngs)
    mean = np.mean(gains, axis=0)
    total = mean.sum()
    importances = mean / total if total > 0.0 else np.zeros_like(mean)
    metadata = {
        "num_trees": cfg.num_trees,
        "criterion": cfg.criterion,
        "max_depth": max_depth,
        "features_per_split": fps,
        "min_samples_split": cfg.min_samples_split,
        "bootstrap": bootstrap,
        "seed": cfg.seed,
    }
    return TreeEnsemble(nodes, space, importances, metadata)


def stratified_split(
    data: list[Instance], test_fraction: float = 0.2, seed: int = 0
) -> tuple[list[Instance], list[Instance]]:
    """Deterministic stratified train/test split on labeled instances."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if any(inst.label is None for inst in data):
        raise ValueError("a stratified split needs every instance labeled")
    rng = np.random.default_rng(seed)
    train: list[Instance] = []
    test: list[Instance] = []
    for label in (-1, 1):
        idx = [i for i, inst in enumerate(data) if inst.label == label]
        if not idx:
            continue
        perm = rng.permutation(len(idx))
        n_test = int(round(len(idx) * test_fraction))
        n_test = min(max(n_test, 1), len(idx) - 1) if len(idx) > 1 else 0
        chosen = {idx[p] for p in perm[:n_test]}
        for i in idx:
            (test if i in chosen else train).append(data[i])
    return train, test


@dataclass(frozen=True)
class ClassifierMetrics:
    f1: float
    mcc: float
    roc_auc: float


def midranks(values) -> np.ndarray:
    """1-based ascending ranks of ``values``; each group of ties shares
    the mean (first + last) / 2 of the ranks it spans."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((last - counts + 1 + last) / 2.0)[group]


def roc_auc_from_scores(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("ROC AUC needs both classes present")
    rank_sum = float(midranks(scores)[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_classifier(ens: TreeEnsemble, test_data: list[Instance]) -> ClassifierMetrics:
    """F1, Matthews correlation, and ROC AUC on a labeled holdout set.

    The AUC score for an instance is its fraction of positive tree votes.
    Raises LengthMismatch unless every row has one value per feature.
    """
    Xt, pos = _as_arrays(test_data, ens.feature_space.n)
    if pos.min() == pos.max():
        raise DegenerateLabels("evaluation set contains a single class")
    labels = np.where(pos == 1, 1, -1)

    sums = tree_votes(ens, Xt.T).sum(axis=1)
    preds = np.where(sums <= 0, -1, 1)
    k = ens.num_trees
    scores = (sums + k) // 2 / k  # positive votes over trees, exactly

    tp = int(np.count_nonzero((labels == 1) & (preds == 1)))
    tn = int(np.count_nonzero((labels == -1) & (preds == -1)))
    fp = int(np.count_nonzero((labels == -1) & (preds == 1)))
    fn = int(np.count_nonzero((labels == 1) & (preds == -1)))

    f1 = 2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    denom = math.sqrt(
        float(tp + fp) * float(tp + fn) * float(tn + fp) * float(tn + fn)
    )
    mcc = ((tp * tn - fp * fn) / denom) if denom > 0 else 0.0
    return ClassifierMetrics(f1=f1, mcc=mcc, roc_auc=roc_auc_from_scores(scores, labels))

"""CART-style decision-tree and bagged random-forest training.

Greedy recursive best-split trees: at every node a random subset of
features is scanned, candidate thresholds are midpoints between
consecutive distinct sorted values, and the split with the largest
impurity decrease wins. Leaves carry the majority label with ties resolved
to -1, matching the ensemble's vote-tie rule.

Training is a pure function of (data, config, seed): bootstrap resampling
and feature subsampling draw from per-tree generators spawned
deterministically from the master seed, and trees are built in index
order. Each node sorts all of its sampled features in one call and scores
every threshold of every feature at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from treetweak.errors import DegenerateLabels, EmptyDataset, EmptyNode
from treetweak.feature_space import FeatureSpace, Instance
from treetweak.forest import DecisionTree, TreeEnsemble, vote_sums

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
    p_pos = pos / total
    if criterion == GINI:
        return 1.0 - p_neg * p_neg - p_pos * p_pos

    def plogp(p):
        out = np.zeros_like(p)
        np.log2(p, out=out, where=p > 0)
        return p * out

    return -(plogp(p_neg) + plogp(p_pos))


def _best_split(rows, pos, parent_imp, criterion):
    """Best (gain, row, threshold) over the rows of ``rows``, or None.

    ``rows`` is the ``[f, m]`` matrix of a node's sampled features, one
    feature per row, and ``pos`` its ``[m]`` float vector of positive
    labels (0.0 or 1.0). Thresholds are midpoints between consecutive
    distinct sorted values; within a row the lowest-threshold maximizer
    wins, and across rows the first, keeping the scan deterministic.
    """
    m = rows.shape[1]
    order = rows.argsort(axis=1)
    v = rows[np.arange(len(rows))[:, None], order]
    # Exact integer counts, read only at value boundaries, so the order of
    # tied values inside the sort does not matter.
    cum_pos = pos[order].cumsum(axis=1)
    n_left = np.arange(1.0, m)
    pos_left = cum_pos[:, :-1]
    neg_left = n_left - pos_left
    n_right = m - n_left
    pos_right = cum_pos[:, -1:] - pos_left
    neg_right = n_right - pos_right
    child = (
        n_left * _impurity_vec(neg_left, pos_left, criterion)
        + n_right * _impurity_vec(neg_right, pos_right, criterion)
    ) / m
    gains = np.where(v[:, 1:] > v[:, :-1], parent_imp - child, -math.inf)
    row_best = gains.max(axis=1)
    r = int(row_best.argmax())
    if row_best[r] == -math.inf:
        return None
    b = int(gains[r].argmax())
    return float(row_best[r]), r, (v[r, b] + v[r, b + 1]) / 2.0


def _as_arrays(data) -> tuple[np.ndarray, np.ndarray]:
    """The ``[n, m]`` transposed feature matrix and the float positive mask."""
    if len(data) == 0:
        raise EmptyDataset("no training instances")
    X = np.stack([inst.values for inst in data])
    labels = [inst.label for inst in data]
    if any(lab is None for lab in labels):
        raise ValueError("training instances must be labeled")
    pos = (np.asarray(labels, dtype=int) == 1).astype(np.float64)
    return np.ascontiguousarray(X.T), pos


def _train_tree_arrays(Xt, pos, idx, cfg: TrainConfig, rng) -> DecisionTree:
    """Grow one tree on the samples ``idx`` (repeats allowed) of ``Xt``,
    depth first over an explicit stack, left child first: the nodes (in
    the JSON layout), the draws from ``rng`` and the ``gains`` updates all
    come in preorder."""
    n_features, n_root = Xt.shape[0], len(idx)
    max_depth, fps, _ = cfg.resolve(n_features)
    gains = np.zeros(n_features)
    nodes: list[dict] = []
    # (samples, their positive mask, depth, the split whose right child it is)
    stack = [(idx, pos[idx], 0, None)]
    while stack:
        idx, node_pos, depth, parent = stack.pop()
        if parent is not None:
            parent["right"] = len(nodes)
        n_pos = int(node_pos.sum())
        n_neg = len(idx) - n_pos
        found = None
        if n_pos and n_neg and depth < max_depth and len(idx) >= cfg.min_samples_split:
            if fps >= n_features:
                feature_ids = np.arange(n_features)
            else:
                feature_ids = np.sort(rng.choice(n_features, size=fps, replace=False))
            rows = Xt[feature_ids[:, None], idx]
            parent_imp = impurity((n_neg, n_pos), cfg.criterion)
            found = _best_split(rows, node_pos, parent_imp, cfg.criterion)
        if found is None:
            nodes.append({"leaf": 1 if n_pos > n_neg else -1})  # majority, ties to -1
            continue
        best_gain, r, threshold = found
        # Positive-gain splits are preferred; an impure node where every
        # candidate has exactly zero gain (e.g. XOR patterns) still splits so
        # the subtrees get a chance to separate. Terminates regardless: both
        # children are nonempty and strictly smaller.
        feature = int(feature_ids[r])
        gains[feature] += (len(idx) / n_root) * max(best_gain, 0.0)
        mask = rows[r] <= threshold
        split = dict(feature=feature, threshold=float(threshold), left=len(nodes) + 1)
        nodes.append(split)
        stack.append((idx[~mask], node_pos[~mask], depth + 1, split))
        stack.append((idx[mask], node_pos[mask], depth + 1, None))
    tree = DecisionTree.from_nodes(nodes)
    tree.feature_gains = gains
    return tree


def train_tree(data: list[Instance], cfg: TrainConfig, rng) -> DecisionTree:
    """Grow a single tree; ``rng`` is a numpy Generator."""
    Xt, pos = _as_arrays(data)
    return _train_tree_arrays(Xt, pos, np.arange(len(pos)), cfg, rng)


def train_forest(
    data: list[Instance],
    cfg: TrainConfig,
    space: FeatureSpace,
    seed: int | None = None,
) -> TreeEnsemble:
    """Train a bagged forest of cfg.num_trees trees.

    Each tree draws its bootstrap sample and feature subsets from its own
    generator, spawned from the master seed; trees are built in index order.
    """
    Xt, pos = _as_arrays(data)
    if Xt.shape[0] != space.n:
        raise ValueError(
            f"data has {Xt.shape[0]} features but the space declares {space.n}"
        )
    if seed is None:
        seed = cfg.seed
    max_depth, fps, bootstrap = cfg.resolve(space.n)
    m = len(pos)
    trees = []
    for stream in np.random.SeedSequence(seed).spawn(cfg.num_trees):
        rng = np.random.default_rng(stream)
        idx = rng.integers(0, m, size=m) if bootstrap else np.arange(m)
        trees.append(_train_tree_arrays(Xt, pos, idx, cfg, rng))
    metadata = {
        "num_trees": cfg.num_trees,
        "criterion": cfg.criterion,
        "max_depth": max_depth,
        "features_per_split": fps,
        "min_samples_split": cfg.min_samples_split,
        "bootstrap": bootstrap,
        "seed": seed,
    }
    ens = TreeEnsemble(trees, space, metadata=metadata)
    object.__setattr__(ens, "importances", feature_importances(ens))
    return ens


def feature_importances(ens: TreeEnsemble) -> np.ndarray:
    """Mean decrease in impurity, averaged over trees, normalized to sum 1.

    Per tree, each split contributes (node sample fraction x impurity
    decrease) to its feature; these are recorded while training. An
    all-zero vector is returned when no split ever gained (e.g. a forest
    of single leaves).
    """
    gains = []
    for tree in ens.trees:
        if tree.feature_gains is None:
            raise ValueError("tree has no recorded impurity decreases")
        gains.append(tree.feature_gains)
    mean = np.mean(gains, axis=0)
    total = mean.sum()
    if total <= 0.0:
        return np.zeros_like(mean)
    return mean / total


def stratified_split(
    data: list[Instance], test_fraction: float = 0.2, seed: int = 0
) -> tuple[list[Instance], list[Instance]]:
    """Deterministic stratified train/test split on labeled instances."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
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


def _rank_average(scores: np.ndarray) -> np.ndarray:
    """Midrank transform (1-based); ties share their average rank."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def roc_auc_from_scores(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("ROC AUC needs both classes present")
    ranks = _rank_average(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_classifier(ens: TreeEnsemble, test_data: list[Instance]) -> ClassifierMetrics:
    """F1, Matthews correlation, and ROC AUC on a labeled holdout set.

    The AUC score for an instance is its fraction of positive tree votes.
    """
    if not test_data:
        raise EmptyDataset("no evaluation instances")
    labels = np.asarray([inst.label for inst in test_data], dtype=object)
    if any(lab is None for lab in labels):
        raise ValueError("evaluation instances must be labeled")
    labels = labels.astype(int)
    if len(set(labels.tolist())) < 2:
        raise DegenerateLabels("evaluation set contains a single class")

    sums = vote_sums(ens, np.stack([inst.values for inst in test_data]))
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

"""Binary decision trees with {-1, +1} leaves and their majority-vote ensemble.

Conventions pinned here and relied on everywhere else:

* an internal node routes left when ``value <= threshold`` and right when
  ``value > threshold`` (ties at the threshold go left);
* the ensemble predicts -1 iff the sum of tree votes is <= 0, so an even
  split of votes resolves to -1.

Trees and ensembles are immutable after construction; every read operation
(predict, path extraction, routing) is safe for unrestricted concurrent use.
Each tree also has a lazily built flat-array view (:class:`FlatTree`) that
:func:`vote_sums` uses to route a whole candidate matrix at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from treetweak.errors import CorruptModel, SchemaVersionMismatch
from treetweak.feature_space import FeatureSpace, Instance

FORMAT_VERSION = 1

LE = "le"  # value <= threshold
GT = "gt"  # value >  threshold

POSITIVE = "positive"
NEGATIVE = "negative"
ALL = "all"


@dataclass(frozen=True)
class Leaf:
    label: int

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"leaf label must be -1 or +1, got {self.label!r}")


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: float
    left: "Node"
    right: "Node"


Node = Union[Leaf, Internal]


class Condition(NamedTuple):
    """One boolean test on a path: feature (direction) threshold."""

    feature: int
    direction: str  # LE or GT
    threshold: float


@dataclass(frozen=True)
class Path:
    """A root-to-leaf traversal as its ordered condition list.

    ``path_index`` is the leaf's ordinal in left-to-right (depth-first)
    order over all leaves of the tree, which makes it a stable tie-break
    key. A feature may appear in several conditions of one path.
    """

    conditions: tuple[Condition, ...]
    leaf_label: int
    tree_index: int = 0
    path_index: int = 0


class FlatTree(NamedTuple):
    """A tree as preorder node arrays (the layout of the JSON ``nodes``).

    ``children[i]`` is (right, left) of node i, so column ``int(v <= t)``
    holds the child a value v goes to. A leaf's children are the leaf
    itself, so routing a row for ``depth`` steps always ends on its leaf.
    ``feature`` and ``threshold`` are 0 at leaves, and ``label`` is 0 at
    internal nodes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    label: np.ndarray

    @property
    def left(self) -> np.ndarray:
        return self.children[:, 1]

    @property
    def right(self) -> np.ndarray:
        return self.children[:, 0]


class DecisionTree:
    """An immutable binary tree of threshold tests.

    Construction walks the tree once to validate it (every node object
    unique, labels in {-1, +1}) and to record depth, leaf count, the largest
    feature index (-1 for a lone leaf), and each leaf's depth-first ordinal.
    """

    def __init__(self, root: Node):
        self.root = root
        self.feature_gains: np.ndarray | None = None  # set by the trainer
        leaf_index: dict[int, int] = {}
        positive = 0
        depth = 0
        top_feature = -1
        seen: set[int] = set()
        # Left-first DFS: leaves are met in left-to-right order.
        stack: list[tuple[Node, int]] = [(root, 0)]
        while stack:
            node, d = stack.pop()
            if id(node) in seen:
                raise ValueError("tree nodes must be unique objects")
            seen.add(id(node))
            if d > depth:
                depth = d
            if isinstance(node, Leaf):
                leaf_index[id(node)] = len(leaf_index)
                positive += node.label == 1
                continue
            if not isinstance(node, Internal):
                raise ValueError(f"not a tree node: {node!r}")
            if node.feature < 0:
                raise ValueError("feature index must be nonnegative")
            if node.feature > top_feature:
                top_feature = node.feature
            stack.append((node.right, d + 1))
            stack.append((node.left, d + 1))
        self.depth = depth
        self.leaf_count = len(leaf_index)
        self.max_feature_index = top_feature
        self.positive_leaf_count = positive
        self._leaf_index = leaf_index

    @cached_property
    def flat(self) -> FlatTree:
        """The flat-array view, built on first use by an iterative walk."""
        feature: list[int] = []
        threshold: list[float] = []
        children: list[list[int]] = []
        label: list[int] = []
        # (node, parent slot, column of the parent's children to patch)
        stack: list[tuple[Node, int, int]] = [(self.root, -1, 0)]
        while stack:
            node, parent, side = stack.pop()
            slot = len(feature)
            if parent >= 0:
                children[parent][side] = slot
            if isinstance(node, Leaf):
                feature.append(0)
                threshold.append(0.0)
                children.append([slot, slot])
                label.append(node.label)
                continue
            feature.append(node.feature)
            threshold.append(node.threshold)
            children.append([-1, -1])
            label.append(0)
            stack.append((node.right, slot, 0))
            stack.append((node.left, slot, 1))
        return FlatTree(
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold, dtype=float),
            np.asarray(children, dtype=np.intp).reshape(-1, 2),
            np.asarray(label, dtype=np.intp),
        )


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, Instance) else np.asarray(x, dtype=float)


def predict_tree(tree: DecisionTree, x) -> int:
    """Label of the leaf reached by routing <= left, > right."""
    vals = _values(x)
    node = tree.root
    while isinstance(node, Internal):
        node = node.left if vals[node.feature] <= node.threshold else node.right
    return node.label


def vote_sum(ens: "TreeEnsemble", x) -> int:
    vals = _values(x)
    return sum(predict_tree(tree, vals) for tree in ens.trees)


def vote_sums(ens: "TreeEnsemble", X) -> np.ndarray:
    """Vote sum of every row of a ``[C, n]`` matrix, routing <= left.

    Equal to ``vote_sum`` row by row. Trees are routed one at a time, so
    temporaries stay of size C.
    """
    X = np.asarray(X, dtype=float)
    cells = X.ravel()
    row_start = np.arange(len(X)) * X.shape[1]
    total = np.zeros(len(X), dtype=np.intp)
    for tree in ens.trees:
        flat = tree.flat
        steps = flat.children.ravel()
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(tree.depth):
            go_left = cells[row_start + flat.feature[node]] <= flat.threshold[node]
            node = steps[2 * node + go_left]
        total += flat.label[node]
    return total


def predict_ensemble(ens: "TreeEnsemble", x) -> int:
    """Majority vote: -1 iff the vote sum is <= 0, else +1."""
    return -1 if vote_sum(ens, x) <= 0 else 1


def route(tree: DecisionTree, x, tree_index: int = 0) -> Path:
    """The unique path an instance traverses; leaf_label == predict_tree."""
    vals = _values(x)
    conds: list[Condition] = []
    node = tree.root
    while isinstance(node, Internal):
        if vals[node.feature] <= node.threshold:
            conds.append(Condition(node.feature, LE, node.threshold))
            node = node.left
        else:
            conds.append(Condition(node.feature, GT, node.threshold))
            node = node.right
    return Path(
        conditions=tuple(conds),
        leaf_label=node.label,
        tree_index=tree_index,
        path_index=tree._leaf_index[id(node)],
    )


def extract_paths(
    tree: DecisionTree, polarity: str = ALL, tree_index: int = 0
) -> list[Path]:
    """Depth-first enumeration of root-to-leaf paths with the wanted label."""
    if polarity not in (ALL, POSITIVE, NEGATIVE):
        raise ValueError(f"polarity must be one of {ALL}/{POSITIVE}/{NEGATIVE}")
    wanted = {POSITIVE: (1,), NEGATIVE: (-1,), ALL: (-1, 1)}[polarity]
    paths: list[Path] = []
    ordinal = 0

    def visit(node: Node, conds: list[Condition]):
        nonlocal ordinal
        if isinstance(node, Leaf):
            if node.label in wanted:
                paths.append(
                    Path(tuple(conds), node.label, tree_index, ordinal)
                )
            ordinal += 1
            return
        conds.append(Condition(node.feature, LE, node.threshold))
        visit(node.left, conds)
        conds.pop()
        conds.append(Condition(node.feature, GT, node.threshold))
        visit(node.right, conds)
        conds.pop()

    visit(tree.root, [])
    return paths


@dataclass(frozen=True, eq=False)
class TreeEnsemble:
    """A forest plus the feature space its thresholds live in.

    ``importances`` holds one nonnegative weight per feature, summing to 1
    (or all zeros when never computed).
    """

    trees: tuple[DecisionTree, ...]
    feature_space: FeatureSpace
    importances: np.ndarray = None  # type: ignore[assignment]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        trees = tuple(self.trees)
        if not trees:
            raise ValueError("an ensemble needs at least one tree")
        object.__setattr__(self, "trees", trees)
        n = self.feature_space.n
        for tree in trees:
            if tree.max_feature_index >= n:
                raise ValueError("tree references a feature outside the space")
        imps = self.importances
        imps = np.zeros(n) if imps is None else np.asarray(imps, dtype=float)
        if imps.shape != (n,):
            raise ValueError("importances must have one entry per feature")
        if not np.isfinite(imps).all():
            raise ValueError("importances must be finite")
        if np.any(imps < 0):
            raise ValueError("importances must be nonnegative")
        total = imps.sum()
        if total != 0.0 and abs(total - 1.0) > 1e-9:
            raise ValueError("importances must sum to 1 (or be all zero)")
        object.__setattr__(self, "importances", imps)

    @property
    def num_trees(self) -> int:
        return len(self.trees)


# ---------------------------------------------------------------------------
# Serialization: a versioned JSON document with trees flattened to node
# arrays in preorder (parent before children). Key order and float repr are
# canonical, so re-serializing a loaded model is byte-identical.
# ---------------------------------------------------------------------------


def _flatten_tree(tree: DecisionTree) -> list[dict]:
    flat = tree.flat
    return [
        {"leaf": label}
        if label
        else {"feature": feature, "threshold": threshold, "left": left, "right": right}
        for feature, threshold, (right, left), label in zip(
            flat.feature.tolist(),
            flat.threshold.tolist(),
            flat.children.tolist(),
            flat.label.tolist(),
        )
    ]


def _unflatten_tree(nodes: Sequence[dict], thresholds: list[float]) -> DecisionTree:
    """Rebuild one tree, appending its thresholds to ``thresholds``.

    Every child index must be in range and every node reached from node 0
    exactly once, so the nodes form one tree (no cycles, no shared or
    orphaned nodes); anything else raises :class:`CorruptModel`.
    """
    count = len(nodes)
    if not count:
        raise CorruptModel("tree with no nodes")
    reached = [True] + [False] * (count - 1)
    order = [0]  # parents before children; grows while it is walked
    splits: dict[int, tuple[int, float, int, int]] = {}
    for slot in order:
        entry = nodes[slot]
        if "leaf" in entry:
            continue
        threshold = float(entry["threshold"])
        thresholds.append(threshold)
        left, right = int(entry["left"]), int(entry["right"])
        for child in (left, right):
            if not 0 <= child < count or reached[child]:
                raise CorruptModel(
                    f"node {slot} has child {child}, which is out of range "
                    "or reached twice"
                )
            reached[child] = True
            order.append(child)
        splits[slot] = (int(entry["feature"]), threshold, left, right)
    if len(order) != count:
        raise CorruptModel(f"{count - len(order)} node(s) unreachable from the root")
    built: list = [None] * count
    for slot in reversed(order):
        split = splits.get(slot)
        if split is None:
            built[slot] = Leaf(int(nodes[slot]["leaf"]))
        else:
            feature, threshold, left, right = split
            built[slot] = Internal(feature, threshold, built[left], built[right])
    return DecisionTree(built[0])


def ensemble_to_dict(ens: TreeEnsemble) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "feature_space": ens.feature_space.to_dict(),
        "trees": [{"nodes": _flatten_tree(t)} for t in ens.trees],
        "importances": [float(v) for v in ens.importances],
        "metadata": ens.metadata,
    }


def ensemble_from_dict(doc: dict) -> TreeEnsemble:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"unsupported model format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        stats = np.array(
            [(f["mean"], f["std_dev"]) for f in doc["feature_space"]["features"]],
            dtype=float,
        )
        if not np.isfinite(stats).all():
            raise CorruptModel("feature mean or std_dev is not finite")
        space = FeatureSpace.from_dict(doc["feature_space"])
        thresholds: list[float] = []
        trees = tuple(_unflatten_tree(t["nodes"], thresholds) for t in doc["trees"])
        if not np.isfinite(thresholds).all():
            raise CorruptModel("tree threshold is not finite")
        importances = np.asarray(doc["importances"], dtype=float)
        return TreeEnsemble(trees, space, importances, dict(doc["metadata"]))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModel(f"malformed model document: {exc}") from exc


def dumps_model(ens: TreeEnsemble) -> str:
    return json.dumps(ensemble_to_dict(ens), indent=2, sort_keys=True) + "\n"


def save_model(ens: TreeEnsemble, path) -> None:
    """Write the ensemble as canonical JSON (stable bytes for a fixed model)."""
    text = dumps_model(ens)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> TreeEnsemble:
    """Load a model written by :func:`save_model`."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("model document must be a JSON object")
    return ensemble_from_dict(doc)

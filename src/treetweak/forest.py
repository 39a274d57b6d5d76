"""Binary decision trees with {-1, +1} leaves and their majority-vote ensemble.

Conventions pinned here and relied on everywhere else:

* an internal node routes left when ``value <= threshold`` and right when
  ``value > threshold`` (ties at the threshold go left);
* the ensemble predicts -1 iff the sum of tree votes is <= 0, so an even
  split of votes resolves to -1.

A tree is stored only as preorder node arrays, the layout of the JSON
``nodes``, and every walk over it is a loop over node indices;
:class:`Internal` and :class:`Leaf` are a builder for hand-made trees.
No other module reads that layout: an ensemble hands out its trees' node
arrays concatenated (``nodes``) and the folded box of every positive leaf
(``positive_boxes``), each built once.

Trees and ensembles are immutable after construction; every read operation
(predict, path extraction, routing) is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from treetweak.errors import CorruptModel, NonFiniteValue, SchemaVersionMismatch
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


class DecisionTree:
    """An immutable binary tree of threshold tests, stored as preorder node
    arrays (the layout of the JSON ``nodes``).

    Node 0 is the root and every node comes right before its left subtree,
    so the leaves run left to right. ``children[i]`` is (right, left) of
    node i, so column ``int(v <= t)`` holds the child a value v goes to. A
    leaf's children are the leaf itself, so routing a row for ``depth``
    steps always ends on its leaf. ``feature`` and ``threshold`` are 0 at
    leaves, and ``label`` is 0 at internal nodes.

    ``DecisionTree(root)`` converts a hand-built :class:`Internal`/:class:`Leaf`
    graph, whose node objects must be unique; :meth:`from_nodes` reads the
    JSON node layout.
    """

    def __init__(self, root: Node):
        # The graph as JSON nodes in breadth-first order.
        nodes: list[dict] = []
        objects, seen = [root], {id(root)}
        for node in objects:  # grows while it is walked
            if isinstance(node, Leaf):
                nodes.append({"leaf": node.label})
                continue
            if not isinstance(node, Internal):
                raise ValueError(f"not a tree node: {node!r}")
            for child in (node.left, node.right):
                if id(child) in seen:
                    raise ValueError("tree nodes must be unique objects")
                seen.add(id(child))
            nodes.append(
                {"feature": node.feature, "threshold": node.threshold,
                 "left": len(objects), "right": len(objects) + 1}
            )
            objects += (node.left, node.right)
        self._set_nodes(nodes)

    @classmethod
    def from_nodes(cls, nodes: Sequence[dict]) -> "DecisionTree":
        """A tree from JSON ``nodes`` in any order, node 0 the root."""
        tree = cls.__new__(cls)
        tree._set_nodes(nodes)
        return tree

    def _set_nodes(self, nodes: Sequence[dict]) -> None:
        """Store the nodes in preorder, as found by a left-first walk from
        node 0, and derive the depth, the leaf counts and the largest
        feature index (-1 for a lone leaf). Raises ValueError unless every
        node is reached exactly once (no cycles, no shared or orphaned
        nodes), leaf labels are -1 or +1 and features are nonnegative."""
        count = len(nodes)
        if not count:
            raise ValueError("tree with no nodes")
        reached = [True] + [False] * (count - 1)
        rows: list[list] = []  # [feature, threshold, right child, label]
        depth = 0
        # (node, its depth, preorder slot of the parent whose right child it is)
        stack = [(0, 0, -1)]
        while stack:
            node, d, parent = stack.pop()
            slot = len(rows)
            if parent >= 0:
                rows[parent][2] = slot
            if d > depth:
                depth = d
            entry = nodes[node]
            if "leaf" in entry:
                rows.append([0, 0.0, slot, entry["leaf"]])
                continue
            left, right = int(entry["left"]), int(entry["right"])
            for child in (left, right):
                if not 0 <= child < count or reached[child]:
                    raise ValueError(
                        f"node {node} has child {child}, which is out of range "
                        "or reached twice"
                    )
                reached[child] = True
            rows.append([entry["feature"], entry["threshold"], -1, 0])
            stack += ((right, d + 1, slot), (left, d + 1, -1))
        if len(rows) != count:
            raise ValueError(f"{count - len(rows)} node(s) unreachable from the root")
        feature, threshold, right, label = zip(*rows)
        feature = np.asarray(feature, dtype=np.intp)
        label = np.asarray(label, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        ids = np.arange(count)
        leaf = right == ids
        if not np.array_equal(np.abs(label), leaf):
            raise ValueError("leaf labels must be -1 or +1")
        if np.any(feature < 0):
            raise ValueError("feature index must be nonnegative")
        self.feature = feature
        self.threshold = np.asarray(threshold, dtype=float)
        self.children = np.stack([right, np.where(leaf, ids, ids + 1)], axis=1)
        self.label = label
        self.depth = depth
        self.leaf_count = int(np.count_nonzero(leaf))
        self.positive_leaf_count = int(np.count_nonzero(label == 1))
        self.max_feature_index = int(feature.max(where=~leaf, initial=-1))


class ForestNodes(NamedTuple):
    """All trees' node arrays, concatenated in tree order with child indices
    shifted to match; ``root[k]`` is tree k's root, ``depth`` the largest."""

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    label: np.ndarray
    root: np.ndarray
    depth: int


class PositiveBoxes(NamedTuple):
    """The folded (lo, hi] box of every positive leaf of an ensemble.

    Rows run in (tree, leaf ordinal) order. ``tested[r, f]`` marks the
    features some condition on the leaf's path tests (see
    :func:`extract_paths`); an untested feature has bounds (-inf, inf).
    """

    lo: np.ndarray
    hi: np.ndarray
    tested: np.ndarray
    tree: np.ndarray
    ordinal: np.ndarray


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, Instance) else np.asarray(x, dtype=float)


def predict_tree(tree: DecisionTree, x) -> int:
    """Label of the leaf reached by routing <= left, > right."""
    vals = _values(x)
    node = 0
    while not tree.label[node]:
        go_left = vals[tree.feature[node]] <= tree.threshold[node]
        node = tree.children[node, int(go_left)]
    return int(tree.label[node])


def tree_votes(ens: "TreeEnsemble", x) -> np.ndarray:
    """``[predict_tree(t, x) for t in ens.trees]``, routing all trees at once."""
    vals = _values(x)
    nodes = ens.nodes
    steps = nodes.children.ravel()
    node = nodes.root
    for _ in range(nodes.depth):
        node = steps[2 * node + (vals[nodes.feature[node]] <= nodes.threshold[node])]
    return nodes.label[node]


def vote_sums(ens: "TreeEnsemble", X) -> np.ndarray:
    """Vote sum of every row of a ``[C, n]`` matrix, routing <= left.

    Equal to ``tree_votes(ens, row).sum()`` row by row. Trees are routed
    one at a time, so temporaries stay of size C.
    """
    X = np.asarray(X, dtype=float)
    cells = X.ravel()
    row_start = np.arange(len(X)) * X.shape[1]
    total = np.zeros(len(X), dtype=np.intp)
    for tree in ens.trees:
        steps = tree.children.ravel()
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(tree.depth):
            go_left = cells[row_start + tree.feature[node]] <= tree.threshold[node]
            node = steps[2 * node + go_left]
        total += tree.label[node]
    return total


def predict_ensemble(ens: "TreeEnsemble", x) -> int:
    """Majority vote: -1 iff the vote sum is <= 0, else +1."""
    return -1 if tree_votes(ens, x).sum() <= 0 else 1


def route(tree: DecisionTree, x, tree_index: int = 0) -> Path:
    """The unique path an instance traverses; leaf_label == predict_tree."""
    vals = _values(x)
    conds: list[Condition] = []
    node = 0
    while not tree.label[node]:
        feature, threshold = int(tree.feature[node]), float(tree.threshold[node])
        go_left = vals[feature] <= threshold
        conds.append(Condition(feature, LE if go_left else GT, threshold))
        node = tree.children[node, int(go_left)]
    return Path(
        conditions=tuple(conds),
        leaf_label=int(tree.label[node]),
        tree_index=tree_index,
        # Preorder lists the leaves left to right.
        path_index=int(np.count_nonzero(tree.label[:node])),
    )


def extract_paths(
    tree: DecisionTree, polarity: str = ALL, tree_index: int = 0
) -> list[Path]:
    """Depth-first enumeration of root-to-leaf paths with the wanted label."""
    if polarity not in (ALL, POSITIVE, NEGATIVE):
        raise ValueError(f"polarity must be one of {ALL}/{POSITIVE}/{NEGATIVE}")
    wanted = {POSITIVE: (1,), NEGATIVE: (-1,), ALL: (-1, 1)}[polarity]
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    children, label = tree.children.tolist(), tree.label.tolist()
    paths: list[Path] = []
    ordinal = 0
    # Left-first: leaves are met in left-to-right order.
    stack: list[tuple[int, tuple[Condition, ...]]] = [(0, ())]
    while stack:
        node, conds = stack.pop()
        if label[node]:
            if label[node] in wanted:
                paths.append(Path(conds, label[node], tree_index, ordinal))
            ordinal += 1
            continue
        right, left = children[node]
        f, t = feature[node], threshold[node]
        stack.append((right, conds + (Condition(f, GT, t),)))
        stack.append((left, conds + (Condition(f, LE, t),)))
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

    @cached_property
    def nodes(self) -> ForestNodes:
        """All trees' node arrays in one set, built on first use."""
        trees = self.trees
        root = np.cumsum([0] + [len(tree.label) for tree in trees[:-1]])
        return ForestNodes(
            np.concatenate([tree.feature for tree in trees]),
            np.concatenate([tree.threshold for tree in trees]),
            np.concatenate([t.children + r for t, r in zip(trees, root.tolist())]),
            np.concatenate([tree.label for tree in trees]),
            root,
            max(tree.depth for tree in trees),
        )

    @cached_property
    def positive_boxes(self) -> PositiveBoxes:
        """The box of every positive leaf, built on first use by one climb
        over :attr:`nodes`."""
        feature, threshold, children, label, root, _ = self.nodes
        left, right = children[:, 1], children[:, 0]
        nodes = np.arange(len(label))
        internal = left != nodes
        parent = np.full(len(nodes), -1)
        parent[left[internal]] = nodes[internal]
        parent[right[internal]] = nodes[internal]
        # Preorder lists each tree's leaves left to right, so the positive
        # leaves come out in (tree, leaf ordinal) order.
        leaves = np.flatnonzero(label == 1)
        tree_of = np.searchsorted(root, leaves, side="right") - 1
        leaves_before = np.cumsum(~internal) - ~internal
        ordinal = leaves_before[leaves] - leaves_before[root[tree_of]]

        n = self.feature_space.n
        lo = np.full((len(leaves), n), -np.inf)
        hi = np.full((len(leaves), n), np.inf)
        tested = np.zeros((len(leaves), n), dtype=bool)
        # Climb from every positive leaf of the forest to its root at once,
        # folding each edge into its row; fmin/fmax skip NaN thresholds like
        # min/max do.
        rows = np.arange(len(leaves))
        child = leaves
        while child.size:
            par = parent[child]
            up = par >= 0
            rows, child, par = rows[up], child[up], par[up]
            f, t = feature[par], threshold[par]
            tested[rows, f] = True
            le = left[par] == child
            hi[rows[le], f[le]] = np.fmin(hi[rows[le], f[le]], t[le])
            gt = ~le
            lo[rows[gt], f[gt]] = np.fmax(lo[rows[gt], f[gt]], t[gt])
            child = par
        return PositiveBoxes(lo, hi, tested, tree_of, ordinal)


# ---------------------------------------------------------------------------
# Serialization: a versioned JSON document with trees flattened to node
# arrays in preorder (parent before children). Key order and float repr are
# canonical, so re-serializing a loaded model is byte-identical.
# ---------------------------------------------------------------------------


def _flatten_tree(tree: DecisionTree) -> list[dict]:
    return [
        {"leaf": label}
        if label
        else {"feature": feature, "threshold": threshold, "left": left, "right": right}
        for feature, threshold, (right, left), label in zip(
            tree.feature.tolist(),
            tree.threshold.tolist(),
            tree.children.tolist(),
            tree.label.tolist(),
        )
    ]


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
        space = FeatureSpace.from_dict(doc["feature_space"])
        trees = tuple(DecisionTree.from_nodes(t["nodes"]) for t in doc["trees"])
        if not all(np.isfinite(tree.threshold).all() for tree in trees):
            raise CorruptModel("tree threshold is not finite")
        importances = np.asarray(doc["importances"], dtype=float)
        return TreeEnsemble(trees, space, importances, dict(doc["metadata"]))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, NonFiniteValue) as exc:
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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("model document must be a JSON object")
    return ensemble_from_dict(doc)

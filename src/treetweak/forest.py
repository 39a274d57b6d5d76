"""Binary decision trees with {-1, +1} leaves and their majority-vote ensemble.

Conventions pinned here and relied on everywhere else:

* an internal node routes left when ``value <= threshold`` and right when
  ``value > threshold`` (ties at the threshold go left);
* the ensemble predicts -1 iff the sum of tree votes is <= 0, so an even
  split of votes resolves to -1;
* thresholds are finite.

A forest has one constructor, ``trees_from_nodes(forest)``, which checks
and orders the JSON ``nodes`` lists of a whole forest in one pass of
array operations. It returns the one store of the trees' preorder node
arrays (``ForestNodes``), which an ensemble holds as it is; tree k is the
slice from ``root[k]`` up to the next root, a child index is a position
in the store (only the JSON layout counts from a tree's root), and every
walk over it is a loop over node indices. No other module reads those
arrays: an ensemble hands out the folded box of every positive leaf
(``positive_boxes``), built on first use as one (feature, lo, hi) entry
per feature the leaf's path tests, so its size follows the depth of the
trees and not the number of features.

Every exact vote is read from the node store: :func:`tree_votes` walks
one row, or a matrix of rows, through every tree at once. The tweak
search's validation of candidates asks only whether each candidate's vote
sum is above 0, and :func:`positive_rows` answers that through a second
layout of the trees, also built on first use (``routing``): complete
binary blocks of ``BLOCK_HEIGHT`` levels, in which a child's slot is
``2 * slot + (value <= threshold)``, so a level takes no gather to find a
child. The blocks chain through an exit table, and a leaf fills the slots
below it in its block, so a tree of any depth takes memory linear in its
nodes. The router takes ``GROUP_TREES`` trees at a time over all rows at
once, and after each group it retires the rows whose sign the trees left
can no longer change: they leave its per-row offsets into one C-contiguous
matrix of the rows' values, and no row is copied.

Trees and ensembles are immutable after construction; every read operation
(predict, path extraction, routing) is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from treetweak.errors import CorruptModel, LengthMismatch, SchemaVersionMismatch, TreeTweakError
from treetweak.feature_space import FeatureSpace, Instance

FORMAT_VERSION = 1

LE = "le"  # value <= threshold
GT = "gt"  # value >  threshold


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
    path_index: int = 0


class ForestNodes(NamedTuple):
    """An immutable forest of binary trees of threshold tests, stored as
    preorder node arrays (the layout of the JSON ``nodes``), concatenated
    in tree order; built by :func:`trees_from_nodes`.

    Tree k's nodes run from ``root[k]`` up to the next root, its root
    first and every node right before its left subtree, so its leaves run
    left to right. ``children[i]`` is (right, left) of node i, as store
    positions, so column ``int(v <= t)`` holds the child a value v goes to.
    A leaf's children are the leaf itself, so routing a row for
    ``depth[k]`` steps always ends on its leaf in tree k.
    ``feature`` and ``threshold`` are 0 at leaves, and ``label`` is 0 at
    internal nodes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    label: np.ndarray
    root: np.ndarray
    depth: np.ndarray


def _check_tree(nodes: ForestNodes, k: int) -> None:
    """Raise IndexError unless k is the index of one of the store's trees."""
    if not 0 <= k < len(nodes.root):
        raise IndexError(f"tree index {k} is out of range for num_trees={len(nodes.root)}")


def _tree_arrays(nodes: ForestNodes, k: int) -> tuple[np.ndarray, ...]:
    """Tree k's feature, threshold, children and label, its slice of the
    store from ``root[k]`` up to the next root, with the child indices of
    the JSON layout: the one place they count from the tree's root. Raises
    IndexError unless ``0 <= k < num_trees``."""
    _check_tree(nodes, k)
    root = nodes.root
    end = root[k + 1] if k + 1 < len(root) else len(nodes.label)
    feature, threshold, children, label = (a[root[k]:end] for a in nodes[:4])
    return feature, threshold, children - root[k], label


def _node_error(start: np.ndarray, i: int, what: str) -> ValueError:
    """The error for node ``i`` of the concatenated forest, whose trees
    begin at ``start``."""
    k = int(np.searchsorted(start, i, side="right")) - 1
    return ValueError(f"tree {k}: node {i - int(start[k])} {what}")


def _first(values, bad) -> int:
    """Index of the first value ``bad`` holds for."""
    return next(j for j, v in enumerate(values) if bad(v))


def _overflows(value, dtype) -> bool:
    try:
        np.array(value, dtype=dtype)
    except OverflowError:
        return True
    return False


def _column(nodes: list, key: str, dtype, start, ids) -> np.ndarray:
    """``node[key]`` of every node as one array. Values must be ints, or
    for a float ``dtype`` any int or float (bool is neither). A missing
    key, a value of another type or an integer too large for ``dtype``
    raises ValueError for that node, whose id is ``ids[j]``."""
    try:
        values = list(map(itemgetter(key), nodes))
    except KeyError:
        j = _first(nodes, lambda node: key not in node)
        raise _node_error(start, int(ids[j]), f"has no {key!r}") from None
    if dtype is float:
        types, bad = {int, float}, lambda v: type(v) is bool or not isinstance(v, (int, float))
    else:
        types, bad = {int}, lambda v: type(v) is not int
    if set(map(type, values)) - types:
        # A float subclass, such as numpy's float64, is a number too.
        j = next((j for j, v in enumerate(values) if bad(v)), None)
        if j is not None:
            what = "a number" if dtype is float else "an integer"
            raise _node_error(start, int(ids[j]), f"has {key} {values[j]!r}, which is not {what}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        j = _first(values, lambda v: _overflows(v, dtype))
        raise _node_error(start, int(ids[j]), f"has {key} out of range") from None


def trees_from_nodes(forest: Iterable[Sequence[dict]]) -> ForestNodes:
    """Build every tree of a forest from its JSON ``nodes`` list, all at once.

    Tree k's nodes may come in any order, node 0 its root; the tree is
    stored in preorder as a left-first walk from its root visits it. Each
    column of all the forest's nodes is pulled out in one pass, and the
    structure is checked and ordered by whole-forest array passes, one per
    depth level. ``forest`` is read once: any iterable of lists will do.

    Raises ValueError unless the forest has a tree and, naming the tree,
    unless every tree is a non-empty list of objects and every node is
    reached from its root exactly once (no cycles, no shared or orphaned
    nodes). A node with a ``"leaf"`` key is a leaf, whose label must be
    the integer -1 or +1. Any other node needs a ``feature`` and ``left``
    and ``right`` child indices that are nonnegative integers, and a
    ``threshold`` that is a finite number (bool is neither).
    """
    sizes, flat = [], []
    for k, nodes in enumerate(forest):
        if not isinstance(nodes, (list, tuple)) or not nodes:
            raise ValueError(f"tree {k}: nodes must be a non-empty list")
        sizes.append(len(nodes))
        flat += nodes
    if not sizes:
        raise ValueError("an ensemble needs at least one tree")
    # Node ids run over the whole forest, tree by tree.
    start = np.cumsum([0] + sizes[:-1])
    sizes = np.array(sizes)
    tree_of = np.repeat(np.arange(len(sizes)), sizes)
    count = len(tree_of)
    try:
        leaf_mask = list(map(dict.__contains__, flat, repeat("leaf")))
    except TypeError:  # the descriptor refuses anything but a dict
        i = _first(flat, lambda node: not isinstance(node, dict))
        raise _node_error(start, i, "is not an object") from None
    is_leaf = np.frombuffer(bytes(leaf_mask), dtype=bool)  # True is byte 1
    leaf_ids = np.flatnonzero(is_leaf)
    inner_ids = np.flatnonzero(~is_leaf)
    leaves = list(compress(flat, leaf_mask))
    inner = list(map(flat.__getitem__, inner_ids.tolist()))
    del flat, leaf_mask
    label = _column(leaves, "leaf", np.intp, start, leaf_ids)
    feature = _column(inner, "feature", np.intp, start, inner_ids)
    threshold = _column(inner, "threshold", float, start, inner_ids)
    kids = np.stack([_column(inner, key, np.intp, start, inner_ids) for key in ("left", "right")])
    del leaves, inner
    for ids, bad, what in (
        (leaf_ids, np.abs(label) != 1, "a leaf label other than -1 or +1"),
        (inner_ids, feature < 0, "a negative feature"),
        (inner_ids, ~np.isfinite(threshold), "a threshold that is not finite"),
    ):
        if bad.any():
            raise _node_error(start, int(ids[np.argmax(bad)]), f"has {what}")
    inner_tree = tree_of[inner_ids]
    out = (kids < 0) | (kids >= sizes[inner_tree])
    if out.any():
        j = int(np.argmax(out.any(axis=0)))
        raise _node_error(start, int(inner_ids[j]), "has a child that is not a node of the tree")
    kids += start[inner_tree]
    # Every root has no parent and every other node exactly one.
    parents = np.bincount(kids.ravel(), minlength=count)
    parents[start] += 1
    if (parents != 1).any():
        i = int(np.argmax(parents != 1))
        raise _node_error(start, i, "is unreachable" if parents[i] == 0 else "is reached twice")
    del parents, inner_tree
    lchild = np.zeros(count, dtype=np.intp)
    rchild = np.zeros(count, dtype=np.intp)
    lchild[inner_ids], rchild[inner_ids] = kids

    # Walk down from every root a level at a time. With one parent per node
    # this meets every node at most once and misses only nodes on cycles.
    depth = np.zeros(len(sizes), dtype=np.intp)
    seen = np.zeros(count, dtype=bool)
    levels = []  # the internal nodes of each level
    level = start
    while level.size:
        depth[tree_of[level]] = len(levels)
        seen[level] = True
        split = level[~is_leaf[level]]
        levels.append(split)
        level = np.concatenate((lchild[split], rchild[split]))
    if not seen.all():
        raise _node_error(start, int(np.argmin(seen)), "is unreachable")
    # Subtree sizes bottom-up, then preorder slots top-down: a left child
    # comes right after its parent, a right child right after the left
    # child's subtree.
    subtree = np.ones(count, dtype=np.intp)
    for split in reversed(levels):
        subtree[split] += subtree[lchild[split]] + subtree[rchild[split]]
    slot = np.empty(count, dtype=np.intp)
    slot[start] = start
    for split in levels:
        after = slot[split] + 1
        slot[lchild[split]] = after
        slot[rchild[split]] = after + subtree[lchild[split]]
    del levels, subtree, lchild, rchild

    # The preorder arrays of the forest, in which tree k's slots run from
    # start[k], a child index is the child's slot and a leaf is its own child.
    at = slot[inner_ids]
    children = np.arange(count, dtype=np.intp).repeat(2).reshape(count, 2)
    children[at, 0] = slot[kids[1]]
    children[at, 1] = at + 1
    del kids
    node_feature = np.zeros(count, dtype=np.intp)
    node_feature[at] = feature
    node_threshold = np.zeros(count)
    node_threshold[at] = threshold
    node_label = np.zeros(count, dtype=np.intp)
    node_label[slot[leaf_ids]] = label
    return ForestNodes(node_feature, node_threshold, children, node_label, start, depth)


class PositiveBoxes(NamedTuple):
    """The folded (lo, hi] box of every positive leaf of an ensemble, as
    ``[R, D]`` entries: row r bounds feature ``feature[r, j]`` to
    ``(lo[r, j], hi[r, j]]``, and every feature without an entry is
    unbounded.

    Rows run in (tree, leaf ordinal) order. A row has one entry per
    feature some condition on the leaf's path tests (see
    :func:`extract_paths`), in the order the path first tests them from
    the root; thresholds are finite, so each has a finite bound. A row
    whose path tests nothing (a tree that is one positive leaf) has the one
    entry (-inf, inf] on feature 0. D is the most entries any row has, at
    most the forest's depth (or 1), and a row with fewer repeats its last
    entry, so a padded row bounds the same box.
    """

    feature: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    tree: np.ndarray
    ordinal: np.ndarray


def _box_entries(nodes: ForestNodes) -> tuple[np.ndarray, np.ndarray]:
    """For every node of the store, its entry in the box rows of the
    positive leaves below it, and the number of features first tested
    above it.

    Entries are numbered from the root down: a node's entry is that of the
    highest node above it testing its feature, or else the number of
    features first tested above it. Tree k's nodes are in preorder, so a
    node's subtree runs from it to its rightmost leaf, and a node is the
    first on its path to test its feature unless an earlier node testing
    that feature spans it.
    """
    feature, _, children, label, _, depth = nodes
    inner = np.flatnonzero(label == 0)
    # Follow right children, which a leaf takes to itself, doubling the
    # steps each time.
    rightmost = children[:, 0]
    for _ in range(int(depth.max()).bit_length()):
        rightmost = rightmost[rightmost]
    end = rightmost + 1
    # The internal nodes sorted by key = feature * span + position. The
    # running maximum of feature * span + end stays below a key unless an
    # earlier node of the same feature ends past it, which then spans it.
    span = len(label) + 1
    key = np.sort(feature[inner] * span + inner)
    node = key % span
    reach = np.maximum.accumulate(key - node + end[node])
    first = np.ones(len(key), dtype=bool)
    np.less_equal(reach[:-1], key[1:], out=first[1:])
    firsts = node[first]
    above = np.cumsum(
        np.bincount(firsts + 1, minlength=span) - np.bincount(end[firsts], minlength=span)
    )[:-1]
    # A node that is not first shares the entry of the last first node of
    # its feature before it, the one that spans it.
    entry = np.zeros(len(label), dtype=np.intp)
    entry[node] = above[node[np.maximum.accumulate(np.where(first, np.arange(len(key)), 0))]]
    return entry, above


BLOCK_HEIGHT = 4  # levels of a routing block
GROUP_TREES = 5  # trees routed together, between checks for decided rows
# The most (row, tree) pairs one pass of tree_votes walks. A pass holds
# about 41 bytes per pair at once, some 5 MB at this cap; more rows take
# more passes. An 800-row holdout of a 100-tree forest still takes one.
VOTE_PAIR_CAP = 1 << 17


class RoutingBlocks(NamedTuple):
    """An ensemble's trees cut at depths 0, h, 2h, ... into complete binary
    blocks of height h = ``BLOCK_HEIGHT``, the index :func:`positive_rows`
    routes through.

    ``feature[l]`` and ``threshold[l]`` hold level l of every block, level
    l of block b in slots ``b * 2**l + q``, so the children of slot g are
    slots ``2 * g + 1`` (left) and ``2 * g`` (right) of the next level.
    Below the last level, ``exit`` maps each of a block's ``2**h`` slots to
    the block a row goes on in: the one rooted at that child, or block 0 or
    1 for a leaf labelled -1 or +1. Those two blocks stand for the leaves
    and exit into themselves. A leaf fills every slot of its subtree in its
    block with feature 0 and its label as the threshold: a row there goes
    on to the same leaf whichever way it compares, and the threshold of
    the slot a row stops on is its vote. ``root[k]`` is tree k's first
    block.
    """

    feature: tuple[np.ndarray, ...]
    threshold: tuple[np.ndarray, ...]
    exit: np.ndarray
    root: np.ndarray


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, Instance) else np.asarray(x, dtype=float)


def tree_votes(ens: "TreeEnsemble", x) -> np.ndarray:
    """Every tree's vote, ``route(ens, k, row).leaf_label``: ``[K]`` for
    one row of one value per feature, ``[m, K]`` for an ``[m, n]`` matrix
    of rows. Every (row, tree) pair steps down a level at a time through
    the node store, and a pair at its leaf steps onto the leaf itself.
    The rows are walked in passes of at most ``VOTE_PAIR_CAP`` pairs (at
    least one row), each writing its rows of the one ``[m, K]`` output, so
    the walk's arrays do not grow with m. Raises LengthMismatch unless x
    is one row or a matrix of rows of one value per feature."""
    vals = _values(x)
    n = ens.feature_space.n
    if vals.ndim not in (1, 2) or vals.shape[-1] != n:
        raise LengthMismatch(f"expected {n} values, got shape {vals.shape}")
    feature, threshold, children, label, root, depth = ens.nodes
    rows = vals.reshape(-1, n)
    trees = len(root)
    votes = np.empty((len(rows), trees), dtype=label.dtype)
    steps = children.ravel()
    step_rows = max(VOTE_PAIR_CAP // trees, 1)
    for first in range(0, len(rows), step_rows):
        cells = rows[first:first + step_rows].ravel()
        # Pair (row i, tree k) is entry i * K + k, and its row starts at cell i * n.
        row_start = np.arange(0, cells.size, n).repeat(trees)
        node = np.tile(root, cells.size // n)
        for _ in range(depth.max()):
            value = cells.take(row_start + feature.take(node))
            node = steps.take(2 * node + (value <= threshold.take(node)))
        label.take(node, out=votes[first:first + step_rows].reshape(-1), mode="clip")
    return votes if vals.ndim == 2 else votes[0]


def positive_rows(ens: "TreeEnsemble", X) -> np.ndarray:
    """Which rows of a ``[C, n]`` matrix the ensemble predicts positive:
    ``tree_votes(ens, X).sum(axis=1) > 0``, routed ``GROUP_TREES`` trees at
    a time. A row stops after the first group that decides its sign: its
    sum so far is more than the number of trees left (positive whatever
    they vote), or is at most minus that number (negative). Raises
    LengthMismatch unless X is 2-D with one column per feature.

    A group of g trees over c live rows is routed as one ``[g, c]`` grid of
    slots through the :attr:`~TreeEnsemble.routing` blocks: a row at slot s
    of one level of a block goes to slot ``2 * s + (value <= threshold)``
    of the next, so finding a child takes arithmetic and no gather. Every
    ``BLOCK_HEIGHT`` levels one gather from the exit table moves each slot
    into its next block. The group runs to its deepest tree's depth (at
    least 1): a slot that reaches a leaf stays in the leaf's subtree, or
    in the self-looping block of its label, so the threshold of the slot
    it stops on is its vote.

    X stays one C-contiguous matrix for the whole call (copied once only
    if it comes in another layout), and every level gathers a row's value
    through the row's offset ``row * n`` into it. A decided row retires
    from three per-row arrays, its index, its sum so far and its offset,
    and its values stay where they are. The levels run through four
    buffers of ``GROUP_TREES`` slots per row, made once per call and cut
    to each group's slots, so the loops allocate only the group's sums
    and, as rows are decided, the three smaller per-row arrays. Every slot
    starts at its tree's root, so the first level adds one feature per
    tree to the offsets and compares with one threshold per tree. The
    gathers use ``mode="clip"``: the default mode checks bounds and copies
    through a buffer whenever ``out`` is given, and here every index is in
    range by construction.
    """
    X = np.asarray(X, dtype=float)
    n = ens.feature_space.n
    if X.ndim != 2 or X.shape[1] != n:
        raise LengthMismatch(f"expected rows of {n} values, got shape {X.shape}")
    cells = np.ascontiguousarray(X).ravel()
    feature, threshold, exits, roots = ens.routing
    count, trees = len(X), len(roots)
    depths = np.maximum(ens.nodes.depth, 1)
    positive = np.empty(count, dtype=bool)
    live = np.arange(count)
    starts = live * n  # where each live row's values begin in cells
    total = np.zeros(count)
    size = min(GROUP_TREES, trees) * count
    buffers = [np.empty(size, dtype=np.intp) for _ in range(2)]
    values, thresholds = np.empty(size), np.empty(size)
    for first in range(0, trees, GROUP_TREES):
        blocks = roots[first:first + GROUP_TREES]
        depth = int(depths[first:first + GROUP_TREES].max())
        c, g = len(live), len(blocks)
        slot, idx = (b[:g * c].reshape(g, c) for b in buffers)
        v, th = (b[:g * c].reshape(g, c) for b in (values, thresholds))
        np.add(starts, feature[0][blocks, None], out=idx)
        cells.take(idx, out=v, mode="clip")
        np.less_equal(v, threshold[0][blocks, None], out=slot, casting="unsafe")
        slot += 2 * blocks[:, None]
        for level in range(1, depth):
            at = level % BLOCK_HEIGHT
            if not at:
                exits.take(slot, out=idx, mode="clip")
                slot, idx = idx, slot
            feature[at].take(slot, out=idx, mode="clip")
            idx += starts
            cells.take(idx, out=v, mode="clip")
            threshold[at].take(slot, out=th, mode="clip")
            np.less_equal(v, th, out=idx, casting="unsafe")
            slot <<= 1
            slot += idx
        if not depth % BLOCK_HEIGHT:
            exits.take(slot, out=idx, mode="clip")
            slot = idx
        threshold[depth % BLOCK_HEIGHT].take(slot, out=th, mode="clip")
        total += th.sum(axis=0)
        rest = trees - first - g
        keep = total <= rest
        keep &= total + rest > 0
        if not keep.all():
            positive[live] = total > 0  # the rows that go on are written again
            live, total, starts = live[keep], total[keep], starts[keep]
            if not live.size:
                break
    positive[live] = total > 0
    return positive


def predict_ensemble(ens: "TreeEnsemble", x) -> int:
    """Majority vote on one row: -1 iff the vote sum is <= 0, else +1.
    Raises LengthMismatch unless x is one row of one value per feature."""
    vals = _values(x)
    if vals.ndim != 1:
        raise LengthMismatch(f"expected {ens.feature_space.n} values, got shape {vals.shape}")
    return -1 if tree_votes(ens, vals).sum() <= 0 else 1


def route(ens: "TreeEnsemble", k: int, x) -> Path:
    """The unique path an instance traverses in tree k, with its leaf's
    ordinal. Raises IndexError unless ``0 <= k < ens.num_trees``."""
    _check_tree(ens.nodes, k)
    feature, threshold, children, label, root, _ = ens.nodes
    vals = _values(x)
    conds: list[Condition] = []
    node = first = root[k]
    while not label[node]:
        f, t = int(feature[node]), float(threshold[node])
        go_left = vals[f] <= t
        conds.append(Condition(f, LE if go_left else GT, t))
        node = children[node, int(go_left)]
    return Path(
        conditions=tuple(conds),
        leaf_label=int(label[node]),
        # Preorder lists the leaves left to right.
        path_index=int(np.count_nonzero(label[first:node])),
    )


def extract_paths(ens: "TreeEnsemble", k: int) -> list[Path]:
    """Every root-to-leaf path of tree k, leaves left to right, so a
    path's ``path_index`` is its place in the list. Raises IndexError
    unless ``0 <= k < ens.num_trees``."""
    feature, threshold, children, label = (a.tolist() for a in _tree_arrays(ens.nodes, k))
    paths: list[Path] = []
    # Left-first: leaves are met in left-to-right order.
    stack: list[tuple[int, tuple[Condition, ...]]] = [(0, ())]
    while stack:
        node, conds = stack.pop()
        if label[node]:
            paths.append(Path(conds, label[node], len(paths)))
            continue
        right, left = children[node]
        f, t = feature[node], threshold[node]
        stack.append((right, conds + (Condition(f, GT, t),)))
        stack.append((left, conds + (Condition(f, LE, t),)))
    return paths


@dataclass(frozen=True, eq=False)
class TreeEnsemble:
    """A forest plus the feature space its thresholds live in.

    ``nodes`` is the one store of the trees' arrays, as
    :func:`trees_from_nodes` built it (no copy is made).
    ``importances`` holds one nonnegative weight per feature, summing to 1
    (or all zeros when never computed).
    """

    nodes: ForestNodes
    feature_space: FeatureSpace
    importances: np.ndarray = None  # type: ignore[assignment]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        feature, n = self.nodes.feature, self.feature_space.n
        out = feature >= n  # 0 at leaves, and a space has a feature
        if out.any():
            i = int(np.argmax(out))
            raise _node_error(self.nodes.root, i, f"tests feature {feature[i]}, outside the space")
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
        return len(self.nodes.root)

    @cached_property
    def positive_boxes(self) -> PositiveBoxes:
        """The box of every positive leaf, built on first use: the entries
        are numbered by :func:`_box_entries` and filled by one climb over
        :attr:`nodes`."""
        feature, threshold, children, label, root, _ = self.nodes
        right, left = children.T
        inner = np.flatnonzero(label == 0)
        parent = np.full(len(label), -1)
        parent[left[inner]] = parent[right[inner]] = inner
        # Preorder lists each tree's leaves left to right, so the positive
        # leaves come out in (tree, leaf ordinal) order.
        leaves = np.flatnonzero(label == 1)
        tree = np.searchsorted(root, leaves, side="right") - 1
        leaves_before = np.cumsum(label != 0) - (label != 0)
        ordinal = leaves_before[leaves] - leaves_before[root[tree]]

        # Climb from every positive leaf to its root at once, writing each
        # edge into its row's entry and folding its threshold there. The
        # bounds are kept as lo and -hi, so that every fold is a maximum.
        entry, above = _box_entries(self.nodes)
        count = above[leaves]
        width = max(count.max(initial=0), 1)
        feat = np.zeros((len(leaves), width), dtype=np.intp)
        bound = np.full((2, len(leaves), width), -np.inf)
        feat_cells, bound_cells = feat.reshape(-1), bound.reshape(-1)
        row_start, child = np.arange(len(leaves)) * width, leaves
        while child.size:
            par = parent[child]
            up = par >= 0
            row_start, child, par = row_start[up], child[up], par[up]
            cell = row_start + entry[par]
            feat_cells[cell] = feature[par]
            t = threshold[par]
            le = left[par] == child
            cell += le * feat.size
            bound_cells[cell] = np.maximum(bound_cells[cell], np.where(le, -t, t))
            child = par
        lo, hi = bound
        np.negative(hi, out=hi)
        # A row with fewer entries repeats its last; one with none (a
        # one-leaf tree) is (-inf, inf] on feature 0 throughout.
        pad = np.flatnonzero(np.arange(width) >= count[:, None])
        row = pad // width
        last = row * width + np.maximum(count[row], 1) - 1
        for cells in (feat_cells, lo.reshape(-1), hi.reshape(-1)):
            cells[pad] = cells[last]
        return PositiveBoxes(feat, lo, hi, tree, ordinal)

    @cached_property
    def routing(self) -> RoutingBlocks:
        """The trees cut into routing blocks, built on first use by one
        walk down :attr:`nodes`, ``BLOCK_HEIGHT`` levels at a time."""
        feature, threshold, children, label, root, _ = self.nodes
        height = BLOCK_HEIGHT
        # Each level's slots and the exits, block by block. Blocks 0 and 1
        # are the leaves -1 and +1.
        features = [[np.zeros(2 << l, dtype=np.intp)] for l in range(height)]
        thresholds = [[np.repeat([-1.0, 1.0], 1 << l)] for l in range(height)]
        exits = [np.repeat([0, 1], 1 << height)]
        inner_root = label[root] == 0
        start = (label[root] > 0).astype(np.intp)
        start[inner_root] = 2 + np.arange(np.count_nonzero(inner_root))
        # The blocks rooted at one depth are filled together, their slots in
        # walk order, since the children of slot g are slots 2g and 2g + 1.
        # A leaf's children are the leaf itself, so it fills its subtree.
        node = root[inner_root]
        blocks = 2  # numbered so far
        while node.size:
            blocks += node.size
            for l in range(height):
                leaf_label = label[node]
                features[l].append(feature[node])
                thresholds[l].append(np.where(leaf_label != 0, leaf_label, threshold[node]))
                node = children[node].ravel()
            # Below the last level: a block of the next depth, numbered in
            # walk order, or a leaf's block.
            inner = label[node] == 0
            bottom = np.cumsum(inner)
            bottom += blocks - 1
            np.copyto(bottom, label[node] > 0, where=~inner)
            exits.append(bottom)
            node = node[inner]
        return RoutingBlocks(
            tuple(map(np.concatenate, features)),
            tuple(map(np.concatenate, thresholds)),
            np.concatenate(exits),
            start,
        )


# ---------------------------------------------------------------------------
# Serialization: a versioned JSON document with trees flattened to node
# arrays in preorder (parent before children). Key order and float repr are
# canonical, so re-serializing a loaded model is byte-identical.
# ---------------------------------------------------------------------------


def _flatten_tree(nodes: ForestNodes, k: int) -> list[dict]:
    return [
        {"leaf": label}
        if label
        else {"feature": feature, "threshold": threshold, "left": left, "right": right}
        for feature, threshold, (right, left), label in zip(
            *(a.tolist() for a in _tree_arrays(nodes, k))
        )
    ]


def _document_head(ens: TreeEnsemble) -> dict:
    """The model document without its ``trees``."""
    return {
        "format_version": FORMAT_VERSION,
        "feature_space": ens.feature_space.to_dict(),
        "importances": [float(v) for v in ens.importances],
        "metadata": ens.metadata,
    }


def ensemble_to_dict(ens: TreeEnsemble) -> dict:
    doc = _document_head(ens)
    doc["trees"] = [{"nodes": _flatten_tree(ens.nodes, k)} for k in range(ens.num_trees)]
    return doc


def ensemble_from_dict(doc: dict) -> TreeEnsemble:
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"unsupported model format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        space = FeatureSpace.from_dict(doc["feature_space"])
        entries = doc["trees"]
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict) or "nodes" not in entry:
                raise ValueError(f"tree {k}: expected an object with a 'nodes' list")
        nodes = trees_from_nodes([entry["nodes"] for entry in entries])
        importances = doc["importances"]
        if any(type(v) is bool or not isinstance(v, (int, float)) for v in importances):
            raise ValueError("importances must be numbers")
        if not isinstance(doc["metadata"], dict):
            raise ValueError("metadata must be a JSON object")
        return TreeEnsemble(nodes, space, importances, dict(doc["metadata"]))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, TreeTweakError) as exc:
        raise CorruptModel(f"malformed model document: {exc}") from exc


def _tree_text(nodes: ForestNodes, k: int) -> str:
    """Tree k's entry of the document's ``trees`` as ``json.dumps(indent=2)``
    writes it two levels deep: keys sorted, floats as ``float.__repr__``."""
    feature, threshold, children, label = _tree_arrays(nodes, k)
    lines = [
        f'        {{\n          "leaf": {leaf}\n        }}'
        if leaf
        else f'        {{\n          "feature": {f},\n          "left": {left},'
        f'\n          "right": {right},\n          "threshold": {text}\n        }}'
        for f, text, (right, left), leaf in zip(
            feature.tolist(), map(float.__repr__, threshold.tolist()), children.tolist(),
            label.tolist(),
        )
    ]
    return '    {\n      "nodes": [\n' + ",\n".join(lines) + "\n      ]\n    }"


def dumps_model(ens: TreeEnsemble) -> str:
    """The canonical model text: ``json.dumps(ensemble_to_dict(ens),
    indent=2, sort_keys=True)`` and a newline, byte for byte.

    ``"trees"`` sorts last among the top-level keys, so ``json`` writes the
    rest of the document and the trees are appended, each formatted
    straight from its node arrays.
    """
    head = json.dumps(_document_head(ens), indent=2, sort_keys=True)
    trees = ",\n".join(_tree_text(ens.nodes, k) for k in range(ens.num_trees))
    return f'{head[:-2]},\n  "trees": [\n{trees}\n  ]\n}}\n'


def save_model(ens: TreeEnsemble, path) -> None:
    """Write the ensemble as canonical JSON (stable bytes for a fixed model)."""
    text = dumps_model(ens)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> TreeEnsemble:
    """Load a model written by :func:`save_model`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)  # the text is freed before the trees are built
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CorruptModel(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptModel("model document must be a JSON object")
    return ensemble_from_dict(doc)

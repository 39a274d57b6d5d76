import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetweak.errors import CorruptModel, LengthMismatch, SchemaVersionMismatch
from treetweak.feature_space import FeatureMeta, FeatureSpace, Instance, OneHotMember
from treetweak.forest import (
    BLOCK_HEIGHT,
    GROUP_TREES,
    GT,
    LE,
    VOTE_PAIR_CAP,
    TreeEnsemble,
    dumps_model,
    ensemble_from_dict,
    ensemble_to_dict,
    extract_paths,
    load_model,
    positive_rows,
    predict_ensemble,
    route,
    save_model,
    tree_votes,
    trees_from_nodes,
)
from treetweak.trainer import TrainConfig, train_forest

from conftest import (
    box_entries,
    gaussian_instances,
    plain_space,
    random_ensemble,
    random_tree,
    stump,
    tree,
)


def alone(nodes, n):
    """A one-tree ensemble over n features: its store holds just the tree,
    whose root is node 0."""
    return TreeEnsemble(trees_from_nodes([nodes]), plain_space(n))


def spans(nodes):
    """Each tree's slice of a store: ``root[k]`` up to the next root."""
    bounds = [*nodes.root.tolist(), len(nodes.label)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def replay(tree, path):
    """Walk a one-tree store following the recorded conditions; return the
    leaf's label."""
    node = 0
    for feature, direction, threshold in path.conditions:
        assert tree.label[node] == 0
        assert tree.feature[node] == feature
        assert tree.threshold[node] == threshold
        node = tree.children[node, int(direction == LE)]
    assert tree.label[node] != 0
    return tree.label[node]


def mistyped_stump(node, key, value):
    """A stump's JSON nodes with one value of one node replaced, or with
    the whole node replaced when ``key`` is None."""
    nodes = [{"feature": 0, "threshold": 0.0, "left": 1, "right": 2}, {"leaf": 1}, {"leaf": -1}]
    if key is None:
        nodes[node] = value
    else:
        nodes[node][key] = value
    return nodes


# Trees a model document must not load, each with one defect.
MALFORMED_TREES = {
    # node 1 points back at the root: a cycle
    "cycle": [
        {"feature": 0, "threshold": 0.0, "left": 1, "right": 2},
        {"feature": 1, "threshold": 0.5, "left": 0, "right": 0},
        {"leaf": 1},
    ],
    "negative": [
        {"feature": 0, "threshold": 0.0, "left": 1, "right": -1},
        {"leaf": 1},
        {"leaf": -1},
    ],
    "out-of-range": [{"feature": 0, "threshold": 0.0, "left": 1, "right": 2}, {"leaf": 1}],
    # nodes 3 and 4 shared by two parents
    "shared": [
        {"feature": 0, "threshold": 0.0, "left": 1, "right": 2},
        {"feature": 1, "threshold": 0.5, "left": 3, "right": 4},
        {"feature": 2, "threshold": 0.5, "left": 3, "right": 4},
        {"leaf": 1},
        {"leaf": -1},
    ],
    "unreachable": [
        {"feature": 0, "threshold": 0.0, "left": 1, "right": 2},
        {"leaf": 1},
        {"leaf": -1},
        {"leaf": 1},
    ],
    # nodes 3 and 4 are each other's left child: every node has one
    # parent, but the root never reaches nodes 3-6
    "detached-cycle": [
        {"feature": 0, "threshold": 0.0, "left": 1, "right": 2},
        {"leaf": 1},
        {"leaf": -1},
        {"feature": 1, "threshold": 0.5, "left": 4, "right": 5},
        {"feature": 2, "threshold": 0.5, "left": 3, "right": 6},
        {"leaf": 1},
        {"leaf": -1},
    ],
    # one value of the wrong type, which a cast would read as another model
    "float-feature": mistyped_stump(0, "feature", 0.9),
    "str-feature": mistyped_stump(0, "feature", "0"),
    "float-child": mistyped_stump(0, "left", 1.7),
    "str-child": mistyped_stump(0, "left", "1"),
    "str-threshold": mistyped_stump(0, "threshold", "0.5"),
    "bool-threshold": mistyped_stump(0, "threshold", True),
    "bool-leaf": mistyped_stump(1, "leaf", True),
    "float-leaf": mistyped_stump(1, "leaf", 1.0),
    # a "leaf" key makes a leaf, even with a null label and a valid split
    "null-leaf-with-split": [
        {"feature": 0, "threshold": 0.0, "left": 1, "right": 4},
        {"leaf": None, "feature": 0, "threshold": 0.5, "left": 2, "right": 3},
        {"leaf": 1},
        {"leaf": -1},
        {"leaf": -1},
    ],
    # a node that is not a JSON object
    "list-node": mistyped_stump(1, None, [1]),
    "int-node": mistyped_stump(1, None, 1),
    "null-node": mistyped_stump(1, None, None),
    # integers too large for a node array
    "huge-feature": mistyped_stump(0, "feature", 10**400),
    "huge-child": mistyped_stump(0, "right", 10**400),
    "huge-threshold": mistyped_stump(0, "threshold", 10**400),
}


def preorder_reference(nodes):
    """A well-formed tree's JSON nodes, in any order, as preorder arrays
    (feature, threshold, children, label) and depth, by a left-first walk
    from node 0."""
    rows, depth = [], 0  # [feature, threshold, right, left, label]
    stack = [(0, 0, None)]  # (node, its depth, the row whose right child it is)
    while stack:
        node, d, parent = stack.pop()
        slot, entry, depth = len(rows), nodes[node], max(depth, d)
        if parent is not None:
            parent[2] = slot
        if "leaf" in entry:
            rows.append([0, 0.0, slot, slot, entry["leaf"]])
        else:
            rows.append([entry["feature"], entry["threshold"], None, slot + 1, 0])
            stack += [(entry["right"], d + 1, rows[-1]), (entry["left"], d + 1, None)]
    feature, threshold, right, left, label = zip(*rows)
    return (
        np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
        np.stack([right, left], axis=1).astype(np.intp), np.array(label, dtype=np.intp), depth,
    )


def count_leaves(tree):
    """Leaves of a one-tree store reached from the root by following child
    indices."""
    count, stack = 0, [0]
    while stack:
        node = stack.pop()
        if tree.label[node]:
            count += 1
        else:
            stack.extend(tree.children[node].tolist())
    return count


class TestPredictTree:
    def test_single_leaf(self):
        assert route(alone(tree(1), 1), 0, Instance([123.0])).leaf_label == 1

    def test_stump_boundary_routes_left(self):
        ens = alone(stump(0, 0.5, -1, 1), 1)
        assert route(ens, 0, Instance([0.5])).leaf_label == -1
        assert route(ens, 0, Instance([0.5000001])).leaf_label == 1

    def test_depth3_corners_reach_designed_leaves(self):
        # A full depth-3 tree splitting features 0,1,2 at 0; each of the 8
        # sign corners must reach its own leaf. Leaf labels alternate so
        # neighbours differ.
        labels = [1, -1, -1, 1, -1, 1, 1, -1]

        def level2(i):
            return (2, 0.0, labels[i], labels[i + 1])

        t = tree((0, 0.0, (1, 0.0, level2(0), level2(2)), (1, 0.0, level2(4), level2(6))))
        ens = alone(t, 3)
        for corner in range(8):
            bits = [(corner >> shift) & 1 for shift in (2, 1, 0)]
            x = Instance([1.0 if b else -1.0 for b in bits])
            assert route(ens, 0, x).leaf_label == labels[corner]
            assert route(ens, 0, x).path_index == corner


class TestPredictEnsemble:
    def test_single_positive_vote(self):
        ens = TreeEnsemble(trees_from_nodes([tree(1)]), plain_space(1))
        assert predict_ensemble(ens, Instance([0.0])) == 1

    def test_majority_negative(self):
        trees = (tree(-1), tree(-1), tree(1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(1))
        assert predict_ensemble(ens, Instance([0.0])) == -1

    def test_even_tie_resolves_negative(self):
        trees = (tree(1), tree(-1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(1))
        assert tree_votes(ens, Instance([0.0])).sum() == 0
        assert predict_ensemble(ens, Instance([0.0])) == -1

    def test_sign_rule_matches_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ens = random_ensemble(rng, int(rng.integers(1, 6)), 4, 3)
            for _ in range(20):
                x = Instance(rng.normal(0, 2, 4))
                total = sum(route(ens, k, x).leaf_label for k in range(ens.num_trees))
                assert predict_ensemble(ens, x) == (-1 if total <= 0 else 1)



def chain_nodes(depth):
    """The ``nodes`` of a tree ``depth`` levels deep: node i tests feature
    i % 6 against i / 8, its left child is a -1 leaf and its right child
    goes on down, to a +1 leaf at the bottom."""
    nodes = []
    for i in range(depth):
        slot = len(nodes)
        nodes.append({"feature": i % 6, "threshold": i / 8, "left": slot + 1, "right": slot + 2})
        nodes.append({"leaf": -1})
    nodes.append({"leaf": 1})
    return nodes


@st.composite
def specs_of_depth(draw, depth, n, threshold):
    """A tree spec (see ``conftest.tree``) exactly ``depth`` levels deep:
    one child of each node goes all the way down, the other at most 3
    levels."""
    feature, label, side = st.integers(0, n - 1), st.sampled_from([-1, 1]), st.booleans()
    side_depth = [st.integers(0, k) for k in range(4)]

    def spec(depth):
        if not depth:
            return draw(label)
        deep = spec(depth - 1)
        other = spec(draw(side_depth[min(depth - 1, 3)]))
        left, right = (deep, other) if draw(side) else (other, deep)
        return (draw(feature), draw(threshold), left, right)

    return spec(depth)


def negated(spec):
    """The spec of the same tree with every leaf's label flipped."""
    if not isinstance(spec, tuple):
        return -spec
    feature, threshold, left, right = spec
    return (feature, threshold, negated(left), negated(right))


@st.composite
def forests_with_rows(draw):
    """A forest of 1 to ``3 * GROUP_TREES + 1`` trees, so that its last
    group of routed trees may be partial, and rows to route through it.

    The forest mixes single leaves, random trees and trees deep enough to
    end on either side of every block boundary the routing cuts them at.
    Half the forests are a forest followed by its negation, in which every
    row's votes sum to exactly 0. Row values include the thresholds, NaN
    and infinities, and the matrix comes in C order, transposed (as
    ``evaluate_classifier`` passes its columns) or strided.
    """
    n = draw(st.integers(1, 4))
    threshold = st.sampled_from([-0.0, 0.0, 0.5]) | st.floats(-3.0, 3.0)
    node = st.recursive(
        st.sampled_from([-1, 1]),
        lambda kids: st.tuples(st.integers(0, n - 1), threshold, kids, kids),
        max_leaves=12,
    )
    deep = st.integers(0, 3 * BLOCK_HEIGHT + 1).flatmap(
        lambda depth: specs_of_depth(depth, n, threshold)
    )
    most = 3 * GROUP_TREES + 1
    mirrored = draw(st.booleans())
    count = draw(st.integers(1, most // 2 if mirrored else most))
    specs = draw(st.lists(node | deep, min_size=count, max_size=count))
    if mirrored:
        specs += [negated(spec) for spec in specs]
    ens = TreeEnsemble(trees_from_nodes([tree(spec) for spec in specs]), plain_space(n))
    tests = ens.nodes.threshold[ens.nodes.label == 0].tolist()
    value = (
        st.sampled_from(tests + [-0.0, 0.0, math.nan])
        | st.floats(allow_nan=True, allow_infinity=True)
    )
    count = draw(st.sampled_from([0, 1]) | st.integers(2, 30))
    rows = draw(st.lists(
        st.lists(value, min_size=n, max_size=n), min_size=count, max_size=count
    ))
    X = np.array(rows, dtype=float).reshape(count, n)
    layout = draw(st.sampled_from(["C", "transposed", "strided"]))
    if layout == "transposed":
        X = np.ascontiguousarray(X.T).T
    elif layout == "strided":
        X = np.repeat(X, 2, axis=0)[::2]
    return ens, X


def routing_bytes(ens):
    blocks = ens.routing
    return sum(a.nbytes for a in (*blocks.feature, *blocks.threshold, blocks.exit, blocks.root))


# Inputs to a forest of 3 features without one value per feature.
WRONG_WIDTHS = {
    "tree_votes-rows-narrower": (tree_votes, (4, 2)),
    "tree_votes-rows-wider": (tree_votes, (4, 4)),
    "tree_votes-0-D": (tree_votes, ()),
    "tree_votes-rows-3-D": (tree_votes, (2, 4, 3)),
    "positive_rows-narrower": (positive_rows, (4, 2)),
    "positive_rows-1-D": (positive_rows, (3,)),
    "tree_votes-narrower": (tree_votes, (2,)),
    "tree_votes-wider": (tree_votes, (4,)),
    "predict_ensemble-2-D": (predict_ensemble, (1, 3)),
    "tree_votes-3-D": (tree_votes, (1, 1, 3)),
}


class TestFlatView:
    """The preorder node arrays a tree is stored as."""

    def test_matches_serialized_preorder_layout(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ens = alone(random_tree(rng, 4, 5), 4)
            tree = ens.nodes
            right, left = tree.children[:, 0], tree.children[:, 1]
            nodes = ensemble_to_dict(ens)["trees"][0]["nodes"]
            assert len(left) == len(nodes)
            for slot, entry in enumerate(nodes):
                if "leaf" in entry:
                    assert tree.label[slot] == entry["leaf"]
                    assert left[slot] == right[slot] == slot
                else:
                    assert tree.feature[slot] == entry["feature"]
                    assert tree.threshold[slot] == entry["threshold"]
                    assert left[slot] == entry["left"]
                    assert right[slot] == entry["right"]

    def test_batch_votes_match_each_rows_votes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ens = random_ensemble(rng, int(rng.integers(1, 6)), 3, 5)
            X = rng.normal(0, 2, (50, 3))
            # put some rows exactly on thresholds
            X[:5, 0] = ens.nodes.threshold[0]  # tree 0's root
            votes = tree_votes(ens, X)
            assert votes.shape == (50, ens.num_trees)
            assert votes.tolist() == [tree_votes(ens, x).tolist() for x in X]
            assert tree_votes(ens, X[:1]).tolist() == [tree_votes(ens, X[0]).tolist()]

    def test_tree_votes_match_scalar_predictions(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ens = random_ensemble(rng, int(rng.integers(1, 8)), 3, 5)
            X = rng.normal(0, 2, (30, 3))
            # rows exactly on thresholds of internal nodes of every tree
            feature, threshold, _, label, _, _ = ens.nodes
            for row, span in zip(X[:10], spans(ens.nodes) * 10):
                inner = span.start + np.flatnonzero(label[span] == 0)
                if inner.size:
                    node = rng.choice(inner)
                    row[feature[node]] = threshold[node]
            for x in X:
                expected = [route(ens, k, x).leaf_label for k in range(ens.num_trees)]
                assert tree_votes(ens, x).tolist() == expected

    def test_threshold_ties_route_left(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.5, 1, -1)]), plain_space(1))
        assert tree_votes(ens, [[0.5], [np.nextafter(0.5, 1.0)]]).tolist() == [[1], [-1]]

    def test_empty_matrix(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.5, 1, -1)]), plain_space(2))
        assert tree_votes(ens, np.empty((0, 2))).shape == (0, 1)

    def test_a_forest_of_single_leaves_votes_its_labels(self):
        # Each root is a leaf's block: every row reads the label, whatever
        # its values.
        labels = [1, -1, 1, 1, -1, 1]
        ens = TreeEnsemble(trees_from_nodes([tree(v) for v in labels]), plain_space(2))
        X = [[0.0, 0.0], [-1.0, 1.0], [1.0, -1.0], [math.nan, math.inf], [-math.inf, math.nan]]
        assert tree_votes(ens, X).tolist() == [labels] * 5
        assert positive_rows(ens, X).tolist() == [True] * 5
        assert tree_votes(ens, np.empty((0, 2))).shape == (0, 6)
        negative = TreeEnsemble(trees_from_nodes([tree(-1)]), plain_space(1))
        assert tree_votes(negative, [[-1.0], [1.0], [math.nan]]).tolist() == [[-1]] * 3
        assert positive_rows(negative, [[-1.0], [1.0], [math.nan]]).tolist() == [False] * 3

    @settings(max_examples=200, deadline=None)
    @given(forests_with_rows())
    def test_batch_votes_equal_the_votes_of_each_row(self, drawn):
        ens, X = drawn
        before = X.tobytes()
        votes = tree_votes(ens, X)
        assert votes.shape == (len(X), ens.num_trees)
        assert votes.tolist() == [tree_votes(ens, x).tolist() for x in X]
        assert votes.tolist() == [
            [route(ens, k, x).leaf_label for k in range(ens.num_trees)] for x in X
        ]
        assert X.tobytes() == before

    @settings(max_examples=200, deadline=None)
    @given(forests_with_rows())
    def test_positive_rows_are_the_rows_whose_votes_sum_above_0(self, drawn):
        ens, X = drawn
        before = X.tobytes()
        positive = positive_rows(ens, X)
        assert positive.dtype == bool and positive.shape == (len(X),)
        assert positive.tolist() == [bool(tree_votes(ens, x).sum() > 0) for x in X]
        assert X.tobytes() == before

    @pytest.mark.parametrize("labels, total", [
        # After the first group the sum equals the trees left, which can
        # still bring it down to 0.
        ([1] * GROUP_TREES + [-1] * GROUP_TREES, 0),
        # ... or is minus the trees left, so it ends at 0 or below.
        ([-1] * GROUP_TREES + [1] * GROUP_TREES, 0),
        ([-1] * GROUP_TREES + [1] * (GROUP_TREES - 1), -1),
        # One more than the trees left: positive whatever they vote.
        ([1] * GROUP_TREES + [-1] * (GROUP_TREES - 1), 1),
        # Undecided until the last group, which is partial.
        ([1, -1] * (GROUP_TREES + 1) + [1] * (GROUP_TREES - 2) + [-1] * (GROUP_TREES - 2), 0),
        ([1, 1, 1, -1, -1] + [-1] * GROUP_TREES, -4),
    ])
    def test_positive_rows_settle_only_when_the_trees_left_cannot_change_the_sign(
        self, labels, total
    ):
        # A row that follows a stump's left branch takes ``labels`` as its
        # votes, and one that goes right the opposite votes.
        trees = [stump(0, 0.0, v, -v) for v in labels]
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(1))
        X = [[-1.0], [0.0], [1.0], [math.nan]]
        assert tree_votes(ens, X).sum(axis=1).tolist() == [total, total, -total, -total]
        assert positive_rows(ens, X).tolist() == [total > 0] * 2 + [-total > 0] * 2

    def test_positive_rows_route_a_tree_far_deeper_than_a_block(self):
        depth = 3000
        ens = TreeEnsemble(trees_from_nodes([chain_nodes(depth)] * 2), plain_space(6))
        # Row j leaves the chain at node 199 * j + 3, at every offset into
        # a block, or, for the last row, runs to its +1 leaf: each of its
        # values passes every test above.
        X = np.full((16, 6), 1000.0)
        for j, row in enumerate(X[:-1]):
            i = 199 * j + 3
            row[i % 6] = i / 8 - 0.5 if j % 2 else i / 8  # a tie routes left too
        sums = tree_votes(ens, X).sum(axis=1)
        assert sums.tolist() == [int(tree_votes(ens, x).sum()) for x in X]
        assert sums.tolist() == [-2] * 15 + [2]
        assert positive_rows(ens, X).tolist() == [False] * 15 + [True]

    @pytest.mark.parametrize("layout", ["fortran", "strided", "no-rows"])
    def test_positive_rows_take_any_layout_and_leave_it_unchanged(self, layout):
        rng = np.random.default_rng(21)
        ens = random_ensemble(rng, 3 * GROUP_TREES + 2, 4, 6)
        rows = rng.normal(0, 1.5, (300, 4))
        both = np.hstack([rows, rows])
        X = {
            "fortran": np.asfortranarray(rows),
            "strided": both[:, ::2],
            "no-rows": rows[:0],
        }[layout]
        before = [a.tobytes() for a in (X, rows, both)]
        expected = tree_votes(ens, X).sum(axis=1) > 0
        positive = positive_rows(ens, X)
        assert positive.dtype == bool and positive.shape == (len(X),)
        assert positive.tolist() == expected.tolist()
        assert [a.tobytes() for a in (X, rows, both)] == before

    def test_positive_rows_retire_rows_after_every_group_that_can_decide_them(self):
        # Tree k is a stump on feature k voting +1 at or below 0 and -1
        # above, so a row's values spell its votes. Of 6 groups, the 3rd is
        # the first that can decide a row: all -1 gives -15 with 15 trees left.
        groups = 6
        trees = groups * GROUP_TREES
        ens = TreeEnsemble(
            trees_from_nodes([stump(k, 0.0, 1, -1) for k in range(trees)]), plain_space(trees)
        )
        rng = np.random.default_rng(4)
        # Rows leaning towards +1 or -1 by different amounts, in no order,
        # so that rows retired after one group sit between rows routed on.
        lean = rng.uniform(0.0, 1.0, 400)
        votes = np.where(rng.random((400, trees)) < lean[:, None], 1, -1)
        X = -votes.astype(float)
        before = X.tobytes()
        sums = votes.cumsum(axis=1)[:, GROUP_TREES - 1::GROUP_TREES]
        left = trees - GROUP_TREES * np.arange(1, groups + 1)
        decided_after = ((sums > left) | (sums <= -left)).argmax(axis=1) + 1
        assert set(decided_after.tolist()) == set(range(3, groups + 1))
        assert tree_votes(ens, X).tolist() == votes.tolist()
        assert positive_rows(ens, X).tolist() == (votes.sum(axis=1) > 0).tolist()
        assert X.tobytes() == before

    def test_positive_rows_copy_no_row_of_x(self):
        # Two groups of stumps over 256 features: the rows whose first
        # group votes all -1 are decided after it and the rest go on, so a
        # router that compacted X would copy half of it.
        trees = 2 * GROUP_TREES
        ens = TreeEnsemble(
            trees_from_nodes([stump(k, 0.0, 1, -1) for k in range(trees)]), plain_space(256)
        )
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (2000, 256))
        X[::2, :GROUP_TREES] = 1.0
        expected = tree_votes(ens, X).sum(axis=1) > 0
        positive_rows(ens, X[:1])  # the routing blocks are built on first use
        tracemalloc.start()
        try:
            positive = positive_rows(ens, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert positive.tolist() == expected.tolist()
        # The router's buffers and per-row arrays take about 250 bytes a
        # row, X 2,048.
        assert peak < X.nbytes / 4

    def test_tree_votes_walk_passes_of_bounded_memory(self):
        rng = np.random.default_rng(12)
        ens = random_ensemble(rng, 100, 10, 8)
        X = rng.normal(0, 1, (10_000, 10))
        assert X.size // 10 * ens.num_trees > VOTE_PAIR_CAP  # more than one pass
        tracemalloc.start()
        try:
            votes = tree_votes(ens, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A pass holds about 41 bytes per (row, tree) pair at once.
        assert peak < votes.nbytes + 64 * VOTE_PAIR_CAP
        assert votes.tolist() == [tree_votes(ens, x).tolist() for x in X]

    @pytest.mark.parametrize("max_depth, n", [(10, 10), (None, 20)], ids=["depth-10", "no-limit"])
    def test_routing_blocks_stay_near_the_size_of_the_node_store(self, max_depth, n):
        space, data = gaussian_instances(4, m=1000, n=n)
        ens = train_forest(data, TrainConfig(num_trees=10, max_depth=max_depth, seed=2), space)
        if max_depth is None:  # TrainConfig's default depth limit is n
            assert ens.nodes.depth.max() < n
        assert routing_bytes(ens) <= 1.5 * sum(a.nbytes for a in ens.nodes[:5])

    def test_routing_blocks_of_a_deep_chain_stay_near_its_node_store(self):
        ens = TreeEnsemble(trees_from_nodes([chain_nodes(3000)]), plain_space(6))
        assert routing_bytes(ens) <= 1.5 * sum(a.nbytes for a in ens.nodes[:5])

    @pytest.mark.parametrize("votes, shape", WRONG_WIDTHS.values(), ids=list(WRONG_WIDTHS))
    def test_a_row_without_one_value_per_feature_is_rejected(self, votes, shape):
        # The gathers are unchecked: a narrow matrix would be routed on a
        # neighbouring row's cells, and a wide one on its first n columns.
        spec = (0, 0.0, (2, 0.5, 1, -1), (2, 0.5, -1, 1))
        ens = TreeEnsemble(trees_from_nodes([tree(spec)]), plain_space(3))
        with pytest.raises(LengthMismatch, match=re.escape(f"got shape {shape}")):
            votes(ens, np.zeros(shape))

    def test_the_ensemble_keeps_the_builders_arrays(self):
        rng = np.random.default_rng(13)
        forest = trees_from_nodes([random_tree(rng, 3, 5) for _ in range(6)])
        ens = TreeEnsemble(forest, plain_space(3))
        assert ens.nodes is forest
        for key in ("feature", "threshold", "children", "label"):
            assert getattr(ens.nodes, key) is getattr(forest, key)

    def test_trees_are_slices_of_the_ensembles_one_store(self):
        rng = np.random.default_rng(13)
        made = random_ensemble(rng, 6, 3, 5)
        space, data = gaussian_instances(3, m=200, n=3)
        trained = train_forest(data, TrainConfig(num_trees=5, max_depth=4, seed=1), space)
        for ens in (made, ensemble_from_dict(ensemble_to_dict(made)), trained):
            trees = range(ens.num_trees)
            for x in rng.normal(0, 2, (20, 3)):
                assert tree_votes(ens, x).tolist() == [route(ens, k, x).leaf_label for k in trees]
            # Each positive path's conditions, folded into a box.
            boxes = ens.positive_boxes
            found = [
                (k, p) for k in trees for p in extract_paths(ens, k) if p.leaf_label == 1
            ]
            assert (boxes.tree.tolist(), boxes.ordinal.tolist()) == (
                [k for k, _ in found], [p.path_index for _, p in found]
            )
            # Each row's entries are its path's conditions folded per
            # feature, and nothing else: padding repeats its own entries.
            want = []
            for _, path in found:
                bounds = {}
                for f, direction, t in path.conditions:
                    lo, hi = bounds.get(f, (-math.inf, math.inf))
                    bounds[f] = (lo, min(hi, t)) if direction == LE else (max(lo, t), hi)
                want.append({(f, lo, hi) for f, (lo, hi) in bounds.items()})
            assert box_entries(boxes) == want
            assert boxes.feature.shape[1] == max([1, *map(len, want)])

    def test_positive_boxes_built_once_per_ensemble(self):
        trees = (
            stump(0, 0.5, -1, 1),
            stump(1, -0.5, 1, -1),
            tree((1, 1.0, (0, 0.0, 1, -1), (1, 0.5, -1, -1))),
            tree(1),
        )
        a = TreeEnsemble(trees_from_nodes(trees), plain_space(3))
        b = TreeEnsemble(trees_from_nodes(trees), plain_space(3))
        boxes = a.positive_boxes
        assert a.positive_boxes is boxes
        assert b.positive_boxes is not boxes
        for got, want in zip(b.positive_boxes, boxes):
            assert np.array_equal(got, want)
        # Tree 0 is positive above 0.5 on x0, tree 1 at or below -0.5 on
        # x1, tree 2 at or below 1 on x1 (its root) and 0 on x0, and tree 3
        # always. The stumps repeat their one entry up to tree 2's two, and
        # the one-leaf tree has only the unbounded entry on x0.
        assert boxes.feature.tolist() == [[0, 0], [1, 1], [1, 0], [0, 0]]
        inf = math.inf
        assert boxes.lo.tolist() == [[0.5, 0.5], [-inf, -inf], [-inf, -inf], [-inf, -inf]]
        assert boxes.hi.tolist() == [[inf, inf], [-0.5, -0.5], [1.0, 0.0], [inf, inf]]
        assert (boxes.tree.tolist(), boxes.ordinal.tolist()) == ([0, 1, 2, 3], [1, 0, 0, 0])


class TestExtractPaths:
    def test_single_leaf_tree(self):
        paths = extract_paths(alone(tree(1), 1), 0)
        assert len(paths) == 1
        assert paths[0].conditions == ()
        assert paths[0].leaf_label == 1

    def test_full_depth2_counts(self):
        ens = alone(tree((0, 0.0, (1, 0.0, 1, -1), (1, 0.0, -1, 1))), 2)
        labels = [p.leaf_label for p in extract_paths(ens, 0)]
        assert labels == [1, -1, -1, 1]

    def test_path_conditions_recorded(self):
        neg, pos = extract_paths(alone(stump(0, 0.5, -1, 1), 1), 0)
        assert neg.conditions == ((0, LE, 0.5),)
        assert pos.conditions == ((0, GT, 0.5),)

    def test_random_trees_cover_all_leaves(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ens = alone(random_tree(rng, 5, int(rng.integers(1, 6))), 5)
            paths = extract_paths(ens, 0)
            assert len(paths) == count_leaves(ens.nodes)
            # ordinals are exactly 0..leaves-1 in order
            assert [p.path_index for p in paths] == list(range(len(paths)))
            for path in paths:
                assert replay(ens.nodes, path) == path.leaf_label

    def test_leaf_bound(self):
        rng = np.random.default_rng(6)
        for depth in (1, 2, 3, 4):
            ens = alone(random_tree(rng, 4, depth, p_leaf=0.0), 4)
            assert count_leaves(ens.nodes) <= 2**depth


class TestRoute:
    def test_stump_left(self):
        path = route(alone(stump(0, 0.5, -1, 1), 1), 0, Instance([0.4]))
        assert path.conditions == ((0, LE, 0.5),)
        assert path.leaf_label == -1

    def test_stump_right(self):
        path = route(alone(stump(0, 0.5, -1, 1), 1), 0, Instance([0.6]))
        assert path.conditions == ((0, GT, 0.5),)
        assert path.leaf_label == 1

    @pytest.mark.parametrize("k", [-1, 3])
    def test_a_tree_index_outside_the_ensemble_is_refused(self, k):
        trees = [stump(0, 0.5, -1, 1), stump(0, 0.0, 1, -1), tree(1)]
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(1))
        message = re.escape(f"tree index {k} is out of range for num_trees=3")
        with pytest.raises(IndexError, match=message):
            route(ens, k, Instance([0.0]))
        with pytest.raises(IndexError, match=message):
            extract_paths(ens, k)

    def test_route_agrees_with_tree_votes(self):
        rng = np.random.default_rng(9)
        ens = alone(random_tree(rng, 6, 5), 6)
        for _ in range(100):
            x = Instance(rng.normal(0, 2, 6))
            path = route(ens, 0, x)
            assert [path.leaf_label] == tree_votes(ens, x).tolist()
            assert replay(ens.nodes, path) == path.leaf_label


class TestEnsembleValidation:
    def test_feature_out_of_range(self):
        with pytest.raises(ValueError):
            TreeEnsemble(trees_from_nodes([stump(3, 0.0, -1, 1)]), plain_space(2))
        trees = (stump(1, 0.0, -1, 1), stump(2, 0.0, -1, 1))
        with pytest.raises(ValueError, match="tree 1: node 0 tests feature 2, outside"):
            TreeEnsemble(trees_from_nodes(trees), plain_space(2))

    def test_importances_must_normalize(self):
        with pytest.raises(ValueError):
            TreeEnsemble(
                trees_from_nodes([tree(1)]), plain_space(1), importances=[0.4]
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        # So the model writer never meets a threshold json would spell as
        # NaN or Infinity.
        with pytest.raises(ValueError, match="not finite"):
            trees_from_nodes([tree((0, 0.5, -1, (0, bad, 1, -1)))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_importances_rejected(self, bad):
        with pytest.raises(ValueError):
            TreeEnsemble(
                trees_from_nodes([tree(1)]), plain_space(2), importances=[bad, 0.0]
            )


class TestSerialization:
    def _ensemble(self, seed=0, num_trees=100):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, num_trees, 6, 4)
        return TreeEnsemble(
            ens.nodes,
            ens.feature_space,
            importances=np.full(6, 1 / 6),
            metadata={"num_trees": num_trees, "seed": seed},
        )

    def test_round_trip_is_byte_identical(self, tmp_path):
        ens = self._ensemble()
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        save_model(ens, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_predictions(self, tmp_path):
        ens = self._ensemble(seed=2, num_trees=20)
        path = tmp_path / "m.json"
        save_model(ens, path)
        loaded = load_model(path)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x = Instance(rng.normal(0, 2, 6))
            assert predict_ensemble(ens, x) == predict_ensemble(loaded, x)

    def test_truncated_file_is_corrupt(self, tmp_path):
        ens = self._ensemble(seed=3, num_trees=2)
        path = tmp_path / "m.json"
        save_model(ens, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        ens = self._ensemble(seed=4, num_trees=1)
        path = tmp_path / "m.json"
        save_model(ens, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_equal_to_1_but_not_the_integer_is_a_mismatch(self, version):
        doc = ensemble_to_dict(self._ensemble(seed=4, num_trees=1))
        doc["format_version"] = version
        with pytest.raises(SchemaVersionMismatch):
            ensemble_from_dict(doc)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.json")

    def test_serialization_is_deterministic(self):
        a = dumps_model(self._ensemble(seed=5, num_trees=10))
        b = dumps_model(self._ensemble(seed=5, num_trees=10))
        assert a == b

    @pytest.mark.parametrize(
        "field, value",
        [("threshold", "NaN"), ("mean", "Infinity"), ("std_dev", "-Infinity")],
    )
    def test_non_finite_number_is_corrupt(self, tmp_path, field, value):
        # json.loads accepts the NaN/Infinity literals, so the loader must
        # reject them itself.
        doc = ensemble_to_dict(self._ensemble(seed=6, num_trees=3))
        if field == "threshold":
            doc["trees"][1]["nodes"][0]["threshold"] = value
        else:
            doc["feature_space"]["features"][2][field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc).replace(f'"{value}"', value))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("adjustable", "false"),
            ("mean", "0.5"),
            ("std_dev", True),
            ("kind", "onehot"),
            ("name", 3),
        ],
    )
    def test_mistyped_feature_value_is_corrupt(self, field, value):
        # A cast would read each of these as another model.
        doc = ensemble_to_dict(self._ensemble(seed=6, num_trees=3))
        doc["feature_space"]["features"][2][field] = value
        with pytest.raises(CorruptModel):
            ensemble_from_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda features: features[2].update(std_dev=0.0),
            lambda features: features.append(features[2]),
            lambda features: features.clear(),
        ],
        ids=["zero-std-dev", "duplicate-name", "no-features"],
    )
    def test_a_bad_feature_space_is_corrupt(self, edit):
        # These raised ZeroVariance or SchemaMismatch, without the
        # "malformed model document" of every other fault of the file.
        doc = ensemble_to_dict(self._ensemble(seed=6, num_trees=3))
        edit(doc["feature_space"]["features"])
        with pytest.raises(CorruptModel, match="^malformed model document: "):
            ensemble_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("group", 1), ("category", None)])
    def test_mistyped_one_hot_member_is_corrupt(self, field, value):
        doc = ensemble_to_dict(self._ensemble(seed=6, num_trees=3))
        entry = doc["feature_space"]["features"][2]
        entry.update(kind="one_hot", group="g", category="c")
        ensemble_from_dict(doc)  # loads while group and category are strings
        entry[field] = value
        with pytest.raises(CorruptModel):
            ensemble_from_dict(doc)

    @pytest.mark.parametrize("importances", [["1.0"] + ["0"] * 5, [True] + [0] * 5])
    def test_mistyped_importance_is_corrupt(self, importances):
        doc = ensemble_to_dict(self._ensemble(seed=6, num_trees=3))
        doc["importances"] = importances
        with pytest.raises(CorruptModel):
            ensemble_from_dict(doc)

    @pytest.mark.parametrize("field", ["right", "feature"])
    def test_infinite_integer_field_is_corrupt(self, tmp_path, field):
        # int() of an infinite float raises OverflowError, which the loader
        # must report as a corrupt model.
        doc = ensemble_to_dict(self._ensemble(seed=10, num_trees=2))
        doc["trees"][0]["nodes"][0][field] = "Infinity"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc).replace('"Infinity"', "Infinity"))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_deeply_nested_json_is_corrupt(self, tmp_path):
        # json.loads raises RecursionError on this.
        path = tmp_path / "m.json"
        path.write_text("[" * 200_000)
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_nodes_in_breadth_first_order_load_as_preorder(self):
        ens = self._ensemble(seed=11, num_trees=3)
        doc = ensemble_to_dict(ens)
        for tree in doc["trees"]:
            nodes = tree["nodes"]
            order = [0]  # file slots in breadth-first order
            for slot in order:
                if "leaf" not in nodes[slot]:
                    order += [nodes[slot]["left"], nodes[slot]["right"]]
            new = {old: i for i, old in enumerate(order)}
            tree["nodes"] = [dict(nodes[old]) for old in order]
            for entry in tree["nodes"]:
                if "leaf" not in entry:
                    entry["left"] = new[entry["left"]]
                    entry["right"] = new[entry["right"]]
        assert doc != ensemble_to_dict(ens)
        loaded = ensemble_from_dict(doc)
        assert dumps_model(loaded) == dumps_model(ens)
        rng = np.random.default_rng(12)
        for _ in range(200):
            x = Instance(rng.normal(0, 2, 6))
            for k in range(ens.num_trees):
                assert route(loaded, k, x) == route(ens, k, x)

    def test_non_finite_importances_are_corrupt(self):
        doc = ensemble_to_dict(self._ensemble(seed=7, num_trees=2))
        doc["importances"] = [math.nan] * 6
        with pytest.raises(CorruptModel):
            ensemble_from_dict(doc)

    @pytest.mark.parametrize(
        "nodes", [*MALFORMED_TREES.values(), []], ids=[*MALFORMED_TREES, "no-nodes"]
    )
    def test_malformed_tree_structure_is_corrupt(self, nodes):
        doc = ensemble_to_dict(self._ensemble(seed=8, num_trees=2))
        doc["trees"][1]["nodes"] = nodes
        with pytest.raises(CorruptModel):
            ensemble_from_dict(doc)

    @pytest.mark.parametrize("nodes", MALFORMED_TREES.values(), ids=list(MALFORMED_TREES))
    def test_the_error_names_the_malformed_tree(self, nodes):
        doc = ensemble_to_dict(self._ensemble(seed=8, num_trees=5))
        doc["trees"][3]["nodes"] = nodes
        with pytest.raises(CorruptModel, match="tree 3: node "):
            ensemble_from_dict(doc)

    def test_a_detached_cycle_names_its_first_node(self):
        with pytest.raises(ValueError, match="^tree 1: node 3 is unreachable$"):
            trees_from_nodes([[{"leaf": 1}], MALFORMED_TREES["detached-cycle"]])

    @pytest.mark.parametrize("entry", [[1], None, {}, {"node": []}])
    def test_the_error_names_a_tree_entry_without_nodes(self, entry):
        doc = ensemble_to_dict(self._ensemble(seed=8, num_trees=5))
        doc["trees"][3] = entry
        with pytest.raises(CorruptModel, match="tree 3: expected an object with a 'nodes' list"):
            ensemble_from_dict(doc)

    def test_deep_chain_round_trips(self):
        # Far deeper than Python's recursion limit: load and save must not
        # recurse.
        depth = 3000
        doc = ensemble_to_dict(self._ensemble(seed=9, num_trees=1))
        doc["trees"][0]["nodes"] = chain_nodes(depth)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        ens = ensemble_from_dict(json.loads(text))
        assert ens.nodes.depth.tolist() == [depth]
        assert dumps_model(ens) == text


def reference_dumps(ens):
    """The model writer before it formatted trees itself: ``json`` encodes
    the whole document."""
    return json.dumps(ensemble_to_dict(ens), indent=2, sort_keys=True) + "\n"


# Floats whose shortest repr is easy to get wrong.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-7]
# Characters json escapes or spells out: quotes, backslashes, control
# characters, non-ASCII (escaped as \uXXXX) and a lone surrogate.
NAME_CHARS = ['"', "\\", "\u0000", "\n", "\x7f", "é", "日", "\U0001f600", "\ud800", "x", " "]


@st.composite
def edge_ensembles(draw):
    n = draw(st.integers(1, 4))
    name = st.text(st.sampled_from(NAME_CHARS), max_size=5)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    group = draw(name)
    features = [
        FeatureMeta(
            label,
            one_hot=OneHotMember(group, label) if draw(st.booleans()) else None,
            adjustable=draw(st.booleans()),
            mean=draw(st.sampled_from(EDGE_FLOATS)),
        )
        for label in names
    ]
    threshold = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    node = st.recursive(
        st.sampled_from([-1, 1]),
        lambda kids: st.tuples(st.integers(0, n - 1), threshold, kids, kids),
        max_leaves=10,
    )
    trees = [tree(spec) for spec in draw(st.lists(node, min_size=1, max_size=4))]
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    importances = weights / weights.sum() if weights.sum() else None
    metadata = draw(st.dictionaries(
        name, st.none() | st.booleans() | st.integers() | name | st.sampled_from(EDGE_FLOATS),
        max_size=3,
    ))
    return TreeEnsemble(trees_from_nodes(trees), FeatureSpace(features), importances, metadata)


class TestTreesFromNodes:
    @settings(max_examples=100, deadline=None)
    @given(edge_ensembles(), st.randoms(use_true_random=False))
    def test_any_file_order_builds_the_preorder_trees(self, ens, rand):
        doc = ensemble_to_dict(ens)
        for entry in doc["trees"]:
            nodes = entry["nodes"]
            # Every node but the root moves to a random slot.
            new = [0] + [1 + i for i in rand.sample(range(len(nodes) - 1), len(nodes) - 1)]
            moved = [None] * len(nodes)
            for old, node in enumerate(nodes):
                if "leaf" not in node:
                    node = dict(node, left=new[node["left"]], right=new[node["right"]])
                moved[new[old]] = node
            entry["nodes"] = moved
        rebuilt = ensemble_from_dict(doc)
        for k, (entry, a_span, b_span) in enumerate(
            zip(doc["trees"], spans(ens.nodes), spans(rebuilt.nodes))
        ):
            *arrays, depth = preorder_reference(entry["nodes"])
            for want, a, b in zip(arrays, ens.nodes, rebuilt.nodes):
                assert a.dtype == b.dtype == want.dtype
                a, b = a[a_span], b[b_span]
                if want is arrays[2]:  # store positions; the reference counts from the root
                    a, b = a - ens.nodes.root[k], b - rebuilt.nodes.root[k]
                assert np.array_equal(a, want) and np.array_equal(b, want)
            assert ens.nodes.depth[k] == rebuilt.nodes.depth[k] == depth
        assert dumps_model(rebuilt) == dumps_model(ens) == reference_dumps(ens)

    @staticmethod
    def assert_children_are_store_positions(nodes):
        """In each tree's slice, an inner node's left child is the next
        node and its right child comes after that, inside the slice; a
        leaf's children are the leaf itself."""
        for span in spans(nodes):
            for i in range(span.start, span.stop):
                right, left = nodes.children[i].tolist()
                if nodes.label[i]:
                    assert (right, left) == (i, i)
                else:
                    assert left == i + 1 and i + 1 < right < span.stop

    def test_children_are_store_positions(self):
        rng = np.random.default_rng(21)
        space, data = gaussian_instances(3, m=200, n=3)
        trained = train_forest(data, TrainConfig(num_trees=5, max_depth=4, seed=1), space)
        forests = [random_ensemble(rng, count, 3, 5) for count in (2, 5, 9)] + [trained]
        for ens in forests:
            self.assert_children_are_store_positions(ens.nodes)

    @settings(max_examples=100, deadline=None)
    @given(edge_ensembles())
    def test_children_of_edge_ensembles_are_store_positions(self, ens):
        self.assert_children_are_store_positions(ens.nodes)

    def test_any_iterable_of_trees_is_read_once(self):
        rng = np.random.default_rng(22)
        trees = [random_tree(rng, 3, 4) for _ in range(4)] + [[{"leaf": 1}], [{"leaf": -1}]]
        want = trees_from_nodes(trees)
        for forest in (tuple(trees), (t for t in trees), iter(trees)):
            for got, expected in zip(trees_from_nodes(forest), want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
        with pytest.raises(ValueError, match="^an ensemble needs at least one tree$"):
            trees_from_nodes(t for t in [])


class TestWriterParity:
    @settings(max_examples=100, deadline=None)
    @given(edge_ensembles())
    def test_matches_json_and_survives_a_round_trip(self, tmp_path_factory, ens):
        text = dumps_model(ens)
        assert text == reference_dumps(ens)
        path = tmp_path_factory.mktemp("model") / "m.json"
        path.write_text(text, encoding="utf-8")
        assert dumps_model(load_model(path)) == text

    def test_edge_thresholds_and_lone_leaves(self):
        trees = [tree(1)] + [
            tree((0, t, -1, (1, -t, 1, -1))) for t in EDGE_FLOATS
        ] + [tree(-1)]
        names = ['a"b', "c\\d", "\u00e9\u0000"]
        ens = TreeEnsemble(trees_from_nodes(trees), FeatureSpace(FeatureMeta(s) for s in names))
        text = dumps_model(ens)
        assert text == reference_dumps(ens)
        assert "5e-324" in text and "1.7976931348623157e+308" in text
        assert "0.30000000000000004" in text and "-0.0" in text

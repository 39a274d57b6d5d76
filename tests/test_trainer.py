import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetweak import trainer
from treetweak.errors import (
    DegenerateLabels,
    EmptyDataset,
    EmptyNode,
    LengthMismatch,
    NonFiniteValue,
)
from treetweak.feature_space import Instance
from treetweak.forest import (
    TreeEnsemble,
    dumps_model,
    load_model,
    predict_ensemble,
    route,
    save_model,
    trees_from_nodes,
    vote_sums,
)
from treetweak.trainer import (
    ClassifierMetrics,
    TrainConfig,
    _best_splits,
    _impurity_vec,
    _sort_columns,
    evaluate_classifier,
    impurity,
    midranks,
    roc_auc_from_scores,
    stratified_split,
    train_forest,
)

from conftest import gaussian_instances, plain_space, random_ensemble, stump


def labeled(rows, labels):
    return [Instance(row, label=int(lab)) for row, lab in zip(rows, labels)]


def one_tree(data, cfg):
    """A one-tree forest over as many features as the first row has: its
    store holds just the tree, whose root is node 0."""
    return train_forest(data, cfg, plain_space(len(data[0].values)))


def rows_of_widths(widths):
    """Four labelled rows of each width in turn."""
    return [
        Instance(np.full(width, v), label=lab)
        for width in widths
        for v, lab in [(-1.0, -1), (1.0, 1)] * 2
    ]


class TestImpurity:
    def test_balanced_node(self):
        assert impurity((2, 2), "gini") == pytest.approx(0.5)
        assert impurity((2, 2), "entropy") == pytest.approx(1.0)

    def test_pure_node(self):
        assert impurity((0, 4), "gini") == 0.0
        assert impurity((0, 4), "entropy") == 0.0

    def test_one_three(self):
        assert impurity((1, 3), "gini") == pytest.approx(0.375)

    def test_empty_node(self):
        with pytest.raises(EmptyNode):
            impurity((0, 0), "gini")

    @pytest.mark.parametrize(
        "make",
        [lambda: impurity((1, 1), "mse"), lambda: TrainConfig(criterion="mse")],
        ids=["impurity", "TrainConfig"],
    )
    def test_unknown_criterion(self, make):
        with pytest.raises(ValueError, match="criterion must be 'gini' or 'entropy'"):
            make()

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)


def reference_split_on_feature(column, pos_mask, parent_imp, criterion):
    """Scalar oracle: best (gain, threshold) of one feature, or None.

    The per-feature scan that ``_best_splits`` vectorizes, kept verbatim.
    """
    order = np.argsort(column, kind="stable")
    v = column[order]
    boundaries = np.nonzero(v[1:] > v[:-1])[0]
    if len(boundaries) == 0:
        return None
    m = len(v)
    cum_pos = np.cumsum(pos_mask[order])
    n_left = boundaries + 1.0
    pos_left = cum_pos[boundaries].astype(float)
    neg_left = n_left - pos_left
    n_right = m - n_left
    pos_right = cum_pos[-1] - pos_left
    neg_right = n_right - pos_right
    child = (
        n_left * _impurity_vec(neg_left, pos_left, criterion)
        + n_right * _impurity_vec(neg_right, pos_right, criterion)
    ) / m
    gains = parent_imp - child
    best = int(np.argmax(gains))
    b = int(boundaries[best])
    return float(gains[best]), (v[b] + v[b + 1]) / 2.0


def reference_best_split(rows, pos, parent_imp, criterion):
    """Feature-by-feature loop over the oracle; the first strict maximum wins."""
    best = None
    for r, column in enumerate(rows):
        found = reference_split_on_feature(column, pos, parent_imp, criterion)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], r, found[1])
    return best


@st.composite
def split_nodes(draw):
    """A node's ``[f, m]`` feature rows, heavy in ties and constant rows,
    with its positive mask."""
    f = draw(st.integers(1, 6))
    m = draw(st.integers(2, 40))
    levels = draw(st.integers(1, 5))
    value = st.one_of(
        st.integers(0, levels - 1).map(lambda v: v / 10),
        st.floats(-100, 100, allow_nan=False),
    )
    row = st.one_of(
        st.lists(st.integers(0, levels - 1).map(lambda v: v / 10), min_size=m, max_size=m),
        st.lists(value, min_size=m, max_size=m),
        value.map(lambda v: [v] * m),
    )
    rows = np.array(draw(st.lists(row, min_size=f, max_size=f)), dtype=float)
    pos = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=float)
    return rows, pos


def best_split(rows, pos, parent_imp, criterion):
    """The one-segment case of ``_best_splits``: a node holding every column
    of ``rows`` and searching every row, as (gain, row, threshold) or None."""
    f, m = rows.shape
    found = _best_splits(
        _sort_columns(rows, pos), np.arange(m), np.array([0]), np.array([0]),
        np.ones((1, m)), np.arange(f)[None, :], np.array([parent_imp]), criterion,
    )
    if found.gain[0] == -math.inf:
        return None
    return float(found.gain[0]), int(found.row[0]), found.threshold[0]


class TestBestSplit:
    @settings(max_examples=200, deadline=None)
    @given(split_nodes(), st.sampled_from(["gini", "entropy"]))
    def test_equals_scalar_oracle(self, node, criterion):
        rows, pos = node
        n_pos = int(pos.sum())
        parent_imp = impurity((len(pos) - n_pos, n_pos), criterion)
        assert best_split(rows, pos, parent_imp, criterion) == reference_best_split(
            rows, pos, parent_imp, criterion
        )

    def test_constant_rows_give_none(self):
        rows = np.array([[1.0, 1.0, 1.0], [0.2, 0.2, 0.2]])
        assert best_split(rows, np.array([1.0, 0.0, 1.0]), 0.5, "gini") is None

    def test_first_feature_wins_a_tie(self):
        rows = np.array([[0.0, 0.0, 1.0, 1.0], [5.0, 5.0, 7.0, 7.0]])
        pos = np.array([0.0, 0.0, 1.0, 1.0])
        assert best_split(rows, pos, 0.5, "gini") == (0.5, 0, 0.5)


@st.composite
def segmented_searches(draw):
    """A tie-heavy ``[n, m]`` table with its positive mask, and 1-6 nodes
    over it with the same number of sampled features each. A node's samples
    repeat as a bootstrap sample's do; some nodes hold one sample repeated
    (every feature constant), some hold two samples."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 30))
    levels = draw(st.integers(1, 4))
    value = st.one_of(
        st.integers(0, levels - 1).map(lambda v: v / 10),
        st.floats(-100, 100, allow_nan=False),
    )
    table = np.array(draw(st.lists(
        st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n
    )), dtype=float)
    pos = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=float)
    sample = st.integers(0, m - 1)
    node_samples = st.one_of(
        st.lists(sample, min_size=2, max_size=25),
        st.tuples(sample, sample).map(list),
        st.tuples(sample, st.integers(2, 6)).map(lambda s: [s[0]] * s[1]),
    )
    f = draw(st.integers(1, n))
    features = st.lists(
        st.integers(0, n - 1), min_size=f, max_size=f, unique=True
    ).map(sorted)
    nodes = draw(st.lists(st.tuples(node_samples, features), min_size=1, max_size=6))
    return table, pos, nodes


def distinct_with_counts(nodes, m):
    """Each node's samples (repeats allowed) as one tree of its own: the
    ``[S, m]`` count table and the nodes as (tree, distinct samples in
    order of first appearance, feature ids)."""
    counts = np.array([np.bincount(samples, minlength=m) for samples, _ in nodes], dtype=float)
    weighted = []
    for s, (samples, ids) in enumerate(nodes):
        _, first = np.unique(samples, return_index=True)
        weighted.append((s, np.asarray(samples)[np.sort(first)], ids))
    return counts, weighted


def check_segmented_search(table, pos, counts, nodes, criterion):
    """One ``_best_splits`` call over ``nodes``, each (tree, distinct
    samples, feature ids) weighted by ``counts[tree]``, checked node by node
    against the scalar oracle run on the node's samples repeated as often
    as they weigh."""
    tree = np.array([t for t, _, _ in nodes])
    idx = [np.asarray(distinct) for _, distinct, _ in nodes]
    features = np.array([ids for _, _, ids in nodes])
    starts = np.cumsum([0] + [len(i) for i in idx[:-1]])
    repeats = [np.repeat(i, counts[t, i].astype(int)) for t, i in zip(tree, idx)]
    parent_imp = []
    for i in repeats:
        n_pos = int(pos[i].sum())
        parent_imp.append(impurity((len(i) - n_pos, n_pos), criterion))
    found = _best_splits(
        _sort_columns(table, pos), np.concatenate(idx), starts, tree, counts, features,
        np.array(parent_imp), criterion,
    )
    for s, (distinct, i) in enumerate(zip(idx, repeats)):
        rows = table[features[s]][:, i]
        expected = reference_best_split(rows, pos[i], parent_imp[s], criterion)
        if expected is None:
            assert found.gain[s] == -math.inf
            continue
        r, threshold = int(found.row[s]), found.threshold[s]
        assert (float(found.gain[s]), r, threshold) == expected
        # The node's distinct samples come back ordered on the winning
        # feature, those routed left first; what goes left weighs as much
        # as its repeats.
        go_left = rows[r] <= threshold
        cut, end = starts[s] + found.cut[s], starts[s] + len(distinct)
        assert sorted(found.samples[starts[s]:cut]) == sorted(set(i[go_left]))
        assert sorted(found.samples[cut:end]) == sorted(set(i[~go_left]))
        assert found.n_left[s] == np.count_nonzero(go_left)
        assert found.pos_left[s] == pos[i[go_left]].sum()


class TestSegmentedSearch:
    @settings(max_examples=200, deadline=None)
    @given(segmented_searches(), st.sampled_from(["gini", "entropy"]))
    def test_each_node_equals_its_own_scalar_search(self, search, criterion):
        table, pos, nodes = search
        counts, weighted = distinct_with_counts(nodes, len(pos))
        check_segmented_search(table, pos, counts, weighted, criterion)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_weights_of_one_are_the_unweighted_search(self, criterion):
        rng = np.random.default_rng(1)
        table = np.round(rng.normal(size=(3, 30)), 1)
        pos = (rng.random(30) < 0.5).astype(float)
        nodes = [(0, rng.permutation(30)[:size], [0, 2]) for size in (2, 9, 30)]
        check_segmented_search(table, pos, np.ones((1, 30)), nodes, criterion)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_one_heavy_sample_next_to_samples_of_weight_one(self, criterion):
        rng = np.random.default_rng(2)
        table = np.round(rng.normal(size=(2, 12)), 1)
        pos = np.array([1.0, 0.0] * 6)
        counts = np.ones((1, 12))
        counts[0, 3] = 1500.0
        check_segmented_search(table, pos, counts, [(0, np.arange(12), [0, 1])], criterion)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_weights_across_several_nodes_of_one_call(self, criterion):
        # Two trees' bootstrap counts: tree 0's distinct samples split over
        # three nodes, tree 1's in one, all searched in one call.
        rng = np.random.default_rng(3)
        m = 60
        table = np.round(rng.normal(size=(4, m)), 1)
        pos = (rng.random(m) < 0.5).astype(float)
        counts = np.array([np.bincount(rng.integers(0, m, m), minlength=m) for _ in range(2)],
                          dtype=float)
        d0, d1 = np.flatnonzero(counts[0]), np.flatnonzero(counts[1])
        nodes = [(0, d0[:10], [0, 3]), (1, d1, [1, 2]), (0, d0[10:25], [0, 1]),
                 (0, d0[25:], [2, 3])]
        assert counts[0, d0].max() > 1 and counts[1, d1].max() > 1
        check_segmented_search(table, pos, counts, nodes, criterion)

    def test_a_midpoint_that_rounds_up_sends_both_values_left(self):
        # (a + b) / 2 rounds to b here, and routing sends b left too, so the
        # partition follows the values, not the position of the midpoint.
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        found = _best_splits(
            _sort_columns(np.array([[a, b]]), np.array([0.0, 1.0])), np.array([0, 1]),
            np.array([0]), np.array([0]), np.ones((1, 2)), np.array([[0]]),
            np.array([0.5]), "gini",
        )
        assert found.threshold[0] == b
        assert found.n_left[0] == 2 and found.pos_left[0] == 1.0

    def test_midpoint_of_subnormal_values_is_correctly_rounded(self):
        # One and two units of the smallest subnormal: halving each value
        # first gives 0 + 1 unit, one unit below the midpoint that
        # (a + b) / 2 rounds to.
        a, b = 5e-324, 1e-323
        found = _best_splits(
            _sort_columns(np.array([[a, b]]), np.array([0.0, 1.0])), np.array([0, 1]),
            np.array([0]), np.array([0]), np.ones((1, 2)), np.array([[0]]),
            np.array([0.5]), "gini",
        )
        assert found.threshold[0] == (a + b) / 2.0 != a / 2.0 + b / 2.0

    @pytest.mark.parametrize("cap", [1, sys.maxsize])
    def test_column_cap_does_not_change_the_model(self, monkeypatch, cap):
        # A cap of 1 searches every node alone; no cap searches each wave
        # in one call.
        space, data = gaussian_instances(seed=61, m=200, n=5)
        data = [Instance(np.round(inst.values, 1), label=inst.label) for inst in data]
        cfg = TrainConfig(num_trees=6, seed=3)
        default = dumps_model(train_forest(data, cfg, space))
        monkeypatch.setattr(trainer, "COLUMN_CAP", cap)
        assert dumps_model(train_forest(data, cfg, space)) == default


# SHA-256 of ``dumps_model`` for forests trained on tie-heavy data (values
# rounded to 0.1). The first four were pinned when split search was a
# per-feature loop, tree by tree; the lockstep segmented search must
# reproduce every byte. The last two were pinned while every node drew its
# features with one ``Generator.choice`` call: "n20" at the benchmark's
# draw shape (n=20, 5 features per split), where ``choice`` runs Floyd's
# method, and "tail_shuffle" at a shape where it shuffles instead
# (n > 10000 and features_per_split > n // 50).
GOLDEN_MODEL_SHA256 = {
    "gini": "8fa5f6d27eea7ffaa9e0d24a8a57b6e13bc687c7e4a96586e79064fef40dab63",
    "entropy": "28d6b754272f8c2a594413939dd8837ade7506a1e92cced9d9a0fb39e27c6772",
    "all_features": "1af0b92785f61e55cd65abec3a9d33f653d87bb63c85497e9996b507a9d8fcf9",
    "min_split_5": "6b6b5373bae9a8dddd0644d004a8b65252a96fcc51e8a34dcda7c2b35158ece3",
    "n20": "c79d61ca8faa48c8fb2342995ab7a0b2d8408fd1e0c0fa852e4722f02c49a1d4",
    "tail_shuffle": "7c6b75442d6aac13999bd5e07758a380d552e0fbcd90850f4646fdd1797b7cde",
}
SIX_FEATURES = dict(seed=60, m=300, n=6)
# Name: (config, gaussian_instances arguments).
GOLDEN_CONFIGS = {
    "gini": (TrainConfig(criterion="gini", num_trees=4, seed=11), SIX_FEATURES),
    "entropy": (TrainConfig(criterion="entropy", num_trees=4, seed=11), SIX_FEATURES),
    "all_features": (TrainConfig(features_per_split=6, num_trees=4, seed=12), SIX_FEATURES),
    "min_split_5": (
        TrainConfig(criterion="entropy", min_samples_split=5, num_trees=4, seed=13),
        SIX_FEATURES,
    ),
    "n20": (TrainConfig(num_trees=6, max_depth=8, seed=14), dict(seed=61, m=400, n=20)),
    "tail_shuffle": (
        TrainConfig(features_per_split=250, seed=15),
        dict(seed=62, m=20, n=10001, separation=0.0),
    ),
}


def golden_model_digest(name):
    cfg, shape = GOLDEN_CONFIGS[name]
    space, data = gaussian_instances(**shape)
    data = [Instance(np.round(inst.values, 1), label=inst.label) for inst in data]
    text = dumps_model(train_forest(data, cfg, space))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_trained_model_bytes_are_pinned(name):
    assert golden_model_digest(name) == GOLDEN_MODEL_SHA256[name]


def choice_twin(seed):
    """Two generators in one state."""
    return [np.random.default_rng(seed) for _ in range(2)]


def set_state(twins, edit):
    for rng in twins:
        state = rng.bit_generator.state
        edit(state)
        rng.bit_generator.state = state
    return twins


def buffered_zero(state):
    """The next 32-bit draw is the buffered 0."""
    state["has_uint32"], state["uinteger"] = 1, 0


def second_output_7(state):
    """The 32-bit draws go on low(o1), high(o1), 7, 0: the 64-bit output
    of a PCG64 state whose high half is zero is its low half, unrotated,
    so step back twice from the state 7 with the inverse multiplier."""
    inverse = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 1 << 128)
    s, inc = 7, state["state"]["inc"]
    for _ in range(2):
        s = (s - inc) * inverse % (1 << 128)
    state["state"]["state"], state["has_uint32"] = s, 0


class TestSubsetDraws:
    @pytest.mark.parametrize(
        "n, fps",
        [(2, 1), (3, 2), (6, 3), (20, 5), (50, 8), (100, 99), (20000, 400), (20000, 401)],
    )
    def test_waves_draw_what_choice_draws_node_by_node(self, monkeypatch, n, fps):
        # Three trees drawing in staggered waves, so their blocks refill at
        # different waves; each draws exactly two blocks of nodes, after
        # which its generator must be where 2 * block choice calls leave it.
        block = 4
        monkeypatch.setattr(trainer, "_DRAW_BLOCK", block)
        pairs = [choice_twin(seed) for seed in (1, 2, 3)]
        draw = trainer._subset_drawer(n, fps, [ours for ours, _ in pairs])
        for wave in range(3 * block):
            trees = [k for k in range(3) if (wave + k) % 3]
            got = draw(trees)
            assert got.shape == (len(trees), fps)
            for row, k in zip(got, trees):
                want = np.sort(pairs[k][1].choice(n, size=fps, replace=False))
                np.testing.assert_array_equal(row, want)
        for ours, theirs in pairs:
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "n, fps, edit",
        [
            # The first draw is over [0, 16]: its Lemire threshold
            # (2**32 - 17) % 17 is 1, so the buffered 0 is rejected.
            (21, 5, buffered_zero),
            # The fourth, the first shuffle draw, is over [0, 2]: its
            # threshold 2**32 % 3 is 1, so the 0 is rejected there.
            (4, 3, second_output_7),
        ],
        ids=["set-draw", "shuffle-draw"],
    )
    def test_a_rejected_bounded_draw_is_drawn_again(self, monkeypatch, n, fps, edit):
        monkeypatch.setattr(trainer, "_DRAW_BLOCK", 1)
        ours, theirs = set_state(choice_twin(5), edit)
        draw = trainer._subset_drawer(n, fps, [ours])
        for _ in range(3):
            want = np.sort(theirs.choice(n, size=fps, replace=False))
            np.testing.assert_array_equal(draw([0])[0], want)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("block", [1, 3, 10_000])
    def test_block_size_does_not_change_the_model(self, monkeypatch, block):
        monkeypatch.setattr(trainer, "_DRAW_BLOCK", block)
        assert golden_model_digest("n20") == GOLDEN_MODEL_SHA256["n20"]


class TestTrainTree:
    def test_pure_positive_dataset(self):
        data = labeled(np.zeros((5, 2)), [1] * 5)
        tree = one_tree(data, TrainConfig()).nodes
        assert tree.label[0] == 1  # the root is a leaf

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train_forest([], TrainConfig(), plain_space(2))

    def test_separable_1d_stump(self):
        data = labeled([[0.1], [0.2], [0.8], [0.9]], [-1, -1, 1, 1])
        ens = one_tree(data, TrainConfig())
        assert ens.nodes.label[0] == 0  # the root is a split
        assert 0.2 < ens.nodes.threshold[0] < 0.8
        for inst in data:
            assert route(ens, 0, inst).leaf_label == inst.label

    def test_xor_at_depth_two(self):
        data = labeled(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [-1, 1, 1, -1]
        )
        cfg = TrainConfig(max_depth=2, features_per_split=2)
        ens = one_tree(data, cfg)
        for inst in data:
            assert route(ens, 0, inst).leaf_label == inst.label

    def test_max_depth_respected(self):
        rng = np.random.default_rng(4)
        data = labeled(rng.normal(0, 1, (200, 4)), rng.choice((-1, 1), 200))
        for depth in (1, 2, 3):
            ens = one_tree(data, TrainConfig(max_depth=depth, features_per_split=4))
            assert ens.nodes.depth[0] <= depth

    def test_deeper_than_the_recursion_limit(self):
        # Alternating 1-D labels: the best split peels one sample off an
        # end, so the tree is as deep as the data is long.
        x = np.arange(2400.0)
        data = labeled(x[:, None], np.where(x % 2 == 0, -1, 1))
        ens = one_tree(data, TrainConfig(max_depth=5000))
        assert ens.nodes.depth[0] > 2000
        for inst in data[::97]:
            assert route(ens, 0, inst).leaf_label == inst.label

    def test_leaf_majority_rule_with_tie_to_negative(self):
        # Route the training data through a no-bootstrap tree: every leaf
        # label must be the majority of the samples it receives, -1 on ties.
        rng = np.random.default_rng(8)
        data = labeled(rng.normal(0, 1, (120, 3)), rng.choice((-1, 1), 120))
        tree = one_tree(data, TrainConfig(max_depth=3, features_per_split=3)).nodes

        stack = [(0, data)]
        while stack:
            node, rows = stack.pop()
            if tree.label[node]:
                pos = sum(1 for inst in rows if inst.label == 1)
                neg = len(rows) - pos
                assert len(rows) > 0
                assert tree.label[node] == (1 if pos > neg else -1)
                continue
            feature, threshold = tree.feature[node], tree.threshold[node]
            right_child, left_child = tree.children[node]
            left = [r for r in rows if r.values[feature] <= threshold]
            right = [r for r in rows if r.values[feature] > threshold]
            stack += [(left_child, left), (right_child, right)]

    def test_splits_never_increase_impurity(self):
        # Recompute the weighted impurity change of every trained split.
        rng = np.random.default_rng(12)
        data = labeled(rng.normal(0, 1, (150, 4)), rng.choice((-1, 1), 150))
        tree = one_tree(data, TrainConfig(max_depth=4, features_per_split=4)).nodes

        stack = [(0, data)]
        while stack:
            node, rows = stack.pop()
            if tree.label[node]:
                continue
            feature, threshold = tree.feature[node], tree.threshold[node]
            pos = sum(1 for inst in rows if inst.label == 1)
            parent = impurity((len(rows) - pos, pos), "gini")
            left = [r for r in rows if r.values[feature] <= threshold]
            right = [r for r in rows if r.values[feature] > threshold]
            lp = sum(1 for inst in left if inst.label == 1)
            rp = sum(1 for inst in right if inst.label == 1)
            child = (
                len(left) * impurity((len(left) - lp, lp), "gini")
                + len(right) * impurity((len(right) - rp, rp), "gini")
            ) / len(rows)
            assert parent - child >= -1e-12
            right_child, left_child = tree.children[node]
            stack += [(left_child, left), (right_child, right)]


class TestTrainForest:
    def test_same_seed_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        data = labeled(rng.normal(0, 1, (100, 4)), rng.choice((-1, 1), 100))
        cfg = TrainConfig(num_trees=7, seed=23)
        a = train_forest(data, cfg, plain_space(4))
        b = train_forest(data, cfg, plain_space(4))
        assert dumps_model(a) == dumps_model(b)

    def test_metadata_records_resolved_settings(self):
        rng = np.random.default_rng(7)
        data = labeled(rng.normal(0, 1, (40, 9)), rng.choice((-1, 1), 40))
        ens = train_forest(data, TrainConfig(num_trees=2, seed=1), plain_space(9))
        assert ens.metadata["max_depth"] == 9
        assert ens.metadata["features_per_split"] == 3
        assert ens.metadata["bootstrap"] is True

    @pytest.mark.parametrize(
        "widths", [[3, 4], [3, 2], [4], [2]], ids=["ragged-wide", "ragged-narrow", "wide", "narrow"]
    )
    def test_rows_of_another_width_are_rejected(self, widths):
        # Ragged rows failed in numpy's stack with an untyped ValueError, and
        # rows uniformly of the wrong width with a plain ValueError.
        with pytest.raises(LengthMismatch, match=f"expected 3 values, got {widths[-1]}"):
            train_forest(rows_of_widths(widths), TrainConfig(num_trees=2), plain_space(3))

    def test_midpoint_of_huge_values_is_finite_and_the_model_reloads(self, tmp_path):
        # (a + b) / 2 overflows to inf here: every sample would go left, and
        # the model written would not load. pytest also fails on the
        # overflow warning.
        data = labeled([[1.5e308], [1.6e308], [1.7e308], [1.75e308]], [-1, -1, 1, 1])
        ens = train_forest(data, TrainConfig(num_trees=1), plain_space(1))
        assert 1.6e308 < ens.nodes.threshold[0] < 1.7e308
        path = tmp_path / "m.json"
        save_model(ens, path)
        loaded = load_model(path)
        assert [predict_ensemble(loaded, x) for x in data] == [-1, -1, 1, 1]


class TestFeatureImportances:
    def test_stump_importance_is_one_hot(self):
        data = labeled(
            [[0.0, 0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.2],
             [0.0, 0.0, 0.0, 0.8], [0.0, 0.0, 0.0, 0.9]],
            [-1, -1, 1, 1],
        )
        cfg = TrainConfig(num_trees=1, bootstrap=False, features_per_split=4)
        ens = train_forest(data, cfg, plain_space(4))
        np.testing.assert_allclose(ens.importances, [0.0, 0.0, 0.0, 1.0])

    def test_importances_are_normalized(self):
        rng = np.random.default_rng(9)
        data = labeled(rng.normal(0, 1, (200, 5)), rng.choice((-1, 1), 200))
        ens = train_forest(data, TrainConfig(num_trees=5, seed=2), plain_space(5))
        assert np.all(ens.importances >= 0)
        assert ens.importances.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_class_data_gives_zero_importances(self):
        # No node is impure, so every tree is one leaf and nothing gains.
        rng = np.random.default_rng(12)
        data = labeled(rng.normal(0, 1, (30, 3)), [1] * 30)
        ens = train_forest(data, TrainConfig(num_trees=3, seed=4), plain_space(3))
        # Each tree is one leaf: three roots and three nodes in all.
        assert ens.nodes.root.tolist() == [0, 1, 2]
        assert len(ens.nodes.label) == 3 and (ens.nodes.label != 0).all()
        np.testing.assert_array_equal(ens.importances, np.zeros(3))

    def test_informative_feature_ranks_first(self):
        rng = np.random.default_rng(10)
        m, n = 400, 10
        y = rng.choice((-1, 1), m)
        X = rng.normal(0, 1, (m, n))
        X[:, 4] = y * 1.5 + rng.normal(0, 0.3, m)
        ens = train_forest(
            labeled(X, y), TrainConfig(num_trees=20, seed=3), plain_space(n)
        )
        assert int(np.argmax(ens.importances)) == 4


class TestEvaluate:
    def test_perfect_predictions(self):
        tree = stump(0, 0.0, -1, 1)
        ens = TreeEnsemble(trees_from_nodes([tree]), plain_space(1))
        data = [Instance([-1.0], label=-1), Instance([1.0], label=1)] * 10
        metrics = evaluate_classifier(ens, data)
        assert metrics == ClassifierMetrics(f1=1.0, mcc=1.0, roc_auc=1.0)

    def test_inverted_predictions(self):
        tree = stump(0, 0.0, 1, -1)  # predicts the opposite of the label
        ens = TreeEnsemble(trees_from_nodes([tree]), plain_space(1))
        data = [Instance([-1.0], label=-1), Instance([1.0], label=1)] * 10
        metrics = evaluate_classifier(ens, data)
        assert metrics.mcc == pytest.approx(-1.0)
        assert metrics.roc_auc == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "data, error",
        [
            ([], EmptyDataset),
            ([Instance([0.0], label=1), Instance([1.0])], ValueError),
            ([Instance([0.0], label=1)] * 4, DegenerateLabels),
        ],
        ids=["empty", "unlabeled", "single-class"],
    )
    def test_rejects_unusable_sets(self, data, error):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        with pytest.raises(error):
            evaluate_classifier(ens, data)

    @pytest.mark.parametrize("widths", [[2], [4], [3, 4]], ids=["short", "long", "mixed"])
    def test_rows_of_another_width_are_rejected(self, widths):
        # Unchecked, long rows were scored on their first three values,
        # short rows read the next row's values until an IndexError, and
        # mixed widths failed in numpy with an untyped ValueError.
        ens = TreeEnsemble(trees_from_nodes([stump(2, 0.0, -1, 1)]), plain_space(3))
        data = [
            Instance([0.0] * (width - 1) + [v], label=lab)
            for width in widths
            for v, lab in [(-1.0, -1), (1.0, 1)] * 4
        ]
        with pytest.raises(LengthMismatch, match=f"expected 3 values, got {widths[-1]}"):
            evaluate_classifier(ens, data)

    def test_matches_per_instance_votes(self):
        # Oracle: one predict_ensemble and one vote count per instance.
        rng = np.random.default_rng(16)
        for num_trees in (1, 4, 7):
            ens = random_ensemble(rng, num_trees, 4, 4)
            data = [
                Instance(rng.normal(0, 1.5, 4), label=int(rng.choice((-1, 1))))
                for _ in range(200)
            ]
            labels = np.array([inst.label for inst in data])
            preds = np.array([predict_ensemble(ens, inst) for inst in data])
            scores = [
                sum(route(ens, k, inst).leaf_label == 1 for k in range(num_trees)) / num_trees
                for inst in data
            ]
            tp = int(np.sum((labels == 1) & (preds == 1)))
            tn = int(np.sum((labels == -1) & (preds == -1)))
            fp = int(np.sum((labels == -1) & (preds == 1)))
            fn = int(np.sum((labels == 1) & (preds == -1)))
            denom = math.sqrt(
                float(tp + fp) * float(tp + fn) * float(tn + fp) * float(tn + fn)
            )
            expected = ClassifierMetrics(
                f1=2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0,
                mcc=((tp * tn - fp * fn) / denom) if denom > 0 else 0.0,
                roc_auc=roc_auc_from_scores(scores, labels),
            )
            assert evaluate_classifier(ens, data) == expected
            if num_trees == 4:
                sums = vote_sums(ens, np.stack([inst.values for inst in data]))
                assert np.any(sums == 0)  # vote ties were exercised

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(0, 1, 2000)
        y = rng.choice((-1, 1), 2000)
        assert abs(roc_auc_from_scores(scores, y) - 0.5) < 0.05

    def test_auc_needs_both_classes(self):
        with pytest.raises(DegenerateLabels):
            roc_auc_from_scores([0.2, 0.7], [1, 1])

    def test_auc_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(14)
        scores = np.round(rng.uniform(0, 1, 300), 2)  # force some ties
        y = rng.choice((-1, 1), 300)
        pos = scores[y == 1]
        neg = scores[y == -1]
        wins = (pos[:, None] > neg[None, :]).mean()
        ties = (pos[:, None] == neg[None, :]).mean()
        assert roc_auc_from_scores(scores, y) == pytest.approx(wins + 0.5 * ties)


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda data, space: train_forest(data, TrainConfig(num_trees=5, seed=1), space),
            lambda data, space: evaluate_classifier(
                TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), space), data
            ),
        ],
        ids=["train_forest", "evaluate_classifier"],
    )
    def test_rejected_naming_row_and_feature(self, entry, bad):
        # A NaN or inf row was trained on, and scored, without any error.
        space, data = gaussian_instances(1, m=200, n=3)
        data[7] = Instance([0.0, 0.0, bad], label=data[7].label)
        with pytest.raises(NonFiniteValue, match=f"instance 7 has value {bad} at feature 2"):
            entry(data, space)


class TestMidranks:
    @staticmethod
    def oracle(values):
        # rank = #less + (#equal + 1) / 2, straight from the definition.
        return [
            sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2
            for v in values
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3), max_size=40))
    def test_matches_definition(self, values):
        assert midranks(np.array(values, dtype=float)).tolist() == self.oracle(values)

    def test_empty_single_and_all_tied(self):
        assert midranks(np.array([])).shape == (0,)
        assert midranks(np.array([7.5])).tolist() == [1.0]
        assert midranks(np.full(4, 2.0)).tolist() == [2.5] * 4


class TestStratifiedSplit:
    def test_preserves_class_balance(self):
        space, data = gaussian_instances(seed=40, m=500, n=3)
        train, test = stratified_split(data, 0.2, seed=1)
        assert len(train) + len(test) == len(data)
        test_pos = sum(1 for inst in test if inst.label == 1)
        assert abs(test_pos - len(test) / 2) <= 2

    def test_unlabeled_instances_rejected(self):
        space, data = gaussian_instances(seed=42, m=10, n=2)
        unlabeled = [Instance(inst.values) for inst in data[:5]]
        with pytest.raises(ValueError, match="labeled"):
            stratified_split(data + unlabeled, 0.2, seed=0)

    def test_deterministic(self):
        space, data = gaussian_instances(seed=41, m=100, n=2)
        a = stratified_split(data, 0.25, seed=9)
        b = stratified_split(data, 0.25, seed=9)
        assert [id(i) for i in a[0]] == [id(i) for i in b[0]]


class TestForestQuality:
    def test_forest_separates_gaussians(self):
        space, data = gaussian_instances(seed=50, m=500, n=8)
        train, test = stratified_split(data, 0.2, seed=0)
        ens = train_forest(train, TrainConfig(num_trees=30, seed=1), space)
        metrics = evaluate_classifier(ens, test)
        assert metrics.roc_auc > 0.9

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetweak.errors import DegenerateLabels, EmptyDataset, EmptyNode
from treetweak.feature_space import Instance
from treetweak.forest import (
    TreeEnsemble,
    dumps_model,
    predict_ensemble,
    predict_tree,
    vote_sums,
)
from treetweak.trainer import (
    ClassifierMetrics,
    TrainConfig,
    _best_split,
    _impurity_vec,
    evaluate_classifier,
    impurity,
    midranks,
    roc_auc_from_scores,
    stratified_split,
    train_forest,
    train_tree,
)

from conftest import gaussian_instances, plain_space, random_ensemble, stump


def labeled(rows, labels):
    return [Instance(row, label=int(lab)) for row, lab in zip(rows, labels)]


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


def reference_split_on_feature(column, pos_mask, parent_imp, criterion):
    """Scalar oracle: best (gain, threshold) of one feature, or None.

    The per-feature scan that ``_best_split`` vectorizes, kept verbatim.
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


class TestBestSplit:
    @settings(max_examples=200, deadline=None)
    @given(split_nodes(), st.sampled_from(["gini", "entropy"]))
    def test_equals_scalar_oracle(self, node, criterion):
        rows, pos = node
        n_pos = int(pos.sum())
        parent_imp = impurity((len(pos) - n_pos, n_pos), criterion)
        assert _best_split(rows, pos, parent_imp, criterion) == reference_best_split(
            rows, pos, parent_imp, criterion
        )

    def test_constant_rows_give_none(self):
        rows = np.array([[1.0, 1.0, 1.0], [0.2, 0.2, 0.2]])
        assert _best_split(rows, np.array([1.0, 0.0, 1.0]), 0.5, "gini") is None

    def test_first_feature_wins_a_tie(self):
        rows = np.array([[0.0, 0.0, 1.0, 1.0], [5.0, 5.0, 7.0, 7.0]])
        pos = np.array([0.0, 0.0, 1.0, 1.0])
        assert _best_split(rows, pos, 0.5, "gini") == (0.5, 0, 0.5)


# SHA-256 of ``dumps_model`` for forests trained on tie-heavy data (values
# rounded to 0.1). Pinned when split search was a per-feature loop; the
# vectorized search must reproduce every byte.
GOLDEN_MODEL_SHA256 = {
    "gini": "8fa5f6d27eea7ffaa9e0d24a8a57b6e13bc687c7e4a96586e79064fef40dab63",
    "entropy": "28d6b754272f8c2a594413939dd8837ade7506a1e92cced9d9a0fb39e27c6772",
    "all_features": "1af0b92785f61e55cd65abec3a9d33f653d87bb63c85497e9996b507a9d8fcf9",
    "min_split_5": "6b6b5373bae9a8dddd0644d004a8b65252a96fcc51e8a34dcda7c2b35158ece3",
}
GOLDEN_CONFIGS = {
    "gini": TrainConfig(criterion="gini", num_trees=4, seed=11),
    "entropy": TrainConfig(criterion="entropy", num_trees=4, seed=11),
    "all_features": TrainConfig(features_per_split=6, num_trees=4, seed=12),
    "min_split_5": TrainConfig(
        criterion="entropy", min_samples_split=5, num_trees=4, seed=13
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_trained_model_bytes_are_pinned(name):
    space, data = gaussian_instances(seed=60, m=300, n=6)
    data = [Instance(np.round(inst.values, 1), label=inst.label) for inst in data]
    text = dumps_model(train_forest(data, GOLDEN_CONFIGS[name], space))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODEL_SHA256[name]


class TestTrainTree:
    def test_pure_positive_dataset(self):
        data = labeled(np.zeros((5, 2)), [1] * 5)
        tree = train_tree(data, TrainConfig(), np.random.default_rng(0))
        assert tree.label[0] == 1  # the root is a leaf

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train_tree([], TrainConfig(), np.random.default_rng(0))

    def test_separable_1d_stump(self):
        data = labeled([[0.1], [0.2], [0.8], [0.9]], [-1, -1, 1, 1])
        tree = train_tree(data, TrainConfig(), np.random.default_rng(0))
        assert tree.label[0] == 0  # the root is a split
        assert 0.2 < tree.threshold[0] < 0.8
        for inst in data:
            assert predict_tree(tree, inst) == inst.label

    def test_xor_at_depth_two(self):
        data = labeled(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [-1, 1, 1, -1]
        )
        cfg = TrainConfig(max_depth=2, features_per_split=2)
        tree = train_tree(data, cfg, np.random.default_rng(0))
        for inst in data:
            assert predict_tree(tree, inst) == inst.label

    def test_max_depth_respected(self):
        rng = np.random.default_rng(4)
        data = labeled(rng.normal(0, 1, (200, 4)), rng.choice((-1, 1), 200))
        for depth in (1, 2, 3):
            tree = train_tree(
                data, TrainConfig(max_depth=depth, features_per_split=4), rng
            )
            assert tree.depth <= depth

    def test_deeper_than_the_recursion_limit(self):
        # Alternating 1-D labels: the best split peels one sample off an
        # end, so the tree is as deep as the data is long.
        x = np.arange(2400.0)
        data = labeled(x[:, None], np.where(x % 2 == 0, -1, 1))
        tree = train_tree(data, TrainConfig(max_depth=5000), np.random.default_rng(0))
        assert tree.depth > 2000
        for inst in data[::97]:
            assert predict_tree(tree, inst) == inst.label

    def test_leaf_majority_rule_with_tie_to_negative(self):
        # Route the training data through a no-bootstrap tree: every leaf
        # label must be the majority of the samples it receives, -1 on ties.
        rng = np.random.default_rng(8)
        data = labeled(rng.normal(0, 1, (120, 3)), rng.choice((-1, 1), 120))
        tree = train_tree(
            data, TrainConfig(max_depth=3, features_per_split=3), np.random.default_rng(1)
        )

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
        tree = train_tree(
            data, TrainConfig(max_depth=4, features_per_split=4), np.random.default_rng(2)
        )

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
    def test_single_tree_without_bootstrap_matches_train_tree(self):
        rng = np.random.default_rng(3)
        data = labeled(rng.normal(0, 1, (80, 3)), rng.choice((-1, 1), 80))
        cfg = TrainConfig(num_trees=1, bootstrap=False, seed=17)
        ens = train_forest(data, cfg, plain_space(3))
        solo = train_tree(
            data, cfg, np.random.default_rng(np.random.SeedSequence(17).spawn(1)[0])
        )
        ens_solo = TreeEnsemble((solo,), plain_space(3), ens.importances, ens.metadata)
        assert dumps_model(ens) == dumps_model(ens_solo)

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
        assert all(len(tree.label) == 1 for tree in ens.trees)
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
        ens = TreeEnsemble((tree,), plain_space(1))
        data = [Instance([-1.0], label=-1), Instance([1.0], label=1)] * 10
        metrics = evaluate_classifier(ens, data)
        assert metrics == ClassifierMetrics(f1=1.0, mcc=1.0, roc_auc=1.0)

    def test_inverted_predictions(self):
        tree = stump(0, 0.0, 1, -1)  # predicts the opposite of the label
        ens = TreeEnsemble((tree,), plain_space(1))
        data = [Instance([-1.0], label=-1), Instance([1.0], label=1)] * 10
        metrics = evaluate_classifier(ens, data)
        assert metrics.mcc == pytest.approx(-1.0)
        assert metrics.roc_auc == pytest.approx(0.0)

    def test_degenerate_labels(self):
        ens = TreeEnsemble((stump(0, 0.0, -1, 1),), plain_space(1))
        with pytest.raises(DegenerateLabels):
            evaluate_classifier(ens, [Instance([0.0], label=1)] * 4)

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
                sum(predict_tree(tree, inst) == 1 for tree in ens.trees) / num_trees
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

    def test_auc_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(14)
        scores = np.round(rng.uniform(0, 1, 300), 2)  # force some ties
        y = rng.choice((-1, 1), 300)
        pos = scores[y == 1]
        neg = scores[y == -1]
        wins = (pos[:, None] > neg[None, :]).mean()
        ties = (pos[:, None] == neg[None, :]).mean()
        assert roc_auc_from_scores(scores, y) == pytest.approx(wins + 0.5 * ties)


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

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetweak.costs import COST_NAMES
from treetweak.errors import (
    InfeasiblePath,
    LengthMismatch,
    NonFiniteValue,
    NotNegative,
    SearchSpaceTooLarge,
)
from treetweak.feature_space import Instance
from treetweak.recommend import top_k_transformations
from treetweak.forest import (
    GT,
    LE,
    Condition,
    Path,
    TreeEnsemble,
    ensemble_from_dict,
    ensemble_to_dict,
    extract_paths,
    predict_ensemble,
    route,
    trees_from_nodes,
)
import treetweak.tweaker as tweaker_mod
from treetweak.tweaker import (
    Found,
    NotCovered,
    SweepRow,
    Transformation,
    brute_force_tweak,
    build_positive_instance,
    candidate_set,
    sweep,
    tweak,
    write_sweep_csv,
)

from conftest import (
    box_entries,
    plain_space,
    random_ensemble,
    random_tree,
    sample_negative_instances,
    stump,
    tree,
)


def positive_path(*conds):
    return Path(tuple(Condition(*c) for c in conds), leaf_label=1)


def interval_tree(low, high):
    """Positive exactly on (low, high] of feature 0, negative elsewhere."""
    return tree((0, low, -1, (0, high, 1, -1)))


class TestBuildPositiveInstance:
    def test_le_condition_moves_below_threshold(self):
        path = positive_path((0, LE, 0.5))
        out = build_positive_instance(Instance([0.9]), path, 0.1, plain_space(1))
        np.testing.assert_allclose(out.values, [0.4])

    def test_gt_condition_moves_above_threshold_and_keeps_rest(self):
        path = positive_path((1, GT, 1.0))
        out = build_positive_instance(Instance([0.0, 0.0]), path, 0.1, plain_space(2))
        np.testing.assert_allclose(out.values, [0.0, 1.1])

    def test_two_sided_interval_binds_on_upper(self):
        ens = TreeEnsemble(trees_from_nodes([interval_tree(0.2, 0.8)]), plain_space(1))
        (path,) = [p for p in extract_paths(ens, 0) if p.leaf_label == 1]
        out = build_positive_instance(Instance([5.0]), path, 0.1, plain_space(1))
        np.testing.assert_allclose(out.values, [0.7])
        assert route(ens, 0, out).path_index == path.path_index
        assert route(ens, 0, out).leaf_label == 1

    def test_interval_narrower_than_epsilon_is_infeasible(self):
        path = positive_path((0, GT, 0.2), (0, LE, 0.25))
        with pytest.raises(InfeasiblePath):
            build_positive_instance(Instance([5.0]), path, 0.1, plain_space(1))

    def test_conditions_applied_even_when_already_satisfied(self):
        path = positive_path((0, LE, 0.5))
        out = build_positive_instance(Instance([0.0]), path, 0.1, plain_space(1))
        np.testing.assert_allclose(out.values, [0.4])

    def test_skip_satisfied_keeps_current_value(self):
        path = positive_path((0, LE, 0.5))
        out = build_positive_instance(
            Instance([0.0]), path, 0.1, plain_space(1), skip_satisfied=True
        )
        np.testing.assert_allclose(out.values, [0.0])

    def test_non_adjustable_feature_kept_when_inside_bounds(self):
        space = plain_space(2, adjustable=[False, True])
        path = positive_path((0, LE, 0.5), (1, GT, 1.0))
        out = build_positive_instance(Instance([0.2, 0.0]), path, 0.1, space)
        np.testing.assert_allclose(out.values, [0.2, 1.1])

    def test_non_adjustable_feature_blocks_path(self):
        space = plain_space(2, adjustable=[False, True])
        path = positive_path((0, LE, 0.5), (1, GT, 1.0))
        with pytest.raises(InfeasiblePath):
            build_positive_instance(Instance([0.9, 0.0]), path, 0.1, space)

    def test_negative_path_rejected(self):
        path = Path((Condition(0, LE, 0.5),), leaf_label=-1)
        with pytest.raises(ValueError):
            build_positive_instance(Instance([0.0]), path, 0.1, plain_space(1))

    def test_unknown_direction_rejected(self):
        path = positive_path((0, "eq", 0.5))
        with pytest.raises(ValueError, match="unknown condition direction 'eq'"):
            build_positive_instance(Instance([0.0]), path, 0.1, plain_space(1))

    def test_epsilon_must_be_positive(self):
        path = positive_path((0, LE, 0.5))
        with pytest.raises(ValueError):
            build_positive_instance(Instance([0.0]), path, 0.0, plain_space(1))

    def test_repeated_conditions_fold_to_tightest(self):
        path = positive_path((0, LE, 0.9), (0, LE, 0.5), (0, GT, -0.3))
        out = build_positive_instance(Instance([2.0]), path, 0.1, plain_space(1))
        np.testing.assert_allclose(out.values, [0.4])


class TestCandidateSet:
    def test_no_positive_paths_means_empty(self):
        ens = TreeEnsemble(trees_from_nodes([tree(-1)]), plain_space(1))
        assert candidate_set(ens, Instance([0.0]), 0.1, "euclidean") == []

    def test_single_stump_single_candidate(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        cands = candidate_set(ens, Instance([-1.0]), 0.1, "euclidean")
        assert len(cands) == 1
        np.testing.assert_allclose(cands[0].candidate.values, [0.1])
        assert cands[0].changed_indices == frozenset({0})

    def test_positive_instance_yields_empty_set(self):
        # tweak rejects a positive instance with NotNegative, which
        # candidate_set turns into an empty set rather than an error.
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        assert candidate_set(ens, Instance([2.0]), 0.1, "euclidean") == []

    def test_matches_local_exhaustive_enumeration(self):
        # Independent oracle: fold each positive path by hand and filter by
        # the ensemble, without going through the candidate generator.
        trees = (
            tree((0, 0.0, (1, 0.5, 1, -1), 1)),
            tree((1, -0.5, -1, (0, 1.0, 1, -1))),
            stump(0, 0.3, -1, 1),
        )
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(2))
        rng = np.random.default_rng(2)
        checked = 0
        for x in sample_negative_instances(ens, rng, 10):
            expected = set()
            for k in range(ens.num_trees):
                if route(ens, k, x).leaf_label != -1:
                    continue
                for path in extract_paths(ens, k):
                    if path.leaf_label != 1:
                        continue
                    lows, highs = {}, {}
                    for f, d, t in path.conditions:
                        if d == LE:
                            highs[f] = min(highs.get(f, math.inf), t)
                        else:
                            lows[f] = max(lows.get(f, -math.inf), t)
                    vals = x.values.copy()
                    ok = True
                    for f in set(lows) | set(highs):
                        lo = lows.get(f, -math.inf)
                        hi = highs.get(f, math.inf)
                        v = hi - 0.25 if hi != math.inf else lo + 0.25
                        if v <= lo:
                            ok = False
                            break
                        vals[f] = v
                    if ok and predict_ensemble(ens, vals) == 1:
                        expected.add((k, path.path_index, tuple(vals)))
            got = {
                (c.source_tree, c.source_path, tuple(c.candidate.values))
                for c in candidate_set(ens, x, 0.25, "euclidean")
            }
            assert got == expected
            checked += len(expected)
        assert checked > 0


class TestTweak:
    def test_stump_found_with_euclidean_cost(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        out = tweak(ens, Instance([-1.0]), "euclidean", 0.1)
        assert isinstance(out, Found)
        np.testing.assert_allclose(out.best.candidate.values, [0.1])
        assert out.best.cost == pytest.approx(1.1)

    def test_not_negative_rejected(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        with pytest.raises(NotNegative):
            tweak(ens, Instance([1.0]), "euclidean", 0.1)

    def test_mutually_contradicting_trees_not_covered(self):
        # Three trees, each positive only on its own disjoint interval of
        # feature 0: every candidate satisfies exactly one tree and flips
        # nothing else, so no transformation can win the vote.
        trees = tuple(interval_tree(10.0 * k, 10.0 * k + 1.0) for k in range(3))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(1))
        x = Instance([-5.0])
        assert predict_ensemble(ens, x) == -1
        assert candidate_set(ens, x, 0.1, "euclidean") == []
        out = tweak(ens, x, "euclidean", 0.1)
        assert isinstance(out, NotCovered)
        assert "no candidate" in out.reason

    def test_non_adjustable_feature_blocks_all_paths(self):
        space = plain_space(2, adjustable=[False, True])
        trees = tuple(stump(0, 0.0, -1, 1) for _ in range(3))
        ens = TreeEnsemble(trees_from_nodes(trees), space)
        x = Instance([-1.0, 0.0])
        assert candidate_set(ens, x, 0.1, "euclidean") == []
        assert isinstance(tweak(ens, x, "euclidean", 0.1), NotCovered)

    def test_best_is_minimum_and_ties_break_on_tree_then_path(self):
        # Two identical stumps produce identical candidates; the earlier
        # tree index must win.
        trees = (stump(0, 0.0, -1, 1), stump(0, 0.0, -1, 1), stump(1, 5.0, 1, -1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(2))
        x = Instance([-1.0, 0.0])
        out = tweak(ens, x, "euclidean", 0.1)
        assert isinstance(out, Found)
        assert out.best.source_tree == 0
        costs = [c.cost for c in out.all_candidates]
        assert out.best.cost == min(costs)

    def test_candidates_satisfy_all_invariants(self):
        rng = np.random.default_rng(7)
        space = plain_space(4, adjustable=[True, True, False, True])
        for _ in range(25):
            ens = random_ensemble(rng, int(rng.integers(1, 6)), 4, 3, space=space)
            for x in sample_negative_instances(ens, rng, 5):
                out = tweak(ens, x, "euclidean", 0.2)
                if not isinstance(out, Found):
                    continue
                for cand in out.all_candidates:
                    assert predict_ensemble(ens, cand.candidate) == 1
                    path = route(ens, cand.source_tree, cand.candidate)
                    assert path.leaf_label == 1
                    assert path.path_index == cand.source_path
                    assert cand.candidate.values[2] == x.values[2]
                    assert 2 not in cand.changed_indices
                    changed = {
                        int(i)
                        for i in np.nonzero(cand.candidate.values != x.values)[0]
                    }
                    assert changed == set(cand.changed_indices)

    def test_budget_truncates_deterministically(self):
        rng = np.random.default_rng(13)
        ens = random_ensemble(rng, 4, 3, 4)
        xs = sample_negative_instances(ens, rng, 3)
        for x in xs:
            full = candidate_set(ens, x, 0.2, "euclidean")
            for budget in (0, 1, 2, 3):
                a = candidate_set(ens, x, 0.2, "euclidean", budget=budget)
                b = candidate_set(ens, x, 0.2, "euclidean", budget=budget)
                assert [tuple(c.candidate.values) for c in a] == [
                    tuple(c.candidate.values) for c in b
                ]
                # the budget stops the search early in (tree, path) order
                assert [tuple(c.candidate.values) for c in a] == [
                    tuple(c.candidate.values) for c in full[: len(a)]
                ]
            # a generous budget reproduces the full search
            big = candidate_set(ens, x, 0.2, "euclidean", budget=10_000)
            assert [tuple(c.candidate.values) for c in big] == [
                tuple(c.candidate.values) for c in full
            ]


class TestBruteForce:
    def test_single_tree_equals_tweak(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ens = random_ensemble(rng, 1, 3, 4)
            for x in sample_negative_instances(ens, rng, 4):
                for name in COST_NAMES:
                    a = tweak(ens, x, name, 0.1)
                    b = brute_force_tweak(ens, x, name, 0.1)
                    assert type(a) is type(b)
                    if isinstance(a, Found):
                        assert a.best.cost == pytest.approx(b.best.cost, abs=1e-9)
                        np.testing.assert_array_equal(
                            a.best.candidate.values, b.best.candidate.values
                        )

    def test_no_positive_paths_not_covered(self):
        ens = TreeEnsemble(trees_from_nodes([tree(-1)]), plain_space(1))
        out = brute_force_tweak(ens, Instance([0.0]), "euclidean", 0.1)
        assert isinstance(out, NotCovered)

    def test_guard_rejects_huge_search(self, monkeypatch):
        monkeypatch.setattr(tweaker_mod, "BRUTE_FORCE_PATH_LIMIT", 2)
        rng = np.random.default_rng(19)
        ens = random_ensemble(rng, 3, 3, 4)
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_tweak(ens, Instance([0.0, 0.0, 0.0]), "euclidean", 0.1)

    def test_oracle_equivalence_on_negative_voting_scope(self):
        rng = np.random.default_rng(23)
        compared = 0
        for _ in range(20):
            ens = random_ensemble(rng, int(rng.choice((1, 3, 5))), 4, 3)
            for x in sample_negative_instances(ens, rng, 4):
                for name in COST_NAMES:
                    a = tweak(ens, x, name, 0.15)
                    b = brute_force_tweak(
                        ens, x, name, 0.15, only_negative_trees=True
                    )
                    assert type(a) is type(b)
                    if isinstance(a, Found):
                        compared += 1
                        if name in ("tweaked_feature_rate", "jaccard"):
                            assert a.best.cost == b.best.cost
                        else:
                            assert a.best.cost == pytest.approx(
                                b.best.cost, abs=1e-9
                            )
        assert compared > 20

    def test_deep_chain_agrees_with_tweak(self):
        # Far deeper than Python's recursion limit, built like the loader's
        # deep-chain test: every walk over the tree must be a loop.
        depth = 3000
        nodes = []
        for i in range(depth):
            slot = len(nodes)
            nodes.append(
                {"feature": i % 6, "threshold": i / 8,
                 "left": slot + 1, "right": slot + 2}
            )
            nodes.append({"leaf": -1})
        nodes.append({"leaf": 1})
        doc = ensemble_to_dict(TreeEnsemble(trees_from_nodes([tree(1)]), plain_space(6)))
        doc["trees"][0]["nodes"] = nodes
        ens = ensemble_from_dict(doc)
        x = Instance(np.zeros(6))
        paths = extract_paths(ens, 0)
        assert len(paths) == depth + 1
        assert route(ens, 0, x).leaf_label == -1
        assert route(ens, 0, x) == paths[0]
        a = tweak(ens, x, "euclidean", 0.05)
        b = brute_force_tweak(ens, x, "euclidean", 0.05, only_negative_trees=True)
        assert isinstance(a, Found) and isinstance(b, Found)
        np.testing.assert_array_equal(a.best.candidate.values, b.best.candidate.values)
        assert a.best.sort_key() == b.best.sort_key() == (a.best.cost, 0, depth)
        assert route(ens, 0, a.best.candidate).leaf_label == 1
        assert route(ens, 0, a.best.candidate) == paths[-1]


class TestFoldingEquivalence:
    @pytest.mark.parametrize("delta", COST_NAMES)
    def test_full_candidate_multiset_matches_brute_force(self, delta):
        # The search folds precomputed leaf boxes, validates candidates in
        # one batch and costs them in one row-wise call; the oracle folds
        # each extracted path from scratch and validates and costs one
        # candidate at a time. The complete, ordered candidate lists (not
        # just the minima) must coincide bit for bit.
        compared = 0
        for epsilon, skip_satisfied, adjustable in itertools.product(
            (0.05, 0.1, 0.5), (False, True), (None, [True, False, True])
        ):
            rng = np.random.default_rng(37)
            space = plain_space(3, adjustable=adjustable)
            for _ in range(30):
                ens = random_ensemble(
                    rng, int(rng.integers(1, 5)), 3, 5, space=space
                )
                for x in sample_negative_instances(ens, rng, 3):
                    fast = candidate_set(
                        ens, x, epsilon, delta, skip_satisfied=skip_satisfied
                    )
                    oracle = brute_force_tweak(
                        ens, x, delta, epsilon,
                        only_negative_trees=True, skip_satisfied=skip_satisfied,
                    )
                    oracle_cands = (
                        oracle.all_candidates if isinstance(oracle, Found) else ()
                    )
                    assert len(fast) == len(oracle_cands)
                    for a, b in zip(fast, oracle_cands):
                        assert (a.source_tree, a.source_path) == (
                            b.source_tree,
                            b.source_path,
                        )
                        assert np.array_equal(a.candidate.values, b.candidate.values)
                        assert a.cost == b.cost
                        assert a.changed_indices == b.changed_indices
                    compared += len(fast)
        assert compared > 500

    def test_deeply_repeated_feature_folds_correctly(self):
        # One feature tested four times on a single path; the folded
        # bounds are (0.4, 0.6], so the candidate sits at 0.6 - eps.
        t = tree((0, 1.0, (0, 0.2, -1, (0, 0.6, (0, 0.4, -1, 1), -1)), -1))
        ens = TreeEnsemble(trees_from_nodes([t]), plain_space(1))
        x = Instance([5.0])
        out = tweak(ens, x, "euclidean", 0.05)
        assert isinstance(out, Found)
        np.testing.assert_allclose(out.best.candidate.values, [0.55])
        assert route(ens, 0, out.best.candidate).leaf_label == 1
        # margin wider than the interval: nothing fits into (0.4, 0.6]
        assert isinstance(tweak(ens, x, "euclidean", 0.25), NotCovered)

    def test_skip_satisfied_candidates_keep_all_invariants(self):
        rng = np.random.default_rng(41)
        space = plain_space(4, adjustable=[True, True, False, True])
        seen = 0
        for _ in range(20):
            ens = random_ensemble(rng, int(rng.integers(1, 5)), 4, 4, space=space)
            for x in sample_negative_instances(ens, rng, 4):
                out = tweak(ens, x, "euclidean", 0.2, skip_satisfied=True)
                if not isinstance(out, Found):
                    continue
                for cand in out.all_candidates:
                    seen += 1
                    assert predict_ensemble(ens, cand.candidate) == 1
                    path = route(ens, cand.source_tree, cand.candidate)
                    assert path.leaf_label == 1
                    assert path.path_index == cand.source_path
                    assert cand.candidate.values[2] == x.values[2]
        assert seen > 50


class TestBatchedSearchEdges:
    def test_candidate_on_another_trees_threshold_routes_left(self):
        # Tree 0's positive leaf places x0 at 1.0 - 0.5 = 0.5, exactly on
        # tree 1's threshold; routing it left there gives the second
        # positive vote that flips the ensemble.
        trees = (stump(0, 1.0, 1, -1), stump(0, 0.5, 1, -1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(1))
        out = tweak(ens, Instance([2.0]), "euclidean", 0.5)
        assert isinstance(out, Found)
        assert [(c.source_tree, c.source_path) for c in out.all_candidates] == [
            (0, 0),
            (1, 0),
        ]
        assert out.all_candidates[0].candidate.values[0] == 0.5

    def test_negative_trees_without_positive_leaves(self):
        trees = (tree(-1), stump(1, 0.0, -1, -1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(2))
        out = tweak(ens, Instance([0.0, 0.0]), "euclidean", 0.1)
        boxes = ens.positive_boxes
        assert [a.shape for a in boxes] == [(0, 1)] * 3 + [(0,)] * 2
        assert out == NotCovered(
            "no candidate flips the ensemble: 0 positive paths over 2 "
            "negative-voting trees (0 infeasible, 0 rejected)"
        )

    def test_unbalanced_tree_matches_oracle(self):
        # Leaves at depths 1, 2, 4, 4 and 3, positive ones at 1, 4 and 3.
        deep = tree((0, 0.0, 1, (1, 1.0, -1, (0, 2.0, (1, 3.0, -1, 1), 1))))
        # The stump votes +1 at x and at every candidate, so the vote ties
        # at x and each positive leaf of the deep tree flips it.
        ens = TreeEnsemble(trees_from_nodes([deep, stump(0, 10.0, 1, -1)]), plain_space(2))
        x = Instance([0.5, 1.5])
        fast = candidate_set(ens, x, 0.1, "euclidean")
        oracle = brute_force_tweak(ens, x, "euclidean", 0.1, only_negative_trees=True)
        assert isinstance(oracle, Found)
        assert [(c.source_tree, c.source_path) for c in fast] == [
            (c.source_tree, c.source_path) for c in oracle.all_candidates
        ]
        for a, b in zip(fast, oracle.all_candidates):
            assert np.array_equal(a.candidate.values, b.candidate.values)
        assert [(c.source_tree, c.source_path) for c in fast] == [
            (0, 0),
            (0, 3),
            (0, 4),
        ]

    def test_leaf_boxes_equal_folded_positive_paths(self):
        # The whole-forest climb against _fold_conditions of each extracted
        # path, on forests whose trees have different depths.
        rng = np.random.default_rng(43)
        rows = 0
        for _ in range(40):
            trees = tuple(
                random_tree(rng, 4, int(rng.integers(0, 7)))
                for _ in range(int(rng.integers(1, 6)))
            )
            ens = TreeEnsemble(trees_from_nodes(trees), plain_space(4))
            boxes = ens.positive_boxes
            paths = [
                (k, path)
                for k in range(ens.num_trees)
                for path in extract_paths(ens, k)
                if path.leaf_label == 1
            ]
            assert boxes.tree.tolist() == [k for k, _ in paths]
            assert boxes.ordinal.tolist() == [path.path_index for _, path in paths]
            # Every entry folds its feature's conditions, no untested
            # feature has one, and padding repeats the row's own.
            folded = [tweaker_mod._fold_conditions(path.conditions) for _, path in paths]
            assert box_entries(boxes) == [
                {(f, lo, hi) for f, (lo, hi) in bounds.items()} for bounds in folded
            ]
            assert boxes.feature.shape == (len(paths), max([1, *map(len, folded)]))
            rows += len(paths)
        assert rows > 100


class TestRowwiseCosting:
    def _ensemble(self):
        # At x = [2, 2] the first two stumps vote -1 and the third +1.
        # Moving either feature below 1.0 flips the vote sum to +1, which
        # gives the candidates (tree 0, path 0) and (tree 1, path 0).
        trees = (stump(0, 1.0, 1, -1), stump(1, 1.0, 1, -1), stump(0, 5.0, 1, -1))
        return TreeEnsemble(trees_from_nodes(trees), plain_space(2)), Instance([2.0, 2.0])

    @pytest.mark.parametrize(
        "delta",
        [
            lambda x, Y: 1.0,
            lambda x, Y: np.abs(Y - x).sum(axis=1)[:1],
            lambda x, Y: np.abs(Y - x),
        ],
        ids=["scalar", "too-short", "matrix"],
    )
    def test_wrong_shape_raises_length_mismatch(self, delta):
        ens, x = self._ensemble()
        with pytest.raises(LengthMismatch):
            tweak(ens, x, delta, 0.1)
        with pytest.raises(LengthMismatch):
            candidate_set(ens, x, 0.1, delta)

    def test_nan_cost_is_ranked_last_with_a_warning(self, caplog):
        ens, x = self._ensemble()

        def first_undefined(x_values, Y):
            costs = np.abs(Y - x_values).sum(axis=1)
            costs[0] = np.nan
            return costs

        with caplog.at_level("WARNING", logger="treetweak.tweaker"):
            out = tweak(ens, x, first_undefined, 0.1)
        assert isinstance(out, Found)
        costs = [c.cost for c in out.all_candidates]
        assert costs[0] == math.inf and all(math.isfinite(c) for c in costs[1:])
        assert out.best is out.all_candidates[1]
        assert caplog.messages == ["cost undefined for 1 of 2 candidates; ranked last"]

        # One warning per cost call, however many of its costs are undefined.
        caplog.clear()
        with caplog.at_level("WARNING", logger="treetweak.tweaker"):
            out = tweak(ens, x, lambda x_values, Y: np.full(len(Y), np.nan), 0.1)
        assert [c.cost for c in out.all_candidates] == [math.inf, math.inf]
        assert caplog.messages == ["cost undefined for 2 of 2 candidates; ranked last"]


def reference_top_k(candidates, k):
    """The object ranking: sort every Transformation, then drop rows whose
    values repeat an earlier row's."""
    out, seen = [], set()
    for cand in sorted(candidates, key=Transformation.sort_key):
        key = cand.candidate.values.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out[:k]


def table(costs, values, tree=None, path=None):
    """A Found table over x = 0 with the given rows; tree i, path 0 by
    default."""
    values = np.asarray(values, dtype=float)
    return Found(
        np.zeros(values.shape[1]),
        np.arange(len(costs)) if tree is None else np.asarray(tree),
        np.zeros(len(costs), dtype=int) if path is None else np.asarray(path),
        values,
        np.asarray(costs, dtype=float),
    )


class TestCandidateTable:
    @pytest.mark.parametrize("delta", COST_NAMES)
    def test_ranking_matches_sorted_transformations(self, delta):
        rng = np.random.default_rng(83)
        compared = ties = 0
        for _ in range(12):
            ens = random_ensemble(rng, int(rng.integers(3, 9)), 4, 4)
            for x in sample_negative_instances(ens, rng, 3):
                out = tweak(ens, x, delta, 0.1)
                if not isinstance(out, Found):
                    continue
                count = out.num_candidates
                # Ranked before any Transformation of the pool exists.
                shown = {k: top_k_transformations(out, k) for k in (1, 3, count)}
                assert "all_candidates" not in vars(out)
                assert len(out.all_candidates) == count
                assert [(c.source_tree, c.source_path) for c in out.all_candidates] == (
                    sorted(zip(out.tree.tolist(), out.path.tolist()))
                )
                for k, top in shown.items():
                    expected = reference_top_k(out.all_candidates, k)
                    assert len(top) == len(expected)
                    assert all(a is b for a, b in zip(top, expected))
                assert out.best is shown[1][0]
                assert out.best is min(out.all_candidates, key=Transformation.sort_key)
                costs = [c.cost for c in out.all_candidates]
                ties += len(costs) - len(set(costs))
                compared += count
        assert compared > 100
        if delta == "tweaked_feature_rate":
            assert ties > 50

    def test_undefined_costs_rank_last_in_tree_path_order(self):
        rng = np.random.default_rng(89)
        seen = 0
        for _ in range(10):
            ens = random_ensemble(rng, 7, 4, 4)

            def every_third_undefined(x_values, Y):
                costs = np.abs(Y - x_values).sum(axis=1)
                costs[::3] = np.nan
                return costs

            for x in sample_negative_instances(ens, rng, 3):
                out = tweak(ens, x, every_third_undefined, 0.1)
                if not isinstance(out, Found) or out.num_candidates < 4:
                    continue
                top = top_k_transformations(out, out.num_candidates)
                assert all(a is b for a, b in zip(top, reference_top_k(
                    out.all_candidates, out.num_candidates
                )))
                costs = [t.cost for t in top]
                first_inf = costs.index(math.inf)
                assert all(math.isfinite(c) for c in costs[:first_inf])
                assert all(c == math.inf for c in costs[first_inf:])
                last = [(t.source_tree, t.source_path) for t in top[first_inf:]]
                assert last == sorted(last)
                seen += 1
        assert seen > 5

    def test_duplicate_rows_are_shown_once_from_the_first_tree(self):
        # Two identical stumps give the same candidate row, from their
        # right leaf (path 1).
        trees = (stump(0, 0.0, -1, 1), stump(0, 0.0, -1, 1), stump(1, 5.0, 1, -1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(2))
        out = tweak(ens, Instance([-1.0, 0.0]), "euclidean", 0.1)
        assert isinstance(out, Found) and out.num_candidates == 2
        assert np.array_equal(out.values[0], out.values[1])
        (only,) = top_k_transformations(out, 3)
        assert (only.source_tree, only.source_path) == (0, 1)
        assert only is out.best

    def test_ties_and_duplicates_in_a_hand_built_table(self):
        # Rows 1, 2 and 4 tie on cost; rows 2 and 4 hold the same values,
        # and row 3's cost is undefined.
        out = table(
            [0.2, 0.1, 0.1, math.inf, 0.1],
            [[1.0], [2.0], [3.0], [4.0], [3.0]],
            tree=[0, 0, 1, 1, 2],
            path=[0, 1, 0, 1, 0],
        )
        top = top_k_transformations(out, 5)
        assert [(t.source_tree, t.source_path) for t in top] == [
            (0, 1), (1, 0), (0, 0), (1, 1)
        ]
        assert all(a is b for a, b in zip(top, reference_top_k(out.all_candidates, 5)))
        assert out.best is top[0]
        assert top[0].changed_indices == frozenset({0})

    def test_rows_become_transformations_once(self):
        out = table([0.3, 0.1], [[1.0, 0.0], [0.0, 0.0]])
        best = out.best
        assert best is top_k_transformations(out, 1)[0]
        assert best is out.all_candidates[1]
        assert best.changed_indices == frozenset()
        assert out.all_candidates[0].changed_indices == frozenset({0})
        assert out.all_candidates is out.all_candidates

    def test_brute_force_builds_the_same_table(self):
        ens, x = TestRowwiseCosting()._ensemble()
        fast = tweak(ens, x, "euclidean", 0.1)
        oracle = brute_force_tweak(ens, x, "euclidean", 0.1, only_negative_trees=True)
        assert isinstance(oracle, Found)
        for name in ("x_values", "tree", "path", "values", "costs"):
            assert np.array_equal(getattr(fast, name), getattr(oracle, name)), name


class TestNonFiniteInstance:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda ens, x: tweak(ens, x, "cosine", 0.1),
            lambda ens, x: candidate_set(ens, x, 0.1, "cosine"),
            lambda ens, x: sweep(ens, [Instance([-1.0, 0.0]), x], [0.1], ["cosine"]),
            lambda ens, x: brute_force_tweak(ens, x, "cosine", 0.1),
            lambda ens, x: build_positive_instance(
                x, extract_paths(ens, 0)[1], 0.1, ens.feature_space
            ),
        ],
        ids=["tweak", "candidate_set", "sweep", "brute_force_tweak", "build_positive_instance"],
    )
    def test_rejected_at_entry(self, entry, bad):
        # A NaN that reaches the costing gives a meaningless cost: with
        # x = [-1, nan] the scalar cosine clamp read it as 1 and reported
        # cost 0.0. Every entry point rejects it before searching.
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(2))
        with pytest.raises(NonFiniteValue):
            entry(ens, Instance([-1.0, bad]))


class TestInstanceLength:
    @pytest.mark.parametrize("length", [2, 4, 0], ids=["n-1", "n+1", "empty"])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda ens, x: tweak(ens, x, "cosine", 0.1),
            lambda ens, x: candidate_set(ens, x, 0.1, "cosine"),
            lambda ens, x: sweep(ens, [Instance([-1.0] * 3), x], [0.1], ["cosine"]),
            lambda ens, x: brute_force_tweak(ens, x, "cosine", 0.1),
            lambda ens, x: brute_force_tweak(
                ens, x, "cosine", 0.1, only_negative_trees=True
            ),
            predict_ensemble,
            lambda ens, x: build_positive_instance(
                x, extract_paths(ens, 2)[1], 0.1, ens.feature_space
            ),
        ],
        ids=["tweak", "candidate_set", "sweep", "brute_force_tweak",
             "brute_force_tweak-negative-trees", "predict_ensemble", "build_positive_instance"],
    )
    def test_rejected_before_routing(self, entry, length):
        # A short x used to index past its end, and a long one was routed
        # on its first n values and answered as if it fit the model.
        ens = TreeEnsemble(
            trees_from_nodes([stump(f, 0.0, -1, 1) for f in range(3)]), plain_space(3)
        )
        with pytest.raises(LengthMismatch, match="expected 3 values"):
            entry(ens, Instance([-1.0] * length))


BAD_ARGUMENTS = {
    "epsilon-inf": {"epsilon": math.inf},
    "epsilon-minus-inf": {"epsilon": -math.inf},
    "epsilon-nan": {"epsilon": math.nan},
    "epsilon-zero": {"epsilon": 0.0},
    # tweak(ens, x, 0.1, "euclidean"): delta and epsilon swapped.
    "epsilon-str": {"epsilon": "euclidean"},
    "epsilon-bool": {"epsilon": True},
    "budget-negative": {"budget": -1},
    "budget-float": {"budget": 2.5},
    "budget-str": {"budget": "3"},
    "budget-bool": {"budget": True},
    "unknown-cost": {"delta": "manhattan"},
}


class TestSearchArguments:
    """Every entry point checks its arguments before it routes x, so a bad
    one fails the same way for a negative and a positive instance."""

    def _ensemble(self):
        return TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))

    def _args(self, bad):
        return {"delta": "euclidean", "epsilon": 0.1, "budget": None, **bad}

    @pytest.mark.parametrize("x0", [-1.0, 2.0], ids=["negative", "positive"])
    @pytest.mark.parametrize("bad", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
    def test_tweak_raises_value_error_before_not_negative(self, bad, x0):
        with pytest.raises(ValueError):
            tweak(self._ensemble(), Instance([x0]), **self._args(bad))

    @pytest.mark.parametrize("x0", [-1.0, 2.0], ids=["negative", "positive"])
    @pytest.mark.parametrize("bad", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
    def test_candidate_set_raises_value_error_instead_of_empty(self, bad, x0):
        with pytest.raises(ValueError):
            candidate_set(self._ensemble(), Instance([x0]), **self._args(bad))

    @pytest.mark.parametrize("x0", [-1.0, 2.0], ids=["negative", "positive"])
    @pytest.mark.parametrize("bad", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
    def test_sweep_raises_value_error_before_routing(self, bad, x0):
        args = self._args(bad)
        with pytest.raises(ValueError):
            sweep(
                self._ensemble(), [Instance([x0])], [0.5, args["epsilon"]],
                ["cosine", args["delta"]], budget=args["budget"],
            )

    @pytest.mark.parametrize(
        "bad", [b for b in BAD_ARGUMENTS.values() if "delta" not in b],
        ids=[k for k, b in BAD_ARGUMENTS.items() if "delta" not in b],
    )
    def test_the_error_names_the_argument(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name} must be"):
            tweak(self._ensemble(), Instance([-1.0]), **self._args(bad))

    @pytest.mark.parametrize(
        "bad", [b for b in BAD_ARGUMENTS.values() if "budget" not in b],
        ids=[k for k, b in BAD_ARGUMENTS.items() if "budget" not in b],
    )
    def test_brute_force_raises_value_error(self, bad):
        args = self._args(bad)
        del args["budget"]
        with pytest.raises(ValueError):
            brute_force_tweak(self._ensemble(), Instance([2.0]), **args)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_build_positive_instance_rejects_non_finite_epsilon(self, epsilon):
        path = positive_path((0, GT, 0.0))
        with pytest.raises(ValueError, match="finite"):
            build_positive_instance(Instance([-1.0]), path, epsilon, plain_space(1))

    def test_huge_finite_epsilon_is_searched_without_warnings(self):
        # The stump's positive leaf is open above, so any finite epsilon
        # places a candidate; an infinite one used to make inf - inf.
        out = tweak(self._ensemble(), Instance([-1.0]), "euclidean", 1e100)
        assert isinstance(out, Found)
        assert out.best.candidate.values.tolist() == [1e100]

    @pytest.mark.parametrize(
        "spec", [(0, 1.7e308, -1, 1), (0, -1.7e308, 1, -1)], ids=["above", "below"]
    )
    def test_a_placement_that_overflows_is_infeasible(self, spec):
        # x = 0 votes -1, and the positive leaf lies beyond +-1.7e308: an
        # epsilon of 1e308 would place its candidate at +-inf.
        ens = TreeEnsemble(trees_from_nodes([tree(spec)]), plain_space(1))
        x = Instance([0.0])
        out = tweak(ens, x, "euclidean", 1e308)
        assert isinstance(out, NotCovered) and "(1 infeasible, 0 rejected)" in out.reason
        assert isinstance(brute_force_tweak(ens, x, "euclidean", 1e308), NotCovered)
        (row,) = sweep(ens, [x], [1e308], ["euclidean"])
        assert (row.eligible, row.covered, row.micro_avg_cost) == (1, 0, None)
        # A hundredth of that epsilon still lands inside the float range.
        assert tweak(ens, x, "euclidean", 1e306).best.cost == pytest.approx(1.71e308)

    def test_search_reuses_the_ensembles_boxes(self):
        ens = self._ensemble()
        boxes = ens.positive_boxes
        assert isinstance(tweak(ens, Instance([-1.0]), "euclidean", 0.1), Found)
        assert ens.positive_boxes is boxes


class TestNotCoveredReason:
    def _ensemble(self):
        # At x0 = -5 all five trees vote -1. In (tree, path) order the four
        # positive leaves are: rejected, infeasible (a 0.05-wide interval
        # for epsilon 0.1), rejected, rejected.
        trees = (
            interval_tree(0.0, 1.0),
            interval_tree(20.0, 20.05),
            tree((0, 0.0, -1, (0, 5.0, 1, 1))),
            tree(-1),
            tree(-1),
        )
        return TreeEnsemble(trees_from_nodes(trees), plain_space(1))

    REASONS = {
        0: "0 positive paths over 5 negative-voting trees "
           "(0 infeasible, 0 rejected); search truncated by budget",
        1: "1 positive paths over 5 negative-voting trees "
           "(0 infeasible, 1 rejected); search truncated by budget",
        2: "2 positive paths over 5 negative-voting trees "
           "(1 infeasible, 1 rejected); search truncated by budget",
        3: "3 positive paths over 5 negative-voting trees "
           "(1 infeasible, 2 rejected); search truncated by budget",
        None: "4 positive paths over 5 negative-voting trees "
              "(1 infeasible, 3 rejected)",
    }

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, None])
    def test_reason_counts_under_budget(self, budget):
        out = tweak(self._ensemble(), Instance([-5.0]), "euclidean", 0.1, budget=budget)
        reason = "no candidate flips the ensemble: " + self.REASONS[budget]
        assert out == NotCovered(reason)


class TestBoxBoundaries:
    """A leaf's box is (lo, hi]: a value on its upper bound is inside, one on
    its lower bound is not. The search and the oracle each state that test,
    so the search-vs-oracle properties cannot see a drift both share; these
    cases pin it in each of tweak, brute_force_tweak, sweep and
    build_positive_instance. x = (0.5, -1.0) votes -1 in both trees."""

    ON_UPPER = (0, 0.5, (1, 0.0, -1, 1), -1)  # positive on x0 <= 0.5, x1 > 0
    ON_LOWER = (0, 0.5, -1, (1, 0.0, -1, 1))  # positive on x0 > 0.5, x1 > 0
    CASES = {
        "fixed-x0-on-upper-bound": (ON_UPPER, [False, True], False, [0.5, 0.1]),
        "fixed-x0-on-lower-bound": (ON_LOWER, [False, True], False, None),
        "satisfied-x0-on-upper-bound": (ON_UPPER, [True, True], True, [0.5, 0.1]),
        "unsatisfied-x0-on-lower-bound": (ON_LOWER, [True, True], True, [0.6, 0.1]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_entry_point_reads_the_box_as_lo_open_hi_closed(self, case):
        spec, adjustable, skip_satisfied, expected = self.CASES[case]
        ens = TreeEnsemble(trees_from_nodes([tree(spec)]), plain_space(2, adjustable))
        (path,) = [p for p in extract_paths(ens, 0) if p.leaf_label == 1]
        x, epsilon = Instance([0.5, -1.0]), 0.1
        out = tweak(ens, x, "euclidean", epsilon, skip_satisfied)
        oracle = brute_force_tweak(
            ens, x, "euclidean", epsilon, skip_satisfied=skip_satisfied
        )
        (row,) = sweep(ens, [x], [epsilon], ["euclidean"], skip_satisfied)
        if expected is None:
            # Infeasible, not placed on the bound and then rejected.
            assert out == NotCovered(
                "no candidate flips the ensemble: 1 positive paths over 1 "
                "negative-voting trees (1 infeasible, 0 rejected)"
            )
            assert isinstance(oracle, NotCovered)
            assert (row.covered, row.micro_avg_cost) == (0, None)
            with pytest.raises(InfeasiblePath) as raised:
                build_positive_instance(x, path, epsilon, ens.feature_space, skip_satisfied)
            assert raised.value.feature == 0
            return
        assert out.values.tolist() == oracle.values.tolist() == [expected]
        assert (row.covered, row.micro_avg_cost) == (1, out.best.cost)
        built = build_positive_instance(x, path, epsilon, ens.feature_space, skip_satisfied)
        assert built.values.tolist() == expected
        assert route(ens, 0, built).path_index == path.path_index


class TestSweep:
    def _fixture(self):
        trees = (
            stump(0, 0.0, -1, 1),
            interval_tree(-1.0, 2.0),
            stump(1, 0.5, 1, -1),
        )
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(2))
        rng = np.random.default_rng(29)
        instances = sample_negative_instances(ens, rng, 8)
        assert len(instances) == 8
        return ens, instances

    def test_full_grid_emits_all_rows(self):
        ens, instances = self._fixture()
        grid = [0.01, 0.05, 0.1, 0.5, 1.0]
        rows = sweep(ens, instances, grid, list(COST_NAMES))
        assert len(rows) == 25
        for row in rows:
            assert 0.0 <= row.coverage <= 1.0
            assert row.eligible == 8

    def test_fully_covered_set(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        instances = [Instance([-v]) for v in (0.5, 1.0, 2.0)]
        (row,) = sweep(ens, instances, [0.1], ["euclidean"])
        assert row.coverage == 1.0
        assert row.covered == 3
        assert row.micro_avg_cost == pytest.approx((0.6 + 1.1 + 2.1) / 3)

    def test_coverage_matches_recount_from_outcomes(self):
        ens, instances = self._fixture()
        grid = [0.05, 0.5]
        rows = sweep(ens, instances, grid, ["euclidean", "jaccard"])
        for row in rows:
            recount = sum(
                1
                for inst in instances
                if predict_ensemble(ens, inst) == -1
                and isinstance(tweak(ens, inst, row.delta, row.epsilon), Found)
            )
            assert row.covered == recount
            assert row.coverage == recount / row.eligible

    def test_positive_instances_are_not_eligible(self):
        ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1))
        (row,) = sweep(ens, [Instance([2.0]), Instance([3.0])], [0.1], ["euclidean"])
        assert row.eligible == 0
        assert row.coverage == 0.0
        assert row.micro_avg_cost is None

    def test_csv_round_trip(self, tmp_path):
        import csv as csv_mod

        ens, instances = self._fixture()
        rows = sweep(ens, instances, [0.1, 0.5], ["euclidean"])
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        with open(out, newline="") as fh:
            text_rows = list(csv_mod.reader(fh))
        assert len(text_rows) == 1 + len(rows)
        header = text_rows[0]
        for text_row, row in zip(text_rows[1:], rows):
            record = dict(zip(header, text_row))
            assert float(record["epsilon"]) == row.epsilon
            assert float(record["coverage"]) == row.coverage  # exact round-trip
            assert int(record["covered"]) == row.covered

    # SHA-256 of the CSV bytes as written when sweep still returned its rows
    # wrapped in a report object.
    @pytest.mark.parametrize(
        "instances, digest",
        [
            ("random", "e6f7475473b2546ee8287ceea798fd1b403cd6ef8a975bbf350e7d5fe21ccf67"),
            ("positive", "9045738baf4e152d3b6ddb5b81f84c6a270fbfd82adf8a8239fce4a22136ea79"),
        ],
    )
    def test_csv_bytes_are_pinned(self, tmp_path, instances, digest):
        import hashlib

        if instances == "random":
            rng = np.random.default_rng(31)
            ens = random_ensemble(rng, 9, 3, 4)
            xs = sample_negative_instances(ens, rng, 12)
        else:
            ens, _ = self._fixture()
            xs = [Instance([5.0, 0.0])]
        rows = sweep(ens, xs, [0.05, 0.5, 1.0], list(COST_NAMES))
        assert isinstance(rows, tuple)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_each_instance_is_validated_once_for_the_whole_grid(self, monkeypatch):
        ens, instances = self._fixture()
        calls, positive_rows = [], tweaker_mod.positive_rows

        def counted(*args):
            calls.append(args)
            return positive_rows(*args)

        monkeypatch.setattr(tweaker_mod, "positive_rows", counted)
        positive = Instance([5.0, 0.0])  # not eligible: never validated
        rows = sweep(ens, instances + [positive], [0.01, 0.1, 0.1, 1.0], ["euclidean"])
        assert rows[0].eligible == len(instances)
        assert len(calls) == len(instances)
        calls.clear()
        tweak(ens, instances[0], "euclidean", 0.1)
        assert len(calls) == 1

    def test_every_instance_is_routed_in_one_call(self, monkeypatch):
        ens, instances = self._fixture()
        calls, tree_votes = [], tweaker_mod.tree_votes

        def counted(ens, X):
            calls.append(np.shape(X))
            return tree_votes(ens, X)

        monkeypatch.setattr(tweaker_mod, "tree_votes", counted)
        positive = Instance([5.0, 0.0])
        rows = sweep(ens, instances + [positive], [0.1, 1.0], ["euclidean"])
        assert rows[0].eligible == len(instances)
        assert calls == [(len(instances) + 1, 2)]

    def test_iterators_give_the_same_rows_as_lists(self):
        # Each argument is read once: a second pass over an iterator used
        # to find it empty and drop every instance, or every row.
        ens, instances = self._fixture()
        grid, names = [0.05, 0.5], ["euclidean", "cosine"]
        rows = sweep(ens, instances, grid, names)
        assert len(rows) == 4 and rows[0].eligible == len(instances)
        assert sweep(ens, iter(instances), iter(grid), iter(names)) == rows

    def test_undefined_costs_are_logged_once_per_instance_and_cost(self, caplog, tmp_path):
        # At both x trees 0 and 1 vote -1 and tree 2 +1, so the positive
        # leaf of either negative tree flips the vote. Epsilon 0.5 places
        # x0 at 0 and x1 at 2: constant rows [0, 0] and [2, 2] from the
        # first x, and [0, 0] from the second, which Pearson leaves
        # undefined. Every row of epsilon 1.0 is defined.
        trees = (stump(0, 0.5, 1, -1), stump(1, 1.5, -1, 1), tree(1))
        ens = TreeEnsemble(trees_from_nodes(trees), plain_space(2))
        xs = [Instance([2.0, 0.0]), Instance([3.0, 0.0])]
        grid, names = [0.5, 1.0], ["pearson", "euclidean"]
        with caplog.at_level("WARNING", logger="treetweak.tweaker"):
            rows = sweep(ens, xs, grid, names)
        # One cost call per (instance, cost function) over the whole grid.
        assert caplog.messages == [
            "cost undefined for 2 of 4 candidates; ranked last",
            "cost undefined for 1 of 4 candidates; ranked last",
        ]
        recounted = []
        for epsilon, name in itertools.product(grid, names):
            eligible, covered, quantiles, micro, median = recount_cell(
                ens, xs, name, epsilon, False, None
            )
            recounted.append(SweepRow(epsilon, name, eligible, covered, covered / eligible,
                                      *quantiles, micro, median))
        write_sweep_csv(rows, tmp_path / "sweep.csv")
        write_sweep_csv(recounted, tmp_path / "recount.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "recount.csv").read_bytes()
        assert rows[0].micro_avg_cost is not None and rows[0].covered == 2

    def test_budget_warning_is_logged_once_per_instance(self, caplog):
        # Every eligible instance has a positive leaf in a negative-voting
        # tree, so a budget of 0 truncates each one's search.
        ens, instances = self._fixture()
        with caplog.at_level("WARNING", logger="treetweak.tweaker"):
            sweep(ens, instances, [0.05, 0.5, 1.0], ["euclidean", "cosine"], budget=0)
        truncations = [r for r in caplog.records if "truncated by budget" in r.message]
        assert len(truncations) == len(instances)


def recount_cell(ens, xs, delta, epsilon, skip, budget):
    """The statistics of one sweep cell, from one tweak per eligible instance."""
    eligible = [x for x in xs if predict_ensemble(ens, x) == -1]
    outcomes = [tweak(ens, x, delta, epsilon, skip, budget) for x in eligible]
    found = [o for o in outcomes if isinstance(o, Found)]
    counts = [o.num_candidates if isinstance(o, Found) else 0 for o in outcomes]
    quantiles = (None,) * 5
    if eligible:
        quantiles = tuple(np.percentile(counts, [0, 25, 50, 75, 100]).tolist())
    finite = [o.costs[np.isfinite(o.costs)] for o in found]
    all_costs = np.concatenate(finite) if finite else np.empty(0)
    means = [float(np.mean(c)) for c in finite if c.size]
    return (
        len(eligible),
        len(found),
        quantiles,
        float(np.mean(all_costs)) if all_costs.size else None,
        float(np.median(means)) if means else None,
    )


@st.composite
def sweep_cases(draw):
    """A forest of 1-9 random trees (depth at most 3, n at most 8, so most
    leaves leave features untested) over a space with a random
    non-adjustable mask, up to four instances it predicts negative and
    one drawn instance that may be positive."""
    n = draw(st.integers(1, 8))
    mask = draw(st.lists(st.sampled_from([True, True, True, False]), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 3))
    ens = random_ensemble(rng, draw(st.integers(1, 9)), n, depth, plain_space(n, mask))
    xs = sample_negative_instances(ens, rng, draw(st.integers(0, 4)), attempts=50)
    xs.append(Instance(draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))))
    return ens, xs


@settings(max_examples=60, deadline=None)
@given(
    sweep_cases(),
    st.lists(
        st.sampled_from([0.05, 0.5]) | st.floats(0, 1, exclude_min=True), min_size=1, max_size=3
    ),
    st.none() | st.integers(0, 3),
    st.booleans(),
)
def test_sweep_cells_equal_a_recount_from_tweak(case, epsilons, budget, skip):
    # The first epsilon comes twice, so every grid has a duplicate.
    ens, xs = case
    grid = [*epsilons, epsilons[0]]
    rows = sweep(ens, xs, grid, list(COST_NAMES), skip, budget)
    assert [(r.epsilon, r.delta) for r in rows] == list(itertools.product(grid, COST_NAMES))
    for r in rows:
        quantiles = (
            r.candidates_min, r.candidates_p25, r.candidates_p50,
            r.candidates_p75, r.candidates_max,
        )
        assert (r.eligible, r.covered, quantiles, r.micro_avg_cost,
                r.median_instance_avg_cost) == recount_cell(
            ens, xs, r.delta, r.epsilon, skip, budget
        )

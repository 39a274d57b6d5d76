import numpy as np
import pytest

from treetweak.errors import DegenerateRanking, EmptyInput
from treetweak.feature_space import FeatureMeta, FeatureSpace, Instance, OneHotMember
from treetweak.forest import TreeEnsemble
from treetweak.recommend import (
    DECREASE,
    HELPFUL,
    INCREASE,
    NON_ACTIONABLE,
    NON_HELPFUL,
    RatingRecord,
    categorical_switches,
    diff_to_recommendations,
    feature_frequency_report,
    helpfulness,
    importance_ranks,
    rank_correlation,
    ranking_from_scores,
    top_k_transformations,
)
from treetweak.tweaker import Found, NotCovered, Transformation

from conftest import plain_space, tree


def make_ens(importances, space=None):
    space = space or plain_space(len(importances))
    return TreeEnsemble((tree(1),), space, importances=importances)


def make_transformation(x, values, cost=1.0, tree=0, path=0):
    vals = np.asarray(values, dtype=float)
    changed = frozenset(int(i) for i in np.nonzero(vals != x.values)[0])
    return Transformation(Instance(vals), tree, path, cost, changed)


class TestDiffToRecommendations:
    def test_no_change_no_recommendations(self):
        ens = make_ens([0.5, 0.5])
        x = Instance([1.0, 2.0])
        trans = make_transformation(x, [1.0, 2.0])
        assert diff_to_recommendations(x, trans, ens) == []

    def test_single_decrease(self):
        ens = make_ens([1.0])
        x = Instance([0.9])
        trans = make_transformation(x, [0.4])
        (rec,) = diff_to_recommendations(x, trans, ens)
        assert rec.direction == DECREASE
        assert rec.magnitude_std == pytest.approx(0.5)
        assert rec.feature_name == "x0"

    def test_raw_scale_uses_feature_std(self):
        space = FeatureSpace([FeatureMeta("age", mean=40.0, std_dev=10.0)])
        ens = make_ens([1.0], space=space)
        x = Instance([0.0])  # raw 40
        trans = make_transformation(x, [1.5])  # raw 55
        (rec,) = diff_to_recommendations(x, trans, ens)
        assert rec.direction == INCREASE
        assert rec.magnitude_raw == pytest.approx(15.0)
        assert rec.from_value_raw == pytest.approx(40.0)
        assert rec.to_value_raw == pytest.approx(55.0)

    def test_sorted_by_importance_rank(self):
        ens = make_ens([0.2, 0.5, 0.3])
        x = Instance([0.0, 0.0, 0.0])
        trans = make_transformation(x, [1.0, 1.0, 1.0])
        recs = diff_to_recommendations(x, trans, ens)
        assert [r.feature_index for r in recs] == [1, 2, 0]
        assert [r.importance_rank for r in recs] == [1, 2, 3]

    def test_importance_ties_break_on_index(self):
        ens = make_ens([0.25, 0.25, 0.25, 0.25])
        assert importance_ranks(ens) == [1, 2, 3, 4]
        assert importance_ranks(make_ens([0.3, 0.2, 0.3, 0.2])) == [1, 3, 2, 4]

    def test_random_pairs_reconstruct_exactly(self):
        rng = np.random.default_rng(3)
        ens = make_ens([0.4, 0.3, 0.2, 0.1])
        for _ in range(1000):
            x = Instance(rng.normal(0, 2, 4))
            vals = x.values.copy()
            idx = rng.integers(0, 4)
            vals[idx] += rng.normal(0, 1) or 0.5
            trans = make_transformation(x, vals)
            for rec in diff_to_recommendations(x, trans, ens):
                i = rec.feature_index
                sign = 1.0 if rec.direction == INCREASE else -1.0
                assert x.values[i] + sign * rec.magnitude_std == vals[i]
                assert rec.magnitude_std > 0


class TestCategoricalSwitches:
    def test_switch_rendered_from_argmax(self):
        space = FeatureSpace(
            [
                FeatureMeta("c=a", one_hot=OneHotMember("c", "a"), adjustable=True),
                FeatureMeta("c=b", one_hot=OneHotMember("c", "b"), adjustable=True),
                FeatureMeta("z"),
            ]
        )
        ens = make_ens([0.4, 0.4, 0.2], space=space)
        x = Instance([1.0, 0.0, 0.0])
        trans = make_transformation(x, [0.0, 1.0, 0.0])
        assert categorical_switches(x, trans, ens) == [("c", "a", "b")]

    def test_untouched_group_not_reported(self):
        space = FeatureSpace(
            [
                FeatureMeta("c=a", one_hot=OneHotMember("c", "a"), adjustable=True),
                FeatureMeta("c=b", one_hot=OneHotMember("c", "b"), adjustable=True),
                FeatureMeta("z"),
            ]
        )
        ens = make_ens([0.4, 0.4, 0.2], space=space)
        x = Instance([1.0, 0.0, 0.0])
        trans = make_transformation(x, [1.0, 0.0, 3.0])
        assert categorical_switches(x, trans, ens) == []


class TestTopK:
    def _outcome(self, costs, values=None):
        # Candidate i comes from tree i, path 0, with value i + 1 unless
        # ``values`` gives its row.
        rows = values if values else [[float(i) + 1.0] for i in range(len(costs))]
        return Found(
            np.zeros(1),
            np.arange(len(costs)),
            np.zeros(len(costs), dtype=int),
            np.asarray(rows, dtype=float),
            np.asarray(costs, dtype=float),
        )

    def test_fewer_than_k(self):
        out = self._outcome([0.3])
        assert len(top_k_transformations(out, 3)) == 1

    def test_lowest_costs_first(self):
        out = self._outcome([0.3, 0.1, 0.2])
        top = top_k_transformations(out, 2)
        assert [t.cost for t in top] == [0.1, 0.2]

    def test_top_k_is_prefix_of_full_ranking(self):
        rng = np.random.default_rng(5)
        costs = list(rng.uniform(0, 1, 10))
        out = self._outcome(costs)
        full = top_k_transformations(out, 10)
        assert [t.cost for t in full] == sorted(costs)
        for k in (1, 3, 7):
            assert top_k_transformations(out, k) == full[:k]

    def test_duplicate_candidates_deduplicated(self):
        out = self._outcome([0.1, 0.2], values=[[5.0], [5.0]])
        top = top_k_transformations(out, 5)
        assert len(top) == 1
        assert top[0].cost == 0.1

    def test_not_covered_is_empty(self):
        assert top_k_transformations(NotCovered("n/a"), 3) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_transformations(NotCovered("n/a"), 0)


class TestFrequencyReport:
    def test_single_instance_single_feature(self):
        report = feature_frequency_report([[["f"]]])
        assert report["top_1"] == {"f": 1.0}
        assert report["top_2"] == {"f": 1.0}

    def test_two_instances_disjoint_features(self):
        report = feature_frequency_report([[["a"]], [["b"]]])
        assert report["top_1"] == {"a": 0.5, "b": 0.5}

    def test_top_m_includes_first_m_transformations(self):
        per_instance = [[["a"], ["b"], ["c"]]]
        report = feature_frequency_report(per_instance)
        assert report["top_1"] == {"a": 1.0}
        assert report["top_2"] == {"a": 0.5, "b": 0.5}
        assert set(report["top_3"]) == {"a", "b", "c"}

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(7)
        features = ["a", "b", "c", "d"]
        per_instance = []
        for _ in range(20):
            ranked = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, 4))
                ranked.append(list(rng.choice(features, size=size, replace=False)))
            per_instance.append(ranked)
        report = feature_frequency_report(per_instance)
        for m in ("top_1", "top_2", "top_3"):
            assert sum(report[m].values()) == pytest.approx(1.0, abs=1e-9)

    def test_frequencies_match_recount(self):
        per_instance = [[["a", "b"], ["a"]], [["b"]], [["c"], ["a"]]]
        report = feature_frequency_report(per_instance)
        # top-2 occurrences: a,b,a (inst 1), b (inst 2), c,a (inst 3)
        assert report["top_2"] == {
            "a": 3 / 6,
            "b": 2 / 6,
            "c": 1 / 6,
        }

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            feature_frequency_report([])


class TestHelpfulness:
    def test_three_to_one(self):
        ratings = [RatingRecord("f", HELPFUL)] * 3 + [RatingRecord("f", NON_HELPFUL)]
        assert helpfulness(ratings) == {"f": 0.75}

    def test_all_non_helpful(self):
        ratings = [RatingRecord("f", NON_HELPFUL)] * 5
        assert helpfulness(ratings) == {"f": 0.0}

    def test_non_actionable_excluded_from_denominator(self):
        ratings = (
            [RatingRecord("f", HELPFUL)] * 2
            + [RatingRecord("f", NON_HELPFUL)] * 2
            + [RatingRecord("f", NON_ACTIONABLE)] * 7
        )
        assert helpfulness(ratings) == {"f": 0.5}

    def test_only_non_actionable_feature_omitted(self):
        ratings = [RatingRecord("g", NON_ACTIONABLE)] * 3
        assert helpfulness(ratings) == {}

    def test_adding_helpful_never_decreases(self):
        rng = np.random.default_rng(9)
        ratings = []
        last = 0.0
        for _ in range(30):
            verdict = HELPFUL if rng.random() < 0.5 else NON_HELPFUL
            ratings.append(RatingRecord("f", verdict))
        base = helpfulness(ratings).get("f", 0.0)
        more = helpfulness(ratings + [RatingRecord("f", HELPFUL)])["f"]
        assert more >= base

    def test_verdict_domain(self):
        with pytest.raises(ValueError):
            RatingRecord("f", "maybe")


class TestRankCorrelation:
    def test_identical_rankings(self):
        r = {"a": 1, "b": 2, "c": 3}
        assert rank_correlation(r, dict(r)) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        a = {"a": 1, "b": 2, "c": 3}
        b = {"a": 3, "b": 2, "c": 1}
        assert rank_correlation(a, b) == pytest.approx(-1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        keys = [f"f{i}" for i in range(8)]
        for _ in range(200):
            a = {k: float(v) for k, v in zip(keys, rng.permutation(8))}
            b = {k: float(v) for k, v in zip(keys, rng.permutation(8))}
            va = np.array([a[k] for k in keys])
            vb = np.array([b[k] for k in keys])
            expected = float(np.corrcoef(va, vb)[0, 1])
            assert rank_correlation(a, b) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_ranking(self):
        with pytest.raises(DegenerateRanking):
            rank_correlation({"a": 1, "b": 1}, {"a": 1, "b": 2})

    def test_mismatched_feature_sets(self):
        with pytest.raises(ValueError):
            rank_correlation({"a": 1}, {"b": 1})

    def test_ranking_from_scores_midranks_ties(self):
        ranks = ranking_from_scores({"a": 0.5, "b": 0.5, "c": 0.2})
        assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen (they also appear in captured output on failure).
"""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treetweak.costs import (
    COST_FUNCTIONS,
    COST_NAMES,
    cosine_distance,
    euclidean_distance,
    pearson_correlation_distance,
)
from treetweak.errors import InfeasiblePath, ZeroVariance, ZeroVector
from treetweak.feature_space import Instance
from treetweak.forest import (
    GT,
    LE,
    Condition,
    Path,
    TreeEnsemble,
    dumps_model,
    ensemble_from_dict,
    ensemble_to_dict,
    extract_paths,
    load_model,
    predict_ensemble,
    route,
    save_model,
    tree_votes,
    trees_from_nodes,
)
from treetweak.recommend import (
    HELPFUL,
    NON_ACTIONABLE,
    NON_HELPFUL,
    RatingRecord,
    feature_frequency_report,
    helpfulness,
    rank_correlation,
)
from treetweak.trainer import (
    TrainConfig,
    evaluate_classifier,
    stratified_split,
    train_forest,
)
from treetweak.tweaker import (
    Found,
    NotCovered,
    brute_force_tweak,
    build_positive_instance,
    candidate_set,
    sweep,
    tweak,
)

from conftest import (
    gaussian_instances,
    plain_space,
    random_ensemble,
    sample_negative_instances,
    tree,
)

EXACT_COSTS = ("tweaked_feature_rate", "jaccard")


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _fold_by_hand(conditions):
    lows, highs = {}, {}
    for f, d, t in conditions:
        if d == LE:
            highs[f] = min(highs.get(f, math.inf), t)
        else:
            lows[f] = max(lows.get(f, -math.inf), t)
    return lows, highs


def _epsilon_instance_by_hand(x, conditions, epsilon):
    """Independent construction of the epsilon-satisfactory vector."""
    lows, highs = _fold_by_hand(conditions)
    vals = np.array(x.values, dtype=float)
    for f in set(lows) | set(highs):
        lo = lows.get(f, -math.inf)
        hi = highs.get(f, math.inf)
        v = hi - epsilon if hi != math.inf else lo + epsilon
        if v <= lo:
            return None
        vals[f] = v
    return vals


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1000)
    start = time.monotonic()
    forests = comparisons = 0
    while forests < 100:
        num_trees = int(rng.choice((1, 3, 5)))
        n = int(rng.integers(2, 7))
        ens = random_ensemble(rng, num_trees, n, int(rng.integers(1, 5)))
        xs = sample_negative_instances(ens, rng, 10)
        if len(xs) < 10:
            continue
        forests += 1
        for x in xs:
            for name in COST_NAMES:
                fast = tweak(ens, x, name, 0.1)
                oracle = brute_force_tweak(
                    ens, x, name, 0.1, only_negative_trees=True
                )
                assert type(fast) is type(oracle)
                if isinstance(fast, Found):
                    comparisons += 1
                    if name in EXACT_COSTS:
                        assert fast.best.cost == oracle.best.cost
                    else:
                        assert abs(fast.best.cost - oracle.best.cost) <= 1e-9
    elapsed = time.monotonic() - start
    _criterion(
        1,
        "oracle equivalence over seeded random forests",
        forests >= 100 and comparisons > 1000 and elapsed < 60.0,
        f"{forests} forests, {comparisons} cost comparisons, {elapsed:.1f}s",
    )


# Shared thresholds and values on them make ties between trees and
# instances sitting exactly on a threshold common.
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


def _tree_specs(n, depth):
    """Specs for ``tree``: at most ``depth`` levels over features 0..n-1."""
    leaf = st.sampled_from([-1, 1])
    if depth == 0:
        return leaf
    below = _tree_specs(n, depth - 1)
    return leaf | st.tuples(st.integers(0, n - 1), _GRID | st.floats(-2, 2), below, below)


@st.composite
def oracle_cases(draw):
    """A forest (K 1-7, depth at most 3, n at most 8, so most leaves leave
    features untested) over a space with a random non-adjustable mask, up
    to three instances, an epsilon in (0, 1] and the skip_satisfied flag."""
    n = draw(st.integers(1, 8))
    specs = _tree_specs(n, draw(st.integers(1, 3)))
    trees = tuple(tree(spec) for spec in draw(st.lists(specs, min_size=1, max_size=7)))
    # Three in four features adjustable, so that most forests can be flipped.
    mask = draw(st.lists(st.sampled_from([True, True, True, False]), min_size=n, max_size=n))
    value = _GRID | st.floats(-3, 3)
    xs = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=3))
    epsilon = draw(st.floats(0, 1, exclude_min=True))
    ens = TreeEnsemble(trees_from_nodes(trees), plain_space(n, mask))
    return ens, xs, epsilon, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_criterion_01_holds_on_drawn_forests(case):
    ens, xs, epsilon, skip = case
    negatives = [Instance(v) for v in xs if predict_ensemble(ens, Instance(v)) == -1]
    assume(negatives)
    for x in negatives:
        for name in COST_NAMES:
            fast = tweak(ens, x, name, epsilon, skip_satisfied=skip)
            oracle = brute_force_tweak(
                ens, x, name, epsilon, only_negative_trees=True, skip_satisfied=skip
            )
            assert type(fast) is type(oracle)
            if isinstance(fast, Found):
                assert fast.num_candidates == oracle.num_candidates
                if name in EXACT_COSTS:
                    assert fast.best.cost == oracle.best.cost
                else:
                    assert math.isclose(fast.best.cost, oracle.best.cost, abs_tol=1e-9)


def test_criterion_02_single_tree_optimality():
    rng = np.random.default_rng(2000)
    verified = 0
    trees_checked = 0
    while trees_checked < 30:
        ens = random_ensemble(rng, 1, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
        if np.count_nonzero(ens.nodes.label) > 64:
            continue
        xs = sample_negative_instances(ens, rng, 5)
        if not xs:
            continue
        trees_checked += 1
        positive_paths = [p for p in extract_paths(ens, 0) if p.leaf_label == 1]
        for x in xs:
            # Exhaustive independent enumeration of the search space.
            pool = []
            for path in positive_paths:
                vals = _epsilon_instance_by_hand(x, path.conditions, 0.1)
                if vals is not None:
                    pool.append(vals)
            for name in COST_NAMES:
                fn = COST_FUNCTIONS[name]
                best = math.inf
                for vals in pool:
                    try:
                        best = min(best, fn(x.values, vals))
                    except (ZeroVector, ZeroVariance):
                        continue
                out = tweak(ens, x, name, 0.1)
                if not pool:
                    assert isinstance(out, NotCovered)
                    continue
                assert isinstance(out, Found)
                verified += 1
                if math.isinf(best):
                    assert math.isinf(out.best.cost)
                elif name in EXACT_COSTS:
                    assert out.best.cost == best
                else:
                    assert abs(out.best.cost - best) <= 1e-9
    _criterion(
        2,
        "single-tree tweak is the enumerated optimum",
        trees_checked >= 30 and verified > 100,
        f"{trees_checked} trees, {verified} minima verified",
    )


def test_criterion_03_validity_invariants():
    rng = np.random.default_rng(3000)
    space = plain_space(5, adjustable=[True, True, False, True, False])
    total = 0
    for _ in range(40):
        ens = random_ensemble(rng, int(rng.integers(1, 6)), 5, 4, space=space)
        for x in sample_negative_instances(ens, rng, 5):
            for cand in candidate_set(ens, x, 0.2, "euclidean"):
                total += 1
                assert predict_ensemble(ens, cand.candidate) == 1
                path = route(ens, cand.source_tree, cand.candidate)
                assert path.leaf_label == 1
                assert path.path_index == cand.source_path
                assert cand.candidate.values[2] == x.values[2]
                assert cand.candidate.values[4] == x.values[4]
                assert cand.changed_indices <= {0, 1, 3}
    _criterion(
        3,
        "candidates are valid, route to their leaf, respect adjustability",
        total > 200,
        f"{total} candidates checked",
    )


def test_criterion_04_majority_vote_semantics():
    rng = np.random.default_rng(4000)
    pairs = ties = 0
    # An engineered everywhere-tied ensemble plus random even/odd forests.
    tied = TreeEnsemble(trees_from_nodes([tree(1), tree(-1)]), plain_space(3))
    forests = [tied] + [
        random_ensemble(rng, int(rng.integers(1, 7)), 3, 3) for _ in range(199)
    ]
    for ens in forests:
        for _ in range(50):
            x = Instance(rng.normal(0, 2, 3))
            pairs += 1
            total = sum(route(ens, k, x).leaf_label for k in range(ens.num_trees))
            assert tree_votes(ens, x).sum() == total
            assert predict_ensemble(ens, x) == (-1 if total <= 0 else 1)
            ties += total == 0
    _criterion(
        4,
        "ensemble prediction equals the vote-sum sign rule",
        pairs >= 10_000 and ties >= 50,
        f"{pairs} pairs, {ties} exact ties",
    )


def test_criterion_05_cost_function_suite():
    rng = np.random.default_rng(5000)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        x = rng.normal(0, 2, n)
        y = x.copy()
        flips = int(rng.integers(0, n + 1))
        y[:flips] += rng.normal(0, 1, flips)
        for name, fn in COST_FUNCTIONS.items():
            assert fn(x, x) == 0.0
            try:
                forward, backward = fn(x, y), fn(y, x)
            except (ZeroVector, ZeroVariance):
                continue
            assert forward == backward or abs(forward - backward) <= 1e-12
            assert forward >= 0.0
            if name in ("tweaked_feature_rate", "jaccard"):
                assert forward <= 1.0
            if name in ("cosine", "pearson"):
                assert forward <= 2.0
        checked += 1

        dot = sum(a * b for a, b in zip(x, y))
        nx = math.sqrt(sum(a * a for a in x))
        ny = math.sqrt(sum(b * b for b in y))
        if nx > 0 and ny > 0 and not np.array_equal(x, y):
            assert abs(cosine_distance(x, y) - (1 - dot / (nx * ny))) <= 1e-12
        mx, my = sum(x) / n, sum(y) / n
        vx = sum((a - mx) ** 2 for a in x)
        vy = sum((b - my) ** 2 for b in y)
        if vx > 0 and vy > 0 and not np.array_equal(x, y):
            cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
            expected = 1 - cov / math.sqrt(vx * vy)
            assert abs(pearson_correlation_distance(x, y) - expected) <= 1e-12
        assert abs(
            euclidean_distance(x, y)
            - math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
        ) <= 1e-12

    worked = (
        euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
        and cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        and pearson_correlation_distance([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 2.0
    )
    _criterion(
        5,
        "cost functions: identities, symmetry, ranges, worked values",
        checked == 10_000 and worked,
        f"{checked} random pairs",
    )


def test_criterion_06_epsilon_instance_construction():
    space1, space2 = plain_space(1), plain_space(2)
    ok = True

    out = build_positive_instance(
        Instance([0.9]), Path((Condition(0, LE, 0.5),), 1), 0.1, space1
    )
    ok &= np.allclose(out.values, [0.4])

    out = build_positive_instance(
        Instance([0.0, 0.0]), Path((Condition(1, GT, 1.0),), 1), 0.1, space2
    )
    ok &= np.allclose(out.values, [0.0, 1.1])

    out = build_positive_instance(
        Instance([5.0]),
        Path((Condition(0, GT, 0.2), Condition(0, LE, 0.8)), 1),
        0.1,
        space1,
    )
    ok &= np.allclose(out.values, [0.7])

    try:
        build_positive_instance(
            Instance([5.0]),
            Path((Condition(0, GT, 0.2), Condition(0, LE, 0.25)), 1),
            0.1,
            space1,
        )
        ok = False
    except InfeasiblePath:
        pass
    _criterion(6, "threshold-clearance construction worked examples", ok)


def test_criterion_07_trainer_quality_analogue():
    start = time.monotonic()
    space, data = gaussian_instances(seed=777, m=2000, n=10, separation=1.0)
    train, test = stratified_split(data, 0.2, seed=1)
    forest = train_forest(train, TrainConfig(num_trees=100, seed=9), space)
    forest_auc = evaluate_classifier(forest, test).roc_auc
    single = train_forest(train, TrainConfig(num_trees=1, bootstrap=False, seed=9), space)
    single_auc = evaluate_classifier(single, test).roc_auc
    elapsed = time.monotonic() - start
    _criterion(
        7,
        "forest beats a single tree and reaches AUC >= 0.95",
        forest_auc >= 0.95 and forest_auc > single_auc and elapsed < 30.0,
        f"forest {forest_auc:.4f} vs tree {single_auc:.4f}, {elapsed:.1f}s",
    )


def _sweep_setup():
    space, data = gaussian_instances(seed=808, m=400, n=5, separation=1.0)
    train, test = stratified_split(data, 0.25, seed=2)
    ens = train_forest(train, TrainConfig(num_trees=15, max_depth=4, seed=4), space)
    negatives = [inst for inst in test if predict_ensemble(ens, inst) == -1][:12]
    return ens, negatives


def test_criterion_08_sweep_harness():
    ens, negatives = _sweep_setup()
    assert len(negatives) >= 8
    grid = [0.01, 0.05, 0.1, 0.5, 1.0]
    rows = sweep(ens, negatives, grid, list(COST_NAMES))
    ok = len(rows) == 25
    for row in rows:
        ok &= 0.0 <= row.coverage <= 1.0
        recount = sum(
            1
            for inst in negatives
            if isinstance(tweak(ens, inst, row.delta, row.epsilon), Found)
        )
        ok &= row.covered == recount
        ok &= row.coverage == recount / row.eligible
    _criterion(
        8,
        "tolerance grid sweep: 25 rows, coverage recount matches exactly",
        ok,
        f"{len(rows)} rows over {len(negatives)} instances",
    )


def test_criterion_09_serialization_round_trip(tmp_path):
    space, data = gaussian_instances(seed=909, m=300, n=6, separation=1.0)
    ens = train_forest(data, TrainConfig(num_trees=20, seed=5), space)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(ens, first)
    loaded = load_model(first)
    save_model(loaded, second)
    bytes_equal = first.read_bytes() == second.read_bytes()

    rng = np.random.default_rng(42)
    same = all(
        predict_ensemble(ens, Instance(v)) == predict_ensemble(loaded, Instance(v))
        for v in rng.normal(0, 2, (1000, 6))
    )
    _criterion(
        9,
        "model save/load/save is byte-identical and prediction-preserving",
        bytes_equal and same,
        "1000 instances",
    )


def test_criterion_10_determinism_across_runs_and_caches():
    space, data = gaussian_instances(seed=1010, m=300, n=5, separation=1.0)
    cfg = TrainConfig(num_trees=12, seed=6)
    ens = train_forest(data, cfg, space)
    train_ok = dumps_model(ens) == dumps_model(train_forest(data, cfg, space))

    negatives = [inst for inst in data if predict_ensemble(ens, inst) == -1][:6]
    tweak_ok = len(negatives) > 0
    for x in negatives:
        # A fresh copy of the model starts with no routing blocks or leaf
        # boxes; the second call on ``ens`` always finds them cached.
        cold = ensemble_from_dict(ensemble_to_dict(ens))
        outcomes = [tweak(m, x, "euclidean", 0.1) for m in (cold, ens, ens)]
        kinds = {type(o) for o in outcomes}
        tweak_ok &= len(kinds) == 1
        if isinstance(outcomes[0], Found):
            signatures = {
                tuple(
                    (c.source_tree, c.source_path) + tuple(c.candidate.values)
                    for c in o.all_candidates
                )
                for o in outcomes
            }
            tweak_ok &= len(signatures) == 1
    _criterion(
        10,
        "two trainings with one seed give identical bytes, tweaking is "
        "identical across cold and warm search caches",
        train_ok and tweak_ok,
    )


def test_criterion_11_report_math():
    ratings = [RatingRecord("f", HELPFUL)] * 3 + [RatingRecord("f", NON_HELPFUL)]
    ok = helpfulness(ratings) == {"f": 0.75}
    mixed = (
        [RatingRecord("g", HELPFUL)] * 2
        + [RatingRecord("g", NON_HELPFUL)] * 2
        + [RatingRecord("g", NON_ACTIONABLE)] * 7
    )
    ok &= helpfulness(mixed) == {"g": 0.5}

    report = feature_frequency_report(
        [[["a", "b"], ["a"]], [["b"]], [["c"], ["a"], ["b"]]]
    )
    for m in ("top_1", "top_2", "top_3"):
        ok &= abs(sum(report[m].values()) - 1.0) <= 1e-9

    ranking = {"a": 1, "b": 2, "c": 3, "d": 4}
    ok &= rank_correlation(ranking, dict(ranking)) == pytest.approx(1.0)
    reversed_ranking = {"a": 4, "b": 3, "c": 2, "d": 1}
    ok &= rank_correlation(ranking, reversed_ranking) == pytest.approx(-1.0)
    _criterion(11, "helpfulness, frequency normalization, rank correlation", ok)

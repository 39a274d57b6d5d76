"""Shared builders for hand-made trees, random forests, and synthetic data."""

from __future__ import annotations

import math
import os

import numpy as np

from treetweak.feature_space import FeatureMeta, FeatureSpace, Instance
from treetweak.forest import TreeEnsemble, trees_from_nodes

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail on import
    pass
else:
    # CI runs with HYPOTHESIS_PROFILE=ci: the examples derive from each
    # test's name instead of a random seed, so a failure there reproduces
    # locally under the same profile.
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def plain_space(n, adjustable=None):
    """A fitted-looking space of n continuous features with mean 0, std 1."""
    if adjustable is None:
        adjustable = [True] * n
    return FeatureSpace(
        [FeatureMeta(f"x{i}", adjustable=adjustable[i]) for i in range(n)]
    )


def tree(spec):
    """The JSON ``nodes`` list of a tree from a nested spec: a leaf is its
    label, -1 or +1, and an internal node is ``(feature, threshold, left,
    right)``. :func:`trees_from_nodes` builds a forest of such lists."""
    nodes = []
    stack = [(spec, None)]  # (spec, the node whose right child it is)
    while stack:
        spec, parent = stack.pop()
        if parent is not None:
            parent["right"] = len(nodes)
        if not isinstance(spec, tuple):
            nodes.append({"leaf": spec})
            continue
        feature, threshold, left, right = spec
        node = {"feature": feature, "threshold": threshold, "left": len(nodes) + 1}
        nodes.append(node)
        stack += ((right, node), (left, None))
    return nodes


def stump(feature, threshold, left_label, right_label):
    return tree((feature, threshold, left_label, right_label))


def random_tree(rng, n_features, max_depth, p_leaf=0.3):
    """Random structure: uniform thresholds in [-2, 2], random +-1 leaves."""

    def grow(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < p_leaf):
            return int(rng.choice((-1, 1)))
        feature = int(rng.integers(n_features))
        threshold = float(rng.uniform(-2.0, 2.0))
        return (feature, threshold, grow(depth + 1), grow(depth + 1))

    return tree(grow(0))


def random_ensemble(rng, num_trees, n_features, max_depth, space=None):
    trees = tuple(random_tree(rng, n_features, max_depth) for _ in range(num_trees))
    return TreeEnsemble(trees_from_nodes(trees), space or plain_space(n_features))


def box_entries(boxes):
    """Each row of an ensemble's ``positive_boxes`` as the set of its
    (feature, lo, hi) entries, with the one entry of a row whose path
    tests nothing, (-inf, inf] on feature 0, read as no entry."""
    bare = {(0, -math.inf, math.inf)}
    rows = zip(boxes.feature.tolist(), boxes.lo.tolist(), boxes.hi.tolist())
    return [set() if entries == bare else entries for entries in map(set, (zip(*r) for r in rows))]


def sample_negative_instances(ens, rng, count, scale=1.5, attempts=400):
    """Up to `count` instances the ensemble predicts negative."""
    from treetweak.forest import predict_ensemble

    n = ens.feature_space.n
    found = []
    for _ in range(attempts):
        x = Instance(rng.normal(0.0, scale, size=n))
        if predict_ensemble(ens, x) == -1:
            found.append(x)
            if len(found) == count:
                break
    return found


def gaussian_instances(seed, m=2000, n=10, separation=1.0):
    """Two spherical Gaussians: class -1 at the origin, class +1 shifted by
    `separation` along every axis. Returns (space, instances)."""
    rng = np.random.default_rng(seed)
    half = m // 2
    neg = rng.normal(0.0, 1.0, size=(half, n))
    pos = rng.normal(separation, 1.0, size=(m - half, n))
    instances = [Instance(row, label=-1) for row in neg]
    instances += [Instance(row, label=1) for row in pos]
    order = rng.permutation(m)
    return plain_space(n), [instances[i] for i in order]

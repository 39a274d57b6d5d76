"""Correctness checks on the outputs of ``tweak``, ``sweep`` and ``train``.

Predictions, routing and standardization are recomputed from the model
JSON with this module's own evaluator, so a defect in the program's
forest code cannot hide itself. Costs are recomputed through the public
``costs.cost_by_name``; the brute-force oracle is ``tweaker.
brute_force_tweak``.

Each check returns ``(units, failed_units, problems)``: a unit is an
eligible instance for ``tweak``, a cell (eligible x epsilon x delta) for
``sweep`` and a tree for ``train``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Costs recomputed from the emitted vectors must agree to this relative
# tolerance; byte identity is the digest check's job.
COST_RTOL = 1e-12

DEFAULT_EPSILON_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)


class Model:
    """A model JSON document as flat per-tree node arrays."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        feats = doc["feature_space"]["features"]
        self.mean = np.array([f["mean"] for f in feats], dtype=float)
        self.std = np.array([f["std_dev"] for f in feats], dtype=float)
        self.adjustable = np.array([f["adjustable"] for f in feats], dtype=bool)
        self.names = [f["name"] for f in feats]
        self.trees = []
        for tree in doc["trees"]:
            nodes = tree["nodes"]
            feature = np.array([nd.get("feature", -1) for nd in nodes], dtype=int)
            threshold = np.array([nd.get("threshold", 0.0) for nd in nodes], dtype=float)
            left = np.array([nd.get("left", -1) for nd in nodes], dtype=int)
            right = np.array([nd.get("right", -1) for nd in nodes], dtype=int)
            label = np.array([nd.get("leaf", 0) for nd in nodes], dtype=int)
            # Preorder lists leaves left to right: a leaf's rank among the
            # leaves is its path ordinal.
            ordinal = np.cumsum(feature < 0) - 1
            self.trees.append((feature, threshold, left, right, label, ordinal))
        self.node_count = sum(len(t[0]) for t in self.trees)

    def leaves(self, k: int, X: np.ndarray) -> np.ndarray:
        """Node index of the leaf each row reaches in tree k."""
        feature, threshold, left, right, _, _ = self.trees[k]
        node = np.zeros(len(X), dtype=int)
        rows = np.arange(len(X))
        while True:
            inner = feature[node] >= 0
            if not inner.any():
                return node
            r, nd = rows[inner], node[inner]
            go_left = X[r, feature[nd]] <= threshold[nd]
            node[inner] = np.where(go_left, left[nd], right[nd])

    def votes(self, X: np.ndarray) -> np.ndarray:
        """(rows, trees) matrix of -1/+1 tree votes."""
        return np.stack([self.trees[k][4][self.leaves(k, X)] for k in range(len(self.trees))], axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.votes(X).sum(axis=1) <= 0, -1, 1)

    def positive_paths_of_negative_trees(self, X: np.ndarray) -> np.ndarray:
        """Per row: positive leaves summed over the trees voting -1 on it."""
        pos = np.array([int((t[4] == 1).sum()) for t in self.trees])
        return ((self.votes(X) == -1) * pos).sum(axis=1)


def read_queries(path, model: Model) -> np.ndarray:
    """Standardized rows of a raw query CSV (label column dropped)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    raw = np.array([[float(v) for v in row[: len(model.names)]] for row in rows[1:]])
    return (raw - model.mean) / model.std


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=COST_RTOL, abs_tol=1e-15)


def check_tweak(out_path, model: Model, X: np.ndarray, top_k: int = 3):
    """Check a recommendations JSON against the model and its input rows."""
    from treetweak.costs import cost_by_name
    from treetweak.errors import ZeroVariance, ZeroVector

    negative = np.flatnonzero(model.predict(X) == -1)
    units = len(negative)
    try:
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return units, units, [f"{out_path}: unreadable ({exc})"]
    problems = []
    if doc.get("eligible") != units:
        problems.append(f"eligible {doc.get('eligible')} != model-negative count {units}")
    results = doc.get("results", [])
    if [r.get("instance_index") for r in results] != negative.tolist():
        problems.append("result instance indices differ from the model-negative rows")
    if problems:
        return units, units, problems
    delta = cost_by_name(doc["delta"])
    undefined = (ZeroVector, ZeroVariance)
    bad: dict[int, str] = {}
    owners, C, trees, paths = [], [], [], []
    for pos, entry in enumerate(results):
        trans = entry["transformations"]
        if entry["status"] != "found":
            if trans:
                bad[pos] = "transformations on a not-covered entry"
            continue
        if not 1 <= len(trans) <= top_k:
            bad[pos] = f"{len(trans)} transformations for top-{top_k}"
            continue
        for t in trans:
            owners.append(pos)
            C.append(t["candidate_standardized"])
            trees.append(t["source_tree"])
            paths.append(t["source_path"])
        bad_cost = _check_costs(trans, X[entry["instance_index"]], delta, undefined)
        if bad_cost:
            bad[pos] = bad_cost
    if owners:
        owners = np.array(owners)
        C = np.array(C, dtype=float)
        trees, paths = np.array(trees), np.array(paths)
        for pos in owners[model.predict(C) != 1]:
            bad.setdefault(int(pos), "a candidate does not re-predict +1")
        for k in np.unique(trees):
            rows = np.flatnonzero(trees == k)
            leaf = model.leaves(int(k), C[rows])
            _, _, _, _, label, ordinal = model.trees[k]
            wrong = (label[leaf] != 1) | (ordinal[leaf] != paths[rows])
            for pos in owners[rows[wrong]]:
                bad.setdefault(int(pos), f"a candidate does not route to its positive leaf of tree {k}")
        fixed = ~model.adjustable
        originals = X[[results[pos]["instance_index"] for pos in owners]]
        moved = np.any(C[:, fixed] != originals[:, fixed], axis=1)
        for pos in owners[moved]:
            bad.setdefault(int(pos), "a non-adjustable feature changed")
    problems += [f"instance {results[pos]['instance_index']}: {why}" for pos, why in sorted(bad.items())]
    failed = len(bad)
    covered = sum(r["status"] == "found" for r in results)
    if doc.get("covered") != covered:
        problems.append(f"covered {doc.get('covered')} != {covered} found entries")
        failed = units
    return units, failed, problems


def _check_costs(trans, x, delta, undefined) -> str | None:
    """Emitted costs equal recomputed ones and never decrease with rank."""
    costs = []
    for t in trans:
        try:
            expected = delta(x, np.array(t["candidate_standardized"], dtype=float))
        except undefined:  # the program ranks such a candidate last, cost None
            expected = math.inf
        got = math.inf if t["cost"] is None else t["cost"]
        if not _close(got, expected):
            return f"cost {got!r} != recomputed {expected!r}"
        costs.append(got)
    if any(b < a for a, b in zip(costs, costs[1:])):
        return "costs decrease with rank"
    return None


def check_sweep(out_path, model: Model, X: np.ndarray, grid=DEFAULT_EPSILON_GRID):
    """Row count, grid and eligible count of a sweep CSV."""
    from treetweak.costs import COST_NAMES

    eligible = int((model.predict(X) == -1).sum())
    units = eligible * len(grid) * len(COST_NAMES)
    try:
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return units, units, [f"{out_path}: unreadable ({exc})"]
    problems = []
    cells = [(float(r["epsilon"]), r["delta"]) for r in rows]
    wanted = [(e, d) for e in grid for d in COST_NAMES]
    if cells != wanted:
        problems.append(f"{len(rows)} rows do not form the {len(grid)}x{len(COST_NAMES)} grid")
    for r in rows:
        if int(r["eligible"]) != eligible:
            problems.append(f"eligible {r['eligible']} != model-negative count {eligible}")
            break
        if not 0 <= int(r["covered"]) <= eligible:
            problems.append(f"covered {r['covered']} outside [0, {eligible}]")
            break
    return units, (units if problems else 0), problems


def check_train(out_path, trees: int):
    """The model has the asked-for trees and re-serializes byte-identically."""
    from treetweak.errors import TreeTweakError
    from treetweak.forest import dumps_model, load_model

    try:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        again = dumps_model(load_model(out_path))
    except (OSError, ValueError, TreeTweakError) as exc:
        return trees, trees, [f"{out_path}: unreadable ({exc})"]
    problems = []
    if again != text:
        problems.append("reloaded model does not re-serialize byte-identically")
    got = len(json.loads(text)["trees"])
    if got != trees:
        problems.append(f"{got} trees, asked for {trees}")
    return trees, (trees if problems else 0), problems


def check_oracle(out_path, model_path, X: np.ndarray, count: int):
    """For the first ``count`` eligible entries, the outcome and rank-1
    cost equal the brute-force optimum over negative-voting trees."""
    from treetweak.feature_space import Instance
    from treetweak.forest import load_model
    from treetweak.tweaker import Found, brute_force_tweak

    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ens = load_model(model_path)
    entries = doc["results"][:count]
    problems = []
    for entry in entries:
        x = Instance(X[entry["instance_index"]])
        best = brute_force_tweak(ens, x, doc["delta"], doc["epsilon"], only_negative_trees=True)
        if not isinstance(best, Found):
            if entry["status"] != "not_covered":
                problems.append(f"instance {entry['instance_index']}: oracle finds no candidate")
            continue
        got = entry["transformations"][0]["cost"] if entry["transformations"] else None
        got = math.inf if got is None else got
        if not _close(got, best.best.cost):
            problems.append(
                f"instance {entry['instance_index']}: rank-1 cost {got!r}, oracle {best.best.cost!r}"
            )
    return len(entries), len(problems), problems

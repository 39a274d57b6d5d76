"""Workload specs and the seeded input generator.

Every input is two-Gaussian data: class -1 centred at the origin, class +1
shifted by ``SEPARATION`` on every axis, unit variance. The recipe is kept
here rather than imported from the test suite, so editing a test fixture
cannot shift the benchmark.

Fixture models (the models that ``tweak`` and ``sweep`` read) are trained
from a fixed seed with the public ``trainer.train_forest``; only the query
batches follow ``--seed``. Both commits under comparison therefore search
the same model, which ``expected.json`` pins by digest.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

SEPARATION = 1.0
FIXTURE_ROWS = 2000
FOREST_SEED = 7

# Stream tags keep the fixture, query and canary draws apart for any seed.
FIXTURE_STREAM = 1
QUERY_STREAM = 2
CANARY_STREAM = 3
CANARY_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``batch_rows`` rows go to each command run; for ``train`` that is the
    whole labelled table (m). ``canary_rows`` sizes the fixed-seed input
    whose output digest is pinned in ``expected.json``. ``oracle_count``
    eligible instances of the first batch are re-solved by the brute-force
    oracle after the timed section. The fixture model marks the last
    ``fixed_features`` features non-adjustable.
    """

    name: str
    command: str  # "tweak", "sweep" or "train"
    trees: int
    depth: int
    n: int
    batch_rows: int
    canary_rows: int
    oracle_count: int = 0
    fixed_features: int = 0

    @property
    def columns(self) -> list[str]:
        return [f"x{i}" for i in range(self.n)]

    @property
    def unit(self) -> str:
        return {"tweak": "instance", "sweep": "cell", "train": "tree"}[self.command]

    def argv(self, data: str, out: str) -> list[str]:
        """The CLI arguments of one command run; paths are relative to the
        work directory, so the recommendations JSON embeds a fixed
        ``model`` string."""
        if self.command == "train":
            return [
                "train", "--data", data, "--model-out", out,
                "--trees", str(self.trees), "--max-depth", str(self.depth),
                "--seed", str(FOREST_SEED),
            ]
        return [self.command, "--model", "model.json", "--data", data, "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tweak-k100", "tweak", trees=100, depth=8, n=10,
                 batch_rows=6, canary_rows=4, oracle_count=2),
        Workload("tweak-k10-many", "tweak", trees=10, depth=4, n=10,
                 batch_rows=2000, canary_rows=60, oracle_count=5, fixed_features=1),
        Workload("sweep-grid", "sweep", trees=30, depth=6, n=20,
                 batch_rows=10, canary_rows=4),
        Workload("train-k100", "train", trees=100, depth=10, n=20,
                 batch_rows=4000, canary_rows=300),
    )
}


def two_gaussians(rng: np.random.Generator, m: int, n: int):
    """(X, y): m rows, half drawn from each class, in a shuffled order."""
    half = m // 2
    neg = rng.normal(0.0, 1.0, size=(half, n))
    pos = rng.normal(SEPARATION, 1.0, size=(m - half, n))
    X = np.vstack([neg, pos])
    y = np.concatenate([np.full(half, -1), np.full(m - half, 1)])
    order = rng.permutation(m)
    return X[order], y[order]


def write_csv(path, columns, X, y) -> None:
    """Raw CSV with a trailing label column; floats keep full precision."""
    lines = [",".join(columns + ["label"])]
    for row, label in zip(X.tolist(), y.tolist()):
        lines.append(",".join(map(repr, row)) + f",{label}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def _workload_id(w: Workload) -> int:
    return int.from_bytes(hashlib.sha256(w.name.encode()).digest()[:4], "big")


def write_batch(w: Workload, seed: int, index: int, path) -> None:
    """Command input number ``index`` of a run with ``seed``."""
    X, y = two_gaussians(_rng(QUERY_STREAM, _workload_id(w), seed, index), w.batch_rows, w.n)
    write_csv(path, w.columns, X, y)


def write_canary(w: Workload, path) -> None:
    """The fixed input whose output digest ``expected.json`` pins."""
    X, y = two_gaussians(_rng(CANARY_STREAM, _workload_id(w), CANARY_SEED), w.canary_rows, w.n)
    write_csv(path, w.columns, X, y)


def fixture_schema(w: Workload):
    """All features continuous; the last ``fixed_features`` are
    non-adjustable, so the check that tweaks leave such features alone has
    something to hold."""
    from treetweak.feature_space import ColumnSpec, TableSchema

    adjustable = w.n - w.fixed_features
    return TableSchema(
        tuple(ColumnSpec(c, adjustable=i < adjustable) for i, c in enumerate(w.columns))
    )


def build_fixture_model(w: Workload, path) -> None:
    """Train the model ``tweak``/``sweep`` read, from a fixed seed."""
    from treetweak.feature_space import load_table
    from treetweak.forest import save_model
    from treetweak.trainer import TrainConfig, train_forest

    X, y = two_gaussians(_rng(FIXTURE_STREAM, _workload_id(w)), FIXTURE_ROWS, w.n)
    table = f"{path}.train.csv"
    write_csv(table, w.columns, X, y)
    try:
        space, data = load_table(table, fixture_schema(w))
    finally:
        os.remove(table)
    cfg = TrainConfig(num_trees=w.trees, max_depth=w.depth, seed=FOREST_SEED)
    save_model(train_forest(data, cfg, space), path)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

"""Smoke test of the benchmark itself, on tiny sizes of every workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import Model, check_sweep, check_train, check_tweak, read_queries  # noqa: E402
from run import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "tweak-k100": dict(trees=9, depth=5, batch_rows=8, oracle_count=2),
    "tweak-k10-many": dict(batch_rows=60, canary_rows=20, oracle_count=2),
    "sweep-grid": dict(trees=5, depth=4, batch_rows=6),
    "train-k100": dict(trees=5, depth=4, batch_rows=200, canary_rows=60),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_checks_pass_and_repeat(name, tmp_path):
    w = tiny(name)
    first = measure(w, 3, 0, 0, tmp_path / "a", cache=tmp_path / "cache")
    second = measure(w, 3, 0, 0, tmp_path / "b", cache=tmp_path / "cache")
    assert first.tally.problems == []
    assert first.tally.attempted > 0 and first.tally.failed == 0
    assert first.digests == second.digests
    assert set(first.metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in first.metrics.values())


@pytest.mark.parametrize("name", ["tweak-k100", "train-k100"])
def test_traced_run_reports_every_layer(name, tmp_path):
    report = measure(tiny(name), 4, 0, 1, tmp_path / "t", cache=tmp_path / "cache")
    assert report.tally.problems == []
    assert set(report.metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert (tmp_path / "t" / "spans.json").stat().st_size > 0


def _tiny_outputs(name, tmp_path):
    work = tmp_path / "w"
    report = measure(tiny(name), 5, 0, 0, work, cache=tmp_path / "cache")
    assert report.tally.failed == 0
    return work


def test_corrupted_recommendation_fails(tmp_path):
    work = _tiny_outputs("tweak-k10-many", tmp_path)
    model = Model(work / "model.json")
    X = read_queries(work / "batch_000.csv", model)
    doc = json.loads((work / "recs_000.json").read_text())
    found = next(r for r in doc["results"] if r["status"] == "found")
    # The original instance is model-negative, so it cannot re-predict +1.
    found["transformations"][0]["candidate_standardized"] = X[found["instance_index"]].tolist()
    (work / "recs_000.json").write_text(json.dumps(doc))
    units, failed, problems = check_tweak(work / "recs_000.json", model, X)
    assert failed >= 1 and problems


def test_corrupted_sweep_fails(tmp_path):
    work = _tiny_outputs("sweep-grid", tmp_path)
    model = Model(work / "model.json")
    X = read_queries(work / "batch_000.csv", model)
    with open(work / "sweep_000.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(work / "sweep_000.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:-1])
    units, failed, _ = check_sweep(work / "sweep_000.csv", model, X)
    assert failed == units > 0


def test_corrupted_model_fails(tmp_path):
    work = _tiny_outputs("train-k100", tmp_path)
    path = work / "model_000.json"
    path.write_text(path.read_text().replace("  ", " ", 1))
    units, failed, _ = check_train(path, tiny("train-k100").trees)
    assert failed == units > 0

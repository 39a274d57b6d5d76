"""Seeded benchmark of the treetweak CLI: train, tweak and sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tweak-k100 --seed 1 --seconds 20 --trace 0

Nothing is built: the program is the checkout's ``src/treetweak``. The
fixture model of a tweak or sweep workload is trained from a fixed seed,
cached in ``perfbench/.cache`` and checked against its digest on every
run; the query batches follow ``--seed``. A worker process runs the
commands through ``treetweak.cli.main``; this process then checks every
output and prints a summary whose last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run. README.md defines each metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"
TRACES = HERE / ".traces"
EXPECTED = HERE / "expected.json"

WORKER_TIMEOUT_S = 160

# Workload-specific names of the wall-clock figures in the printed summary.
WALL_NAMES = {
    "tweak": ("tweak.inst_per_s", "tweak.ms_p50", "tweak.ms_p90"),
    "sweep": ("sweep.cells_per_s", "sweep.ms_per_cell_p50", "sweep.ms_per_cell_p90"),
    "train": ("train.trees_per_s", "train.ms_per_tree_p50", "train.ms_per_tree_p90"),
}


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, where: str, check, *args) -> int:
        """Run one check; a check that raises on malformed output counts as
        one failed operation, and the run goes on."""
        try:
            units, failed, problems = check(*args)
        except Exception as exc:  # noqa: BLE001 - any output defect is a failure
            units, failed, problems = 1, 1, [f"check raised {exc!r}"]
        self.attempted += units
        self.failed += failed
        self.problems += [f"{where}: {p}" for p in problems]
        return units

    def expect(self, where: str, ok: bool, problem: str) -> None:
        self.add(where, lambda: (1, 0 if ok else 1, [] if ok else [problem]))


@dataclasses.dataclass
class Report:
    tally: Tally
    metrics: dict  # name -> (value, unit)
    wall: dict  # printed only: the same figures in wall-clock time
    machine_factor: float
    samples: int
    commands: int
    units: int
    digests: dict  # "fixture", "canary", and each output file name


def fixture_model(w, cache: Path, want: str | None) -> Path:
    """The cached fixture model, retrained when missing or not ``want``."""
    from workloads import build_fixture_model, sha256_file

    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"{w.name}.model.json"
    if not path.exists() or sha256_file(path) != want:
        tmp = cache / f"{w.name}.model.json.{os.getpid()}"
        build_fixture_model(w, tmp)
        os.replace(tmp, path)
    return path


def run_worker(w, seed: int, seconds: float, trace: int, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spec = json.dumps(dataclasses.asdict(w))
    with open(work / "worker.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), spec, str(seed), str(seconds), str(trace)],
            cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0:
        tail = (work / "worker.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"worker exited with {code}:\n{tail}")
    with open(work / "worker.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_command(w, run: dict, work: Path, model, tally: Tally) -> int:
    """Check one command's output; returns its units of work."""
    from checks import check_sweep, check_train, check_tweak, read_queries

    where = run["out"]
    if run["rc"] != 0:
        tally.expect(where, False, f"command exited with {run['rc']}")
        return 0
    if w.command == "train":
        return tally.add(where, check_train, work / run["out"], w.trees)
    X = read_queries(work / run["data"], model)
    check = check_tweak if w.command == "tweak" else check_sweep
    return tally.add(where, check, work / run["out"], model, X)


def machine_factors(result: dict, runs: list[dict]) -> tuple[list[float], float]:
    """Scale factors for the CPU times of each command and of the whole run.

    A command's factor is the nominal reference time over the median of the
    four reference timings nearest to it: two before it and two after.
    """
    timings = result["reference_start"] + [r["reference_s"] for r in runs] + result["reference_end"]
    nominal, first = result["reference_nominal_s"], len(result["reference_start"])
    local = [nominal / statistics.median(timings[first + i - 1:first + i + 3])
             for i in range(len(runs))]
    return local, nominal / statistics.median(timings)


def _rates(w, result: dict, units: list[int], factors: list[float], key: str):
    """Units per second over all commands, and the p50 and p90 of the time
    per unit of work, from each command's ``key`` seconds times its factor.

    A tweak sample is one call into ``tweaker.tweak``; a sweep or train
    sample is one command's time over its cells or trees.
    """
    runs = result["runs"]
    clock = ("s", "cpu").index(key)
    if w.command == "tweak":
        per_unit = [call[clock] * 1e3 * f for r, f in zip(runs, factors)
                    for call in result["call_s"][slice(*r["calls"])]]
    else:
        per_unit = [r[key] * 1e3 * f / u for r, u, f in zip(runs, units, factors) if u]
    rate = sum(units) / sum(r[key] * f for r, f in zip(runs, factors))
    return rate, float(np.percentile(per_unit, 50)), float(np.percentile(per_unit, 90)), len(per_unit)


def end_to_end(w, result: dict, units: list[int]) -> tuple[dict, dict, int, float]:
    """Scaled CPU-time metrics, the unscaled wall-clock figures for the
    summary, the sample count and the run's machine factor."""
    runs = result["runs"]
    factors, run_factor = machine_factors(result, runs)
    rate, p50, p90, samples = _rates(w, result, units, factors, "cpu")
    setup = [s * run_factor for s in result["setup_s"]]
    setup += [r["setup_cpu"] * f for r, f in zip(runs, factors)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "units_per_cpu_s": (rate, "1/s"),
        "cpu_ms_p50": (p50, "ms"),
        "cpu_ms_p90": (p90, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    wall_rate, wall_p50, wall_p90, _ = _rates(w, result, units, [1.0] * len(runs), "s")
    names = WALL_NAMES[w.command]
    wall = {names[0]: (wall_rate, "1/s"), names[1]: (wall_p50, "ms"), names[2]: (wall_p90, "ms")}
    return metrics, wall, samples, run_factor


def overhead(result: dict) -> float:
    """Mean scaled CPU time of a traced pass over that of an untraced pass,
    minus 1."""
    untraced, traced = result["untraced"], result["traced"]
    factors, _ = machine_factors(result, untraced + traced)
    scaled = [r["cpu"] * f for r, f in zip(untraced + traced, factors)]
    return statistics.mean(scaled[len(untraced):]) / statistics.mean(scaled[:len(untraced)]) - 1.0


def per_layer(w, result: dict, work: Path, model) -> dict:
    """Per-layer metrics of the traced passes, per pass over the first batch."""
    from checks import Model, read_queries

    traced = result["traced"]
    passes = len(traced)
    layers = result["layers"]

    def busy(key):
        return layers.get(f"busy:{key}", 0.0) / passes

    def own(layer):
        return layers.get(f"self:{layer}", 0.0) / passes

    def calls(*names):
        return sum(layers.get(f"calls:{n}", 0) for n in names) / passes

    whole_tree_calls = calls("forest.predict_ensemble", "forest.positive_vote_fraction")
    out_path = work / traced[0]["out"]
    cost_calls = sum(v for k, v in layers.items() if k.startswith("calls:costs.")) / passes
    metrics = {
        "forest.predict_calls": (whole_tree_calls + calls("forest.predict_tree"), "count"),
        "forest.tree_visits": (whole_tree_calls * w.trees + calls("forest.predict_tree"), "count"),
        "forest.predict_s": (busy("forest.predict"), "s"),
        "forest.load_s": (busy("forest.load_model"), "s"),
        "forest.save_s": (busy("forest.save_model"), "s"),
        "tweaker.search_s": (busy("tweaker"), "s"),
        "tweaker.self_s": (own("tweaker"), "s"),
        "costs.calls": (cost_calls, "count"),
        "costs.s": (busy("costs"), "s"),
        "recommend.render_s": (busy("recommend"), "s"),
        "cli.self_s": (own("cli"), "s"),
        "cli.output_bytes": (float(out_path.stat().st_size), "bytes"),
        "feature_space.load_s": (busy("feature_space"), "s"),
        "trainer.fit_s": (busy("trainer.train_forest"), "s"),
        "trainer.evaluate_s": (busy("trainer.evaluate_classifier"), "s"),
        "trace.overhead_frac": (overhead(result), "ratio"),
    }
    paths = candidates = covered = eligible = recs = nodes = 0
    if w.command == "train":
        rows = w.batch_rows
        nodes = Model(out_path).node_count
    else:
        X = read_queries(work / traced[0]["data"], model)
        rows = len(X)
        negative = X[model.predict(X) == -1]
        eligible = len(negative)
        paths = int(model.positive_paths_of_negative_trees(negative).sum())
    if w.command == "tweak":
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        candidates = sum(r["num_candidates"] for r in doc["results"])
        covered = doc["covered"]
        recs = sum(len(t["recommendations"]) for r in doc["results"] for t in r["transformations"])
    elif w.command == "sweep":
        candidates, covered, grid = sweep_candidates(work / "model.json", negative)
        paths *= grid
        eligible *= grid
    metrics.update({
        "tweaker.paths_examined": (float(paths), "count"),
        "tweaker.candidates": (float(candidates), "count"),
        "tweaker.yield": (candidates / paths if paths else 0.0, "ratio"),
        "tweaker.covered_frac": (covered / eligible if eligible else 0.0, "ratio"),
        "recommend.recommendations": (float(recs), "count"),
        "feature_space.rows": (float(rows), "count"),
        "trainer.nodes": (float(nodes), "count"),
    })
    return metrics


def sweep_candidates(model_path: Path, negative) -> tuple[int, int, int]:
    """Candidates and covered instances summed over the epsilon grid,
    recounted with the public ``candidate_set`` after the traced passes."""
    from checks import DEFAULT_EPSILON_GRID
    from treetweak.feature_space import Instance
    from treetweak.forest import load_model
    from treetweak.tweaker import candidate_set

    ens = load_model(model_path)
    candidates = covered = 0
    for eps in DEFAULT_EPSILON_GRID:
        for x in negative:
            n = len(candidate_set(ens, Instance(x), eps, "cosine"))
            candidates += n
            covered += n > 0
    return candidates, covered, len(DEFAULT_EPSILON_GRID)


def measure(w, seed: int, seconds: float, trace: int, work: Path, cache: Path = CACHE,
            fixture_sha: str | None = None) -> Report:
    """Run one workload in ``work`` and check its outputs.

    Digests are returned, not judged: the caller compares them with
    ``expected.json``. Raises RuntimeError when the worker fails.
    """
    from checks import Model, check_oracle, read_queries
    from workloads import sha256_file

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    digests = {}
    model = None
    if w.command != "train":
        fixture = fixture_model(w, cache, fixture_sha)
        digests["fixture"] = sha256_file(fixture)
        shutil.copyfile(fixture, work / "model.json")
        model = Model(work / "model.json")
    result = run_worker(w, seed, seconds, trace, work)

    runs = result["traced"] + result["untraced"] if trace else result["runs"]
    units = [check_command(w, r, work, model, tally) for r in runs]
    for r in runs + [result["canary"]]:
        if r["rc"] == 0:
            digests[r["out"]] = sha256_file(work / r["out"])
    digests["canary"] = digests.pop(result["canary"]["out"], None)
    if trace:
        repeated = {digests.get(r["out"]) for r in runs}
        tally.expect("repeat", len(repeated) == 1, "repeated commands on one input differ")
    if w.oracle_count and runs[0]["rc"] == 0:
        X = read_queries(work / runs[0]["data"], model)
        tally.add("oracle", check_oracle, work / runs[0]["out"], work / "model.json", X,
                  w.oracle_count)
    if trace:
        metrics, wall, samples = per_layer(w, result, work, model), {}, len(result["traced"])
        factor = machine_factors(result, result["untraced"] + result["traced"])[1]
    else:
        metrics, wall, samples, factor = end_to_end(w, result, units)
    return Report(tally, metrics, wall, factor, samples, len(runs), sum(units), digests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def fail(message: str) -> int:
        print(f"perfbench: {message}", file=sys.stderr)
        return 2

    if not (SRC / "treetweak" / "cli.py").is_file():
        return fail(f"no program to measure: {SRC / 'treetweak'} is missing")
    sys.path[:0] = [str(HERE), str(SRC)]
    import treetweak
    from workloads import WORKLOADS

    if Path(treetweak.__file__).resolve().parent != (SRC / "treetweak").resolve():
        return fail(f"imported treetweak from {treetweak.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[w.name]

    # Run on one CPU, worker included. The GIL lets one thread run at a time
    # anyway, and on a shared two-CPU host handing the GIL between two CPUs
    # made one run's CPU time vary by up to 1.7x from the next.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    work = WORK / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        report = measure(w, args.seed, args.seconds, args.trace, work,
                         fixture_sha=expected.get("fixture_sha256"))
    except RuntimeError as exc:
        return fail(str(exc))
    tally = report.tally
    for key in ("fixture", "canary"):
        if key in report.digests or f"{key}_sha256" in expected:
            got, want = report.digests.get(key), expected.get(f"{key}_sha256")
            tally.expect(key, got == want, f"{key} sha256 {got} != expected {want}")
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        shutil.move(work / "spans.json", TRACES / f"{w.name}-seed{args.seed}.json")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {report.commands} "
          f"command(s), {report.units} {w.unit}s, {time.perf_counter() - started:.1f} s in all")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    for name, (value, unit) in report.wall.items():
        print(f"  {name:26s} {value:14.6g} {unit} (wall clock)")
    label = "traced passes" if args.trace else "per-unit samples"
    print(f"  {label:26s} {report.samples:14d}")
    print(f"  {'machine_factor':26s} {report.machine_factor:14.6g} (CPU times above are scaled by it)")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':26s} {failed_frac:14.6g} ratio  ({tally.failed}/{tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    if not tally.problems:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

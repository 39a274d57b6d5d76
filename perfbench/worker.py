"""Runs one workload in its own process, so its peak RSS is its own.

Usage (from ``run.py``, with the checkout's ``src`` on PYTHONPATH and the
work directory as cwd)::

    python3 worker.py <workload spec JSON> <seed> <seconds> <trace 0|1>

Writes ``worker.json`` in the work directory. Every command goes through
``treetweak.cli.main`` with relative paths and no ``--workers`` flag.
"""

from __future__ import annotations

import json
import random
import sys
import time

import treetweak.cli as cli
from treetweak.feature_space import load_instances, load_table
from treetweak.forest import load_model

from tracing import COMMAND_SPAN, Tracer, layer_times
from workloads import Workload, write_batch, write_canary

# Set-up is timed this many times before the first command, and once more
# inside every command; the median of all of them is reported.
SETUP_REPEATS = 5

# The ``treetweak.cli`` bindings a command calls before its first unit of
# work.
LOADERS = ("load_model", "load_instances", "load_table")

# CPU seconds that ``Reference.sample`` takes at the reference speed. On a
# shared host the speed of a CPU second drifts: the CPU time of one fixed
# search moved by a factor of 2.9 within two minutes. The worker times the
# reference work before every command, and run.py scales each command's CPU
# times by REFERENCE_S over the median of the timings around it.
REFERENCE_S = 0.013


class Reference:
    """A fixed amount of pure-Python work like the program's hot loop:
    route rows down one deep tree of tuples, which stays in a small cache,
    and down a forest of 100 depth-8 trees, which does not. The trees are
    built once, so a timing measures no allocation or page faults."""

    def __init__(self):
        rng = random.Random(1)

        def grow(depth):
            if depth == 0:
                return (None, rng.choice((-1.0, 1.0)))
            return (rng.randrange(10), rng.uniform(-1.0, 1.0), grow(depth - 1), grow(depth - 1))

        self.roots = [grow(10)] * 100 + [grow(8) for _ in range(100)]
        self.rows = [[rng.gauss(0.0, 1.0) for _ in range(10)] for _ in range(64)]

    def sample(self) -> float:
        """This thread's CPU seconds for one pass of the work."""
        start = time.thread_time()
        total = 0.0
        for i in range(120):
            row = self.rows[i & 63]
            for node in self.roots:
                while node[0] is not None:
                    node = node[2] if row[node[0]] <= node[1] else node[3]
                total += node[1]
        return time.thread_time() - start


def peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM). ``getrusage`` is no use here:
    its ``ru_maxrss`` survives exec, so a child started by vfork reports
    the parent's peak when that is the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def batch_files(w: Workload, index: int) -> tuple[str, str]:
    out = "model" if w.command == "train" else ("recs" if w.command == "tweak" else "sweep")
    ext = "csv" if w.command == "sweep" else "json"
    return f"batch_{index:03d}.csv", f"{out}_{index:03d}.{ext}"


def measure_setup(w: Workload, data: str) -> list[float]:
    """CPU seconds of the loaders, called the way the command calls them."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        if w.command == "train":
            load_table(data)
        else:
            load_instances(data, load_model("model.json").feature_space)
        samples.append(time.process_time() - start)
    return samples


class CliTimer:
    """Times the calls a command makes into ``treetweak.cli.tweak`` (wall
    and CPU seconds per call) and into the loaders (CPU seconds in all)."""

    def __init__(self):
        self.tweak_calls: list[tuple[float, float]] = []
        self.loader_cpu = 0.0
        self._saved: dict = {}

    def _timed(self, fn, is_loader: bool):
        def timed(*args, **kwargs):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.process_time() - cpu
                if is_loader:
                    self.loader_cpu += cpu
                else:
                    self.tweak_calls.append((time.perf_counter() - wall, cpu))

        return timed

    def __enter__(self):
        for name in ("tweak",) + LOADERS:
            if hasattr(cli, name):
                self._saved[name] = getattr(cli, name)
                setattr(cli, name, self._timed(self._saved[name], name in LOADERS))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(cli, name, fn)


def run_command(main, w: Workload, data: str, out: str, timer: CliTimer,
                reference: Reference) -> dict:
    """One command, with its wall (``s``), process CPU (``cpu``) and loader
    CPU (``setup_cpu``) seconds, and a reference timing taken just before."""
    reference_s = reference.sample()
    loaders, calls = timer.loader_cpu, len(timer.tweak_calls)
    wall, cpu = time.perf_counter(), time.process_time()
    code = main(w.argv(data, out))
    return {"data": data, "out": out, "rc": code,
            "s": time.perf_counter() - wall, "cpu": time.process_time() - cpu,
            "setup_cpu": timer.loader_cpu - loaders, "reference_s": reference_s,
            "calls": [calls, len(timer.tweak_calls)]}


def timed_loop(w: Workload, seed: int, seconds: float, timer: CliTimer,
               reference: Reference) -> list[dict]:
    """Fresh batches, one command each, until ``seconds`` of command time."""
    runs: list[dict] = []
    total = 0.0
    while not runs or total < seconds:
        data, out = batch_files(w, len(runs))
        write_batch(w, seed, len(runs), data)
        runs.append(run_command(cli.main, w, data, out, timer, reference))
        total += runs[-1]["s"]
    return runs


def repeat_first(main, w: Workload, seconds: float, tag: str, timer: CliTimer,
                 reference: Reference) -> list[dict]:
    """Batch 0 again and again, until ``seconds`` of command time."""
    runs: list[dict] = []
    total = 0.0
    data, out = batch_files(w, 0)
    while not runs or total < seconds:
        runs.append(run_command(main, w, data, f"{tag}{len(runs)}_{out}", timer, reference))
        total += runs[-1]["s"]
    return runs


def main(argv: list[str]) -> int:
    w = Workload(**json.loads(argv[0]))
    seed, seconds, trace = int(argv[1]), float(argv[2]), argv[3] == "1"
    data, _ = batch_files(w, 0)
    write_batch(w, seed, 0, data)
    reference = Reference()
    result: dict = {
        "reference_start": [reference.sample() for _ in range(5)],
        "setup_s": measure_setup(w, data),
    }
    with CliTimer() as timer:
        if not trace:
            result["runs"] = timed_loop(w, seed, seconds, timer, reference)
        else:
            # Untraced passes first, then traced passes over the same input;
            # the ratio of their mean scaled CPU times is the tracing overhead.
            result["untraced"] = repeat_first(cli.main, w, seconds / 2, "plain", timer, reference)
            tracer = Tracer()
            tracer.install()
            try:
                traced_main = tracer.wrap(COMMAND_SPAN, cli.main)
                result["traced"] = repeat_first(
                    traced_main, w, seconds / 2, "traced", timer, reference
                )
            finally:
                tracer.uninstall()
            tracer.write("spans.json")
            result["layers"] = layer_times(tracer.spans)
    result["call_s"] = timer.tweak_calls
    result["reference_nominal_s"] = REFERENCE_S
    result["reference_end"] = [reference.sample() for _ in range(5)]
    result["peak_rss_mb"] = peak_rss_mb()
    write_canary(w, "canary.csv")
    result["canary"] = run_command(cli.main, w, "canary.csv", "canary_out", timer, reference)
    with open("worker.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

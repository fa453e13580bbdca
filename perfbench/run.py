"""Benchmark for the ``iocodes`` package, driven through its CLI in process.

    python3 perfbench/run.py --workload tree_audit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads, metrics and the layer map are described in ``perfbench/README.md``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  A wrong
answer prints ``"correct": false`` and exits 1; a missing package exits 2
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
TRACED_PASSES = 2

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import REFERENCE_S, Speed, reference  # noqa: E402
from tracer import DETERMINISTIC, Tracer  # noqa: E402
from workloads import WORKLOADS, Runner, WrongAnswer, check  # noqa: E402


class Package:
    """The entry point plus an answer check bound before any wrapping."""

    def __init__(self) -> None:
        import iocodes
        import iocodes.cli
        from iocodes.formats import load_graph
        from iocodes.graphs import VertexSet
        from iocodes.verify import is_io_code

        home = Path(iocodes.__file__).resolve().parent
        if home != SRC / "iocodes":
            raise SystemExit(f"imported iocodes from {home}, not from {SRC}")
        self.cli = iocodes.cli
        self._parts = (load_graph, VertexSet, is_io_code)

    def verify(self, path: Path, code: list[int]) -> bool:
        load_graph, vertex_set, is_io_code = self._parts
        g = load_graph(path.read_text())
        return is_io_code(g, vertex_set(g.n, code)).ok


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    idx = max(0, len(xs) - 11)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def scaled_wall(p, speed: Speed) -> float:
    return sum(speed.scaled(start, end) for _, _, start, end, _ in p.calls)


def end_to_end(passes, speed: Speed, setup_s: float) -> tuple[dict, dict]:
    """Latency of each (operation, input) is the median over its calls in the
    run, at reference speed; ``wall_s`` sums these over the distinct calls, so
    it is the time of one pass over the input set.  A call that failed counts
    as +inf latency and its time still counts in ``wall_s``."""
    times: dict[tuple[str, str], list[float]] = {}
    ok: dict[tuple[str, str], bool] = {}
    for p in passes:
        for op, key, start, end, good in p.calls:
            times.setdefault((op, key), []).append(speed.scaled(start, end))
            ok[op, key] = ok.get((op, key), True) and good
    median = {k: statistics.median(v) for k, v in times.items()}
    metrics = {"wall_s": (sum(median.values()), "s")}
    notes = {"raw_wall_s": [round(p.raw_wall_s, 3) for p in passes]}
    for op in ("solve", "decide", "construct"):
        lat = [1000 * t if ok[k] else float("inf") for k, t in median.items() if k[0] == op]
        check(bool(lat), f"no {op} calls in a pass")
        metrics[f"{op}_p50_ms"] = (statistics.median(lat), "ms")
        if op != "decide":
            value, pct = tail(lat)
            metrics[f"{op}_tail_ms"] = (value, "ms")
            notes[f"{op}_tail_ms"] = f"p{pct:.1f} of {len(lat)} inputs"
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, notes


def check_repeats(passes, what: str) -> None:
    first = passes[0]
    for p in passes[1:]:
        check([c[:2] for c in p.calls] == [c[:2] for c in first.calls],
              f"{what}: calls differ between passes")
        check(p.failures == first.failures, f"{what}: failures differ between passes")
        check(p.counters == first.counters, f"{what}: counters differ between passes")


def traced_run(workload, package) -> tuple[list, dict]:
    """One untraced pass, then traced passes whose counters must repeat."""
    runner = Runner(package.cli)
    tracer = Tracer()
    passes, layers = [], []
    with Speed() as speed:
        passes.append(workload.run_pass(runner))
        runner.tracer = tracer
        tracer.install()
        try:
            for _ in range(TRACED_PASSES):
                first_call, before = runner.calls, dict(tracer.counts)
                passes.append(workload.run_pass(runner))
                m = tracer.summarize(range(first_call, runner.calls))
                for key in DETERMINISTIC:
                    if not key.endswith(".calls"):
                        m[key] = tracer.counts.get(key, 0) - before.get(key, 0)
                layers.append(m)
        finally:
            tracer.uninstall()
    check_repeats(passes, "traced run")
    untraced = scaled_wall(passes[0], speed)
    for m, p in zip(layers, passes[1:]):
        m["trace.overhead_ratio"] = scaled_wall(p, speed) / untraced
        self_s = sum(v for k, v in m.items() if k.endswith(".s"))
        check(abs(self_s - m["trace.wall_s"]) < 1e-3 * m["trace.wall_s"],
              "layer self times do not add up to the traced wall time")
    for key in DETERMINISTIC:
        check(all(m[key] == layers[0][key] for m in layers), f"{key} did not repeat")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{workload.seed}.csv.gz")
    units = {"calls": "count", "s": "s", "nodes": "count", "failures": "count",
             "fallbacks": "count", "overhead_ratio": "ratio", "wall_s": "s"}
    metrics = {}
    for key in layers[0]:
        unit = "count" if key.startswith("construct.case.") else units[key.rpartition(".")[2]]
        value = layers[0][key] if key in DETERMINISTIC else statistics.median(m[key] for m in layers)
        metrics[key] = (value, unit)
    return passes, metrics


def timed_setup(workload) -> float:
    """Median of repeated set-ups: a fresh interpreter importing the CLI, then
    input generation; each scaled by reference runs just before and after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled = []
    for _ in range(SETUP_REPEATS):
        before = reference()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import iocodes.cli"], env=env, check=True)
        workload.prepare()
        taken = time.perf_counter() - started
        scaled.append(taken * 2 * REFERENCE_S / (before + reference()))
    return statistics.median(scaled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="call order and probe sample")
    parser.add_argument("--input-seed", type=int, default=0, help="large_trees input trees")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iocodes" / "cli.py").is_file():
        print(f"no iocodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    package = Package()
    workload = WORKLOADS[args.workload](args.seed, args.input_seed, OUT / args.workload, package)
    setup_s = timed_setup(workload)

    correct = True
    metrics, notes, passes = {}, {}, []
    try:
        if args.trace:
            passes, metrics = traced_run(workload, package)
        else:
            runner = Runner(package.cli)
            started = time.perf_counter()
            with Speed() as speed:
                while not passes or (
                    time.perf_counter() - started
                    + statistics.median(p.raw_wall_s for p in passes) <= args.seconds
                ):
                    passes.append(workload.run_pass(runner))
            check_repeats(passes, "timed run")
            metrics, notes = end_to_end(passes, speed, setup_s)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        correct = False

    failures = {}
    for p in passes:
        for key, count in p.failures.items():
            failures[key] = failures.get(key, 0) + count
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "input_seed": args.input_seed,
        "passes": len(passes), "failures_by_type": failures,
        "counters": passes[0].counters if passes else {}, **notes,
    }, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(p.attempted for p in passes)),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

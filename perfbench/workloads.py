"""Workload inputs, the CLI calls of one pass, and the answer checks.

Every call goes through ``iocodes.cli.main`` in this process, one at a
time (a closed loop with one caller).  A call that exits non-zero without
printing a JSON result, or raises, is an operation failure: it is counted,
not checked.  A call that prints a result is checked, and a wrong answer
raises ``WrongAnswer``, which fails the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# sha256 of the audit CSVs written by `iocodes audit ... --csv` at the commit
# that introduced this benchmark.  Audit inputs do not depend on any seed.
TREE_AUDIT = {
    "argv": ["audit", "trees", "--n-max", "16"],
    "summary": {"instances": 3149, "violations": 0, "exceptional": 5, "extremal": 9},
    "csv_sha256": "b2fe93ecc1365b943f95653847495ef872ee4b23aa1f7d5ae7287e2b05f34e33",
}
GRAPH_AUDIT = {
    "argv": ["audit", "graphs", "--n-max", "7"],
    "summary": {
        "instances": 53,
        "labeled_instances": 87222,
        "violations": 0,
        "exceptional": 1,
        "extremal": 1,
    },
    "csv_sha256": "fe63a193abe5c55169d7b5c7122fdc79d90771989922c9d8b53728de2e15311b",
}
PROBES = 120
PROBE_CALLS = 360  # per operation and pass: 3 rounds of 120, or 7 rounds of the 53 graphs

# large_trees: sha256 of the solve gammas, in input order, for input seed 0.
LARGE_TREES_DEFAULT_INPUT_SEED = 0
LARGE_TREES_GAMMAS_SHA256 = "24e3879749505a108a746422615db64f8b3b7cf37dcea90361c7c27b4510b3b0"
SOLVE_ORDERS = range(41, 62, 2)
SOLVE_PER_ORDER = 3
TIGHT_PAIR_DELTAS = (6, 7, 8)
CONSTRUCT_ORDERS = {71: 4, 81: 4, 91: 4, 101: 4, 111: 4, 121: 4, 151: 2, 181: 1, 211: 1, 241: 1}


class WrongAnswer(Exception):
    """The program printed a result that fails a check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Graphs on the benchmark side, independent of the package


def encode_graph6(n: int, edges) -> str:
    if n > 62:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        head = [n + 63]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    bits = [adj[col] >> row & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii")


def decode_graph6(text: str) -> list[set[int]]:
    data = text.strip().encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = [(c - 63) >> s & 1 for c in body for s in range(5, -1, -1)]
    adj = [set() for _ in range(n)]
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bits[k]:
                adj[row].add(col)
                adj[col].add(row)
            k += 1
    return adj


def subdivided_random_tree(k: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Vertex i attaches to rng.randrange(i); every edge is then subdivided."""
    edges = []
    n = k
    for i in range(1, k):
        parent = rng.randrange(i)
        edges += [(parent, n), (n, i)]
        n += 1
    return n, edges


def is_io_code_literal(adj: list[set[int]], code) -> bool:
    """Every vertex has a code neighbour and all traces N(v) & S differ."""
    s = set(code)
    if not s <= set(range(len(adj))):
        return False
    traces = [frozenset(nb & s) for nb in adj]
    return all(traces) and len(set(traces)) == len(adj)


# ---------------------------------------------------------------------------
# Calls


@dataclass
class Pass:
    # (op, input, start, end, ok); the input is the graph file or audit space
    calls: list[tuple[str, str, float, float, bool]] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(not ok for *_, ok in self.calls)

    @property
    def raw_wall_s(self) -> float:
        return sum(end - start for _, _, start, end, _ in self.calls)


class Runner:
    """Times each ``iocodes.cli.main`` call and sorts out failures."""

    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.calls = 0
        self.current = Pass()

    def new_pass(self) -> Pass:
        self.current = Pass()
        return self.current

    def call(self, op: str, argv: list[str]) -> dict | None:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.run_id = self.calls
        self.calls += 1
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            started = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            ended = perf_counter()
        payload = None
        if error is None:
            try:
                payload = json.loads(out.getvalue())
            except ValueError:
                payload = None
            if payload is None:
                check(rc != 0, f"{op} {argv}: exit 0 without a JSON result")
                lines = err.getvalue().strip().splitlines() or [""]
                error = f"exit {rc}: {lines[-1]}"
        p = self.current
        p.calls.append((op, argv[1], started, ended, error is None))
        if error is not None:
            key = f"{op}: {error}"
            p.failures[key] = p.failures.get(key, 0) + 1
        return payload


# ---------------------------------------------------------------------------
# Checked operations on one instance


@dataclass
class Instance:
    path: Path
    adj: list[set[int]]
    gamma: int | None = None
    constructor_size: int | None = None

    @property
    def n(self) -> int:
        return len(self.adj)


def _check_code(package, inst: Instance, code: list[int], what: str) -> None:
    name = inst.path.name
    check(is_io_code_literal(inst.adj, code), f"{name}: {what} is not an IO-code")
    check(package.verify(inst.path, code), f"{name}: is_io_code rejects the {what}")


def solve(runner: Runner, package, inst: Instance) -> int | None:
    out = runner.call("solve", ["solve", str(inst.path)])
    if out is None:
        return None
    check(len(out["code"]) == out["gamma"], f"{inst.path.name}: |code| != gamma")
    _check_code(package, inst, out["code"], "solve code")
    if inst.gamma is not None:
        check(out["gamma"] == inst.gamma, f"{inst.path.name}: gamma {out['gamma']} != {inst.gamma}")
    counters = runner.current.counters
    counters["solver.nodes"] = counters.get("solver.nodes", 0) + out["nodes_explored"]
    return out["gamma"]


def decide(runner: Runner, inst: Instance, gamma: int) -> None:
    out = runner.call("decide", ["solve", str(inst.path), "--budget", str(gamma - 1)])
    if out is not None:
        check(out["found"] is False, f"{inst.path.name}: a code of size {gamma - 1} was found")


def construct(runner: Runner, package, inst: Instance) -> None:
    out = runner.call("construct", ["construct", str(inst.path)])
    if out is None:
        return
    name, n, size, delta = inst.path.name, inst.n, out["size"], out["delta"]
    check(size == len(out["code"]), f"{name}: size != |code|")
    _check_code(package, inst, out["code"], "constructed set")
    check(delta >= max(3, max(len(nb) for nb in inst.adj)), f"{name}: delta below max degree")
    if out["trace"]["exceptional_star"]:
        check(size * (2 * delta + 1) == 2 * delta * n, f"{name}: exceptional star of wrong size")
    else:
        check(2 * delta * size <= (2 * delta - 1) * n, f"{name}: {size} exceeds the bound")
    if inst.gamma is not None:
        check(inst.gamma <= size, f"{name}: constructed {size} below gamma {inst.gamma}")
    if inst.constructor_size is not None:
        check(size == inst.constructor_size, f"{name}: size {size} != audit {inst.constructor_size}")
    counters = runner.current.counters
    for step in out["trace"]["steps"]:
        key = f"construct.case.{step['case']}"
        counters[key] = counters.get(key, 0) + 1


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, seed: int, input_seed: int, out_dir: Path, package) -> None:
        self.seed = seed
        self.input_seed = input_seed
        self.out_dir = out_dir
        self.package = package

    def _write(self, name: str, g6: str) -> Path:
        path = self.out_dir / f"{name}.g6"
        path.write_text(g6 + "\n")
        return path

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)


class AuditWorkload(Workload):
    """One audit call, then CLI probes on a seeded sample of its instances."""

    spec: dict = {}

    def prepare(self) -> None:
        super().prepare()
        self.csv_path = self.out_dir / "audit.csv"
        self.probes: list[Instance] | None = None

    def run_pass(self, runner: Runner) -> Pass:
        p = runner.new_pass()
        summary = runner.call("audit", [*self.spec["argv"], "--csv", str(self.csv_path)])
        check(summary is not None, "the audit call failed, so nothing was certified")
        for key, want in self.spec["summary"].items():
            check(summary.get(key) == want, f"audit {key} = {summary.get(key)}, expected {want}")
        text = self.csv_path.read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        check(digest == self.spec["csv_sha256"], f"audit CSV sha256 {digest} differs from the pin")
        if self.probes is None:
            self.probes = self._pick_probes(text.decode())
        # probe calls take milliseconds, so they are repeated to sample the
        # host over seconds rather than over one slow or fast moment
        for _ in range(-(-PROBE_CALLS // len(self.probes))):
            for inst in self.probes:
                solve(runner, self.package, inst)
            for inst in self.probes:
                decide(runner, inst, inst.gamma)
            for inst in self.probes:
                construct(runner, self.package, inst)
        return p

    def _pick_probes(self, text: str) -> list[Instance]:
        rows = sorted(csv.DictReader(io.StringIO(text)), key=lambda r: r["graph6"])
        picked = random.Random(self.seed).sample(rows, min(PROBES, len(rows)))
        probes = []
        for i, row in enumerate(picked):
            probes.append(
                Instance(
                    self._write(f"probe{i:03d}", row["graph6"]),
                    decode_graph6(row["graph6"]),
                    gamma=int(row["gamma"]),
                    constructor_size=int(row["constructor_size"]),
                )
            )
        return probes


class TreeAudit(AuditWorkload):
    name = "tree_audit"
    spec = TREE_AUDIT


class GraphAudit(AuditWorkload):
    name = "graph_audit"
    spec = GRAPH_AUDIT


class LargeTrees(Workload):
    """Random subdivided trees and tight pairs, one CLI call per input."""

    name = "large_trees"

    def prepare(self) -> None:
        super().prepare()
        rng = random.Random(self.input_seed)
        self.solve_set: list[Instance] = []
        for n in SOLVE_ORDERS:
            for j in range(SOLVE_PER_ORDER):
                order, edges = subdivided_random_tree((n + 1) // 2, rng)
                g6 = encode_graph6(order, edges)
                self.solve_set.append(Instance(self._write(f"tree{n}_{j}", g6), decode_graph6(g6)))
        for d in TIGHT_PAIR_DELTAS:
            out = io.StringIO()
            with redirect_stdout(out):
                rc = self.package.cli.main(["generate", "tight-tree-pair", str(d), "--format", "g6"])
            check(rc == 0, f"generate tight-tree-pair {d} failed")
            g6 = out.getvalue().strip()
            self.solve_set.append(
                Instance(self._write(f"pair{d}", g6), decode_graph6(g6), gamma=4 * d - 2)
            )
        self.construct_set = [inst for inst in self.solve_set if inst.n == max(SOLVE_ORDERS)]
        for n, count in CONSTRUCT_ORDERS.items():
            for j in range(count):
                order, edges = subdivided_random_tree((n + 1) // 2, rng)
                g6 = encode_graph6(order, edges)
                self.construct_set.append(
                    Instance(self._write(f"tree{n}_{j}", g6), decode_graph6(g6))
                )
        order = random.Random(self.seed)
        self.solve_order = order.sample(self.solve_set, len(self.solve_set))
        self.construct_order = order.sample(self.construct_set, len(self.construct_set))

    def run_pass(self, runner: Runner) -> Pass:
        p = runner.new_pass()
        gammas = {inst.path.name: solve(runner, self.package, inst) for inst in self.solve_order}
        for inst in self.solve_order:
            if gammas[inst.path.name] is not None:
                decide(runner, inst, gammas[inst.path.name])
        for inst in self.solve_set:
            if inst.gamma is None:
                inst.gamma = gammas[inst.path.name]
        solved = [inst.gamma for inst in self.solve_set]
        if self.input_seed == LARGE_TREES_DEFAULT_INPUT_SEED and None not in solved:
            digest = hashlib.sha256(json.dumps(solved).encode()).hexdigest()
            check(digest == LARGE_TREES_GAMMAS_SHA256, f"solve gammas sha256 {digest} differs")
        for inst in self.construct_order:
            construct(runner, self.package, inst)
        return p


WORKLOADS = {w.name: w for w in (TreeAudit, GraphAudit, LargeTrees)}

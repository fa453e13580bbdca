"""Batch certification of the degree bound over enumerated instance spaces.

Every audited instance is relabeled canonically before solving, so CSV
rows are reproducible byte for byte and diffable across runs.  Records
carry the exact minimum, the constructor's size, and integer-exact bound
statuses; summaries count violations (expected zero), the flagged
subdivided stars, and the instances meeting the bound with equality.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import time
from dataclasses import asdict, dataclass, fields
from functools import partial

from .canon import canonical_graph
from .construct import BoundStatus, _check_delta, check_bound, construct_code
from .errors import BadParam, CodeRejected
from .families import (
    TREE_CAP,
    enumerate_graph_classes,
    enumerate_trees,
    gen_reduced_subdivided_star,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
)
from .formats import emit_graph6
from .graphs import Graph, find_open_twins, has_four_cycle, is_connected, max_degree
from .solver import solve, solve_with_budget
from .verify import is_io_code

__all__ = [
    "AuditRecord",
    "audit_trees",
    "audit_graphs",
    "audit_graphs_sampled",
    "verify_tight_families",
    "sample_twin_free_graphs",
    "records_to_csv",
]


@dataclass(frozen=True)
class AuditRecord:
    graph6: str
    n: int
    m: int
    max_degree: int
    twin_free: bool
    c4_free: bool
    delta: int
    gamma: int
    constructor_size: int
    bound_status: str
    constructor_status: str
    is_extremal: bool
    witness_code: tuple[int, ...]


WORKERS_ENV = "IOCODES_WORKERS"


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _map_instances(graphs: list[Graph], delta: int | None) -> list[tuple[AuditRecord, int]]:
    """Certify each graph at ``delta``, optionally on a process pool.

    One ``functools.partial`` of ``_audit_instance`` is mapped over the
    graphs, which pickle as they are.  Results always come back in
    enumeration order, so summaries and CSV output do not depend on
    scheduling.
    """
    task = partial(_audit_instance, delta=delta)
    workers = _worker_count()
    if workers == 1:
        return [task(g) for g in graphs]
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(task, graphs, chunksize=8))


def _audit_instance(g: Graph, delta: int | None) -> tuple[AuditRecord, int]:
    """The instance's record and its count of exhaustive constructor fallbacks."""
    g = canonical_graph(g)
    d = delta if delta is not None else max(3, max_degree(g))
    result = solve(g)
    verdict = is_io_code(g, result.code)
    if not verdict.ok:
        raise CodeRejected(f"{emit_graph6(g)}: solver code rejected: {verdict.describe()}", verdict)
    code, trace = construct_code(g, d)
    exceptional = trace.exceptional_star
    gamma_status = check_bound(g.n, result.gamma, d, is_exceptional_star=exceptional)
    cons_status = check_bound(g.n, len(code), d, is_exceptional_star=exceptional)
    extremal = (not exceptional) and 2 * d * result.gamma == (2 * d - 1) * g.n
    record = AuditRecord(
        graph6=emit_graph6(g),
        n=g.n,
        m=g.edge_count,
        max_degree=max_degree(g),
        twin_free=True,
        c4_free=not has_four_cycle(g),
        delta=d,
        gamma=result.gamma,
        constructor_size=len(code),
        bound_status=gamma_status.value,
        constructor_status=cons_status.value,
        is_extremal=extremal,
        witness_code=tuple(sorted(result.code)),
    )
    return record, sum(step.case == "exhaustive_fallback" for step in trace.steps)


def _summarize(
    results: list[tuple[AuditRecord, int]], started: float, **extra
) -> tuple[list[AuditRecord], dict]:
    """The records of (record, fallbacks) results, and their summary."""
    records = [r for r, _ in results]
    violations = [
        r.graph6
        for r in records
        if BoundStatus.VIOLATION.value in (r.bound_status, r.constructor_status)
    ]
    summary = {
        "instances": len(records),
        "violations": len(violations),
        "violating_instances": violations,
        "exceptional": sum(
            1
            for r in records
            if BoundStatus.EXCEPTIONAL_STAR.value in (r.bound_status, r.constructor_status)
        ),
        "extremal": sum(1 for r in records if r.is_extremal),
        "fallbacks": sum(f for _, f in results),
        "runtime_s": round(time.monotonic() - started, 3),
    }
    summary.update(extra)
    return records, summary


def audit_trees(n_max: int, delta: int | None = None) -> tuple[list[AuditRecord], dict]:
    """Certify the bound over all twin-free trees with 5 <= n <= n_max.

    With ``delta`` given, instances of larger maximum degree are skipped
    and the fixed value bounds every record; otherwise each instance is
    checked at ``max(3, its own maximum degree)``.
    """
    if not 5 <= n_max <= TREE_CAP:
        raise BadParam(f"tree audit supports 5 <= n_max <= {TREE_CAP}, got {n_max}")
    _check_delta(delta)
    started = time.monotonic()
    trees = []
    for n in range(5, n_max + 1):
        for t in enumerate_trees(n):
            if len(set(t.adj)) < t.n:  # open twins
                continue
            if delta is not None and max_degree(t) > delta:
                continue
            trees.append(t)
    results = _map_instances(trees, delta)
    return _summarize(results, started, n_max=n_max, delta=delta)


def audit_graphs(n_max: int, delta: int | None = None) -> tuple[list[AuditRecord], dict]:
    """Certify the bound over connected twin-free 4-cycle-free graphs.

    Exhaustive for n <= 7, one record per isomorphism class.  The
    classes come from one call to ``enumerate_graph_classes``, which
    grows them vertex by vertex up to ``n_max`` instead of visiting
    labeled graphs; the orders from 5 up are kept, and each order's
    classes arrive in the order in which a labeled edge-subset sweep
    would first meet them.  ``labeled_instances`` is the sum of the
    classes' labeled counts ``n!/|Aut|``, that is, the number of labeled
    graphs covered.
    With ``delta`` given, classes of larger maximum degree are skipped.
    """
    if not 5 <= n_max <= 7:
        raise BadParam(f"graph audit supports 5 <= n_max <= 7, got {n_max}")
    _check_delta(delta)
    started = time.monotonic()
    classes = [(g, count) for g, count in enumerate_graph_classes(n_max, delta) if g.n >= 5]
    labeled = sum(count for _, count in classes)
    results = _map_instances([g for g, _ in classes], delta)
    return _summarize(results, started, n_max=n_max, delta=delta, labeled_instances=labeled)


def audit_graphs_sampled(
    count: int,
    n_low: int,
    n_high: int,
    seed: int,
    delta: int | None = None,
) -> tuple[list[AuditRecord], dict]:
    """Seeded sampled audit for orders beyond the exhaustive range.

    Draws connected twin-free random graphs, keeps the 4-cycle-free ones
    up to ``count``, and certifies each; the seed is recorded in the
    summary so runs are reproducible.
    """
    if count < 1 or n_low < 5 or n_high < n_low:
        raise BadParam("need count >= 1 and 5 <= n_low <= n_high")
    _check_delta(delta)
    started = time.monotonic()
    rng = random.Random(seed)
    graphs: list[Graph] = []
    seen: set[str] = set()
    while len(graphs) < count:
        g = _random_twin_free_graph(rng, n_low, n_high, 0.1, 0.35)
        if has_four_cycle(g):
            continue
        if delta is not None and max_degree(g) > delta:
            continue
        key = emit_graph6(canonical_graph(g))
        if key in seen:
            continue
        seen.add(key)
        graphs.append(g)
    results = _map_instances(graphs, delta)
    return _summarize(results, started, seed=seed, n_low=n_low, n_high=n_high, delta=delta)


def verify_tight_families(
    delta_max: int,
    p_max: int,
    exact_ps: tuple[int, ...] = (3,),
    decision_ps: tuple[int, ...] = (5,),
) -> dict:
    """Solver-certified values for the named extremal families.

    For each delta up to ``delta_max``: the subdivided star, its reduced
    variant and the bridged pair have minima 2*delta, 2*delta - 1 and
    4*delta - 2.  For each gadget cycle size p: the all-but-pendants set
    verifies at 5p; for p in ``exact_ps`` the solver confirms 5p exactly,
    and for p in ``decision_ps`` a budgeted search certifies that 5p - 1
    is infeasible.
    """
    if delta_max < 3 or p_max < 3:
        raise BadParam("need delta_max >= 3 and p_max >= 3")
    report: dict = {"stars": {}, "gadget_cycles": {}, "ok": True}
    for d in range(3, delta_max + 1):
        star, _ = gen_subdivided_star(d)
        reduced, _ = gen_reduced_subdivided_star(d)
        pair, pair_spec = gen_tight_tree_pair(d)
        g_star = solve(star).gamma
        g_red = solve(reduced).gamma
        g_pair = solve(pair).gamma
        pair_ref_ok = is_io_code(pair, pair_spec.reference_code).ok
        entry = {
            "star_gamma": g_star,
            "reduced_gamma": g_red,
            "pair_gamma": g_pair,
            "pair_reference_ok": pair_ref_ok,
            "expected": (2 * d, 2 * d - 1, 4 * d - 2),
        }
        entry["ok"] = (
            g_star == 2 * d
            and g_red == 2 * d - 1
            and g_pair == 4 * d - 2
            and pair_ref_ok
        )
        report["stars"][d] = entry
        report["ok"] &= entry["ok"]
    for p in range(3, p_max + 1):
        if p == 4:
            continue
        g, spec = gen_subcubic_gp(p)
        ref = spec.reference_code
        entry = {
            "order": g.n,
            "reference_size": len(ref),
            "reference_ok": is_io_code(g, ref).ok,
            "gamma": None,
            "lower_bound_certified": None,
        }
        if p in exact_ps:
            entry["gamma"] = solve(g).gamma
            entry["ok"] = entry["reference_ok"] and entry["gamma"] == 5 * p
        else:
            entry["ok"] = entry["reference_ok"] and len(ref) == 5 * p
        if p in decision_ps:
            entry["lower_bound_certified"] = solve_with_budget(g, 5 * p - 1) is None
            entry["ok"] &= entry["lower_bound_certified"]
        report["gadget_cycles"][p] = entry
        report["ok"] &= entry["ok"]
    return report


def _random_twin_free_graph(rng: random.Random, n_low: int, n_high: int, p_low: float, p_high: float) -> Graph:
    """Draw G(n, p), n and p uniform in the ranges, until one is connected and twin-free."""
    while True:
        n = rng.randint(n_low, n_high)
        p = rng.uniform(p_low, p_high)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if is_connected(g) and not find_open_twins(g):
            return g


def sample_twin_free_graphs(count: int, n_low: int, n_high: int, seed: int) -> list[Graph]:
    """Seeded connected twin-free random graphs for cross-validation runs."""
    rng = random.Random(seed)
    return [_random_twin_free_graph(rng, n_low, n_high, 0.15, 0.5) for _ in range(count)]


def records_to_csv(records: list[AuditRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(AuditRecord)], lineterminator="\n")
    writer.writeheader()
    for r in records:
        row = asdict(r)
        row["witness_code"] = " ".join(str(v) for v in r.witness_code)
        writer.writerow(row)
    return buf.getvalue()


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"

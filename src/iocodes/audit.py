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
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Iterable

from .canon import canonical_graph
from .construct import BoundStatus, _check_delta, check_bound, construct_code
from .errors import BadParam
from .families import (
    GRAPH_CAP,
    TREE_CAP,
    enumerate_graph_classes,
    enumerate_twin_free_trees,
    gen_reduced_subdivided_star,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
)
from .formats import emit_graph6
from .graphs import Graph, _twin_free, has_four_cycle, is_connected, max_degree
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

# draws in a row without a new class; ranges with enough classes need up to 409
SAMPLE_STALL_DRAWS = 10_000


def _worker_count() -> int:
    """Pool size from ``IOCODES_WORKERS``: 1 when unset, else a positive integer."""
    value = os.environ.get(WORKERS_ENV)
    if value is None:
        return 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise BadParam(f"{WORKERS_ENV} must be a positive integer, got {value!r}")
    return workers


def _map_instances(graphs: Iterable[Graph], delta: int | None, workers: int) -> list[tuple[AuditRecord, int]]:
    """Certify each graph at ``delta``, on a pool of ``workers`` processes when above 1.

    One ``functools.partial`` of ``_audit_instance`` is mapped over the
    graphs, which pickle as they are and may come from a generator, so
    no list of them is held.  Results always come back in enumeration
    order, so summaries and CSV output do not depend on scheduling.
    """
    task = partial(_audit_instance, delta=delta)
    if workers == 1:
        return [task(g) for g in graphs]
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return list(pool.imap(task, graphs, chunksize=8))


def _audit_instance(g: Graph, delta: int | None) -> tuple[AuditRecord, int]:
    """The instance's record and its count of exhaustive constructor fallbacks."""
    g = canonical_graph(g)
    degree = max_degree(g)
    d = delta if delta is not None else max(3, degree)
    result = solve(g)  # its code passed ``is_io_code`` there, or ``CodeRejected`` was raised
    code, trace = construct_code(g, d)
    exceptional = trace.exceptional_star
    gamma_status = check_bound(g.n, result.gamma, d, is_exceptional_star=exceptional)
    cons_status = check_bound(g.n, len(code), d, is_exceptional_star=exceptional)
    extremal = (not exceptional) and 2 * d * result.gamma == (2 * d - 1) * g.n
    record = AuditRecord(
        graph6=emit_graph6(g),
        n=g.n,
        m=g.edge_count,
        max_degree=degree,
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
    workers = _worker_count()
    started = time.monotonic()
    trees = (
        t
        for n in range(5, n_max + 1)
        for t in enumerate_twin_free_trees(n)
        if delta is None or max_degree(t) <= delta
    )
    results = _map_instances(trees, delta, workers)
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
    if not 5 <= n_max <= GRAPH_CAP:
        raise BadParam(f"graph audit supports 5 <= n_max <= {GRAPH_CAP}, got {n_max}")
    _check_delta(delta)
    workers = _worker_count()
    started = time.monotonic()
    classes = [(g, count) for g, count in enumerate_graph_classes(n_max, delta) if g.n >= 5]
    labeled = sum(count for _, count in classes)
    results = _map_instances([g for g, _ in classes], delta, workers)
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
    summary so runs are reproducible.  Raises ``BadParam`` once
    ``SAMPLE_STALL_DRAWS`` draws in a row add no new class, as when the
    range holds fewer than ``count`` classes.
    """
    if count < 1 or n_low < 5 or n_high < n_low:
        raise BadParam("need count >= 1 and 5 <= n_low <= n_high")
    _check_delta(delta)
    workers = _worker_count()
    started = time.monotonic()
    rng = random.Random(seed)
    graphs: list[Graph] = []
    seen: set[str] = set()
    while len(graphs) < count:
        for _ in range(SAMPLE_STALL_DRAWS):
            g = _random_twin_free_graph(rng, n_low, n_high, 0.1, 0.35)
            if has_four_cycle(g) or delta is not None and max_degree(g) > delta:
                continue
            key = emit_graph6(canonical_graph(g))
            if key not in seen:
                break
        else:
            raise BadParam(f"found {len(graphs)} of {count} instances: {SAMPLE_STALL_DRAWS} draws in a row added none")
        seen.add(key)
        graphs.append(g)
    results = _map_instances(graphs, delta, workers)
    return _summarize(results, started, seed=seed, n_low=n_low, n_high=n_high, delta=delta)


def verify_tight_families(delta_max: int, p_max: int) -> dict:
    """Solver-certified values for the named extremal families.

    For each delta up to ``delta_max``: the subdivided star, its reduced
    variant and the bridged pair have minima 2*delta, 2*delta - 1 and
    4*delta - 2.  For each gadget cycle size p: the all-but-pendants set
    verifies at 5p; at p = 3 the solver confirms 5p exactly, and at
    p = 5 a budgeted search certifies that 5p - 1 is infeasible.
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
        gamma = solve(g).gamma if p == 3 else None
        certified = solve_with_budget(g, 5 * p - 1) is None if p == 5 else None
        entry = {
            "order": g.n,
            "reference_size": len(ref),
            "reference_ok": is_io_code(g, ref).ok,
            "gamma": gamma,
            "lower_bound_certified": certified,
        }
        size = len(ref) if gamma is None else gamma
        entry["ok"] = entry["reference_ok"] and size == 5 * p and certified is not False
        report["gadget_cycles"][p] = entry
        report["ok"] &= entry["ok"]
    return report


def _random_twin_free_graph(rng: random.Random, n_low: int, n_high: int, p_low: float, p_high: float) -> Graph:
    """Draw G(n, p), n and p uniform in the ranges, until one is connected and twin-free."""
    while True:
        n = rng.randint(n_low, n_high)
        p = rng.uniform(p_low, p_high)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if is_connected(g) and _twin_free(g.adj):
            return g


def sample_twin_free_graphs(count: int, n_low: int, n_high: int, seed: int) -> list[Graph]:
    """Seeded connected twin-free random graphs for cross-validation runs."""
    rng = random.Random(seed)
    return [_random_twin_free_graph(rng, n_low, n_high, 0.15, 0.5) for _ in range(count)]


def records_to_csv(records: list[AuditRecord]) -> str:
    """One header row of the field names, then one row per record, its
    witness code space-separated."""
    names = [f.name for f in fields(AuditRecord)]
    # witness_code is the last field, the one that is not written as is
    leading = attrgetter(*names[:-1])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([*leading(r), " ".join(map(str, r.witness_code))] for r in records)
    return buf.getvalue()


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are asserted where the criterion states one.
"""

import random
import time
from itertools import product

from conftest import brute_has_four_cycle, brute_open_twins, prufer_tree, random_graph
from iocodes import (
    BoundStatus,
    Graph,
    VertexSet,
    admits_io_code,
    audit_graphs,
    audit_trees,
    build_family_tree,
    check_bound,
    emit_graph6,
    enumerate_trees,
    find_open_twins,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    gen_reduced_subdivided_star,
    has_four_cycle,
    is_admissible,
    is_io_code,
    max_degree,
    solve,
    solve_oracle,
    solve_with_budget,
)
from iocodes.audit import _audit_tree, sample_twin_free_graphs
from iocodes.canon import canonical_graph


def _report(number: int, started: float, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.monotonic() - started:.1f}s): {message}")


def test_criterion_01_base_values():
    started = time.monotonic()
    cases = {
        "P2": (Graph(2, [(0, 1)]), 2),
        "K3": (Graph(3, [(0, 1), (1, 2), (0, 2)]), 2),
        "P4": (Graph(4, [(0, 1), (1, 2), (2, 3)]), 4),
        "P5": (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 4),
        "paw": (Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 3),
        "C5": (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 4),
    }
    for name, (g, expected) in cases.items():
        assert solve(g).gamma == expected, name
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, started, "six base minima exact")


def test_criterion_02_star_minima_and_optimal_canonical_sets():
    started = time.monotonic()
    for delta in range(2, 7):
        g, _ = gen_subdivided_star(delta)
        assert solve(g).gamma == 2 * delta
        tree, spec = build_family_tree((0, delta, 0, 0, 0, 0))
        c = spec.reference_code
        assert len(c) == 2 * delta and is_io_code(tree, c).ok
    for delta in range(3, 7):
        g, _ = gen_reduced_subdivided_star(delta)
        assert solve(g).gamma == 2 * delta - 1
        tree, spec = build_family_tree((1, delta - 1, 0, 0, 0, 0))
        c = spec.reference_code
        assert len(c) == 2 * delta - 1 and is_io_code(tree, c).ok
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(2, started, "star minima 2d / 2d-1 with canonical sets optimal, d in 2..6")


def test_criterion_03_canonical_sets_always_verify():
    # The single-type-5 vector is admissible by the letter of the vector
    # constraints but its tree has open twins (root and near leaf), hence
    # no code exists; it is the one documented exception (see the ledger).
    started = time.monotonic()
    degenerate = (0, 0, 0, 0, 1, 0)
    checked = 0
    for vec in product(range(2), range(6), range(6), range(6), range(6), range(6)):
        if not is_admissible(vec) or sum(vec) > 5:
            continue
        g, spec = build_family_tree(vec)
        if vec == degenerate:
            assert find_open_twins(g) == [(0, 2)]
            assert spec.reference_code is None
            continue
        assert is_io_code(g, spec.reference_code).ok, vec
        checked += 1
    rng = random.Random(1202)
    sampled = 0
    while sampled < 200:
        vec = tuple([rng.randint(0, 1)] + [rng.randint(0, 4) for _ in range(5)])
        if not is_admissible(vec) or sum(vec) > 12 or vec == degenerate:
            continue
        g, spec = build_family_tree(vec)
        assert is_io_code(g, spec.reference_code).ok, vec
        sampled += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, started, f"{checked} exhaustive + 200 random canonical sets verify")


def test_criterion_04_tree_audit_to_14():
    started = time.monotonic()
    records, summary = audit_trees(12)
    assert summary["violations"] == 0
    prefix_elapsed = time.monotonic() - started
    assert prefix_elapsed < 180.0
    for n in (13, 14):
        for t in enumerate_trees(n):
            if find_open_twins(t):
                continue
            records.append(_audit_tree(t, None)[0])
    exceptional = [r for r in records if r.bound_status == "exceptional_star"]
    for r in records:
        assert r.bound_status != "violation"
        assert r.constructor_status != "violation"
    # the flagged instances are exactly the subdivided stars T_3..T_6
    assert sorted((r.n, r.gamma) for r in exceptional) == [(7, 6), (9, 8), (11, 10), (13, 12)]
    for r in exceptional:
        assert r.gamma * (2 * r.delta + 1) == 2 * r.delta * r.n
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0
    _report(
        4,
        started,
        f"{len(records)} twin-free trees n<=14 within bound "
        f"(n<=12 prefix {prefix_elapsed:.1f}s); exceptions exactly the 4 subdivided stars",
    )


def test_criterion_05_graph_audit_to_7():
    started = time.monotonic()
    records, summary = audit_graphs(7)
    assert summary["violations"] == 0
    assert summary["labeled_instances"] == 87222
    exceptional = [r for r in records if r.bound_status == "exceptional_star"]
    assert [(r.n, r.gamma) for r in exceptional] == [(7, 6)]
    for r in records:
        assert r.constructor_status != "violation"
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0
    _report(
        5,
        started,
        f"{summary['labeled_instances']} labeled / {summary['instances']} classes n<=7 "
        "within bound; only the degree-3 subdivided star is exceptional",
    )


def test_criterion_06_gadget_cycles():
    started = time.monotonic()
    g3, _ = gen_subcubic_gp(3)
    assert solve(g3).gamma == 15
    for p in (5, 6, 7):
        g, spec = gen_subcubic_gp(p)
        assert len(spec.reference_code) == 5 * p
        assert is_io_code(g, spec.reference_code).ok
    g5, _ = gen_subcubic_gp(5)
    decision_start = time.monotonic()
    assert solve_with_budget(g5, 24) is None
    decision_elapsed = time.monotonic() - decision_start
    assert decision_elapsed < 600.0
    _report(
        6,
        started,
        f"minimum 15 at p=3; references verify at 5p for p=5,6,7; "
        f"24 infeasible at p=5 in {decision_elapsed:.2f}s",
    )


def test_criterion_07_tightness_at_every_delta():
    started = time.monotonic()
    for delta in (3, 4, 5):
        g, _ = gen_tight_tree_pair(delta)
        gamma = solve(g).gamma
        assert gamma == 4 * delta - 2
        assert 2 * delta * gamma == (2 * delta - 1) * g.n
        record, _ = _audit_tree(g, delta)
        assert record.is_extremal
    records, _ = audit_trees(12, 3)
    pair3, _ = gen_tight_tree_pair(3)
    key = emit_graph6(canonical_graph(pair3))
    rows = [r for r in records if r.graph6 == key]
    assert len(rows) == 1 and rows[0].is_extremal
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(7, started, "bridged pairs hit (2d-1)/(2d) exactly for d=3,4,5 and audit flags them")


def test_criterion_08_star_plus_edge():
    # Reference sizes follow the verified figure sets: 2k-1 for the
    # support-support and leaf-leaf variants (k >= 3), while the
    # center-leaf variant needs 2k (its minimum, confirmed exactly) and
    # the leaf-leaf variant at k=2 is the 5-cycle with minimum 4; see the
    # ledger for the resolution of the stated 2k-1 target.
    started = time.monotonic()
    for k in (2, 3, 4, 5):
        g1, s1 = gen_star_plus_edge("g1", k)
        assert len(s1.reference_code) == 2 * k - 1
        assert is_io_code(g1, s1.reference_code).ok
        assert solve(g1).gamma <= 2 * k - 1

        g2, s2 = gen_star_plus_edge("g2", k)
        assert is_io_code(g2, s2.reference_code).ok
        if k == 2:
            assert solve(g2).gamma == 4
        else:
            assert len(s2.reference_code) == 2 * k - 1
            assert solve(g2).gamma <= 2 * k - 1

        g3, s3 = gen_star_plus_edge("g3", k)
        assert len(s3.reference_code) == 2 * k
        assert is_io_code(g3, s3.reference_code).ok
        assert solve(g3).gamma == 2 * k

        for g in (g1, g2, g3):
            d = max(3, max_degree(g))
            assert check_bound(g.n, solve(g).gamma, d) is BoundStatus.WITHIN_BOUND
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(8, started, "figure reference codes verify; minima match the proof for k=2..5")


def test_criterion_09_oracle_equivalence():
    started = time.monotonic()
    compared = 0
    for n in range(5, 11):
        for t in enumerate_trees(n):
            if find_open_twins(t):
                continue
            assert solve(t).gamma == solve_oracle(t).gamma
            compared += 1
    from iocodes import enumerate_graph_classes

    for g, _ in enumerate_graph_classes(7):
        if g.n >= 5:
            assert solve(g).gamma == solve_oracle(g).gamma
            compared += 1
    for g in sample_twin_free_graphs(500, 11, 14, seed=424242):
        assert solve(g).gamma == solve_oracle(g).gamma
        compared += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1200.0
    _report(9, started, f"{compared} instances, zero disagreements")


def test_criterion_10_property_suites():
    started = time.monotonic()
    rng = random.Random(99)

    # superset closure of the code property
    closed = 0
    while closed < 60:
        g = random_graph(rng.randint(2, 10), rng.random(), rng)
        s = VertexSet(g.n, [v for v in range(g.n) if rng.random() < 0.6])
        if not is_io_code(g, s).ok:
            continue
        bigger = VertexSet(g.n, [*s, *(v for v in range(g.n) if rng.random() < 0.4)])
        assert is_io_code(g, bigger).ok
        closed += 1

    # forced supports in every optimal code
    forced = 0
    while forced < 40:
        g = random_graph(rng.randint(3, 9), rng.uniform(0.2, 0.6), rng)
        if not admits_io_code(g):
            continue
        supports = {v for v in range(g.n) if any(g.degree(w) == 1 for w in g.neighbors(v))}
        assert supports <= set(solve(g).code)
        forced += 1

    # twin detection against quadratic brute force
    for _ in range(80):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        assert find_open_twins(g) == brute_open_twins(g)

    # 4-cycle detection against the literal search
    for _ in range(80):
        g = random_graph(rng.randint(4, 11), rng.uniform(0.1, 0.6), rng)
        assert has_four_cycle(g) == brute_has_four_cycle(g)

    # tree enumeration counts against the known sequence
    known = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
    for n, count in known.items():
        assert sum(1 for _ in enumerate_trees(n)) == count
    # and against an independent labeled-code generator for small n
    for n in range(3, 8):
        classes = {canonical_graph(prufer_tree(list(seq))) for seq in product(range(n), repeat=n - 2)}
        assert {canonical_graph(t) for t in enumerate_trees(n)} == classes

    _report(10, started, "closure, forced supports, twin/4-cycle oracles, tree counts")

from itertools import combinations

import pytest

from conftest import random_graph, random_tree
from iocodes import (
    CodeRejected,
    Graph,
    NoCode,
    TooLarge,
    Verdict,
    VertexSet,
    admits_io_code,
    classify_vertices,
    gen_reduced_subdivided_star,
    gen_subcubic_gp,
    gen_subdivided_star,
    has_four_cycle,
    is_io_code,
    solve,
    solve_oracle,
    solve_with_budget,
)
from iocodes.solver import _requirements


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestOracle:
    def test_base_values(self):
        assert solve_oracle(path(5)).gamma == 4
        assert solve_oracle(PAW).gamma == 3
        assert solve_oracle(C5).gamma == 4

    def test_no_code_witness(self):
        with pytest.raises(NoCode) as err:
            solve_oracle(Graph(3, [(0, 1), (0, 2)]))
        assert err.value.witness == (1, 2)

    def test_cap(self):
        with pytest.raises(TooLarge):
            solve_oracle(Graph(30, [(i, i + 1) for i in range(29)]))

    def test_code_verifies(self):
        result = solve_oracle(path(7))
        assert is_io_code(path(7), result.code).ok


class TestSolve:
    def test_small_bases(self):
        assert solve(path(2)).gamma == 2
        assert solve(K3).gamma == 2
        assert solve(path(4)).gamma == 4

    def test_subdivided_stars(self):
        for delta in (3, 4, 5):
            g, _ = gen_subdivided_star(delta)
            assert solve(g).gamma == 2 * delta
            h, _ = gen_reduced_subdivided_star(delta)
            assert solve(h).gamma == 2 * delta - 1

    def test_gadget_cycle(self):
        g, _ = gen_subcubic_gp(3)
        assert solve(g).gamma == 15

    def test_codes_verify_and_include_supports(self, rng):
        for _ in range(80):
            g = random_graph(rng.randint(2, 11), rng.random(), rng)
            if not admits_io_code(g):
                continue
            result = solve(g)
            assert is_io_code(g, result.code).ok
            assert classify_vertices(g)["support"].issubset(result.code)

    def test_deterministic(self):
        g, _ = gen_subcubic_gp(3)
        first = solve(g)
        second = solve(g)
        assert first.code == second.code
        assert first.nodes_explored == second.nodes_explored

    def test_no_code(self):
        with pytest.raises(NoCode):
            solve(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_rejected_code_raises_with_verdict(self, monkeypatch):
        verdict = Verdict(False, ("not_separated", 0, 4))
        monkeypatch.setattr("iocodes.solver.is_io_code", lambda g, s: verdict)
        for run in (lambda: solve(path(5)), lambda: solve(K3), lambda: solve_with_budget(path(5), 4)):
            with pytest.raises(CodeRejected) as err:
                run()
            assert err.value.verdict is verdict


class TestBudget:
    def test_around_optimum(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(3, 10), rng.uniform(0.25, 0.7), rng)
            if not admits_io_code(g):
                continue
            gamma = solve(g).gamma
            assert solve_with_budget(g, gamma - 1) is None
            found = solve_with_budget(g, gamma)
            assert found is not None and len(found) <= gamma

    def test_star_boundary(self):
        for delta in (3, 4):
            g, _ = gen_subdivided_star(delta)
            assert solve_with_budget(g, 2 * delta - 1) is None
            assert solve_with_budget(g, 2 * delta) is not None

    def test_full_set_budget(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            if admits_io_code(g):
                assert solve_with_budget(g, g.n) is not None


class TestOracleAgreement:
    def test_exhaustive_tiny(self):
        from iocodes import enumerate_graph_classes

        for n in range(2, 6):
            for g, _ in enumerate_graph_classes(n, connected=True, twin_free=True):
                assert solve(g).gamma == solve_oracle(g).gamma

    def test_random_medium(self, rng):
        done = 0
        while done < 60:
            g = random_graph(rng.randint(7, 11), rng.uniform(0.15, 0.6), rng)
            if not admits_io_code(g):
                continue
            done += 1
            assert solve(g).gamma == solve_oracle(g).gamma


def requirements_from_all_pairs(g):
    """Every neighbourhood and every pairwise symmetric difference, dominance-reduced."""
    reqs = set(g.adj) | {g.adj[u] ^ g.adj[v] for u, v in combinations(range(g.n), 2)}
    kept = []
    for r in sorted(reqs, key=lambda m: (m.bit_count(), m)):
        if not any(k & r == k for k in kept):
            kept.append(r)
    return kept


class TestRequirements:
    def test_random_graphs_with_and_without_four_cycles(self, rng):
        seen = {True: 0, False: 0}
        while sum(seen.values()) < 300:
            g = random_graph(rng.randint(2, 14), rng.uniform(0.1, 0.8), rng)
            if admits_io_code(g):
                seen[has_four_cycle(g)] += 1
                assert _requirements(g) == requirements_from_all_pairs(g)
        assert min(seen.values()) >= 50

    def test_subdivided_trees_and_gadget_cycles(self, rng):
        graphs = [gen_subcubic_gp(p)[0] for p in (3, 5)]
        for _ in range(40):
            t = random_tree(rng.randint(3, 30), rng)
            # one new vertex on every edge of a tree on >= 3 vertices leaves no open twins
            edges = []
            for i, (u, v) in enumerate(t.edges()):
                edges += [(u, t.n + i), (t.n + i, v)]
            graphs.append(Graph(t.n + t.edge_count, edges))
        for g in graphs:
            assert admits_io_code(g)
            assert _requirements(g) == requirements_from_all_pairs(g)

"""The exact tree program behind ``solve`` and ``solve_with_budget`` on trees.

Its minimum is checked against the unbounded branch and bound (which
does not consult it) and against the brute-force oracle; its witnesses
against the literal predicates; and ``solve``'s codes against the codes
an unbounded search returns, or the program's once the search reaches
its limit of one node per vertex.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iocodes
from iocodes import (
    Graph,
    VertexSet,
    check_bound,
    construct_code,
    enumerate_trees,
    find_open_twins,
    gen_tight_tree_pair,
    is_io_code,
    max_degree,
    solve,
    solve_oracle,
    solve_with_budget,
)
from iocodes import graphs, solver
from iocodes.solver import (
    _disjoint_bound,
    _greedy_cover,
    _requirements,
    _search,
    _tree_program,
    _tree_walk,
)


def twin_free_trees(n_max):
    for n in range(2, n_max + 1):
        for t in enumerate_trees(n):
            if not find_open_twins(t):
                yield t


def subdivided_random_tree(k, rng):
    """Vertex i attaches to rng.randrange(i); every edge is then subdivided."""
    edges = []
    n = k
    for i in range(1, k):
        edges += [(rng.randrange(i), n), (n, i)]
        n += 1
    return Graph(n, edges)


def seeded_trees():
    """Three subdivided random trees per odd order 41..49 from one seed-0 stream."""
    rng = random.Random(0)
    return {
        (n, j): subdivided_random_tree((n + 1) // 2, rng) for n in range(41, 50, 2) for j in range(3)
    }


def benchmark_solve_inputs():
    """The large_trees benchmark's 36 solve inputs for input seed 0, in its order.

    One seed-0 stream gives three subdivided random trees per odd order
    41..61, followed by the tight tree pairs for delta 6, 7 and 8.
    """
    rng = random.Random(0)
    trees = [subdivided_random_tree((n + 1) // 2, rng) for n in range(41, 62, 2) for _ in range(3)]
    return trees + [gen_tight_tree_pair(delta)[0] for delta in (6, 7, 8)]


def tree_dp(g):
    """The tree program's minimum and its code mask, on the tree's walk from 0."""
    gamma, witness = _tree_program(g.n, *_tree_walk(g))
    return gamma, witness()


def dp_code(g):
    gamma, mask = tree_dp(g)
    return gamma, VertexSet(g.n, mask=mask)


@pytest.fixture
def witness_runs(monkeypatch):
    """The label count of each tree-program witness built, in call order."""
    runs = []
    program = solver._tree_program

    def spied(n, *walk):
        gamma, witness = program(n, *walk)

        def counted():
            runs.append(n)
            return witness()

        return gamma, counted

    monkeypatch.setattr(solver, "_tree_program", spied)
    return runs


class TestExhaustive:
    def test_matches_search_to_13(self):
        count = 0
        for t in twin_free_trees(13):
            gamma, code = dp_code(t)
            unbounded, _ = _search(t)
            assert gamma == unbounded.bit_count(), t.edges()
            assert len(code) == gamma and is_io_code(t, code).ok
            result = solve(t)
            expected = code.mask if result.method == "tree_dp" else unbounded
            assert result.gamma == gamma and result.code.mask == expected
            count += 1
        assert count == 333

    def test_matches_oracle_to_10(self):
        for t in twin_free_trees(10):
            assert tree_dp(t)[0] == solve_oracle(t).gamma, t.edges()


@pytest.fixture
def walks(monkeypatch):
    """The graph walks a solve makes, in call order: the order reached by
    each of the solver's ``_bfs_tree`` walks, and "layers" for each BFS by
    layers, the walk of ``is_connected``."""
    seen = []
    bfs, layers = solver._bfs_tree, graphs._layers

    def walked(adj, mask, start):
        order, parent = bfs(adj, mask, start)
        seen.append(len(order))
        return order, parent

    monkeypatch.setattr(solver, "_bfs_tree", walked)
    monkeypatch.setattr(graphs, "_layers", lambda *args: seen.append("layers") or layers(*args))
    return seen


class TestOneWalk:
    def test_one_walk_per_tree_solve(self, walks, witness_runs):
        # the 81-vertex tree reaches the tree program and reads its witness;
        # the others stop before the program or at its minimum
        hard = subdivided_random_tree(41, random.Random(0))
        for g in [hard, *seeded_trees().values(), *twin_free_trees(9)]:
            del walks[:]
            result = solve(g)
            assert walks == [g.n]
            del walks[:]
            assert solve_with_budget(g, result.gamma - 1) is None
            assert walks == [g.n]
        assert witness_runs == [hard.n]

    def test_one_program_run_per_tree_solve(self, monkeypatch):
        # the program runs when the root gap (greedy size less the forced
        # vertices and the root packing bound) is two or more, or at the
        # node limit, and then only once
        runs = []
        program = solver._tree_program
        monkeypatch.setattr(solver, "_tree_program", lambda n, *walk: runs.append(n) or program(n, *walk))
        hard = subdivided_random_tree(41, random.Random(0))
        gaps = set()
        for g in [hard, *seeded_trees().values(), *benchmark_solve_inputs(), *twin_free_trees(12)]:
            reqs = _requirements(g)
            units = [r for r in reqs if r.bit_count() == 1]
            root_open = reqs[len(units):]
            room = _greedy_cover(root_open, sum(units)).bit_count() - len(units)
            gap = room - _disjoint_bound(root_open, room)
            gaps.add(min(gap, 2))
            del runs[:]
            result = solve(g)
            assert runs == ([g.n] if gap >= 2 or result.nodes_explored == g.n else [])
            if gap <= 0:
                assert result.nodes_explored == 1
        assert gaps == {0, 1, 2}

    def test_n_minus_one_edges_without_a_full_walk_is_no_tree(self, walks):
        # a triangle beside a path on 4 vertices: 6 edges on 7 vertices, and
        # the walk from 0 reaches the triangle only
        g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
        result = solve(g)
        assert walks == [3]
        assert result.method == "branch_and_bound" and result.gamma == solve_oracle(g).gamma
        del walks[:]
        assert len(solve_with_budget(g, result.gamma)) == result.gamma
        assert walks == [3]


class TestSeeded:
    def test_solve_code_is_the_unbounded_search_code(self):
        trees = seeded_trees()
        # the greedy incumbent is not optimal here, so the search has work to do
        hard = trees[49, 1]
        reqs = _requirements(hard)
        units = [r for r in reqs if r.bit_count() == 1]
        gamma = tree_dp(hard)[0]
        assert _greedy_cover(reqs[len(units):], sum(units)).bit_count() > gamma
        for key, nodes in (((41, 1), 1), ((43, 2), 1), ((47, 1), 1), ((49, 1), 19)):
            g = trees[key]
            result = solve(g)
            unbounded, unbounded_nodes = _search(g)
            assert result.code.mask == unbounded, key
            assert result.gamma == tree_dp(g)[0]
            # the program's minimum cut the search short, with a minimum
            # incumbent: the greedy one, at the root, on all but the last
            assert result.method == "branch_and_bound"
            assert result.nodes_explored == nodes < g.n < unbounded_nodes

    def test_budget_below_gamma_is_refused(self):
        trees = list(seeded_trees().values()) + list(twin_free_trees(9))
        for g in trees:
            gamma, _ = tree_dp(g)
            assert solve_with_budget(g, gamma - 1) is None
        for g in list(twin_free_trees(9)):
            gamma, _ = tree_dp(g)
            found = solve_with_budget(g, gamma)
            assert found is not None and len(found) == gamma

    def test_hard_tree_search_stops_at_the_node_bound(self, witness_runs):
        # the unbounded search explores 764,465 nodes on this 81-vertex tree
        g = subdivided_random_tree(41, random.Random(0))
        gamma, witness = tree_dp(g)
        del witness_runs[:]
        result = solve(g)
        # the hand-over at the node limit is the one reader of the witness
        assert witness_runs == [81]
        assert result.method == "tree_dp" and result.code.mask == witness
        assert result.gamma == gamma and result.nodes_explored == g.n == 81
        # the search alone stops at the limit above the minimum
        best, nodes = _search(g, limit=g.n)
        assert nodes == g.n and best.bit_count() > gamma
        # a budget reads the witness without searching
        found = solve_with_budget(g, gamma)
        assert found is not None and found.mask == witness and is_io_code(g, found).ok
        assert witness_runs == [81, 81]

    def test_benchmark_solve_inputs_are_pinned(self, witness_runs):
        # (n, gamma, code, nodes, method): every gamma, code and method as the
        # solver before the cost-first tree program gave them, and the budget
        # codes at gamma and gamma - 1: the tree program's code and None
        solves, budgets = [], []
        for g in benchmark_solve_inputs():
            result = solve(g)
            solves.append((g.n, result.gamma, sorted(result.code), result.nodes_explored, result.method))
            found = [solve_with_budget(g, k) for k in (result.gamma, result.gamma - 1)]
            budgets.append([None if code is None else code.mask for code in found])
        assert len(solves) == 36
        # every input's incumbent reaches the program's minimum before the
        # node limit n, all but one at the root, so no solve reads the
        # witness and each budget at gamma does
        assert [nodes for _, _, _, nodes, _ in solves] == [1] * 13 + [19] + [1] * 22
        assert witness_runs == [n for n, _, _, _, _ in solves]
        assert all(below is None for _, below in budgets)
        digest = hashlib.sha256(repr(solves).encode()).hexdigest()
        assert digest == "8f66a06a16425350e433eb5b60e9fdc10756867358d1900e51c265943adf1cbd"
        # the same answers as the search that ran to its limit of n nodes
        limit_only = [(n, gamma, code, n, method) for n, gamma, code, _, method in solves]
        digest = hashlib.sha256(repr(limit_only).encode()).hexdigest()
        assert digest == "43eb256c962d2b67b6666a19a4a79d3a76a002433bd0d6a2698be6d2986a1db1"
        digest = hashlib.sha256(repr(budgets).encode()).hexdigest()
        assert digest == "8ea13f183a8d6aa5a25251c88a017e1ef50d1bd2a298519409ed3679e5bcb635"

    def test_2001_vertex_tree_is_pinned(self):
        # gamma, method and code as the quadratic solver gave them; the search
        # stops at its limit of one node per vertex
        g = subdivided_random_tree(1001, random.Random(0))
        result = solve(g)
        assert (g.n, result.gamma, result.nodes_explored, result.method) == (2001, 1370, 2001, "tree_dp")
        digest = hashlib.sha256(" ".join(map(str, sorted(result.code))).encode()).hexdigest()
        assert digest == "d95c66061c6ad40ab4aa09d98e069e8a9d410b6e151bb9004cbe8705ed55f531"

    def test_deep_search_needs_no_recursion(self):
        # a recursive search on this 401-vertex tree needs about 155 frames
        script = textwrap.dedent(
            """
            import random, sys
            from test_tree_dp import subdivided_random_tree, tree_dp
            from iocodes import solve

            g = subdivided_random_tree(201, random.Random(0))
            sys.setrecursionlimit(100)
            result = solve(g)
            print(g.n, result.gamma, tree_dp(g)[0], result.method)
            """
        )
        paths = [str(Path(__file__).parent), str(Path(iocodes.__file__).parents[1])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        n, gamma, dp_gamma, method = done.stdout.split()
        assert n == "401" and gamma == dp_gamma and method == "tree_dp"

    def test_long_path_needs_no_recursion(self):
        g = Graph(2000, [(i, i + 1) for i in range(1999)])
        gamma, code = dp_code(g)
        assert len(code) == gamma and is_io_code(g, code).ok


@st.composite
def random_twin_free_trees(draw, max_order):
    """A random tree with every surplus leaf at a support extended by one vertex.

    Two leaves on one support are the only open twins a tree can have,
    so the result is twin-free; its order is below twice ``max_order``.
    """
    k = draw(st.integers(2, max_order))
    raw = draw(st.lists(st.integers(0, 10**6), min_size=k - 1, max_size=k - 1))
    edges = [(r % i, i) for i, r in enumerate(raw, start=1)]
    degree = [0] * k
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    n = k
    seen_support = set()
    for u, v in list(edges):
        leaf, support = (v, u) if degree[v] == 1 else (u, v)
        if degree[leaf] != 1 or k == 2:
            continue
        if support in seen_support:
            edges.append((leaf, n))
            n += 1
        seen_support.add(support)
    return Graph(n, edges)


class TestProperties:
    @given(random_twin_free_trees(160))
    def test_dp_witness_is_a_code(self, g):
        assert not find_open_twins(g)
        gamma, code = dp_code(g)
        assert len(code) == gamma and is_io_code(g, code).ok

    @settings(max_examples=15)  # the constructor is superlinear in the order
    @given(random_twin_free_trees(160))
    def test_constructor_is_within_bound_and_above_dp(self, g):
        if g.n < 5:
            return
        delta = max(3, max_degree(g))
        code, trace = construct_code(g, delta)
        status = check_bound(g.n, len(code), delta, is_exceptional_star=trace.exceptional_star)
        assert status.value != "violation"
        assert tree_dp(g)[0] <= len(code)

    @given(random_twin_free_trees(16))
    def test_dp_equals_search(self, g):
        unbounded, _ = _search(g)
        assert tree_dp(g)[0] == unbounded.bit_count()

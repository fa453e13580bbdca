"""The exact tree program behind ``solve`` and ``solve_with_budget`` on trees.

Its minimum is checked against the unbounded branch and bound (which
does not consult it) and against the brute-force oracle; its witnesses
against the literal predicates; and ``solve``'s codes against the codes
an unbounded search returns.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

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
    is_io_code,
    max_degree,
    solve,
    solve_oracle,
    solve_with_budget,
)
from iocodes.solver import (
    TREE_NODE_FACTOR,
    _greedy_cover,
    _requirements,
    _search,
    _tree_dp,
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


def dp_code(g):
    gamma, mask = _tree_dp(g)
    return gamma, VertexSet(g.n, mask=mask)


class TestExhaustive:
    def test_matches_search_to_13(self):
        count = 0
        for t in twin_free_trees(13):
            gamma, code = dp_code(t)
            unbounded, _, _ = _search(t)
            assert gamma == unbounded.bit_count(), t.edges()
            assert len(code) == gamma and is_io_code(t, code).ok
            result = solve(t)
            assert result.gamma == gamma and result.code.mask == unbounded
            count += 1
        assert count == 333

    def test_matches_oracle_to_10(self):
        for t in twin_free_trees(10):
            assert _tree_dp(t)[0] == solve_oracle(t).gamma, t.edges()


class TestSeeded:
    def test_solve_code_is_the_unbounded_search_code(self):
        trees = seeded_trees()
        # the greedy incumbent is not optimal here, so the search has work to do
        hard = trees[49, 1]
        reqs = _requirements(hard)
        units = [r for r in reqs if r.bit_count() == 1]
        gamma = _tree_dp(hard)[0]
        assert _greedy_cover(reqs[len(units):], sum(units)).bit_count() > gamma
        for key in ((41, 1), (43, 2), (47, 1), (49, 1)):
            g = trees[key]
            result = solve(g)
            unbounded, unbounded_nodes, _ = _search(g)
            assert result.code.mask == unbounded, key
            assert result.gamma == _tree_dp(g)[0]
            # the target cut the search short
            assert g.n <= result.nodes_explored < unbounded_nodes

    def test_budget_below_gamma_is_refused(self):
        trees = list(seeded_trees().values()) + list(twin_free_trees(9))
        for g in trees:
            gamma, _ = _tree_dp(g)
            assert solve_with_budget(g, gamma - 1) is None
        for g in list(twin_free_trees(9)):
            gamma, _ = _tree_dp(g)
            found = solve_with_budget(g, gamma)
            assert found is not None and len(found) == gamma

    def test_hard_tree_search_stops_at_the_node_bound(self):
        # the unbounded search explores 764,465 nodes on this 81-vertex tree
        g = subdivided_random_tree(41, random.Random(0))
        gamma, witness = _tree_dp(g)
        result = solve(g)
        assert result.method == "tree_dp" and result.code.mask == witness
        assert result.gamma == gamma and result.nodes_explored == TREE_NODE_FACTOR * g.n
        _, nodes, from_exact = _search(g, cap=gamma, exact=lambda: (gamma, witness))
        assert from_exact and nodes == TREE_NODE_FACTOR * g.n
        found = solve_with_budget(g, gamma)
        assert found is not None and len(found) == gamma and is_io_code(g, found).ok

    def test_2001_vertex_tree_is_pinned(self):
        # gamma, node count, method and code as the quadratic solver gave them
        g = subdivided_random_tree(1001, random.Random(0))
        result = solve(g)
        assert (g.n, result.gamma, result.nodes_explored, result.method) == (2001, 1370, 32016, "tree_dp")
        digest = hashlib.sha256(" ".join(map(str, sorted(result.code))).encode()).hexdigest()
        assert digest == "d95c66061c6ad40ab4aa09d98e069e8a9d410b6e151bb9004cbe8705ed55f531"

    def test_deep_search_needs_no_recursion(self):
        # a recursive search on this 401-vertex tree needs about 155 frames
        script = textwrap.dedent(
            """
            import random, sys
            from test_tree_dp import subdivided_random_tree
            from iocodes import solve
            from iocodes.solver import _tree_dp

            g = subdivided_random_tree(201, random.Random(0))
            sys.setrecursionlimit(100)
            result = solve(g)
            print(g.n, result.gamma, _tree_dp(g)[0], result.method)
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
        assert _tree_dp(g)[0] <= len(code)

    @given(random_twin_free_trees(16))
    def test_dp_equals_search(self, g):
        unbounded, _, _ = _search(g)
        assert _tree_dp(g)[0] == unbounded.bit_count()

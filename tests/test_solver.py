import random
from itertools import combinations
from typing import Callable

import pytest

from conftest import atlas_graphs, deque_bfs, random_graph, random_tree
from iocodes import (
    CodeRejected,
    Graph,
    NoCode,
    TooLarge,
    Verdict,
    VertexSet,
    admits_io_code,
    enumerate_graph_classes,
    enumerate_trees,
    find_open_twins,
    gen_reduced_subdivided_star,
    gen_subcubic_gp,
    gen_subdivided_star,
    graphs,
    has_four_cycle,
    is_connected,
    is_io_code,
    solve,
    solve_oracle,
    solve_with_budget,
)
from iocodes.graphs import is_tree
from iocodes.solver import TREE_NODE_FACTOR, _greedy_cover, _requirements, _tree_dp
from test_tree_dp import subdivided_random_tree


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
            supports = {v for v in range(g.n) if any(g.degree(w) == 1 for w in g.neighbors(v))}
            assert supports <= set(result.code)

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
        # every connected twin-free class to order 5, 4-cycles allowed
        for n in range(2, 6):
            for g in atlas_graphs(n):
                if is_connected(g) and not find_open_twins(g):
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


# The solver as it was before its requirement list, greedy and tree
# program were made incremental, kept verbatim as the reference for the
# current one: every answer, node count and witness must be the same.


def reference_requirements(g: Graph) -> list[int]:
    """Deduplicated, dominance-reduced requirement masks.

    Any requirement that contains another as a subset is redundant for a
    hitting set and dropped.  So only pairs with a common neighbour are
    formed: for disjoint N(u) and N(v) the separation requirement is
    N(u) | N(v), which contains the domination requirement N(u).
    """
    adj = g.adj
    reqs = set(adj)
    for w in range(g.n):
        for u, v in combinations(graphs._bits(adj[w]), 2):
            reqs.add(adj[u] ^ adj[v])
    ordered = sorted(reqs, key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for r in ordered:
        if not any(k & r == k for k in kept):
            kept.append(r)
    return kept


def reference_propagate_units(reqs: list[int], chosen: int) -> tuple[int, list[int]]:
    """Force the sole candidate of every 1-element open requirement."""
    open_reqs = [r for r in reqs if r & chosen == 0]
    while True:
        units = 0
        for r in open_reqs:
            if r.bit_count() == 1:
                units |= r
        if not units:
            return chosen, open_reqs
        chosen |= units
        open_reqs = [r for r in open_reqs if r & chosen == 0]


def reference_greedy_cover(reqs: list[int], chosen: int) -> int:
    """Any hitting set extending ``chosen``; initial incumbent."""
    open_reqs = [r for r in reqs if r & chosen == 0]
    while open_reqs:
        counts: dict[int, int] = {}
        for r in open_reqs:
            for v in graphs._bits(r):
                counts[v] = counts.get(v, 0) + 1
        best_v = min(counts, key=lambda v: (-counts[v], v))
        chosen |= 1 << best_v
        open_reqs = [r for r in open_reqs if r & chosen == 0]
    return chosen


def reference_disjoint_bound(open_reqs: list[int]) -> int:
    """Greedy count of pairwise disjoint requirements; each costs >= 1."""
    used = 0
    count = 0
    for r in sorted(open_reqs, key=lambda m: (m.bit_count(), m)):
        if r & used == 0:
            count += 1
            used |= r
    return count


def reference_search(g: Graph, cap: int | None = None, exact: Callable[[], tuple[int, int]] | None = None):
    """Core branch and bound; returns (best_mask or None, nodes explored,
    whether the mask is the witness of ``exact``).

    The search stops as soon as the incumbent has size at most its goal:
    ``cap`` itself when a cap is given, so any code within it decides the
    question, or else the exact minimum from ``exact``, which returns a
    minimum and a code of that size.  That callable costs about as much
    as exploring one node per vertex, so it is asked only once the search
    has explored ``g.n`` nodes; searches that end sooner, most of them on
    small trees, never pay for it.  The incumbent is replaced only on
    strict improvement, so stopping at the minimum returns the code the
    unbounded search returns.  With ``exact`` given, the search stops at
    ``TREE_NODE_FACTOR * g.n`` nodes with its witness as the incumbent.
    The search runs depth first on an explicit stack of lazy child
    generators, so its depth is not bounded by the recursion limit.
    """
    reqs = reference_requirements(g)
    root_chosen, root_open = reference_propagate_units(reqs, 0)
    best_mask = None
    best_size = (cap + 1) if cap is not None else (g.n + 1)
    greedy = reference_greedy_cover(reqs, root_chosen)
    if greedy.bit_count() < best_size:
        best_mask, best_size = greedy, greedy.bit_count()
    goal = cap if cap is not None else 0  # every code has size >= 1
    nodes = 0
    witness = None
    from_exact = False

    def expand(chosen: int, open_reqs: list[int]):
        """Explore one node: its children as a lazy generator, or None."""
        nonlocal best_mask, best_size, nodes, goal, witness, from_exact
        nodes += 1
        if nodes == g.n and exact is not None:
            gamma, witness = exact()
            goal = max(goal, gamma)  # a cap, never below the minimum, stays the goal
        if witness is not None and nodes == TREE_NODE_FACTOR * g.n:
            # the incumbent is above the goal here, which the witness meets
            best_mask, best_size, from_exact = witness, witness.bit_count(), True
            return None
        size = chosen.bit_count()
        if not open_reqs:
            if size < best_size:
                best_mask, best_size = chosen, size
            return None
        if size + reference_disjoint_bound(open_reqs) >= best_size:
            return None
        branch_req = min(open_reqs, key=lambda m: (m.bit_count(), m))
        candidates = sorted(
            graphs._bits(branch_req),
            key=lambda v: (-sum(1 for r in open_reqs if r >> v & 1), v),
        )
        return (reference_propagate_units(open_reqs, chosen | 1 << v) for v in candidates)

    # one entry per node on the current path: its children not yet explored
    stack = [iter([(root_chosen, root_open)])]
    while stack and best_size > goal:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif (grandchildren := expand(*child)) is not None:
            stack.append(grandchildren)
    return best_mask, nodes, from_exact


def reference_tree_dp(g: Graph) -> tuple[int, int]:
    """Minimum IO-code of a twin-free tree: (gamma, code mask), in O(n).

    Rooted at 0 and filled in reverse BFS order.  A vertex v with parent
    p exports, for each value of "p in S", the cheapest choice inside its
    subtree for each key (v in S, v has no S-child, v has a private
    child), where a private child is one whose only S-neighbour is v.
    The parent folds its children's keys into (S-children capped at 2,
    private-child count of the unique S-child, own private children),
    which is all the local rule needs: v is dominated, v has at most one
    private child, and if v's only S-neighbour is a child c, then c has
    no private child.  The fold keeps back-pointers for the witness.
    """
    _, dist, parent = deque_bfs(g, 0)
    order = sorted(range(g.n), key=dist.__getitem__)
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    # export[v][xp]: key -> (cost, fold state); folds[v][xv]: per child, state -> back-pointer
    export: list = [None] * g.n
    folds: list = [None] * g.n
    for v in reversed(order):
        finals, trails = [], []
        for xv in (0, 1):
            states = {(0, 0, 0): xv}
            trail = []
            for c in children[v]:
                nxt: dict = {}
                back: dict = {}
                for (sc, uq, pc), cost in states.items():
                    for key, (c_cost, _) in export[c][xv].items():
                        x, lone, q = key
                        npc = pc + lone
                        if npc > 1:
                            continue
                        state = (min(sc + x, 2), q if x and sc == 0 else (0 if x else uq), npc)
                        total = cost + c_cost
                        if state not in nxt or total < nxt[state]:
                            nxt[state] = total
                            back[state] = ((sc, uq, pc), key)
                states = nxt
                trail.append(back)
            finals.append(states)
            trails.append(trail)
        folds[v] = trails
        export[v] = []
        for xp in (0, 1):
            table: dict = {}
            for xv in (0, 1):
                for (sc, uq, pc), cost in finals[xv].items():
                    if sc + xp == 0 or (sc == 1 and not xp and uq):
                        continue  # v undominated, or v private to a child that has one
                    key = (xv, int(sc == 0), pc)
                    if key not in table or cost < table[key][0]:
                        table[key] = (cost, (sc, uq, pc))
            export[v].append(table)
    root = order[0]
    (xr, _, _), (gamma, state) = min(export[root][0].items(), key=lambda item: item[1][0])
    mask = 0
    stack = [(root, xr, state)]
    while stack:
        v, xv, state = stack.pop()
        mask |= xv << v
        for c, back in zip(reversed(children[v]), reversed(folds[v][xv])):
            state, key = back[state]
            stack.append((c, key[0], export[c][xv][key][1]))
    return gamma, mask


def reference_solve(g):
    """``solve``'s (gamma, code mask, nodes explored, method) under the reference."""
    exact = (lambda: reference_tree_dp(g)) if is_tree(g) else None
    mask, nodes, from_exact = reference_search(g, exact=exact)
    return mask.bit_count(), mask, nodes, "tree_dp" if from_exact else "branch_and_bound"


def reference_budget(g, max_size):
    """``solve_with_budget``'s code mask, or None, under the reference."""
    dp = reference_tree_dp(g) if is_tree(g) else None
    if max_size < (0 if dp is None else dp[0]):
        return None
    mask, _, _ = reference_search(g, cap=max_size, exact=None if dp is None else lambda: dp)
    return mask


def assert_same_as_reference(g):
    reqs = _requirements(g)
    assert reqs == reference_requirements(g)
    # the search's root: the unit requirements come first, and forcing them
    # leaves the rest open
    units = [r for r in reqs if r.bit_count() == 1]
    root_chosen, root_open = sum(units), reqs[len(units):]
    assert reqs[: len(units)] == units
    assert (root_chosen, root_open) == reference_propagate_units(reqs, 0)
    assert _greedy_cover(root_open, root_chosen) == reference_greedy_cover(reqs, root_chosen)
    if is_tree(g):
        assert _tree_dp(g) == reference_tree_dp(g)
    result = solve(g)
    gamma, mask, nodes, method = reference_solve(g)
    assert (result.gamma, result.code.mask, result.nodes_explored, result.method) == (gamma, mask, nodes, method)
    for k in (gamma, gamma - 1):
        found = solve_with_budget(g, k)
        assert (None if found is None else found.mask) == reference_budget(g, k)


def relabeled_subdivided_tree(k, rng):
    """A random tree on k vertices with every edge subdivided, under a random labeling."""
    g = subdivided_random_tree(k, rng)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestAgainstReference:
    def test_twin_free_trees_to_13(self):
        count = 0
        for n in range(2, 14):
            for t in enumerate_trees(n):
                if not find_open_twins(t):
                    assert_same_as_reference(t)
                    count += 1
        assert count == 333

    def test_audited_graph_classes(self):
        classes = [g for g, _ in enumerate_graph_classes(7) if g.n >= 5]
        assert len(classes) == 53
        for g in classes:
            assert_same_as_reference(g)

    def test_random_graphs_with_and_without_four_cycles(self, rng):
        seen = {True: 0, False: 0}
        while min(seen.values()) < 60:
            g = random_graph(rng.randint(4, 13), rng.uniform(0.1, 0.6), rng)
            if admits_io_code(g):
                seen[has_four_cycle(g)] += 1
                assert_same_as_reference(g)

    def test_relabeled_subdivided_trees(self):
        rng = random.Random(4)
        orders = []
        for k in (3, 5, 8, 13, 21, 34, 55, 89, 120, 150, 200):
            g = relabeled_subdivided_tree(k, rng)
            assert_same_as_reference(g)
            orders.append(g.n)
        assert max(orders) == 399

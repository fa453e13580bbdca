import random
from itertools import combinations

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
    canonical_graph,
    enumerate_graph_classes,
    enumerate_trees,
    enumerate_twin_free_trees,
    find_open_twins,
    gen_reduced_subdivided_star,
    gen_subcubic_gp,
    gen_subdivided_star,
    graphs,
    has_four_cycle,
    is_connected,
    is_io_code,
    parse_graph6,
    solve,
    solve_oracle,
    solve_with_budget,
    solver,
)
from iocodes.graphs import is_tree
from iocodes.solver import _greedy_cover, _requirements
from test_tree_dp import benchmark_solve_inputs, subdivided_random_tree, tree_dp, twin_free_trees


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

    def test_trees_are_answered_by_the_tree_program(self, monkeypatch):
        # gamma from the branch and bound; a tree budget runs no search
        searched = []
        search = solver._search
        monkeypatch.setattr(solver, "_search", lambda g, **kw: searched.append(g.n) or search(g, **kw))
        hard = subdivided_random_tree(41, random.Random(0))
        trees = [*twin_free_trees(13), *relabeled_subdivided_trees(), *benchmark_solve_inputs(), hard]
        assert len(trees) == 333 + 11 + 36 + 1
        for g in trees:
            gamma = solve(g).gamma
            assert searched == [g.n]  # the spy sees solve's search
            assert solve_with_budget(g, gamma - 1) is None
            for k in {gamma, gamma + 1, g.n}:
                code = solve_with_budget(g, k)
                assert code is not None and len(code) == gamma and is_io_code(g, code).ok
            assert searched == [g.n]
            del searched[:]

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


def reference_search(g: Graph, cap: int | None = None, limit: int | None = None, floor=None):
    """Core branch and bound; returns (best_mask or None, nodes explored).

    The search stops as soon as the incumbent is within ``cap`` when a
    cap is given, so any code within it decides the question, and after
    ``limit`` nodes when a limit is given, with its best incumbent.  The
    incumbent is replaced only on strict improvement.  The search runs
    depth first on an explicit stack of lazy child generators, so its
    depth is not bounded by the recursion limit.  ``floor`` is asked once
    at a root whose incumbent exceeds the forced vertices plus the
    packing bound by two or more, and the search stops once the
    incumbent reaches it.
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

    def expand(chosen: int, open_reqs: list[int]):
        """Explore one node: its children as a lazy generator, or None."""
        nonlocal best_mask, best_size, goal, nodes
        nodes += 1
        size = chosen.bit_count()
        if not open_reqs:
            if size < best_size:
                best_mask, best_size = chosen, size
            return None
        bound = reference_disjoint_bound(open_reqs)
        if size + bound >= best_size:
            return None
        if nodes == 1 and floor is not None and best_size - size - bound >= 2:
            goal = max(goal, floor())
        branch_req = min(open_reqs, key=lambda m: (m.bit_count(), m))
        candidates = sorted(
            graphs._bits(branch_req),
            key=lambda v: (-sum(1 for r in open_reqs if r >> v & 1), v),
        )
        return (reference_propagate_units(open_reqs, chosen | 1 << v) for v in candidates)

    # one entry per node on the current path: its children not yet explored
    stack = [iter([(root_chosen, root_open)])]
    while stack and best_size > goal and nodes != limit:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif (grandchildren := expand(*child)) is not None:
            stack.append(grandchildren)
    return best_mask, nodes


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
    """``solve``'s (gamma, code mask, nodes explored, method) under the
    reference: a tree's search stops after ``n`` nodes or once its
    incumbent reaches the program's minimum, asked at a root gap of two
    or more, and a search that used all ``n`` nodes returns the program's
    code unless its incumbent already has the minimum size."""
    if not is_tree(g):
        mask, nodes = reference_search(g)
        return mask.bit_count(), mask, nodes, "branch_and_bound"
    gamma, witness = reference_tree_dp(g)
    mask, nodes = reference_search(g, limit=g.n, floor=lambda: gamma)
    if nodes == g.n and gamma < mask.bit_count():
        return gamma, witness, nodes, "tree_dp"
    return mask.bit_count(), mask, nodes, "branch_and_bound"


def reference_budget(g, max_size):
    """``solve_with_budget``'s code mask, or None, under the reference: on a
    tree the program's code, or None below its minimum."""
    if is_tree(g):
        gamma, mask = reference_tree_dp(g)
        return None if max_size < gamma else mask
    mask, _ = reference_search(g, cap=max_size)
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
        assert tree_dp(g) == reference_tree_dp(g)
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


def relabeled_subdivided_trees():
    """Eleven of them from one seeded stream, up to 399 vertices."""
    rng = random.Random(4)
    return [relabeled_subdivided_tree(k, rng) for k in (3, 5, 8, 13, 21, 34, 55, 89, 120, 150, 200)]


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
        orders = []
        for g in relabeled_subdivided_trees():
            assert_same_as_reference(g)
            orders.append(g.n)
        assert max(orders) == 399


def limit_only_solve(g):
    """``solve``'s (gamma, code mask, nodes explored, method) on a tree
    under the rule without a floor: the search runs to ``n`` nodes, and
    only a search that used them all consults the tree program."""
    mask, nodes = solver._search(g, limit=g.n)
    if nodes == g.n:
        gamma, witness = tree_dp(g)
        if gamma < mask.bit_count():
            return gamma, witness, nodes, "tree_dp"
    return mask.bit_count(), mask, nodes, "branch_and_bound"


# 13 vertices and 19 edges, connected, twin-free and 4-cycle-free; the
# greedy incumbent has 7 vertices, one of them forced, the root packing
# bound is 3 and the minimum 6
NON_TREE_13 = Graph(13, [
    (0, 7), (0, 8), (0, 9), (0, 11), (0, 12), (1, 5), (1, 7), (1, 10), (2, 8), (3, 4),
    (3, 5), (3, 6), (3, 9), (4, 10), (5, 11), (6, 12), (7, 9), (8, 11), (10, 12),
])


class TestNodeLimit:
    def test_tree_solves_hand_over_at_one_node_per_vertex(self):
        # in canonical labels, as the audit solves them, in the enumerator's
        # labels and in random ones; the floor changes no answer, only the
        # node count.  Seed 7's stream holds a tree on 255 vertices whose
        # search, if the floor pruned, would stop after 100 nodes, not 124.
        enumerated = [t for n in range(2, 17) for t in enumerate_twin_free_trees(n)]
        audited = [canonical_graph(t) for t in enumerated]
        labeled = [t for t in enumerated if t.n <= 14]
        rng = random.Random(7)
        relabeled = [relabeled_subdivided_tree(3 + i * 148 // 199, rng) for i in range(200)]
        assert max(g.n for g in relabeled) == 301
        hard = subdivided_random_tree(1001, random.Random(0))
        trees = [*audited, *labeled, *relabeled, *benchmark_solve_inputs(), hard]
        assert len(trees) == 3_151 + 693 + 200 + 36 + 1
        methods = set()
        before = after = fewer = 0
        for g in trees:
            gamma, mask, nodes, method = limit_only_solve(g)
            result = solve(g)
            assert (result.gamma, result.code.mask, result.method) == (gamma, mask, method)
            assert result.nodes_explored <= nodes <= g.n
            assert result.method == "branch_and_bound" or result.nodes_explored == g.n
            methods.add(result.method)
            before += nodes
            after += result.nodes_explored
            fewer += result.nodes_explored < nodes
        assert methods == {"branch_and_bound", "tree_dp"}
        assert (before, after, fewer) == (47_874, 18_132, 622)

    def test_handed_over_audit_tree_is_pinned(self):
        # the one twin-free tree with n <= 18 whose search, in canonical
        # labels, needs more than one node per vertex: before the limit it
        # took 23 nodes to find a code of the program's size
        g = parse_graph6("Q?AA@?O???_A?A?@??OOA@_G@_O")
        assert canonical_graph(g) == g
        result = solve(g)
        assert (g.n, result.gamma, result.nodes_explored, result.method) == (18, 13, 18, "tree_dp")
        assert sorted(result.code) == [1, 3, 5, 6, 7, 8, 10, 11, 12, 13, 15, 16, 17]
        assert result.code.mask == tree_dp(g)[1]

    def test_search_stops_at_the_limit_on_a_non_tree(self):
        g = NON_TREE_13
        assert is_connected(g) and not is_tree(g) and not find_open_twins(g) and not has_four_cycle(g)
        best, total = solver._search(g)
        assert (best.bit_count(), total) == (6, 34) and solve(g).code.mask == best
        sizes = []
        for k in range(1, total + 1):
            mask, nodes = solver._search(g, limit=k)
            assert nodes == k and (mask, nodes) == reference_search(g, limit=k)
            assert is_io_code(g, VertexSet(g.n, mask=mask)).ok
            sizes.append(mask.bit_count())
        assert sizes[0] == 7 and sizes[-1] == 6 and sizes == sorted(sizes, reverse=True)
        # a limit above what the search needs changes nothing
        assert solver._search(g, limit=total + 1) == (best, total)

    def test_a_floor_stops_the_search_and_prunes_nothing(self):
        # the root gap is 7 - 1 - 3 = 3, so the floor is asked once; one
        # below the minimum leaves every incumbent as it was, at every node
        g = NON_TREE_13
        best, total = solver._search(g)
        for floor in range(1, 6):
            calls = []
            assert solver._search(g, floor=lambda: calls.append(floor) or floor) == (best, total)
            assert calls == [floor]
            for k in range(1, total + 1):
                assert solver._search(g, limit=k, floor=lambda: floor) == solver._search(g, limit=k)
        # the minimum stops the search at the first node whose incumbent
        # has its size
        assert solver._search(g, floor=lambda: 6) == solver._search(g, limit=6) == (best, 6)
        assert solver._search(g, limit=5)[0].bit_count() == 7

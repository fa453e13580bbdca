from itertools import combinations, permutations

import pytest
from conftest import atlas_graphs, random_graph, random_tree
from iocodes import Graph, canon
from iocodes.canon import canonical_graph, canonical_graph6, canonical_order, isomorphic
from iocodes.families import enumerate_trees, gen_subdivided_star
from iocodes.formats import emit_graph6
from iocodes.graphs import find_open_twins


# graphs by order, one per isomorphism class (OEIS A000088)
GRAPH_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_min_form(g: Graph) -> tuple:
    best = None
    for perm in permutations(range(g.n)):
        h = relabel(g, perm)
        if best is None or h.adj < best:
            best = h.adj
    return best


class TestCanonical:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_graph6(g) == canonical_graph6(relabel(g, perm))

    def test_trees_too(self, rng):
        for _ in range(40):
            t = random_tree(rng.randint(2, 12), rng)
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert canonical_graph6(t) == canonical_graph6(relabel(t, perm))

    def test_canonical_is_isomorphic_to_input(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            c = canonical_graph(g)
            assert c.n == g.n and c.edge_count == g.edge_count
            assert sorted(c.degree_sequence()) == sorted(g.degree_sequence())

    def test_separates_non_isomorphic_small(self, rng):
        # cross-check against exhaustive minimum over all permutations
        for _ in range(40):
            g = random_graph(rng.randint(2, 6), rng.random(), rng)
            assert canonical_graph(g).adj == brute_min_form(g) or (
                # both must at least agree as isomorphism invariants
                canonical_graph(Graph._from_adj(brute_min_form(g))).adj
                == canonical_graph(g).adj
            )

    def test_isomorphic_predicate(self, rng):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not isomorphic(c5, p5)
        perm = [3, 0, 4, 1, 2]
        assert isomorphic(c5, relabel(c5, perm))


def reference_order(g: Graph) -> list[int]:
    """The refinement-tree search without automorphism pruning, as the
    package had it before: every leaf is visited, and the least
    (code, order) wins."""
    if g.n <= 1:
        return list(range(g.n))
    nbrs = [g.neighbors(v) for v in range(g.n)]
    best = None

    def refine(colors):
        while True:
            sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(g.n)]
            rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def code_for(order):
        code = 0
        for j in range(1, g.n):
            aj = g.adj[order[j]]
            for i in range(j):
                code = (code << 1) | (aj >> order[i] & 1)
        return code

    def descend(colors):
        nonlocal best
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            order = sorted(range(g.n), key=lambda v: colors[v])
            key = (code_for(order), order)
            if best is None or key < best:
                best = key
            return
        for v in target:
            # individualize v ahead of its cell, then re-rank to ints
            sigs = [(colors[u], 0 if u == v else 1) for u in range(g.n)]
            rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
            descend([rank[s] for s in sigs])

    descend([0] * g.n)
    return best[1]


def reference_graph(g: Graph) -> Graph:
    return relabel(g, {old: i for i, old in enumerate(reference_order(g))})


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


class TestOrbitPruning:
    """The pruned search must reach the code of the full search."""

    def test_twin_free_trees_to_12(self):
        trees = [t for n in range(1, 13) for t in enumerate_trees(n) if not find_open_twins(t)]
        assert len(trees) == 167
        for t in trees:
            assert canonical_graph(t) == reference_graph(t), emit_graph6(t)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_generated_class_to_7(self, n):
        classes = atlas_graphs(n)
        assert len(classes) == GRAPH_CLASSES[n]
        for g in classes:
            assert canonical_graph(g) == reference_graph(g), emit_graph6(g)

    def test_seeded_random_graphs_to_8(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            assert canonical_graph(g) == reference_graph(g), emit_graph6(g)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete_graphs_and_cycles(self, n):
        complete = Graph(n, combinations(range(n), 2))
        cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        for g in (complete, cycle):
            assert canonical_graph(g) == reference_graph(g)

    @pytest.mark.parametrize("lengths", [(3, 4), (3, 5), (4, 5), (3, 6), (3, 3, 4)])
    def test_unions_of_cycles_under_relabeling(self, rng, lengths):
        # regular, so refinement leaves one cell, whose vertices are not all
        # equivalent: the leaves below them carry different codes
        edges, base = [], 0
        for k in lengths:
            edges += [(base + i, base + (i + 1) % k) for i in range(k)]
            base += k
        g = Graph(base, edges)
        expected = reference_graph(g)
        for _ in range(8):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_graph(relabel(g, perm)) == expected

    def test_petersen(self):
        g = petersen()
        assert canonical_graph(g) == reference_graph(g)
        perm = [7, 2, 9, 0, 4, 8, 1, 6, 3, 5]
        assert canonical_graph(relabel(g, perm)) == canonical_graph(g)

    def test_order_relabels_into_the_canonical_graph(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            order = canonical_order(g)
            assert sorted(order) == list(range(g.n))
            assert relabel(g, {old: i for i, old in enumerate(order)}) == canonical_graph(g)

    def test_subdivided_star_takes_few_refinements(self, monkeypatch):
        # the unpruned search visits every ordering of the 9 legs
        calls = 0
        refine = canon._refine

        def counted(*args):
            nonlocal calls
            calls += 1
            return refine(*args)

        monkeypatch.setattr(canon, "_refine", counted)
        g, _ = gen_subdivided_star(9)
        canonical_graph(g)
        assert calls <= 150

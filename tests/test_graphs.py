import random

import networkx as nx
import pytest

from conftest import (
    atlas_graphs,
    brute_all_distances,
    brute_has_four_cycle,
    brute_open_twins,
    deque_bfs,
    induced,
    random_graph,
    random_tree,
)
from iocodes import (
    EmptyGraph,
    Graph,
    InvalidVertex,
    VertexSet,
    find_open_twins,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    has_four_cycle,
    is_connected,
    max_degree,
)
from iocodes.graphs import (
    _bfs_tree,
    _bits,
    _diametral_paths,
    _induced_cycle,
    _layers,
    _members,
    _reach,
    _shortest_cycle_through,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestConstruction:
    def test_symmetry_and_handshake(self, rng):
        for _ in range(50):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            for u in range(g.n):
                for v in g.neighbors(u):
                    assert u in g.neighbors(v)
            assert sum(g.degree_sequence()) == 2 * g.edge_count

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidVertex):
            Graph(3, [(0, 3)])
        with pytest.raises(InvalidVertex):
            Graph(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1


class TestNeighborhoods:
    def test_path_center(self):
        assert path(3).neighbors(1) == [0, 2]

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.neighbors(0) == [1, 2]

    def test_star_center_degree(self):
        g, spec = gen_subdivided_star(4)
        center = spec.distinguished["center"]
        assert g.neighbors(center) == spec.distinguished["supports"]
        assert g.degree(center) == 4

    def test_out_of_range(self):
        with pytest.raises(InvalidVertex):
            path(3).neighbors(5)


class TestDegrees:
    def test_star_max_degree(self):
        g, _ = gen_subdivided_star(4)
        assert max_degree(g) == 4

    def test_cycle_regular(self):
        assert max_degree(cycle(5)) == min(cycle(5).degree_sequence()) == 2

    def test_paw(self):
        assert max_degree(PAW) == 3
        assert min(PAW.degree_sequence()) == 1

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            max_degree(Graph(0))


class TestOpenTwins:
    def test_p3_leaves(self):
        assert find_open_twins(path(3)) == [(0, 2)]

    def test_c4_diagonals(self):
        assert find_open_twins(cycle(4)) == [(0, 2), (1, 3)]

    def test_subdivided_stars_twin_free(self):
        for delta in range(2, 7):
            g, _ = gen_subdivided_star(delta)
            assert find_open_twins(g) == []

    def test_agrees_with_bruteforce(self, rng):
        for _ in range(120):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            assert find_open_twins(g) == brute_open_twins(g)


class TestFourCycle:
    def test_c4(self):
        assert has_four_cycle(cycle(4))

    def test_trees_never(self, rng):
        for n in range(2, 12):
            assert not has_four_cycle(random_tree(n, rng))

    def test_gadget_cycle_free(self):
        g, _ = gen_subcubic_gp(3)
        assert not has_four_cycle(g)

    def test_earlier_partners_are_kept(self):
        # both neighbour pairs of the 4-cycle 0-1-7-8 recur only after other
        # pairs at the same vertices: keeping only the latest partners misses it
        g = Graph(10, [(0, 1), (0, 3), (0, 8), (1, 3), (1, 7), (5, 7), (5, 8), (7, 8)])
        assert has_four_cycle(g) and brute_has_four_cycle(g)

    def test_agrees_with_literal_search(self, rng):
        graphs = [random_graph(rng.randint(4, 11), rng.uniform(0.1, 0.6), rng) for _ in range(100)]
        for g in graphs + [g for n in range(8) for g in atlas_graphs(n)]:
            assert has_four_cycle(g) == brute_has_four_cycle(g)


class TestInduced:
    def test_matches_the_definition(self, rng):
        # conftest's induced is the relabeled copy that the mask-reading
        # routines are compared against here and in test_tree_scans
        for draw in range(150):
            g = random_graph(rng.randint(0, 14), rng.random(), rng)
            keep = (1 << g.n) - 1 if draw % 10 == 0 else rng.getrandbits(g.n)
            h, labels = induced(g.adj, keep)
            # strictly increasing, so the least new vertex is the least label
            assert list(labels) == [v for v in range(g.n) if keep >> v & 1]
            assert (h == g) == (keep == (1 << g.n) - 1)
            assert h.n == len(labels) and len(h.adj) == h.n
            for i in range(h.n):
                assert h.adj[i] >> h.n == 0 and not h.adj[i] >> i & 1
                for j in range(h.n):
                    assert (h.adj[i] >> j & 1) == (h.adj[j] >> i & 1)
                    assert bool(h.adj[i] >> j & 1) == g.has_edge(labels[i], labels[j])
            new = {old: i for i, old in enumerate(labels)}
            expected = [(new[u], new[v]) for u, v in g.edges() if keep >> u & keep >> v & 1]
            assert h.edge_count == len(expected)
            assert h == Graph(h.n, expected)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path(5))

    def test_two_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert _reach(g.adj, 0b1111, 0) == 0b0011 and _reach(g.adj, 0b1111, 3) == 0b1100

    def test_tree_edge_is_bridge(self, rng):
        t = random_tree(8, rng)
        u, v = t.edges()[3]
        h = Graph(t.n, [e for e in t.edges() if e != (u, v)])
        near = _reach(h.adj, 0xFF, u)
        assert not near >> v & 1 and _reach(h.adj, 0xFF, v) == 0xFF ^ near

    def test_reach_is_the_union_of_the_layers(self):
        # both share one walk, so each is checked against distances in networkx
        rng = random.Random(3701)
        for _ in range(400):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.uniform(0.0, 0.5), rng)
            mask = rng.getrandbits(n) | 1 << rng.randrange(n)
            start = rng.choice(list(_bits(mask)))
            oracle = nx.Graph(g.edges()).subgraph(_bits(mask)).copy()
            oracle.add_node(start)
            dist = nx.single_source_shortest_path_length(oracle, start)
            layers = [0] * (max(dist.values()) + 1)
            for v, d in dist.items():
                layers[d] |= 1 << v
            assert _layers(g.adj, mask, start) == layers
            assert _reach(g.adj, mask, start) == sum(layers)

    def test_agrees_with_networkx(self):
        # sparse draws, so most of the graphs fall apart into several components
        rng = random.Random(20241)
        for n in range(13):
            for _ in range(40):
                g = random_graph(n, rng.uniform(0.0, 0.35), rng)
                oracle = nx.Graph()
                oracle.add_nodes_from(range(n))
                oracle.add_edges_from(g.edges())
                expected = sorted(sorted(part) for part in nx.connected_components(oracle))
                assert is_connected(g) == (len(expected) <= 1)
                parts, rest = [], (1 << n) - 1
                while rest:  # peel the component of the lowest vertex left
                    part = _reach(g.adj, rest, (rest & -rest).bit_length() - 1)
                    parts.append(part)
                    rest ^= part
                assert [list(_bits(part)) for part in parts] == expected
                for part in parts:
                    sub, labels = induced(g.adj, part)
                    copy = nx.relabel_nodes(oracle.subgraph(labels), {old: i for i, old in enumerate(labels)})
                    assert sorted(sub.edges()) == sorted(tuple(sorted(e)) for e in copy.edges())
                    assert sub.n == len(labels)


def longest_path(t):
    return next(_diametral_paths(t.adj, (1 << t.n) - 1, {}))


class TestDiameterAndLongestPath:
    def test_star_diameter(self):
        g, _ = gen_subdivided_star(4)
        assert len(longest_path(g)) - 1 == nx.diameter(nx.Graph(g.edges())) == 4

    def test_path_diameter(self):
        for n in range(2, 8):
            assert len(longest_path(path(n))) - 1 == n - 1

    def test_tight_pair_diameter(self):
        # oracle: all-pairs shortest paths on the generated instance
        g, _ = gen_tight_tree_pair(3)
        dist = brute_all_distances(g)
        assert max(max(row) for row in dist) == 7
        assert len(longest_path(g)) - 1 == 7

    def test_longest_path_realizes_diameter(self, rng):
        from iocodes import enumerate_trees

        for n in range(2, 13):
            for t in enumerate_trees(n):
                p = longest_path(t)
                assert len(p) - 1 == nx.diameter(nx.Graph(t.edges()))
                for a, b in zip(p, p[1:]):
                    assert t.has_edge(a, b)
        for _ in range(200):
            t = random_tree(rng.randint(13, 16), rng)
            assert len(longest_path(t)) - 1 == nx.diameter(nx.Graph(t.edges()))

    def test_lowest_endpoint_tie_break(self):
        assert longest_path(path(5)) == [0, 1, 2, 3, 4]


class TestDeletion:
    def test_cycle_minus_edge_is_path(self):
        g = Graph(5, [e for e in cycle(5).edges() if e != (0, 4)])
        assert g.edge_count == 4
        assert longest_path(g) == [0, 1, 2, 3, 4]

    def test_paw_minus_leaf_is_triangle(self):
        # read in place: the triangle is the mask's cycle, and a walk of the
        # mask never reaches the leaf
        assert _induced_cycle(PAW.adj, 0b0111) == [0, 1, 2]
        assert _bfs_tree(PAW.adj, 0b0111, 0) == ([0, 1, 2], {1: 0, 2: 0})
        h, labels = induced(PAW.adj, 0b0111)
        assert h.n == 3 and h.edge_count == 3
        assert list(labels) == [0, 1, 2]

    def test_gadget_minus_cycle_edge_hits_bound(self):
        # deleting one ring edge yields a tree with minimum exactly 5/6 of n
        from iocodes import solve

        g, spec = gen_subcubic_gp(3)
        ring = spec.distinguished["cycle"]
        t = Graph(g.n, [e for e in g.edges() if e != (ring[0], ring[-1])])
        assert t.edge_count == t.n - 1
        assert 6 * solve(t).gamma == 5 * t.n

    def test_original_untouched(self):
        # a sub-instance is a mask of the input's adjacency, never a copy
        g = path(4)
        assert _bfs_tree(g.adj, 0b1110, 1) == ([1, 2, 3], {2: 1, 3: 2})
        assert _induced_cycle(g.adj, 0b1110) is None
        assert g.edge_count == 3 and g.n == 4 and g == path(4)


class TestInducedCycle:
    def test_tree_none(self, rng):
        t = random_tree(9, rng)
        assert _induced_cycle(t.adj, (1 << t.n) - 1) is None

    def test_c5_whole(self):
        assert _induced_cycle(cycle(5).adj, 0b11111) == [0, 1, 2, 3, 4]

    def test_gadget_ring(self):
        for p in (3, 5):
            g, spec = gen_subcubic_gp(p)
            found = _induced_cycle(g.adj, (1 << g.n) - 1)
            assert sorted(found) == sorted(spec.distinguished["cycle"])
            assert len(found) == p

    def test_within_a_mask_matches_the_relabeled_copy(self, rng):
        found = set()
        for _ in range(150):
            g = random_graph(rng.randint(3, 12), rng.uniform(0.15, 0.5), rng)
            keep = rng.getrandbits(g.n)
            h, labels = induced(g.adj, keep)
            cycle = _induced_cycle(h.adj, (1 << h.n) - 1)
            expected = None if cycle is None else [labels[v] for v in cycle]
            assert _induced_cycle(g.adj, keep) == expected
            found.add(expected is None)
        assert found == {False, True}

    def test_returned_cycle_is_chordless(self, rng):
        for _ in range(80):
            g = random_graph(rng.randint(4, 10), rng.uniform(0.2, 0.6), rng)
            c = _induced_cycle(g.adj, (1 << g.n) - 1)
            if c is None:
                continue
            k = len(c)
            assert k >= 3
            for i in range(k):
                for j in range(i + 1, k):
                    adjacent = g.has_edge(c[i], c[j])
                    consecutive = j - i == 1 or (i == 0 and j == k - 1)
                    assert adjacent == consecutive

    def test_core_search_matches_the_whole_mask_search(self):
        # the reference: every vertex of the mask in label order, each
        # walking the whole mask, pendant trees and all
        def whole_mask_cycle(adj, mask):
            for v in _members(mask):
                cycle = _shortest_cycle_through(adj, mask, v)
                if cycle is not None:
                    return cycle
            return None

        rng = random.Random(2025)
        found = set()
        for draw in range(3000):
            # pendant trees on the lowest labels: vertex i hangs at a higher one
            k = rng.randint(0, 8)
            body = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.5), rng)
            edges = [(k + u, k + v) for u, v in body.edges()]
            edges += [(i, rng.randrange(i + 1, k + body.n)) for i in range(k)]
            g = Graph(k + body.n, edges)
            keep = (1 << g.n) - 1 if draw % 3 else rng.getrandbits(g.n)
            expected = whole_mask_cycle(g.adj, keep)
            assert _induced_cycle(g.adj, keep) == expected
            found.add((expected is None, k > 0))
        assert found == {(False, False), (False, True), (True, False), (True, True)}


    def test_petersen_cycle_is_not_the_lexicographic_least(self):
        g = Graph(10, [e for i in range(5) for e in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))])
        assert _shortest_cycle_through(g.adj, (1 << g.n) - 1, 8) == [8, 5, 0, 1, 6]
        assert min(cycles_through(g, 8, 5)) == [8, 3, 2, 1, 6]

    def test_shortest_cycle_through_against_brute_force(self, rng):
        checked = 0
        while checked < 60:
            g = random_graph(rng.randint(5, 11), rng.uniform(0.2, 0.5), rng)
            if has_four_cycle(g):
                continue
            checked += 1
            for v in range(g.n):
                found = _shortest_cycle_through(g.adj, (1 << g.n) - 1, v)
                every = [c for k in range(3, g.n + 1) for c in cycles_through(g, v, k)]
                if not every:
                    assert found is None
                    continue
                assert found in every and len(found) == min(map(len, every))
                k = len(found)
                for i in range(k):
                    for j in range(i + 1, k):
                        consecutive = j - i == 1 or (i == 0 and j == k - 1)
                        assert g.has_edge(found[i], found[j]) == consecutive


def cycles_through(g, v, k):
    """Every cycle on ``k`` vertices through ``v``, as sequences from ``v``
    in both directions, by extending simple paths."""
    out = []
    paths = [[v]]
    while paths:
        walk = paths.pop()
        if len(walk) == k:
            if k >= 3 and g.has_edge(walk[-1], v):
                out.append(walk)
            continue
        paths += [walk + [w] for w in g.neighbors(walk[-1]) if w not in walk]
    return out


class TestBfsTree:
    def test_matches_a_queue_bfs(self, rng):
        for _ in range(120):
            g = random_graph(rng.randint(1, 14), rng.uniform(0.05, 0.5), rng)
            full = (1 << g.n) - 1
            for start in range(g.n):
                order, _, parent = deque_bfs(g, start)
                assert _bfs_tree(g.adj, full, start) == (order, {v: parent[v] for v in order[1:]})
            # within a vertex mask: the walk of its relabeled copy, in labels
            keep = rng.getrandbits(g.n) | 1
            h, labels = induced(g.adj, keep)
            for start in range(h.n):
                order, _, parent = deque_bfs(h, start)
                expected = [labels[v] for v in order], {labels[v]: labels[parent[v]] for v in order[1:]}
                assert _bfs_tree(g.adj, keep, labels[start]) == expected


class TestMembers:
    def test_matches_the_bit_loop(self, rng):
        masks = [0, 1, 2, 1 << 64, (1 << 300) - 1]
        masks += [rng.getrandbits(rng.choice((8, 64, 65, 241, 3000))) for _ in range(200)]
        for mask in masks:
            assert _members(mask) == list(_bits(mask))


class TestVertexSet:
    def test_operations_exact(self):
        a = VertexSet(6, [0, 2, 4])
        assert VertexSet(6, [4, 0, 2]) == a == VertexSet(6, mask=0b10101)
        assert a != VertexSet(7, [0, 2, 4])
        assert len(a) == 3 and 2 in a and 1 not in a

    def test_universe_checked(self):
        with pytest.raises(InvalidVertex):
            VertexSet(3, [5])
        with pytest.raises(InvalidVertex):
            VertexSet(3, mask=0b1000)

    def test_negative_member_is_an_invalid_vertex(self):
        with pytest.raises(InvalidVertex):
            VertexSet(5, [-1])

    def test_iteration_lists_the_members_in_order(self, rng):
        # a 10,000-bit mask, as a code on a large input: iteration walks the
        # digits once rather than shifting the whole mask per member
        for mask in (0, (1 << 10_000) - 1, rng.getrandbits(10_000), 1 << 9_999):
            assert list(VertexSet(10_000, mask=mask)) == _members(mask)

"""The isomorphism-class generator against the labeled Gray-code sweep.

``enumerate_small_graphs`` visits every labeled graph and stays the
independent oracle: canonically labeling each swept connected twin-free
4-cycle-free graph must give the generator's classes of that order, in
the generator's order, with its labeled counts.  At n = 7 the sweep is
matched by orbit membership instead of per-graph canonical labeling.
``_gray_orbit``'s least-prefix search is checked against relabeling in
all ``n!`` ways and against networkx's automorphism count.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import factorial

import networkx as nx
import pytest
from conftest import atlas_graphs, brute_has_four_cycle, random_tree
from networkx.algorithms.isomorphism import GraphMatcher

from iocodes import BadParam, Graph, canonical_graph, enumerate_graph_classes, enumerate_small_graphs
from iocodes import families
from iocodes.families import GRAPH_CAP, _gray_orbit
from iocodes.graphs import is_connected

AUDIT_FILTERS = dict(connected=True, twin_free=True, c4_free=True)


def swept_classes(n: int, canon: dict, **filters) -> list[tuple[tuple[int, ...], int]]:
    """(canonical adjacency, labeled count) per class, in order of first sweep hit."""
    counts: dict[tuple[int, ...], int] = {}
    for g in enumerate_small_graphs(n, **filters):
        if g.adj not in canon:
            canon[g.adj] = canonical_graph(g).adj
        key = canon[g.adj]
        counts[key] = counts.get(key, 0) + 1
    return list(counts.items())


def relabeled_orbit(g: Graph) -> tuple[int, int]:
    """(first Gray-code sweep step, labeled count) by relabeling ``g`` in
    all ``n!`` ways and inverting the Gray code of each distinct mask."""
    n = g.n
    bit = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        bit[u][v] = bit[v][u] = 1 << k
    edges = g.edges()
    masks = {sum(bit[p[u]][p[v]] for u, v in edges) for p in permutations(range(n))}
    steps = []
    for code in masks:
        step = 0
        while code:
            step ^= code
            code >>= 1
        steps.append(step)
    return min(steps), len(masks)


def random_audit_graph(n: int, rng: random.Random) -> Graph:
    """A connected twin-free 4-cycle-free graph: a random tree plus
    random chords that close no 4-cycle, redrawn until twin-free."""
    while True:
        g = random_tree(n, rng)
        for u, v in rng.sample(list(combinations(range(n), 2)), rng.randrange(4)):
            grown = Graph(n, g.edges() + [(u, v)])
            if not g.has_edge(u, v) and not brute_has_four_cycle(grown):
                g = grown
        if len(set(g.adj)) == n:
            return g


def generated_classes(n: int, max_deg: int | None = None) -> list[tuple[tuple[int, ...], int]]:
    """The generator's classes of order ``n``, grown up to ``n``."""
    classes = list(enumerate_graph_classes(n, max_deg))
    orders = [g.n for g, _ in classes]
    assert orders == sorted(orders) and set(orders) <= set(range(1, n + 1))
    return [(g.adj, labeled) for g, labeled in classes if g.n == n]


@pytest.mark.parametrize("n", range(1, 6))
def test_every_filter_combination_to_5(n):
    canon: dict = {}
    for max_deg in (None, 2, 3):
        swept = swept_classes(n, canon, **AUDIT_FILTERS, max_deg=max_deg)
        assert generated_classes(n, max_deg) == swept, max_deg


def test_audit_filters_at_6():
    swept = swept_classes(6, {}, **AUDIT_FILTERS)
    assert generated_classes(6) == swept
    assert sum(labeled for _, labeled in swept) == 3600


def test_orbits_partition_the_sweep_at_7():
    n = 7
    bit = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        bit[u][v] = bit[v][u] = 1 << k
    classes = [(g, labeled) for g, labeled in enumerate_graph_classes(n) if g.n == n]
    owner: dict[int, int] = {}
    for i, (g, labeled) in enumerate(classes):
        edges = g.edges()
        orbit = {sum(bit[p[u]][p[v]] for u, v in edges) for p in permutations(range(n))}
        assert len(orbit) == labeled
        for mask in orbit:
            assert mask not in owner, "orbits of two classes overlap"
            owner[mask] = i
    hits = [0] * len(classes)
    first_hits = []
    pairs = [(u, v, bit[u][v]) for u, v in combinations(range(n), 2)]
    for g in enumerate_small_graphs(n, **AUDIT_FILTERS):
        adj = g.adj
        mask = sum(b for u, v, b in pairs if adj[u] >> v & 1)
        assert mask in owner, f"swept graph {adj} lies in no generated class"
        i = owner[mask]
        if not hits[i]:
            first_hits.append(i)
        hits[i] += 1
    assert hits == [labeled for _, labeled in classes]
    assert first_hits == list(range(len(classes)))
    assert sum(hits) == 83415


def test_level_n_is_filtered_before_canonical_labeling(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return canonical_graph(g)

    monkeypatch.setattr(families, "canonical_graph", counted)
    assert sum(g.n == 7 for g, _ in enumerate_graph_classes(7)) == 36
    # labeling every connected 4-cycle-free extension on level 7, twins
    # or not, would take 366 calls; growing disconnected classes too, 792
    assert len(calls) <= 287


@pytest.mark.parametrize("max_deg", [None, 3])
def test_levels_are_the_connected_4_cycle_free_classes(monkeypatch, max_deg):
    """Every level grown on the way to 7 holds exactly the connected
    4-cycle-free classes of its order (within the cap), the last one only
    its twin-free classes; the atlas of all graphs is the oracle."""
    levels: dict[int, set] = {}

    def recorded(g):
        canon = canonical_graph(g)
        levels.setdefault(g.n, set()).add(canon.adj)
        return canon

    monkeypatch.setattr(families, "canonical_graph", recorded)
    list(enumerate_graph_classes(7, max_deg))
    for n in range(2, 8):
        expected = {
            canonical_graph(g).adj
            for g in atlas_graphs(n)
            if is_connected(g)
            and not brute_has_four_cycle(g)
            and (max_deg is None or max(map(g.degree, range(n))) <= max_deg)
            and (n < 7 or len(set(g.adj)) == n)
        }
        assert levels[n] == expected, n


@pytest.mark.parametrize("max_deg", [None, 3])
def test_classes_come_in_canonical_labels(max_deg):
    # the graph audit certifies the classes as they come, without relabeling
    classes = [g for g, _ in enumerate_graph_classes(7, max_deg)]
    assert len(classes) == (58 if max_deg is None else 40)
    for g in classes:
        assert canonical_graph(g) == g, g.adj


def test_search_matches_relabeling_to_7():
    for g, labeled in enumerate_graph_classes(7):
        expected = relabeled_orbit(g)
        assert _gray_orbit(g) == expected and labeled == expected[1], g.adj


def test_search_matches_relabeling_on_random_graphs_at_8():
    rng = random.Random(17)
    for _ in range(30):
        g = random_audit_graph(8, rng)
        assert _gray_orbit(g) == relabeled_orbit(g), g.adj


def test_labeled_count_is_n_factorial_over_automorphisms():
    for g, labeled in enumerate_graph_classes(7):
        nx_graph = nx.Graph(g.edges())
        nx_graph.add_nodes_from(range(g.n))
        automorphisms = sum(1 for _ in GraphMatcher(nx_graph, nx_graph).isomorphisms_iter())
        assert factorial(g.n) // labeled == automorphisms and factorial(g.n) % labeled == 0


@pytest.mark.parametrize(
    "g, expected",
    [
        (Graph(1), (0, 1)),
        (Graph(2), (0, 1)),
        (Graph(2, [(0, 1)]), (1, 1)),
        (Graph(3, [(0, 1)]), (1, 3)),
        (Graph(3, [(0, 1), (1, 2), (0, 2)]), (0b101, 1)),
    ],
)
def test_search_edge_cases(g, expected):
    assert _gray_orbit(g) == relabeled_orbit(g) == expected


def test_cap():
    for n_max in (0, GRAPH_CAP + 1):
        with pytest.raises(BadParam):
            next(enumerate_graph_classes(n_max))

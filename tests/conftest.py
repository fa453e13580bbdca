"""Shared helpers: seeded random graphs and independent little oracles."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import settings

from iocodes import Graph


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def prufer_tree(sequence: list[int]) -> Graph:
    """Tree from its vertex-labeled code; independent of the enumerator."""
    n = len(sequence) + 2
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    seq = list(sequence)
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.append((u, w))
    return Graph(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    return prufer_tree([rng.randrange(n) for _ in range(n - 2)])


@cache
def atlas_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph on ``n <= 7`` vertices, one per isomorphism class, read
    from networkx's graph atlas rather than the package's generator."""
    import networkx as nx

    return tuple(Graph(n, g.edges()) for g in nx.graph_atlas_g() if g.number_of_nodes() == n)


def brute_open_twins(g: Graph) -> list[tuple[int, int]]:
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if set(g.neighbors(u)) == set(g.neighbors(v)):
                out.append((u, v))
    return out


def brute_has_four_cycle(g: Graph) -> bool:
    """Literal search for a closed walk a-b-c-d-a on distinct vertices."""
    for quad in combinations(range(g.n), 4):
        for order in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            a, b, c, d = (quad[i] for i in order)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a):
                return True
    return False


def brute_all_distances(g: Graph) -> list[list[int]]:
    inf = 10 ** 9
    dist = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        dk = dist[k]
        for i in range(g.n):
            dik = dist[i][k]
            if dik < inf:
                di = dist[i]
                for j in range(g.n):
                    if dik + dk[j] < di[j]:
                        di[j] = dik + dk[j]
    return dist


@pytest.fixture
def rng():
    return random.Random(0xC0DE5)


# Property tests are part of tier-1: a fixed example sequence, no timing
# deadline on a shared host, and no example database left on disk.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("tier1")

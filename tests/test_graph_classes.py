"""The isomorphism-class generator against the labeled Gray-code sweep.

``enumerate_small_graphs`` visits every labeled graph and stays the
independent oracle: canonically labeling each swept graph
must give the generator's classes, in the generator's order, with its
labeled counts.  At n = 7 the sweep is matched by orbit membership
instead of per-graph canonical labeling.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import pytest

from iocodes import BadParam, canonical_graph, enumerate_graph_classes, enumerate_small_graphs
from iocodes import families
from iocodes.families import GRAPH_CAP

FILTERS = [
    dict(connected=c, twin_free=t, c4_free=f, max_deg=m)
    for c, t, f, m in product((False, True), (False, True), (False, True), (None, 2, 3))
]
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


def generated_classes(n: int, **filters) -> list[tuple[tuple[int, ...], int]]:
    return [(g.adj, labeled) for g, labeled in enumerate_graph_classes(n, **filters)]


@pytest.mark.parametrize("n", range(1, 6))
def test_every_filter_combination_to_5(n):
    canon: dict = {}
    for filters in FILTERS:
        swept = swept_classes(n, canon, **filters)
        assert generated_classes(n, **filters) == swept, filters


def test_audit_filters_at_6():
    swept = swept_classes(6, {}, **AUDIT_FILTERS)
    assert generated_classes(6, **AUDIT_FILTERS) == swept
    assert sum(labeled for _, labeled in swept) == 3600


def test_orbits_partition_the_sweep_at_7():
    n = 7
    bit = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        bit[u][v] = bit[v][u] = 1 << k
    classes = list(enumerate_graph_classes(n, **AUDIT_FILTERS))
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
    assert len(list(enumerate_graph_classes(7, **AUDIT_FILTERS))) == 36
    # labeling every 4-cycle-free extension on level 7, filtered out or
    # not, would take 1,547 calls
    assert len(calls) <= 792


def test_cap():
    with pytest.raises(BadParam):
        next(enumerate_graph_classes(GRAPH_CAP + 1))

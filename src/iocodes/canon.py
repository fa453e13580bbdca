"""Canonical labeling of small graphs.

Color-refinement plus backtracking over non-singleton cells; the
canonical form is the lexicographically smallest upper-triangle
adjacency encoding over all orderings the refinement tree reaches.
Exact for every graph, practical for the audit scales used here
(trees to ~16 vertices, arbitrary graphs to ~10).
"""

from __future__ import annotations

# graphs._bits is reached through its module: the per-layer tracer wraps
# functions imported by name, and a bit iterator is not a layer call
from . import graphs
from .formats import emit_graph6
from .graphs import Graph

__all__ = ["canonical_order", "canonical_graph", "canonical_graph6", "isomorphic"]


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Iterate neighbor-color-multiset refinement to a fixed point."""
    while True:
        sigs = []
        for v in range(g.n):
            nb = sorted(colors[u] for u in graphs._bits(g.adj[v]))
            sigs.append((colors[v], tuple(nb)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _code_for(g: Graph, order: list[int]) -> int:
    """Upper-triangle adjacency bits of the relabeled graph as one integer."""
    code = 0
    for j in range(1, g.n):
        aj = g.adj[order[j]]
        for i in range(j):
            code = (code << 1) | (aj >> order[i] & 1)
    return code


def canonical_order(g: Graph) -> list[int]:
    """A canonical vertex ordering (position -> original vertex)."""
    if g.n <= 1:
        return list(range(g.n))
    best: tuple[int, tuple[int, ...]] | None = None

    def descend(colors: list[int]) -> None:
        nonlocal best
        colors = _refine(g, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(range(g.n), key=lambda v: colors[v])
            key = (_code_for(g, order), tuple(order))
            if best is None or key < best:
                best = key
            return
        for v in target:
            # individualize v ahead of its cell, then re-rank to ints
            sigs = [(colors[u], 0 if u == v else 1) for u in range(g.n)]
            rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
            descend([rank[s] for s in sigs])

    descend([0] * g.n)
    return list(best[1])


def canonical_graph(g: Graph) -> Graph:
    """The graph relabeled into its canonical ordering."""
    order = canonical_order(g)
    pos = {old: i for i, old in enumerate(order)}
    return Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges()])


def canonical_graph6(g: Graph) -> str:
    return emit_graph6(canonical_graph(g))


def isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    return canonical_graph(a).adj == canonical_graph(b).adj

"""Canonical labeling of small graphs.

Color-refinement plus backtracking over non-singleton cells; the
canonical form is the lexicographically smallest upper-triangle
adjacency encoding over all orderings the refinement tree reaches.

The search prunes by automorphisms (McKay and Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014).  A leaf that repeats
the best code yields the automorphism between the two orderings.  At a
node, a cell vertex is skipped when the automorphisms found so far that
fix the node's individualized vertices map it onto a sibling already
tried: refinement and individualization commute with relabeling, so
its subtree is an image of the sibling's and holds the same codes.
The minimum is therefore the one the full tree reaches.

A tree takes no search at all.  Color refinement identifies
vertex-colored trees (Immerman and Lander, "Describing graphs: a
first-order approach to graph canonization", 1990), so on a tree every
cell it leaves is one orbit of the automorphisms that fix the
individualized vertices.  Every child of a node is then an image of the
first, every leaf carries the same code, and the first leaf is the one
the search returns: ``_dive`` follows it alone and computes no code.

Exact for every graph.  Practical for the audit scales: all twin-free
trees to 18 vertices, and arbitrary graphs to ~10.  Without pruning,
large automorphism groups made the search factorial; the subdivided
star on 9 legs now takes 129 refinement calls in the search, and 9 in
the dive.
"""

from __future__ import annotations

# graphs._bits is reached through its module: the per-layer tracer wraps
# functions imported by name, and a bit iterator is not a layer call
from . import graphs
from .graphs import Graph, is_tree

__all__ = ["canonical_order", "canonical_graph"]


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Iterate neighbor-color-multiset refinement to a fixed point.

    ``colors`` are dense ranks; so are the returned ones.  A vertex alone
    in its cell keeps the signature ``(c,)``: no other signature starts
    with ``c``, so its neighbors' colors cannot move any rank.  From a
    uniform coloring the first round ranks the vertices by degree, and
    it is read straight off the degrees.
    """
    n = len(colors)
    count = len(set(colors))
    if count == 1 and n > 1:
        degrees = list(map(len, nbrs))
        ranked = sorted(set(degrees))
        if len(ranked) == 1:
            return colors
        rank = {d: i for i, d in enumerate(ranked)}
        colors = [rank[d] for d in degrees]
        count = len(ranked)
    while count < n:
        size = [0] * n
        for c in colors:
            size[c] += 1
        sigs = [
            (c, tuple(sorted(map(colors.__getitem__, nb)))) if size[c] > 1 else (c,)
            for c, nb in zip(colors, nbrs)
        ]
        ranked = sorted(set(sigs))
        if len(ranked) == count:
            break
        rank = {s: i for i, s in enumerate(ranked)}
        colors = [rank[s] for s in sigs]
        count = len(ranked)
    return colors


def _code_for(g: Graph, order: list[int]) -> int:
    """Upper-triangle adjacency bits of the relabeled graph as one integer."""
    code = 0
    for j in range(1, g.n):
        aj = g.adj[order[j]]
        for i in range(j):
            code = (code << 1) | (aj >> order[i] & 1)
    return code


def canonical_order(g: Graph) -> list[int]:
    """A canonical vertex ordering (position -> original vertex): the
    first leaf of the refinement tree whose code is the minimum."""
    return _dive(g) if is_tree(g) else _search(g)


def _individualize(colors: list[int], c: int, v: int) -> list[int]:
    """``colors`` with ``v`` split off ahead of its cell ``c``; the
    colors stay dense ranks."""
    child = [x if x < c else x + 1 for x in colors]
    child[v] = c
    return child


def _leaf_order(colors: list[int]) -> list[int]:
    """The ordering of a leaf's discrete colors: the vertex of color
    ``c`` goes to position ``c``."""
    order = [0] * len(colors)
    for v, c in enumerate(colors):
        order[c] = v
    return order


def _dive(g: Graph) -> list[int]:
    """The first leaf of the refinement tree: refine, individualize the
    first vertex of the least non-singleton cell, and repeat.  On a tree
    every leaf has the minimum code (module docstring)."""
    n = g.n
    nbrs = [list(graphs._bits(a)) for a in g.adj]
    colors = [0] * n
    while True:
        colors = _refine(nbrs, colors)
        size = [0] * n
        for x in colors:
            size[x] += 1
        c = next((c for c in range(n) if size[c] > 1), None)
        if c is None:
            return _leaf_order(colors)
        colors = _individualize(colors, c, colors.index(c))


def _search(g: Graph) -> list[int]:
    """The first minimum-code leaf of the refinement tree, by the
    orbit-pruned search (module docstring); exact on every graph."""
    n = g.n
    best_code = -1
    best_order: list[int] = []
    nbrs = [list(graphs._bits(a)) for a in g.adj]
    autos: list[list[int]] = []  # automorphisms met so far, as image lists

    def descend(colors: list[int], fixed: list[int]) -> None:
        nonlocal best_code, best_order
        colors = _refine(nbrs, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            order = _leaf_order(colors)
            code = _code_for(g, order)
            if best_code < 0 or code < best_code:
                best_code, best_order = code, order
            elif code == best_code:
                image = [0] * n
                for a, b in zip(best_order, order):
                    image[a] = b
                autos.append(image)
            return
        c = min(c for c, cell in cells.items() if len(cell) > 1)
        tried: list[int] = []
        for v in cells[c]:
            if tried and _orbit_meets(v, tried, [a for a in autos if all(a[u] == u for u in fixed)]):
                continue
            tried.append(v)
            descend(_individualize(colors, c, v), fixed + [v])

    descend([0] * n, [])
    return best_order


def _orbit_meets(v: int, targets: list[int], generators: list[list[int]]) -> bool:
    """Whether the group the generators span maps ``v`` into ``targets``."""
    orbit = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for a in generators:
            w = a[u]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return not orbit.isdisjoint(targets)


def canonical_graph(g: Graph) -> Graph:
    """The graph relabeled into its canonical ordering."""
    order = canonical_order(g)
    pos = {old: i for i, old in enumerate(order)}
    return Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges()])

"""Canonical labeling of small graphs.

Color-refinement plus backtracking over non-singleton cells; the
canonical form is the lexicographically smallest upper-triangle
adjacency encoding over all orderings the refinement tree reaches.

Refinement works on an ordered partition.  A vertex's color is the
position of its cell, the number of vertices in lower cells, so a split
recolors only the parts after its first.  Each round ranks the members
of a cell by their sorted tuples of neighbor colors, the order one
global sort of (color, tuple) gives, and only a cell next to a vertex
the round before recolored can split: the splitter rule of McKay and
Piperno (cited below).  So only those cells are sorted again.  After a
vertex ``v`` is individualized in an equitable coloring, only the cells
of ``v``'s neighbors can split, and the refinement restarts from those.

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
# functions imported by name, and a list of set bits is not a layer call
from . import graphs
from .graphs import Graph, is_tree

__all__ = ["canonical_order", "canonical_graph"]


def _refine(nbrs: list[list[int]], colors: list[int], touched: list[int] | None = None) -> list[int]:
    """Iterate neighbor-color-multiset refinement to a fixed point.

    ``colors`` and the result are cell positions (module docstring).  The
    first round tries the cells of the vertices ``touched``, or every
    cell when it is None; the members of every other cell must have equal
    multisets of neighbor colors already.  A split keeps its first part
    at the cell's position and recolors only the parts after it, so a
    cell with no member next to a recolored vertex sees the colors it saw
    before, and its members still have equal multisets: each later round
    tries only the cells next to a vertex recolored in the round before.
    Every cell must hold vertices of one degree, as every coloring below
    the degree round does, so a cell of leaves is ranked by the one
    neighbor's color and a cell of degree 2 by the integer ``min * n +
    max`` of its two, which sorts as their sorted tuple does.  From a
    uniform coloring the first round ranks the vertices by degree, and it
    is read straight off the degrees.
    """
    n = len(colors)
    cells: list[list[int]] = [[] for _ in range(n)]  # position -> the cell there, or []
    for v, c in enumerate(colors):
        cells[c].append(v)
    colors = list(colors)
    if n > 1 and len(cells[0]) == n:
        by_degree: dict[int, list[int]] = {}
        for v, nb in enumerate(nbrs):
            by_degree.setdefault(len(nb), []).append(v)
        if len(by_degree) == 1:
            return colors
        p = 0
        for d in sorted(by_degree):
            cells[p] = by_degree[d]
            for v in cells[p]:
                colors[v] = p
            p += len(cells[p])
        touched = None
    todo = set(colors) if touched is None else {colors[u] for u in touched}
    color_of = colors.__getitem__
    while todo:
        added: list[tuple[int, list[int]]] = []  # (position, part) of each part after a first
        for p in todo:
            cell = cells[p]
            if len(cell) < 2:
                continue
            parts: dict = {}
            degree = len(nbrs[cell[0]])
            if degree == 1:  # leaves: the one neighbor's color is the tuple
                for v in cell:
                    parts.setdefault(colors[nbrs[v][0]], []).append(v)
            elif degree == 2:
                for v in cell:
                    a, b = nbrs[v]
                    a, b = colors[a], colors[b]
                    parts.setdefault(a * n + b if a < b else b * n + a, []).append(v)
            else:
                for v in cell:
                    parts.setdefault(tuple(sorted(map(color_of, nbrs[v]))), []).append(v)
            if len(parts) > 1:
                q = p
                for key in sorted(parts):
                    cells[q] = parts[key]
                    if q != p:
                        added.append((q, cells[q]))
                    q += len(cells[q])
        # every signature of the round reads the old colors
        for q, part in added:
            for v in part:
                colors[v] = q
        todo = {colors[u] for _, part in added for v in part for u in nbrs[v]}
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
    """``colors`` with ``v`` split off ahead of its cell, the cell at
    position ``c``: the rest of the cell moves up one position, and no
    other vertex moves."""
    child = [x + (x == c) for x in colors]
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
    nbrs = [graphs._bits(a) for a in g.adj]
    colors = _refine(nbrs, [0] * n)
    while True:
        # the least position that starts no cell is the second of the
        # least non-singleton cell
        inside = set(range(n)).difference(colors)
        if not inside:
            return _leaf_order(colors)
        c = min(inside) - 1
        v = colors.index(c)
        colors = _refine(nbrs, _individualize(colors, c, v), nbrs[v])


def _search(g: Graph) -> list[int]:
    """The first minimum-code leaf of the refinement tree, by the
    orbit-pruned search (module docstring); exact on every graph."""
    n = g.n
    best_code = -1
    best_order: list[int] = []
    nbrs = [graphs._bits(a) for a in g.adj]
    autos: list[list[int]] = []  # automorphisms met so far, as image lists

    def descend(colors: list[int], fixed: list[int]) -> None:
        nonlocal best_code, best_order
        colors = _refine(nbrs, colors, nbrs[fixed[-1]] if fixed else None)
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
    bit = [0] * g.n  # vertex -> the bit of its new label
    for i, old in enumerate(order):
        bit[old] = 1 << i
    # the masks of a valid graph, remapped: no edge list to check again
    adj = []
    for old in order:
        mask = 0
        rest = g.adj[old]  # bits walked inline: the audit relabels every instance
        while rest:
            low = rest & -rest
            mask |= bit[low.bit_length() - 1]
            rest ^= low
        adj.append(mask)
    return Graph._from_adj(tuple(adj))

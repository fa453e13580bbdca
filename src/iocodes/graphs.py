"""Immutable simple undirected graphs over dense vertex indices.

Vertices are the integers ``0..n-1``.  Every neighborhood is kept as a
Python integer used as a bitset, which makes the intersection/symmetric
difference operations at the heart of code verification and the exact
solver word-parallel.  All operations are pure; an induced subgraph is
a fresh value.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import EmptyGraph, InvalidVertex

__all__ = [
    "Graph",
    "VertexSet",
    "max_degree",
    "find_open_twins",
    "has_four_cycle",
    "is_connected",
]


def _bits(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order, as a list.

    A loop that appends is cheaper than a generator on the short masks
    of the hot paths; a long mask is better read by ``_members``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order, as a list.

    One pass over the binary digits, least significant first, picks the
    positions of the ones; unlike ``_bits``, no step shifts or masks the
    whole integer, so scanning a long mask costs linear, not quadratic,
    time.
    """
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
    return list(compress(range(len(digits)), digits))


def _mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if v < 0:
            raise InvalidVertex(f"negative vertex index {v}")
        mask |= 1 << v
    return mask


class Graph:
    """A simple undirected graph, immutable after construction."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertex(f"negative vertex count {n}")
        adj = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise InvalidVertex(f"self-loop at {u}")
            if adj[u] >> v & 1:
                continue  # ignore duplicate edge
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
        self.n = n
        self.adj = tuple(adj)
        self.edge_count = m

    @classmethod
    def _from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.edge_count = sum(m.bit_count() for m in adj) // 2
        return g

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertex(f"vertex {v} outside 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        return _bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(rest):
                out.append((u, v))
        return out

    def degree_sequence(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class VertexSet:
    """A set of vertex indices tied to the ``n`` it was built against."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: int, members: Iterable[int] = (), mask: int | None = None):
        self.universe = universe
        if mask is None:
            mask = _mask_of(members)
        if mask < 0 or mask >> universe:
            raise InvalidVertex(f"members outside universe 0..{universe - 1}")
        self.mask = mask

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(_members(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.universe}, {sorted(self)})"


# ---------------------------------------------------------------------------
# Structural queries


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise EmptyGraph("max_degree of empty graph")
    return max(m.bit_count() for m in g.adj)


def find_open_twins(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs with identical open neighborhoods, sorted."""
    seen: dict[int, list[int]] = {}
    for v in range(g.n):
        seen.setdefault(g.adj[v], []).append(v)
    pairs = []
    for group in seen.values():
        if len(group) > 1:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    pairs.append((group[i], group[j]))
    return sorted(pairs)


def _twin_free(adj: Sequence[int]) -> bool:
    """Whether no two vertices of the adjacency list share an open neighbourhood."""
    return len(set(adj)) == len(adj)


def has_four_cycle(g: Graph) -> bool:
    """True iff some 4-cycle exists, i.e. two vertices share >= 2 neighbors.

    Each vertex records every pair of its neighbours, one partner mask
    per neighbour, and the first pair met a second time closes a 4-cycle.
    That is one mask test per incidence, O(sum of deg^2) pairs in all;
    until a repeat every pair is new, so dense graphs stop within O(n^2).
    """
    partners = [0] * g.n
    for nbrs in g.adj:
        if nbrs & (nbrs - 1) == 0:  # no pair of neighbours
            continue
        rest = nbrs  # bits walked inline: the labeled sweep calls this millions of times
        while rest:
            low = rest & -rest
            others = nbrs ^ low
            a = low.bit_length() - 1
            if partners[a] & others:
                return True
            partners[a] |= others
            rest ^= low
    return False


def _bfs_tree(adj: Sequence[int], mask: int, start: int) -> tuple[list[int], dict[int, int]]:
    """The vertices of the mask ``mask`` of the adjacency list ``adj``
    reachable from ``start`` inside it, in BFS discovery order, and the
    parent of each but ``start``: its first-discovered neighbour.
    Neighbours are discovered in increasing index, so the children of each
    vertex come out in increasing index.  The parents are a dict, so a
    walk costs the vertices it reaches, not the input."""
    order = [start]
    parent = {}
    unseen = mask & ~(1 << start)
    for u in order:
        below = adj[u] & unseen
        unseen ^= below
        while below:  # bits walked inline: every solve and family match walks a tree
            low = below & -below
            w = low.bit_length() - 1
            parent[w] = u
            order.append(w)
            below ^= low
    return order, parent


def _layers(adj: Sequence[int], mask: int, start: int) -> list[int]:
    """The BFS layers from ``start`` within the vertex mask ``mask`` of the
    adjacency list ``adj``, as vertex masks, nearest first."""
    layers = []
    frontier = 1 << start
    unseen = mask ^ frontier
    while frontier:
        layers.append(frontier)
        nxt = 0
        rest = frontier  # bits walked inline, highest first: a path has one layer per vertex
        while rest:
            v = rest.bit_length() - 1
            nxt |= adj[v]
            rest ^= 1 << v
        frontier = nxt & unseen
        unseen ^= frontier
    return layers


def _restrict_layers(layers: tuple[list[int], int, int], keep: int) -> tuple[list[int], int, int]:
    """BFS layers from a start in ``keep``, carried to the sub-tree ``keep``.

    A layer record ``(masks, lo, hi)`` gives the layer at distance ``i``
    as ``masks[lo + i]`` for ``i <= hi - lo``, within the record's part;
    the masks may also hold vertices outside it, so the last layer is
    ``masks[hi] & mask``.  Exact when ``keep`` is what is left of a tree
    once pendant subtrees are cut off: the distances among the remaining
    vertices do not change, so only the trailing layers left empty are
    dropped.  The mask list is shared, not copied, and every layer dropped
    held a cut-off vertex, so carrying costs at most one step per vertex
    cut off.
    """
    masks, lo, hi = layers
    while not masks[hi] & keep:
        hi -= 1
    return masks, lo, hi


def _carry_layers(
    known: dict[int, tuple[list[int], int, int]], keep: int, end: int, cut_layers: list[int]
) -> dict[int, tuple[list[int], int, int]]:
    """The layer records of ``known`` carried to the sub-tree ``keep``: what
    is left when the pendant subtree hanging at ``end`` is cut off, whose
    BFS layers from ``end``'s neighbour there are ``cut_layers``.

    Starts in ``keep`` keep their layers (``_restrict_layers``).  Every
    path from the cut-off subtree into ``keep`` enters at ``end``, so a
    known start there at distance ``d`` from ``end`` has ``end``'s layers
    as its own from distance ``d`` on: the nearest such start gives them.
    """
    carried = {}
    cut_starts = 0
    for s, layers in known.items():
        if keep >> s & 1:
            carried[s] = _restrict_layers(layers, keep)
        else:
            cut_starts |= 1 << s
    if end not in carried and cut_starts:
        for d, layer in enumerate(cut_layers, 1):
            if layer & cut_starts:
                masks, lo, hi = known[(layer & cut_starts).bit_length() - 1]
                carried[end] = _restrict_layers((masks, lo + d, hi), keep)
                break
    return carried


def _reach(adj: Sequence[int], mask: int, start: int) -> int:
    """Mask of the vertices of ``mask`` reachable from ``start`` inside it:
    its disjoint BFS layers."""
    return sum(_layers(adj, mask, start))


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return g.n == 0 or _reach(g.adj, full, 0) == full


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n - 1 and is_connected(g)


def _diametral_paths(
    adj: Sequence[int], mask: int, known: dict[int, tuple[list[int], int, int]], head: int | None = None
) -> Iterator[list[int]]:
    """All diameter-realizing paths of the tree that ``mask`` induces, in
    both orientations, yielded lazily in (start, end) endpoint order, or
    with ``head`` given only the first ``head`` vertices of each; the tree
    constructor roots a part at either end of a longest path.

    ``known`` maps starts to layer records within ``mask``
    (``_restrict_layers``); layers from a start missing there are computed
    once and added.
    In a tree every vertex farthest from some vertex ends a longest path,
    and all longest paths meet in the center: the path ends fall into
    groups, one per branch at the center (one per side of a central
    edge), and the ends farthest from any vertex are those outside its
    branch.  So for any ``s`` and any ``x`` farthest from it, the path
    ends are the last layers from ``s`` and ``x`` together, and an end
    outside the last layer from ``x`` (or from ``s``) is in that vertex's
    branch and has that last layer too.  ``s`` is the start known last
    (the lowest vertex when none is), usually the one a split just
    carried in, and ``x`` a known start where one is farthest, so a part
    whose ends are known runs no BFS.  The starts that end no longest
    path are then dropped, but ``s``, which lies by the last cut, is kept
    for the next split to carry.  A path is walked forward from its
    start through the far end's layers, so a head costs ``head`` steps,
    not the diameter.  No layer list is held while a path is out, so a
    caller that clears ``known`` meanwhile frees them, and they are
    recomputed if needed.
    """

    def layers_from(start: int) -> tuple[list[int], int, int]:
        if start not in known:
            masks = _layers(adj, mask, start)
            known[start] = (masks, 0, len(masks) - 1)
        return known[start]

    def last(start: int) -> int:
        masks, _, hi = layers_from(start)
        return masks[hi] & mask

    if mask & (mask - 1) == 0:
        if mask:
            yield [mask.bit_length() - 1]
        return
    s = next(reversed(known), (mask & -mask).bit_length() - 1)
    from_s = last(s)
    from_x = last(next((t for t in known if from_s >> t & 1), from_s.bit_length() - 1))
    ends = from_s | from_x
    for start in [t for t in known if not ends >> t & 1 and t != s]:
        del known[start]
    for a in _bits(ends):
        for b in _bits(from_x if not from_x >> a & 1 else from_s if not from_s >> a & 1 else last(a)):
            yield _walk_forward(adj, layers_from(b), a, head)


def _walk_forward(adj: Sequence[int], layers: tuple[list[int], int, int], start: int, head: int | None) -> list[int]:
    """The tree path from ``start``, a vertex of the last layer of the
    record ``layers``, to that record's start, or its first ``head``
    vertices.  Each step takes the one neighbour in the next lower layer,
    which lies in the record's part."""
    masks, lo, hi = layers
    stop = lo if head is None else max(lo, hi - head + 1)
    path = [start]
    for i in range(hi - 1, stop - 1, -1):
        path.append((adj[path[-1]] & masks[i]).bit_length() - 1)
    return path


def _shortest_cycle_through(adj: Sequence[int], mask: int, v: int) -> list[int] | None:
    """Shortest cycle containing ``v`` in the graph that ``mask`` induces,
    as a vertex sequence, or None.

    For each neighbour ``u`` of ``v``, one candidate: ``v`` followed by
    its ``_bfs_tree`` parent path to ``u`` in ``G - vu`` (the closing edge
    ``uv`` is implicit).  That walk matches the one from ``u`` in ``G - v``
    until ``v`` would be expanded, so ``v``'s parent is its first neighbour
    other than ``u`` in the walk without ``v``, and the rest of the path is
    read from there.  The result is the least candidate by length, then by
    sequence.  It need not be the lexicographically least shortest cycle
    through ``v``: other shortest paths from ``v`` to ``u`` are never
    tried.  Any shortest cycle through a vertex is chordless.
    """
    best = None
    rest = mask & ~(1 << v)
    for u in _bits(adj[v] & rest):
        order, parent = _bfs_tree(adj, rest, u)
        last = next((w for w in order[1:] if adj[v] >> w & 1), None)
        if last is None:
            continue
        walk = [v, last]
        while walk[-1] != u:
            walk.append(parent[walk[-1]])
        key = (len(walk), tuple(walk))
        if best is None or key < best:
            best = key
    return list(best[1]) if best else None


def _induced_cycle(adj: Sequence[int], mask: int) -> list[int] | None:
    """A chordless cycle of the graph that ``mask`` induces, in its labels,
    or None if it is a forest: the shortest cycle through its least vertex
    on a cycle, starting there.  Only the 2-core holds cycles, and a walk
    inside it meets its vertices in the order a walk of the whole mask
    does, so leaves are peeled off first."""
    core = mask
    stack = [v for v in _members(mask) if (adj[v] & mask).bit_count() < 2]
    while stack:
        v = stack.pop()
        if core >> v & 1:
            core ^= 1 << v
            stack += [w for w in _bits(adj[v] & core) if (adj[w] & core).bit_count() < 2]
    for v in _members(core):
        cycle = _shortest_cycle_through(adj, core, v)
        if cycle is not None:
            return cycle
    return None

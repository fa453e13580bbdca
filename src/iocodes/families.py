"""Generators for the named extremal constructions and their reference codes.

The central family consists of trees grown from a single root by six
attachment types:

  type 1-4  a path on i vertices joined to the root at one end
  type 5    a path on 4 vertices joined to the root at a support vertex
  type 6    a star K_{1,3} with one edge subdivided, joined to the root
            at a leaf adjacent to its degree-3 vertex

An attachment vector counts attachments per type; admissible vectors
have at most one type-1 attachment and exclude the four tiny vectors
that would produce paths on fewer than five vertices.  Every admissible
tree carries an explicitly constructed vertex set (its canonical set).
It is an IO-code whenever the tree has no open twins; the one admissible
tree with twins is the single type-5 attachment, whose root is a twin
of the attachment's near leaf, and it has no IO-code at all.

Also here: subdivided stars and their reduced variants, the bridged
star pair and the subcubic gadget cycle that attain the extremal bound,
the three star-plus-edge graphs, and exhaustive enumeration of free
trees, labeled small graphs and their isomorphism classes for the audit
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterator, Sequence

# graphs._bits is reached through its module: the per-layer tracer wraps
# functions imported by name, and a list of set bits is not a layer call
from . import graphs
from .canon import canonical_graph
from .errors import BadParam
from .graphs import Graph, VertexSet, _twin_free, has_four_cycle, is_connected

__all__ = [
    "FamilySpec",
    "is_admissible",
    "build_family_tree",
    "gen_subdivided_star",
    "gen_reduced_subdivided_star",
    "gen_tight_tree_pair",
    "gen_subcubic_gp",
    "gen_star_plus_edge",
    "enumerate_trees",
    "enumerate_twin_free_trees",
    "enumerate_small_graphs",
    "enumerate_graph_classes",
]

_EXCLUDED_VECTORS = {
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (1, 1, 0, 0, 0, 0),
}

# The six attachment types as vertex blocks: for each position in the
# block, the position of its parent (-1 for the root), then the positions
# the canonical set leaves out.  Positions run through the branch
# breadth-first, the smaller child subtree first; no vertex of any type has
# two child subtrees of one size, so the order is unique.
_SHAPES = {
    1: ((-1,), (0,)),
    2: ((-1, 0), ()),
    3: ((-1, 0, 1), (2,)),
    4: ((-1, 0, 1, 2), (3,)),
    5: ((-1, 0, 0, 2), (1,)),
    6: ((-1, 0, 1, 1, 3), (2,)),
}
_LARGEST_SHAPE = max(len(parents) for parents, _ in _SHAPES.values())

_PRIME = (0, 2, 3, 5, 7, 11, 13)  # by type; a product of primes names a multiset of types


def _child_types() -> dict[int, int]:
    """Each type by the product of the primes of its link's child subtrees'
    types, read bottom-up as ``_walk`` reads a tree.  A child that is no
    attachment has the prime 0, and no type has the product 0."""
    table = {}
    for t, (parents, _) in _SHAPES.items():
        key = [1] * len(parents)
        for i in range(len(parents) - 1, 0, -1):
            key[parents[i]] *= _PRIME[table[key[i]]]
        table[key[0]] = t
    return table


_TYPE_OF_CHILDREN = _child_types()


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of a generated instance: parameters, distinguished
    vertices and a reference code known to verify.

    The reference code is None in two cases only: an attachment tree with
    open twins, which has no IO-code, and the reduced subdivided star at
    delta = 2.  That star is the path on four vertices, the excluded
    vector (1, 1, 0, 0, 0, 0), whose canonical set is not a code.
    """

    kind: str
    params: dict
    distinguished: dict
    reference_code: VertexSet | None = None


# ---------------------------------------------------------------------------
# The attachment-tree family


def is_admissible(vector: Sequence[int]) -> bool:
    """Whether the attachment vector, the counts of types 1..6, grows a
    family tree: six counts, none negative, at least one attachment and at
    most one of type 1, and none of the four vectors of a path on fewer
    than five vertices."""
    vector = tuple(vector)
    return (
        len(vector) == 6
        and min(vector) >= 0
        and vector[0] <= 1
        and sum(vector) >= 1
        and vector not in _EXCLUDED_VECTORS
    )


def build_family_tree(vector: Sequence[int]) -> tuple[Graph, FamilySpec]:
    """Grow the tree for an admissible attachment vector (``_grow``); any
    other vector is a bad parameter.  Its reference code is the canonical
    set, or None when the tree has open twins."""
    vector = tuple(vector)
    if not is_admissible(vector):
        raise BadParam(f"attachment vector {vector} is not admissible")
    g, code = _grow(vector)
    reference = VertexSet(g.n, mask=code) if _twin_free(g.adj) else None
    return g, FamilySpec("attachment_tree", {"vector": vector, "order": g.n}, {"root": 0}, reference)


def _grow(vector: tuple[int, ...]) -> tuple[Graph, int]:
    """The attachment tree of ``vector``, unchecked, and its canonical set
    as a mask.

    The root is vertex 0; attachments are laid out in type order, then
    creation order, each contributing a contiguous vertex block in the
    position order of ``_SHAPES``.
    """
    edges: list[tuple[int, int]] = []
    blocks: list[tuple[int, tuple[int, ...]]] = []
    nxt = 1
    for t, count in enumerate(vector, 1):
        parents = _SHAPES[t][0]
        for _ in range(count):
            block = tuple(range(nxt, nxt + len(parents)))
            edges += [(0 if p < 0 else block[p], v) for p, v in zip(parents, block)]
            blocks.append((t, block))
            nxt += len(parents)
    return Graph(nxt, edges), _canonical_code(vector, blocks, (1 << nxt) - 1)


# the two trees whose root is a degree-2 support vertex: their canonical
# set also keeps the type-1 link, so it leaves out a single leaf
_KEEPS_TYPE1_LINK = {(1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)}


def _canonical_code(vector: tuple[int, ...], blocks: Sequence[tuple[int, tuple[int, ...]]], mask: int) -> int:
    """The canonical set of the attachment tree of ``vector`` on the
    vertices ``mask``, as a mask: ``mask`` without the vertices it leaves
    out.  ``blocks`` holds one ``(type, block)`` pair per branch at the
    root, sorted by type and then link; ``block`` lists the branch's
    vertices in the position order of ``_SHAPES``, so ``block[0]`` is the
    link, the root's neighbour.

    Those are the positions ``_SHAPES`` leaves out of each attachment: the
    type-1 link, the far leaf of types 3 and 4, the distance-2 leaf of
    type 5 and the distance-3 leaf of type 6.  Two exceptions: with no
    type-1 attachment the distance-2 leaf of the first type-2 attachment
    is left out too, and the two trees in ``_KEEPS_TYPE1_LINK`` keep their
    type-1 link.
    """
    drop_type2_leaf = vector[0] == 0
    for t, block in blocks:
        left_out = _SHAPES[t][1]
        if t == 1 and vector in _KEEPS_TYPE1_LINK:
            left_out = ()
        elif t == 2 and drop_type2_leaf:
            left_out, drop_type2_leaf = (1,), False
        for i in left_out:
            mask ^= 1 << block[i]
    return mask


def _walk(adj: Sequence[int], mask: int, start: int) -> tuple[list[int], ...] | None:
    """The tree that ``mask`` induces, walked breadth-first from ``start``,
    by position: the vertex, its first child's position (one more entry:
    n), its subtree's order and the product of the primes of its child
    subtrees' types (``_TYPE_OF_CHILDREN``); None when it is no tree."""
    n = mask.bit_count()
    order = [start]
    up = [-1]
    first = []
    unseen = mask ^ 1 << start
    ends = 0  # the degree sum
    for i, u in enumerate(order):
        first.append(len(order))
        near = adj[u] & mask
        ends += near.bit_count()
        below = near & unseen
        unseen ^= below
        while below:  # bits walked inline: the constructor matches every small part
            low = below & -below
            order.append(low.bit_length() - 1)
            up.append(i)
            below ^= low
    if unseen or ends != 2 * (n - 1):
        return None
    first.append(n)
    size = [1] * n
    key = [1] * n
    kind = _TYPE_OF_CHILDREN.get
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
        key[up[i]] *= _PRIME[kind(key[i], 0)]
    return order, first, size, key


def _match_at_start(walk: tuple[list[int], ...]) -> tuple[int, tuple[int, ...], tuple] | None:
    """The family match of a ``_walk`` rooted at its start, or None unless
    its child subtrees are attachments with an admissible vector.  A block
    lists its branch breadth-first, smaller subtrees first, as ``_SHAPES``."""
    order, first, size, key = walk
    if not key[0]:
        return None
    links = range(first[0], first[1])
    types = [_TYPE_OF_CHILDREN[key[j]] for j in links]
    vector = tuple(map(types.count, _SHAPES))
    if not is_admissible(vector):
        return None
    branches = []
    for t, j in zip(types, links):
        block = [j]
        for q in block:
            block += sorted(range(first[q], first[q + 1]), key=size.__getitem__)
        branches.append((t, tuple([order[q] for q in block])))
    branches.sort()
    return order[0], vector, tuple(branches)


def _family_match_rooted(adj: Sequence[int], mask: int, root: int) -> tuple[int, tuple[int, ...], tuple] | None:
    """The family match of the tree that ``mask`` induces, in its labels,
    with the root ``root``, or None: ``(root, vector, blocks)``, with the
    blocks that ``_canonical_code`` reads.

    No attachment has more than 5 vertices, so a root of degree below
    (n - 1) / 5 is rejected without a walk.
    """
    n = mask.bit_count()
    if n < 2 or n > 1 + _LARGEST_SHAPE * (adj[root] & mask).bit_count():
        return None
    walk = _walk(adj, mask, root)
    return None if walk is None else _match_at_start(walk)


def _family_match(adj: Sequence[int], mask: int) -> tuple[int, tuple[int, ...], tuple] | None:
    """The family match of the graph that ``mask`` induces, in its labels,
    at the lowest label for which it has one, or None.

    A match makes the graph a tree whose root's branches are attachments.
    So each call, once per level of the tree constructor, walks the tree
    once from its lowest vertex (``_walk``).  A root is tried only if its
    child subtrees there are attachments and its parent side is no larger
    than an attachment: the start is read off that walk, any other root
    walked by ``_family_match_rooted``.  Roots are tried in increasing
    label, so the first match is the one every root would give; for
    n >= 12 it is the centroid (Jordan 1869).
    """
    n = mask.bit_count()
    if n < 2:
        return None
    walk = _walk(adj, mask, (mask & -mask).bit_length() - 1)
    if walk is None:
        return None
    order, _, size, key = walk
    for i in sorted([i for i in range(n) if key[i] and n - size[i] <= _LARGEST_SHAPE], key=order.__getitem__):
        match = _match_at_start(walk) if i == 0 else _family_match_rooted(adj, mask, order[i])
        if match is not None:
            return match
    return None


# ---------------------------------------------------------------------------
# Named generators


def gen_subdivided_star(delta: int) -> tuple[Graph, FamilySpec]:
    """Star K_{1,delta} with every edge subdivided once, the attachment tree
    of delta type-2 blocks (support, leaf); center is vertex 0."""
    if delta < 2:
        raise BadParam(f"subdivided star needs delta >= 2, got {delta}")
    g, code = _grow((0, delta, 0, 0, 0, 0))
    distinguished = {"center": 0, "supports": list(range(1, g.n, 2)), "leaves": list(range(2, g.n, 2))}
    return g, FamilySpec("subdivided_star", {"delta": delta, "order": g.n}, distinguished, VertexSet(g.n, mask=code))


def gen_reduced_subdivided_star(delta: int) -> tuple[Graph, FamilySpec]:
    """Subdivided star minus one leaf: the center keeps the type-1 block,
    pendant vertex 1, then delta - 1 type-2 blocks."""
    if delta < 2:
        raise BadParam(f"reduced subdivided star needs delta >= 2, got {delta}")
    g, code = _grow((1, delta - 1, 0, 0, 0, 0))
    supports, leaves = list(range(2, g.n, 2)), list(range(3, g.n, 2))
    distinguished = {"center": 0, "center_leaf": 1, "supports": supports, "leaves": leaves}
    reference = VertexSet(g.n, mask=code) if delta >= 3 else None  # P4, whose canonical set is no code
    return g, FamilySpec("reduced_subdivided_star", {"delta": delta, "order": g.n}, distinguished, reference)


def gen_tight_tree_pair(delta: int) -> tuple[Graph, FamilySpec]:
    """Two reduced subdivided stars bridged between their pendant leaves."""
    if delta < 3:
        raise BadParam(f"tight tree pair needs delta >= 3, got {delta}")
    half, half_spec = gen_reduced_subdivided_star(delta)
    center, bridge, leaves = (half_spec.distinguished[key] for key in ("center", "center_leaf", "leaves"))
    off = half.n
    edges = half.edges() + [(u + off, v + off) for u, v in half.edges()]
    edges.append((bridge, off + bridge))
    g = Graph(2 * off, edges)
    # drop the first full-leg leaf of each copy; attains the extremal size
    excluded = (leaves[0], off + leaves[0])
    mask = (1 << g.n) - 1
    for v in excluded:
        mask ^= 1 << v
    spec = FamilySpec(
        kind="bridged_star_pair",
        params={"delta": delta, "order": g.n},
        distinguished={
            "centers": [center, off + center],
            "bridge_leaves": [bridge, off + bridge],
            "excluded": list(excluded),
        },
        reference_code=VertexSet(g.n, mask=mask),
    )
    return g, spec


def gen_subcubic_gp(p: int) -> tuple[Graph, FamilySpec]:
    """Cycle of ``p`` pendant-star gadgets; max degree 3, order 6p.

    Gadget i occupies vertices 6i..6i+5 as (u, v, w, x, y, z): a path
    u-v-w-x-y with z pendant on w; the u vertices form the cycle.
    """
    if p < 3 or p == 4:
        raise BadParam(f"gadget cycle needs p >= 3 and p != 4, got {p}")
    edges = []
    for i in range(p):
        b = 6 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b + 4), (b + 2, b + 5)]
        edges.append((b, 6 * ((i + 1) % p)))
    g = Graph(6 * p, edges)
    mask = (1 << g.n) - 1
    for i in range(p):
        mask ^= 1 << (6 * i + 5)  # all but the pendant z vertices
    spec = FamilySpec(
        kind="subcubic_gadget_cycle",
        params={"p": p, "order": g.n},
        distinguished={
            "cycle": [6 * i for i in range(p)],
            "gadgets": [
                {"u": 6 * i, "v": 6 * i + 1, "w": 6 * i + 2, "x": 6 * i + 3, "y": 6 * i + 4, "z": 6 * i + 5}
                for i in range(p)
            ],
        },
        reference_code=VertexSet(g.n, mask=mask),
    )
    return g, spec


def gen_star_plus_edge(variant: str, k: int) -> tuple[Graph, FamilySpec]:
    """Subdivided star on k legs plus one extra edge.

    g1 joins two support vertices, g2 joins two leaves, g3 joins the
    center to a leaf.  The reference code leaves out the vertices of
    ``_star_plus_edge_leave_out``, the rule the graph constructor
    applies; g2 with k=2 is the 5-cycle, where any four vertices verify.
    """
    variant = variant.lower()
    if variant not in ("g1", "g2", "g3"):
        raise BadParam(f"variant must be g1, g2 or g3, got {variant!r}")
    if k < 2:
        raise BadParam(f"star-plus-edge needs k >= 2, got {k}")
    base, base_spec = gen_subdivided_star(k)
    center, supports, leaves = (base_spec.distinguished[key] for key in ("center", "supports", "leaves"))
    extra = {
        "g1": (supports[0], supports[1]),
        "g2": (leaves[0], leaves[1]),
        "g3": (center, leaves[-1]),
    }[variant]
    _, left_out = _star_plus_edge_leave_out(base.adj, (1 << base.n) - 1, center, extra)
    g = Graph(base.n, base.edges() + [extra])
    spec = FamilySpec(
        kind="star_plus_edge",
        params={"variant": variant, "k": k, "order": g.n},
        distinguished={"center": center, "supports": supports, "leaves": leaves, "extra_edge": list(extra)},
        reference_code=VertexSet(g.n, (v for v in range(g.n) if v not in left_out)),
    )
    return g, spec


def _star_plus_edge_leave_out(
    adj: Sequence[int], mask: int, center: int, edge: tuple[int, int]
) -> tuple[str, set[int]]:
    """The pattern of the subdivided star that ``mask`` induces plus
    ``edge``, and the vertices its code leaves out; ties go to the least
    label.

    Two supports joined: both of their leaves.  The center joined to a
    leaf: the least other leaf.  Two leaves joined: the lesser one, plus
    its support when the star has more than two legs.
    """
    a, b = edge
    if adj[center] >> a & 1 and adj[center] >> b & 1:
        return "supports_joined", {(adj[s] & mask ^ 1 << center).bit_length() - 1 for s in edge}
    if center in edge:
        return "center_to_leaf", _subdivided_star_leave_out(adj, mask, b if a == center else a)
    x = min(edge)
    return "leaves_joined", {x} if (adj[center] & mask).bit_count() == 2 else {x, *graphs._bits(adj[x] & mask)}


def _subdivided_star_leave_out(adj: Sequence[int], mask: int, cut: int | None = None) -> set[int]:
    """The vertices the code of the subdivided star that ``mask`` induces
    leaves out; ties go to the least label.

    With no ``cut``: the least leaf.  A cut leaf is kept and the least
    other leaf left out; a cut support loses its leaf and the least other
    leaf.  No caller cuts the center: the constructor's cut endpoint lost
    a neighbour, so its degree is below the center's.  The leaves come
    from a walk over the star's own members, not over every label below
    its highest one.
    """
    leaves = sum(1 << v for v in graphs._bits(mask) if (adj[v] & mask).bit_count() == 1)
    if cut is not None and not leaves >> cut & 1:  # a support
        own = (adj[cut] & leaves).bit_length() - 1
        return {own, min(graphs._bits(leaves ^ 1 << own))}
    others = leaves if cut is None else leaves ^ 1 << cut
    return {min(graphs._bits(others))}


# ---------------------------------------------------------------------------
# Structural recognizers used by the constructive algorithms


def _leaves_and_legs(adj: Sequence[int], mask: int) -> tuple[int, int]:
    """Masks of the leaves and of the legs, the degree-2 vertices next to
    a leaf, of the subgraph that ``mask`` induces: one pass over its
    degrees, then one over its leaves."""
    leaves = legs = 0
    for v in graphs._members(mask):
        if (adj[v] & mask).bit_count() == 1:
            leaves |= 1 << v
    for leaf in graphs._members(leaves):
        s = (adj[leaf] & mask).bit_length() - 1
        if (adj[s] & mask).bit_count() == 2:
            legs |= 1 << s
    return leaves, legs


def _subdivided_star(adj: Sequence[int], mask: int) -> tuple[int, int] | None:
    """(center, k) if the graph that ``mask`` induces is a subdivided star
    with k >= 2 legs: a tree on 2k + 1 vertices with a degree-k vertex
    whose neighbours are all legs."""
    n = mask.bit_count()
    if n < 5 or n % 2 == 0:
        return None
    k = (n - 1) // 2
    members = graphs._members(mask)
    degrees = [(adj[v] & mask).bit_count() for v in members]
    if sum(degrees) != 2 * (n - 1) or k not in degrees:
        return None
    _, legs = _leaves_and_legs(adj, mask)
    for c, degree in zip(members, degrees):
        if degree == k and adj[c] & mask & ~legs == 0:
            return c, k
    return None


# ---------------------------------------------------------------------------
# Enumeration substrates for the audit harness

TREE_CAP = 18
GRAPH_CAP = 7


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All free trees on ``n`` vertices, one per isomorphism class.

    The level sequences come from the algorithm of Wright, Richmond,
    Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
    Comput. 15, 1986): each free tree is rooted at its center and listed
    by the depths of its vertices in preorder.  Vertex ``i`` is joined to
    the last vertex before it one level up.  Trees and labels come out
    in the order of ``networkx.nonisomorphic_trees``, which implements
    the same algorithm.
    """
    for levels in _free_tree_levels(n, skip_twins=False):
        yield _tree_of_levels(levels)


def enumerate_twin_free_trees(n: int) -> Iterator[Graph]:
    """The trees of ``enumerate_trees(n)`` without open twins, in its
    order and labels.

    On three or more vertices the open twins of a tree are two leaves
    with a common neighbour.  A canonical level sequence lists a
    vertex's leaf children last and next to each other (Beyer and
    Hedetniemi, "Constant time generation of rooted trees", SIAM J.
    Comput. 9, 1980), so the twins show in the sequence itself
    (``_twin_leaves``).  The walk jumps past every block of sequences
    that share a twin prefix, and a ``Graph`` is built only for the
    trees kept: for n = 5..16 it steps through 6,386 rooted sequences
    where the unfiltered walk takes 34,920.
    """
    for levels in _free_tree_levels(n, skip_twins=True):
        yield _tree_of_levels(levels)


def _tree_of_levels(levels: list[int]) -> Graph:
    """The tree of a level sequence: vertex ``i`` is joined to the last
    vertex before it one level up."""
    n = len(levels)
    adj = [0] * n
    last = [0] * n  # the latest vertex at each level so far
    for v in range(1, n):
        level = levels[v]
        u = last[level - 1]
        adj[u] |= 1 << v
        adj[v] = 1 << u
        last[level] = v
    return Graph._from_adj(tuple(adj))


def _twin_leaves(levels: list[int]) -> int | None:
    """The first position ``i`` of two sibling leaves in the level
    sequence, or None: positions ``i`` and ``i + 1`` on one level (so
    ``i`` is a leaf and they share a parent) with nothing deeper after
    ``i + 1``."""
    for i, (a, b, c) in enumerate(zip(levels[1:], levels[2:], [*levels[3:], 0]), 1):
        if a == b >= c:
            return i
    return None


def _free_tree_levels(n: int, skip_twins: bool) -> Iterator[list[int]]:
    """The WROM level sequences on ``n`` vertices, starting from the path
    rooted at its center; with ``skip_twins``, only those without twin
    leaves.

    Both jumps below skip a block of rooted sequences that all fail the
    same test, and every landing point is tested again before it is
    yielded: a jump of one kind may land on a sequence the other rejects.
    """
    if not 1 <= n <= TREE_CAP:
        raise BadParam(f"tree enumeration supports 1 <= n <= {TREE_CAP}, got {n}")
    if n == 1:
        yield [0]
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        # the root's first subtree is vertices 1..m-1; the sequence roots a
        # free tree canonically unless that subtree is higher than the rest,
        # or as high and larger, or as high, as large and later
        m = _second_child(levels)
        left_height = max(levels[1:m]) - 1
        rest_height = max(levels[m:], default=0)
        if left_height > rest_height or left_height == rest_height and (
            m - 1 > n - m + 1
            or m - 1 == n - m + 1 and [x - 1 for x in levels[1:m]] > [0, *levels[m:]]
        ):
            # jump past every rooted tree that keeps this first subtree
            jumped = _next_rooted_levels(levels, m - 1)
            if levels[m - 1] > 2:
                height = max(jumped[1:_second_child(jumped)])
                jumped[n - height :] = range(1, height + 1)
            levels = jumped
            continue
        if skip_twins:
            i = _twin_leaves(levels)
            if i is not None:
                # the order is reverse-lexicographic, so every later sequence
                # that keeps positions 0..i+1 keeps these twins: jump past
                # them from the last of those positions above level 1
                p = i + 1
                while levels[p] == 1:
                    p -= 1
                if p == 0:  # positions 1..i+1 on level 1: every later sequence keeps them
                    return
                levels = _next_rooted_levels(levels, p)
                continue
        yield levels
        levels = _next_rooted_levels(levels)


def _second_child(levels: list[int]) -> int:
    """The index of the root's second child, or the length if it has none."""
    for i in range(2, len(levels)):
        if levels[i] == 1:
            return i
    return len(levels)


def _next_rooted_levels(levels: list[int], p: int | None = None) -> list[int] | None:
    """The next rooted level sequence (Beyer and Hedetniemi), changing
    position ``p`` (default: the last one deeper than level 1) first."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def enumerate_small_graphs(
    n: int,
    connected: bool = False,
    twin_free: bool = False,
    c4_free: bool = False,
    max_deg: int | None = None,
) -> Iterator[Graph]:
    """All labeled graphs on ``n`` vertices by edge-subset enumeration.

    The edge subsets are visited in Gray-code order, one edge flip per
    step, and filters are applied before yielding.  One graph per
    isomorphism class comes from ``enumerate_graph_classes``; this sweep
    is the independent oracle it is tested against.
    """
    if not 1 <= n <= GRAPH_CAP:
        raise BadParam(f"exhaustive enumeration supports 1 <= n <= {GRAPH_CAP}, got {n}")
    pairs = list(combinations(range(n), 2))
    adj = [0] * n
    total = 1 << len(pairs)
    gray_prev = 0
    for i in range(total):
        gray = i ^ (i >> 1)
        delta_bits = gray ^ gray_prev
        gray_prev = gray
        if delta_bits:
            u, v = pairs[delta_bits.bit_length() - 1]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        g = _filtered(adj, connected, twin_free, c4_free, max_deg)
        if g is not None:
            yield g


def enumerate_graph_classes(n_max: int, max_deg: int | None = None) -> Iterator[tuple[Graph, int]]:
    """One canonical graph per isomorphism class of connected twin-free
    4-cycle-free graphs on 1 to ``n_max`` vertices, in increasing order,
    with the number of labeled graphs in that class.

    The connected 4-cycle-free classes are grown once, one vertex at a
    time.  Deleting a leaf of a spanning tree leaves a connected graph,
    deleting any vertex leaves a 4-cycle-free one and raises no degree,
    so every class on ``k + 1`` vertices, under the degree cap if one is
    given, is a class on ``k`` vertices plus a new vertex joined to a
    non-empty neighbour set.  Only neighbour sets in which no two
    vertices already share a neighbour are tried, exactly the ones that
    create no 4-cycle; under the cap, only sets of at most ``max_deg``
    vertices, each of degree below it.  Each level is deduplicated by
    canonical form.  Twin-freeness, the one property that does not
    survive every deletion, selects the classes each level yields; on
    level ``n_max``, which grows nothing, it is checked before canonical
    labeling.

    A level's classes are yielded in the order in which the Gray-code
    sweep of ``enumerate_small_graphs`` first visits them, each with its
    labeled count ``n!/|Aut|`` (see ``_gray_orbit``), so each order
    matches a deduplicated labeled sweep without running one.
    """
    if not 1 <= n_max <= GRAPH_CAP:
        raise BadParam(f"exhaustive enumeration supports 1 <= n_max <= {GRAPH_CAP}, got {n_max}")
    level = [()]
    for k in range(n_max):
        grown: dict[tuple[int, ...], None] = {}
        for adj in level:
            for nb in _neighbour_sets(adj, max_deg):
                if any((a & nb).bit_count() > 1 for a in adj):
                    continue
                grown_adj = tuple([a | (nb >> v & 1) << k for v, a in enumerate(adj)] + [nb])
                if k < n_max - 1 or _twin_free(grown_adj):
                    grown[canonical_graph(Graph._from_adj(grown_adj)).adj] = None
        level = list(grown)
        classes = [Graph._from_adj(adj) for adj in level if _twin_free(adj)]
        for (_, labeled), g in sorted(zip(map(_gray_orbit, classes), classes), key=lambda item: item[0]):
            yield g, labeled


def _neighbour_sets(adj: Sequence[int], max_deg: int | None) -> Sequence[int]:
    """Neighbour masks a new vertex may take beside ``adj``: every
    non-empty one (the first vertex takes the empty one), or under the
    cap those of at most ``max_deg`` vertices, each of degree below it."""
    k = len(adj)
    if max_deg is None:
        return range(k > 0, 1 << k)
    free = [1 << v for v, a in enumerate(adj) if a.bit_count() < max_deg]
    return [sum(c) for r in range(k > 0, max_deg + 1) for c in combinations(free, r)]


def _gray_orbit(g: Graph) -> tuple[int, int]:
    """(first Gray-code sweep step, labeled count) of the graph's class.

    Bit ``k`` of an edge mask is the ``k``-th vertex pair in
    lexicographic order, as in the sweep; the sweep reaches mask ``m``
    at the step ``i`` with ``i ^ (i >> 1) == m``, whose bit ``k`` is the
    XOR of the bits of ``m`` from ``k`` up.  The labels ``n-1, n-2, ...,
    0`` are placed one vertex at a time.  Placing label ``a`` fixes the
    pairs ``(a, n-1), ..., (a, a+1)``, the next mask bits from the top,
    and so the next step bits, a running XOR.  Only the partial
    labelings whose step prefix is least are kept.  The survivors all
    map the graph onto the least step, so they form one coset of its
    automorphism group, and the labeled count is ``n!`` over their
    number.  No labeling is tried twice, and none outside the least
    prefix is extended.
    """
    n = g.n
    adj = g.adj
    step = 0
    labelings = [((), 0)]  # (vertices given labels n-1, n-2, ..., running XOR)
    for placed in range(n):
        least = None
        kept: list[tuple[tuple[int, ...], int]] = []
        for order, parity in labelings:
            for v in range(n):
                if v in order:
                    continue
                row, bits, p = adj[v], 0, parity
                for w in order:
                    p ^= row >> w & 1
                    bits = bits << 1 | p
                if least is None or bits < least:
                    least, kept = bits, []
                if bits == least:
                    kept.append((order + (v,), p))
        step = step << placed | least
        labelings = kept
    return step, factorial(n) // len(labelings)


def _filtered(adj: Sequence[int], connected, twin_free, c4_free, max_deg) -> Graph | None:
    """The graph of the adjacency list if it passes the filters, else None.

    The degree cap and twins are read off the list before a ``Graph`` is
    built; the 4-cycle test, which rejects most of what is left, runs
    before the connectivity walk.
    """
    if (max_deg is not None and max(map(int.bit_count, adj)) > max_deg) or (
        twin_free and not _twin_free(adj)
    ):
        return None
    g = Graph._from_adj(tuple(adj))
    if (c4_free and has_four_cycle(g)) or (connected and not is_connected(g)):
        return None
    return g

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
tree carries an explicitly constructed vertex set (its canonical set)
that is always an IO-code.

Also here: subdivided stars and their reduced variants, the bridged
star pair and the subcubic gadget cycle that attain the extremal bound,
the three star-plus-edge graphs, and exhaustive enumeration of free
trees, labeled small graphs and their isomorphism classes for the audit
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .canon import canonical_graph
from .errors import BadParam, NotInFamily
from .graphs import Graph, VertexSet, has_four_cycle, is_connected

__all__ = [
    "AttachmentVector",
    "FamilySpec",
    "build_family_tree",
    "canonical_set",
    "recognize_family",
    "recognize_family_rooted",
    "gen_subdivided_star",
    "gen_reduced_subdivided_star",
    "gen_tight_tree_pair",
    "gen_subcubic_gp",
    "gen_star_plus_edge",
    "as_subdivided_star",
    "legs_end_in_leaves",
    "enumerate_trees",
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
# the canonical set leaves out.  Positions list the branch breadth-first,
# smaller subtrees first; no type has a second such listing.
_SHAPES = {
    1: ((-1,), (0,)),
    2: ((-1, 0), ()),
    3: ((-1, 0, 1), (2,)),
    4: ((-1, 0, 1, 2), (3,)),
    5: ((-1, 0, 0, 2), (1,)),
    6: ((-1, 0, 1, 1, 3), (2,)),
}
_TYPE_OF_PARENTS = {parents: t for t, (parents, _) in _SHAPES.items()}
_LARGEST_SHAPE = max(len(parents) for parents, _ in _SHAPES.values())


@dataclass(frozen=True)
class AttachmentVector:
    """Counts of attachments of types 1..6 at the root."""

    k1: int
    k2: int
    k3: int
    k4: int
    k5: int
    k6: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.k1, self.k2, self.k3, self.k4, self.k5, self.k6)

    @property
    def total(self) -> int:
        return sum(self.as_tuple())

    def is_admissible(self) -> bool:
        t = self.as_tuple()
        if any(k < 0 for k in t):
            return False
        if self.k1 not in (0, 1):
            return False
        if t in _EXCLUDED_VECTORS:
            return False
        return self.total >= 1

    def order(self) -> int:
        return 1 + sum(k * len(_SHAPES[t][0]) for t, k in enumerate(self.as_tuple(), 1))

    @classmethod
    def of(cls, values) -> "AttachmentVector":
        values = tuple(int(v) for v in values)
        if len(values) != 6:
            raise BadParam(f"attachment vector needs 6 entries, got {len(values)}")
        return cls(*values)


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of a generated instance: parameters, distinguished
    vertices, optionally a reference code known to verify.

    For an attachment tree, ``attachments`` holds one ``(type, block)``
    pair per branch at the root, sorted by type and then link: ``block``
    lists the branch's vertices in the position order of ``_SHAPES``, so
    ``block[0]`` is the link, the root's neighbour.
    """

    kind: str
    params: dict
    distinguished: dict
    reference_code: VertexSet | None = None
    attachments: tuple = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# The attachment-tree family


def build_family_tree(vector) -> tuple[Graph, FamilySpec]:
    """Grow the tree for an admissible attachment vector.

    The root is vertex 0; attachments are laid out in type order, then
    creation order, each contributing a contiguous vertex block.
    """
    vec = vector if isinstance(vector, AttachmentVector) else AttachmentVector.of(vector)
    if not vec.is_admissible():
        raise NotInFamily(f"vector {vec.as_tuple()} not admissible")
    edges: list[tuple[int, int]] = []
    attachments: list[tuple[int, tuple[int, ...]]] = []
    nxt = 1
    for t, count in enumerate(vec.as_tuple(), 1):
        parents = _SHAPES[t][0]
        for _ in range(count):
            block = tuple(range(nxt, nxt + len(parents)))
            edges += [(0 if p < 0 else block[p], v) for p, v in zip(parents, block)]
            attachments.append((t, block))
            nxt += len(parents)

    g = Graph(nxt, edges)
    spec = FamilySpec(
        kind="attachment_tree",
        params={"vector": vec.as_tuple(), "order": nxt},
        distinguished={"root": 0},
        attachments=tuple(attachments),
    )
    return g, spec


# the two trees whose root is a degree-2 support vertex: their canonical
# set also keeps the type-1 link, so it leaves out a single leaf
_KEEPS_TYPE1_LINK = {(1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)}


def canonical_set(spec: FamilySpec) -> VertexSet:
    """The always-verifying code of an attachment tree.

    Every vertex except the positions ``_SHAPES`` leaves out of each
    attachment: the type-1 link, the far leaf of types 3 and 4, the
    distance-2 leaf of type 5 and the distance-3 leaf of type 6.  Two
    exceptions: with no type-1 attachment the distance-2 leaf of the
    first type-2 attachment is left out too, and the two trees in
    ``_KEEPS_TYPE1_LINK`` keep their type-1 link.
    """
    if spec.kind != "attachment_tree":
        raise NotInFamily(f"canonical set undefined for kind {spec.kind!r}")
    vec = tuple(spec.params["vector"])
    n = spec.params["order"]
    mask = (1 << n) - 1
    drop_type2_leaf = vec[0] == 0
    for t, block in spec.attachments:
        left_out = _SHAPES[t][1]
        if t == 1 and vec in _KEEPS_TYPE1_LINK:
            left_out = ()
        elif t == 2 and drop_type2_leaf:
            left_out, drop_type2_leaf = (1,), False
        for i in left_out:
            mask ^= 1 << block[i]
    return VertexSet(n, mask=mask)


def _branch_shape(g: Graph, root: int, link: int) -> tuple[int, tuple[int, ...]] | None:
    """The branch at ``link`` as ``(type, block)``, if it is an attachment.

    Stops walking once the branch outgrows the largest attachment, lists
    the branch breadth-first with smaller subtrees first (ties by index),
    and looks its parent positions up in ``_SHAPES``.
    """
    parent = {link: root}
    walked = [link]
    for u in walked:
        for w in g.neighbors(u):
            if w != parent[u]:
                parent[w] = u
                walked.append(w)
        if len(walked) > _LARGEST_SHAPE:
            return None
    size = dict.fromkeys(walked, 1)
    for w in reversed(walked[1:]):
        size[parent[w]] += size[w]
    block = [link]
    for u in block:
        block += sorted((w for w in g.neighbors(u) if w != parent[u]), key=lambda w: (size[w], w))
    position = {v: i for i, v in enumerate(block)}
    t = _TYPE_OF_PARENTS.get(tuple(position.get(parent[v], -1) for v in block))
    return None if t is None else (t, tuple(block))


def recognize_family_rooted(g: Graph, root: int) -> FamilySpec | None:
    """Match the tree against the family with the given root, or None.

    No attachment has more than 5 vertices, so a root of degree below
    (n - 1) / 5 is rejected without walking its branches.
    """
    if g.n < 2 or g.n > 1 + _LARGEST_SHAPE * g.degree(root):
        return None
    branches = []
    for link in g.neighbors(root):
        shape = _branch_shape(g, root, link)
        if shape is None:
            return None
        branches.append(shape)
    vec = AttachmentVector.of([sum(t == k for t, _ in branches) for k in _SHAPES])
    if not vec.is_admissible() or vec.order() != g.n:
        return None
    branches.sort()
    return FamilySpec(
        kind="attachment_tree",
        params={"vector": vec.as_tuple(), "order": g.n},
        distinguished={"root": root},
        attachments=tuple(branches),
    )


def recognize_family(g: Graph) -> FamilySpec | None:
    """The family match at the lowest root for which the tree has one."""
    for root in range(g.n):
        spec = recognize_family_rooted(g, root)
        if spec is not None:
            return spec
    return None


# ---------------------------------------------------------------------------
# Named generators


def gen_subdivided_star(delta: int) -> tuple[Graph, FamilySpec]:
    """Star K_{1,delta} with every edge subdivided once; center is vertex 0."""
    if delta < 2:
        raise BadParam(f"subdivided star needs delta >= 2, got {delta}")
    edges = []
    supports, leaves = [], []
    for j in range(delta):
        s, u = 1 + 2 * j, 2 + 2 * j
        edges += [(0, s), (s, u)]
        supports.append(s)
        leaves.append(u)
    g = Graph(2 * delta + 1, edges)
    spec = FamilySpec(
        kind="subdivided_star",
        params={"delta": delta, "order": g.n},
        distinguished={"center": 0, "supports": supports, "leaves": leaves},
        reference_code=VertexSet(g.n, mask=(1 << g.n) - 1 - (1 << leaves[0])),
    )
    return g, spec


def gen_reduced_subdivided_star(delta: int) -> tuple[Graph, FamilySpec]:
    """Subdivided star minus one leaf; the center keeps a pendant neighbor."""
    if delta < 2:
        raise BadParam(f"reduced subdivided star needs delta >= 2, got {delta}")
    edges = [(0, 1)]
    supports, leaves = [], []
    for j in range(delta - 1):
        s, u = 2 + 2 * j, 3 + 2 * j
        edges += [(0, s), (s, u)]
        supports.append(s)
        leaves.append(u)
    g = Graph(2 * delta, edges)
    reference = VertexSet(g.n, mask=(1 << g.n) - 1 - (1 << 1)) if delta >= 3 else None
    spec = FamilySpec(
        kind="reduced_subdivided_star",
        params={"delta": delta, "order": g.n},
        distinguished={"center": 0, "center_leaf": 1, "supports": supports, "leaves": leaves},
        reference_code=reference,
    )
    return g, spec


def gen_tight_tree_pair(delta: int) -> tuple[Graph, FamilySpec]:
    """Two reduced subdivided stars bridged between their pendant leaves."""
    if delta < 3:
        raise BadParam(f"tight tree pair needs delta >= 3, got {delta}")
    half, _ = gen_reduced_subdivided_star(delta)
    off = half.n
    edges = half.edges() + [(u + off, v + off) for u, v in half.edges()]
    edges.append((1, off + 1))
    g = Graph(2 * off, edges)
    # drop the first full-leg leaf of each copy; attains the extremal size
    excluded = (3, off + 3)
    mask = (1 << g.n) - 1
    for v in excluded:
        mask ^= 1 << v
    spec = FamilySpec(
        kind="bridged_star_pair",
        params={"delta": delta, "order": g.n},
        distinguished={
            "centers": [0, off],
            "bridge_leaves": [1, off + 1],
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
    center to a leaf.  Reference codes follow the known verifying sets;
    g2 with k=2 is the 5-cycle, where any four vertices verify.
    """
    variant = variant.lower()
    if variant not in ("g1", "g2", "g3"):
        raise BadParam(f"variant must be g1, g2 or g3, got {variant!r}")
    if k < 2:
        raise BadParam(f"star-plus-edge needs k >= 2, got {k}")
    base, _ = gen_subdivided_star(k)
    supports = [1 + 2 * j for j in range(k)]
    leaves = [2 + 2 * j for j in range(k)]
    full = (1 << base.n) - 1
    if variant == "g1":
        extra = (supports[0], supports[1])
        ref = full ^ (1 << leaves[0]) ^ (1 << leaves[1])
    elif variant == "g2":
        extra = (leaves[0], leaves[1])
        if k == 2:
            ref = full ^ (1 << leaves[0])
        else:
            ref = full ^ (1 << supports[0]) ^ (1 << leaves[0])
    else:
        extra = (0, leaves[-1])
        ref = full ^ (1 << leaves[0])
    g = Graph(base.n, base.edges() + [extra])
    spec = FamilySpec(
        kind="star_plus_edge",
        params={"variant": variant, "k": k, "order": g.n},
        distinguished={"center": 0, "supports": supports, "leaves": leaves, "extra_edge": list(extra)},
        reference_code=VertexSet(g.n, mask=ref),
    )
    return g, spec


# ---------------------------------------------------------------------------
# Structural recognizers used by the constructive algorithms


def legs_end_in_leaves(g: Graph, center: int, skip: int | None = None) -> bool:
    """True iff every neighbour of ``center`` except ``skip`` has degree 2
    and its other neighbour is a leaf: those are the legs of a subdivided
    star centered there."""
    adj = g.adj
    return all(
        adj[s].bit_count() == 2 and adj[(adj[s] ^ (1 << center)).bit_length() - 1].bit_count() == 1
        for s in g.neighbors(center)
        if s != skip
    )


def as_subdivided_star(g: Graph) -> tuple[int, int] | None:
    """(center, k) if the graph is a subdivided star with k >= 2 legs."""
    if g.n < 5 or g.n % 2 == 0 or g.edge_count != g.n - 1:
        return None
    k = (g.n - 1) // 2
    for c in range(g.n):
        if g.adj[c].bit_count() == k and legs_end_in_leaves(g, c):
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
    if not 1 <= n <= TREE_CAP:
        raise BadParam(f"tree enumeration supports 1 <= n <= {TREE_CAP}, got {n}")
    if n == 1:
        yield Graph(1)
        return
    for levels in _free_tree_levels(n):
        adj = [0] * n
        last = [0] * n  # the latest vertex at each level so far
        for v in range(1, n):
            level = levels[v]
            u = last[level - 1]
            adj[u] |= 1 << v
            adj[v] = 1 << u
            last[level] = v
        yield Graph._from_adj(tuple(adj))


def _free_tree_levels(n: int) -> Iterator[list[int]]:
    """The WROM level sequences on ``n >= 2`` vertices, starting from the
    path rooted at its center."""
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

    The 4-cycle-free classes are grown once, one vertex at a time:
    deleting a vertex from a 4-cycle-free graph on ``k + 1`` vertices
    leaves one on ``k`` vertices, so every class on ``k + 1`` vertices is
    a class on ``k`` vertices plus a new vertex joined to some neighbour
    set.  Only neighbour sets in which no two vertices already share a
    neighbour are tried; these are exactly the ones that create no
    4-cycle.  Each level is deduplicated by canonical form.
    Connectivity, twin-freeness and the degree cap, which do not survive
    every deletion, select the classes each level yields; on level
    ``n_max``, which grows nothing, they are checked before canonical
    labeling.

    Each yielded class is relabeled in all ``n!`` ways.  The distinct
    edge sets give its labeled count ``n!/|Aut|`` and the first step at
    which the Gray-code sweep of ``enumerate_small_graphs`` visits it; a
    level's classes are yielded in that order, so each order matches a
    deduplicated labeled sweep without running one.
    """
    if not 1 <= n_max <= GRAPH_CAP:
        raise BadParam(f"exhaustive enumeration supports 1 <= n_max <= {GRAPH_CAP}, got {n_max}")
    level = [()]
    for k in range(n_max):
        grown: dict[tuple[int, ...], None] = {}
        for adj in level:
            for nb in range(1 << k):
                if any((a & nb).bit_count() > 1 for a in adj):
                    continue
                grown_adj = [a | (nb >> v & 1) << k for v, a in enumerate(adj)] + [nb]
                if k < n_max - 1:
                    g = Graph._from_adj(tuple(grown_adj))
                elif (g := _filtered(grown_adj, True, True, False, max_deg)) is None:
                    continue
                grown[canonical_graph(g).adj] = None
        level = list(grown)
        classes = [g for adj in level if (g := _filtered(adj, True, True, False, max_deg)) is not None]
        for (_, labeled), g in sorted(zip(map(_gray_orbit, classes), classes), key=lambda item: item[0]):
            yield g, labeled


def _gray_orbit(g: Graph) -> tuple[int, int]:
    """(first Gray-code sweep step, labeled count) of the graph's class.

    Bit ``k`` of an edge mask is the ``k``-th vertex pair in
    lexicographic order, as in the sweep; the sweep reaches mask ``m``
    at the step whose Gray code is ``m``.
    """
    n = g.n
    bit = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        bit[u][v] = bit[v][u] = 1 << k
    edges = g.edges()
    masks = set()
    for p in permutations(range(n)):
        mask = 0
        for u, v in edges:
            mask |= bit[p[u]][p[v]]
        masks.add(mask)
    return min(_gray_step(m) for m in masks), len(masks)


def _gray_step(code: int) -> int:
    """The step ``i`` with ``i ^ (i >> 1) == code``."""
    step = 0
    while code:
        step ^= code
        code >>= 1
    return step


def _filtered(adj: Sequence[int], connected, twin_free, c4_free, max_deg) -> Graph | None:
    """The graph of the adjacency list if it passes the filters, else None.

    The degree cap and twins are read off the list before a ``Graph`` is
    built; the 4-cycle test, which rejects most of what is left, runs
    before the connectivity walk.
    """
    if (max_deg is not None and max(map(int.bit_count, adj)) > max_deg) or (
        twin_free and len(set(adj)) != len(adj)
    ):
        return None
    g = Graph._from_adj(tuple(adj))
    if (c4_free and has_four_cycle(g)) or (connected and not is_connected(g)):
        return None
    return g

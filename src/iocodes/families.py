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
from typing import Iterator

import networkx as nx

from .canon import canonical_graph
from .errors import BadParam, NotInFamily
from .graphs import Graph, VertexSet

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

# vertices contributed by one attachment of each type
_TYPE_SIZE = {1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 5}


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
        return 1 + sum(k * _TYPE_SIZE[i + 1] for i, k in enumerate(self.as_tuple()))

    @classmethod
    def of(cls, values) -> "AttachmentVector":
        values = tuple(int(v) for v in values)
        if len(values) != 6:
            raise BadParam(f"attachment vector needs 6 entries, got {len(values)}")
        return cls(*values)


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of a generated instance: parameters, distinguished
    vertices, optionally a reference code known to verify."""

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
    attachments: list[tuple[int, dict]] = []
    nxt = 1

    def take() -> int:
        nonlocal nxt
        v = nxt
        nxt += 1
        return v

    for _ in range(vec.k1):
        a = take()
        edges.append((0, a))
        attachments.append((1, {"link": a}))
    for _ in range(vec.k2):
        a, b = take(), take()
        edges += [(0, a), (a, b)]
        attachments.append((2, {"link": a, "leaf2": b}))
    for _ in range(vec.k3):
        a, b, c = take(), take(), take()
        edges += [(0, a), (a, b), (b, c)]
        attachments.append((3, {"link": a, "mid": b, "leaf3": c}))
    for _ in range(vec.k4):
        a, b, c, d = take(), take(), take(), take()
        edges += [(0, a), (a, b), (b, c), (c, d)]
        attachments.append((4, {"link": a, "v2": b, "v3": c, "leaf4": d}))
    for _ in range(vec.k5):
        a, p, b, c = take(), take(), take(), take()
        edges += [(0, a), (a, p), (a, b), (b, c)]
        attachments.append((5, {"link": a, "leaf2": p, "mid": b, "leaf3": c}))
    for _ in range(vec.k6):
        a, c, y, s, z = take(), take(), take(), take(), take()
        edges += [(0, a), (a, c), (c, y), (c, s), (s, z)]
        attachments.append((6, {"link": a, "hub": c, "leaf3": y, "mid": s, "leaf4": z}))

    g = Graph(nxt, edges)
    spec = FamilySpec(
        kind="attachment_tree",
        params={"vector": vec.as_tuple(), "order": nxt},
        distinguished={"root": 0},
        attachments=tuple(attachments),
    )
    return g, spec


def canonical_set(spec: FamilySpec) -> VertexSet:
    """The always-verifying code of an attachment tree.

    Root in; type-2 attachments fully in except, when there is no type-1
    attachment, the distance-2 leaf of the first type-2 attachment;
    type-3/4 drop their far leaf; type-5 drops its distance-2 leaf;
    type-6 drops its distance-3 leaf.  Two small trees where the root is
    a degree-2 support vertex instead keep everything except a single
    designated leaf.
    """
    if spec.kind != "attachment_tree":
        raise NotInFamily(f"canonical set undefined for kind {spec.kind!r}")
    vec = tuple(spec.params["vector"])
    n = spec.params["order"]
    atts = spec.attachments
    full = (1 << n) - 1
    if vec == (1, 0, 1, 0, 0, 0):
        roles = next(r for t, r in atts if t == 3)
        return VertexSet(n, mask=full ^ (1 << roles["leaf3"]))
    if vec == (1, 0, 0, 0, 1, 0):
        roles = next(r for t, r in atts if t == 5)
        return VertexSet(n, mask=full ^ (1 << roles["leaf2"]))

    members = {spec.distinguished["root"]}
    k1 = vec[0]
    dropped_type2_leaf = False
    for t, roles in atts:
        if t == 1:
            continue
        if t == 2:
            members.add(roles["link"])
            if k1 == 0 and not dropped_type2_leaf:
                dropped_type2_leaf = True
            else:
                members.add(roles["leaf2"])
        elif t == 3:
            members.update((roles["link"], roles["mid"]))
        elif t == 4:
            members.update((roles["link"], roles["v2"], roles["v3"]))
        elif t == 5:
            members.update((roles["link"], roles["mid"], roles["leaf3"]))
        elif t == 6:
            members.update((roles["link"], roles["hub"], roles["mid"], roles["leaf4"]))
    return VertexSet(n, members)


def _subtree_children(g: Graph, root: int, link: int):
    """Children map of the branch hanging at ``link`` away from ``root``."""
    children: dict[int, list[int]] = {link: []}
    order = [link]
    stack = [(link, root)]
    while stack:
        u, parent = stack.pop()
        for v in sorted(g.neighbors(u)):
            if v != parent:
                children[u].append(v)
                children[v] = []
                order.append(v)
                stack.append((v, u))
    return children, order


def _branch_shape(g: Graph, root: int, link: int) -> tuple[int, dict] | None:
    """Classify the branch at ``link`` as one attachment type, if any."""
    children, order = _subtree_children(g, root, link)
    size = len(order)
    if size == 1:
        return 1, {"link": link}
    if size == 2:
        b = children[link][0]
        return 2, {"link": link, "leaf2": b}
    if size == 3:
        if len(children[link]) == 1:
            b = children[link][0]
            if len(children[b]) == 1:
                return 3, {"link": link, "mid": b, "leaf3": children[b][0]}
        return None
    if size == 4:
        if len(children[link]) == 1:
            b = children[link][0]
            if len(children[b]) == 1:
                c = children[b][0]
                if len(children[c]) == 1:
                    return 4, {"link": link, "v2": b, "v3": c, "leaf4": children[c][0]}
            return None
        if len(children[link]) == 2:
            x, y = children[link]
            for p, b in ((x, y), (y, x)):
                if not children[p] and len(children[b]) == 1 and not children[children[b][0]]:
                    return 5, {"link": link, "leaf2": p, "mid": b, "leaf3": children[b][0]}
        return None
    if size == 5:
        if len(children[link]) == 1:
            hub = children[link][0]
            if len(children[hub]) == 2:
                x, y = children[hub]
                for leaf, s in ((x, y), (y, x)):
                    if (
                        not children[leaf]
                        and len(children[s]) == 1
                        and not children[children[s][0]]
                    ):
                        return 6, {
                            "link": link,
                            "hub": hub,
                            "leaf3": leaf,
                            "mid": s,
                            "leaf4": children[s][0],
                        }
        return None
    return None


def recognize_family_rooted(g: Graph, root: int) -> FamilySpec | None:
    """Match the tree against the family with the given root, or None.

    No attachment has more than 5 vertices, so a root of degree below
    (n - 1) / 5 is rejected without walking its branches.
    """
    if g.n < 2 or g.n > 1 + 5 * g.degree(root):
        return None
    branches = []
    for link in sorted(g.neighbors(root)):
        shape = _branch_shape(g, root, link)
        if shape is None:
            return None
        branches.append(shape)
    counts = [0] * 6
    for t, _ in branches:
        counts[t - 1] += 1
    vec = AttachmentVector.of(counts)
    if not vec.is_admissible():
        return None
    if vec.order() != g.n:
        return None
    branches.sort(key=lambda item: (item[0], item[1]["link"]))
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


def as_subdivided_star(g: Graph) -> tuple[int, int] | None:
    """(center, k) if the graph is a subdivided star with k >= 2 legs."""
    if g.n < 5 or g.n % 2 == 0 or g.edge_count != g.n - 1:
        return None
    k = (g.n - 1) // 2
    for c in range(g.n):
        if g.degree(c) != k:
            continue
        ok = True
        for s in g.neighbors(c):
            if g.degree(s) != 2:
                ok = False
                break
            other = next(v for v in g.neighbors(s) if v != c)
            if g.degree(other) != 1:
                ok = False
                break
        if ok:
            return c, k
    return None


# ---------------------------------------------------------------------------
# Enumeration substrates for the audit harness

TREE_CAP = 18
GRAPH_CAP = 7


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All free trees on ``n`` vertices, one per isomorphism class."""
    if not 1 <= n <= TREE_CAP:
        raise BadParam(f"tree enumeration supports 1 <= n <= {TREE_CAP}, got {n}")
    if n == 1:
        yield Graph(1)
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for t in nx.nonisomorphic_trees(n):
        yield Graph(n, list(t.edges()))


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
        if _passes_filters(adj, n, connected, twin_free, c4_free, max_deg):
            yield Graph._from_adj(tuple(adj))


def enumerate_graph_classes(
    n: int,
    connected: bool = False,
    twin_free: bool = False,
    c4_free: bool = False,
    max_deg: int | None = None,
) -> Iterator[tuple[Graph, int]]:
    """One canonical graph per isomorphism class on ``n`` vertices, with
    the number of labeled graphs in that class.

    Classes are grown one vertex at a time: deleting a vertex from a
    graph on ``k + 1`` vertices leaves a graph on ``k`` vertices, which
    is 4-cycle-free if the larger one was, so every class on ``k + 1``
    vertices is a class on ``k`` vertices plus a new vertex joined to
    some neighbour set.  With ``c4_free`` only neighbour sets in which
    no two vertices already share a neighbour are tried; these are
    exactly the ones that create no 4-cycle.  Each level is
    deduplicated by canonical form.  Connectivity, twin-freeness and the
    degree cap are checked on level ``n`` only, before canonical
    labeling (they do not depend on the labels); the first two do not
    survive every deletion.

    Each surviving class is then relabeled in all ``n!`` ways.  The
    distinct edge sets give its labeled count ``n!/|Aut|`` and the first
    step at which the Gray-code sweep of ``enumerate_small_graphs``
    visits it; classes are yielded in that order, so the output matches
    a deduplicated labeled sweep without running one.
    """
    if not 1 <= n <= GRAPH_CAP:
        raise BadParam(f"exhaustive enumeration supports 1 <= n <= {GRAPH_CAP}, got {n}")
    level = [()]
    for k in range(n):
        grown: dict[tuple[int, ...], None] = {}
        for adj in level:
            for nb in range(1 << k):
                if c4_free and any((a & nb).bit_count() > 1 for a in adj):
                    continue
                new = tuple(a | (nb >> v & 1) << k for v, a in enumerate(adj)) + (nb,)
                if k == n - 1 and not _passes_filters(new, n, connected, twin_free, False, max_deg):
                    continue
                grown[canonical_graph(Graph._from_adj(new)).adj] = None
        level = list(grown)
    found = []
    for adj in level:
        g = Graph._from_adj(adj)
        first_step, labeled = _gray_orbit(g)
        found.append((first_step, g, labeled))
    found.sort(key=lambda item: item[0])
    for _, g, labeled in found:
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


def _passes_filters(adj, n, connected, twin_free, c4_free, max_deg) -> bool:
    if max_deg is not None and any(m.bit_count() > max_deg for m in adj):
        return False
    if twin_free:
        if len(set(adj)) != n:
            return False
    if connected:
        seen_mask = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen_mask
            seen_mask |= nxt
        if seen_mask != (1 << n) - 1:
            return False
    if c4_free:
        for u in range(n):
            au = adj[u]
            for v in range(u + 1, n):
                if (au & adj[v] & ~(1 << u) & ~(1 << v)).bit_count() >= 2:
                    return False
    return True

"""Bound-certified IO-code construction for trees and 4-cycle-free graphs.

``construct_code`` is the one entry point.  It emits a code together
with a machine-checkable trace of the decomposition steps that produced
it.  For a connected twin-free 4-cycle-free graph of order at least 5
(or the paw) with maximum degree at most ``delta`` (``delta >= 3``) the
output satisfies ``2*delta*|S| <= (2*delta - 1)*n`` except when the
graph is the subdivided star on ``delta`` legs, which is flagged.  A
tree is decomposed by the tree rules (``_build_tree``); any other graph
by deleting cycle edges (or, when every such deletion creates open
twins, a degree-2 cycle vertex wedged between two supports) until a
tree or the paw is left (``_build_graph``); one of the two deletions
always applies, so it has no fallback.

The tree decomposition tries, in order: family recognition with a
canonical set; splitting off a subdivided-star component hanging at its
center; rooting at a longest path and splitting off the branch at the
second, third or fourth path vertex; and peeling a 5- or 6-vertex path
tail.  A case that does not apply is passed over; if none applies along
any longest path (three of the 3,149 twin-free trees with n <= 16 reach
this), an exact solve finishes the sub-instance and the trace carries a
warning.  All bound arithmetic is integer-exact.

Every part is connected, twin-free and 4-cycle-free, as the input is,
and has at least 5 vertices unless it is the paw, the graph
decomposition's one base case.  A tree split changes only its cut
endpoints' neighbourhoods, a cycle-edge deletion only the edge's
endpoints' and a cycle-vertex deletion only its neighbours', so twins
are looked for at those vertices alone (``_twin_of``).  A far side whose
cut leaf became an open twin is repaired by deleting that leaf.

Every sub-instance is a vertex mask over an adjacency tuple: the
input's, or a copy with a deleted cycle edge's two entries changed.  So
its vertices keep their input labels, no level copies a ``Graph``, and
the family, subdivided-star, star-plus-edge and cycle rules read the
mask in those labels.  A tree
split changes the degrees of its cut endpoints alone, so a part carries
what it found to both sides (``_Part.side``): its leaf and leg masks and
its sorted star-component candidates, with only the cut endpoint, its
neighbours and the centers next to a changed leg tested again.  Its BFS
layers carry over too, as shared lists with the range of each side
(``graphs._carry_layers``): cutting off a pendant subtree changes no
remaining distance, and the near side's walk from its cut endpoint gives
the far side's layers from the other one.  So the path heads of a part
whose longest-path ends are known cost no BFS, and a level otherwise
costs its near side, a few neighbourhoods and one BFS from each new
path end.  A split is decided before it builds anything, so nothing is
rolled back, and the merged code needs no check (``_split``), nor does a
star-plus-edge code (``_build_graph``): ``_decompose`` checks the whole
input's code alone.  Only a part built without a parent scans itself:
the input and the first tree a graph decomposition reaches.  A part is
relabeled into a ``Graph`` only for the tree decomposition's exact
fallback.  The decomposition runs on one explicit stack (``_drive``), so
its depth costs no interpreter frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Sequence

# graphs._bits is reached through its module: the per-layer tracer wraps
# functions imported by name, and a bit iterator is not a layer call
from . import graphs
from .errors import (
    BadParam,
    ConstructionError,
    DegreeExceeded,
    Disconnected,
    FourCyclePresent,
    TooSmall,
)
from .families import (
    _LARGEST_SHAPE,
    _canonical_code,
    _family_match,
    _family_match_rooted,
    _leaves_and_legs,
    _star_plus_edge_leave_out,
    _subdivided_star,
    _subdivided_star_leave_out,
)
from .graphs import (
    Graph,
    VertexSet,
    _carry_layers,
    _diametral_paths,
    _induced,
    _induced_cycle,
    _layers,
    has_four_cycle,
    is_connected,
    max_degree,
)
from .solver import solve
from .verify import is_io_code, require_admissible

__all__ = [
    "BoundStatus",
    "TraceStep",
    "ConstructionTrace",
    "check_bound",
    "construct_code",
]


class BoundStatus(str, Enum):
    WITHIN_BOUND = "within_bound"
    EXCEPTIONAL_STAR = "exceptional_star"
    VIOLATION = "violation"


def check_bound(n: int, size: int, delta: int, *, is_exceptional_star: bool = False) -> BoundStatus:
    """Integer-exact comparison of a code size against the target fraction."""
    if n <= 0 or size < 0 or delta < 1:
        raise BadParam("check_bound needs positive n, delta and size >= 0")
    if is_exceptional_star and size * (2 * delta + 1) == 2 * delta * n:
        return BoundStatus.EXCEPTIONAL_STAR
    if 2 * delta * size <= (2 * delta - 1) * n:
        return BoundStatus.WITHIN_BOUND
    return BoundStatus.VIOLATION


@dataclass
class TraceStep:
    case: str
    detail: dict
    contributed: tuple[int, ...] = ()


@dataclass
class ConstructionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    exceptional_star: bool = False

    def add(self, case: str, detail: dict | None = None, contributed=()) -> None:
        self.steps.append(TraceStep(case, dict(detail or {}), tuple(sorted(contributed))))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def as_dict(self) -> dict:
        return {
            "steps": [
                {"case": s.case, "detail": s.detail, "contributed": list(s.contributed)}
                for s in self.steps
            ],
            "warnings": list(self.warnings),
            "exceptional_star": self.exceptional_star,
        }


class _Part:
    """A sub-instance: the vertex mask ``mask`` of the adjacency tuple
    ``adj``, whose indices are the input's labels; the BFS layer records within
    the mask already known, by start (``graphs._restrict_layers``); and,
    once ``scan`` has run or a parent carried them, the masks of its
    leaves and legs and its star-component candidates."""

    __slots__ = ("adj", "mask", "layers", "leaves", "legs", "stars")

    def __init__(self, adj: tuple[int, ...], mask: int, layers: dict | None = None):
        self.adj = adj
        self.mask = mask
        self.layers = {} if layers is None else layers
        self.stars = None

    def scan(self, delta: int) -> list[tuple]:
        """The star-component candidates as ``(k, edge, center, other)``, in
        ``_scan``'s order; scanned on the first call unless carried."""
        if self.stars is None:
            self.leaves, self.legs, self.stars = _scan(self.adj, self.mask, delta)
        return self.stars

    def side(self, keep: int, end: int, delta: int, layers: dict) -> _Part:
        """The sub-tree ``keep`` left when the pendant subtree hanging at
        ``end`` is cut off this tree part, with the layer records ``layers``.

        Only ``end`` lost a neighbour.  So only it can become or stop
        being a leaf; only it, and its neighbours if it did, a leg; and
        only ``end`` and the neighbours of a vertex that became or stopped
        being a leg a star center.  The scan carries over with those
        vertices tested again: at most ``delta**2`` reads and one filter of
        the candidate list.
        """
        stars = self.scan(delta)
        adj = self.adj
        side = _Part(adj, keep, layers)
        bit = 1 << end
        nbrs = adj[end] & keep
        leaves = side.leaves = self.leaves & keep & ~bit | (nbrs.bit_count() == 1) << end
        legs = self.legs & keep
        for x in [end, *graphs._bits(nbrs)] if (leaves ^ self.leaves) & bit else [end]:
            around = adj[x] & keep
            legs = legs & ~(1 << x) | (around.bit_count() == 2 and around & leaves != 0) << x
        retest = bit
        for x in graphs._bits(legs ^ self.legs & keep):
            retest |= adj[x] & keep
        side.legs = legs
        stay = keep & ~retest
        side.stars = [entry for entry in stars if stay >> entry[2] & 1]
        side.stars += _star_entries(adj, keep, legs, retest, delta)
        side.stars.sort()
        return side

    def degree(self, v: int) -> int:
        return (self.adj[v] & self.mask).bit_count()


def _twin_of(adj: Sequence[int], mask: int, v: int) -> int | None:
    """The least other vertex of ``mask`` with ``v``'s neighbourhood within
    it, or None.  Only the neighbours of one neighbour of ``v`` are read, so
    ``v`` needs a neighbour in ``mask``."""
    own = adj[v] & mask
    for w in graphs._bits(adj[own.bit_length() - 1] & mask):
        if w != v and adj[w] & mask == own:
            return w
    return None


_PAW_DEGREES = [1, 2, 2, 3]


def _check_delta(delta: int | None) -> None:
    """Reject a degree bound below 3; ``None`` (the audits' per-instance
    bound) passes."""
    if delta is not None and delta < 3:
        raise BadParam(f"delta must be at least 3, got {delta}")


def _validate(g: Graph, delta: int) -> None:
    """Raise the typed error of the first hypothesis the input fails.

    The paw is the one input below order 5.  A connected input of order 4
    or more has no isolated vertex, so ``require_admissible`` can only
    report twins, and one with ``n - 1`` edges is a tree, so only an input
    with ``m >= n`` is searched for a 4-cycle.
    """
    _check_delta(delta)
    paw = g.n == 4 and sorted(g.degree_sequence()) == _PAW_DEGREES
    if g.n < 5 and not paw:
        raise TooSmall(f"need order >= 5, got {g.n}")
    if not is_connected(g):
        raise Disconnected("input must be connected")
    require_admissible(g)
    if g.edge_count >= g.n and has_four_cycle(g):
        raise FourCyclePresent("input contains a 4-cycle")
    if max_degree(g) > delta:
        raise DegreeExceeded(f"maximum degree {max_degree(g)} exceeds delta={delta}")


def _decompose(build, g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """Code and trace of a validated input, by the decomposition ``build``.

    Flags the subdivided star on ``delta`` legs, the one input allowed
    above the bound, runs ``build`` on the whole graph through ``_drive``
    and verifies the code it returns.  Every step works on a smaller tree
    or a graph with fewer cycles, so the decomposition ends on its own;
    its depth costs entries of ``_drive``'s stack, not interpreter frames,
    so no input is too deep.
    """
    full = (1 << g.n) - 1
    star = _subdivided_star(g.adj, full)
    trace = ConstructionTrace(exceptional_star=star is not None and star[1] == delta)
    result = VertexSet(g.n, mask=_drive(build(_Part(g.adj, full), delta, trace)))
    if not is_io_code(g, result).ok:
        raise ConstructionError("constructed set failed final verification", trace)
    return result, trace


def _drive(builder) -> int:
    """The code a builder returns, with every sub-instance it needs built
    on one explicit stack.

    A builder is a generator over one part: it yields the builder of each
    sub-instance whose code it needs, is sent that code back, and returns
    its own code as a label mask.  Any error raised in a sub-instance ends
    the whole construction, as it would through nested calls.
    """
    stack = [builder]
    code = None
    while stack:
        try:
            sub = stack[-1].send(code)
        except StopIteration as done:
            stack.pop()
            code = done.value
        else:
            stack.append(sub)
            code = None
    return code


# ---------------------------------------------------------------------------
# Tree decomposition


def _build_tree(part: _Part, delta: int, trace: ConstructionTrace):
    # No part has fewer than 5 vertices: far sides and twin-pruned rests are
    # checked, a deep branch's near side holds path[:p + 1] and 2, 1 or 1
    # more branches at p = 2, 3 or 4, star and tail near sides are never
    # built, and a graph part is the paw or has 5 or more (``_build_graph``).
    n = part.mask.bit_count()
    # the family match rejects a tree of more than 1 + _LARGEST_SHAPE times
    # its maximum degree vertices, and no degree exceeds delta
    if n <= 1 + _LARGEST_SHAPE * delta:
        spec = _family_match(part.adj, part.mask)
        if spec is not None:
            code = _canonical_code(spec, part.mask)
            trace.add(
                "family_canonical",
                {"root": spec.distinguished["root"], "vector": list(spec.params["vector"]), "order": n},
                graphs._bits(code),
            )
            return code

    for k, _, center, other in part.scan(delta):
        code = yield from _split(
            part, delta, trace, "star_component_split", center, other,
            partial(_star_near, k), star_patterns=True,
        )
        if code is not None:
            return code

    for path in _diametral_paths(part.adj, part.mask, part.layers, _PATH_HEAD):
        code = yield from _split(part, delta, trace, *_path_rule(part, path))
        if code is not None:
            return code

    reason = "no decomposition case applied"
    g, labels = _induced(part.adj, part.mask)
    trace.warn(f"exhaustive fallback on {g.n}-vertex sub-instance: {reason}")
    code = graphs._mask_of(labels[v] for v in solve(g).code)
    trace.add("exhaustive_fallback", {"reason": reason, "order": g.n}, graphs._bits(code))
    return code


def _scan(adj: Sequence[int], mask: int, delta: int) -> tuple[int, int, list[tuple]]:
    """The leaves, the legs and the sorted star-component candidates of the
    tree that ``mask`` induces, in one pass each: the legs come from
    ``families._leaves_and_legs``, and only the legs' neighbours can be
    centers.  The candidates come fewest star legs first, then lowest
    edge, so the smallest split-off component is tried first."""
    leaves, legs = _leaves_and_legs(adj, mask)
    next_to_legs = 0
    for leg in graphs._members(legs):
        next_to_legs |= adj[leg]
    return leaves, legs, sorted(_star_entries(adj, mask, legs, next_to_legs & mask, delta))


def _star_entries(adj: Sequence[int], mask: int, legs: int, centers: int, delta: int) -> list[tuple]:
    """The star-component candidates ``(k, edge, center, other)`` centered
    in ``centers``, given the tree's legs.

    A center of degree 3 to ``delta`` qualifies when at most one of its
    neighbours is not a leg, and that neighbour (or, if there is none, any
    neighbour) is the far side.  So a center has ``k >= 2`` legs.
    """
    found = []
    for center in graphs._bits(centers):
        nbrs = adj[center] & mask
        rest = nbrs & ~legs
        if not 3 <= nbrs.bit_count() <= delta or rest & (rest - 1):
            continue
        k = nbrs.bit_count() - 1
        for other in graphs._bits(rest or nbrs):
            found.append((k, (min(center, other), max(center, other)), center, other))
    return found


def _split(
    part: _Part,
    delta: int,
    trace: ConstructionTrace,
    case: str,
    u: int,
    v: int,
    near_rule,
    *,
    star_patterns: bool = False,
):
    """Code of a tree part from its split at the edge ``uv``, or None if
    the split does not apply.  That is decided before the split yields a
    sub-builder or records a step, so a miss leaves nothing to undo.

    In a tree every edge is a bridge: one walk from ``u`` that avoids
    ``v`` finds the near side, and the far side, the side of ``v``, is the
    rest; it needs at least 5 vertices.  Only ``v`` lost a neighbour
    there, so its partner is the far side's one possible twin.
    ``near_rule(part, near)`` returns the near code, or None to build the
    near side as a tree of its own (only beside a twin-free far side),
    and the case's own trace detail; ``_far_side_code`` codes the far
    side.  The walk's BFS layers are the near side's from ``u``, and give
    the far side its layers from ``v`` (``graphs._carry_layers``).  The
    merged code is recorded as one ``case`` step with the split edge, the
    far order and whether a twin leaf was pruned.
    """
    near_layers = _layers(part.adj, part.mask ^ (1 << v), u)
    near = sum(near_layers)
    far = part.mask ^ near
    if far.bit_count() < 5:
        return None  # far side too small
    partner = _twin_of(part.adj, far, v)
    if partner is not None and far.bit_count() < 6:
        return None  # pruning the twin leaf ``v`` would leave a far side below 5
    near_code, detail = near_rule(part, near)
    if near_code is None and partner is not None:
        return None  # a pruned far side needs ``u`` in the near code, which a near rule keeps
    near_build = None
    if near_code is None:
        own = part.side(near, u, delta, {u: (near_layers, 0, len(near_layers) - 1)})
        near_build = _build_tree(own, delta, trace)
    far_side = part.side(far, v, delta, _carry_layers(part.layers, far, v, near_layers))
    # The sides carry the layers they need.  While they are built this
    # level holds none, or every waiting level would keep BFS layers of
    # its own.
    part.layers.clear()
    own = near_layers = None  # nor the near side's, which only its builder holds now
    if near_build is not None:
        near_code = yield near_build
    far_code = yield from _far_side_code(far_side, v, partner, delta, trace, star_patterns=star_patterns)
    # No check: the merged code is an IO-code of the part.  Of two IO-codes
    # of the sides, a near trace other than ``u``'s lies in the near side, a
    # far one other than ``v``'s in the far side, and ``u``'s and ``v``'s
    # keep a vertex of their own side, so gaining ``v`` or ``u`` keeps all
    # traces distinct.  The far code falls short of an IO-code of its side
    # only where ``_far_side_code`` pruned ``v``'s twin leaf or cut an
    # absorbed star at a support, both beside a near rule's code (a partner
    # needs one; star patterns come with ``_star_near``).  Every near rule
    # keeps ``u``: ``_star_near`` the center, ``_branch_near`` the family
    # root, ``_tail_near`` path[4].  So ``v``'s trace gains ``u``, seen by no
    # other vertex but ``u``'s near neighbours, and keeps a far vertex theirs
    # lack: the star's center, or the support the partner's trace needs.
    trace.add(
        case,
        {"edge": (u, v), **detail, "far_order": far.bit_count(), "twin_pruned": partner is not None},
        graphs._bits(near_code),
    )
    return near_code | far_code


def _star_near(k: int, part: _Part, near: int) -> tuple[int, dict]:
    """A split-off subdivided star: all of it except its lowest-label leaf,
    as ``families._subdivided_star_leave_out`` leaves it out."""
    left_out = _subdivided_star_leave_out(part.adj, near)
    return near ^ graphs._mask_of(left_out), {"star_legs": k, "near_order": near.bit_count()}


def _far_side_code(
    side: _Part,
    cut: int,
    partner: int | None,
    delta: int,
    trace: ConstructionTrace,
    *,
    star_patterns: bool,
):
    """Code for the component on the far side of a split; ``cut`` is the
    cut endpoint and ``partner`` its open twin there, or None.

    With a partner, both are leaves of one neighbour, as two vertices of
    degree 2 or more with one neighbourhood would close a 4-cycle, and
    ``cut`` is deleted first; ``_split`` leaves 5 or more vertices after
    that, and the near endpoint in the near code to tell ``cut`` from
    ``partner``.  What remains is coded by a stored pattern if it is a
    subdivided star on ``delta`` legs and ``star_patterns`` is set, else
    built by ``_build_tree``.
    """
    rest = side
    if partner is not None:
        keep = side.mask ^ (1 << cut)
        support = (side.adj[cut] & keep).bit_length() - 1
        rest = side.side(keep, support, delta, _carry_layers(side.layers, keep, support, [1 << cut]))
        side.layers.clear()  # the rest carries them, as in ``_split``
        # so the leaves' neighbour keeps degree 2 or more: the rest is twin-free
    adj, order = rest.adj, rest.mask.bit_count()
    # a subdivided star on 2*delta + 1 vertices has delta legs
    star = _subdivided_star(adj, rest.mask) if star_patterns and order == 2 * delta + 1 else None
    if star is not None:
        if partner is not None:  # the pruned leaf's twin partner is the one leaf left out
            code, cut_key = rest.mask ^ (1 << partner), "pruned_leaf"
        else:  # ``cut`` lost a neighbour, so its degree here is below the center's delta
            left_out = _subdivided_star_leave_out(adj, rest.mask, cut)
            code, cut_key = rest.mask ^ graphs._mask_of(left_out), "cut_vertex"
        detail = {"legs": star[1], "order": order, cut_key: cut}
        trace.add("absorbed_star_pattern", detail, graphs._bits(code))
    else:
        code = yield _build_tree(rest, delta, trace)
    if partner is not None:
        trace.add("twin_leaf_pruned", {"leaf": cut, "far_order": side.mask.bit_count()})
    return code


# the path rule reads the first six vertices of a longest path at most
_PATH_HEAD = 6


def _path_rule(part: _Part, path: list[int]):
    """The longest-path case along ``path``, the first ``_PATH_HEAD``
    vertices of a longest path: ``_split``'s case, edge and near rule.

    Needs diameter at least 5.  The support at the path's end has degree
    2: a second leaf there would be a twin of the path's end, and any
    other neighbour would lead past the diameter.  The split is at the
    branch of the second, third or fourth path vertex, the first of
    degree at least 4, 3 and 3 respectively; failing all three, the tail
    hanging at the fourth is peeled.
    """
    # ``path`` has six vertices: a twin-free tree of diameter at most 4 and
    # order 5 or more is a subdivided star with at most one more leaf at its
    # center, a family tree of at most 1 + 2*delta vertices, already coded.
    for position, min_degree in ((2, 4), (3, 3), (4, 3)):
        if part.degree(path[position]) >= min_degree:
            rule = partial(_branch_near, position, path[position])
            return "deep_branch_split", path[position], path[position + 1], rule
    return "path_tail_split", path[4], path[5], partial(_tail_near, path[:5])


def _branch_near(position: int, root: int, part: _Part, near: int) -> tuple[int | None, dict]:
    """A deep branch rooted at path vertex ``root``: its canonical set if it
    is a family tree there, else None, for a code built for it on its own."""
    spec = _family_match_rooted(part.adj, near, root)
    detail = {"position": position, "near_order": near.bit_count(), "recognized_branch": spec is not None}
    return (None if spec is None else _canonical_code(spec, near)), detail


def _tail_near(path: list[int], part: _Part, near: int) -> tuple[int, dict]:
    """The tail at the fourth path vertex, which holds the first five path
    vertices: without the path end if that is all, without the extra leaf
    if there is one more vertex."""
    tail = graphs._mask_of(path)
    # The one other tail, as path[3] and path[4] have degree 2 and a
    # twin-free branch of depth 2 or less at path[2] is a leaf or a leg, has
    # a leg there.  Then path[2] is a star center whose split at path[3] ran
    # first and missed on a far side below 5: two IO-codes merge across a
    # bridge, and path[3]'s one possible twin there is path[5] as a leaf, as
    # path[4] has degree 2.  The tail's far side is smaller still, so
    # ``_split`` returned before calling this rule.
    return (tail ^ (1 << path[0]) if near == tail else tail), {"tail_order": near.bit_count()}


# ---------------------------------------------------------------------------
# Graph decomposition


def _build_graph(part: _Part, delta: int, trace: ConstructionTrace):
    adj, mask = part.adj, part.mask
    members = graphs._members(mask)
    degrees = [(adj[v] & mask).bit_count() for v in members]
    n, edge_count = len(members), sum(degrees) // 2
    if edge_count == n - 1:
        trace.add("tree_reduction", {"order": n})
        return (yield _build_tree(part, delta, trace))
    if n == 4 and sorted(degrees) == _PAW_DEGREES:
        code = graphs._mask_of(v for v, degree in zip(members, degrees) if degree >= 2)
        trace.add("paw_base", {}, graphs._bits(code))
        return code

    # The part is connected, as each deletion below keeps it, and has an
    # edge more than a tree, so it has a cycle: a chordless one.
    cycle = _induced_cycle(adj, mask)
    cyc_edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]

    def without(x: int, y: int) -> tuple[int, ...]:
        cut = list(adj)
        cut[x] ^= 1 << y
        cut[y] ^= 1 << x
        return tuple(cut)

    # unicyclic and of odd order, as a subdivided star is: look for a
    # star-plus-edge pattern, coded by ``families._star_plus_edge_leave_out``
    if edge_count == n and n % 2:
        for edge in cyc_edges:
            tree = without(*edge)
            star = _subdivided_star(tree, mask)
            if star is None:
                continue
            # No check: the code is an IO-code of the part.  Say the star has
            # center c and k >= 2 legs c-s_i-l_i, and e is the extra edge.  An
            # edge s_i-l_j (i != j) would close the 4-cycle c s_i l_j s_j, so
            # e joins two supports, the center and a leaf, or two leaves.  The
            # traces N(v) & code, none empty, are pairwise distinct:
            # - supports s_a, s_b joined; l_a, l_b left out.  Each l_i sees
            #   {s_i}; s_a sees {c, s_b}, s_b {c, s_a}, another s_i {c, l_i};
            #   c sees all k supports.  Distinct singletons, distinct pairs
            #   holding c, and c's trace, of k >= 2 vertices without c.
            # - c joined to l_b; the least other leaf l_a left out.  s_a sees
            #   {c} and each l_i other than l_b {s_i}; s_b sees {c, l_b},
            #   another s_i {c, l_i}, l_b {c, s_b}; c sees all supports and
            #   l_b, k + 1 >= 3 vertices.
            # - leaves l_a < l_b joined; l_a left out, and s_a too if k >= 3.
            #   At k = 2 the part is the 5-cycle c s_a l_a l_b s_b, with the
            #   traces {s_a, s_b}, {c}, {s_a, l_b}, {s_b} and {c, l_b}.  At
            #   k >= 3 the singletons are s_a's {c}, l_a's {l_b}, l_b's {s_b}
            #   and {s_i} for each other l_i; the pairs holding c are s_b's
            #   {c, l_b} and {c, l_i} for each other s_i; c sees the k - 1 >= 2
            #   supports but s_a.  (At k = 2, leaving s_a out would give c and
            #   l_b the one trace {s_b}.)
            variant, left_out = _star_plus_edge_leave_out(tree, mask, star[0], edge)
            code = mask ^ graphs._mask_of(left_out)
            detail = {"variant": variant, "legs": star[1], "edge": edge}
            trace.add("star_plus_edge_pattern", detail, graphs._bits(code))
            return code

    for edge in cyc_edges:
        cut = without(*edge)
        # only the endpoints changed, and each keeps its other cycle neighbour
        if all(_twin_of(cut, mask, x) is None for x in edge):
            trace.add("cycle_edge_removed", {"edge": edge})
            return (yield _build_graph(_Part(cut, mask), delta, trace))

    # Every deletion left twins.  Deleting the cycle edge xy gives x a twin
    # only if x has degree 2, or a twin would share 2 neighbours with it.
    # So a triangle has two vertices of degree 2, and deleting the edge from
    # one to the third leaves none.  On a longer, chordless cycle x's twin
    # is a leaf at its other cycle neighbour, a support, whose degree of 3
    # or more gains it no twin on its edge to x.  So the cycle alternates
    # supports and degree-2 vertices, and the part has 6 + 3 vertices or
    # more, 8 or more after the deletion.  Deleting a degree-2 one leaves
    # its neighbours joined by the rest of the cycle, each with its leaf and
    # another cycle neighbour: no twin shares both.
    v0 = min(c for c in cycle if part.degree(c) == 2)
    trace.add("cycle_vertex_removed", {"vertex": v0})
    return (yield _build_graph(_Part(adj, mask ^ (1 << v0)), delta, trace))


def construct_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """IO-code of a connected twin-free 4-cycle-free graph within the bound.

    The one constructor.  Accepts the one order-4 base case, the paw (a
    triangle with a pendant); all other inputs need order at least 5.  An
    invalid input raises the typed error of the first check it fails.  A
    tree is decomposed by ``_build_tree``, any other graph by
    ``_build_graph``, and ``_decompose`` finishes either: it verifies the
    code and sets ``trace.exceptional_star`` on the subdivided star on
    ``delta`` legs, whose code then has the known optimal size
    ``2*delta``, above the bound.
    """
    _validate(g, delta)
    return _decompose(_build_tree if g.edge_count == g.n - 1 else _build_graph, g, delta)

"""Bound-certified IO-code construction for trees and 4-cycle-free graphs.

Both constructors emit a code together with a machine-checkable trace of
the decomposition steps that produced it.  For a twin-free tree of order
at least 5 with maximum degree at most ``delta`` (``delta >= 3``) the
output satisfies ``2*delta*|S| <= (2*delta - 1)*n`` except when the tree
is the subdivided star on ``delta`` legs, which is flagged.  The graph
constructor extends this to connected twin-free graphs without 4-cycles
by deleting cycle edges (or, when every such deletion creates open
twins, a degree-2 cycle vertex wedged between two supports).

The tree decomposition tries, in order: family recognition with a
canonical set; splitting off a subdivided-star component hanging at its
center; rooting at a longest path and splitting off the branch at the
second, third or fourth path vertex; and peeling a 5- or 6-vertex path
tail.  Every case is validated on the spot; if no case applies along
any longest path (three of the 3,149 twin-free trees with n <= 16 reach
this), an exact solve finishes the sub-instance and the trace carries a
warning.  All bound arithmetic is integer-exact.

Every part is twin-free, as the input is.  A tree split changes only its
cut endpoints' neighbourhoods, a cycle-edge deletion only the edge's
endpoints' and a cycle-vertex deletion only its neighbours', so twins
are looked for at those vertices alone (``_twin_of``).  A far side whose
cut leaf became an open twin is repaired by deleting that leaf.

Every sub-instance is a vertex mask over the input's adjacency, so its
vertices keep their input labels and no level copies the remaining tree.
Each level reads ``adj[v] & mask`` over its own part in single passes:
the leaves (``families._leaves_and_legs``), then the legs and their
neighbours for the star-component candidates, and the merged code's
literal IO-code check.  The near side of a split is one walk from its
cut endpoint.  BFS layer masks give the diametral paths; they carry
over to both sides of a split, since cutting off a pendant subtree
changes no remaining distance, so BFS runs only from a start that no
enclosing part had.  A part is relabeled into a ``Graph``
only for a rule that takes one: family recognition (a part of at most
``1 + 5*delta`` vertices, or a branch small enough for its root), a
split-off or absorbed subdivided star, the exact fallback and the graph
constructor's levels.  The decomposition runs on one explicit stack
(``_drive``), so its depth costs no interpreter frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from operator import itemgetter
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
    NotATree,
    TooSmall,
)
from .families import (
    _LARGEST_SHAPE,
    _leaves_and_legs,
    _star_plus_edge_leave_out,
    _subdivided_star_leave_out,
    as_subdivided_star,
    canonical_set,
    recognize_family,
    recognize_family_rooted,
)
from .graphs import (
    Graph,
    VertexSet,
    _diametral_paths,
    _induced,
    _reach,
    _restrict_layers,
    delete_edge,
    find_induced_cycle,
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
    "construct_tree_code",
    "construct_graph_code",
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

    def mark(self) -> tuple[int, int]:
        return len(self.steps), len(self.warnings)

    def rollback(self, mark: tuple[int, int]) -> None:
        """Discard steps recorded by an abandoned decomposition attempt."""
        del self.steps[mark[0] :]
        del self.warnings[mark[1] :]

    def as_dict(self) -> dict:
        return {
            "steps": [
                {"case": s.case, "detail": s.detail, "contributed": list(s.contributed)}
                for s in self.steps
            ],
            "warnings": list(self.warnings),
            "exceptional_star": self.exceptional_star,
        }


class _CaseMiss(Exception):
    """A decomposition case did not apply; try the next candidate."""


class _Part:
    """A sub-instance: the vertex mask ``mask`` of the graph ``g``, whose
    vertex indices are the input's labels, and the BFS layers within the
    mask already known from some of its vertices, by start."""

    __slots__ = ("g", "mask", "layers")

    def __init__(self, g: Graph, mask: int, layers: dict[int, list[int]] | None = None):
        self.g = g
        self.mask = mask
        self.layers = {} if layers is None else layers

    def side(self, keep: int) -> _Part:
        """The sub-tree ``keep`` left when pendant subtrees are cut off this
        tree part; the known layers from its vertices carry over."""
        carried = {s: _restrict_layers(layers, keep) for s, layers in self.layers.items() if keep >> s & 1}
        return _Part(self.g, keep, carried)

    def degree(self, v: int) -> int:
        return (self.g.adj[v] & self.mask).bit_count()

    def verifies(self, code: int) -> bool:
        """Whether the label mask ``code`` is an IO-code of this part, by the
        definition: every trace ``N(v) & code`` is nonempty and no two agree."""
        traces = [self.g.adj[v] & code for v in graphs._members(self.mask)]
        return 0 not in traces and len(set(traces)) == len(traces)


def _twin_of(adj: Sequence[int], mask: int, v: int) -> int | None:
    """The least other vertex of ``mask`` with ``v``'s neighbourhood within
    it, or None.  Only the neighbours of one neighbour of ``v`` are read, so
    ``v`` needs a neighbour in ``mask``."""
    own = adj[v] & mask
    for w in graphs._members(adj[own.bit_length() - 1] & mask):
        if w != v and adj[w] & mask == own:
            return w
    return None


def _fallback_exact(part: _Part, trace: ConstructionTrace, reason: str) -> int:
    g, labels = _induced(part.g, part.mask)
    trace.warn(f"exhaustive fallback on {g.n}-vertex sub-instance: {reason}")
    code = graphs._mask_of(labels[v] for v in solve(g).code)
    trace.add("exhaustive_fallback", {"reason": reason, "order": g.n}, graphs._bits(code))
    return code


_PAW_DEGREES = [1, 2, 2, 3]


def _check_delta(delta: int | None) -> None:
    """Reject a degree bound below 3; ``None`` (the audits' per-instance
    bound) passes."""
    if delta is not None and delta < 3:
        raise BadParam(f"delta must be at least 3, got {delta}")


def _validate(g: Graph, delta: int, *, tree: bool) -> None:
    """Raise the typed error of the first hypothesis the input fails.

    The paw is the graph entry's one input below order 5.  A connected
    input of order 4 or more has no isolated vertex, so
    ``require_admissible`` can only report twins.
    """
    _check_delta(delta)
    paw = not tree and g.n == 4 and sorted(g.degree_sequence()) == _PAW_DEGREES
    if g.n < 5 and not paw:
        raise TooSmall(f"need order >= 5, got {g.n}")
    if not is_connected(g):
        raise Disconnected("input must be connected")
    if tree and g.edge_count != g.n - 1:
        raise NotATree("input has a cycle")
    require_admissible(g)
    if not tree and has_four_cycle(g):
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
    star = as_subdivided_star(g)
    trace = ConstructionTrace(exceptional_star=star is not None and star[1] == delta)
    result = VertexSet(g.n, mask=_drive(build(_Part(g, (1 << g.n) - 1), delta, trace)))
    if not is_io_code(g, result).ok:
        raise ConstructionError("constructed set failed final verification", trace)
    return result, trace


def _drive(builder) -> int:
    """The code a builder returns, with every sub-instance it needs built
    on one explicit stack.

    A builder is a generator over one part: it yields the builder of each
    sub-instance whose code it needs, is sent that code back, and returns
    its own code as a label mask.  Its ``try`` / ``_CaseMiss`` /
    ``trace.rollback`` blocks therefore work as they would around nested
    calls: an outer split can still be undone after an inner one
    succeeded.  No builder lets a ``_CaseMiss`` escape, so any error
    raised in a sub-instance ends the whole construction, as it would
    through nested calls.
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
# Tree constructor


def _build_tree(part: _Part, delta: int, trace: ConstructionTrace):
    n = part.mask.bit_count()
    if n < 5:
        return _fallback_exact(part, trace, "sub-instance below order 5")

    # recognize_family rejects a tree of more than 1 + _LARGEST_SHAPE times
    # its maximum degree vertices, and no degree exceeds delta
    if n <= 1 + _LARGEST_SHAPE * delta:
        g, labels = _induced(part.g, part.mask)
        spec = recognize_family(g)
        if spec is not None:
            code = graphs._mask_of(labels[v] for v in canonical_set(spec))
            trace.add(
                "family_canonical",
                {
                    "root": labels[spec.distinguished["root"]],
                    "vector": list(spec.params["vector"]),
                    "order": n,
                },
                graphs._bits(code),
            )
            return code

    for center, other, k in _star_component_candidates(part.g.adj, part.mask, delta):
        mark = trace.mark()
        try:
            return (
                yield from _split(
                    part, delta, trace, "star_component_split", center, other,
                    partial(_star_near, k), star_patterns=True,
                )
            )
        except _CaseMiss:
            trace.rollback(mark)

    # the path rule reads the first six vertices at most, and a whole path
    # held by every waiting level would cost memory quadratic in its length
    for path in map(_PATH_HEAD, _diametral_paths(part.g.adj, part.mask, part.layers)):
        mark = trace.mark()
        try:
            return (yield from _split(part, delta, trace, *_path_rule(part, path)))
        except _CaseMiss:
            trace.rollback(mark)

    return _fallback_exact(part, trace, "no decomposition case applied")


def _star_component_candidates(adj: Sequence[int], mask: int, delta: int):
    """Edges of the tree that ``mask`` induces whose removal leaves a
    subdivided star centered at an endpoint.

    Ordered by fewest star legs, then lowest edge, matching the preference
    for the smallest split-off component.  The legs come from
    ``families._leaves_and_legs``; a center of degree 3 to ``delta``
    qualifies when at most one of its neighbours is not a leg, and that
    neighbour (or, if there is none, any neighbour) is the far side.  So
    a center has at least two legs, and only the legs' neighbours are read.
    """
    _, legs = _leaves_and_legs(adj, mask)
    next_to_legs = 0
    for leg in graphs._members(legs):
        next_to_legs |= adj[leg]
    found = []
    for center in graphs._members(next_to_legs & mask):
        nbrs = adj[center] & mask
        rest = nbrs & ~legs
        if not 3 <= nbrs.bit_count() <= delta or rest & (rest - 1):
            continue
        k = nbrs.bit_count() - 1
        for other in graphs._bits(rest or nbrs):
            found.append((k, (min(center, other), max(center, other)), center, other))
    found.sort()
    return [(center, other, k) for k, _, center, other in found]


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
    """Code of a tree part from its split at the edge ``uv``.

    In a tree every edge is a bridge: one walk from ``u`` that avoids
    ``v`` finds the near side, and the far side, the side of ``v``, is the
    rest; it needs at least 5 vertices.  Only ``v`` lost a neighbour
    there, so its partner is the far side's one possible twin.
    ``near_rule(part, near)`` returns the near code, or None to build the
    near side as a tree of its own (only beside a twin-free far side),
    and the case's own trace detail; ``_far_side_code`` codes the far
    side.  The merged code is verified on the part and recorded as one
    ``case`` step with the split edge, the far order and whether a twin
    leaf was pruned.  Any failure raises ``_CaseMiss``.
    """
    near = _reach(part.g.adj, part.mask ^ (1 << v), u)
    far = part.mask ^ near
    if far.bit_count() < 5:
        raise _CaseMiss("far side too small")
    partner = _twin_of(part.g.adj, far, v)
    near_code, detail = near_rule(part, near)
    if near_code is None and partner is not None:
        raise _CaseMiss("branch outside family while far side has twins")
    # valid because any two one-sided IO-codes merge across a bridge
    near_build = _build_tree(part.side(near), delta, trace) if near_code is None else None
    far_side = part.side(far)
    # The sides carry the layers they need.  While they are built the part
    # holds none, or a path would keep one BFS per level; should this
    # split fail, the part's next candidate recomputes what it reads.
    part.layers.clear()
    if near_build is not None:
        near_code = yield near_build
    far_code = yield from _far_side_code(far_side, v, partner, delta, trace, star_patterns=star_patterns)
    code = near_code | far_code
    if not part.verifies(code):
        raise _CaseMiss("merged code failed verification")
    trace.add(
        case,
        {"edge": (u, v), **detail, "far_order": far.bit_count(), "twin_pruned": partner is not None},
        graphs._bits(near_code),
    )
    return code


def _star_near(k: int, part: _Part, near: int) -> tuple[int, dict]:
    """A split-off subdivided star: all of it except its lowest-label leaf,
    as ``families._subdivided_star_leave_out`` leaves it out."""
    g, labels = _induced(part.g, near)
    left_out = _subdivided_star_leave_out(g)
    return near ^ graphs._mask_of(labels[v] for v in left_out), {"star_legs": k, "near_order": g.n}


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
    ``cut`` is deleted first.  Should the near code then miss the near
    endpoint, ``cut`` and ``partner`` share a trace and the merged code
    fails its check.  What remains is coded by a stored pattern if it is
    a subdivided star on ``delta`` legs and ``star_patterns`` is set, else
    built by ``_build_tree``.
    """
    rest = side
    if partner is not None:
        rest = side.side(side.mask ^ (1 << cut))
        if rest.mask.bit_count() < 5:
            raise _CaseMiss("twin-pruned far side too small")
        # so the leaves' neighbour keeps degree 2 or more: the rest is twin-free
    star = None
    if star_patterns and rest.mask.bit_count() == 2 * delta + 1:
        g, labels = _induced(rest.g, rest.mask)
        star = as_subdivided_star(g)
    if star is not None and star[1] == delta:
        if partner is not None:  # the pruned leaf's twin partner is the one leaf left out
            code, cut_key = rest.mask ^ (1 << partner), "pruned_leaf"
        else:  # ``cut`` lost a neighbour, so its degree here is below the center's delta
            left_out = _subdivided_star_leave_out(g, labels.index(cut))
            code, cut_key = rest.mask ^ graphs._mask_of(labels[v] for v in left_out), "cut_vertex"
        trace.add("absorbed_star_pattern", {"legs": star[1], "order": g.n, cut_key: cut}, graphs._bits(code))
    else:
        code = yield _build_tree(rest, delta, trace)
    if partner is not None:
        trace.add("twin_leaf_pruned", {"leaf": cut, "far_order": side.mask.bit_count()})
    return code


_PATH_HEAD = itemgetter(slice(6))


def _path_rule(part: _Part, path: list[int]):
    """The longest-path case along ``path``: ``_split``'s case, edge and near rule.

    Needs diameter at least 5.  The support at the path's end has degree
    2: a second leaf there would be a twin of the path's end, and any
    other neighbour would lead past the diameter.  The split is at the
    branch of the second, third or fourth path vertex, the first of
    degree at least 4, 3 and 3 respectively; failing all three, the tail
    hanging at the fourth is peeled.
    """
    if len(path) < 6:
        raise _CaseMiss("diameter below 5 must be family-recognized")
    for position, min_degree in ((2, 4), (3, 3), (4, 3)):
        if part.degree(path[position]) >= min_degree:
            rule = partial(_branch_near, position, path[position])
            return "deep_branch_split", path[position], path[position + 1], rule
    return "path_tail_split", path[4], path[5], partial(_tail_near, path[:5])


def _branch_near(position: int, root: int, part: _Part, near: int) -> tuple[int | None, dict]:
    """A deep branch rooted at path vertex ``root``: its canonical set if it
    is a family tree there, else None, for a code built for it on its own."""
    order = near.bit_count()
    spec = None
    # recognize_family_rooted rejects a tree of more than 1 + _LARGEST_SHAPE
    # times the root's degree vertices
    if order <= 1 + _LARGEST_SHAPE * (part.g.adj[root] & near).bit_count():
        g, labels = _induced(part.g, near)
        spec = recognize_family_rooted(g, labels.index(root))
    detail = {"position": position, "near_order": order, "recognized_branch": spec is not None}
    if spec is not None:
        return graphs._mask_of(labels[v] for v in canonical_set(spec)), detail
    return None, detail


def _tail_near(path: list[int], part: _Part, near: int) -> tuple[int, dict]:
    """The tail at the fourth path vertex, which holds the first five path
    vertices: without the path end if that is all, without the extra leaf
    if there is one more vertex and it is a leaf."""
    detail = {"tail_order": near.bit_count()}
    tail = graphs._mask_of(path)
    extra = near ^ tail
    if not extra:
        return tail ^ (1 << path[0]), detail
    if extra & (extra - 1) == 0 and (part.g.adj[extra.bit_length() - 1] & near).bit_count() == 1:
        return tail, detail
    raise _CaseMiss("unexpected tail shape")


def construct_tree_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """IO-code of a twin-free tree meeting the degree-delta bound.

    The returned code satisfies ``2*delta*|S| <= (2*delta-1)*n`` unless
    the tree is the subdivided star on ``delta`` legs, in which case
    ``trace.exceptional_star`` is set and the code has the known optimal
    size.  An invalid input raises the typed error of the first check it
    fails; a valid one is finished by ``_decompose``.
    """
    _validate(g, delta, tree=True)
    return _decompose(_build_tree, g, delta)


# ---------------------------------------------------------------------------
# Graph constructor


def _build_graph(part: _Part, delta: int, trace: ConstructionTrace):
    g, labels = _induced(part.g, part.mask)
    if g.edge_count == g.n - 1:
        trace.add("tree_reduction", {"order": g.n})
        return (yield _build_tree(part, delta, trace))
    if g.n == 4 and sorted(g.degree_sequence()) == _PAW_DEGREES:
        code = graphs._mask_of(labels[v] for v in range(4) if g.degree(v) >= 2)
        trace.add("paw_base", {}, graphs._bits(code))
        return code

    cycle = find_induced_cycle(g)
    if cycle is None:
        raise ConstructionError("cyclic graph without a cycle", trace)
    cyc_edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]

    if g.edge_count == g.n:  # unicyclic: check for star-plus-edge patterns
        for a, b in cyc_edges:
            h = delete_edge(g, (a, b))
            star = as_subdivided_star(h)
            if star is not None:
                mark = trace.mark()
                try:
                    return _star_plus_edge_code(part, labels, h, star, (a, b), trace)
                except _CaseMiss:
                    trace.rollback(mark)

    for a, b in cyc_edges:
        edge = (labels[a], labels[b])
        h = delete_edge(part.g, edge)
        # only the endpoints changed, and each keeps its other cycle neighbour
        if all(_twin_of(h.adj, part.mask, x) is None for x in edge):
            trace.add("cycle_edge_removed", {"edge": edge})
            return (yield _build_graph(_Part(h, part.mask), delta, trace))

    # every cycle-edge deletion creates twins: the cycle alternates
    # support vertices and degree-2 vertices; delete one of the latter
    leaves, _ = _leaves_and_legs(g.adj, (1 << g.n) - 1)
    cyc_set = set(cycle)
    candidates = []
    for c in cycle:
        if g.degree(c) != 2:
            continue
        nbrs_on_cycle = [x for x in g.neighbors(c) if x in cyc_set]
        if len(nbrs_on_cycle) == 2 and all(g.adj[x] & leaves for x in nbrs_on_cycle):
            candidates.append(c)
    if not candidates:
        return _fallback_exact(part, trace, "cycle without removable structure")
    v0 = labels[min(candidates)]
    rest = part.mask ^ (1 << v0)
    connected = _reach(part.g.adj, rest, (rest & -rest).bit_length() - 1) == rest
    # only v0's neighbours changed, and in a connected rest each keeps a neighbour
    changed = graphs._members(part.g.adj[v0] & rest)
    if not connected or any(_twin_of(part.g.adj, rest, x) is not None for x in changed):
        return _fallback_exact(part, trace, "vertex deletion left a bad remainder")
    trace.add("cycle_vertex_removed", {"vertex": v0})
    return (yield _build_graph(_Part(part.g, rest), delta, trace))


def _star_plus_edge_code(
    part: _Part,
    labels: Sequence[int],
    tree: Graph,
    star: tuple[int, int],
    edge: tuple[int, int],
    trace: ConstructionTrace,
) -> int:
    """The stored pattern for a subdivided star plus one edge, as
    ``families._star_plus_edge_leave_out`` gives it; ``tree`` is the part,
    relabeled as ``labels`` says, without ``edge``."""
    center, k = star
    variant, left_out = _star_plus_edge_leave_out(tree, center, edge)
    code = part.mask ^ graphs._mask_of(labels[v] for v in left_out)
    if not part.verifies(code):
        raise _CaseMiss("pattern failed verification")
    trace.add(
        "star_plus_edge_pattern",
        {"variant": variant, "legs": k, "edge": (labels[edge[0]], labels[edge[1]])},
        graphs._bits(code),
    )
    return code


def construct_graph_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """IO-code of a connected twin-free 4-cycle-free graph within the bound.

    Accepts the one order-4 base case (a triangle with a pendant); all
    other inputs need order at least 5.  As for trees, an invalid input
    raises the typed error of the first check it fails, and a valid one
    is finished by ``_decompose``, which flags the exceptional star.
    """
    _validate(g, delta, tree=False)
    return _decompose(_build_graph, g, delta)


def construct_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """The tree constructor on trees, the graph constructor otherwise.

    On a tree both give the same code; the graph constructor's trace only
    adds a ``tree_reduction`` step.
    """
    if g.edge_count == g.n - 1:
        return construct_tree_code(g, delta)
    return construct_graph_code(g, delta)

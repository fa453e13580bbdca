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
tail.  Sub-instances whose cut leaf became an open twin are repaired by
deleting that leaf before recursing.  Every case is validated on the
spot; if no case applies along any longest path (three of the 3,149
twin-free trees with n <= 16 reach this), an exact solve finishes the
sub-instance and the trace carries a warning.  All bound arithmetic is integer-exact.

Each level of the tree decomposition scans the whole remaining tree a
few times, each scan a single pass: the family roots (one subtree-size
pass), the star-component candidates (the leaves and legs of
``families._leaves_and_legs``), the diametral paths (BFS layer masks),
the sub-instances of a split (one reachability walk, then the two induced
sides) and their twin tests (``graphs._twin_free``, with one scan for the
cut leaf's partner when it fails).  Subdivided-star codes leave out what
``families._subdivided_star_leave_out`` gives.  The number of levels is
not bounded that way: a path loses 5 vertices per peel, so its cost
stays quadratic in its length, and each peel nests a few Python frames.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

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
    _induced,
    _reach,
    _twin_free,
    delete_edge,
    diametral_paths,
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
    """A sub-instance: its graph, the input label of each local vertex and,
    built once, the local vertex of each label."""

    __slots__ = ("g", "labels", "local")

    def __init__(self, g: Graph, labels: list[int]):
        self.g = g
        self.labels = labels
        self.local = {label: v for v, label in enumerate(labels)}

    def labels_of(self, vertices) -> set[int]:
        return {self.labels[v] for v in vertices}

    def induced(self, keep: int) -> _Part:
        """The sub-instance induced by the local vertex mask ``keep``."""
        h, new_to_old, _ = _induced(self.g, keep)
        return _Part(h, [self.labels[v] for v in new_to_old])

    def verifies(self, code: set[int]) -> bool:
        """Whether the labels in ``code`` form an IO-code of this part."""
        return is_io_code(self.g, VertexSet(self.g.n, (self.local[x] for x in code))).ok


def _fallback_exact(part: _Part, trace: ConstructionTrace, reason: str) -> set[int]:
    trace.warn(f"exhaustive fallback on {part.g.n}-vertex sub-instance: {reason}")
    code = part.labels_of(solve(part.g).code)
    trace.add("exhaustive_fallback", {"reason": reason, "order": part.g.n}, code)
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
    above the bound, runs ``build`` on the whole graph and verifies the
    code it returns.  Every step recurses on a smaller tree or a graph
    with fewer cycles, so the recursion ends on its own, but each split
    nests a few Python frames: a long enough path (a 5-vertex tail per
    split) exhausts the interpreter's recursion limit, and that becomes a
    ``ConstructionError`` carrying the partial trace.
    """
    star = as_subdivided_star(g)
    trace = ConstructionTrace(exceptional_star=star is not None and star[1] == delta)
    try:
        code = build(_Part(g, list(range(g.n))), delta, trace)
    except RecursionError:
        raise ConstructionError(
            f"decomposition of the {g.n}-vertex input nests deeper than "
            f"the Python recursion limit ({sys.getrecursionlimit()})",
            trace,
        ) from None
    result = VertexSet(g.n, code)
    if not is_io_code(g, result).ok:
        raise ConstructionError("constructed set failed final verification", trace)
    return result, trace


# ---------------------------------------------------------------------------
# Tree constructor


def _build_tree(part: _Part, delta: int, trace: ConstructionTrace) -> set[int]:
    g = part.g
    if g.n < 5:
        return _fallback_exact(part, trace, "sub-instance below order 5")

    spec = recognize_family(g)
    if spec is not None:
        code = part.labels_of(canonical_set(spec))
        trace.add(
            "family_canonical",
            {
                "root": part.labels[spec.distinguished["root"]],
                "vector": list(spec.params["vector"]),
                "order": g.n,
            },
            code,
        )
        return code

    for center, other, k in _star_component_candidates(g, delta):
        mark = trace.mark()
        try:
            return _split(
                part, delta, trace, "star_component_split", center, other,
                partial(_star_near, k), star_patterns=True,
            )
        except _CaseMiss:
            trace.rollback(mark)

    for path in diametral_paths(g):
        mark = trace.mark()
        try:
            return _split(part, delta, trace, *_path_rule(part, delta, trace, path))
        except _CaseMiss:
            trace.rollback(mark)

    return _fallback_exact(part, trace, "no decomposition case applied")


def _star_component_candidates(g: Graph, delta: int):
    """Edges whose removal leaves a subdivided star centered at an endpoint.

    Ordered by fewest star legs, then lowest edge, matching the preference
    for the smallest split-off component.  The legs come from
    ``families._leaves_and_legs``; a center of degree 3 to ``delta``
    qualifies when at most one of its neighbours is not a leg, and that
    neighbour (or, if there is none, any neighbour) is the far side.
    """
    _, legs = _leaves_and_legs(g)
    found = []
    for center, nbrs in enumerate(g.adj):
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
) -> set[int]:
    """Code of a tree part from its split at the edge ``uv`` (local indices).

    In a tree every edge is a bridge: one walk from ``u`` without the edge
    finds the near side, and the far side, the side of ``v``, is the rest;
    it needs at least 5 vertices.  ``near_rule(near, far)`` returns the
    near code and the case's own trace detail; the far side is coded by
    ``_far_side_code``, which may prune a twin leaf at ``v`` only when the
    near code holds ``u``.  The merged code is verified on the part and
    recorded as one ``case`` step with the split edge, the far order and
    whether a twin leaf was pruned.  Any failure raises ``_CaseMiss``.
    """
    near_mask = _reach(delete_edge(part.g, (u, v)), u)
    far_mask = ((1 << part.g.n) - 1) ^ near_mask
    if far_mask.bit_count() < 5:
        raise _CaseMiss("far side too small")
    near, far = part.induced(near_mask), part.induced(far_mask)
    near_code, detail = near_rule(near, far)
    edge = (part.labels[u], part.labels[v])
    far_code, twin_pruned = _far_side_code(
        far, edge[1], delta, trace,
        star_patterns=star_patterns, require_near_anchor=edge[0] in near_code,
    )
    code = near_code | far_code
    if not part.verifies(code):
        raise _CaseMiss("merged code failed verification")
    trace.add(
        case,
        {"edge": edge, **detail, "far_order": far.g.n, "twin_pruned": twin_pruned},
        near_code,
    )
    return code


def _star_near(k: int, near: _Part, far: _Part) -> tuple[set[int], dict]:
    """A split-off subdivided star: all of it except its lowest-label leaf,
    as ``families._subdivided_star_leave_out`` leaves it out."""
    left_out = _subdivided_star_leave_out(near.g, key=near.labels.__getitem__)
    return set(near.labels) - near.labels_of(left_out), {"star_legs": k, "near_order": near.g.n}


def _far_side_code(
    side: _Part,
    cut: int,
    delta: int,
    trace: ConstructionTrace,
    *,
    star_patterns: bool,
    require_near_anchor: bool,
) -> tuple[set[int], bool]:
    """Code for the component on the far side of a split; ``cut`` is the
    label of the cut endpoint.

    If the far side acquired open twins, the cut endpoint must be the
    twin leaf; it is deleted first and the caller's near-side code has to
    contain the near endpoint (``require_near_anchor`` is the caller's
    confirmation that it does).  What remains is then coded by a stored
    pattern if it is a subdivided star on ``delta`` legs and
    ``star_patterns`` is set, else by ``_build_tree``.  Returns (code,
    twin_pruned).
    """
    rest = side
    adj = side.g.adj
    local = side.local[cut]
    pruned = not _twin_free(adj)
    if pruned:
        partner = next((v for v in range(side.g.n) if v != local and adj[v] == adj[local]), None)
        if partner is None or adj[local].bit_count() != 1:
            raise _CaseMiss("far-side twins do not involve the cut endpoint")
        if not require_near_anchor:
            raise _CaseMiss("twin repair needs the near endpoint in the near code")
        rest = side.induced(((1 << side.g.n) - 1) ^ (1 << local))
        if rest.g.n < 5:
            raise _CaseMiss("twin-pruned far side too small")
        if not _twin_free(rest.g.adj):
            raise _CaseMiss("twin-pruned far side still has twins")
    star = as_subdivided_star(rest.g) if star_patterns else None
    if star is not None and star[1] == delta:
        if pruned:  # the pruned leaf's twin partner is the one leaf left out
            code, cut_key = set(rest.labels) - {side.labels[partner]}, "pruned_leaf"
        else:
            left_out = _subdivided_star_leave_out(side.g, local, key=side.labels.__getitem__)
            if left_out is None:
                raise _CaseMiss("cut endpoint cannot be the star center")
            code, cut_key = set(side.labels) - side.labels_of(left_out), "cut_vertex"
        trace.add("absorbed_star_pattern", {"legs": star[1], "order": rest.g.n, cut_key: cut}, code)
    else:
        code = _build_tree(rest, delta, trace)
    if pruned:
        trace.add("twin_leaf_pruned", {"leaf": cut, "far_order": side.g.n})
    return code, pruned


def _path_rule(part: _Part, delta: int, trace: ConstructionTrace, path: list[int]):
    """The longest-path case along ``path``: ``_split``'s case, edge and near rule.

    Needs diameter at least 5 and a degree-2 support at the path's end.
    The split is at the branch of the second, third or fourth path vertex,
    the first of degree at least 4, 3 and 3 respectively; failing all
    three, the tail hanging at the fourth is peeled.
    """
    g = part.g
    if len(path) < 6:
        raise _CaseMiss("diameter below 5 must be family-recognized")
    if g.degree(path[1]) != 2:
        raise _CaseMiss("support on the path has extra leaves")
    for position, min_degree in ((2, 4), (3, 3), (4, 3)):
        if g.degree(path[position]) >= min_degree:
            rule = partial(_branch_near, position, part.labels[path[position]], delta, trace)
            return "deep_branch_split", path[position], path[position + 1], rule
    return "path_tail_split", path[4], path[5], partial(_tail_near, [part.labels[x] for x in path[:5]])


def _branch_near(
    position: int, root: int, delta: int, trace: ConstructionTrace, near: _Part, far: _Part
) -> tuple[set[int], dict]:
    """A deep branch rooted at path vertex ``root``: its canonical set if it
    is a family tree there, else a code built for it on its own."""
    spec = recognize_family_rooted(near.g, near.local[root])
    detail = {"position": position, "near_order": near.g.n, "recognized_branch": spec is not None}
    if spec is not None:
        return near.labels_of(canonical_set(spec)), detail
    if not _twin_free(far.g.adj):
        raise _CaseMiss("branch outside family while far side has twins")
    # valid because any two one-sided IO-codes merge across a bridge
    return _build_tree(near, delta, trace), detail


def _tail_near(path_labels: list[int], near: _Part, far: _Part) -> tuple[set[int], dict]:
    """The tail at the fourth path vertex, which holds the first five path
    vertices: without the path end if that is all, without the extra leaf
    if there is one more vertex and it is a leaf."""
    detail = {"tail_order": near.g.n}
    extra = set(near.labels).difference(path_labels)
    if not extra:
        return set(path_labels[1:]), detail
    if len(extra) == 1 and near.g.degree(near.local[extra.pop()]) == 1:
        return set(path_labels), detail
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


def _build_graph(part: _Part, delta: int, trace: ConstructionTrace) -> set[int]:
    g = part.g
    if g.edge_count == g.n - 1:
        trace.add("tree_reduction", {"order": g.n})
        return _build_tree(part, delta, trace)
    if g.n == 4 and sorted(g.degree_sequence()) == _PAW_DEGREES:
        code = part.labels_of(v for v in range(4) if g.degree(v) >= 2)
        trace.add("paw_base", {}, code)
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
                    return _star_plus_edge_code(part, h, star, (a, b), trace)
                except _CaseMiss:
                    trace.rollback(mark)

    for a, b in cyc_edges:
        h = delete_edge(g, (a, b))
        if _twin_free(h.adj):
            trace.add("cycle_edge_removed", {"edge": (part.labels[a], part.labels[b])})
            return _build_graph(_Part(h, part.labels), delta, trace)

    # every cycle-edge deletion creates twins: the cycle alternates
    # support vertices and degree-2 vertices; delete one of the latter
    leaves, _ = _leaves_and_legs(g)
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
    v0 = min(candidates, key=part.labels.__getitem__)
    rest = part.induced(((1 << g.n) - 1) ^ (1 << v0))
    if not is_connected(rest.g) or not _twin_free(rest.g.adj):
        return _fallback_exact(part, trace, "vertex deletion left a bad remainder")
    trace.add("cycle_vertex_removed", {"vertex": part.labels[v0]})
    return _build_graph(rest, delta, trace)


def _star_plus_edge_code(
    part: _Part,
    tree: Graph,
    star: tuple[int, int],
    edge: tuple[int, int],
    trace: ConstructionTrace,
) -> set[int]:
    """The stored pattern for a subdivided star plus one edge, as
    ``families._star_plus_edge_leave_out`` gives it; ``tree`` is the part
    without ``edge``."""
    center, k = star
    variant, left_out = _star_plus_edge_leave_out(tree, center, edge, key=part.labels.__getitem__)
    code = part.labels_of(v for v in range(tree.n) if v not in left_out)
    if not part.verifies(code):
        raise _CaseMiss("pattern failed verification")
    trace.add(
        "star_plus_edge_pattern",
        {"variant": variant, "legs": k, "edge": (part.labels[edge[0]], part.labels[edge[1]])},
        code,
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

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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    BadParam,
    ConstructionError,
    DegreeExceeded,
    Disconnected,
    FourCyclePresent,
    NoCode,
    NotATree,
    TooSmall,
)
from .families import (
    as_subdivided_star,
    canonical_set,
    recognize_family,
    recognize_family_rooted,
)
from .graphs import (
    Graph,
    VertexSet,
    classify_vertices,
    components,
    delete_edge,
    delete_vertex,
    diametral_paths,
    find_induced_cycle,
    find_open_twins,
    has_four_cycle,
    is_connected,
    max_degree,
)
from .solver import solve
from .verify import is_io_code

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


@dataclass
class _Side:
    g: Graph
    to_orig: list[int]

    def local_of(self, orig: int) -> int:
        return self.to_orig.index(orig)


def _split_at_edge(g: Graph, to_orig: list[int], u: int, v: int) -> tuple[_Side, _Side]:
    """Sides of a bridge, each with its map into original indices.

    Returns (side containing u, side containing v); ``u``/``v`` are
    local indices of ``g``.
    """
    h = delete_edge(g, (u, v))
    parts = components(h)
    if len(parts) != 2:
        raise _CaseMiss(f"edge ({u}, {v}) is not a bridge")
    sides = []
    for comp, new_to_old, _ in parts:
        sides.append(_Side(comp, [to_orig[x] for x in new_to_old]))
    if to_orig[u] in sides[0].to_orig:
        return sides[0], sides[1]
    return sides[1], sides[0]


def _leaves_of(g: Graph) -> list[int]:
    return [v for v in range(g.n) if g.degree(v) == 1]


def _verify_local(g: Graph, to_orig: list[int], code_orig: set[int]) -> bool:
    back = {o: i for i, o in enumerate(to_orig)}
    local = VertexSet(g.n, (back[o] for o in code_orig))
    return is_io_code(g, local).ok


def _fallback_exact(g: Graph, to_orig: list[int], trace: ConstructionTrace, reason: str) -> set[int]:
    trace.warn(f"exhaustive fallback on {g.n}-vertex sub-instance: {reason}")
    result = solve(g)
    code = {to_orig[v] for v in result.code}
    trace.add("exhaustive_fallback", {"reason": reason, "order": g.n}, code)
    return code


def _depth_limit(g: Graph) -> int:
    """Recursion allowance for an input: every step shrinks the instance.

    Taken from the original input, since sub-instances shrink while the
    depth grows.
    """
    return g.n + g.edge_count + 4


def _decompose(build, g: Graph, delta: int, trace: ConstructionTrace) -> set[int]:
    """Run a constructor's recursive decomposition on the whole input.

    Every split nests a few Python frames, so a long enough path (a
    5-vertex tail per split) exhausts the interpreter's recursion limit;
    that becomes a ``ConstructionError`` carrying the partial trace.
    """
    try:
        return build(g, list(range(g.n)), delta, trace, _depth_limit(g))
    except RecursionError:
        raise ConstructionError(
            f"decomposition of the {g.n}-vertex input nests deeper than "
            f"the Python recursion limit ({sys.getrecursionlimit()})",
            trace,
        ) from None


# ---------------------------------------------------------------------------
# Tree constructor


def _build_tree(g: Graph, to_orig: list[int], delta: int, trace: ConstructionTrace, depth_left: int) -> set[int]:
    if depth_left < 0:
        raise ConstructionError("recursion depth exceeded", trace)
    if g.n < 5:
        return _fallback_exact(g, to_orig, trace, "sub-instance below order 5")

    spec = recognize_family(g)
    if spec is not None:
        code = {to_orig[v] for v in canonical_set(spec)}
        trace.add(
            "family_canonical",
            {
                "root": to_orig[spec.distinguished["root"]],
                "vector": list(spec.params["vector"]),
                "order": g.n,
            },
            code,
        )
        return code

    for split in _star_component_candidates(g, delta):
        mark = trace.mark()
        try:
            return _star_component_split(g, to_orig, delta, trace, depth_left, *split)
        except _CaseMiss:
            trace.rollback(mark)

    for path in diametral_paths(g):
        mark = trace.mark()
        try:
            return _longest_path_case(g, to_orig, delta, trace, depth_left, path)
        except _CaseMiss:
            trace.rollback(mark)

    return _fallback_exact(g, to_orig, trace, "no decomposition case applied")


def _star_component_candidates(g: Graph, delta: int):
    """Edges whose removal leaves a subdivided star centered at an endpoint.

    The side of ``center`` beyond the edge to ``other`` is that star
    exactly when each neighbour of ``center`` other than ``other`` has
    degree 2 and its far neighbour is a leaf.  Ordered by fewest star
    legs, then lowest edge, matching the preference for the smallest
    split-off component.
    """
    deg = g.degree_sequence()
    found = []
    for edge in g.edges():
        for center, other in (edge, edge[::-1]):
            k = deg[center] - 1
            if 2 <= k <= delta - 1 and all(
                deg[s] == 2 and deg[next(x for x in g.neighbors(s) if x != center)] == 1
                for s in g.neighbors(center)
                if s != other
            ):
                found.append((k, edge, center, other))
    found.sort()
    return [(center, other, k) for k, _, center, other in found]


def _star_component_split(
    g: Graph,
    to_orig: list[int],
    delta: int,
    trace: ConstructionTrace,
    depth_left: int,
    v1: int,
    v2: int,
    k: int,
) -> set[int]:
    """Split off a subdivided star hanging by its center vertex."""
    side1, side2 = _split_at_edge(g, to_orig, v1, v2)
    if side2.g.n < 5:
        raise _CaseMiss("far side too small")

    # near side: all of the star except its lowest-index far leaf
    leaves1 = sorted(side1.to_orig[v] for v in _leaves_of(side1.g))
    near = set(side1.to_orig) - {leaves1[0]}

    # the near code keeps the star center, so twin repair is always safe here
    far, twin_pruned = _far_side_code(
        g, side2, to_orig[v2], delta, trace, depth_left,
        star_patterns=True, require_near_anchor=True,
    )
    code = near | far
    if not _verify_local(g, to_orig, code):
        raise _CaseMiss("merged code failed verification")
    trace.add(
        "star_component_split",
        {
            "edge": (to_orig[v1], to_orig[v2]),
            "star_legs": k,
            "near_order": side1.g.n,
            "far_order": side2.g.n,
            "twin_pruned": twin_pruned,
        },
        near,
    )
    return code


def _absorbed_star_code(side: _Side, cut_orig: int) -> set[int]:
    """All of a full-degree star component except one or two leaves.

    When the cut endpoint is a support we drop its leaf plus the lowest
    other leaf; when it is a leaf we drop the lowest other leaf.
    """
    local = side.local_of(cut_orig)
    leaves = _leaves_of(side.g)
    if side.g.degree(local) == 2:  # support inside the star
        leaf_of_cut = next(v for v in side.g.neighbors(local) if side.g.degree(v) == 1)
        others = sorted(side.to_orig[v] for v in leaves if v != leaf_of_cut)
        dropped = {side.to_orig[leaf_of_cut], others[0]}
    elif side.g.degree(local) == 1:
        others = sorted(side.to_orig[v] for v in leaves if v != local)
        dropped = {others[0]}
    else:
        raise _CaseMiss("cut endpoint cannot be the star center")
    return set(side.to_orig) - dropped


def _far_side_code(
    g: Graph,
    side: _Side,
    cut_orig: int,
    delta: int,
    trace: ConstructionTrace,
    depth_left: int,
    *,
    star_patterns: bool,
    require_near_anchor: bool = False,
) -> tuple[set[int], bool]:
    """Code for the component on the far side of a split.

    If the far side acquired open twins, the cut endpoint must be the
    twin leaf; it is deleted before recursing and the caller's near-side
    code has to contain the near endpoint (``require_near_anchor`` is the
    caller's confirmation that it does).  Returns (code, twin_pruned).
    """
    g2 = side.g
    twins = find_open_twins(g2)
    if not twins:
        star = as_subdivided_star(g2)
        if star_patterns and star is not None and star[1] == delta:
            code = _absorbed_star_code(side, cut_orig)
            trace.add(
                "absorbed_star_pattern",
                {"legs": star[1], "order": g2.n, "cut_vertex": cut_orig},
                code,
            )
            return code, False
        return _build_tree(g2, side.to_orig, delta, trace, depth_left - 1), False

    local = side.local_of(cut_orig)
    pair = next((p for p in twins if local in p), None)
    if pair is None or g2.degree(local) != 1:
        raise _CaseMiss("far-side twins do not involve the cut endpoint")
    if not require_near_anchor:
        raise _CaseMiss("twin repair needs the near endpoint in the near code")
    pruned, new_to_old, _ = delete_vertex(g2, local)
    if pruned.n < 5:
        raise _CaseMiss("twin-pruned far side too small")
    if find_open_twins(pruned):
        raise _CaseMiss("twin-pruned far side still has twins")
    sub_map = [side.to_orig[x] for x in new_to_old]
    star = as_subdivided_star(pruned)
    if star_patterns and star is not None and star[1] == delta:
        partner_local = pair[0] if pair[1] == local else pair[1]
        partner_orig = side.to_orig[partner_local]
        code = set(sub_map) - {partner_orig}
        trace.add(
            "absorbed_star_pattern",
            {"legs": star[1], "order": pruned.n, "pruned_leaf": cut_orig},
            code,
        )
    else:
        code = _build_tree(pruned, sub_map, delta, trace, depth_left - 1)
    trace.add("twin_leaf_pruned", {"leaf": cut_orig, "far_order": g2.n})
    return code, True


def _longest_path_case(
    g: Graph,
    to_orig: list[int],
    delta: int,
    trace: ConstructionTrace,
    depth_left: int,
    path: list[int],
) -> set[int]:
    d = len(path) - 1
    if d < 5:
        raise _CaseMiss("diameter below 5 must be family-recognized")
    v = path
    deg = g.degree
    if deg(v[1]) != 2:
        raise _CaseMiss("support on the path has extra leaves")

    if deg(v[2]) >= 4:
        position = 2
    elif deg(v[3]) >= 3:
        position = 3
    elif deg(v[4]) >= 3:
        position = 4
    else:
        return _path_tail_split(g, to_orig, delta, trace, depth_left, v)

    side1, side2 = _split_at_edge(g, to_orig, v[position], v[position + 1])
    if side2.g.n < 5:
        raise _CaseMiss("far side too small")
    root_local = side1.local_of(to_orig[v[position]])
    spec1 = recognize_family_rooted(side1.g, root_local)
    far_twins = bool(find_open_twins(side2.g))

    if spec1 is not None:
        near = {side1.to_orig[x] for x in canonical_set(spec1)}
    elif not far_twins:
        # branch not in the family: generic split, valid because any two
        # one-sided IO-codes merge across a bridge
        near = _build_tree(side1.g, side1.to_orig, delta, trace, depth_left - 1)
    else:
        raise _CaseMiss("branch outside family while far side has twins")

    far, twin_pruned = _far_side_code(
        g,
        side2,
        to_orig[v[position + 1]],
        delta,
        trace,
        depth_left,
        star_patterns=False,
        require_near_anchor=to_orig[v[position]] in near,
    )
    code = near | far
    if not _verify_local(g, to_orig, code):
        raise _CaseMiss("merged code failed verification")
    trace.add(
        "deep_branch_split",
        {
            "position": position,
            "edge": (to_orig[v[position]], to_orig[v[position + 1]]),
            "near_order": side1.g.n,
            "far_order": side2.g.n,
            "recognized_branch": spec1 is not None,
            "twin_pruned": twin_pruned,
        },
        near,
    )
    return code


def _path_tail_split(
    g: Graph,
    to_orig: list[int],
    delta: int,
    trace: ConstructionTrace,
    depth_left: int,
    v: list[int],
) -> set[int]:
    """Peel the 5- or 6-vertex tail hanging at the fourth path vertex."""
    side1, side2 = _split_at_edge(g, to_orig, v[4], v[5])
    if side2.g.n < 5:
        raise _CaseMiss("far side too small")
    tail_origs = set(side1.to_orig)
    path_origs = [to_orig[v[i]] for i in range(5)]
    if side1.g.n == 5 and tail_origs == set(path_origs):
        near = set(path_origs[1:])  # leave out the path end
    elif side1.g.n == 6 and set(path_origs) < tail_origs:
        extra_orig = next(iter(tail_origs - set(path_origs)))
        extra_local = side1.local_of(extra_orig)
        if side1.g.degree(extra_local) != 1:
            raise _CaseMiss("unexpected tail shape")
        near = set(path_origs)  # leave out the extra leaf
    else:
        raise _CaseMiss("unexpected tail shape")

    far, twin_pruned = _far_side_code(
        g,
        side2,
        to_orig[v[5]],
        delta,
        trace,
        depth_left,
        star_patterns=False,
        require_near_anchor=True,
    )
    code = near | far
    if not _verify_local(g, to_orig, code):
        raise _CaseMiss("merged code failed verification")
    trace.add(
        "path_tail_split",
        {
            "edge": (to_orig[v[4]], to_orig[v[5]]),
            "tail_order": side1.g.n,
            "far_order": side2.g.n,
            "twin_pruned": twin_pruned,
        },
        near,
    )
    return code


def _validate_tree_input(g: Graph, delta: int) -> None:
    if delta < 3:
        raise BadParam(f"delta must be at least 3, got {delta}")
    if g.n < 5:
        raise TooSmall(f"need order >= 5, got {g.n}")
    if not is_connected(g):
        raise Disconnected("input must be connected")
    if g.edge_count != g.n - 1:
        raise NotATree("input has a cycle")
    twins = find_open_twins(g)
    if twins:
        raise NoCode(f"open twins {twins[0]}", witness=twins[0])
    if max_degree(g) > delta:
        raise DegreeExceeded(f"maximum degree {max_degree(g)} exceeds delta={delta}")


def construct_tree_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """IO-code of a twin-free tree meeting the degree-delta bound.

    The returned code satisfies ``2*delta*|S| <= (2*delta-1)*n`` unless
    the tree is the subdivided star on ``delta`` legs, in which case the
    trace is flagged and the code has the known optimal size.
    """
    _validate_tree_input(g, delta)
    trace = ConstructionTrace()
    star = as_subdivided_star(g)
    if star is not None and star[1] == delta:
        trace.exceptional_star = True
    code = _decompose(_build_tree, g, delta, trace)
    result = VertexSet(g.n, code)
    if not is_io_code(g, result).ok:
        raise ConstructionError("constructed set failed final verification", trace)
    return result, trace


# ---------------------------------------------------------------------------
# Graph constructor


_PAW_DEGREES = [1, 2, 2, 3]


def _build_graph(g: Graph, to_orig: list[int], delta: int, trace: ConstructionTrace, depth_left: int) -> set[int]:
    if depth_left < 0:
        raise ConstructionError("recursion depth exceeded", trace)
    if g.edge_count == g.n - 1:
        trace.add("tree_reduction", {"order": g.n})
        return _build_tree(g, to_orig, delta, trace, depth_left)
    if g.n == 4 and sorted(g.degree_sequence()) == _PAW_DEGREES:
        code = {to_orig[v] for v in range(4) if g.degree(v) >= 2}
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
                    return _star_plus_edge_code(g, h, to_orig, star, (a, b), trace)
                except _CaseMiss:
                    trace.rollback(mark)

    for a, b in cyc_edges:
        h = delete_edge(g, (a, b))
        if not find_open_twins(h):
            trace.add("cycle_edge_removed", {"edge": (to_orig[a], to_orig[b])})
            return _build_graph(h, to_orig, delta, trace, depth_left - 1)

    # every cycle-edge deletion creates twins: the cycle alternates
    # support vertices and degree-2 vertices; delete one of the latter
    supports = classify_vertices(g)["support"]
    cyc_set = set(cycle)
    candidates = []
    for c in cycle:
        if g.degree(c) != 2:
            continue
        nbrs_on_cycle = [x for x in g.neighbors(c) if x in cyc_set]
        if len(nbrs_on_cycle) == 2 and all(x in supports for x in nbrs_on_cycle):
            candidates.append(c)
    if not candidates:
        return _fallback_exact(g, to_orig, trace, "cycle without removable structure")
    v0 = min(candidates, key=lambda c: to_orig[c])
    g0, new_to_old, _ = delete_vertex(g, v0)
    if not is_connected(g0) or find_open_twins(g0):
        return _fallback_exact(g, to_orig, trace, "vertex deletion left a bad remainder")
    trace.add("cycle_vertex_removed", {"vertex": to_orig[v0]})
    return _build_graph(g0, [to_orig[x] for x in new_to_old], delta, trace, depth_left - 1)


def _star_plus_edge_code(
    g: Graph,
    tree: Graph,
    to_orig: list[int],
    star: tuple[int, int],
    edge: tuple[int, int],
    trace: ConstructionTrace,
) -> set[int]:
    """Stored patterns for a subdivided star plus one edge."""
    center, k = star
    supports = set(tree.neighbors(center))
    a, b = edge

    def leaf_of(s: int) -> int:
        return next(x for x in tree.neighbors(s) if x != center)

    if a in supports and b in supports:
        dropped = {leaf_of(a), leaf_of(b)}
        variant = "supports_joined"
    elif center in (a, b):
        y = b if a == center else a
        other_leaves = [x for x in range(tree.n) if tree.degree(x) == 1 and x != y]
        dropped = {min(other_leaves, key=lambda x: to_orig[x])}
        variant = "center_to_leaf"
    else:
        x = min(a, b, key=lambda t: to_orig[t])
        if k == 2:
            dropped = {x}
        else:
            support_of_x = next(s for s in tree.neighbors(x))
            dropped = {x, support_of_x}
        variant = "leaves_joined"

    code = {to_orig[v] for v in range(g.n) if v not in dropped}
    if not _verify_local(g, to_orig, code):
        raise _CaseMiss("pattern failed verification")
    trace.add(
        "star_plus_edge_pattern",
        {"variant": variant, "legs": k, "edge": (to_orig[edge[0]], to_orig[edge[1]])},
        code,
    )
    return code


def construct_graph_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """IO-code of a connected twin-free 4-cycle-free graph within the bound.

    Accepts the one order-4 base case (a triangle with a pendant); all
    other inputs need order at least 5.
    """
    if delta < 3:
        raise BadParam(f"delta must be at least 3, got {delta}")
    if g.n < 4 or (g.n == 4 and sorted(g.degree_sequence()) != _PAW_DEGREES):
        raise TooSmall(f"need order >= 5, got {g.n}")
    if not is_connected(g):
        raise Disconnected("input must be connected")
    twins = find_open_twins(g)
    if twins:
        raise NoCode(f"open twins {twins[0]}", witness=twins[0])
    if has_four_cycle(g):
        raise FourCyclePresent("input contains a 4-cycle")
    if max_degree(g) > delta:
        raise DegreeExceeded(f"maximum degree {max_degree(g)} exceeds delta={delta}")

    trace = ConstructionTrace()
    star = as_subdivided_star(g)
    if star is not None and star[1] == delta:
        trace.exceptional_star = True
    code = _decompose(_build_graph, g, delta, trace)
    result = VertexSet(g.n, code)
    if not is_io_code(g, result).ok:
        raise ConstructionError("constructed set failed final verification", trace)
    return result, trace


def construct_code(g: Graph, delta: int) -> tuple[VertexSet, ConstructionTrace]:
    """The tree constructor on trees, the graph constructor otherwise.

    On a tree both give the same code; the graph constructor's trace only
    adds a ``tree_reduction`` step.
    """
    if g.edge_count == g.n - 1:
        return construct_tree_code(g, delta)
    return construct_graph_code(g, delta)

"""Exact minimum IO-code computation.

``solve_oracle`` is a deliberately naive exhaustive search kept
independent of the real solver for cross-validation.  ``solve`` reduces
the problem to a minimum hitting set: a set S is an IO-code exactly when
it intersects N(v) for every vertex v (total domination) and the
symmetric difference N(u) ^ N(v) for every vertex pair (separation).
The branch-and-bound search propagates unit requirements (which forces
every support vertex immediately), branches on a smallest open
requirement with candidates ordered by how many open requirements they
resolve, and prunes with a greedy disjoint-requirement lower bound.

The requirements form one list in ``(size, mask)`` order, and every open
list is an order-preserving filter of it.  So the bound reads an open
list in order, the branch requirement is its first entry, and a child's
open list is one filter: the root forces every unit, and choosing a
vertex only closes requirements, so no unit is open below the root.

The root's incumbent is a greedy cover: each pick is a vertex in the
most open requirements.  Each vertex keeps one mask of the indices of the
requirements holding it, and its heap entry is recounted only when it
comes to the top, because a stale count only overstates.  The bound
counts packed requirements only until they reach the incumbent, where
the node is pruned either way.

On trees an exact linear-time dynamic program (``_tree_program``) alone
answers a budget and the constructor's fallback.  ``solve`` searches a
tree for at most one node per vertex, about what the program costs, and
runs the program at most once.  When the root's incumbent exceeds the
forced vertices plus the packing bound by two or more, the program's
minimum is the search's floor, and the search stops once its incumbent
has that size.  A search that ends before the limit has its minimum;
one that uses all ``n`` nodes hands over to the program, whose code is
returned with ``method: "tree_dp"`` unless the incumbent already has
its size.  ``nodes_explored`` counts the search's nodes either way.

The program pays first for the minimum alone: it folds each distinct
tuple of child exports once per call, so equal subtrees cost one fold,
and its code is built from the back-pointers only when it is read.  The
program rests on a local rule for 4-cycle-free graphs, where two
vertices share at most one neighbour: S is an IO-code iff every vertex
has a neighbour in S and no s in S has two neighbours whose only
S-neighbour is s.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from itertools import combinations
from typing import Callable

# graphs._bits is reached through its module: the per-layer tracer wraps
# functions imported by name, and a list of set bits is not a layer call
from . import graphs
from .errors import CodeRejected, NoCode, TooLarge
from .graphs import Graph, VertexSet, _bfs_tree
from .verify import is_io_code, require_admissible

__all__ = ["SolveResult", "solve", "solve_oracle", "solve_with_budget"]

ORACLE_CAP = 24


@dataclass(frozen=True)
class SolveResult:
    gamma: int
    code: VertexSet
    nodes_explored: int
    method: str


def _requirements(g: Graph) -> list[int]:
    """Deduplicated, dominance-reduced requirement masks in ``(size, mask)`` order.

    Any requirement that contains another as a subset is redundant for a
    hitting set and dropped.  So only pairs with a common neighbour are
    formed: for disjoint N(u) and N(v) the separation requirement is
    N(u) | N(v), which contains the domination requirement N(u).  The
    unit requirements are collected first and drop every other
    requirement holding their vertices.  The rest go by size: two
    distinct requirements of one size never contain each other, so a
    size class is tested only against the smaller kept requirements, and
    the first class not at all.  A kept requirement inside ``r`` has its
    lowest bit in ``r``, so ``r`` is tested only against the kept
    requirements filed under its own bits.  The graph must admit a code,
    so no requirement is empty.
    """
    adj = g.adj
    reqs = set(adj)
    for a in adj:
        if a & (a - 1):  # two neighbours or more
            for u, v in combinations(graphs._bits(a), 2):
                reqs.add(adj[u] ^ adj[v])
    kept = sorted(r for r in reqs if r & (r - 1) == 0)
    units = sum(kept)
    by_size: dict[int, list[int]] = {}
    for r in reqs:
        if r & units == 0:
            by_size.setdefault(r.bit_count(), []).append(r)
    by_low: dict[int, list[int]] = {}  # lowest bit -> kept requirements with that lowest bit
    for size in sorted(by_size):
        fresh = sorted(by_size[size])
        if by_low:
            fresh = [r for r in fresh if not _holds_one(r, by_low)]
        kept += fresh
        for r in fresh:
            by_low.setdefault(r & -r, []).append(r)
    return kept


def _holds_one(r: int, by_low: dict[int, list[int]]) -> bool:
    """Whether ``r`` contains a requirement of ``by_low``."""
    rest = r
    while rest:
        low = rest & -rest
        rest ^= low
        for k in by_low.get(low, ()):
            if k & r == k:
                return True
    return False


def _greedy_cover(open_reqs: list[int], chosen: int) -> int:
    """Any hitting set extending ``chosen`` that hits ``open_reqs``, the
    requirements ``chosen`` leaves open; initial incumbent.

    Each pick is a vertex in the most open requirements, the lowest on
    ties.  Each vertex has one mask of the indices of the requirements
    holding it and one heap entry, whose count is recounted only when the
    entry comes to the top: a stale count only overstates, so an entry
    whose count is still exact there beats every true count.
    """
    closes: dict[int, int] = {}  # vertex -> indices of the open requirements holding it
    for i, r in enumerate(open_reqs):
        index = 1 << i
        while r:
            low = r & -r
            v = low.bit_length() - 1
            closes[v] = closes.get(v, 0) | index
            r ^= low
    heap = [(-held.bit_count(), v) for v, held in closes.items()]
    heapify(heap)
    unhit = (1 << len(open_reqs)) - 1
    while unhit:
        count, v = heap[0]
        fresh = (unhit & closes[v]).bit_count()
        if fresh == -count:
            heappop(heap)
            chosen |= 1 << v
            unhit &= ~closes[v]
        elif fresh:
            heapreplace(heap, (-fresh, v))
        else:
            heappop(heap)
    return chosen


def _disjoint_bound(open_reqs: list[int], limit: int) -> int:
    """Greedy count of pairwise disjoint requirements, taken in list order,
    which is ``(size, mask)`` order; each costs >= 1.  The count stops
    once it reaches ``limit``, where it already prunes."""
    used = 0
    count = 0
    for r in open_reqs:
        if r & used == 0:
            count += 1
            if count >= limit:
                break
            used |= r
    return count


def _children(chosen: int, open_reqs: list[int], candidates: list[int]):
    """A node's children, lazily: each candidate chosen, with the requirements it leaves open."""
    for v in candidates:
        yield chosen | 1 << v, [r for r in open_reqs if not r >> v & 1]


def _search(
    g: Graph,
    cap: int | None = None,
    limit: int | None = None,
    floor: Callable[[], int] | None = None,
) -> tuple[int | None, int]:
    """Core branch and bound; returns (best_mask or None, nodes explored).

    The search stops as soon as the incumbent is within ``cap`` when a
    cap is given, so any code within it decides the question, and after
    ``limit`` nodes when a limit is given, with its best incumbent.  A
    search that stops for neither is exhaustive, so its incumbent is a
    minimum.  The incumbent is replaced only on strict improvement.  The
    search runs depth first on an explicit stack of lazy child
    generators, so its depth is not bounded by the recursion limit.

    ``floor``, when given, returns a proven lower bound on the minimum.
    It is called at most once, at the root, when the root's gap (the
    incumbent's size less the forced vertices and the root's packing
    bound) is two or more, and the search then stops as soon as the
    incumbent reaches it.  The floor prunes nothing, so the search stops
    on the incumbent it would still hold at any later node.  A gap of one
    is left to the search, which mostly closes it sooner than a floor
    would cost.
    """
    reqs = _requirements(g)
    # The root forces every unit requirement.  ``_requirements`` lists them
    # first and drops every other requirement holding a unit's vertex, so
    # the forced set is the units' sum and the open list is the rest.
    # Choosing vertices only closes requirements, so no open list below
    # the root holds a unit.
    units = [r for r in reqs if r & (r - 1) == 0]
    root_chosen, root_open = sum(units), reqs[len(units):]
    best_mask = None
    best_size = (cap + 1) if cap is not None else (g.n + 1)
    greedy = _greedy_cover(root_open, root_chosen)
    if greedy.bit_count() < best_size:
        best_mask, best_size = greedy, greedy.bit_count()
    goal = cap if cap is not None else 0  # every code has size >= 1
    nodes = 0

    # one entry per node on the current path: its children not yet explored
    stack = [iter([(root_chosen, root_open)])]
    while stack and best_size > goal and nodes != limit:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        chosen, open_reqs = child
        nodes += 1
        size = chosen.bit_count()
        if not open_reqs:
            if size < best_size:
                best_mask, best_size = chosen, size
            continue
        room = best_size - size
        bound = _disjoint_bound(open_reqs, room)
        if bound >= room:
            continue
        if nodes == 1 and floor is not None and room - bound >= 2:
            goal = max(goal, floor())
        # branch on a smallest requirement; its vertices in most open requirements first
        branch_req = open_reqs[0]
        hits = dict.fromkeys(graphs._bits(branch_req), 0)
        for r in open_reqs:
            common = r & branch_req
            while common:
                low = common & -common
                hits[low.bit_length() - 1] += 1
                common ^= low
        # a stable sort: ties keep the increasing order of the vertices
        candidates = sorted(hits, key=hits.__getitem__, reverse=True)
        stack.append(_children(chosen, open_reqs, candidates))
    return best_mask, nodes


# _tree_program's fold state (S-children capped at 2, private-child count of the
# unique S-child, own private children) is coded sc*4 + uq*2 + pc, and a
# child's key (in S, no S-child, private-child count) x*4 + lone*2 + q.
_FOLD_STATES = [(sc, uq, pc) for sc in range(3) for uq in (0, 1) for pc in (0, 1)]
# state code -> key code -> next state code, or -1 when v would get two private children
_FOLD = [
    [
        -1 if pc + lone > 1
        else min(sc + x, 2) * 4 + (q if x and sc == 0 else (0 if x else uq)) * 2 + pc + lone
        for x in (0, 1) for lone in (0, 1) for q in (0, 1)
    ]
    for sc, uq, pc in _FOLD_STATES
]
# [xp][xv]: state code -> the key v exports, or -1 when v is undominated or is
# private to its only S-neighbour, a child that has a private child itself
_EXPORT = [
    [
        [
            -1 if sc + xp == 0 or (sc == 1 and not xp and uq) else xv * 4 + (sc == 0) * 2 + pc
            for sc, uq, pc in _FOLD_STATES
        ]
        for xv in (0, 1)
    ]
    for xp in (0, 1)
]


def _tree_program(n: int, order: list[int], parent: dict[int, int]) -> tuple[int, Callable[[], int]]:
    """Minimum IO-code of a twin-free tree, in O(n): (gamma, a callable
    that builds a code mask of that size).

    ``order`` and ``parent`` are a ``_bfs_tree`` walk of a tree on labels
    below ``n`` (a graph's ``_tree_walk``, or a constructor part's walk
    from its lowest label), so the program is rooted at ``order[0]`` and
    filled in reverse BFS order.  A vertex v with parent p exports, for
    each value of "p in S", the cheapest choice inside its subtree for
    each key (v in S, v has no S-child, v has a private child), where a
    private child is one whose only S-neighbour is v.
    The parent folds its children's keys into (S-children capped at 2,
    private-child count of the unique S-child, own private children),
    which is all the local rule needs: v is dominated, v has at most one
    private child, and if v's only S-neighbour is a child c, then c has
    no private child.  States and keys are small integers, and the fold
    and the export read the tables ``_FOLD`` and ``_EXPORT``.  Ties keep
    the first candidate in insertion order.

    A vertex's export, its fold back-pointers included, is a function of
    its children's exports in child order.  So each distinct tuple of
    child exports is folded once per call, and equal subtrees, every leaf
    for one, share one export.  The minimum needs only the root's export;
    the callable walks the back-pointers down from the root when it is
    called.
    """
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    seen: dict[tuple[int, ...], int] = {}  # child export ids, in child order -> export id
    # export id -> ([xp] key -> (cost, fold state), [xv] per child: state -> back-pointer)
    exports: list[tuple[list[dict], list[list[dict]]]] = []
    ident = [0] * n
    for v in reversed(order):
        kids = tuple([ident[c] for c in children[v]])
        i = seen.get(kids)
        if i is None:
            finals, trails = [], []
            for xv in (0, 1):
                states = {0: xv}
                trail = []
                for c in kids:
                    entries = exports[c][0][xv].items()
                    nxt: dict = {}
                    back: dict = {}
                    for s, cost in states.items():
                        row = _FOLD[s]
                        for key, (c_cost, _) in entries:
                            t = row[key]
                            if t < 0:
                                continue
                            total = cost + c_cost
                            if t not in nxt or total < nxt[t]:
                                nxt[t] = total
                                back[t] = (s, key)
                    states = nxt
                    trail.append(back)
                finals.append(states)
                trails.append(trail)
            export = []
            for xp in (0, 1):
                table: dict = {}
                for xv in (0, 1):
                    keys = _EXPORT[xp][xv]
                    for s, cost in finals[xv].items():
                        key = keys[s]
                        if key >= 0 and (key not in table or cost < table[key][0]):
                            table[key] = (cost, s)
                export.append(table)
            i = seen[kids] = len(exports)
            exports.append((export, trails))
        ident[v] = i
    root = order[0]
    root_key, (gamma, root_state) = min(exports[ident[root]][0][0].items(), key=lambda item: item[1][0])

    def witness() -> int:
        mask = 0
        stack = [(root, root_key >> 2, root_state)]
        while stack:
            v, xv, state = stack.pop()
            mask |= xv << v
            for c, back in zip(reversed(children[v]), reversed(exports[ident[v]][1][xv])):
                state, key = back[state]
                stack.append((c, key >> 2, exports[ident[c]][0][xv][key][1]))
        return mask

    return gamma, witness


def _tree_walk(g: Graph) -> tuple[list[int], dict[int, int]] | None:
    """The ``_bfs_tree`` walk from 0 of a tree, or None when ``g`` is not
    one: a graph with ``n - 1`` edges is a tree when the walk reaches all
    ``n`` vertices."""
    if g.edge_count != g.n - 1:
        return None
    order, parent = _bfs_tree(g.adj, (1 << g.n) - 1, 0)
    return (order, parent) if len(order) == g.n else None


def _verified(g: Graph, mask: int) -> VertexSet:
    """The code of ``mask``, re-checked against the literal predicates."""
    code = VertexSet(g.n, mask=mask)
    verdict = is_io_code(g, code)
    if not verdict.ok:
        raise CodeRejected(f"solver produced an invalid code: {verdict.describe()}", verdict)
    return code


def solve(g: Graph) -> SolveResult:
    """Exact minimum IO-code via branch and bound.

    On a tree the search stops after ``n`` nodes, and the tree program,
    run at most once, is its floor: asked at a root gap of two or more,
    its minimum stops the search once the incumbent reaches it.  So
    ``nodes_explored`` is at most ``n``, and ``method`` is ``"tree_dp"``,
    with the program's code, only when the incumbent is still above the
    minimum at the limit.
    """
    require_admissible(g)
    walk = _tree_walk(g)
    method = "branch_and_bound"
    if walk is None:
        best_mask, nodes = _search(g)
    else:
        memo = {}  # runs the program at most once, with no cache wrapper built per solve
        program = lambda: memo[0] if memo else memo.setdefault(0, _tree_program(g.n, *walk))
        best_mask, nodes = _search(g, limit=g.n, floor=lambda: program()[0])
        if nodes == g.n:
            gamma, witness = program()
            if gamma < best_mask.bit_count():
                best_mask, method = witness(), "tree_dp"
    code = _verified(g, best_mask)
    return SolveResult(len(code), code, nodes, method)


def solve_with_budget(g: Graph, max_size: int) -> VertexSet | None:
    """Some IO-code of size <= max_size, or None (exact decision); on a
    tree, the tree program's code."""
    require_admissible(g)
    walk = _tree_walk(g)
    if walk is not None:
        gamma, witness = _tree_program(g.n, *walk)
        return None if max_size < gamma else _verified(g, witness())
    best_mask, _ = _search(g, cap=max_size)
    return None if best_mask is None else _verified(g, best_mask)


def solve_oracle(g: Graph) -> SolveResult:
    """Brute force: subsets in increasing cardinality; exact by exhaustion.

    Kept free of the solver's reductions so the two routes stay
    independent checks of each other.
    """
    if g.n > ORACLE_CAP:
        raise TooLarge(f"oracle capped at n <= {ORACLE_CAP}, got {g.n}")
    require_admissible(g)
    nodes = 0
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            nodes += 1
            candidate = VertexSet(g.n, subset)
            if is_io_code(g, candidate).ok:
                return SolveResult(size, candidate, nodes, "oracle")
    raise NoCode("exhausted all subsets")  # unreachable for admissible graphs

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

On trees an exact linear-time dynamic program (``_tree_dp``) supplies
the minimum as a target: once the search has explored as many nodes as
the tree has vertices, it stops as soon as its incumbent reaches the
minimum, and a budget below the minimum is refused without searching.
The same call gives the program's own minimum code, and a tree search
that has explored ``TREE_NODE_FACTOR`` nodes per vertex stops and
returns that code with ``method: "tree_dp"``, so every tree search is
bounded.  Below that bound the search produces the returned code, which
is then the one an unbounded search returns.  The program rests on a
local rule for 4-cycle-free graphs, where two vertices share at most one
neighbour: S is an IO-code iff every vertex has a neighbour in S and no
s in S has two neighbours whose only S-neighbour is s.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Callable

# graphs._bits is reached through its module: the per-layer tracer wraps
# functions imported by name, and a bit iterator is not a layer call
from . import graphs
from .errors import CodeRejected, NoCode, TooLarge
from .graphs import Graph, VertexSet, _bfs_tree, is_tree
from .verify import is_io_code, require_admissible

__all__ = ["SolveResult", "solve", "solve_oracle", "solve_with_budget"]

ORACLE_CAP = 24
# nodes per vertex after which a tree search returns the tree program's code.
# Measured: in canonical labels, as the audit solves them, every twin-free
# tree with n <= 16 and all 36 large_trees benchmark solve inputs stay within
# one node per vertex, and the worst tree to n = 18 needs 23 nodes (1.28 n).
# In enumerate_trees' labels one n = 18 tree needs 186 nodes (10.3 n), so a
# factor below 11 would change its witness.
TREE_NODE_FACTOR = 16


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
    requirement holding their vertices.  A kept requirement inside ``r``
    has its lowest bit in ``r``, so each remaining ``r`` is tested only
    against the kept requirements filed under its own bits.  The graph
    must admit a code, so no requirement is empty.
    """
    adj = g.adj
    reqs = set(adj)
    for w in range(g.n):
        for u, v in combinations(graphs._bits(adj[w]), 2):
            reqs.add(adj[u] ^ adj[v])
    kept = sorted(r for r in reqs if r & (r - 1) == 0)
    units = sum(kept)
    by_low: dict[int, list[int]] = {}  # lowest bit -> kept requirements with that lowest bit
    for r in sorted((r for r in reqs if r & units == 0), key=lambda m: (m.bit_count(), m)):
        dominated = False
        rest = r
        while rest and not dominated:
            low = rest & -rest
            rest ^= low
            for k in by_low.get(low, ()):
                if k & r == k:
                    dominated = True
                    break
        if not dominated:
            kept.append(r)
            by_low.setdefault(r & -r, []).append(r)
    return kept


def _greedy_cover(open_reqs: list[int], chosen: int) -> int:
    """Any hitting set extending ``chosen`` that hits ``open_reqs``, the
    requirements ``chosen`` leaves open; initial incumbent.

    Each pick is a vertex in the most open requirements, the lowest on
    ties.  The counts and each vertex's requirements are built once; a
    closed requirement decrements its vertices' counts, and a heap whose
    stale entries are skipped yields the next pick.
    """
    members = [list(graphs._bits(r)) for r in open_reqs]
    holding: dict[int, list[int]] = {}
    for i, vertices in enumerate(members):
        for v in vertices:
            holding.setdefault(v, []).append(i)
    counts = {v: len(held) for v, held in holding.items()}
    heap = [(-count, v) for v, count in counts.items()]
    heapify(heap)
    closed = [False] * len(members)
    while heap:
        count, v = heappop(heap)
        if counts[v] != -count:
            continue  # stale: the count has dropped since this entry
        chosen |= 1 << v
        for i in holding[v]:
            if closed[i]:
                continue
            closed[i] = True
            for u in members[i]:
                counts[u] -= 1
                if counts[u]:
                    heappush(heap, (-counts[u], u))
    return chosen


def _disjoint_bound(open_reqs: list[int]) -> int:
    """Greedy count of pairwise disjoint requirements, taken in list order,
    which is ``(size, mask)`` order; each costs >= 1."""
    used = 0
    count = 0
    for r in open_reqs:
        if r & used == 0:
            count += 1
            used |= r
    return count


def _search(g: Graph, cap: int | None = None, exact: Callable[[], tuple[int, int]] | None = None):
    """Core branch and bound; returns (best_mask or None, nodes explored,
    whether the mask is the witness of ``exact``).

    The search stops as soon as the incumbent has size at most its goal:
    ``cap`` itself when a cap is given, so any code within it decides the
    question, or else the exact minimum from ``exact``, which returns a
    minimum and a code of that size.  That callable costs about as much
    as exploring one node per vertex, so it is asked only once the search
    has explored ``g.n`` nodes; searches that end sooner, most of them on
    small trees, never pay for it.  The incumbent is replaced only on
    strict improvement, so stopping at the minimum returns the code the
    unbounded search returns.  With ``exact`` given, the search stops at
    ``TREE_NODE_FACTOR * g.n`` nodes with its witness as the incumbent.
    The search runs depth first on an explicit stack of lazy child
    generators, so its depth is not bounded by the recursion limit.
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
    witness = None
    from_exact = False

    def expand(chosen: int, open_reqs: list[int]):
        """Explore one node: its children as a lazy generator, or None."""
        nonlocal best_mask, best_size, nodes, goal, witness, from_exact
        nodes += 1
        if nodes == g.n and exact is not None:
            gamma, witness = exact()
            goal = max(goal, gamma)  # a cap, never below the minimum, stays the goal
        if witness is not None and nodes == TREE_NODE_FACTOR * g.n:
            # the incumbent is above the goal here, which the witness meets
            best_mask, best_size, from_exact = witness, witness.bit_count(), True
            return None
        size = chosen.bit_count()
        if not open_reqs:
            if size < best_size:
                best_mask, best_size = chosen, size
            return None
        if size + _disjoint_bound(open_reqs) >= best_size:
            return None
        # branch on a smallest requirement; its vertices in most open requirements first
        branch_req = open_reqs[0]
        hits = dict.fromkeys(graphs._bits(branch_req), 0)
        for r in open_reqs:
            common = r & branch_req
            while common:
                low = common & -common
                hits[low.bit_length() - 1] += 1
                common ^= low
        candidates = sorted(hits, key=lambda v: (-hits[v], v))
        return ((chosen | 1 << v, [r for r in open_reqs if not r >> v & 1]) for v in candidates)

    # one entry per node on the current path: its children not yet explored
    stack = [iter([(root_chosen, root_open)])]
    while stack and best_size > goal:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif (grandchildren := expand(*child)) is not None:
            stack.append(grandchildren)
    return best_mask, nodes, from_exact


# _tree_dp's fold state (S-children capped at 2, private-child count of the
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


def _tree_dp(g: Graph) -> tuple[int, int]:
    """Minimum IO-code of a twin-free tree: (gamma, code mask), in O(n).

    Rooted at 0 and filled in reverse BFS order.  A vertex v with parent
    p exports, for each value of "p in S", the cheapest choice inside its
    subtree for each key (v in S, v has no S-child, v has a private
    child), where a private child is one whose only S-neighbour is v.
    The parent folds its children's keys into (S-children capped at 2,
    private-child count of the unique S-child, own private children),
    which is all the local rule needs: v is dominated, v has at most one
    private child, and if v's only S-neighbour is a child c, then c has
    no private child.  States and keys are small integers, and the fold
    and the export read the tables ``_FOLD`` and ``_EXPORT``.  Ties keep
    the first candidate in insertion order.  The fold keeps
    back-pointers for the witness.
    """
    order, parent = _bfs_tree(g.adj, (1 << g.n) - 1, 0)
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    # export[v][xp]: key -> (cost, fold state); folds[v][xv]: per child, state -> back-pointer
    export: list = [None] * g.n
    folds: list = [None] * g.n
    for v in reversed(order):
        finals, trails = [], []
        for xv in (0, 1):
            states = {0: xv}
            trail = []
            for c in children[v]:
                nxt: dict = {}
                back: dict = {}
                for s, cost in states.items():
                    row = _FOLD[s]
                    for key, (c_cost, _) in export[c][xv].items():
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
        folds[v] = trails
        export[v] = []
        for xp in (0, 1):
            table: dict = {}
            for xv in (0, 1):
                keys = _EXPORT[xp][xv]
                for s, cost in finals[xv].items():
                    key = keys[s]
                    if key >= 0 and (key not in table or cost < table[key][0]):
                        table[key] = (cost, s)
            export[v].append(table)
    root = order[0]
    key, (gamma, state) = min(export[root][0].items(), key=lambda item: item[1][0])
    mask = 0
    stack = [(root, key >> 2, state)]
    while stack:
        v, xv, state = stack.pop()
        mask |= xv << v
        for c, back in zip(reversed(children[v]), reversed(folds[v][xv])):
            state, key = back[state]
            stack.append((c, key >> 2, export[c][xv][key][1]))
    return gamma, mask


def _verified(g: Graph, mask: int) -> VertexSet:
    """The code of ``mask``, re-checked against the literal predicates."""
    code = VertexSet(g.n, mask=mask)
    verdict = is_io_code(g, code)
    if not verdict.ok:
        raise CodeRejected(f"solver produced an invalid code: {verdict.describe()}", verdict)
    return code


def solve(g: Graph) -> SolveResult:
    """Exact minimum IO-code via branch and bound (targeted and bounded on trees)."""
    require_admissible(g)
    exact = (lambda: _tree_dp(g)) if is_tree(g) else None
    best_mask, nodes, from_exact = _search(g, exact=exact)
    code = _verified(g, best_mask)
    return SolveResult(len(code), code, nodes, "tree_dp" if from_exact else "branch_and_bound")


def solve_with_budget(g: Graph, max_size: int) -> VertexSet | None:
    """Some IO-code of size <= max_size, or None (exact decision)."""
    require_admissible(g)
    dp = _tree_dp(g) if is_tree(g) else None
    if max_size < (0 if dp is None else dp[0]):
        return None
    best_mask, _, _ = _search(g, cap=max_size, exact=None if dp is None else lambda: dp)
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

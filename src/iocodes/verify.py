"""The defining predicates of identifying open codes.

A set ``S`` is a total dominating set when every vertex has a neighbor in
``S``; it is a separating open code when the signatures ``N(v) & S`` are
pairwise distinct; an identifying open code (IO-code) is both at once.
Verdicts carry deterministic witnesses for failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoCode, UniverseMismatch
from .graphs import Graph, VertexSet, _twin_free, find_open_twins

__all__ = [
    "Verdict",
    "is_total_dominating",
    "is_separating_open_code",
    "is_io_code",
    "admits_io_code",
    "require_admissible",
    "signatures",
]

NOT_TOTALLY_DOMINATED = "not_totally_dominated"
NOT_SEPARATED = "not_separated"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a predicate check; ``violation`` tags the witness."""

    ok: bool
    violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        kind, *args = self.violation
        if kind == NOT_TOTALLY_DOMINATED:
            return f"vertex {args[0]} has no neighbor in the code"
        return f"vertices {args[0]} and {args[1]} have equal signatures"


_OK = Verdict(True)  # shared: a frozen dataclass costs a guarded setattr per field to build


def _check_universe(g: Graph, s: VertexSet) -> None:
    if s.universe != g.n:
        raise UniverseMismatch(f"set universe {s.universe} != graph order {g.n}")


def signatures(g: Graph, s: VertexSet) -> list[VertexSet]:
    """Per-vertex signatures N(v) & S."""
    _check_universe(g, s)
    return [VertexSet(g.n, mask=g.adj[v] & s.mask) for v in range(g.n)]


def is_total_dominating(g: Graph, s: VertexSet) -> Verdict:
    """Every vertex must have a neighbor in ``s``; witness is the lowest failure."""
    _check_universe(g, s)
    for v in range(g.n):
        if g.adj[v] & s.mask == 0:
            return Verdict(False, (NOT_TOTALLY_DOMINATED, v))
    return _OK


def is_separating_open_code(g: Graph, s: VertexSet) -> Verdict:
    """All signatures pairwise distinct; witness is the smallest colliding pair."""
    _check_universe(g, s)
    sigs = [a & s.mask for a in g.adj]
    if len(set(sigs)) == g.n:
        return _OK
    groups: dict[int, list[int]] = {}
    for v, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(v)
    best = None
    for members in groups.values():
        if len(members) > 1:
            pair = (members[0], members[1])
            if best is None or pair < best:
                best = pair
    return Verdict(False, (NOT_SEPARATED, best[0], best[1]))


def is_io_code(g: Graph, s: VertexSet) -> Verdict:
    """Conjunction of total domination (checked first) and separation."""
    verdict = is_total_dominating(g, s)
    if not verdict.ok:
        return verdict
    return is_separating_open_code(g, s)


def require_admissible(g: Graph) -> None:
    """Raise ``NoCode`` unless the graph is nonempty, isolate-free and open
    twin-free, the three conditions for an IO-code to exist.

    The witness is None on the empty graph, else the lowest isolated
    vertex, else the first pair of open twins.
    """
    if g.n == 0:
        raise NoCode("graph is empty", witness=None)
    if 0 in g.adj:
        raise NoCode("graph has an isolated vertex", witness=g.adj.index(0))
    if not _twin_free(g.adj):
        twins = find_open_twins(g)
        raise NoCode(f"open twins {twins[0]}", witness=twins[0])


def admits_io_code(g: Graph) -> bool:
    """True iff the graph has an IO-code: ``require_admissible`` passes."""
    try:
        require_admissible(g)
    except NoCode:
        return False
    return True

"""Identifying open codes in graphs.

An identifying open code (IO-code) is a vertex set that is both a total
dominating set and a separating open code: every vertex has a neighbor
in the set, and the traces N(v) & S are pairwise distinct.  The package
provides exact minimum-code solving, verification with witnesses,
generators for the known extremal families, constructive algorithms
that certify the (2*delta - 1)/(2*delta) degree bound, and an audit
harness over exhaustively enumerated trees and small graphs.
"""

__version__ = "0.1.0"

from .audit import (
    AuditRecord,
    audit_graphs,
    audit_graphs_sampled,
    audit_trees,
    verify_tight_families,
)
from .canon import canonical_graph
from .construct import (
    BoundStatus,
    ConstructionTrace,
    check_bound,
    construct_graph_code,
    construct_tree_code,
)
from .errors import (
    BadParam,
    CodeRejected,
    ConstructionError,
    DegreeExceeded,
    Disconnected,
    EmptyGraph,
    FourCyclePresent,
    GraphError,
    InvalidVertex,
    NoCode,
    NotATree,
    ParseError,
    TooLarge,
    TooSmall,
    UniverseMismatch,
)
from .families import (
    FamilySpec,
    build_family_tree,
    enumerate_graph_classes,
    enumerate_small_graphs,
    enumerate_trees,
    enumerate_twin_free_trees,
    gen_reduced_subdivided_star,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    is_admissible,
)
from .formats import emit_edge_list, emit_graph6, load_graph, parse_edge_list, parse_graph6
from .graphs import (
    Graph,
    VertexSet,
    find_open_twins,
    has_four_cycle,
    is_connected,
    max_degree,
)
from .solver import SolveResult, solve, solve_oracle, solve_with_budget
from .verify import Verdict, admits_io_code, is_io_code, is_separating_open_code, is_total_dominating

__all__ = [name for name in dir() if not name.startswith("_")]

"""Command-line surface: verify, solve, construct, generate, audit, signature.

Graph arguments are file paths holding either edge-list text or a graph6
string; ``-`` reads standard input.  Results are printed as JSON.  Exit
status: 0 on success, 1 when a checked property fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .audit import (
    audit_graphs,
    audit_trees,
    records_to_csv,
    summary_to_json,
    verify_tight_families,
)
from .construct import check_bound, construct_code
from .errors import BadParam, GraphError, ParseError
from .families import (
    GRAPH_CAP,
    TREE_CAP,
    build_family_tree,
    gen_reduced_subdivided_star,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
)
from .formats import emit_edge_list, emit_graph6, load_graph
from .graphs import Graph, VertexSet, max_degree
from .solver import solve, solve_oracle, solve_with_budget
from .verify import is_io_code, signatures

OK, PROPERTY_FAILURE, INPUT_ERROR = 0, 1, 2


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: str) -> Graph:
    return load_graph(_read_text(path))


def _read_code(path: str, n: int) -> VertexSet:
    text = _read_text(path)
    members = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.split():
            try:
                members.append(int(token))
            except ValueError:
                raise ParseError(f"bad vertex index {token!r}", line=lineno) from None
    return VertexSet(n, members)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    code = _read_code(args.code, g.n)
    verdict = is_io_code(g, code)
    _emit(
        {
            "ok": verdict.ok,
            "violation": None if verdict.ok else list(verdict.violation),
            "message": verdict.describe(),
            "code_size": len(code),
            "n": g.n,
        }
    )
    return OK if verdict.ok else PROPERTY_FAILURE


def _cmd_signature(args) -> int:
    g = _read_graph(args.graph)
    code = _read_code(args.code, g.n)
    table = [sorted(sig) for sig in signatures(g, code)]
    _emit({"n": g.n, "code": sorted(code), "signatures": table})
    return OK


def _cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    started = time.monotonic()
    if args.budget is not None:
        code = solve_with_budget(g, args.budget)
        _emit(
            {
                "budget": args.budget,
                "found": code is not None,
                "code": sorted(code) if code is not None else None,
                "wall_time_ms": round(1000 * (time.monotonic() - started), 2),
            }
        )
        return OK
    result = solve_oracle(g) if args.oracle else solve(g)
    _emit(
        {
            "gamma": result.gamma,
            "code": sorted(result.code),
            "nodes_explored": result.nodes_explored,
            "method": result.method,
            "wall_time_ms": round(1000 * (time.monotonic() - started), 2),
        }
    )
    return OK


def _cmd_construct(args) -> int:
    g = _read_graph(args.graph)
    delta = args.delta if args.delta is not None else max(3, max_degree(g))
    code, trace = construct_code(g, delta)
    status = check_bound(g.n, len(code), delta, is_exceptional_star=trace.exceptional_star)
    _emit(
        {
            "code": sorted(code),
            "size": len(code),
            "delta": delta,
            "bound_status": status.value,
            "trace": trace.as_dict(),
        }
    )
    return OK if status.value != "violation" else PROPERTY_FAILURE


_VARIANT = "g1|g2|g3"

# family -> (the parameters it takes, builder); every parameter is an
# integer but the star-plus-edge variant, which the builder checks
_FAMILY_BUILDERS = {
    "subdivided-star": ("D", gen_subdivided_star),
    "reduced-subdivided-star": ("D", gen_reduced_subdivided_star),
    "attachment-tree": ("K1 K2 K3 K4 K5 K6", lambda *counts: build_family_tree(counts)),
    "tight-tree-pair": ("D", gen_tight_tree_pair),
    "gadget-cycle": ("P", gen_subcubic_gp),
    "star-plus-edge": (f"{_VARIANT} K", gen_star_plus_edge),
}


def _family_args(family: str, takes: str, params: list[str]) -> list:
    names = takes.split()
    if len(params) == len(names):
        try:
            return [p if name == _VARIANT else int(p) for name, p in zip(names, params)]
        except ValueError:
            pass
    raise ParseError(f"family {family} takes {takes}, got {' '.join(params)}")


def _cmd_generate(args) -> int:
    if args.family not in _FAMILY_BUILDERS:
        raise ParseError(f"unknown family {args.family!r}; choose from {sorted(_FAMILY_BUILDERS)}")
    takes, builder = _FAMILY_BUILDERS[args.family]
    g, spec = builder(*_family_args(args.family, takes, args.params))
    text = emit_graph6(g) + "\n" if args.format == "g6" else emit_edge_list(g)
    sys.stdout.write(text)
    if args.sidecar:
        sidecar = {
            "kind": spec.kind,
            "params": spec.params,
            "distinguished": spec.distinguished,
            "reference_code": sorted(spec.reference_code) if spec.reference_code else None,
        }
        if args.sidecar == "-":
            _emit(sidecar)
        else:
            with open(args.sidecar, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return OK


def _cmd_audit(args) -> int:
    if args.space == "trees":
        records, summary = audit_trees(10 if args.n_max is None else args.n_max, args.delta)
    elif args.space == "graphs":
        records, summary = audit_graphs(GRAPH_CAP if args.n_max is None else args.n_max, args.delta)
    else:
        report = verify_tight_families(args.delta_max, args.p_max)
        _emit(report)
        return OK if report["ok"] else PROPERTY_FAILURE
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(records))
    sys.stdout.write(summary_to_json(summary))
    return OK if summary["violations"] == 0 else PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iocodes",
        description="Identifying open codes: verify, solve, construct, generate, audit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a vertex set against a graph")
    p.add_argument("graph")
    p.add_argument("code", help="file of vertex indices, whitespace separated")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("signature", help="per-vertex signature table for a code")
    p.add_argument("graph")
    p.add_argument("code")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("solve", help="exact minimum IO-code")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None, help="decision variant: find any code of this size")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("construct", help="bound-certified code with trace")
    p.add_argument("graph")
    p.add_argument("--delta", type=int, default=None, help="degree bound (default: max(3, max degree))")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("generate", help="emit a named family instance")
    p.add_argument("family", help="|".join(sorted(_FAMILY_BUILDERS)))
    p.add_argument("params", nargs="+", help="family parameters")
    p.add_argument("--format", choices=("edges", "g6"), default="edges")
    p.add_argument("--sidecar", default=None, help="write the JSON descriptor here ('-' for stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("audit", help="batch certification runs")
    p.add_argument("space", choices=("trees", "graphs", "families"))
    p.add_argument(
        "--n-max",
        type=int,
        default=None,
        help=f"largest order: 5..{TREE_CAP} for trees (default 10), 5..{GRAPH_CAP} for graphs (default {GRAPH_CAP})",
    )
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--delta-max", type=int, default=5)
    p.add_argument("--p-max", type=int, default=6)
    p.add_argument("--csv", default=None, help="write per-instance records here")
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BadParam, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PROPERTY_FAILURE


if __name__ == "__main__":
    sys.exit(main())

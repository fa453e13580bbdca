"""Layer spans recorded from outside the ``iocodes`` package.

``Tracer.install`` replaces every function that one ``iocodes`` module
imports from another, in the importing module and in its home module, by a
wrapper that records a span.  A layer is the home module of the function,
except that ``families`` is split into ``families.enumerate`` (the two
enumerators) and ``families.recognize`` (everything else it exports).  A
call from a layer into the same layer records no span, so ``<layer>.calls``
counts boundary crossings.  Enumerators are generators: each ``next`` step
is one span.

Spans are kept in flat arrays as (name, start, end, parent, run id), where
the run id is the index of the CLI call that caused them, and written out
by ``write``.  A layer's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns as clock

MODULES = ("audit", "canon", "cli", "construct", "families", "formats", "graphs", "solver", "verify")

LAYERS = (
    "cli",
    "audit",
    "canon",
    "families.enumerate",
    "families.recognize",
    "construct",
    "solver",
    "formats",
    "graphs",
    "verify",
)

CONSTRUCT_CASES = (
    "family_canonical",
    "star_component_split",
    "absorbed_star_pattern",
    "twin_leaf_pruned",
    "deep_branch_split",
    "path_tail_split",
    "exhaustive_fallback",
    "tree_reduction",
    "paw_base",
    "cycle_edge_removed",
    "cycle_vertex_removed",
    "star_plus_edge_pattern",
)

# Counters that must repeat exactly between two traced passes of one run.
DETERMINISTIC = (
    "solver.nodes",
    "construct.failures",
    "construct.fallbacks",
    *(f"construct.case.{c}" for c in CONSTRUCT_CASES),
    "construct.case.other",
    *(f"{layer}.calls" for layer in LAYERS),
)


def _layer_of(module: str, name: str) -> str:
    if module == "families":
        return "families.enumerate" if name.startswith("enumerate_") else "families.recognize"
    return module


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.span_layers: list[int] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self.stack: list[int] = []
        self.layer_stack: list[int] = []
        self.counts: Counter = Counter()
        self.installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, span_name: str, layer: str) -> int:
        self.span_names.append(span_name)
        self.span_layers.append(LAYERS.index(layer))
        return len(self.span_names) - 1

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(sid)
        self.layer_stack.append(self.span_layers[name_id])
        self.start.append(clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = clock()
        self.stack.pop()
        self.layer_stack.pop()

    def _wrap_function(self, fn, name_id: int, on_return, on_raise):
        layer = self.span_layers[name_id]
        tracer = self

        def traced(*args, **kwargs):
            if tracer.layer_stack and tracer.layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(sid)
                if on_raise is not None:
                    on_raise(exc)
                raise
            tracer._close(sid)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name_id: int):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer._open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(sid)
                    return
                except Exception:
                    tracer._close(sid)
                    raise
                tracer._close(sid)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- counters from public return values ---------------------------------

    def _count_solve(self, result) -> None:
        self.counts["solver.nodes"] += result.nodes_explored

    def _count_construction(self, result) -> None:
        _, trace = result
        self.counts["construct.fallbacks"] += len(trace.warnings)
        for step in trace.steps:
            case = step.case if step.case in CONSTRUCT_CASES else "other"
            self.counts[f"construct.case.{case}"] += 1

    def _count_construct_failure(self, exc: Exception) -> None:
        self.counts["construct.failures"] += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-module import inside ``iocodes`` and ``cli.main``."""
        modules = {m: importlib.import_module(f"iocodes.{m}") for m in MODULES}
        by_home: dict[tuple[str, str], list[tuple[object, str]]] = {}
        for importer, mod in modules.items():
            for attr, value in vars(mod).items():
                if not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home == importer or home not in modules:
                    continue
                by_home.setdefault((home, value.__name__), []).append((mod, attr))
        by_home.setdefault(("cli", "main"), [])
        for (home, name), bindings in sorted(by_home.items()):
            fn = getattr(modules[home], name)
            layer = _layer_of(home, name)
            name_id = self._intern(f"{home}.{name}", layer)
            if inspect.isgeneratorfunction(fn):
                traced = self._wrap_generator(fn, name_id)
            else:
                on_return = on_raise = None
                if (home, name) == ("solver", "solve"):
                    on_return = self._count_solve
                elif home == "construct" and name.startswith("construct_"):
                    on_return = self._count_construction
                if home == "construct":
                    on_raise = self._count_construct_failure
                traced = self._wrap_function(fn, name_id, on_return, on_raise)
            for mod, attr in [(modules[home], name), *bindings]:
                self.installed.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed.clear()

    # -- aggregation ----------------------------------------------------------

    def summarize(self, runs: range) -> dict[str, float]:
        """Calls, self seconds and counters for spans caused by ``runs``."""
        lo, hi = runs.start, runs.stop
        child_ns = [0] * len(self.start)
        ids = [i for i in range(len(self.start)) if lo <= self.run[i] < hi]
        for i in ids:
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_ns = Counter()
        root_ns = 0
        for i in ids:
            layer = LAYERS[self.span_layers[self.name[i]]]
            dur = self.end[i] - self.start[i]
            calls[layer] += 1
            self_ns[layer] += dur - child_ns[i]
            if self.parent[i] < 0:
                root_ns += dur
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.s"] = self_ns[layer] / 1e9
        out["trace.wall_s"] = root_ns / 1e9
        return out

    def write(self, path) -> None:
        """All spans as gzip'd CSV: name,start_ns,end_ns,parent,run."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("span,name,start_ns,end_ns,parent,run\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.span_names[self.name[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.parent[i]},{self.run[i]}\n"
                )

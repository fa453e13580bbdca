import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import iocodes
import iocodes.cli
from conftest import random_tree
from iocodes import (
    BadParam,
    BoundStatus,
    ConstructionError,
    DegreeExceeded,
    Disconnected,
    FourCyclePresent,
    Graph,
    GraphError,
    NoCode,
    TooSmall,
    VertexSet,
    check_bound,
    construct_code,
    enumerate_graph_classes,
    enumerate_trees,
    find_open_twins,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    has_four_cycle,
    is_connected,
    is_io_code,
    max_degree,
    solve,
)
from iocodes import construct, families
from iocodes.canon import canonical_graph
from iocodes.construct import _twin_of
from iocodes.formats import parse_graph6
from iocodes.families import _subdivided_star
from iocodes.graphs import _induced_cycle, _members, _reach, _twin_free
from test_tree_dp import subdivided_random_tree


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def disjoint(*parts):
    edges, off = [], 0
    for g in parts:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph(off, edges)


# twin-free 6-cycle with the chord 0-3: two 4-cycles
CHORDED_C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
BAD_DELTA = (BadParam, "delta must be at least 3, got 2")
ORDER_4 = (TooSmall, "need order >= 5, got 4")
DISCONNECTED = (Disconnected, "input must be connected")
C4 = (FourCyclePresent, "input contains a 4-cycle")
TWINS = (NoCode, "open twins (1, 2)")
DEGREE = (DegreeExceeded, "maximum degree 5 exceeds delta=4")

# (input, delta, first failing check); None where the input is valid
VALIDATION_TABLE = {
    "bad delta": (path(6), 2, BAD_DELTA),
    "too small": (path(4), 3, ORDER_4),
    "paw": (PAW, 3, None),
    "disconnected": (disjoint(path(5), path(5)), 3, DISCONNECTED),
    "cycle": (C5, 3, None),
    "twins": (Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 3, TWINS),
    "4-cycle": (CHORDED_C6, 3, C4),
    "degree": (gen_subdivided_star(5)[0], 4, DEGREE),
    "bad delta, too small": (path(3), 2, BAD_DELTA),
    "too small, disconnected": (Graph(4, [(0, 1), (2, 3)]), 3, ORDER_4),
    "disconnected, cycle": (disjoint(C5, path(5)), 3, DISCONNECTED),
    "cycle, twins, 4-cycle": (
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), 3, (NoCode, "open twins (0, 2)")
    ),
    "twins, degree": (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 3, TWINS),
    "disconnected, twins, degree": (
        disjoint(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), path(5)), 3, DISCONNECTED
    ),
    "4-cycle, degree": (Graph(7, CHORDED_C6.edges() + [(0, 6)]), 3, C4),
}


class TestCheckBound:
    def test_equality_cases(self):
        assert check_bound(12, 10, 3) is BoundStatus.WITHIN_BOUND
        assert check_bound(9, 8, 4, is_exceptional_star=True) is BoundStatus.EXCEPTIONAL_STAR
        assert check_bound(6, 6, 3) is BoundStatus.VIOLATION

    def test_flag_required_for_exceptional(self):
        assert check_bound(9, 8, 4) is BoundStatus.VIOLATION

    def test_integer_exactness(self):
        assert check_bound(11, 9, 3) is BoundStatus.WITHIN_BOUND  # 54 <= 55
        assert check_bound(11, 10, 3) is BoundStatus.VIOLATION  # 60 > 55

    def test_bad_params(self):
        with pytest.raises(BadParam):
            check_bound(0, 0, 3)


class TestInputValidation:
    @pytest.mark.parametrize("case", list(VALIDATION_TABLE))
    def test_first_failing_check_raises(self, case):
        g, delta, expected = VALIDATION_TABLE[case]
        if expected is None:
            code, _ = construct_code(g, delta)
            assert is_io_code(g, code).ok
            return
        cls, message = expected
        with pytest.raises(GraphError) as caught:
            construct_code(g, delta)
        assert type(caught.value) is cls and str(caught.value) == message

    def test_twin_error_carries_the_pair(self):
        with pytest.raises(NoCode) as caught:
            construct_code(VALIDATION_TABLE["twins"][0], 3)
        assert caught.value.witness == (1, 2)


class TestTreeConstructor:
    def test_exceptional_star(self):
        for delta in (3, 4, 5):
            g, _ = gen_subdivided_star(delta)
            code, trace = construct_code(g, delta)
            assert trace.exceptional_star
            assert len(code) == 2 * delta
            status = check_bound(g.n, len(code), delta, is_exceptional_star=True)
            assert status is BoundStatus.EXCEPTIONAL_STAR

    def test_star_with_larger_delta_not_exceptional(self):
        g, _ = gen_subdivided_star(3)
        code, trace = construct_code(g, 4)
        assert not trace.exceptional_star
        assert check_bound(g.n, len(code), 4) is BoundStatus.WITHIN_BOUND

    def test_tight_pair_meets_bound_exactly(self):
        for delta in (3, 4):
            g, _ = gen_tight_tree_pair(delta)
            code, trace = construct_code(g, delta)
            assert is_io_code(g, code).ok
            assert 2 * delta * len(code) <= (2 * delta - 1) * g.n
            # the instance is extremal, so the constructor cannot do better
            assert len(code) == 4 * delta - 2

    def test_gadget_tree_tight(self):
        # ring with one cycle edge deleted: a tree needing exactly 5/6 n
        g, spec = gen_subcubic_gp(3)
        ring = spec.distinguished["cycle"]
        t = Graph(g.n, [e for e in g.edges() if e != (ring[0], ring[-1])])
        code, trace = construct_code(t, 3)
        assert is_io_code(t, code).ok
        assert 6 * len(code) == 5 * t.n

    def test_validation_errors(self):
        with pytest.raises(BadParam):
            construct_code(path(6), 2)
        with pytest.raises(TooSmall):
            construct_code(path(4), 3)
        with pytest.raises(NoCode):
            construct_code(Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 3)
        with pytest.raises(DegreeExceeded):
            g, _ = gen_subdivided_star(5)
            construct_code(g, 4)

    def test_deep_decomposition_on_valid_trees(self):
        # deep decompositions of seeded subdivided random trees: every step
        # works on a smaller tree, so the decomposition ends on its own
        for n in (109, 113, 117):
            rng = random.Random(0)
            k = (n + 1) // 2
            edges = []
            for i in range(1, k):
                edges += [(rng.randrange(i), k + i - 1), (k + i - 1, i)]
            t = Graph(n, edges)
            code, trace = construct_code(t, 8)
            assert is_io_code(t, code).ok
            assert check_bound(t.n, len(code), 8) is BoundStatus.WITHIN_BOUND

    def test_path_beyond_the_recursion_limit_constructs_within_the_bound(self):
        # one 5-vertex tail is peeled per level: 400 levels, none of them a
        # nested Python frame
        g = path(2000)
        code, trace = construct_code(g, 3)
        assert is_io_code(g, code).ok
        assert check_bound(g.n, len(code), 3) is BoundStatus.WITHIN_BOUND
        assert [step.case for step in trace.steps].count("path_tail_split") == 399
        assert not trace.warnings

    def test_deep_decompositions_need_no_recursion(self):
        # a nested-call decomposition needs several frames per level: about
        # 120 levels on the path, 250 on the tree, and six cycle-edge steps
        # before a long path on the cyclic graph
        script = textwrap.dedent(
            """
            import random, sys
            from test_tree_dp import subdivided_random_tree
            from iocodes import Graph, check_bound, is_io_code, max_degree
            from iocodes.construct import construct_code

            spine = [(i, i + 1) for i in range(599)]
            inputs = [
                Graph(600, spine),
                subdivided_random_tree(501, random.Random(0)),
                Graph(600, spine + [(40 * j + 10, 40 * j + 15) for j in range(6)]),
            ]
            sys.setrecursionlimit(100)
            for g in inputs:
                delta = max(3, max_degree(g))
                code, trace = construct_code(g, delta)
                cases = [step.case for step in trace.steps]
                print(g.n, is_io_code(g, code).ok, check_bound(g.n, len(code), delta).value,
                      cases.count("cycle_edge_removed"), len(trace.warnings))
            """
        )
        paths = [str(Path(__file__).parent), str(Path(iocodes.__file__).parents[1])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "600 True within_bound 0 0",
            "1001 True within_bound 0 0",
            "600 True within_bound 6 0",
        ]

    def test_trace_union_reconstructs_code(self):
        for n in range(5, 12):
            for t in enumerate_trees(n):
                if find_open_twins(t):
                    continue
                d = max(3, max_degree(t))
                code, trace = construct_code(t, d)
                union = set()
                for step in trace.steps:
                    union |= set(step.contributed)
                assert union == set(code)

    def test_exhaustive_small(self):
        for n in range(5, 13):
            for t in enumerate_trees(n):
                if find_open_twins(t):
                    continue
                d = max(3, max_degree(t))
                code, trace = construct_code(t, d)
                assert is_io_code(t, code).ok
                status = check_bound(t.n, len(code), d, is_exceptional_star=trace.exceptional_star)
                assert status is not BoundStatus.VIOLATION
                assert not trace.warnings
                assert len(code) >= solve(t).gamma

    def test_random_larger_trees(self, rng):
        done = 0
        while done < 40:
            t = random_tree(rng.randint(13, 16), rng)
            if find_open_twins(t):
                continue
            done += 1
            d = max(3, max_degree(t))
            code, trace = construct_code(t, d)
            assert is_io_code(t, code).ok
            assert check_bound(t.n, len(code), d, is_exceptional_star=trace.exceptional_star) is not BoundStatus.VIOLATION


# The 13 twin-free trees with n <= 18, in canonical labels, whose
# construction at max(3, max degree) ends in an exhaustive fallback; the
# tree program's code differs from the earlier exact solve's on two.
FALLBACK_TREES = [
    "N?AA@?O@?C?A?A?@`KG",
    "O??CA?_C?C?@??AO_?oH`",
    "O??CA?_C?C?G?A?@@E?GF",
    "P???C@?G?_????AP?cO?K?eC",
    "P???C@?G?_?G?@??@CGGo?_s",
    "P??CA?_C?O?O?O?@??O?B@MC",
    "P??CA?_C?O?O?O?@??OH_?A[",
    "Q????A?O@?A?????@COGa?b?@BG",
    "Q???C@?G?_@??O??_??H@??WA[G",
    "Q???C@?G?_@??O??_??H@?e??Dg",
    "Q???C@?G?_@??O?G??O?A@?KA[G",
    "Q??CA?_C?O?O?O?G??_?C@E??@w",
    "Q???C@?G?_@??O?G??O?A@E?ACw",
]
FALLBACK_CODE_CHANGED = {"O??CA?_C?C?@??AO_?oH`", "Q???C@?G?_@??O??_??H@??WA[G"}
# sha256 as an exact solve of a relabeled copy gave them: over each
# tree's trace with its fallback steps' contributed lists left out, and
# over the whole (sorted code, trace) of the eleven trees not changed
FALLBACK_TRACES_SHA256 = "6bcbae538e0a0a141d1a233aebf173562e99ad05cdb37faf349bb63fa292c07b"
FALLBACK_UNCHANGED_SHA256 = "1607026b84f923da7f0cdba2b370f17f900f50f13466ba5ce85679bbd1dbcd4b"


class TestFallback:
    def test_fallback_trees_get_minimum_codes_and_unchanged_traces(self):
        traces, unchanged = hashlib.sha256(), hashlib.sha256()
        for text in FALLBACK_TREES:
            g = parse_graph6(text)
            code, trace = construct_code(g, max(3, max_degree(g)))
            assert is_io_code(g, code).ok and len(code) == solve(g).gamma, text
            d = trace.as_dict()
            assert "exhaustive_fallback" in [step["case"] for step in d["steps"]]
            if text not in FALLBACK_CODE_CHANGED:
                unchanged.update(json.dumps([sorted(code), d], sort_keys=True).encode())
            for step in d["steps"]:
                if step["case"] == "exhaustive_fallback":
                    del step["contributed"]
            traces.update(json.dumps(d, sort_keys=True).encode())
        assert traces.hexdigest() == FALLBACK_TRACES_SHA256
        assert unchanged.hexdigest() == FALLBACK_UNCHANGED_SHA256

    def test_fallback_on_a_shifted_mask(self):
        # the n = 15 tree that falls back at once, moved up by 6 labels in a
        # 26-label adjacency whose other labels form paths hung on the part
        g = parse_graph6("NhE?GC@_??_@?C??_A?")
        delta = max(3, max_degree(g))
        code, trace = construct_code(g, delta)
        assert [step.case for step in trace.steps] == ["exhaustive_fallback"]
        shift = 6
        edges = [(u + shift, v + shift) for u, v in g.edges()]
        edges += [(i, i + 1) for i in range(shift - 1)] + [(shift - 1, shift)]
        top = shift + g.n - 1
        edges += [(top, top + 1)] + [(i, i + 1) for i in range(top + 1, top + 5)]
        adj = [0] * (top + 6)
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        mask = ((1 << g.n) - 1) << shift
        shifted = construct.ConstructionTrace()
        found = construct._drive(construct._build_tree(construct._Part(tuple(adj), mask), delta, shifted))
        assert found == code.mask << shift
        assert shifted.warnings == trace.warnings
        [step] = shifted.steps
        assert (step.case, step.detail) == (trace.steps[0].case, trace.steps[0].detail)
        assert step.contributed == tuple(v + shift for v in trace.steps[0].contributed)


class TestGraphConstructor:
    def test_c5(self):
        code, trace = construct_code(C5, 3)
        assert is_io_code(C5, code).ok
        assert 6 * len(code) <= 5 * 5

    def test_paw_base(self):
        code, trace = construct_code(PAW, 3)
        assert len(code) == 3
        assert is_io_code(PAW, code).ok

    def test_gadget_rings_exact(self):
        for p in (3, 5, 6):
            g, _ = gen_subcubic_gp(p)
            code, trace = construct_code(g, 3)
            assert is_io_code(g, code).ok
            # extremal instance: the bound forces exactly 5p
            assert len(code) == 5 * p

    def test_star_plus_edge_patterns(self):
        for variant in ("g1", "g2", "g3"):
            for k in (2, 3, 4, 5):
                g, _ = gen_star_plus_edge(variant, k)
                d = max(3, max_degree(g))
                code, trace = construct_code(g, d)
                assert is_io_code(g, code).ok
                assert check_bound(g.n, len(code), d) is not BoundStatus.VIOLATION

    def test_star_plus_edge_traces_are_pinned(self):
        # sha256 over (sorted code, trace) at delta = max(3, max degree) and
        # one more, computed while the constructor kept its own copy of the
        # patterns that gen_star_plus_edge's reference codes follow
        digest = hashlib.sha256()
        variants = set()
        for variant in ("g1", "g2", "g3"):
            for k in range(2, 16):
                g, _ = gen_star_plus_edge(variant, k)
                d = max(3, max_degree(g))
                for delta in (d, d + 1):
                    code, trace = construct_code(g, delta)
                    steps = [s for s in trace.steps if s.case == "star_plus_edge_pattern"]
                    variants.update(s.detail["variant"] for s in steps)
                    digest.update(json.dumps([sorted(code), trace.as_dict()], sort_keys=True).encode())
        assert variants == {"supports_joined", "center_to_leaf", "leaves_joined"}
        assert digest.hexdigest() == "dd947cd2d305ee0bbb46b9e4a84cb49158ab7979f8e44febfc01cf675cf7c89c"

    def test_every_star_plus_edge_leave_out_is_a_code(self):
        # what the proof in ``_build_graph`` states in place of a check: on
        # each star-plus-edge graph, every cycle edge whose deletion leaves a
        # subdivided star gives a pattern whose leave-out code verifies
        patterns = set()
        for variant in ("g1", "g2", "g3"):
            for k in range(2, 41):
                g, _ = gen_star_plus_edge(variant, k)
                full = (1 << g.n) - 1
                cycle = _induced_cycle(g.adj, full)
                found = 0
                for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                    tree = list(g.adj)
                    tree[x] ^= 1 << y
                    tree[y] ^= 1 << x
                    star = _subdivided_star(tree, full)
                    if star is None:
                        continue
                    pattern, left_out = families._star_plus_edge_leave_out(tree, full, star[0], (x, y))
                    code = VertexSet(g.n, [v for v in range(g.n) if v not in left_out])
                    assert is_io_code(g, code).ok, (variant, k, (x, y))
                    patterns.add(pattern)
                    found += 1
                assert found, (variant, k)
        assert patterns == {"supports_joined", "center_to_leaf", "leaves_joined"}

    def test_graph_codes_and_traces_are_pinned(self):
        # sha256 over (sorted code, trace) at delta = max(3, max degree) and
        # one more, taken while every graph-constructor level still copied
        # its part into a relabeled Graph.  Trees among them go through the
        # graph builder too, as ``construct_code`` sends them to the tree one.
        graphs = local_test_graphs()
        graphs += [g for g, _ in enumerate_graph_classes(7, 3) if g.n >= 5]
        graphs += [gen_subcubic_gp(p)[0] for p in (3, 5, 6, 7, 8, 9, 21)]
        graphs.append(PAW)
        graphs += [gen_star_plus_edge(v, k)[0] for v in ("g1", "g2", "g3") for k in range(2, 12)]
        digest = hashlib.sha256()
        cases = set()
        for g in graphs:
            d = max(3, max_degree(g))
            for delta in (d, d + 1):
                code, trace = construct._decompose(construct._build_graph, g, delta)
                cases.update(s.case for s in trace.steps)
                digest.update(json.dumps([sorted(code), trace.as_dict()], sort_keys=True).encode())
        assert len(graphs) == 278
        assert cases >= {
            "tree_reduction",
            "paw_base",
            "cycle_edge_removed",
            "cycle_vertex_removed",
            "star_plus_edge_pattern",
        }
        assert "exhaustive_fallback" not in cases
        assert digest.hexdigest() == "6649affdc50aaf9480d40fd4c37b0d8be6dacfc671ebc758efdead5715434784"

    def test_cycle_vertex_removed(self):
        # a 6- and an 8-cycle with a pendant leaf on every other vertex:
        # deleting any cycle edge leaves twins, so a degree-2 cycle vertex goes
        g6 = parse_graph6("HhEK@?G")
        code, trace = construct_code(g6, 3)
        assert sorted(code) == [0, 2, 3, 4, 5] and solve(g6).gamma == 5
        assert [(s.case, s.detail) for s in trace.steps] == [
            ("cycle_vertex_removed", {"vertex": 1}),
            ("tree_reduction", {"order": 8}),
            ("family_canonical", {"root": 4, "vector": [1, 0, 2, 0, 0, 0], "order": 8}),
        ]
        g8 = parse_graph6("KhCGKE?G?O?O")
        code, trace = construct_code(g8, 3)
        assert sorted(code) == [0, 2, 3, 4, 6, 7, 9, 11] and solve(g8).gamma == 7
        assert [s.case for s in trace.steps] == [
            "cycle_vertex_removed",
            "tree_reduction",
            "family_canonical",
            "twin_leaf_pruned",
            "deep_branch_split",
        ]
        assert trace.steps[0].detail == {"vertex": 1}
        assert trace.steps[3].detail == {"leaf": 5, "far_order": 6}
        assert trace.steps[4].detail == {
            "edge": (6, 5),
            "position": 3,
            "near_order": 5,
            "recognized_branch": True,
            "far_order": 6,
            "twin_pruned": True,
        }

    def test_validation_errors(self):
        # twin-free 6-cycle with one chord still contains a 4-cycle
        chorded = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        with pytest.raises(FourCyclePresent):
            construct_code(chorded, 3)
        with pytest.raises(TooSmall):
            construct_code(Graph(4, [(0, 1), (1, 2), (2, 3)]), 3)
        with pytest.raises(NoCode):
            construct_code(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), 3)

    def test_trees_routed(self):
        # the graph builder hands a tree to the tree builder; the entry point
        # sends a tree to the tree builder straight away
        code, trace = construct._decompose(construct._build_graph, path(7), 3)
        assert is_io_code(path(7), code).ok
        assert trace.steps[0].case == "tree_reduction"
        _, direct = construct_code(path(7), 3)
        assert direct.steps == trace.steps[1:]

    def test_exhaustive_small(self):
        for g, _ in enumerate_graph_classes(7):
            if g.n >= 5:
                d = max(3, max_degree(g))
                code, trace = construct_code(g, d)
                assert is_io_code(g, code).ok
                status = check_bound(g.n, len(code), d, is_exceptional_star=trace.exceptional_star)
                assert status is not BoundStatus.VIOLATION
                assert len(code) >= solve(g).gamma


class TestConstructionError:
    """A code that fails the final check raises ``ConstructionError`` with
    the trace of the steps that built it, and the CLI reports it."""

    @staticmethod
    def not_a_code(part, delta, trace):
        yield from ()  # a builder is a generator that needs no sub-instance here
        trace.add("family_canonical", {"order": part.mask.bit_count()}, [0])
        return 1  # {0} dominates only its neighbours

    @pytest.mark.parametrize(
        "builder, g",
        [("_build_tree", path(7)), ("_build_graph", C5)],
        ids=["_build_tree-construct_code-path7", "_build_graph-construct_code-C5"],
    )
    def test_final_check_raises_with_the_trace(self, monkeypatch, builder, g):
        monkeypatch.setattr(construct, builder, self.not_a_code)
        with pytest.raises(ConstructionError) as caught:
            construct_code(g, 3)
        assert str(caught.value) == "constructed set failed final verification"
        assert caught.value.trace.as_dict() == {
            "steps": [{"case": "family_canonical", "detail": {"order": g.n}, "contributed": [0]}],
            "warnings": [],
            "exceptional_star": False,
        }

    def test_cli_exits_with_status_1(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(construct, "_build_tree", self.not_a_code)
        f = tmp_path / "p7.edges"
        f.write_text("".join(f"{i} {i + 1}\n" for i in range(6)))
        assert iocodes.cli.main(["construct", str(f)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: constructed set failed final verification\n"


def sparse_c4_free_graphs(rng, count):
    """Seeded connected twin-free 4-cycle-free graphs: random trees of
    order 8 to 14 with up to three chords each."""
    found = []
    while len(found) < count:
        t = random_tree(rng.randint(8, 14), rng)
        edges = set(t.edges())
        for _ in range(rng.randint(1, 3)):
            u, v = sorted(rng.sample(range(t.n), 2))
            edges.add((u, v))
        g = Graph(t.n, sorted(edges))
        if _twin_free(g.adj) and not has_four_cycle(g):
            found.append(g)
    return found


def local_test_graphs():
    classes = [g for g, _ in enumerate_graph_classes(7) if g.n >= 5]
    # two cycles whose every edge deletion leaves twins, then the seeded graphs
    rings = [parse_graph6("HhEK@?G"), parse_graph6("KhCGKE?G?O?O")]
    return classes + rings + sparse_c4_free_graphs(random.Random(19), 150)


def no_twin_at(adj, mask, changed):
    """The constructor's local test: no vertex of ``changed`` has an open
    twin within ``mask``."""
    return all(_twin_of(adj, mask, x) is None for x in changed)


def twin_free_within(adj, mask):
    return _twin_free([adj[v] & mask for v in _members(mask)])


def is_code_within(adj, mask, code):
    """The IO-code definition, literally: within ``mask`` every vertex has
    a nonempty trace in ``code`` and no two traces agree."""
    members = [v for v in range(mask.bit_length()) if mask >> v & 1]
    traces = [frozenset(w for w in members if adj[v] >> w & 1 and code >> w & 1) for v in members]
    return code & ~mask == 0 and all(traces) and len(set(traces)) == len(traces)


class TestLocalTwinTest:
    """On a twin-free graph only the vertices a deletion changed can gain
    a twin, so testing them alone gives the whole remainder's verdict."""

    def test_cycle_edge_deletions(self):
        verdicts = set()
        for g in local_test_graphs():
            whole = (1 << g.n) - 1
            for edge in g.edges():
                h = Graph(g.n, [e for e in g.edges() if e != edge])
                if not is_connected(h):
                    continue  # a bridge lies on no cycle
                verdict = twin_free_within(h.adj, whole)
                assert no_twin_at(h.adj, whole, edge) == verdict
                verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_connected_vertex_deletions(self):
        verdicts = set()
        for g in local_test_graphs():
            for v in range(g.n):
                rest = (1 << g.n) - 1 ^ 1 << v
                if _reach(g.adj, rest, (rest & -rest).bit_length() - 1) != rest:
                    continue
                verdict = twin_free_within(g.adj, rest)
                assert no_twin_at(g.adj, rest, _members(g.adj[v] & rest)) == verdict
                verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_every_part_built_is_twin_free(self, monkeypatch):
        """The invariants the constructors' proofs rest on: every part is
        twin-free and connected, no tree part has fewer than 5 vertices,
        a path tail holds at most one vertex beyond the path's first five,
        a leaf, and a split's merged code, which is not checked, is an
        IO-code of its part.  A split that does not apply yields nothing
        and records nothing, and a twin-pruned split's near code holds the
        near endpoint."""
        parts = {"_build_tree": [], "_build_graph": []}
        for name, seen in parts.items():
            def spy(part, delta, trace, build=getattr(construct, name), seen=seen):
                seen.append(part)
                return build(part, delta, trace)

            monkeypatch.setattr(construct, name, spy)
        extras = []

        def tail_spy(path, part, near, tail_near=construct._tail_near):
            extras.append((part.adj, near, near ^ sum(1 << v for v in path)))
            return tail_near(path, part, near)

        monkeypatch.setattr(construct, "_tail_near", tail_spy)
        splits = {"built": 0, "missed": 0}

        def split_spy(part, delta, trace, *args, split=construct._split, **kwargs):
            recorded = len(trace.steps), len(trace.warnings)
            inner, code, yielded = split(part, delta, trace, *args, **kwargs), None, 0
            try:
                while True:
                    sub = inner.send(code)
                    yielded += 1
                    code = yield sub
            except StopIteration as done:
                code = done.value
            if code is None:
                assert yielded == 0 and (len(trace.steps), len(trace.warnings)) == recorded
                splits["missed"] += 1
            else:
                assert is_code_within(part.adj, part.mask, code)
                splits["built"] += 1
            return code

        monkeypatch.setattr(construct, "_split", split_spy)
        trees = [
            canonical_graph(t)
            for n in range(5, 17)
            for t in enumerate_trees(n)
            if _twin_free(t.adj)
        ]
        trees += [subdivided_random_tree(k, random.Random(k)) for k in range(20, 120, 2)]
        # every cyclic class to n = 9, past the enumeration's usual cap
        monkeypatch.setattr(families, "GRAPH_CAP", 9)
        cyclic = [g for g, _ in enumerate_graph_classes(9) if g.n >= 5 and g.edge_count >= g.n]
        assert len(cyclic) == 660
        local = local_test_graphs()
        traces = [construct_code(g, max(3, max_degree(g)))[1] for g in trees + local + cyclic]
        cyclic_steps = [step for t in traces[-len(cyclic):] for step in t.steps]
        assert sum(step.case == "cycle_vertex_removed" for step in cyclic_steps) >= 6
        assert splits["built"] > 0 and splits["missed"] > 0
        pruned = [step for t in traces for step in t.steps if step.detail.get("twin_pruned")]
        assert pruned and all(step.detail["edge"][0] in step.contributed for step in pruned)
        for seen, inputs in ((parts["_build_tree"], trees), (parts["_build_graph"], local + cyclic)):
            assert len(seen) > len(inputs)
            assert all(twin_free_within(part.adj, part.mask) for part in seen)
            assert all(_reach(part.adj, part.mask, _members(part.mask)[0]) == part.mask for part in seen)
        assert min(part.mask.bit_count() for part in parts["_build_tree"]) >= 5
        shapes = set()
        for adj, near, extra in extras:
            assert extra & (extra - 1) == 0
            assert not extra or (adj[extra.bit_length() - 1] & near).bit_count() == 1
            shapes.add(extra.bit_count())
        assert shapes == {0, 1}

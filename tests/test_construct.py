import random

import pytest

from conftest import random_tree
from iocodes import (
    BadParam,
    BoundStatus,
    ConstructionError,
    ConstructionTrace,
    DegreeExceeded,
    Disconnected,
    FourCyclePresent,
    Graph,
    GraphError,
    NoCode,
    NotATree,
    TooSmall,
    check_bound,
    construct_graph_code,
    construct_tree_code,
    enumerate_graph_classes,
    enumerate_trees,
    find_open_twins,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    is_io_code,
    max_degree,
    solve,
)


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
CYCLE = (NotATree, "input has a cycle")
C4 = (FourCyclePresent, "input contains a 4-cycle")
TWINS = (NoCode, "open twins (1, 2)")
DEGREE = (DegreeExceeded, "maximum degree 5 exceeds delta=4")

# (input, delta, first failing check of the tree entry, of the graph entry);
# None where the input is valid for that entry
VALIDATION_TABLE = {
    "bad delta": (path(6), 2, BAD_DELTA, BAD_DELTA),
    "too small": (path(4), 3, ORDER_4, ORDER_4),
    "paw": (PAW, 3, ORDER_4, None),
    "disconnected": (disjoint(path(5), path(5)), 3, DISCONNECTED, DISCONNECTED),
    "cycle": (C5, 3, CYCLE, None),
    "twins": (Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 3, TWINS, TWINS),
    "4-cycle": (CHORDED_C6, 3, CYCLE, C4),
    "degree": (gen_subdivided_star(5)[0], 4, DEGREE, DEGREE),
    "bad delta, too small": (path(3), 2, BAD_DELTA, BAD_DELTA),
    "too small, disconnected": (Graph(4, [(0, 1), (2, 3)]), 3, ORDER_4, ORDER_4),
    "disconnected, cycle": (disjoint(C5, path(5)), 3, DISCONNECTED, DISCONNECTED),
    "cycle, twins, 4-cycle": (
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), 3, CYCLE, (NoCode, "open twins (0, 2)")
    ),
    "twins, degree": (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 3, TWINS, TWINS),
    "disconnected, twins, degree": (
        disjoint(Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), path(5)), 3, DISCONNECTED, DISCONNECTED
    ),
    "4-cycle, degree": (Graph(7, CHORDED_C6.edges() + [(0, 6)]), 3, CYCLE, C4),
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
        g, delta, tree_error, graph_error = VALIDATION_TABLE[case]
        for construct, expected in ((construct_tree_code, tree_error), (construct_graph_code, graph_error)):
            if expected is None:
                code, _ = construct(g, delta)
                assert is_io_code(g, code).ok
                continue
            cls, message = expected
            with pytest.raises(GraphError) as caught:
                construct(g, delta)
            assert type(caught.value) is cls and str(caught.value) == message, construct.__name__

    def test_twin_error_carries_the_pair(self):
        g = VALIDATION_TABLE["twins"][0]
        for construct in (construct_tree_code, construct_graph_code):
            with pytest.raises(NoCode) as caught:
                construct(g, 3)
            assert caught.value.witness == (1, 2)


class TestTreeConstructor:
    def test_exceptional_star(self):
        for delta in (3, 4, 5):
            g, _ = gen_subdivided_star(delta)
            code, trace = construct_tree_code(g, delta)
            assert trace.exceptional_star
            assert len(code) == 2 * delta
            status = check_bound(g.n, len(code), delta, is_exceptional_star=True)
            assert status is BoundStatus.EXCEPTIONAL_STAR

    def test_star_with_larger_delta_not_exceptional(self):
        g, _ = gen_subdivided_star(3)
        code, trace = construct_tree_code(g, 4)
        assert not trace.exceptional_star
        assert check_bound(g.n, len(code), 4) is BoundStatus.WITHIN_BOUND

    def test_tight_pair_meets_bound_exactly(self):
        for delta in (3, 4):
            g, _ = gen_tight_tree_pair(delta)
            code, trace = construct_tree_code(g, delta)
            assert is_io_code(g, code).ok
            assert 2 * delta * len(code) <= (2 * delta - 1) * g.n
            # the instance is extremal, so the constructor cannot do better
            assert len(code) == 4 * delta - 2

    def test_gadget_tree_tight(self):
        # ring with one cycle edge deleted: a tree needing exactly 5/6 n
        from iocodes import delete_edge

        g, spec = gen_subcubic_gp(3)
        ring = spec.distinguished["cycle"]
        t = delete_edge(g, (ring[0], ring[-1]))
        code, trace = construct_tree_code(t, 3)
        assert is_io_code(t, code).ok
        assert 6 * len(code) == 5 * t.n

    def test_validation_errors(self):
        with pytest.raises(BadParam):
            construct_tree_code(path(6), 2)
        with pytest.raises(TooSmall):
            construct_tree_code(path(4), 3)
        with pytest.raises(NotATree):
            construct_tree_code(C5, 3)
        with pytest.raises(NoCode):
            construct_tree_code(Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 3)
        with pytest.raises(DegreeExceeded):
            g, _ = gen_subdivided_star(5)
            construct_tree_code(g, 4)

    def test_deep_decomposition_on_valid_trees(self):
        # deep decompositions of seeded subdivided random trees: every step
        # recurses on a smaller tree, so nothing but the interpreter's
        # recursion limit bounds the depth, and these stay well inside it
        for n in (109, 113, 117):
            rng = random.Random(0)
            k = (n + 1) // 2
            edges = []
            for i in range(1, k):
                edges += [(rng.randrange(i), k + i - 1), (k + i - 1, i)]
            t = Graph(n, edges)
            code, trace = construct_tree_code(t, 8)
            assert is_io_code(t, code).ok
            assert check_bound(t.n, len(code), 8) is BoundStatus.WITHIN_BOUND

    def test_path_beyond_the_recursion_limit_raises_a_typed_error(self):
        # each 5-vertex tail peeled off a path nests a few Python frames
        with pytest.raises(ConstructionError) as err:
            construct_tree_code(path(2000), 3)
        assert "recursion limit" in str(err.value)
        assert isinstance(err.value.trace, ConstructionTrace)

    def test_trace_union_reconstructs_code(self):
        for n in range(5, 12):
            for t in enumerate_trees(n):
                if find_open_twins(t):
                    continue
                d = max(3, max_degree(t))
                code, trace = construct_tree_code(t, d)
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
                code, trace = construct_tree_code(t, d)
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
            code, trace = construct_tree_code(t, d)
            assert is_io_code(t, code).ok
            assert check_bound(t.n, len(code), d, is_exceptional_star=trace.exceptional_star) is not BoundStatus.VIOLATION


class TestGraphConstructor:
    def test_c5(self):
        code, trace = construct_graph_code(C5, 3)
        assert is_io_code(C5, code).ok
        assert 6 * len(code) <= 5 * 5

    def test_paw_base(self):
        code, trace = construct_graph_code(PAW, 3)
        assert len(code) == 3
        assert is_io_code(PAW, code).ok

    def test_gadget_rings_exact(self):
        for p in (3, 5, 6):
            g, _ = gen_subcubic_gp(p)
            code, trace = construct_graph_code(g, 3)
            assert is_io_code(g, code).ok
            # extremal instance: the bound forces exactly 5p
            assert len(code) == 5 * p

    def test_star_plus_edge_patterns(self):
        for variant in ("g1", "g2", "g3"):
            for k in (2, 3, 4, 5):
                g, _ = gen_star_plus_edge(variant, k)
                d = max(3, max_degree(g))
                code, trace = construct_graph_code(g, d)
                assert is_io_code(g, code).ok
                assert check_bound(g.n, len(code), d) is not BoundStatus.VIOLATION

    def test_validation_errors(self):
        # twin-free 6-cycle with one chord still contains a 4-cycle
        chorded = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        with pytest.raises(FourCyclePresent):
            construct_graph_code(chorded, 3)
        with pytest.raises(TooSmall):
            construct_graph_code(Graph(4, [(0, 1), (1, 2), (2, 3)]), 3)
        with pytest.raises(NoCode):
            construct_graph_code(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), 3)

    def test_trees_routed(self):
        code, trace = construct_graph_code(path(7), 3)
        assert is_io_code(path(7), code).ok
        assert trace.steps[0].case == "tree_reduction"

    def test_exhaustive_small(self):
        for g, _ in enumerate_graph_classes(7):
            if g.n >= 5:
                d = max(3, max_degree(g))
                code, trace = construct_graph_code(g, d)
                assert is_io_code(g, code).ok
                status = check_bound(g.n, len(code), d, is_exceptional_star=trace.exceptional_star)
                assert status is not BoundStatus.VIOLATION
                assert len(code) >= solve(g).gamma

from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

from conftest import brute_open_twins, random_graph
from iocodes import (
    Graph,
    NoCode,
    UniverseMismatch,
    Verdict,
    VertexSet,
    admits_io_code,
    gen_subcubic_gp,
    gen_subdivided_star,
    is_io_code,
    is_separating_open_code,
    is_total_dominating,
    solve,
)
from iocodes.verify import NOT_SEPARATED, NOT_TOTALLY_DOMINATED, require_admissible, signatures


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def vs(n, members):
    return VertexSet(n, members)


class TestTotalDomination:
    def test_p5_middle(self):
        assert is_total_dominating(path(5), vs(5, [1, 2, 3])).ok

    def test_p5_witnesses(self):
        # {1,3} leaves vertex 1 itself without a neighbor in the set
        verdict = is_total_dominating(path(5), vs(5, [1, 3]))
        assert verdict.violation == (NOT_TOTALLY_DOMINATED, 1)
        verdict = is_total_dominating(path(5), vs(5, [0, 1]))
        assert verdict.violation == (NOT_TOTALLY_DOMINATED, 3)

    def test_star_supports_plus_center(self):
        g, spec = gen_subdivided_star(4)
        s = vs(g.n, spec.distinguished["supports"] + [spec.distinguished["center"]])
        assert is_total_dominating(g, s).ok

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            is_total_dominating(path(3), vs(4, [0]))


class TestSeparation:
    def test_p4_full(self):
        assert is_separating_open_code(path(4), VertexSet(4, range(4))).ok

    def test_p4_middle_pair_collides(self):
        verdict = is_separating_open_code(path(4), vs(4, [1, 2]))
        assert verdict.violation == (NOT_SEPARATED, 0, 2)

    def test_empty_set_fails(self):
        assert not is_separating_open_code(path(3), vs(3, [])).ok

    def test_witness_is_smallest_pair(self):
        # signatures: 0:{1} 1:{} 2:{} 3:{} under S={1} on 2K2-ish path bits
        g = Graph(4, [(0, 1), (2, 3)])
        verdict = is_separating_open_code(g, vs(4, [1]))
        assert verdict.violation == (NOT_SEPARATED, 1, 2)

    def test_witness_reverifies(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(2, 10), rng.random(), rng)
            s = vs(g.n, [v for v in range(g.n) if rng.random() < 0.5])
            verdict = is_separating_open_code(g, s)
            if not verdict.ok and verdict.violation[0] == NOT_SEPARATED:
                _, u, v = verdict.violation
                sigs = signatures(g, s)
                assert sigs[u] == sigs[v]


class TestPassingVerdict:
    def test_both_predicates_share_one_frozen_passing_verdict(self):
        dominated = is_total_dominating(path(5), vs(5, [1, 2, 3]))
        separated = is_separating_open_code(path(4), VertexSet(4, range(4)))
        assert dominated is separated is is_io_code(path(4), VertexSet(4, range(4)))
        assert dominated == Verdict(True) and dominated != Verdict(False)
        assert (dominated.ok, dominated.violation, dominated.describe(), bool(dominated)) == (True, None, "ok", True)
        with pytest.raises(FrozenInstanceError):
            dominated.ok = False


class TestIoCode:
    def test_star_reference(self):
        g, spec = gen_subdivided_star(4)
        assert is_io_code(g, spec.reference_code).ok

    def test_gadget_reference(self):
        g, spec = gen_subcubic_gp(3)
        assert is_io_code(g, spec.reference_code).ok

    def test_p2_full(self):
        assert is_io_code(path(2), VertexSet(2, range(2))).ok

    def test_domination_reported_first(self):
        g = Graph(4, [(0, 1), (2, 3)])
        verdict = is_io_code(g, vs(4, [1]))
        assert verdict.violation[0] == NOT_TOTALLY_DOMINATED


class TestAdmits:
    def test_c4_has_twins(self):
        assert not admits_io_code(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_claw_leaf_twins(self):
        assert not admits_io_code(Graph(4, [(0, 1), (0, 2), (0, 3)]))

    def test_star_admits(self):
        g, _ = gen_subdivided_star(3)
        assert admits_io_code(g)

    def test_isolate_blocks(self):
        assert not admits_io_code(Graph(3, [(0, 1)]))

    def test_empty_graph_is_named(self):
        with pytest.raises(NoCode, match="^graph is empty$") as caught:
            require_admissible(Graph(0))
        assert caught.value.witness is None
        with pytest.raises(NoCode, match="^graph has an isolated vertex$") as caught:
            require_admissible(Graph(3, [(0, 2)]))
        assert caught.value.witness == 1

    def test_agrees_with_solve_and_its_witness(self):
        # every labeled graph on at most 5 vertices, the empty one included
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
                try:
                    solve(g)
                    refused = None
                except NoCode as error:
                    refused = error
                assert admits_io_code(g) == (refused is None)
                if refused is None:
                    continue
                isolates = [v for v in range(n) if not g.adj[v]]
                if n == 0 or isolates:
                    assert refused.witness == (isolates[0] if isolates else None)
                else:
                    assert refused.witness == brute_open_twins(g)[0]

    def test_equivalent_to_full_set_check(self, rng):
        for _ in range(150):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            assert admits_io_code(g) == is_io_code(g, VertexSet(g.n, range(g.n))).ok


class TestProperties:
    def test_superset_closure(self, rng):
        checked = 0
        while checked < 100:
            g = random_graph(rng.randint(2, 12), rng.random(), rng)
            s = vs(g.n, [v for v in range(g.n) if rng.random() < 0.6])
            if not is_io_code(g, s).ok:
                continue
            checked += 1
            extra = [v for v in range(g.n) if rng.random() < 0.3]
            sup = vs(g.n, [*s, *extra])
            assert is_io_code(g, sup).ok

    def test_forced_supports(self, rng):
        from iocodes import solve

        for _ in range(50):
            g = random_graph(rng.randint(3, 10), rng.uniform(0.2, 0.6), rng)
            if not admits_io_code(g):
                continue
            supports = {v for v in range(g.n) if any(g.degree(w) == 1 for w in g.neighbors(v))}
            code = solve(g).code
            assert supports <= set(code)

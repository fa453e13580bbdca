import hashlib
import json
import random
from itertools import product

import networkx as nx
import pytest

from conftest import prufer_tree
from iocodes import (
    BadParam,
    Graph,
    build_family_tree,
    enumerate_graph_classes,
    enumerate_small_graphs,
    enumerate_trees,
    enumerate_twin_free_trees,
    families,
    find_open_twins,
    gen_reduced_subdivided_star,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    has_four_cycle,
    is_admissible,
    is_io_code,
    max_degree,
)
from iocodes.canon import canonical_graph
from iocodes.families import (
    TREE_CAP,
    _family_match,
    _family_match_rooted,
    _free_tree_levels,
    _subdivided_star,
    _subdivided_star_leave_out,
    _tree_of_levels,
    _twin_leaves,
)
from iocodes.formats import emit_graph6
from iocodes.graphs import _induced_cycle, _twin_free

# known counts of free trees by order
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


class TestAttachmentVector:
    def test_admissibility(self):
        assert is_admissible((0, 2, 0, 0, 0, 0))
        assert is_admissible([0, 0, 0, 1, 0, 0])
        for bad in ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0)):
            assert not is_admissible(bad)
        assert not is_admissible((2, 1, 0, 0, 0, 0))
        assert not is_admissible((0, 0, 0, 0, 0, 0))
        assert not is_admissible((0, 2, -1, 0, 0, 0))
        assert not is_admissible((0, 2, 0, 0, 0)) and not is_admissible((0, 2, 0, 0, 0, 0, 0))

    def test_order_formula(self):
        g, spec = build_family_tree([1, 3, 2, 3, 2, 2])
        assert g.n == spec.params["order"] == 1 + 1 + 6 + 6 + 12 + 8 + 10
        assert spec.params["vector"] == (1, 3, 2, 3, 2, 2)

    def test_rejected_vector(self):
        for vector in ((1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 2, -1, 0, 0, 0), (0, 2, 0)):
            with pytest.raises(BadParam, match="not admissible"):
                build_family_tree(vector)


class TestFamilyTrees:
    def test_figure_instance(self):
        g, spec = build_family_tree((1, 3, 2, 3, 2, 2))
        assert g.degree(0) == 13
        assert g.n == 44
        assert is_io_code(g, spec.reference_code).ok

    def test_plain_star_is_family_member(self):
        g, spec = build_family_tree((0, 4, 0, 0, 0, 0))
        star, star_spec = gen_subdivided_star(4)
        assert canonical_graph(g) == canonical_graph(star)
        assert len(spec.reference_code) == 8
        assert spec.reference_code == star_spec.reference_code

    def test_reduced_star_is_family_member(self):
        g, _ = build_family_tree((1, 3, 0, 0, 0, 0))
        star, _ = gen_reduced_subdivided_star(4)
        assert canonical_graph(g) == canonical_graph(star)

    def test_special_case_small_trees(self):
        g, spec = build_family_tree((1, 0, 1, 0, 0, 0))
        p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert canonical_graph(g) == canonical_graph(p5)
        c = spec.reference_code
        assert len(c) == 4 and is_io_code(g, c).ok

        g2, spec2 = build_family_tree((1, 0, 0, 0, 1, 0))
        red, _ = gen_reduced_subdivided_star(3)
        assert canonical_graph(g2) == canonical_graph(red)
        c2 = spec2.reference_code
        assert len(c2) == 5 and is_io_code(g2, c2).ok

    def test_canonical_sets_verify_exhaustively(self):
        # Every admissible vector with at most 4 attachments in total.
        # The lone degenerate member is the single-type-5 tree, whose root
        # is an open twin of the attachment's near leaf; no code exists
        # there at all, so it is asserted separately.
        count = 0
        for vec in product(range(2), range(5), range(5), range(5), range(5), range(5)):
            if not is_admissible(vec) or sum(vec) > 4:
                continue
            g, spec = build_family_tree(vec)
            if vec == (0, 0, 0, 0, 1, 0):
                assert find_open_twins(g) == [(0, 2)]
                assert spec.reference_code is None
                continue
            assert find_open_twins(g) == []
            count += 1
            assert is_io_code(g, spec.reference_code).ok
        assert count > 100

    def test_canonical_size_within_degree_bound(self):
        # at root degree >= 2, the canonical set respects the
        # (2*delta - 1)/(2*delta) fraction unless the tree is the full
        # subdivided star for that delta
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            vec = tuple([rng.randint(0, 1)] + [rng.randint(0, 3) for _ in range(5)])
            if not is_admissible(vec) or sum(vec) < 2 or sum(vec) > 9:
                continue
            g, spec = build_family_tree(vec)
            delta = max(3, max_degree(g))
            full = (1 << g.n) - 1
            star = _subdivided_star(g.adj, full)
            if star is not None and star[1] == delta:
                continue
            size = len(spec.reference_code)
            assert 2 * delta * size <= (2 * delta - 1) * g.n, vec
            checked += 1

    def test_canonical_sets_verify_random_large(self):
        rng = random.Random(7)
        for _ in range(60):
            while True:
                vec = tuple([rng.randint(0, 1)] + [rng.randint(0, 3) for _ in range(5)])
                if is_admissible(vec) and sum(vec) <= 10 and vec != (0, 0, 0, 0, 1, 0):
                    break
            g, spec = build_family_tree(vec)
            assert is_io_code(g, spec.reference_code).ok


class TestRecognition:
    def test_p5_from_end(self):
        p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        root, vector, _ = _family_match(p5.adj, 0b11111)
        assert root == 0 and vector == (0, 0, 0, 1, 0, 0)

    def test_reduced_star(self):
        g, _ = gen_reduced_subdivided_star(4)
        root, vector, _ = _family_match(g.adj, (1 << g.n) - 1)
        assert root == 0 and vector == (1, 3, 0, 0, 0, 0)

    def test_small_paths_rejected(self):
        for n in (2, 3, 4):
            g = Graph(n, [(i, i + 1) for i in range(n - 1)])
            assert _family_match(g.adj, (1 << n) - 1) is None

    def test_round_trip_isomorphic(self):
        rng = random.Random(13)
        for _ in range(40):
            while True:
                vec = [rng.randint(0, 1)] + [rng.randint(0, 2) for _ in range(5)]
                if is_admissible(vec) and 1 <= sum(vec) <= 6:
                    break
            g, _ = build_family_tree(vec)
            match = _family_match(g.adj, (1 << g.n) - 1)
            assert match is not None
            rebuilt, _ = build_family_tree(match[1])
            assert canonical_graph(g) == canonical_graph(rebuilt)

    def test_rooted_variant(self):
        g, _ = build_family_tree((0, 2, 1, 0, 0, 0))
        full = (1 << g.n) - 1
        match = _family_match_rooted(g.adj, full, 0)
        assert match is not None
        assert match[1] == (0, 2, 1, 0, 0, 0)
        assert _family_match_rooted(g.adj, full, 1) is None


class TestNamedGenerators:
    def test_subdivided_star_orders(self):
        for d in range(2, 7):
            g, spec = gen_subdivided_star(d)
            assert g.n == 2 * d + 1 == spec.params["order"]
            assert max_degree(g) == d
            assert find_open_twins(g) == []

    def test_reduced_star_orders(self):
        for d in range(2, 7):
            g, _ = gen_reduced_subdivided_star(d)
            assert g.n == 2 * d
        g2, _ = gen_reduced_subdivided_star(2)
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert canonical_graph(g2) == canonical_graph(p4)

    def test_tight_pair(self):
        for d in (3, 4, 5):
            g, spec = gen_tight_tree_pair(d)
            assert g.n == 4 * d
            assert find_open_twins(g) == []
            assert not has_four_cycle(g)
            assert is_io_code(g, spec.reference_code).ok
            assert len(spec.reference_code) == 4 * d - 2

    def test_gadget_cycle(self):
        for p in (3, 5, 6, 7):
            g, spec = gen_subcubic_gp(p)
            assert g.n == 6 * p
            assert max_degree(g) == 3
            assert find_open_twins(g) == []
            assert not has_four_cycle(g)
            assert is_io_code(g, spec.reference_code).ok
            assert len(spec.reference_code) == 5 * p

    def test_gadget_cycle_triangle_free_for_big_p(self):
        g, _ = gen_subcubic_gp(5)
        assert len(_induced_cycle(g.adj, (1 << g.n) - 1)) == 5

    def test_gadget_cycle_rejects_p4(self):
        with pytest.raises(BadParam):
            gen_subcubic_gp(4)
        with pytest.raises(BadParam):
            gen_subcubic_gp(2)

    def test_star_plus_edge(self):
        g, _ = gen_star_plus_edge("g2", 2)
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert canonical_graph(g) == canonical_graph(c5)
        for variant in ("g1", "g2", "g3"):
            for k in (2, 3, 4):
                g, spec = gen_star_plus_edge(variant, k)
                assert g.n == 2 * k + 1
                assert is_io_code(g, spec.reference_code).ok
                assert not has_four_cycle(g)
        g3, _ = gen_star_plus_edge("g3", 4)
        assert g3.degree(0) == 5  # center degree k + 1

    def test_generators_are_pinned(self):
        # sha256 over each instance's graph6 and sidecar fields, computed
        # before the star-plus-edge rule and the bridged pair's layout were
        # read off their base stars' specs
        calls = [(gen, d) for d in range(2, 31) for gen in (gen_subdivided_star, gen_reduced_subdivided_star)]
        calls += [(gen_tight_tree_pair, d) for d in range(3, 31)]
        calls += [(gen_subcubic_gp, p) for p in (3, *range(5, 31))]
        calls += [(gen_star_plus_edge, variant, k) for variant in ("g1", "g2", "g3") for k in range(2, 31)]
        digest = hashlib.sha256()
        uncoded = []
        for gen, *params in calls:
            g, spec = gen(*params)
            ref = None if spec.reference_code is None else sorted(spec.reference_code)
            fields = [emit_graph6(g), spec.kind, spec.params, spec.distinguished, ref]
            digest.update(json.dumps(fields, sort_keys=True).encode())
            if ref is None:
                uncoded.append((gen, *params))
            else:
                assert is_io_code(g, spec.reference_code).ok, (gen.__name__, params)
        assert len(calls) == 200
        assert uncoded == [(gen_reduced_subdivided_star, 2)]  # P4, whose canonical set is no code
        assert digest.hexdigest() == "373322954b546805b213f7dd21f9ac7d7676445230c5d0286ad94b56378f6709"

    def test_bad_params(self):
        for call in (
            lambda: gen_subdivided_star(1),
            lambda: gen_tight_tree_pair(2),
            lambda: gen_star_plus_edge("g9", 3),
            lambda: gen_star_plus_edge("g1", 1),
        ):
            with pytest.raises(BadParam):
                call()


def relabeled_stars(rng):
    """Four randomly relabeled subdivided stars on each of 2 to 9 legs."""
    out = []
    for k in range(2, 10):
        g, _ = gen_subdivided_star(k)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    return out


class TestSubdividedStar:
    def test_recognition_matches_the_definition(self):
        rng = random.Random(13)
        graphs = [t for n in range(1, 14) for t in enumerate_trees(n)] + relabeled_stars(rng)
        stars = 0
        for g in graphs:
            k = (g.n - 1) // 2
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            is_star = k >= 2 and g.n % 2 == 1
            is_star = is_star and nx.is_isomorphic(h, nx.Graph(gen_subdivided_star(k)[0].edges()))
            # the center is the one vertex within distance 2 of every other
            expected = (nx.center(h)[0], k) if is_star else None
            assert _subdivided_star(g.adj, (1 << g.n) - 1) == expected
            stars += is_star
        assert stars == 5 + 8 * 4  # k = 2..6 among the trees, then the relabeled stars

    def test_leave_out_matches_the_rules_it_replaced(self):
        def leaves(g):
            return [v for v in range(g.n) if g.degree(v) == 1]

        def split_off_star(g, labels):
            # the split-off star kept all but its lowest-label leaf
            return {min(labels[v] for v in leaves(g))}

        def absorbed_star(g, labels, cut):
            # a cut support lost its leaf and the lowest other leaf, a cut
            # leaf the lowest other leaf
            if g.degree(cut) == 2:
                leaf_of_cut = next(v for v in g.neighbors(cut) if g.degree(v) == 1)
                others = sorted(labels[v] for v in leaves(g) if v != leaf_of_cut)
                return {labels[leaf_of_cut], others[0]}
            return {sorted(labels[v] for v in leaves(g) if v != cut)[0]}

        rng = random.Random(17)
        for g in relabeled_stars(rng):
            # increasing, as the labels of every part the constructor relabels
            labels = sorted(rng.sample(range(100), g.n))
            full = (1 << g.n) - 1
            assert {labels[v] for v in _subdivided_star_leave_out(g.adj, full)} == split_off_star(g, labels)
            if g.n < 7:
                continue  # absorbed stars have delta >= 3 legs; on 2 the old rule read the center as a support
            # every leaf and support; the cut endpoint is never the center,
            # whose degree exceeds it
            for cut in (v for v in range(g.n) if g.degree(v) <= 2):
                new = _subdivided_star_leave_out(g.adj, full, cut)
                assert {labels[v] for v in new} == absorbed_star(g, labels, cut)


class TestTreeEnumeration:
    def test_known_counts(self):
        for n, count in FREE_TREES.items():
            assert sum(1 for _ in enumerate_trees(n)) == count

    def test_all_are_trees_distinct(self):
        seen = set()
        for t in enumerate_trees(8):
            assert t.edge_count == t.n - 1
            key = canonical_graph(t)
            assert key not in seen
            seen.add(key)

    def test_matches_prufer_oracle(self):
        # independent generation: all labeled trees via their codes, then
        # canonical-form dedup
        for n in range(3, 8):
            classes = set()
            for seq in product(range(n), repeat=n - 2):
                classes.add(canonical_graph(prufer_tree(list(seq))))
            enumerated = {canonical_graph(t) for t in enumerate_trees(n)}
            assert enumerated == classes

    def test_cap(self):
        with pytest.raises(BadParam):
            list(enumerate_trees(25))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_networkx_in_order(self, n):
        # networkx implements the same level-sequence algorithm; its trees,
        # labels included, must come out in the same order
        expected = [Graph(n, t.edges()).adj for t in nx.nonisomorphic_trees(n)]
        assert [t.adj for t in enumerate_trees(n)] == expected

    def test_counts_to_the_cap(self):
        # all trees against a counting formula (OEIS A000055), twin-free
        # ones against the known counts; a tree's open twins are two
        # leaves on one support vertex
        twin_free_counts = {14: 360, 15: 766, 16: 1692, 17: 3726, 18: 8370}
        assert max(twin_free_counts) == TREE_CAP
        for n, twin_free in twin_free_counts.items():
            total = found = 0
            for t in enumerate_trees(n):
                total += 1
                leaves = sum(1 << v for v in range(n) if t.adj[v].bit_count() == 1)
                found += all((a & leaves).bit_count() < 2 for a in t.adj)
            assert (total, found) == (nx.number_of_nonisomorphic_trees(n), twin_free)

    def test_twin_rule_matches_the_filter_to_the_cap(self):
        # every level sequence up to the cap, about 205,000 of them: the
        # rule names the first vertex of the first pair of consecutive
        # leaves with one neighbour, and there is one exactly when the tree
        # has open twins
        sequences = 0
        for n in range(1, TREE_CAP + 1):
            for levels in _free_tree_levels(n, skip_twins=False):
                sequences += 1
                adj = _tree_of_levels(levels).adj
                first = next((v for v in range(n - 1) if adj[v] == adj[v + 1] and adj[v].bit_count() == 1), None)
                assert _twin_leaves(levels) == first, levels
                assert (first is None) == _twin_free(adj), levels
        assert sequences == sum(nx.number_of_nonisomorphic_trees(n) for n in range(1, TREE_CAP + 1))

    def test_twin_free_walk_jumps_past_twin_prefixes(self, monkeypatch):
        # the unfiltered walk takes 34,920 rooted steps for n = 5..16; the
        # jumps leave one step per tree kept and one per block skipped
        steps = 0
        step = families._next_rooted_levels

        def counted(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(families, "_next_rooted_levels", counted)
        trees = sum(1 for n in range(5, 17) for _ in enumerate_twin_free_trees(n))
        assert trees == 3149
        assert steps <= 6386

    @pytest.mark.parametrize("n", range(1, TREE_CAP + 1))
    def test_twin_free_trees_are_the_filtered_trees_in_order(self, n):
        expected = [t for t in enumerate_trees(n) if _twin_free(t.adj)]
        assert list(enumerate_twin_free_trees(n)) == expected

    @pytest.mark.parametrize("n", [0, TREE_CAP + 1])
    def test_twin_free_cap(self, n):
        with pytest.raises(BadParam, match=f"1 <= n <= {TREE_CAP}, got {n}"):
            next(enumerate_twin_free_trees(n))


class TestSmallGraphEnumeration:
    def test_labeled_total(self):
        assert sum(1 for _ in enumerate_small_graphs(4)) == 64

    def test_connected_classes_n3(self):
        # to order 4: K1, K2, the triangle, the path P4 and the paw
        classes = [g for g, _ in enumerate_graph_classes(4)]
        expected = [Graph(1), Graph(2, [(0, 1)]), Graph(3, [(0, 1), (1, 2), (0, 2)]),
                    Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])]
        assert [g.n for g in classes] == [1, 2, 3, 4, 4]
        assert sorted(canonical_graph(g).adj for g in classes) == sorted(canonical_graph(g).adj for g in expected)

    def test_filters_sound(self, rng):
        for g in enumerate_small_graphs(5, connected=True, twin_free=True, c4_free=True):
            assert find_open_twins(g) == []
            assert not has_four_cycle(g)
            from iocodes import is_connected

            assert is_connected(g)

    def test_c5_present_at_n5(self):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        keys = {canonical_graph(g) for g, _ in enumerate_graph_classes(5)}
        assert canonical_graph(c5) in keys

    def test_cap(self):
        with pytest.raises(BadParam):
            next(enumerate_small_graphs(9))

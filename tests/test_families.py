import random
from itertools import product

import networkx as nx
import pytest

from conftest import prufer_tree
from iocodes import (
    AttachmentVector,
    BadParam,
    Graph,
    NotInFamily,
    build_family_tree,
    canonical_set,
    enumerate_graph_classes,
    enumerate_small_graphs,
    enumerate_trees,
    find_open_twins,
    gen_reduced_subdivided_star,
    gen_star_plus_edge,
    gen_subcubic_gp,
    gen_subdivided_star,
    gen_tight_tree_pair,
    has_four_cycle,
    is_io_code,
    max_degree,
    recognize_family,
    recognize_family_rooted,
)
from iocodes.canon import canonical_graph6, isomorphic
from iocodes.families import TREE_CAP

# known counts of free trees by order
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


class TestAttachmentVector:
    def test_admissibility(self):
        assert AttachmentVector.of((0, 2, 0, 0, 0, 0)).is_admissible()
        assert AttachmentVector.of((0, 0, 0, 1, 0, 0)).is_admissible()
        for bad in ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0)):
            assert not AttachmentVector.of(bad).is_admissible()
        assert not AttachmentVector.of((2, 1, 0, 0, 0, 0)).is_admissible()
        assert not AttachmentVector.of((0, 0, 0, 0, 0, 0)).is_admissible()

    def test_order_formula(self):
        vec = AttachmentVector.of((1, 3, 2, 3, 2, 2))
        g, _ = build_family_tree(vec)
        assert g.n == vec.order() == 1 + 1 + 6 + 6 + 12 + 8 + 10

    def test_rejected_vector(self):
        with pytest.raises(NotInFamily):
            build_family_tree((1, 0, 0, 0, 0, 0))


class TestFamilyTrees:
    def test_figure_instance(self):
        g, spec = build_family_tree((1, 3, 2, 3, 2, 2))
        assert g.degree(0) == 13
        assert g.n == 44
        c = canonical_set(spec)
        assert is_io_code(g, c).ok

    def test_plain_star_is_family_member(self):
        g, spec = build_family_tree((0, 4, 0, 0, 0, 0))
        star, star_spec = gen_subdivided_star(4)
        assert isomorphic(g, star)
        assert len(canonical_set(spec)) == 8

    def test_reduced_star_is_family_member(self):
        g, _ = build_family_tree((1, 3, 0, 0, 0, 0))
        star, _ = gen_reduced_subdivided_star(4)
        assert isomorphic(g, star)

    def test_special_case_small_trees(self):
        g, spec = build_family_tree((1, 0, 1, 0, 0, 0))
        p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert isomorphic(g, p5)
        c = canonical_set(spec)
        assert len(c) == 4 and is_io_code(g, c).ok

        g2, spec2 = build_family_tree((1, 0, 0, 0, 1, 0))
        red, _ = gen_reduced_subdivided_star(3)
        assert isomorphic(g2, red)
        c2 = canonical_set(spec2)
        assert len(c2) == 5 and is_io_code(g2, c2).ok

    def test_canonical_sets_verify_exhaustively(self):
        # Every admissible vector with at most 4 attachments in total.
        # The lone degenerate member is the single-type-5 tree, whose root
        # is an open twin of the attachment's near leaf; no code exists
        # there at all, so it is asserted separately.
        count = 0
        for vec in product(range(2), range(5), range(5), range(5), range(5), range(5)):
            av = AttachmentVector.of(vec)
            if not av.is_admissible() or av.total > 4:
                continue
            g, spec = build_family_tree(av)
            if vec == (0, 0, 0, 0, 1, 0):
                assert find_open_twins(g) == [(0, 2)]
                continue
            assert find_open_twins(g) == []
            count += 1
            assert is_io_code(g, canonical_set(spec)).ok
        assert count > 100

    def test_canonical_size_within_degree_bound(self):
        # at root degree >= 2, the canonical set respects the
        # (2*delta - 1)/(2*delta) fraction unless the tree is the full
        # subdivided star for that delta
        from iocodes import max_degree
        from iocodes.families import as_subdivided_star

        rng = random.Random(31)
        checked = 0
        while checked < 120:
            vec = tuple([rng.randint(0, 1)] + [rng.randint(0, 3) for _ in range(5)])
            av = AttachmentVector.of(vec)
            if not av.is_admissible() or av.total < 2 or av.total > 9:
                continue
            g, spec = build_family_tree(av)
            delta = max(3, max_degree(g))
            star = as_subdivided_star(g)
            if star is not None and star[1] == delta:
                continue
            c = canonical_set(spec)
            assert 2 * delta * len(c) <= (2 * delta - 1) * g.n, vec
            checked += 1

    def test_canonical_sets_verify_random_large(self):
        rng = random.Random(7)
        for _ in range(60):
            while True:
                vec = tuple([rng.randint(0, 1)] + [rng.randint(0, 3) for _ in range(5)])
                av = AttachmentVector.of(vec)
                if av.is_admissible() and av.total <= 10 and vec != (0, 0, 0, 0, 1, 0):
                    break
            g, spec = build_family_tree(av)
            assert is_io_code(g, canonical_set(spec)).ok


class TestRecognition:
    def test_p5_from_end(self):
        p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        spec = recognize_family(p5)
        assert spec.distinguished["root"] == 0 and spec.params["vector"] == (0, 0, 0, 1, 0, 0)

    def test_reduced_star(self):
        g, _ = gen_reduced_subdivided_star(4)
        spec = recognize_family(g)
        assert spec.distinguished["root"] == 0 and spec.params["vector"] == (1, 3, 0, 0, 0, 0)

    def test_small_paths_rejected(self):
        for n in (2, 3, 4):
            g = Graph(n, [(i, i + 1) for i in range(n - 1)])
            assert recognize_family(g) is None

    def test_round_trip_isomorphic(self):
        rng = random.Random(13)
        for _ in range(40):
            while True:
                vec = [rng.randint(0, 1)] + [rng.randint(0, 2) for _ in range(5)]
                av = AttachmentVector.of(vec)
                if av.is_admissible() and 1 <= av.total <= 6:
                    break
            g, _ = build_family_tree(av)
            spec = recognize_family(g)
            assert spec is not None
            rebuilt, _ = build_family_tree(spec.params["vector"])
            assert isomorphic(g, rebuilt)

    def test_rooted_variant(self):
        g, _ = build_family_tree((0, 2, 1, 0, 0, 0))
        spec = recognize_family_rooted(g, 0)
        assert spec is not None
        assert spec.params["vector"] == (0, 2, 1, 0, 0, 0)
        assert recognize_family_rooted(g, 1) is None


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
        assert isomorphic(g2, p4)

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
        from iocodes import find_induced_cycle

        assert len(find_induced_cycle(g)) == 5

    def test_gadget_cycle_rejects_p4(self):
        with pytest.raises(BadParam):
            gen_subcubic_gp(4)
        with pytest.raises(BadParam):
            gen_subcubic_gp(2)

    def test_star_plus_edge(self):
        g, _ = gen_star_plus_edge("g2", 2)
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert isomorphic(g, c5)
        for variant in ("g1", "g2", "g3"):
            for k in (2, 3, 4):
                g, spec = gen_star_plus_edge(variant, k)
                assert g.n == 2 * k + 1
                assert is_io_code(g, spec.reference_code).ok
                assert not has_four_cycle(g)
        g3, _ = gen_star_plus_edge("g3", 4)
        assert g3.degree(0) == 5  # center degree k + 1

    def test_bad_params(self):
        for call in (
            lambda: gen_subdivided_star(1),
            lambda: gen_tight_tree_pair(2),
            lambda: gen_star_plus_edge("g9", 3),
            lambda: gen_star_plus_edge("g1", 1),
        ):
            with pytest.raises(BadParam):
                call()


class TestTreeEnumeration:
    def test_known_counts(self):
        for n, count in FREE_TREES.items():
            assert sum(1 for _ in enumerate_trees(n)) == count

    def test_all_are_trees_distinct(self):
        seen = set()
        for t in enumerate_trees(8):
            assert t.edge_count == t.n - 1
            key = canonical_graph6(t)
            assert key not in seen
            seen.add(key)

    def test_matches_prufer_oracle(self):
        # independent generation: all labeled trees via their codes, then
        # canonical-form dedup
        for n in range(3, 8):
            classes = set()
            for seq in product(range(n), repeat=n - 2):
                classes.add(canonical_graph6(prufer_tree(list(seq))))
            enumerated = {canonical_graph6(t) for t in enumerate_trees(n)}
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


class TestSmallGraphEnumeration:
    def test_labeled_total(self):
        assert sum(1 for _ in enumerate_small_graphs(4)) == 64

    def test_connected_classes_n3(self):
        # to order 4: K1, K2, the triangle, the path P4 and the paw
        classes = [g for g, _ in enumerate_graph_classes(4)]
        expected = [Graph(1), Graph(2, [(0, 1)]), Graph(3, [(0, 1), (1, 2), (0, 2)]),
                    Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])]
        assert [g.n for g in classes] == [1, 2, 3, 4, 4]
        assert sorted(canonical_graph6(g) for g in classes) == sorted(map(canonical_graph6, expected))

    def test_filters_sound(self, rng):
        for g in enumerate_small_graphs(5, connected=True, twin_free=True, c4_free=True):
            assert find_open_twins(g) == []
            assert not has_four_cycle(g)
            from iocodes import is_connected

            assert is_connected(g)

    def test_c5_present_at_n5(self):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        keys = {
            canonical_graph6(g)
            for g, _ in enumerate_graph_classes(5)
        }
        assert canonical_graph6(c5) in keys

    def test_cap(self):
        with pytest.raises(BadParam):
            next(enumerate_small_graphs(9))

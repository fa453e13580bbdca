"""The tree constructor's scans against their edge-deletion and all-pairs definitions.

The constructor reads its cases off degrees and distances; these tests
keep the literal definitions as oracles: a subdivided-star component is
found by deleting the edge and recognizing the component, and the
diametral paths come from all pairwise distances, and a vertex's open
twin from all pairs of twins.  The constructor runs
these scans on vertex masks of its input; on every sub-tree they must
agree with the same scans of the relabeled sub-tree.
"""

import hashlib
import json
import random

import networkx as nx

from conftest import brute_all_distances, random_tree
from iocodes import (
    Graph,
    build_family_tree,
    enumerate_trees,
    find_open_twins,
    gen_subdivided_star,
    max_degree,
)
from iocodes import construct
from iocodes.canon import canonical_graph
from iocodes.construct import _PATH_HEAD, _Part, _scan, _twin_of, construct_code
from iocodes.families import (
    _canonical_code,
    _family_match,
    _family_match_rooted,
    _leaves_and_legs,
    _subdivided_star,
    _subdivided_star_leave_out,
)
from iocodes.graphs import _bits, _carry_layers, _diametral_paths, _induced, _layers
from test_tree_dp import subdivided_random_tree

TWIN_FREE_TREES = [
    t for n in range(1, 13) for t in enumerate_trees(n) if not find_open_twins(t)
]

# sha256 over construct_code's (sorted code, trace) on every twin-free
# tree with 5 <= n <= 12, at each delta from max(3, max degree) to max
# degree + 2, as produced by the edge-deletion constructor it replaced.
TREE_CODES_AND_TRACES_SHA256 = "7cf74bccb07cbfc7b0b865be748eeeca998825427c2bca32a4f2ba49c59e0df5"
# the same digest over construct_code at max(3, max degree), as the audit
# and the CLI call it: on the 3,149 twin-free trees with 5 <= n <= 16 in
# canonical labels, and on the 32 construct inputs of the benchmark's
# large_trees workload; both taken before the constructor's per-level
# scans became single passes
AUDIT_TREE_CODES_AND_TRACES_SHA256 = "dacea85e87241fc53739b442e0d8e89271cbb07008dca9042fee193915c4b158"
LARGE_TREE_CODES_AND_TRACES_SHA256 = "c80532554110d8303d23a18fc80e149a6b47ff771bd03eedb4466b42a1b6eca1"


def star_candidates_by_edge_deletion(g, delta):
    found = []
    for a, b in g.edges():
        oracle = nx.Graph(g.edges())
        oracle.remove_edge(a, b)
        for side in nx.connected_components(oracle):
            comp, labels = _induced(g.adj, sum(1 << v for v in side))
            for endpoint in (a, b):
                if endpoint not in side:
                    continue
                star = _subdivided_star(comp.adj, (1 << comp.n) - 1)
                if star is not None and labels[star[0]] == endpoint and 2 <= star[1] <= delta - 1:
                    found.append((star[1], (a, b), endpoint, b if endpoint == a else a))
    return sorted(found)


def diametral_paths_by_all_pairs(g):
    dist = brute_all_distances(g)
    diam = max(max(row) for row in dist)
    out = []
    for a in range(g.n):
        for b in range(g.n):
            if a != b and dist[a][b] == diam:
                path = [a]
                while path[-1] != b:
                    here = path[-1]
                    path.append(next(x for x in g.neighbors(here) if dist[x][b] == dist[here][b] - 1))
                out.append(path)
    return out if g.n > 1 else [[0]]


def _random_trees(count, low, high, rng):
    return [random_tree(rng.randint(low, high), rng) for _ in range(count)]


class TestStarCandidates:
    def test_twin_free_trees(self):
        for t in TWIN_FREE_TREES:
            for delta in range(3, max(1, max_degree(t)) + 3):
                found = _scan(t.adj, (1 << t.n) - 1, delta)[2]
                assert found == star_candidates_by_edge_deletion(t, delta)

    def test_random_trees(self, rng):
        for t in _random_trees(60, 13, 60, rng):
            for delta in (3, max(3, max_degree(t))):
                found = _scan(t.adj, (1 << t.n) - 1, delta)[2]
                assert found == star_candidates_by_edge_deletion(t, delta)


def diametral_paths(t):
    return list(_diametral_paths(t.adj, (1 << t.n) - 1, {}))


class TestDiametralPaths:
    def test_twin_free_trees(self):
        for t in TWIN_FREE_TREES:
            assert diametral_paths(t) == diametral_paths_by_all_pairs(t)

    def test_random_trees(self, rng):
        for t in _random_trees(60, 13, 60, rng):
            assert diametral_paths(t) == diametral_paths_by_all_pairs(t)

    def test_longest_path_is_lowest_endpoint_pair(self, rng):
        for t in TWIN_FREE_TREES + _random_trees(40, 13, 40, rng):
            dist = brute_all_distances(t)
            diam = max(max(row) for row in dist)
            a, b = min((a, b) for a in range(t.n) for b in range(a, t.n) if dist[a][b] == diam)
            path = diametral_paths(t)[0]
            assert (path[0], path[-1]) == (a, b) and len(path) == diam + 1


def _to_labels(mask, labels):
    return sum(1 << labels[v] for v in _bits(mask))


def _cut_pendant_subtree(t, mask, rng):
    """What is left of the sub-tree ``mask`` when one side of a random edge
    is cut off, as the constructor's splits leave their sides: the kept
    mask, its cut endpoint and the cut-off side's BFS layers from the
    other endpoint."""
    u = rng.choice(list(_bits(mask)))
    v = rng.choice(list(_bits(t.adj[u] & mask)))
    if rng.random() < 0.5:
        u, v = v, u
    cut_layers = _layers(t.adj, mask ^ (1 << u), v)
    return mask ^ sum(cut_layers), u, cut_layers


class TestMaskedScans:
    def test_sub_trees_agree_with_their_relabeled_copies(self, rng):
        for _ in range(50):
            t = random_tree(rng.randint(5, 60), rng)
            part = _Part(t.adj, (1 << t.n) - 1)
            while part.mask.bit_count() >= 2:
                mask = part.mask
                h, labels = _induced(t.adj, mask)
                whole = (1 << h.n) - 1
                paths = [[labels[v] for v in p] for p in diametral_paths(h)]
                assert list(_diametral_paths(t.adj, mask, {})) == paths
                # with the layers carried from the larger sub-trees, and then
                # every start the paths needed
                assert list(_diametral_paths(t.adj, mask, part.layers)) == paths
                for start, (masks, lo, hi) in part.layers.items():
                    fresh = [_to_labels(layer, labels) for layer in _layers(h.adj, whole, labels.index(start))]
                    assert [masks[i] & mask for i in range(lo, hi + 1)] == fresh
                if part.stars is not None:  # carried by side() at delta 4
                    assert (part.leaves, part.legs) == _leaves_and_legs(t.adj, mask)
                    assert part.stars == _scan(t.adj, mask, 4)[2]
                for delta in (3, 4, 6):
                    relabeled = _scan(h.adj, whole, delta)[2]
                    expected = [(k, (labels[a], labels[b]), labels[c], labels[o]) for k, (a, b), c, o in relabeled]
                    assert _scan(t.adj, mask, delta)[2] == expected
                # the least partner of each vertex, from all pairs of twins
                pairs = find_open_twins(h)
                for v in range(h.n):
                    partners = [b if a == v else a for a, b in pairs if v in (a, b)]
                    expected = labels[min(partners)] if partners else None
                    assert _twin_of(t.adj, mask, labels[v]) == expected
                keep, end, cut_layers = _cut_pendant_subtree(t, mask, rng)
                part = part.side(keep, end, 4, _carry_layers(part.layers, keep, end, cut_layers))


class TestCarriedState:
    """Every part the tree constructor builds carries what a fresh scan of
    it finds: its leaves and legs, its star candidates in order, its BFS
    layers, and the heads of its longest paths."""

    @staticmethod
    def check_every_part(monkeypatch, graphs):
        carried = []
        build = construct._build_tree

        def spy(part, delta, trace):
            adj, mask = part.adj, part.mask
            if part.stars is not None:
                assert (part.leaves, part.legs) == _leaves_and_legs(adj, mask)
                assert part.stars == _scan(adj, mask, delta)[2]
                carried.append(mask)
            known = dict(part.layers)
            for start, (masks, lo, hi) in known.items():
                assert [masks[i] & mask for i in range(lo, hi + 1)] == _layers(adj, mask, start)
            heads = [path[:_PATH_HEAD] for path in _diametral_paths(adj, mask, {})]
            assert list(_diametral_paths(adj, mask, known, _PATH_HEAD)) == heads
            return build(part, delta, trace)

        monkeypatch.setattr(construct, "_build_tree", spy)
        for g in graphs:
            construct_code(g, max(3, max_degree(g)))
        return carried

    def test_twin_free_trees(self, monkeypatch):
        trees = [t for t in TWIN_FREE_TREES if t.n >= 5]
        assert len(self.check_every_part(monkeypatch, trees)) > 50

    def test_seeded_random_trees(self, monkeypatch):
        trees = [subdivided_random_tree(k, random.Random(k)) for k in range(21, 101, 4)]
        assert len(self.check_every_part(monkeypatch, trees)) > 10 * len(trees)

    def test_long_path(self, monkeypatch):
        assert len(self.check_every_part(monkeypatch, [Graph(60, [(i, i + 1) for i in range(59)])])) >= 10


def _embedded(g, labels):
    """The adjacency of ``g`` with vertex ``v`` relabeled ``labels[v]``,
    over ``0..max(labels)``, and the mask of its labels."""
    adj = [0] * (max(labels) + 1)
    for u, v in g.edges():
        adj[labels[u]] |= 1 << labels[v]
        adj[labels[v]] |= 1 << labels[u]
    return adj, sum(1 << v for v in labels)


def _relabeled_spec(spec, labels):
    return (
        spec.params,
        labels[spec.distinguished["root"]],
        tuple((t, tuple(labels[v] for v in block)) for t, block in spec.attachments),
    )


class TestMaskCores:
    """The family and star rules on a vertex mask, in its labels, give what
    they give on the full mask of the relabeled copy."""

    @staticmethod
    def check(g, labels):
        adj, mask = _embedded(g, labels)
        h, order = _induced(tuple(adj), mask)
        assert h == g and list(order) == labels
        full = (1 << g.n) - 1
        spec = _family_match(g.adj, full)
        found = _family_match(adj, mask)
        assert (found is None) == (spec is None)
        if spec is not None:
            assert (found.params, found.distinguished["root"], found.attachments) == _relabeled_spec(spec, labels)
            assert _canonical_code(found, mask) == sum(1 << labels[v] for v in _bits(_canonical_code(spec, full)))
        for root in range(g.n):
            spec = _family_match_rooted(g.adj, full, root)
            found = _family_match_rooted(adj, mask, labels[root])
            assert (found is None) == (spec is None)
            if spec is not None:
                assert (found.params, found.distinguished["root"], found.attachments) == _relabeled_spec(spec, labels)
        star = _subdivided_star(g.adj, full)
        assert _subdivided_star(adj, mask) == (None if star is None else (labels[star[0]], star[1]))
        if star is not None:
            for cut in [None, *(v for v in range(g.n) if v != star[0])]:
                left_out = _subdivided_star_leave_out(g.adj, full, cut)
                found = _subdivided_star_leave_out(adj, mask, None if cut is None else labels[cut])
                assert found == {labels[v] for v in left_out}

    def test_small_trees_and_stars(self, rng):
        graphs = [t for n in range(2, 11) for t in enumerate_trees(n)]
        graphs += [gen_subdivided_star(k)[0] for k in range(2, 7)]
        graphs += [build_family_tree(v)[0] for v in [(1, 2, 0, 1, 0, 0), (0, 1, 1, 1, 1, 1), (1, 0, 0, 0, 1, 0)]]
        for g in graphs:
            self.check(g, sorted(rng.sample(range(3 * g.n + 5), g.n)))


def test_tree_codes_and_traces_unchanged():
    digest = hashlib.sha256()
    for t in TWIN_FREE_TREES:
        if t.n < 5:
            continue
        top = max_degree(t)
        for delta in range(max(3, top), top + 3):
            code, trace = construct_code(t, delta)
            digest.update(json.dumps([sorted(code), trace.as_dict()], sort_keys=True).encode())
    assert digest.hexdigest() == TREE_CODES_AND_TRACES_SHA256


def codes_and_traces_digest(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        code, trace = construct_code(g, max(3, max_degree(g)))
        digest.update(json.dumps([sorted(code), trace.as_dict()], sort_keys=True).encode())
    return digest.hexdigest()


def test_audited_tree_codes_and_traces_unchanged():
    trees = [
        canonical_graph(t)
        for n in range(5, 17)
        for t in enumerate_trees(n)
        if len(set(t.adj)) == t.n
    ]
    assert len(trees) == 3149
    assert codes_and_traces_digest(trees) == AUDIT_TREE_CODES_AND_TRACES_SHA256


def test_large_tree_codes_and_traces_unchanged():
    # one seed-0 stream, as the workload draws it: three trees per odd
    # order 41..61 to solve, whose three 61-vertex trees are also
    # constructed, then the remaining construct inputs by order
    rng = random.Random(0)
    solve_set = [subdivided_random_tree((n + 1) // 2, rng) for n in range(41, 62, 2) for _ in range(3)]
    trees = [t for t in solve_set if t.n == 61]
    for n, count in {71: 4, 81: 4, 91: 4, 101: 4, 111: 4, 121: 4, 151: 2, 181: 1, 211: 1, 241: 1}.items():
        trees += [subdivided_random_tree((n + 1) // 2, rng) for _ in range(count)]
    assert len(trees) == 32
    assert codes_and_traces_digest(trees) == LARGE_TREE_CODES_AND_TRACES_SHA256

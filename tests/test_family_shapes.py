"""Family recognition against the per-type definitions it replaced.

``families`` reads the six attachment types off one table of parent
positions and recognizes them in one breadth-first walk.  These tests keep
per-type code as oracles, none of which calls the recognizers: a branch
classifier that walks the whole branch and tests each type's shape in turn,
a family match built from it at every root in increasing label, and a
canonical set written per type over role names.
"""

import random
from itertools import product

from conftest import atlas_graphs, random_tree
from iocodes import Graph, VertexSet, build_family_tree, construct, enumerate_trees, is_admissible
from iocodes.families import (
    _canonical_code,
    _family_match,
    _family_match_rooted,
    enumerate_twin_free_trees,
)
from iocodes.graphs import _bfs_tree, _members, max_degree
from test_tree_dp import subdivided_random_tree

# role names of each type's vertices, in block order
ROLES = {
    1: ("link",),
    2: ("link", "leaf2"),
    3: ("link", "mid", "leaf3"),
    4: ("link", "v2", "v3", "leaf4"),
    5: ("link", "leaf2", "mid", "leaf3"),
    6: ("link", "hub", "leaf3", "mid", "leaf4"),
}


def subtree_children(g, root, link):
    children = {link: []}
    order = [link]
    stack = [(link, root)]
    while stack:
        u, parent = stack.pop()
        for v in sorted(g.neighbors(u)):
            if v != parent:
                children[u].append(v)
                children[v] = []
                order.append(v)
                stack.append((v, u))
    return children, order


def branch_shape_by_cases(g, root, link):
    children, order = subtree_children(g, root, link)
    size = len(order)
    if size == 1:
        return 1, {"link": link}
    if size == 2:
        return 2, {"link": link, "leaf2": children[link][0]}
    if size == 3:
        if len(children[link]) == 1:
            b = children[link][0]
            if len(children[b]) == 1:
                return 3, {"link": link, "mid": b, "leaf3": children[b][0]}
        return None
    if size == 4:
        if len(children[link]) == 1:
            b = children[link][0]
            if len(children[b]) == 1:
                c = children[b][0]
                if len(children[c]) == 1:
                    return 4, {"link": link, "v2": b, "v3": c, "leaf4": children[c][0]}
            return None
        if len(children[link]) == 2:
            x, y = children[link]
            for p, b in ((x, y), (y, x)):
                if not children[p] and len(children[b]) == 1 and not children[children[b][0]]:
                    return 5, {"link": link, "leaf2": p, "mid": b, "leaf3": children[b][0]}
        return None
    if size == 5 and len(children[link]) == 1:
        hub = children[link][0]
        if len(children[hub]) == 2:
            x, y = children[hub]
            for leaf, s in ((x, y), (y, x)):
                if not children[leaf] and len(children[s]) == 1 and not children[children[s][0]]:
                    return 6, {"link": link, "hub": hub, "leaf3": leaf, "mid": s, "leaf4": children[s][0]}
    return None


def canonical_set_by_roles(n, match):
    root, vec, blocks = match
    atts = [(t, dict(zip(ROLES[t], block))) for t, block in blocks]
    full = (1 << n) - 1
    if vec == (1, 0, 1, 0, 0, 0):
        roles = next(r for t, r in atts if t == 3)
        return VertexSet(n, mask=full ^ (1 << roles["leaf3"]))
    if vec == (1, 0, 0, 0, 1, 0):
        roles = next(r for t, r in atts if t == 5)
        return VertexSet(n, mask=full ^ (1 << roles["leaf2"]))
    members = {root}
    dropped_type2_leaf = False
    for t, roles in atts:
        if t == 2:
            members.add(roles["link"])
            if vec[0] == 0 and not dropped_type2_leaf:
                dropped_type2_leaf = True
            else:
                members.add(roles["leaf2"])
        elif t == 3:
            members.update((roles["link"], roles["mid"]))
        elif t == 4:
            members.update((roles["link"], roles["v2"], roles["v3"]))
        elif t == 5:
            members.update((roles["link"], roles["mid"], roles["leaf3"]))
        elif t == 6:
            members.update((roles["link"], roles["hub"], roles["mid"], roles["leaf4"]))
    return VertexSet(n, members)


def rooted_match_by_cases(g, root):
    """The family match of the tree ``g`` rooted at ``root``, or None: each
    branch an attachment by the cases, an admissible vector, and the blocks
    sorted by type and then link."""
    shapes = [branch_shape_by_cases(g, root, link) for link in g.neighbors(root)]
    if None in shapes:
        return None
    vector = tuple(sum(kind == t for kind, _ in shapes) for t in ROLES)
    if not is_admissible(vector):
        return None
    return root, vector, tuple(sorted((kind, tuple(roles.values())) for kind, roles in shapes))


def test_branch_shapes_match_the_cases_on_every_small_tree():
    checked = 0
    for n in range(2, 12):
        for t in enumerate_trees(n):
            for root in range(n):
                # the blocks of the cases, link by link, or None at a root with
                # a branch that is no attachment or with an inadmissible vector
                match = _family_match_rooted(t.adj, (1 << n) - 1, root)
                assert match == rooted_match_by_cases(t, root)
                checked += 0 if match is None else len(match[2])
            match = _family_match(t.adj, (1 << n) - 1)
            if match is not None:
                assert _canonical_code(*match[1:], (1 << n) - 1) == canonical_set_by_roles(n, match).mask
    assert checked > 200


def test_canonical_sets_match_the_roles():
    vectors = [
        vec
        for vec in product(range(2), range(6), range(6), range(6), range(6), range(6))
        if is_admissible(vec) and sum(vec) <= 5
    ]
    rng = random.Random(6)
    larger = []
    while len(larger) < 200:
        vec = (rng.randint(0, 1),) + tuple(rng.randint(0, 4) for _ in range(5))
        if sum(vec) > 5:
            larger.append(vec)
    for vec in vectors + larger:
        g, spec = build_family_tree(vec)
        # the roles read the blocks that recognition finds, not the grown ones
        match = _family_match_rooted(g.adj, (1 << g.n) - 1, 0)
        by_roles = canonical_set_by_roles(g.n, match)
        assert _canonical_code(*match[1:], (1 << g.n) - 1) == by_roles.mask
        # the single type-5 tree has open twins, so no code at all
        assert spec.reference_code == (None if vec == (0, 0, 0, 0, 1, 0) else by_roles)
    assert len(vectors) == 373


def reference_family_match(adj, mask):
    """The family match of the graph that ``mask`` induces at its lowest
    root, trying every root by the cases; None unless it is a tree."""
    members = _members(mask)
    if len(members) < 2 or len(_bfs_tree(adj, mask, members[0])[0]) < len(members):
        return None
    edges = [(u, v) for u in members for v in _members(adj[u] & mask) if u < v]
    if len(edges) != len(members) - 1:
        return None
    tree = Graph(len(adj), edges)  # the labels outside the mask have no edges
    return next(filter(None, (rooted_match_by_cases(tree, root) for root in members)), None)


def test_recognition_tries_the_roots_every_root_would():
    # _family_match tries only the roots that pass one subtree-size
    # pass; trying all of them must give the same first match
    rng = random.Random(14)
    graphs = [t for n in range(1, 14) for t in enumerate_trees(n)]
    graphs += [random_tree(rng.randint(13, 80), rng) for _ in range(200)]
    graphs += [g for n in range(8) for g in atlas_graphs(n)]  # cycles, forests, disconnected
    # family members, relabeled: one type repeated (type 6 alone fills the
    # degree limit n = 1 + 5 * degree), then random vectors
    vectors = [tuple(k * (i == t) for i in range(6)) for t in range(6) for k in range(1, 5)]
    while len(vectors) < 300:
        vectors.append((rng.randint(0, 1),) + tuple(rng.randint(0, 3) for _ in range(5)))
    for vec in vectors:
        if is_admissible(vec):
            tree, _ = build_family_tree(vec)
            label = rng.sample(range(tree.n), tree.n)
            graphs.append(Graph(tree.n, [(label[u], label[v]) for u, v in tree.edges()]))
    matched = 0
    for g in graphs:
        spec = _family_match(g.adj, (1 << g.n) - 1)
        assert spec == reference_family_match(g.adj, (1 << g.n) - 1), g.edges()
        matched += spec is not None
    assert matched > 300


def benchmark_construct_inputs():
    """The large_trees benchmark's 32 construct inputs for input seed 0: the
    three n = 61 solve trees, then the construct orders from the same stream."""
    rng = random.Random(0)
    solve = [subdivided_random_tree((n + 1) // 2, rng) for n in range(41, 62, 2) for _ in range(3)]
    orders = {71: 4, 81: 4, 91: 4, 101: 4, 111: 4, 121: 4, 151: 2, 181: 1, 211: 1, 241: 1}
    return solve[-3:] + [subdivided_random_tree((n + 1) // 2, rng) for n, k in orders.items() for _ in range(k)]


def test_one_walk_recognition_matches_the_branch_walks_on_every_constructor_mask(monkeypatch):
    seen = []

    def spy(adj, mask):  # the constructor runs on the reference answers
        seen.append((adj, mask))
        return reference_family_match(adj, mask)

    monkeypatch.setattr(construct, "_family_match", spy)
    rng = random.Random(35)
    cases = [
        (t, delta)
        for n in range(5, 15)
        for t in enumerate_twin_free_trees(n)
        for delta in range(max(3, max_degree(t)), max_degree(t) + 3)
    ]
    large = benchmark_construct_inputs()
    assert len(large) == 32
    cases += [(g, max(3, max_degree(g))) for g in large]
    cases += [(g, max(3, max_degree(g))) for g in (subdivided_random_tree(rng.randint(3, 30), rng) for _ in range(200))]
    for g, delta in cases:
        construct.construct_code(g, delta)
    matched = 0
    for adj, mask in seen:
        found = _family_match(adj, mask)
        assert found == reference_family_match(adj, mask), (adj, mask)
        matched += found is not None
    assert len(seen) > 4000 and matched > 2000

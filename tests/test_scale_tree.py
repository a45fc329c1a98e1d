"""The scale tree against the per-scale graph code it replaced.

Each reference below is the earlier implementation, kept as plain code:
components by a union over every edge below eps, the covering profile by
a dense hop matrix with all-pairs shortest paths, and discreteness
thresholds by sweeps over all sorted pairs.  The tree-based versions must
give the same components, radii, centers and thresholds bit for bit on
small grid spaces with duplicate points (zero weights), tied distances,
scales exactly equal to a tree-edge weight, a single point, and forced
pair-scan blocks of 1, 2, 3 and n rows.  The hop queries are checked the
same way against the earlier Python BFS loops: a dict-of-parents search
for witness chains and a set search for hop balls, and the neighbour
tables, scanned per component and masked for finer scales, against the
earlier scan of all n^2 pairs per graph.
"""

import contextlib
import gc
import inspect
import json
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree, shortest_path

from chainscope import (
    ChainGraph,
    SequencePrefix,
    ToleranceSchedule,
    ball_layers,
    build_space,
    chain_discreteness,
    chainability_threshold,
    component_centers,
    covering_profile,
    find_chain,
    oracle_components,
    splice_to_quasi_cauchy,
)
from chainscope import chains, cli
from chainscope.chains import (
    DISCRETENESS_GRID_RATIO,
    DISCRETENESS_GRID_SIZE,
    scale_tree,
)

from test_blocked_scans import (
    RefUnionFind,
    blocks_of,
    ref_graph,
    scenes,
    smallest_member_labels,
)

# -- reference implementations --------------------------------------------


def ref_profile(space, eps):
    """(k, m_star, {root: (min eccentricity, center)}) from dense hops."""
    neighbors, roots = ref_graph(space, eps)
    n = space.n
    members = {}
    for i in range(n):
        members.setdefault(roots[i], []).append(i)
    per_component = {}
    m_star = 0
    if all(len(m) == 1 for m in members.values()):
        for root in members:
            per_component[root] = (0, root)
        return len(members), m_star, per_component
    indptr = np.zeros(n + 1, dtype=int)
    for i in range(n):
        indptr[i + 1] = indptr[i] + len(neighbors[i])
    indices = np.concatenate(neighbors)
    adj = csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
    )
    hops = shortest_path(adj, method="D", directed=False, unweighted=True)
    for root, group in members.items():
        if len(group) == 1:
            per_component[root] = (0, group[0])
            continue
        ecc = hops[np.ix_(group, group)].max(axis=1)
        best = int(np.argmin(ecc))
        per_component[root] = (int(ecc[best]), group[best])
        m_star = max(m_star, int(ecc[best]))
    return len(members), m_star, per_component


def ref_adjacency(space, eps):
    """(indptr, indices) of the strict eps-graph by scanning all n^2
    pairs."""
    counts = [np.zeros(1, dtype=int)]
    parts = []
    idx = np.arange(space.n)
    for _, rows, d in space.pair_blocks(idx, idx):
        near = d < eps
        near[np.arange(len(rows)), rows] = False
        counts.append(near.sum(axis=1))
        parts.append(np.nonzero(near)[1])
    return np.cumsum(np.concatenate(counts)), np.concatenate(parts)


def ref_prim(mat):
    """(order, join) of dense Prim over a full distance matrix, read from
    position 0: each step takes the first least entry of best, and the
    joined slot is refilled from the last one, as the tree does."""
    order, join = [0], [math.inf]
    rest = list(range(1, len(mat)))
    best = [mat[0, r] for r in rest]
    while rest:
        j = min(range(len(best)), key=best.__getitem__)
        order.append(rest[j])
        join.append(best[j])
        rest[j], best[j] = rest[-1], best[-1]
        rest.pop()
        best.pop()
        best = [min(b, mat[order[-1], r]) for b, r in zip(best, rest)]
    return order, join


def ref_find_chain(neighbors, roots, x, y):
    """Witness indices from x to y, or None: BFS from x recording parents
    in discovery order with ascending neighbours."""
    if x == y:
        return (x,)
    if roots[x] != roots[y]:
        return None
    parent = {x: -1}
    frontier = [x]
    while frontier:
        nxt = []
        for p in frontier:
            for q in neighbors[p].tolist():
                if q in parent:
                    continue
                parent[q] = p
                if q == y:
                    path = [y]
                    while path[-1] != x:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                nxt.append(q)
        frontier = nxt
    return None


def ref_ball(neighbors, x, m):
    """Points within m hops of x, by a set BFS."""
    seen = {x}
    frontier = [x]
    for _ in range(m):
        nxt = []
        for p in frontier:
            for q in neighbors[p].tolist():
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        if not nxt:
            break
        frontier = nxt
    return seen


def ref_universe_edges(space, universe):
    m = len(universe)
    uni = np.asarray(universe, dtype=int)
    ii, jj = np.triu_indices(m, k=1)
    return ii, jj, space.pairwise(uni[ii], uni[jj])


def ref_exact_thresholds(space, universe, subset_pos):
    ii, jj, dist = ref_universe_edges(space, universe)
    order = np.argsort(dist, kind="stable")
    uf = RefUnionFind(len(universe))
    sub_count = {}
    for p in subset_pos:
        sub_count[uf.find(p)] = sub_count.get(uf.find(p), 0) + 1
    pending = set(range(len(subset_pos)))
    thresholds = [math.inf] * len(subset_pos)
    k = 0
    m = len(order)
    while k < m and pending:
        w = dist[order[k]]
        while k < m and dist[order[k]] == w:
            e = order[k]
            ra, rb = uf.find(int(ii[e])), uf.find(int(jj[e]))
            if ra != rb:
                ca, cb = sub_count.pop(ra, 0), sub_count.pop(rb, 0)
                uf.union(ra, rb)
                sub_count[uf.find(ra)] = ca + cb
            k += 1
        done = [
            t for t in pending if sub_count.get(uf.find(subset_pos[t]), 0) > 1
        ]
        for t in done:
            thresholds[t] = float(w)
            pending.discard(t)
    return thresholds


def ref_grid_thresholds(space, universe, subset_pos, candidates):
    ii, jj, dist = ref_universe_edges(space, universe)
    order = np.argsort(dist, kind="stable")
    uf = RefUnionFind(len(universe))
    thresholds = [0.0] * len(subset_pos)
    k = 0
    m = len(order)
    for delta in sorted(c for c in candidates if c > 0):
        while k < m and dist[order[k]] < delta:
            e = order[k]
            uf.union(int(ii[e]), int(jj[e]))
            k += 1
        counts = {}
        for p in subset_pos:
            r = uf.find(p)
            counts[r] = counts.get(r, 0) + 1
        for t, p in enumerate(subset_pos):
            if counts[uf.find(p)] == 1:
                thresholds[t] = float(delta)
    return thresholds


def ref_discreteness(space, idx, mode, grid):
    """(thresholds in subset order, candidates) for a subset of two or
    more points."""
    universe = list(range(space.n)) if mode == "in-ambient" else sorted(idx)
    pos_of = {p: k for k, p in enumerate(universe)}
    subset_pos = [pos_of[i] for i in idx]
    if grid == "exact-breakpoints":
        return ref_exact_thresholds(space, universe, subset_pos), None
    if grid == "geometric":
        diam = space.diameter()
        candidates = tuple(
            diam * DISCRETENESS_GRID_RATIO**i
            for i in range(DISCRETENESS_GRID_SIZE)
        )
    else:
        candidates = tuple(sorted((float(g) for g in grid), reverse=True))
    return (
        ref_grid_thresholds(space, universe, subset_pos, candidates),
        candidates,
    )


# -- strategies -----------------------------------------------------------

FIXED_EPS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.5]


def draw_eps(data, space):
    """A fixed scale or, as often, exactly the weight of a tree edge."""
    weights = sorted({float(w) for w in scale_tree(space).join[1:] if w > 0})
    if weights and data.draw(st.booleans()):
        return data.draw(st.sampled_from(weights))
    return data.draw(st.sampled_from(FIXED_EPS))


@contextlib.contextmanager
def counting_scans():
    """Record the scale of every neighbour-table scan."""
    scan = chains._scan_table
    scales = []

    def counted(graph):
        scales.append(graph.eps)
        return scan(graph)

    chains._scan_table = counted
    try:
        yield scales
    finally:
        chains._scan_table = scan


# -- equivalence ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_components_match_union_find(scene, data):
    space, _, block = scene
    eps = draw_eps(data, space)
    with blocks_of(block):
        graph = ChainGraph(space, eps)
        neighbors = [graph.neighbors(i) for i in range(space.n)]
    ref_neighbors, roots = ref_graph(space, eps)
    labels = smallest_member_labels(roots)
    assert [graph.component_id(i) for i in range(space.n)] == labels
    assert graph.component_count == len(set(roots))
    assert graph.components() == [
        [i for i in range(space.n) if labels[i] == c] for c in sorted(set(labels))
    ]
    for got, want in zip(neighbors, ref_neighbors):
        assert np.array_equal(got, want)
    # a tree edge of weight exactly eps is not an eps-edge
    tree = scale_tree(space)
    for k in np.flatnonzero(tree.join == eps):
        assert (graph.component_id(tree.order[k])
                != graph.component_id(tree.order[k - 1]))


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_neighbour_tables_match_full_scan(scene, data):
    # a run of scales on one space: tree-edge weights exactly (the strict
    # boundary), repeats, coarse to fine (masks) and fine to coarse (scans)
    space, _, block = scene
    weights = [w for w in scale_tree(space).join[1:].tolist() if w > 0]
    run = data.draw(st.lists(st.sampled_from(weights + FIXED_EPS),
                             min_size=1, max_size=8))
    want_scans = []
    for eps in run:
        if not want_scans or max(want_scans) < eps:
            want_scans.append(eps)
    # the graphs stay alive, and with them every table scanned so far
    graphs = []
    with blocks_of(block), counting_scans() as scans:
        for eps in run:
            graphs.append(ChainGraph(space, eps))
            graphs[-1]._adjacency()
    tables = [graph._adjacency() for graph in graphs]
    assert scans == want_scans
    for eps, (indptr, indices) in zip(run, tables):
        want_indptr, want_indices = ref_adjacency(space, eps)
        assert indices.dtype == np.int32
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(indices, want_indices)


def assert_centers_match(space, eps):
    """component_centers and covering_profile equal the dense-hop
    reference, keyed by component label in ascending order."""
    k, m_star, per_component = ref_profile(space, eps)
    _, roots = ref_graph(space, eps)
    labels = smallest_member_labels(roots)
    want = {labels[root]: value for root, value in per_component.items()}
    got = component_centers(ChainGraph(space, eps))
    assert list(got.items()) == sorted(want.items())
    assert all(type(v) is int for value in got.values() for v in value)
    assert covering_profile(space, eps) == (k, m_star)


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_covering_profile_matches_dense_hops(scene, data):
    space, _, block = scene
    eps = draw_eps(data, space)
    with blocks_of(block):
        assert_centers_match(space, eps)


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_graph_state_matches_tree_labels(scene, data):
    # a graph keeps only the tree's labels: its member lists, ids, count
    # and center keys are all read from them (the center values are
    # checked against dense hops above)
    space, _, _ = scene
    eps = draw_eps(data, space)
    labels = scale_tree(space).labels(eps).tolist()
    members = {}
    for i, label in enumerate(labels):
        members.setdefault(label, []).append(i)
    graph = ChainGraph(space, eps)
    assert graph.components() == [members[k] for k in sorted(members)]
    assert graph.component_count == len(members)
    assert type(graph.component_count) is int
    assert [graph.component_id(i) for i in range(space.n)] == labels
    got = component_centers(graph)
    assert list(got) == sorted(members)
    for label, part in members.items():
        if len(part) == 1:
            assert got[label] == (0, label)


def assert_hop_queries_match(space, eps, graph):
    """Every ordered witness and every ball of 1, 2, 3 and n hops agree
    with the Python BFS references."""
    neighbors, roots = ref_graph(space, eps)
    n = space.n
    for x in range(n):
        for m in {1, 2, 3, n}:
            ball = ball_layers(graph, x, m)
            assert ball == ref_ball(neighbors, x, m)
            assert all(type(p) is int for p in ball)
        for y in range(n):
            witness = find_chain(graph, x, y)
            want = ref_find_chain(neighbors, roots, x, y)
            if want is None:
                assert witness is None
                continue
            assert witness.indices == want
            assert all(type(p) is int for p in witness.indices)
            witness.validate(space)


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_hop_queries_match_python_bfs(scene, data):
    space, _, block = scene
    eps = draw_eps(data, space)
    with blocks_of(block):
        graph = ChainGraph(space, eps)
        graph.neighbors(0)  # the neighbour table, built from forced blocks
    assert_hop_queries_match(space, eps, graph)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("eps", [1.01, 1.5, 2.01])
def test_hop_queries_on_larger_tied_grids(seed, eps):
    # long chains with many tied shortest routes between each pair
    rng = np.random.default_rng(seed)
    space = build_space(rng.integers(0, 8, (40, 2)).astype(float),
                        "euclidean(2)")
    assert_hop_queries_match(space, eps, ChainGraph(space, eps))


def test_witness_is_lexicographically_first_from_x():
    # two shortest routes, 0-1-4-5 and 0-2-3-5: read from 0 the first is
    # 0,1,4,5, but the first chain from 5 is 5,3,2,0, not its reverse
    edges = {(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)}
    mat = [[0.0 if a == b else 1.0 if (min(a, b), max(a, b)) in edges
            else 2.0 for b in range(6)] for a in range(6)]
    graph = ChainGraph(build_space(mat, "explicit-matrix"), 1.5)
    # a same-point query needs no neighbour table
    assert find_chain(graph, 2, 2).indices == (2,)
    assert graph._csr is None
    assert find_chain(graph, 0, 5).indices == (0, 1, 4, 5)
    assert find_chain(graph, 5, 0).indices == (5, 3, 2, 0)
    assert find_chain(graph, 1, 3).indices == (1, 0, 2, 3)
    assert ball_layers(graph, 0, 1) == {0, 1, 2}
    assert ball_layers(graph, 0, 2) == {0, 1, 2, 3, 4}


@settings(max_examples=200, deadline=None)
@given(scenes(min_n=2), st.data())
def test_discreteness_matches_pair_sweeps(scene, data):
    space, _, _ = scene
    idx = data.draw(
        st.lists(st.integers(0, space.n - 1), min_size=2, max_size=space.n,
                 unique=True)
    )
    mode = data.draw(st.sampled_from(["in-ambient", "in-itself"]))
    grid = data.draw(st.one_of(
        st.sampled_from(["geometric", "exact-breakpoints"]),
        # candidates on realized distances, at zero and below
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, math.sqrt(2), 2.0,
                                  math.sqrt(5), 3.0, math.inf]),
                 min_size=1, max_size=6),
    ))
    report = chain_discreteness(space, idx, mode, grid)
    thresholds, candidates = ref_discreteness(space, idx, mode, grid)
    assert report.thresholds == dict(zip(idx, thresholds))
    assert list(report.thresholds) == idx
    assert report.uniform == min(thresholds)
    assert report.candidates == candidates
    assert report.exact == (candidates is None)


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_uniform_discreteness_matches_oracle_components(scene, data):
    space, _, _ = scene
    idx = data.draw(
        st.lists(st.integers(0, space.n - 1), min_size=1, max_size=space.n,
                 unique=True)
    )
    mode = data.draw(st.sampled_from(["in-ambient", "in-itself"]))
    if mode == "in-ambient":
        delta = draw_eps(data, space)
        listed = set(idx)
        counts = [len(listed.intersection(c))
                  for c in oracle_components(space, delta)]
    else:
        # the subset's own space, rebuilt from the scene's coordinates
        sub = build_space(space._coords[sorted(idx)], "euclidean(2)")
        delta = draw_eps(data, sub)
        counts = [len(c) for c in oracle_components(sub, delta)]
    report = chain_discreteness(space, idx, mode, "exact-breakpoints")
    assert (report.uniform >= delta) == (max(counts) == 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("eps", [1.01, 1.5, 2.01, 3.0])
def test_profile_on_larger_tied_grids(seed, eps):
    # many points share an eccentricity, so the lowest-index center must
    # come out of the bounds, not out of a lucky first BFS
    rng = np.random.default_rng(seed)
    space = build_space(rng.integers(0, 12, (150, 2)).astype(float),
                        "euclidean(2)")
    assert_centers_match(space, eps)


def shuffled_line(lengths, seed):
    """Unit-spaced paths of the given lengths, 10 apart, with the point
    indices shuffled so no component is a run of indices."""
    starts = np.cumsum([0] + [n + 10 for n in lengths[:-1]])
    xs = np.concatenate([s + np.arange(n) for s, n in zip(starts, lengths)])
    xs = np.random.default_rng(seed).permutation(xs).astype(float)
    return build_space(xs[:, None], "euclidean(1)")


def reversed_line(length):
    """A unit-spaced path whose indices run backwards along it."""
    xs = np.arange(length, dtype=float)[::-1]
    return build_space(xs[:, None], "euclidean(1)")


def grid_beside_block():
    """A 9 x 8 integer grid, 72 points with many tied eccentricities,
    beside a 3 x 3 block, with the indices shuffled."""
    grid = np.stack(np.meshgrid(np.arange(9), np.arange(8)), -1)
    block = np.stack(np.meshgrid(np.arange(3), np.arange(3)), -1)
    pts = np.concatenate([grid.reshape(-1, 2), block.reshape(-1, 2) + 20])
    pts = np.random.default_rng(3).permutation(pts.astype(float))
    return build_space(pts, "euclidean(2)")


@pytest.mark.parametrize("build, eps", [
    # paths just under, at and over one 64-source word, and over two and
    # three words: the short ones are decided in the first round of a
    # sweep that the long ones need more rounds for
    pytest.param(lambda: shuffled_line([63, 64, 65, 130, 200], 0), 1.5,
                 id="paths-seed0"),
    pytest.param(lambda: shuffled_line([63, 64, 65, 130, 200], 1), 1.5,
                 id="paths-seed1"),
    # even paths, whose two middle points tie
    pytest.param(lambda: reversed_line(64), 1.5, id="even-path-64"),
    pytest.param(lambda: reversed_line(130), 1.5, id="even-path-130"),
    pytest.param(lambda: shuffled_line([64], 2), 1.5, id="shuffled-path-64"),
    pytest.param(lambda: shuffled_line([130], 2), 1.5,
                 id="shuffled-path-130"),
    # a tied grid component of more than one word
    pytest.param(grid_beside_block, 1.01, id="grid-4-neighbours"),
    pytest.param(grid_beside_block, 1.5, id="grid-8-neighbours"),
])
def test_centers_across_rounds_and_word_boundaries(build, eps):
    assert_centers_match(build(), eps)


@pytest.mark.parametrize("length", [64, 130])
def test_even_path_center_is_the_lower_index_of_the_tie(length):
    # the two middle points share the least eccentricity; indices run
    # backwards along the path, so the lower index of the two lies
    # further along it
    middle = length // 2
    graph = ChainGraph(reversed_line(length), 1.5)
    assert component_centers(graph) == {0: (middle, middle - 1)}


def test_center_rounds_take_sources_of_least_lower_bound(monkeypatch):
    # a round's cost is its depth, set by its farthest-reaching source;
    # after the first round the sources of least lower bound sit near the
    # middle of the path, so the second round is about half as deep as
    # the first, where sources at the path's ends (largest upper bound)
    # would make it as deep again: 1,872 layers in all
    depths = []

    def counted(rows, nbrs, reach):
        d = bit_bfs(rows, nbrs, reach)
        depths.append(int(d.max()))
        return d

    bit_bfs = chains._bit_bfs
    monkeypatch.setattr(chains, "_bit_bfs", counted)
    path = build_space(np.arange(1000, dtype=float)[:, None], "euclidean(1)")
    assert component_centers(ChainGraph(path, 1.5)) == {0: (500, 499)}
    assert sum(depths) <= 1530, depths


@settings(max_examples=100, deadline=None)
@given(scenes())
def test_tree_weights_and_oracle_threshold(scene):
    space, _, _ = scene
    tree = scale_tree(space)
    assert tree.n == space.n and len(tree.join) == space.n
    assert sorted(tree.order) == list(range(space.n))
    assert tree.join[0] == math.inf
    for k in range(1, space.n):
        row = space.distances_from(tree.order[k])
        assert tree.join[k] == row[tree.order[:k]].min()
    # zero weights would vanish in the sparse routine: shift, read back
    mat = space.distance_matrix()
    ii, jj = minimum_spanning_tree(csr_matrix(mat + 1.0)).nonzero()
    assert sorted(tree.join[1:]) == sorted(mat[ii, jj])
    assert chainability_threshold(space) == max(tree.join[1:], default=0.0)


@settings(max_examples=150, deadline=None)
@given(scenes(), st.data())
def test_prim_order_matches_dense_reference(scene, data):
    # each Prim row is measured only against the points outside the tree;
    # order and join must equal a dense Prim over full matrix rows
    space, _, _ = scene
    mat = space.distance_matrix()
    subset = data.draw(st.lists(st.integers(0, space.n - 1), min_size=1,
                                max_size=space.n, unique=True))
    for tree, points in [(scale_tree(space), list(range(space.n))),
                         (chains._spanning_tree(space, subset), subset)]:
        order, join = ref_prim(mat[np.ix_(points, points)])
        assert tree.order.tolist() == order
        assert tree.join.tobytes() == np.array(join).tobytes()


def test_oracle_threshold_does_not_use_the_tree():
    source = inspect.getsource(chainability_threshold)
    assert "scale_tree" not in source and "ChainGraph" not in source
    assert "_spanning_tree" not in source


def test_single_point():
    space = build_space([[0.5, 0.5]], "euclidean(2)")
    graph = ChainGraph(space, 1.0)
    assert scale_tree(space).order.tolist() == [0]
    assert graph.components() == [[0]]
    assert covering_profile(space, 1.0) == (1, 0)
    assert component_centers(graph) == {0: (0, 0)}
    assert graph.neighbors(0).size == 0
    assert chain_discreteness(space, [0], "in-itself").uniform == math.inf


def test_lazy_caches_fill_once_under_threads(monkeypatch):
    # more threads than cores and a short switch interval: without the
    # locks, two threads would build two trees, scan two neighbour tables
    # or mask one graph's lists twice
    def slow(build):
        def stretched(*args):
            time.sleep(1e-3)  # a build that spans thread switches
            return build(*args)
        return stretched

    monkeypatch.setattr(chains, "_spanning_tree", slow(chains._spanning_tree))
    monkeypatch.setattr(chains, "_mask", slow(chains._mask))
    pts = np.random.default_rng(5).integers(0, 10, (120, 2)).astype(float)
    space = build_space(pts, "euclidean(2)")
    shared = build_space(pts, "euclidean(2)")
    graph = ChainGraph(shared, 1.5)
    seen = []
    held = []  # each thread's coarse graph, alive until the join

    def work():
        tree = scale_tree(space)
        # each thread's own coarse graph takes the table of the live
        # graphs, which, once scanned, serves the shared graph's finer
        # scale too
        held.append(ChainGraph(shared, 2.5))
        _, coarse = held[-1]._adjacency()
        seen.append((id(tree), id(coarse), id(graph._adjacency()),
                     tuple(component_centers(graph).items())))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # one-row blocks stretch the neighbour-table build over many steps
        with blocks_of(1), counting_scans() as scans:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 6 and len(set(seen)) == 1
    assert scans == [2.5]


def tied_grid_space(seed):
    return build_space(
        np.random.default_rng(seed).integers(0, 10, (80, 2)).astype(float),
        "euclidean(2)")


def test_dropped_graph_frees_its_table():
    # the table is held by the graphs that read it and by nothing else
    space = tied_grid_space(8)
    graph = ChainGraph(space, 2.5)
    ref = weakref.ref(graph._adjacency()[1])  # the table's own indices
    del graph
    gc.collect()
    assert ref() is None


def test_finer_graph_after_a_dropped_coarse_one_scans_again():
    space = tied_grid_space(8)
    with counting_scans() as scans:
        ChainGraph(space, 2.5)._adjacency()
        fine = ChainGraph(space, 1.5)
        fine._adjacency()
    assert scans == [2.5, 1.5]
    assert np.array_equal(fine._adjacency()[1], ref_adjacency(space, 1.5)[1])


def test_finer_graph_holds_the_coarse_one_until_its_fill():
    space = tied_grid_space(8)
    with counting_scans() as scans:
        coarse = ChainGraph(space, 2.5)
        ref = weakref.ref(coarse._adjacency()[1])
        fine = ChainGraph(space, 1.5)  # built while the coarse graph lives
        del coarse
        gc.collect()
        assert ref() is not None
        fine._adjacency()
        # the fill masked the coarse graph's arrays and let go of them
        gc.collect()
        assert ref() is None
        finer = ChainGraph(space, 1.0)
        finer._adjacency()
        # a live 2.5 / 1.5 / 1.0 ladder on a second space: once the 1.5
        # graph is filled, the 1.0 graph masks it, and nothing else holds
        # the 2.5 graph's arrays
        other = tied_grid_space(9)
        coarse = ChainGraph(other, 2.5)
        refs = [weakref.ref(a) for a in coarse._adjacency()]
        ladder = [ChainGraph(other, 1.5)]
        ladder[0]._adjacency()
        ladder.append(ChainGraph(other, 1.0))
        del coarse
        gc.collect()
        assert all(ref() is None for ref in refs)
        ladder[1]._adjacency()
    assert scans == [2.5, 2.5]
    for graph in (fine, finer, *ladder):
        want = ref_adjacency(graph.space, graph.eps)
        assert all(map(np.array_equal, graph._adjacency(), want))


def test_profile_loop_scans_once_only_while_the_coarsest_graph_is_held():
    # covering_profile drops the graph it builds, so a loop at falling
    # scales scans at each one; a held graph at the first scale is filled
    # by the first call and masked by every later one
    scales = [2.5, 2.01, 1.5, 1.01]
    space = tied_grid_space(8)
    want = [covering_profile(space, eps) for eps in scales]
    for held in (False, True):
        space = tied_grid_space(8)
        graph = ChainGraph(space, scales[0]) if held else None
        with counting_scans() as scans:
            assert [covering_profile(space, eps) for eps in scales] == want
        assert scans == (scales[:1] if held else scales), held
        del graph


def test_same_scale_graphs_share_one_scan():
    # two live graphs at one scale, both built before either fills: each
    # finds the table the other holds, and so does a finer graph after
    # either one is dropped
    space = tied_grid_space(9)
    with counting_scans() as scans:
        first, second = ChainGraph(space, 2.5), ChainGraph(space, 2.5)
        first._adjacency()
        second._adjacency()
        assert second._adjacency()[1] is first._adjacency()[1]
        del second
        gc.collect()
        ChainGraph(space, 1.5)._adjacency()
    assert scans == [2.5]


def test_geometric_scales_scan_once(tmp_path, capsys):
    # chains rebinds its graph per scale: each new, finer graph takes the
    # table while the coarser graph is still alive, so one scan serves
    # all six scales
    pts = np.random.default_rng(4).random((60, 2))
    path = tmp_path / "matrix.csv"
    np.savetxt(path, np.linalg.norm(pts[:, None] - pts[None], axis=2),
               fmt="%.17g", delimiter=",")
    with counting_scans() as scans:
        code = cli.main(["chains", "--matrix", str(path), "--eps-geom", "0.3",
                         "0.8", "6", "--profile", "--witness", "0", "59"])
    rows = json.loads(capsys.readouterr().out)["results"]["scales"]
    assert code == 0 and len(rows) == 6
    assert all(row["profile"]["m_star"] > 0 for row in rows)
    assert scans == [0.3]


def test_live_graph_serves_the_profile_and_the_splice(monkeypatch):
    # a held graph with its lists filled answers both queries at its scale:
    # no graph is built and no table is masked again
    space = build_space(
        np.random.default_rng(7).integers(0, 12, (150, 2)).astype(float),
        "euclidean(2)")
    graph = ChainGraph(space, 1.5)
    graph.neighbors(0)
    want = covering_profile(space, 1.5)
    prefix = SequencePrefix(space, tuple(range(0, 150, 7)))
    sched = ToleranceSchedule(((1.5, 0),))
    spliced = splice_to_quasi_cauchy(prefix, space, sched)

    def refuse(*args):
        raise AssertionError("table masked or graph built")

    monkeypatch.setattr(chains, "_mask", refuse)
    monkeypatch.setattr(chains.ChainGraph, "__init__", refuse)
    assert covering_profile(space, 1.5) == want
    assert splice_to_quasi_cauchy(prefix, space, sched) == spliced
    monkeypatch.undo()
    # the registry holds no strong reference: a dropped graph dies, and the
    # next query builds its own
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None
    built = []
    init = chains.ChainGraph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(chains.ChainGraph, "__init__", counted)
    assert covering_profile(space, 1.5) == want
    assert built == [(space, 1.5)]


def test_live_graphs_register_once_under_threads(monkeypatch):
    # threads register graphs at six scales of one fresh space at once;
    # without the registry's lock, two threads would each make the space's
    # set of live graphs and one thread's graph would be lost from it
    def slow(make):
        def stretched(*args):
            time.sleep(1e-3)  # a map made across thread switches
            return make(*args)
        return stretched

    monkeypatch.setattr(chains.weakref, "WeakSet", slow(weakref.WeakSet))
    space = build_space(
        np.random.default_rng(6).integers(0, 10, (60, 2)).astype(float),
        "euclidean(2)")
    scale_tree(space)
    graphs = {}

    def work(eps):
        graphs[eps] = ChainGraph(space, eps)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(1.0 + k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(graphs) == 6
    for eps, graph in graphs.items():
        assert chains._live_graph(space, eps) is graph


def test_tree_lock_is_never_taken_under_the_graph_lock(monkeypatch):
    # the fill reads the graph's own label runs, so the two locks never
    # nest: the scale tree's lock is only ever taken with the graph lock
    # free
    class Guarded:
        def __init__(self, lock):
            self.lock = lock
            self.taken = 0

        def __enter__(self):
            assert not chains._GRAPHS_LOCK.locked(), "tree lock nested"
            self.taken += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    guard = Guarded(chains._TREES_LOCK)
    monkeypatch.setattr(chains, "_TREES_LOCK", guard)
    space = tied_grid_space(10)
    with counting_scans() as scans:
        coarse = ChainGraph(space, 2.5)  # filled by a scan
        assert coarse.neighbors(0).size
        fine = ChainGraph(space, 1.5)  # filled by a mask of coarse
        singles = ChainGraph(space, 0.5)  # every point alone
        for graph in (coarse, fine, singles):
            component_centers(graph)
            covering_profile(space, graph.eps)
            find_chain(graph, 0, space.n - 1)
            ball_layers(graph, 0, 2)
        covering_profile(build_space([[0.0], [1.0]], "euclidean(1)"), 0.5)
    assert scans == [2.5, 0.5]
    assert guard.taken >= 4

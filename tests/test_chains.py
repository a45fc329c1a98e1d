"""Chain graphs, reachability, covering profiles, and discreteness."""

import math

import numpy as np
import pytest

from chainscope import (
    ChainGraph,
    ChainWitness,
    ball_layers,
    build_space,
    chain_discreteness,
    covering_profile,
    find_chain,
    is_chainable,
    make_fixture,
    u_placed_gap,
)
from chainscope.errors import (
    EmptySubset,
    MalformedInput,
    NonPositiveEpsilon,
    NonPositiveLength,
    NotACover,
)

from test_blocked_scans import ref_realized


def line_space(values):
    return build_space(np.asarray(values, dtype=float), "euclidean(1)")


def dfs_components(space, eps):
    """Independent closure oracle: stack DFS over brute adjacency."""
    n = space.n
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        block = []
        while stack:
            x = stack.pop()
            block.append(x)
            for y in range(n):
                if not seen[y] and space.distance(x, y) < eps:
                    seen[y] = True
                    stack.append(y)
        parts.append(sorted(block))
    return sorted(parts)


def walk_reach(space, x, eps, m):
    """Endpoints of every eps-walk from x with at most m steps.

    Enumerates walks literally (repeats allowed), which is slow but
    entirely independent of the BFS under test.
    """
    reach = {x}
    frontier = [(x, 0)]
    while frontier:
        p, k = frontier.pop()
        if k == m:
            continue
        for y in range(space.n):
            if y != p and space.distance(p, y) < eps:
                frontier.append((y, k + 1))
                reach.add(y)
    return reach


def test_three_points_one_component():
    graph = ChainGraph(line_space([0, 1, 2]), 1.5)
    assert graph.component_count == 1
    assert graph.components() == [[0, 1, 2]]


def test_strictness_splits_at_exact_eps():
    graph = ChainGraph(line_space([0, 1, 2]), 1.0)
    assert graph.component_count == 3


def test_adjacency_symmetric_irreflexive():
    rng = np.random.default_rng(3)
    space = build_space(rng.uniform(0, 1, size=(14, 2)), "euclidean(2)")
    graph = ChainGraph(space, 0.3)
    for i in range(space.n):
        assert i not in graph.neighbors(i)
        for j in graph.neighbors(i):
            assert i in graph.neighbors(int(j))


def test_segment_chain_shatter_pattern():
    # at eps = 0.25 the first three segments have grid spacing >= 0.25
    # and fall apart, while wider-spaced ones hold together
    fx = make_fixture("segment-chain", n=6, subdiv=1)
    graph = ChainGraph(fx.space, 0.25)
    members = fx.meta["members"]
    shared = {
        i
        for m in members
        for i in members[m]
        if any(i in members[k] for k in members if k != m)
    }
    # interiors of the first three segments have spacing >= 0.25 and
    # shatter; segments 4..6 hold together (spacing 1/(m+1) < 0.25)
    parts = graph.components()
    for m in (1, 2, 3):
        for i in members[m]:
            if i not in shared:
                assert [i] in parts
    for m in (4, 5, 6):
        ids = {graph.component_id(i) for i in members[m]}
        assert len(ids) == 1
    assert dfs_components(fx.space, 0.25) == sorted(graph.components())


def test_components_match_dfs_oracle_on_random_spaces():
    rng = np.random.default_rng(21)
    for trial in range(12):
        pts = rng.uniform(0, 1, size=(rng.integers(4, 11), 2))
        space = build_space(pts, "euclidean(2)")
        reals = ref_realized(space)
        for eps in (reals[0] * 0.5, float(np.median(reals)), reals[-1] * 1.1):
            graph = ChainGraph(space, eps)
            assert sorted(graph.components()) == dfs_components(space, eps)


def test_ball_layers_small_path():
    space = line_space([0, 1, 2, 3])
    graph = ChainGraph(space, 1.1)
    assert set(ball_layers(graph, 0, 2)) == {0, 1, 2}
    assert set(ball_layers(graph, 0, 1)) == {0, 1}


def test_ball_layers_equals_walk_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(10):
        pts = rng.uniform(0, 1, size=(8, 2))
        space = build_space(pts, "euclidean(2)")
        eps = float(np.median(ref_realized(space)))
        graph = ChainGraph(space, eps)
        for x in range(space.n):
            for m in range(1, 5):
                assert set(ball_layers(graph, x, m)) == walk_reach(
                    space, x, eps, m
                )


def test_ball_layers_rejects_bad_hop_count():
    graph = ChainGraph(line_space([0, 1]), 0.5)
    with pytest.raises(NonPositiveLength):
        ball_layers(graph, 0, 0)


def test_rays_fixture_single_component():
    # every axis grid walks down to the shared origin
    fx = make_fixture("scaled-unit-vectors", n=5, r_step=0.1)
    graph = ChainGraph(fx.space, 0.15)
    assert graph.component_count == 1
    assert is_chainable(fx.space, 0.15)


def test_rays_chainable_at_tight_scale():
    fx = make_fixture("scaled-unit-vectors", n=4, r_step=0.05)
    assert is_chainable(fx.space, 0.07)
    assert sorted(dfs_components(fx.space, 0.07))[0] == list(
        range(fx.space.n)
    )


def test_find_chain_identity_and_absence():
    space = line_space([0, 1, 5])
    graph = ChainGraph(space, 1.5)
    w = find_chain(graph, 0, 0)
    assert w.indices == (0,)
    assert w.length == 0
    assert find_chain(graph, 0, 2) is None


def test_find_chain_witness_validates_and_is_shortest():
    rng = np.random.default_rng(13)
    for trial in range(8):
        pts = rng.uniform(0, 1, size=(9, 2))
        space = build_space(pts, "euclidean(2)")
        eps = float(np.median(ref_realized(space)))
        graph = ChainGraph(space, eps)
        for y in range(1, space.n):
            w = find_chain(graph, 0, y)
            if w is None:
                assert y not in walk_reach(space, 0, eps, space.n)
                continue
            w.validate(space)
            # hop count must match the smallest m whose ball reaches y
            hops = next(
                m
                for m in range(space.n + 1)
                if y in walk_reach(space, 0, eps, m)
            )
            assert w.length == hops


def test_find_chain_deterministic():
    rng = np.random.default_rng(29)
    pts = rng.uniform(0, 1, size=(10, 2))
    space = build_space(pts, "euclidean(2)")
    graph = ChainGraph(space, 0.45)
    for y in range(space.n):
        a = find_chain(graph, 3, y)
        b = find_chain(ChainGraph(space, 0.45), 3, y)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.indices == b.indices


def test_segment_chain_hop_lower_bound():
    fx = make_fixture("segment-chain", n=16, subdiv=4)
    graph = ChainGraph(fx.space, 0.25)
    w = find_chain(
        graph, fx.space.index_of("e8"), fx.space.index_of("e14")
    )
    assert w is not None
    assert w.length >= 5


def test_covering_profile_trivial_cases():
    space = line_space([0, 0.5, 1.0])
    assert covering_profile(space, 10.0) == (1, 1)
    far = line_space([0.0, 100.0])
    assert covering_profile(far, 1.0) == (2, 0)


def test_covering_profile_matches_eccentricity_oracle():
    rng = np.random.default_rng(31)
    for trial in range(8):
        pts = rng.uniform(0, 1, size=(rng.integers(3, 9), 2))
        space = build_space(pts, "euclidean(2)")
        eps = float(np.median(ref_realized(space)))
        k, m_star = covering_profile(space, eps)
        parts = dfs_components(space, eps)
        assert k == len(parts)
        # best center's worst hop distance, per component, via walk oracle
        want = 0
        for block in parts:
            best = min(
                max(
                    next(
                        m
                        for m in range(space.n + 1)
                        if y in walk_reach(space, c, eps, m)
                    )
                    for y in block
                )
                for c in block
            )
            want = max(want, best)
        assert m_star == want


def test_covering_profile_growth_over_sizes():
    stars = []
    for n in (8, 12, 16):
        fx = make_fixture("segment-chain", n=n, subdiv=4)
        stars.append(covering_profile(fx.space, 0.25)[1])
    assert stars[0] < stars[1] < stars[2]


def test_eps_must_be_positive():
    space = line_space([0, 1])
    with pytest.raises(NonPositiveEpsilon):
        ChainGraph(space, 0.0)
    with pytest.raises(NonPositiveEpsilon):
        covering_profile(space, -1.0)


def test_discreteness_integers_in_themselves():
    space = line_space(range(1, 21))
    report = chain_discreteness(
        space, list(range(space.n)), mode="in-itself",
        grid="exact-breakpoints",
    )
    assert report.exact
    assert report.uniform == 1.0


def test_discreteness_integers_in_fine_grid():
    # ambient chains walk the 0.1 grid between the integers
    fx = make_fixture("grid-interval", a=1.0, b=50.0, count=491)
    ints = [k * 10 for k in range(50)]
    report = chain_discreteness(
        fx.space, ints, mode="in-ambient", grid="exact-breakpoints"
    )
    assert report.uniform < 0.2
    # within the subset alone the unit spacing still protects every point
    report = chain_discreteness(
        fx.space, ints, mode="in-itself", grid="exact-breakpoints"
    )
    assert report.uniform >= 0.2


def test_discreteness_singleton_subset():
    space = line_space([0, 1, 2])
    report = chain_discreteness(space, [1])
    assert report.uniform == math.inf


def test_discreteness_grid_brackets_exact():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, size=(12, 1))
    space = build_space(pts, "euclidean(1)")
    subset = [0, 4, 9]
    exact = chain_discreteness(space, subset, grid="exact-breakpoints")
    # an explicit grid holding every exact threshold reproduces them
    grid = sorted(set(exact.thresholds.values()))
    again = chain_discreteness(space, subset, grid=grid)
    assert again.thresholds == exact.thresholds


def test_discreteness_input_errors():
    space = line_space([0, 1, 2])
    with pytest.raises(EmptySubset):
        chain_discreteness(space, [])
    with pytest.raises(MalformedInput):
        chain_discreteness(space, [0, 0])
    with pytest.raises(MalformedInput):
        chain_discreteness(space, [0], mode="sideways")


@pytest.mark.parametrize(
    "grid", [[True], ["abc"], [math.nan], [-math.inf], [1.0, [2.0]]]
)
def test_discreteness_refuses_candidates_that_are_no_numbers(grid):
    with pytest.raises(MalformedInput, match="candidate scale"):
        chain_discreteness(line_space([0, 1, 2]), [0, 2], grid=grid)


def test_discreteness_candidates_are_reals_or_plus_inf():
    report = chain_discreteness(line_space([0, 1, 2]), [0, 2],
                                grid=[np.float64(math.inf), 1, "2.5"])
    assert report.candidates == (math.inf, 2.5, 1.0)
    assert all(type(c) is float for c in report.candidates)


def test_discreteness_below_every_positive_candidate_is_plus_zero():
    # only positive candidates enter the ladder: a -0.0 candidate must not
    # turn the 0.0 of a point below them all into -0.0
    report = chain_discreteness(line_space([0, 1, 2]), [0, 2],
                                grid=[-0.0, 2.0])
    assert report.thresholds == {0: 0.0, 2: 0.0}
    signs = [math.copysign(1.0, t) for t in (*report.thresholds.values(),
                                             report.uniform)]
    assert signs == [1.0, 1.0, 1.0]


def test_witness_validate_refuses_a_gap_at_eps():
    space = line_space([0, 1, 2])
    assert ChainWitness((0, 1, 2), 1.5).validate(space).length == 2
    with pytest.raises(MalformedInput, match=r"witness gap d\(0,1\)"):
        ChainWitness((0, 1, 2), 1.0).validate(space)


def test_u_placed_gap_split_interval():
    fx = make_fixture("grid-interval", a=0.0, b=2.0, count=41)
    plus = [i for i in range(fx.space.n) if i * 0.05 <= 1.0 + 1e-12]
    minus = [i for i in range(fx.space.n) if i * 0.05 >= 1.0 - 1e-12]
    gap = u_placed_gap(fx.space, plus, minus, 0.25)
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_u_placed_gap_full_overlap_trims_everything():
    space = line_space([0, 1, 2])
    everything = [0, 1, 2]
    assert u_placed_gap(space, everything, everything, 0.5) == math.inf


def test_u_placed_gap_disjoint_cover():
    space = line_space([0.0, 0.1, 5.0, 5.1])
    gap = u_placed_gap(space, [0, 1], [2, 3], 0.3)
    assert gap == pytest.approx(4.9)


def test_u_placed_gap_requires_cover():
    space = line_space([0, 1, 2])
    with pytest.raises(NotACover):
        u_placed_gap(space, [0], [2], 0.1)


def test_component_members_and_ids_consistent():
    rng = np.random.default_rng(41)
    space = build_space(rng.uniform(0, 1, size=(15, 2)), "euclidean(2)")
    graph = ChainGraph(space, 0.25)
    for block in graph.components():
        # a component's label is its smallest member
        ids = [graph.component_id(i) for i in block]
        assert ids == [block[0]] * len(block)

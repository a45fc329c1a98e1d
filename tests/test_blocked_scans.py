"""Blocked pair scans against the row-at-a-time loops they replaced.

Each reference below is the earlier one-row-per-point implementation, kept
as plain code.  The blocked versions must return the same values, witnesses
and early-exit verdicts bit for bit, whatever the block size: spaces are
small, have duplicate points (with equal and with clashing values) and tied
ratios, and blocks of 1, 2, 3 and n rows put pairs on every side of a block
boundary.
"""

import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from chainscope import (
    ChainGraph,
    MetricSpace,
    ScalarFunction,
    SequencePrefix,
    ToleranceSchedule,
    BoundsReport,
    approximate,
    build_space,
    cauchy_test,
    equi_chain_continuity_check,
    level_sets,
    local_lipschitz_profile,
    partition_functions,
    proof_bounds_report,
    pseudo_cauchy_test,
    quasi_cauchy_test,
    seq_lipschitz_constant,
    spike_function,
    u_placed_gap,
    ward_falsifier,
)
from chainscope import moduli
from chainscope.errors import InconsistentLevels, NoValidDelta, OverlappingBalls
from chainscope.moduli import ModulusReport, _sup_ratio, _violation_distances
from chainscope.sequences import Verdict, Witness

# -- reference row loops --------------------------------------------------


def ref_sup_ratio(space, values, members=None, limit=None):
    if members is None:
        members = np.arange(space.n)
    else:
        members = np.asarray(members, dtype=int)
    m = len(members)
    best = 0.0
    witness = None
    for a in range(m - 1):
        i = int(members[a])
        rest = members[a + 1:]
        d = space.pairwise(np.full(len(rest), i), rest)
        df = np.abs(values[rest] - values[i])
        if limit is not None:
            keep = d < limit
        else:
            keep = np.ones(len(rest), dtype=bool)
        zero = keep & (d == 0.0)
        if zero.any():
            hot = np.flatnonzero(zero & (df > 0.0))
            if hot.size:
                j = int(rest[hot[0]])
                return math.inf, (i, j)
            keep &= ~zero
        live = np.flatnonzero(keep)
        if not live.size:
            continue
        ratios = df[live] / d[live]
        top = int(np.argmax(ratios))
        if witness is None or ratios[top] > best:
            best = float(ratios[top])
            witness = (i, int(rest[live[top]]))
    return best, witness


def ref_local_profile(space, values, delta):
    out = np.zeros(space.n)
    for x in range(space.n):
        ball = np.flatnonzero(space.distances_from(x) < delta)
        if len(ball) >= 2:
            out[x] = ref_sup_ratio(space, values, ball)[0]
    return out


def ref_seq_all_pairs(f, prefix):
    idx = np.asarray(prefix.indices, dtype=int)
    vals = f.values[idx]
    n = len(idx)
    best = 0.0
    witness = None
    for k in range(n - 1):
        d = prefix.space.pairwise(np.full(n - k - 1, idx[k]), idx[k + 1:])
        df = np.abs(vals[k + 1:] - vals[k])
        zero = d == 0.0
        hot = np.flatnonzero(zero & (df > 0.0))
        if hot.size:
            return ModulusReport(
                "cauchy-seq", math.inf, None, (k, k + 1 + int(hot[0]))
            )
        live = np.flatnonzero(~zero)
        if not live.size:
            continue
        ratios = df[live] / d[live]
        top = int(np.argmax(ratios))
        if witness is None or ratios[top] > best:
            best = float(ratios[top])
            witness = (k, k + 1 + int(live[top]))
    return ModulusReport("cauchy-seq", best, None, witness)


def ref_cauchy(prefix, schedule):
    idx = np.asarray(prefix.indices, dtype=int)
    n = len(idx)
    for j, (eps, n_j) in enumerate(schedule.stages):
        if n_j >= n - 1:
            continue
        for k in range(n_j, n - 1):
            row = prefix.space.pairwise(np.full(n - k - 1, idx[k]), idx[k + 1:])
            bad = np.flatnonzero(row >= eps)
            if bad.size:
                l = k + 1 + int(bad[0])
                return Verdict(
                    "falsified", Witness(j, k, l, float(row[bad[0]])),
                    "cauchy", schedule,
                )
    return Verdict("consistent", None, "cauchy", schedule)


def ref_pseudo(prefix, schedule):
    idx = np.asarray(prefix.indices, dtype=int)
    n = len(idx)
    for j, (eps, n_j) in enumerate(schedule.stages):
        if n_j >= n - 1:
            continue
        best = math.inf
        best_pair = None
        found = False
        for k in range(n_j, n - 1):
            row = prefix.space.pairwise(np.full(n - k - 1, idx[k]), idx[k + 1:])
            m = int(np.argmin(row))
            if row[m] < best:
                best = float(row[m])
                best_pair = (k, k + 1 + m)
            if best < eps:
                found = True
                break
        if not found:
            return Verdict(
                "falsified", Witness(j, best_pair[0], best_pair[1], best),
                "pseudo-cauchy", schedule,
            )
    return Verdict("consistent", None, "pseudo-cauchy", schedule)


def ref_ward(f, space, eps_img, schedule, budget):
    finest = schedule.finest_eps
    n = space.n
    pairs = []
    for i in range(n - 1):
        rest = np.arange(i + 1, n)
        d = space.pairwise(np.full(len(rest), i), rest)
        close = np.flatnonzero(d < finest)
        pairs.extend((float(d[c]), i, int(rest[c])) for c in close)
    pairs.sort()
    tail_len = schedule.stages[-1][1] + 1
    evals = 0
    for _, a, b in pairs:
        if evals >= budget:
            break
        evals += 1
        prefix = SequencePrefix(space, (a,) * tail_len + (b,))
        if not quasi_cauchy_test(prefix, schedule).consistent:
            continue
        gap = abs(f.values[b] - f.values[a])
        if gap >= eps_img:
            return "witness", evals, (a, b), float(gap)
    return "exhausted", evals, None, None


def ref_realized(space):
    """Sorted distinct positive distances, from plain rows."""
    vals = set()
    for i in range(space.n):
        row = space.distances_from(i)[i + 1:]
        vals.update(float(v) for v in row if v > 0)
    return np.asarray(sorted(vals))


def ref_violation(space, values, eps):
    out = np.full(space.n, math.inf)
    for x in range(space.n):
        d = space.distances_from(x)
        mask = np.abs(values - values[x]) >= eps
        if mask.any():
            out[x] = float(d[mask].min())
    return out


def ref_violation_rows(space, values, eps, rows=None):
    """ref_violation for each function, in _violation_distances' shape."""
    out = np.vstack([ref_violation(space, v, eps) for v in values])
    return out if rows is None else out[:, np.asarray(rows, dtype=int)]


def ref_u_placed_gap(space, plus, minus, eps):
    inter = sorted(set(plus) & set(minus))
    inter_arr = np.asarray(inter, dtype=int)

    def trim(side):
        if not inter:
            return list(side)
        return [
            x for x in side
            if space.pairwise(np.full(len(inter_arr), x), inter_arr).min() >= eps
        ]

    tp, tm = trim(plus), trim(minus)
    if not tp or not tm:
        return math.inf
    tm = np.asarray(tm, dtype=int)
    best = math.inf
    for x in tp:
        best = min(best, float(space.pairwise(np.full(len(tm), x), tm).min()))
    return best


def ref_partition(space, levels):
    n_pts = space.n
    parts = {}
    total = np.zeros(n_pts)
    for n, members in levels.items():
        vals = np.zeros(n_pts)
        comp = np.asarray(sorted(set(range(n_pts)) - set(members)), dtype=int)
        for x in members:
            if comp.size == 0:
                vals[x] = 1.0
            else:
                d = space.pairwise(np.full(comp.size, x), comp).min()
                vals[x] = min(1.0, float(d))
        parts[n] = vals
        total += vals
    return parts, total


class RefUnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def ref_bounds(decomp, prefix, schedule):
    """proof_bounds_report's per-pair loop over the tail, with its
    delta rule; the prefix is quasi-Cauchy-consistent."""
    space = decomp.f.space
    f_vals = decomp.f.values
    quarter = decomp.eps / 4.0
    rows = np.unique(prefix.indices)
    min_viol = float(ref_violation(space, f_vals, quarter)[rows].min())
    if math.isinf(min_viol):
        delta = space.diameter()
        if delta == 0:
            raise NoValidDelta("no positive distance")
    elif min_viol <= 0:
        raise NoValidDelta("zero-distance clash")
    else:
        delta = min_viol
    n0 = schedule.first_start
    g_vals = decomp.g.values
    h_vals = decomp.h.values
    idx = np.asarray(prefix.indices, dtype=int)
    gaps = prefix.gaps()
    h_const = 10.0 / delta**2
    pairs = 0
    g_ok = True
    h_ok = True
    g_margin = math.inf
    h_margin = math.inf
    g_sharp = 0.0
    h_sharp = 0.0
    violations = []
    for k in range(n0, len(idx) - 1):
        a, b = idx[k], idx[k + 1]
        d = float(gaps[k])
        dg = abs(float(g_vals[b] - g_vals[a]))
        dh = abs(float(h_vals[b] - h_vals[a]))
        pairs += 1
        if dg > 3.0 * d:
            g_ok = False
            violations.append(("g", k, dg, 3.0 * d))
        if dh > h_const * d:
            h_ok = False
            violations.append(("h", k, dh, h_const * d))
        g_margin = min(g_margin, 3.0 * d - dg)
        h_margin = min(h_margin, h_const * d - dh)
        if d > 0:
            g_sharp = max(g_sharp, dg / d)
            h_sharp = max(h_sharp, dh / d)
    return BoundsReport(
        eps=decomp.eps, delta=delta, n0=n0, pairs_checked=pairs,
        g_bound_ok=g_ok, h_bound_ok=h_ok, g_margin=g_margin,
        h_margin=h_margin, g_sharp=g_sharp, h_sharp=h_sharp,
        violations=tuple(violations),
    )


def ref_graph(space, eps):
    """Neighbour rows and union-order roots of the strict eps-graph."""
    n = space.n
    neighbors = []
    uf = RefUnionFind(n)
    idx = np.arange(n)
    for i in range(n):
        row = space.distances_from(i)
        nbrs = idx[(row < eps) & (idx != i)]
        neighbors.append(nbrs)
        for j in nbrs:
            if j > i:
                uf.union(i, int(j))
    return neighbors, [uf.find(i) for i in range(n)]


def smallest_member_labels(roots):
    """Each point's union-find root replaced by its set's smallest member,
    the canonical component id."""
    floor = {}
    for i, r in enumerate(roots):
        floor.setdefault(r, i)
    return [floor[r] for r in roots]


# -- strategies -----------------------------------------------------------


@contextlib.contextmanager
def blocks_of(rows):
    """Force every pair scan to use blocks of the given row count."""
    scan = MetricSpace.pair_blocks

    def forced(self, rows_, cols=None, block=None):
        return scan(self, rows_, cols, block=rows)

    MetricSpace.pair_blocks = forced
    try:
        yield
    finally:
        MetricSpace.pair_blocks = scan


def candidate_tiers(picks, growth):
    """Patch _violation_distances' tiers: picks nearest columns first, then
    growth times as many at each further tier."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(moduli, "_CANDIDATES", picks))
    stack.enter_context(mock.patch.object(moduli, "_CANDIDATE_GROWTH", growth))
    return stack


# tier patches for a scene of at most 9 points: a first tier of 1 holds only
# the row point or a twin, so the search mostly passes to the next tier and
# rows whose far points lie outside every tier reach the full row; 10 or
# more is the one-pass default path
TIER_PICKS = st.integers(1, 10)
TIER_GROWTH = st.sampled_from([2, 3, 16])


@st.composite
def scenes(draw, min_n=1):
    """A small euclidean(2) space on an integer grid, with duplicate points
    and integer values (so ratios tie), plus a block size."""
    n = draw(st.integers(min_n, 9))
    coord = st.integers(0, 3)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    vals = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    block = draw(st.sampled_from([1, 2, 3, n]))
    space = build_space(np.asarray(pts, dtype=float), "euclidean(2)")
    return space, np.asarray(vals, dtype=float), block


@st.composite
def schedules(draw, length):
    """A strictly decreasing eps ladder whose first stage fits the prefix."""
    count = draw(st.integers(1, 3))
    eps = sorted(
        draw(st.lists(st.sampled_from([0.5, 1.0, 1.2, 1.5, 2.0, 3.0, 4.5]),
                      min_size=count, max_size=count, unique=True)),
        reverse=True,
    )
    first = draw(st.integers(0, length - 2))
    starts = [first]
    for _ in eps[1:]:
        starts.append(starts[-1] + draw(st.integers(1, 3)))
    return ToleranceSchedule(tuple(zip(eps, starts)))


LIMITS = st.sampled_from([None, 0.5, 1.0, 1.5, 2.0, 3.0])

# -- equivalence ----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(scenes(), LIMITS, st.data())
def test_sup_ratio_matches_row_loop(scene, limit, data):
    space, vals, block = scene
    members = data.draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, space.n - 1), max_size=8),
        )
    )
    want = ref_sup_ratio(space, vals, members, limit)
    with blocks_of(block):
        constant, witness = _sup_ratio(space, vals, members, limit)
    pick = np.arange(space.n) if members is None else np.asarray(members)
    got = None if witness is None else tuple(int(pick[p]) for p in witness)
    assert (constant, got) == want


@settings(max_examples=120, deadline=None)
@given(scenes(), st.data())
def test_seq_all_pairs_matches_row_loop(scene, data):
    space, vals, block = scene
    walk = data.draw(st.lists(st.integers(0, space.n - 1), min_size=2, max_size=10))
    f = ScalarFunction(space, vals)
    prefix = SequencePrefix(space, tuple(walk))
    with blocks_of(block):
        got = seq_lipschitz_constant(f, prefix, "all-pairs")
    assert got == ref_seq_all_pairs(f, prefix)


@settings(max_examples=150, deadline=None)
@given(scenes(min_n=2), st.data())
def test_staged_tests_match_row_loops(scene, data):
    space, _, block = scene
    # walks without repeats let the pseudo-Cauchy test fail on tied minima
    unique = data.draw(st.booleans())
    walk = data.draw(
        st.lists(st.integers(0, space.n - 1), min_size=2, max_size=12, unique=unique)
    )
    prefix = SequencePrefix(space, tuple(walk))
    schedule = data.draw(schedules(len(walk)))
    # one fine stage over the whole walk: the closest pair decides, and
    # grid distances tie across rows
    fine = ToleranceSchedule(((data.draw(st.sampled_from([0.5, 1.0, 1.5])), 0),))
    with blocks_of(block):
        cauchy = cauchy_test(prefix, schedule)
        pseudo = pseudo_cauchy_test(prefix, schedule)
        pseudo_fine = pseudo_cauchy_test(prefix, fine)
    assert cauchy == ref_cauchy(prefix, schedule)
    assert pseudo == ref_pseudo(prefix, schedule)
    assert pseudo_fine == ref_pseudo(prefix, fine)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_cauchy_witness_past_the_first_block(block):
    # positions 0..2 lie 0.6 from both 3 and 4, which lie 1.2 apart, so the
    # first breaking row sits in a later block of the square scan
    space = build_space(np.array([0.0, 0.0, 0.0, -0.6, 0.6]), "euclidean(1)")
    prefix = SequencePrefix(space, (0, 1, 2, 3, 4))
    with blocks_of(block):
        verdict = cauchy_test(prefix, ToleranceSchedule(((1.0, 0),)))
    assert verdict.witness == Witness(0, 3, 4, 1.2)


@settings(max_examples=100, deadline=None)
@given(scenes(min_n=2), st.data())
def test_ward_matches_sorted_pair_list(scene, data):
    space, vals, block = scene
    f = ScalarFunction(space, vals)
    schedule = ToleranceSchedule(
        ((data.draw(st.sampled_from([1.5, 2.0, 3.5])), 0), (1.1, 2))
    )
    eps_img = data.draw(st.sampled_from([0.5, 1.0, 3.0, 9.0]))
    budget = data.draw(st.integers(1, 12))
    with blocks_of(block):
        res = ward_falsifier(f, space, eps_img, schedule, budget)
    assert (res.status, res.evaluations, res.pair, res.image_gap) == ref_ward(
        f, space, eps_img, schedule, budget
    )


def test_ward_memory_is_bounded_by_the_budget():
    # 3,000 uniform points hold about a million pairs below 0.35; only
    # the first 1,000 of them in (distance, a, b) order are ever kept
    rng = np.random.default_rng(1)
    space = build_space(rng.uniform(0, 1, (3000, 2)), "euclidean(2)")
    f = ScalarFunction(space, np.zeros(space.n))
    schedule = ToleranceSchedule(((1.0, 0), (0.35, 2)))
    tracemalloc.start()
    try:
        res = ward_falsifier(f, space, 1.0, schedule, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.evaluations) == ("exhausted", 1000)
    assert peak < 16e6, peak


@settings(max_examples=150, deadline=None)
@given(scenes(), st.sampled_from([0.5, 1.0, 2.0]), TIER_PICKS, TIER_GROWTH)
def test_violation_distances_match_rows(scene, eps, picks, growth):
    space, vals, block = scene
    with blocks_of(block), candidate_tiers(picks, growth):
        # three functions, so the tiers run
        family = np.vstack([vals, -2.0 * vals, np.roll(vals, 1)])
        viol = _violation_distances(space, family, eps)
    for got, v in zip(viol, family):
        assert np.array_equal(got, ref_violation(space, v, eps))


def test_violation_tiers_fall_back_and_drop_a_function_they_miss():
    # ten points on a line, blocks of two rows, tiers of 2, 4 and 8
    # columns.  f_0 moves by eps only at point 9, so rows 0 and 1 find no
    # far point in any tier and take the full row of 10, and f_0 leaves
    # the tiers after that block; f_1..f_3 find theirs 3 apart, inside the
    # tiers, and keep them
    space = build_space(np.arange(10.0)[:, None], "euclidean(1)")
    ramp = np.arange(10.0)
    values = np.vstack([np.r_[100.0 + ramp[:9] / 1000, 105.0], ramp,
                        20.0 + ramp, 50.0 + ramp])
    calls = []

    def nearest_far(d, col_values, row_values, eps):
        calls.append((d.shape[1], row_values.tolist()))
        return real(d, col_values, row_values, eps)

    real = moduli._nearest_far
    with blocks_of(2), candidate_tiers(2, 2), mock.patch.object(
        moduli, "_nearest_far", nearest_far
    ):
        viol = _violation_distances(space, values, 3.0)
    assert np.array_equal(viol, ref_violation_rows(space, values, 3.0))
    assert viol[0].tolist() == [9.0 - x for x in range(9)] + [1.0]
    assert {width for width, _ in calls} == {2, 4, 8, 10}
    tiered = [rows for width, rows in calls if width < 10]
    # f_0's values are 100 and up: in the tiers only for rows 0 and 1
    assert {r for rows in tiered for r in rows if r >= 100} == {100.0, 100.001}
    # f_1 still searches the tiers in the last block, rows 8 and 9
    assert any(all(8 <= r < 10 for r in rows) for rows in tiered)


@settings(max_examples=100, deadline=None)
@given(scenes(), st.sampled_from([0.5, 1.0, 2.0]), st.booleans(),
       st.sampled_from([None, 0.5, 1.5]), TIER_PICKS, TIER_GROWTH, st.data())
def test_equi_check_matches_violation_rows(scene, eps, chain, delta, picks,
                                           growth, data):
    space, vals, block = scene
    others = data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=space.n, max_size=space.n),
        min_size=1, max_size=3,
    ))
    family = [ScalarFunction(space, v) for v in [vals, *others]]
    with blocks_of(block), candidate_tiers(picks, growth):
        got = equi_chain_continuity_check(family, eps, chain, delta)
    with mock.patch.object(moduli, "_violation_distances", ref_violation_rows):
        want = equi_chain_continuity_check(family, eps, chain, delta)
    assert got.certificates == want.certificates
    assert list(got.certificates) == list(want.certificates)
    assert np.array_equal(got.delta_by_point, want.delta_by_point)
    assert got.witness == want.witness


@settings(max_examples=200, deadline=None)
@given(scenes(), st.sampled_from([0.5, 1.0, 1.5, 2.5, 5.0]),
       st.integers(1, 200))
def test_local_profile_matches_row_loop(scene, delta, stack):
    # a stack budget of 1 to 200 doubles, 1 to 100 pairs of euclidean(2),
    # on balls of 2 to 9 points puts several balls in one group (padding
    # the smaller ones from 18 pairs on: two balls of 2 and 3 points) and
    # cuts the balls over the budget into row chunks
    space, vals, block = scene
    f = ScalarFunction(space, vals)
    with blocks_of(block), mock.patch.object(moduli, "_STACK_DOUBLES", stack):
        got = local_lipschitz_profile(f, delta)
    assert np.array_equal(got, ref_local_profile(space, vals, delta))


def test_local_profile_zero_distances():
    # twins with clashing values give inf, twins with equal values 0
    space = build_space([[0, 0], [0, 0], [3, 3], [3, 3], [9, 9]],
                        "euclidean(2)")
    f = ScalarFunction(space, [1.0, 2.0, 5.0, 5.0, 7.0])
    assert local_lipschitz_profile(f, 1.0).tolist() == [
        math.inf, math.inf, 0.0, 0.0, 0.0
    ]
    # a -0.0 matrix entry is a zero distance too
    space = build_space([[0.0, -0.0], [-0.0, 0.0]], "explicit-matrix")
    f = ScalarFunction(space, [0.0, 1.0])
    assert local_lipschitz_profile(f, 1.0).tolist() == [math.inf, math.inf]


def test_local_profile_memory_counts_the_pair_width():
    # the zero vector and 256 sign vectors scaled by 0.95 under the sup
    # metric: the zero vector's ball at 1.0 holds all 257 points, every
    # other ball two; a group sized in pairs alone would hold about 2^15
    # pairs of 256 coordinates each, 64 MB a kernel temporary
    rng = np.random.default_rng(2)
    signs = np.unique(rng.choice([-0.95, 0.95], size=(256, 256)), axis=0)
    space = build_space(np.vstack([np.zeros(256), signs]), "function-sup(256)")
    f = ScalarFunction(space, rng.uniform(0, 1, space.n))
    tracemalloc.start()
    try:
        got = local_lipschitz_profile(f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == ref_sup_ratio(space, f.values)[0]
    assert peak < 16e6, peak


def test_violation_rows_without_far_points_are_not_scanned():
    # f_0 spans less than eps, so none of its rows has a far point; f_1 is
    # 0 on points 0..8, 5 at point 9 and 2.5 at points 10 and 11, so only
    # points 0..9 have a far point, and only for f_1
    space = build_space(np.arange(12.0)[:, None], "euclidean(1)")
    values = np.vstack([np.linspace(0, 0.9, 12),
                        np.r_[np.zeros(9), 5.0, 2.5, 2.5]])
    scanned = []
    scan = MetricSpace.pair_blocks

    def spy(self, rows, cols=None, block=None):
        scanned.append(np.asarray(rows).tolist())
        return scan(self, rows, cols, block)

    with mock.patch.object(MetricSpace, "pair_blocks", spy):
        viol = _violation_distances(space, values, 3.0)
        alone = _violation_distances(space, values[:1], 3.0)
    assert scanned == [list(range(10)), []]
    assert np.array_equal(viol, ref_violation_rows(space, values, 3.0))
    assert np.isinf(alone).all()


@pytest.mark.parametrize("block", [1, 2, 3, 4])
def test_spike_names_the_first_clash(block):
    # on the line 0..11: ball 0 is {5, 6, 7}, ball 1 {0, 1, 2}, ball 2
    # {1, ..., 5} meets ball 1 at 1 and 2 and ball 0 at 5, and ball 3
    # {7, ..., 11} meets ball 0 at 7; ball 2 clashes first, at point 1
    space = build_space(np.arange(12.0)[:, None], "euclidean(1)")
    with blocks_of(block), pytest.raises(OverlappingBalls) as err:
        spike_function(space, [6, 0, 3, 9], [1.5, 2.5, 2.5, 2.5], [1.0] * 4)
    assert (err.value.k1, err.value.k2, err.value.witness) == (1, 2, 1)


@settings(max_examples=100, deadline=None)
@given(scenes(), st.sampled_from([0.5, 1.0, 1.5, 2.5]), st.data())
def test_u_placed_gap_and_graph_match_rows(scene, eps, data):
    space, _, block = scene
    side = data.draw(
        st.lists(st.sampled_from(["plus", "minus", "both"]),
                 min_size=space.n, max_size=space.n)
    )
    plus = [x for x, s in enumerate(side) if s != "minus"]
    minus = [x for x, s in enumerate(side) if s != "plus"]
    with blocks_of(block):
        gap = u_placed_gap(space, plus, minus, eps)
        graph = ChainGraph(space, eps)
    assert gap == ref_u_placed_gap(space, plus, minus, eps)
    neighbors, roots = ref_graph(space, eps)
    assert [graph.component_id(i) for i in range(space.n)] == (
        smallest_member_labels(roots)
    )
    for i in range(space.n):
        assert np.array_equal(graph.neighbors(i), neighbors[i])


@settings(max_examples=100, deadline=None)
@given(scenes(), st.sampled_from([0.4, 0.75, 1.0, 2.0]))
def test_partition_functions_match_rows(scene, eps):
    space, vals, block = scene
    f = ScalarFunction(space, vals * 0.37)
    levels = level_sets(f, eps)
    parts, total = ref_partition(space, levels)
    try:
        with blocks_of(block):
            slots, cutoffs, g = partition_functions(space, levels)
    except InconsistentLevels:
        assert not ((total > 0).all() and (total <= 2.0).all())
        return
    # window w's g_n sits in the one slot of each member that holds w
    for w, n in enumerate(parts):
        mine = slots == w
        members = np.isin(range(space.n), levels[n])
        assert np.array_equal(mine.sum(axis=1), members)
        part = np.zeros(space.n)
        part[mine.any(axis=1)] = cutoffs[mine]
        assert np.array_equal(part, parts[n])
    assert (cutoffs[slots < 0] == 0.0).all()
    assert np.array_equal(g.values, total)
    # h is the window-order sum of n * g_n over g, bit for bit
    weighted = np.zeros(space.n)
    for n, part in parts.items():
        weighted += n * part
    with blocks_of(block):
        decomp = approximate(f, eps)
    assert decomp.g.values.tobytes() == total.tobytes()
    assert decomp.h.values.tobytes() == (weighted / total).tobytes()


@settings(max_examples=200, deadline=None)
@given(scenes(min_n=2), st.sampled_from([0.4, 0.75, 1.0, 2.0]), st.data())
def test_bounds_report_matches_pair_loop(scene, eps, data):
    space, vals, _ = scene
    try:
        decomp = approximate(ScalarFunction(space, vals * 0.37), eps)
    except InconsistentLevels:
        reject()
    # tampered g and h break their slope bounds at some steps, both kinds
    # at one step included
    tamper = st.lists(st.floats(-60, 60), min_size=space.n, max_size=space.n)
    for part in ("g", "h"):
        if data.draw(st.booleans()):
            bent = ScalarFunction(space, data.draw(tamper), name=part)
            decomp = dataclasses.replace(decomp, **{part: bent})
    walk = data.draw(st.lists(st.integers(0, space.n - 1), min_size=2,
                              max_size=12))
    prefix = SequencePrefix(space, tuple(walk))
    top = float(prefix.gaps().max())
    first = data.draw(st.integers(0, len(walk) - 2))
    schedule = ToleranceSchedule(((top + 2.0, first), (top + 1.0, first + 1)))

    def outcome(report):
        try:
            return report(decomp, prefix, schedule)
        except NoValidDelta:
            return "no delta"

    got, want = outcome(proof_bounds_report), outcome(ref_bounds)
    if want == "no delta":
        assert got == want
        return
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert repr(got) == repr(want)

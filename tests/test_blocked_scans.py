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

import numpy as np
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
    level_sets,
    partition_functions,
    proof_bounds_report,
    pseudo_cauchy_test,
    quasi_cauchy_test,
    seq_lipschitz_constant,
    u_placed_gap,
    ward_falsifier,
)
from chainscope.errors import InconsistentLevels, NoValidDelta
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
    min_viol = float(_violation_distances(
        space, f_vals[None, :], quarter, rows=np.unique(prefix.indices)
    ).min())
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


@settings(max_examples=100, deadline=None)
@given(scenes(), st.sampled_from([0.5, 1.0, 2.0]))
def test_realized_and_violation_distances_match_rows(scene, eps):
    space, vals, block = scene
    with blocks_of(block):
        realized = space.realized_distances()
        viol = _violation_distances(space, np.vstack([vals, -2.0 * vals]), eps)
    want = ref_realized(space)
    assert realized.dtype == want.dtype and np.array_equal(realized, want)
    assert np.array_equal(viol[0], ref_violation(space, vals, eps))
    assert np.array_equal(viol[1], ref_violation(space, -2.0 * vals, eps))


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
            g_parts, g = partition_functions(space, levels)
    except InconsistentLevels:
        assert not ((total > 0).all() and (total <= 2.0).all())
        return
    assert list(g_parts) == list(parts)
    for n, part in g_parts.items():
        assert np.array_equal(part.values, parts[n])
    assert np.array_equal(g.values, total)


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

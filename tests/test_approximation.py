"""Level windows, partition of unity, and the eps-approximation pipeline."""

import math

import numpy as np
import pytest

from chainscope import (
    MetricSpace,
    ScalarFunction,
    SequencePrefix,
    ToleranceSchedule,
    approximate,
    build_space,
    level_sets,
    make_fixture,
    partition_functions,
    proof_bounds_report,
    spike_function,
)
from chainscope.errors import (
    InconsistentLevels,
    MalformedInput,
    NonPositiveEpsilon,
    NoValidDelta,
)


def brute_windows(values, eps):
    """Re-derive strict window membership by scanning a safe integer range."""
    lo = math.floor(min(values) / eps) - 2
    hi = math.floor(max(values) / eps) + 2
    out = {}
    for n in range(lo, hi + 1):
        members = [
            x for x, v in enumerate(values) if (n - 1) * eps < v < (n + 1) * eps
        ]
        if members:
            out[n] = members
    return out


# -- level windows -----------------------------------------------------------


def test_windows_zero_function():
    space = build_space(np.arange(6, dtype=float), "euclidean(1)")
    f = ScalarFunction(space, np.zeros(6))
    assert level_sets(f, 1.0) == {0: list(range(6))}


def test_windows_grid_case():
    space = build_space([0.0, 0.4, 0.8, 1.2], "euclidean(1)")
    f = ScalarFunction(space, [0.0, 0.4, 0.8, 1.2])
    got = level_sets(f, 0.5)
    assert got == {0: [0, 1], 1: [1, 2], 2: [2, 3], 3: [3]}


def test_windows_mixed_signs():
    space = build_space([0.0, 1.0], "euclidean(1)")
    f = ScalarFunction(space, [-0.4, 0.6])
    got = level_sets(f, 0.5)
    assert got == {-1: [0], 0: [0], 1: [1], 2: [1]}


def test_boundary_value_single_window():
    space = build_space([0.0, 1.0], "euclidean(1)")
    f = ScalarFunction(space, [1.0, 0.6])
    got = level_sets(f, 0.5)
    assert got == {1: [1], 2: [0, 1]}


def test_boundary_value_whose_quotient_rounds_down():
    # 16.5 is 15 * 1.1 in float64, but 16.5 / 1.1 rounds to
    # 14.999999999999998, so window 14 is tried as well; its upper end
    # 15 * 1.1 equals the value, and the strict < keeps the point out
    space = build_space([0.0, 1.0], "euclidean(1)")
    f = ScalarFunction(space, [16.5, 0.0])
    assert 15 * 1.1 == 16.5 and math.floor(16.5 / 1.1) == 14
    assert level_sets(f, 1.1) == {0: [1], 15: [0]}


def test_windows_reject_bad_eps():
    space = build_space([0.0], "euclidean(1)")
    f = ScalarFunction(space, [0.0])
    with pytest.raises(NonPositiveEpsilon):
        level_sets(f, 0.0)
    with pytest.raises(NonPositiveEpsilon):
        level_sets(f, -1.0)


@pytest.mark.parametrize("value", [8e14, 1e20, -1e20, 1e307])
def test_windows_refuse_values_past_float64_resolution(value):
    # once f(x) / eps nears 2^53, (n - 1) * eps and (n + 1) * eps both
    # round to f(x), so no window holds it
    space = build_space([0.0, 1.0], "euclidean(1)")
    f = ScalarFunction(space, [value, 0.0])
    with pytest.raises(InconsistentLevels,
                       match="point 0 lies in no window: .* too large for "
                             "float64 windows"):
        level_sets(f, 0.1)


def test_windows_just_below_float64_resolution():
    space = build_space([0.0, 1.0], "euclidean(1)")
    f = ScalarFunction(space, [6e14, 0.0])
    assert level_sets(f, 0.1) == {0: [1], 6 * 10**15: [0]}
    assert approximate(f, 0.1).sup_error == 0.0


def test_windows_match_brute_scan():
    rng = np.random.default_rng(91)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        vals = rng.uniform(-4, 4, size=n)
        if rng.random() < 0.3:
            vals[0] = round(vals[0])  # court a boundary hit
        space = build_space(np.arange(n, dtype=float), "euclidean(1)")
        f = ScalarFunction(space, vals)
        eps = float(rng.uniform(0.1, 2.0))
        assert level_sets(f, eps) == brute_windows(vals, eps)


def test_each_point_in_one_or_two_adjacent_windows():
    rng = np.random.default_rng(92)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        space = build_space(np.arange(n, dtype=float), "euclidean(1)")
        f = ScalarFunction(space, rng.uniform(-3, 3, size=n))
        levels = level_sets(f, float(rng.uniform(0.2, 1.5)))
        homes = {x: [] for x in range(n)}
        for w, members in levels.items():
            for x in members:
                homes[x].append(w)
        for x, ws in homes.items():
            assert len(ws) in (1, 2)
            if len(ws) == 2:
                assert ws[1] == ws[0] + 1


# -- partition of unity --------------------------------------------------------


def test_partition_zero_function_all_ones():
    space = build_space(np.arange(5, dtype=float), "euclidean(1)")
    f = ScalarFunction(space, np.zeros(5))
    levels = level_sets(f, 1.0)
    slots, cutoffs, g = partition_functions(space, levels)
    assert levels.keys() == {0}
    assert (slots == [0, -1]).all()
    assert (cutoffs == [1.0, 0.0]).all()
    assert (g.values == 1.0).all()


def test_partition_two_close_clusters():
    space = build_space([0.0, 0.3, 0.6, 0.9], "euclidean(1)")
    f = ScalarFunction(space, [0.0, 0.0, 10.0, 10.0])
    levels = level_sets(f, 1.0)
    assert levels == {0: [0, 1], 10: [2, 3]}
    slots, cutoffs, g = partition_functions(space, levels)
    # window 0 sits at position 0 of levels and window 10 at position 1;
    # each window's cutoff is the clipped distance to the other cluster
    assert slots.tolist() == [[0, -1], [0, -1], [1, -1], [1, -1]]
    assert cutoffs[1, 0] == pytest.approx(0.3)
    assert cutoffs[0, 0] == pytest.approx(0.6)
    assert cutoffs[2, 0] == pytest.approx(0.3)
    assert (cutoffs[:, 1] == 0.0).all()
    assert (g.values > 0).all() and (g.values <= 2).all()


def test_partition_rejects_uncovered_point():
    space = build_space([0.0, 1.0], "euclidean(1)")
    with pytest.raises(InconsistentLevels):
        partition_functions(space, {0: [0]})


def test_partition_rejects_zero_distance_clash():
    fx = make_fixture("slow-spike-grid", n=16, spikes=1)
    levels = level_sets(fx.function, 0.1)
    with pytest.raises(InconsistentLevels):
        partition_functions(fx.space, levels)


def test_partition_rejects_excess_overlap():
    space = build_space(np.arange(4, dtype=float), "euclidean(1)")
    fat = {0: [0, 1, 2, 3], 1: [0, 1, 2, 3], 2: [0, 1, 2, 3]}
    with pytest.raises(InconsistentLevels):
        partition_functions(space, fat)


def test_partition_scans_rows_by_first_window(monkeypatch):
    # level_sets' int members skip the one-by-one index check, and the
    # rows go by their first window, so a row block meets few windows;
    # each member's slot of a window still holds its clipped distance to
    # the complement, and an empty slot holds -1 and 0.0
    rng = np.random.default_rng(5)
    space = build_space(rng.uniform(0.0, 1.0, 40), "euclidean(1)")
    f = ScalarFunction(space, rng.uniform(-2.0, 2.0, 40))
    levels = level_sets(f, 0.3)
    mat = space.distance_matrix()
    checked, scanned = [], []
    check, scan = MetricSpace.check_index, MetricSpace.pair_blocks

    def check_spy(self, i):
        checked.append(i)
        return check(self, i)

    def scan_spy(self, rows, cols=None, block=None):
        scanned.append(np.asarray(rows).tolist())
        return scan(self, rows, cols, block)

    monkeypatch.setattr(MetricSpace, "check_index", check_spy)
    monkeypatch.setattr(MetricSpace, "pair_blocks", scan_spy)
    slots, cutoffs, _ = partition_functions(space, levels)
    assert checked == []
    first = {}
    for n, members in levels.items():
        for x in members:
            first.setdefault(x, n)
    assert [first[x] for x in scanned[0]] == sorted(first.values())
    for w, members in enumerate(levels.values()):
        outside = np.setdiff1d(np.arange(space.n), members)
        near = mat[np.ix_(members, outside)].min(axis=1, initial=math.inf)
        mine = slots[members] == w
        assert (mine.sum(axis=1) == 1).all()
        assert np.array_equal(cutoffs[members][mine], np.minimum(1.0, near))
    assert (cutoffs[slots < 0] == 0.0).all()


# -- full pipeline ----------------------------------------------------------------


def test_approximate_zero_function():
    space = build_space(np.arange(7, dtype=float), "euclidean(1)")
    f = ScalarFunction(space, np.zeros(7))
    decomp = approximate(f, 1.0)
    assert (decomp.h.values == 0.0).all()
    assert decomp.sup_error == 0.0


def test_approximate_harmonic_sums():
    fx = make_fixture("harmonic-sums", n=200)
    decomp = approximate(fx.function, 0.5)
    assert decomp.sup_error < 0.5
    recomputed = np.max(np.abs(0.5 * decomp.h.values - fx.function.values))
    assert decomp.sup_error == recomputed


def test_approximate_linear_grid():
    fx = make_fixture("grid-interval", count=101)
    f = ScalarFunction(fx.space, np.linspace(0.0, 1.0, 101))
    decomp = approximate(f, 0.1)
    assert decomp.sup_error < 0.1


def test_approximate_reassembles_from_parts():
    fx = make_fixture("harmonic-sums", n=60)
    decomp = approximate(fx.function, 0.3)
    slots, cutoffs, g = partition_functions(fx.space, decomp.levels)
    assert np.array_equal(g.values, decomp.g.values)
    weighted = np.zeros(fx.space.n)
    for w, n in enumerate(decomp.levels):
        weighted += n * np.where(slots == w, cutoffs, 0.0).sum(axis=1)
    assert decomp.h.values == pytest.approx(weighted / decomp.g.values)
    assert decomp.approx.values == pytest.approx(0.3 * decomp.h.values)


def test_sup_error_equal_to_eps_is_refused(monkeypatch):
    # the bound is strict: windows shifted one up put eps * h - f at
    # exactly eps on the zero function, and the pipeline refuses that
    space = build_space(np.arange(3, dtype=float), "euclidean(1)")
    f = ScalarFunction(space, np.zeros(3))
    monkeypatch.setattr("chainscope.approximation.level_sets",
                        lambda f, eps: {1: [0, 1, 2]})
    with pytest.raises(AssertionError, match="sup error 0.5 failed"):
        approximate(f, 0.5)


def test_approximate_error_bound_random():
    rng = np.random.default_rng(93)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        space = build_space(
            np.sort(rng.uniform(0, 5, size=n)), "euclidean(1)"
        )
        f = ScalarFunction(space, rng.uniform(-3, 3, size=n))
        eps = float(rng.uniform(0.1, 1.5))
        decomp = approximate(f, eps)
        assert decomp.sup_error < eps
        assert (decomp.g.values > 0).all()
        assert (decomp.g.values <= 2.0).all()


def test_approximate_rejects_bad_eps():
    space = build_space([0.0, 1.0], "euclidean(1)")
    f = ScalarFunction(space, [0.0, 0.0])
    with pytest.raises(NonPositiveEpsilon):
        approximate(f, 0.0)


# -- slope bound report --------------------------------------------------------------


def test_bounds_constant_function():
    fx = make_fixture("grid-interval", count=30)
    f = ScalarFunction(fx.space, np.full(30, 1.3))
    decomp = approximate(f, 0.5)
    prefix = SequencePrefix(fx.space, tuple(range(30)))
    sched = ToleranceSchedule(((0.5, 0),))
    report = proof_bounds_report(decomp, prefix, sched)
    assert report.all_ok
    assert report.violations == ()
    assert report.g_sharp == 0.0
    assert report.h_sharp == 0.0
    # nothing moves f by eps/4, so delta relaxes to the widest scale
    assert report.delta == fx.space.diameter()
    assert report.n0 == 0
    assert report.pairs_checked == 29


def test_bounds_harmonic_canonical():
    fx = make_fixture("harmonic-sums", n=200)
    decomp = approximate(fx.function, 0.5)
    sched = ToleranceSchedule(((0.5, 10),))
    report = proof_bounds_report(decomp, fx.prefix, sched)
    assert report.all_ok
    assert report.violations == ()
    assert report.n0 == 10
    assert report.pairs_checked == 189
    assert 0 < report.delta < 1
    assert report.g_sharp <= 3.0
    assert report.h_sharp <= 10.0 / report.delta**2
    assert report.g_margin >= 0
    assert report.h_margin >= 0


def test_bounds_require_consistent_prefix():
    fx = make_fixture("grid-interval", a=0.0, b=29.0, count=30)
    f = ScalarFunction(fx.space, np.zeros(30))
    decomp = approximate(f, 1.0)
    prefix = SequencePrefix(fx.space, tuple(range(30)))
    sched = ToleranceSchedule(((0.5, 0),))  # unit steps falsify this
    with pytest.raises(MalformedInput):
        proof_bounds_report(decomp, prefix, sched)


def test_bounds_no_delta_for_clashing_twins():
    mat = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    space = build_space(mat, "explicit-matrix")
    f = ScalarFunction(space, [0.0, 0.3, 1.0])
    decomp = approximate(f, 1.0)
    prefix = SequencePrefix(space, (0, 1))
    sched = ToleranceSchedule(((0.5, 0),))
    with pytest.raises(NoValidDelta):
        proof_bounds_report(decomp, prefix, sched)


def test_bounds_no_delta_single_point():
    space = build_space([[4.0]], "euclidean(1)")
    f = ScalarFunction(space, [5.0])
    decomp = approximate(f, 1.0)
    prefix = SequencePrefix(space, (0, 0))
    sched = ToleranceSchedule(((0.5, 0),))
    with pytest.raises(NoValidDelta):
        proof_bounds_report(decomp, prefix, sched)


def test_bounds_delta_collapses_under_spike():
    fx = make_fixture("grid-interval", count=51)  # spacing 0.02
    center = 25
    f = spike_function(fx.space, [center], [0.04], [1.0])
    decomp = approximate(f, 1.0)
    prefix = SequencePrefix(fx.space, (center - 1, center, center + 1))
    sched = ToleranceSchedule(((0.5, 0),))
    report = proof_bounds_report(decomp, prefix, sched)
    # the spike moves f by eps/4 within one grid step of the center, so
    # delta is forced down to the smallest realized scale
    assert report.delta == pytest.approx(fx.space.min_positive_distance())
    assert report.all_ok
    assert report.pairs_checked == 2


def test_bounds_hold_when_delta_squared_underflows():
    # delta^2 = 1e-600 leaves float64: the h bound 10 / delta^2 is +inf,
    # which the lone positive step meets
    space = build_space([[0.0, 1e-300], [1e-300, 0.0]], "explicit-matrix")
    decomp = approximate(ScalarFunction(space, [0.0, 1.0]), 0.1)
    prefix = SequencePrefix(space, (0, 1))
    sched = ToleranceSchedule(((0.5, 0),))
    report = proof_bounds_report(decomp, prefix, sched)
    assert report.delta == 1e-300
    assert report.h_bound_ok and report.all_ok
    assert report.h_margin == math.inf
    assert report.violations == ()


def test_bounds_report_when_delta_squared_overflows():
    # delta^2 = 1e400 passes float64's largest value: the cap on the one
    # step is 10 (d / delta) / delta = 1e-199, not 0 and no OverflowError;
    # h moves by 10, so the step is a violation
    space = build_space([[0.0, 1e200], [1e200, 0.0]], "explicit-matrix")
    decomp = approximate(ScalarFunction(space, [0.0, 1.0]), 0.1)
    prefix = SequencePrefix(space, (0, 1))
    sched = ToleranceSchedule(((1e201, 0),))
    report = proof_bounds_report(decomp, prefix, sched)
    assert report.delta == 1e200
    assert report.g_bound_ok and not report.h_bound_ok
    assert report.violations == (("h", 0, 10.0, 1e-199),)

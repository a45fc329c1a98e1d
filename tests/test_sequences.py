"""Tolerance schedules, the three sequence tests, splice, and extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainscope import (
    SequencePrefix,
    ToleranceSchedule,
    bourbaki_qc_test,
    build_space,
    cauchy_test,
    extract_bqc_subsequence,
    make_fixture,
    pseudo_cauchy_test,
    quasi_cauchy_test,
    shift_schedule,
    splice_to_quasi_cauchy,
)
from chainscope.errors import (
    BadSchedule,
    Exhausted,
    IndexOutOfRange,
    MalformedInput,
    NoChainAtScale,
    NonPositiveEpsilon,
    ShortPrefix,
)
from chainscope.sequences import DEFAULT_STAGES


def line_space(values):
    return build_space(np.asarray(values, dtype=float), "euclidean(1)")


def identity_prefix(space):
    return SequencePrefix(space, tuple(range(space.n)))


# -- brute-force re-statements of the three verdicts ----------------------


def brute_qc(prefix, schedule):
    gaps = prefix.gaps()
    last = len(prefix) - 1
    for j, (eps, n0) in enumerate(schedule.stages):
        if n0 >= last:
            continue
        for k in range(n0, last):
            if gaps[k] >= eps:
                return ("falsified", j, k)
    return ("consistent",)


def brute_cauchy(prefix, schedule):
    n = len(prefix)
    for j, (eps, n0) in enumerate(schedule.stages):
        if n0 >= n - 1:
            continue
        for a in range(n0, n):
            for b in range(a + 1, n):
                d = prefix.space.distance(
                    prefix.indices[a], prefix.indices[b]
                )
                if d >= eps:
                    return ("falsified", j, a, b)
    return ("consistent",)


def brute_pseudo(prefix, schedule):
    n = len(prefix)
    for j, (eps, n0) in enumerate(schedule.stages):
        if n0 >= n - 1:
            continue
        found = False
        for a in range(n0, n):
            for b in range(a + 1, n):
                d = prefix.space.distance(
                    prefix.indices[a], prefix.indices[b]
                )
                if d < eps:
                    found = True
        if not found:
            return ("falsified", j)
    return ("consistent",)


# -- schedule construction -------------------------------------------------


def test_schedule_monotonicity_enforced():
    ToleranceSchedule(((0.5, 0), (0.1, 3)))
    with pytest.raises(BadSchedule):
        ToleranceSchedule(((0.5, 0), (0.5, 3)))
    with pytest.raises(BadSchedule):
        ToleranceSchedule(((0.5, 3), (0.1, 3)))
    with pytest.raises(NonPositiveEpsilon):
        ToleranceSchedule(((0.0, 0),))
    with pytest.raises(BadSchedule):
        ToleranceSchedule(())
    with pytest.raises(BadSchedule):
        ToleranceSchedule(((0.5, -1),))


def test_schedule_check_against_prefix():
    space = line_space([0, 1, 2])
    prefix = identity_prefix(space)
    sched = ToleranceSchedule(((0.5, 0),))
    sched.check_against(prefix)
    with pytest.raises(ShortPrefix):
        sched.check_against(SequencePrefix(space, (0,)))
    late = ToleranceSchedule(((0.5, 2),))
    with pytest.raises(BadSchedule):
        late.check_against(prefix)


def test_schedule_default_ladder():
    fx = make_fixture("grid-interval", count=30)
    sched = ToleranceSchedule.default(fx.space, 30)
    eps = [e for e, _ in sched.stages]
    starts = [n for _, n in sched.stages]
    assert eps[0] == pytest.approx(fx.space.diameter())
    for a, b in zip(eps, eps[1:]):
        assert b == pytest.approx(a / 2)
    assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert sched.finest_eps == eps[-1]
    assert sched.first_start == 0


def test_schedule_default_on_short_prefixes():
    space = make_fixture("grid-interval", count=30).space
    for length in range(2, 10):
        sched = ToleranceSchedule.default(space, length)
        starts = [n for _, n in sched.stages]
        assert starts[0] == 0
        assert len(starts) <= DEFAULT_STAGES
        assert starts[-1] <= length - 2
    assert len(ToleranceSchedule.default(space, 30).stages) == DEFAULT_STAGES
    with pytest.raises(BadSchedule, match=r"prefix of length >= 2, got 1$"):
        ToleranceSchedule.default(space, 1)


def test_schedule_binding_picks_tightest_active_stage():
    sched = ToleranceSchedule(((1.0, 0), (0.5, 4), (0.25, 8)))
    assert sched.binding(0) == (0, 1.0)
    assert sched.binding(5) == (1, 0.5)
    assert sched.binding(11) == (2, 0.25)


# -- quasi-Cauchy ----------------------------------------------------------


def test_qc_harmonic_consistent():
    fx = make_fixture("harmonic-sums", n=500)
    sched = ToleranceSchedule(((0.1, 10), (0.01, 100)))
    assert quasi_cauchy_test(fx.prefix, sched).consistent


def test_qc_integers_falsified_at_first_gap():
    space = line_space(range(1, 101))
    verdict = quasi_cauchy_test(
        identity_prefix(space), ToleranceSchedule(((0.5, 1),))
    )
    assert not verdict.consistent
    w = verdict.witness
    assert (w.stage, w.index, w.partner) == (0, 1, 2)
    assert w.gap == pytest.approx(1.0)


def test_qc_constant_prefix_consistent():
    space = line_space([0, 1])
    prefix = SequencePrefix(space, (0, 0, 0, 0))
    sched = ToleranceSchedule(((1e-9, 0),))
    assert quasi_cauchy_test(prefix, sched).consistent


# -- Cauchy ----------------------------------------------------------------


def test_cauchy_harmonic_falsified():
    fx = make_fixture("harmonic-sums", n=500)
    verdict = cauchy_test(fx.prefix, ToleranceSchedule(((0.5, 10),)))
    assert not verdict.consistent
    # H_500 - H_10 far exceeds the stage tolerance
    w = verdict.witness
    assert w.gap >= 0.5


def test_cauchy_reciprocal_tail():
    vals = [1.0 / n for n in range(1, 1001)]
    space = build_space(np.asarray(vals), "euclidean(1)")
    verdict = cauchy_test(
        identity_prefix(space), ToleranceSchedule(((0.1, 20),))
    )
    assert verdict.consistent


def test_cauchy_constant_consistent():
    space = line_space([0, 5])
    prefix = SequencePrefix(space, (1, 1, 1))
    assert cauchy_test(prefix, ToleranceSchedule(((1e-12, 0),))).consistent


# -- pseudo-Cauchy ---------------------------------------------------------


def test_pseudo_interleaved_pairs_consistent():
    # pairs (x_n, y_n) at distance 1/n; every tail keeps a close pair
    xs = np.cumsum(np.ones(40) * 10.0)
    pts = np.empty(80)
    pts[0::2] = xs
    pts[1::2] = xs + 1.0 / np.arange(1, 41)
    space = build_space(pts, "euclidean(1)")
    verdict = pseudo_cauchy_test(
        identity_prefix(space), ToleranceSchedule(((0.1, 20),))
    )
    assert verdict.consistent


def test_pseudo_integers_falsified():
    space = line_space(range(1, 30))
    verdict = pseudo_cauchy_test(
        identity_prefix(space), ToleranceSchedule(((0.5, 1),))
    )
    assert not verdict.consistent
    assert verdict.witness.gap >= 0.5


def test_pseudo_repeated_tail_point_consistent():
    space = line_space(range(1, 30))
    prefix = SequencePrefix(space, tuple(range(10)) + (9, 9))
    verdict = pseudo_cauchy_test(prefix, ToleranceSchedule(((1e-12, 0),)))
    assert verdict.consistent


# -- oracle agreement and the implication ladder ---------------------------


def random_trial(rng):
    n = int(rng.integers(3, 10))
    space = build_space(rng.uniform(0, 4, size=(n, 2)), "euclidean(2)")
    length = int(rng.integers(2, 9))
    prefix = SequencePrefix(
        space, tuple(int(rng.integers(0, n)) for _ in range(length))
    )
    diam = space.diameter()
    stages = [(diam * float(rng.uniform(0.3, 1.2)) + 1e-9, 0)]
    if length > 3 and rng.random() < 0.7:
        eps2 = stages[0][0] * float(rng.uniform(0.1, 0.9))
        stages.append((eps2, int(rng.integers(1, length - 1))))
    return prefix, ToleranceSchedule(tuple(stages))


def test_verdicts_match_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        prefix, sched = random_trial(rng)

        got = quasi_cauchy_test(prefix, sched)
        want = brute_qc(prefix, sched)
        assert got.consistent == (want[0] == "consistent")
        if not got.consistent:
            assert (got.witness.stage, got.witness.index) == want[1:]

        got = cauchy_test(prefix, sched)
        want = brute_cauchy(prefix, sched)
        assert got.consistent == (want[0] == "consistent")
        if not got.consistent:
            assert (
                got.witness.stage,
                got.witness.index,
                got.witness.partner,
            ) == want[1:]

        got = pseudo_cauchy_test(prefix, sched)
        want = brute_pseudo(prefix, sched)
        assert got.consistent == (want[0] == "consistent")
        if not got.consistent:
            assert got.witness.stage == want[1]


def test_implication_ladder():
    rng = np.random.default_rng(77)
    for _ in range(60):
        prefix, sched = random_trial(rng)
        if cauchy_test(prefix, sched).consistent:
            assert quasi_cauchy_test(prefix, sched).consistent
        if quasi_cauchy_test(prefix, sched).consistent:
            assert pseudo_cauchy_test(prefix, sched).consistent


# -- Bourbaki tail component ----------------------------------------------


def test_bqc_rays_single_component():
    fx = make_fixture("scaled-unit-vectors", n=4, r_step=0.05)
    result = bourbaki_qc_test(fx.prefix, fx.space, 0.07)
    assert result.consistent
    assert result.n0 == 0


def test_bqc_integers_falsified():
    space = line_space(range(1, 40))
    result = bourbaki_qc_test(identity_prefix(space), space, 0.5)
    assert not result.consistent


def test_bqc_integers_inside_fine_grid():
    fx = make_fixture("grid-interval", a=1.0, b=50.0, count=491)
    ints = tuple(k * 10 for k in range(50))
    prefix = SequencePrefix(fx.space, ints)
    result = bourbaki_qc_test(prefix, fx.space, 0.2)
    assert result.consistent
    assert result.n0 == 0
    assert result.center == 0


def test_bqc_center_is_component_floor():
    space = line_space([0.0, 0.1, 0.2, 9.0, 9.1])
    prefix = SequencePrefix(space, (0, 4, 3, 4))
    result = bourbaki_qc_test(prefix, space, 0.15)
    assert result.consistent
    assert result.n0 == 1  # position 0 sits in the other component
    assert result.center == 3


# -- splice ----------------------------------------------------------------


def test_splice_walks_the_grid():
    fx = make_fixture("grid-interval", a=0.0, b=2.0, count=21)
    prefix = SequencePrefix(fx.space, (10, 20))
    sched = ToleranceSchedule(((0.15, 0),))
    out, embedding = splice_to_quasi_cauchy(prefix, fx.space, sched)
    assert out.indices == tuple(range(10, 21))
    assert embedding == (0, 10)
    shifted = shift_schedule(sched, embedding)
    assert quasi_cauchy_test(out, shifted).consistent


def test_splice_identity_when_already_fine():
    fx = make_fixture("grid-interval", count=11)
    prefix = SequencePrefix(fx.space, (0, 1, 2))
    sched = ToleranceSchedule(((0.5, 0),))
    out, embedding = splice_to_quasi_cauchy(prefix, fx.space, sched)
    assert out.indices == prefix.indices
    assert embedding == (0, 1, 2)


def test_splice_two_components_fails():
    space = line_space([0.0, 0.1, 9.0])
    prefix = SequencePrefix(space, (0, 2))
    sched = ToleranceSchedule(((0.5, 0),))
    with pytest.raises(NoChainAtScale) as err:
        splice_to_quasi_cauchy(prefix, space, sched)
    assert err.value.stage == 0
    assert err.value.pair == (0, 2)


def test_splice_preserves_original_points():
    rng = np.random.default_rng(55)
    fx = make_fixture("grid-interval", count=50)
    for _ in range(10):
        picks = tuple(int(v) for v in rng.integers(0, 50, size=6))
        prefix = SequencePrefix(fx.space, picks)
        sched = ToleranceSchedule(((0.05, 0),))
        out, emb = splice_to_quasi_cauchy(prefix, fx.space, sched)
        assert all(b > a for a, b in zip(emb, emb[1:]))
        for pos, where in enumerate(emb):
            assert out.indices[where] == picks[pos]
        assert quasi_cauchy_test(out, shift_schedule(sched, emb)).consistent


# -- extraction ------------------------------------------------------------


def two_cluster_setup():
    a = np.linspace(0.0, 0.95, 20)
    b = 100.0 + np.linspace(0.0, 0.95, 20)
    space = build_space(np.concatenate([a, b]), "euclidean(1)")
    order = []
    for k in range(20):
        order.append(k)        # cluster A
        order.append(20 + k)   # cluster B
    return space, SequencePrefix(space, tuple(order))


def test_extract_majority_keeps_first_cluster():
    space, prefix = two_cluster_setup()
    sched = ToleranceSchedule(((0.2, 0), (0.1, 2), (0.06, 4)))
    result = extract_bqc_subsequence(prefix, space, sched, rule="majority")
    assert len(result.positions) == 3
    for pos in result.positions:
        assert prefix.indices[pos] < 20  # tie broken toward cluster A
    for record in result.stages:
        assert record.census == 20
        assert record.component_floor == 0


def test_extract_first_rule_follows_lead_survivor():
    space, prefix = two_cluster_setup()
    sched = ToleranceSchedule(((0.2, 0), (0.1, 2)))
    result = extract_bqc_subsequence(prefix, space, sched, rule="first")
    for pos in result.positions:
        assert prefix.indices[pos] < 20


def test_extract_single_cluster_no_discards():
    fx = make_fixture("grid-interval", count=12)
    prefix = identity_prefix(fx.space)
    sched = ToleranceSchedule(((1.0, 0), (0.5, 3), (0.25, 6)))
    result = extract_bqc_subsequence(prefix, fx.space, sched)
    assert len(result.positions) == 3
    for record in result.stages:
        assert record.census == 12


def test_extract_exhausts_two_point_prefix():
    fx = make_fixture("grid-interval", count=5)
    prefix = SequencePrefix(fx.space, (0, 4))
    sched = ToleranceSchedule(((2.0, 0), (1.5, 1), (1.2, 2)))
    with pytest.raises(Exhausted) as err:
        extract_bqc_subsequence(prefix, fx.space, sched)
    assert err.value.stage == 2
    assert err.value.positions == (0, 1)


def test_extract_unknown_rule():
    fx = make_fixture("grid-interval", count=5)
    prefix = identity_prefix(fx.space)
    with pytest.raises(MalformedInput):
        extract_bqc_subsequence(
            prefix, fx.space, ToleranceSchedule(((1.0, 0),)), rule="vote"
        )


@pytest.mark.parametrize("call", [
    lambda prefix, space: bourbaki_qc_test(prefix, space, 0.3),
    lambda prefix, space: splice_to_quasi_cauchy(
        prefix, space, ToleranceSchedule(((0.3, 0),))),
    lambda prefix, space: extract_bqc_subsequence(
        prefix, space, ToleranceSchedule(((0.3, 0),))),
], ids=["bqc", "splice", "extract"])
def test_a_foreign_space_is_refused(call):
    # the prefix's own space has 5 points; the one passed beside it has 10
    prefix = identity_prefix(make_fixture("grid-interval", count=5).space)
    other = make_fixture("grid-interval", count=10).space
    with pytest.raises(MalformedInput):
        call(prefix, other)


# -- finite subsequence property -------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_qc_tail_lands_in_one_component(seed):
    # a schedule-consistent prefix keeps its stage tail inside a single
    # eps-chain component, so any subsequence retaining two or more tail
    # positions stays Bourbaki-consistent at that scale
    rng = np.random.default_rng(seed)
    fx = make_fixture("grid-interval", count=25)
    length = int(rng.integers(4, 10))
    start = int(rng.integers(0, 10))
    walk = [start]
    for _ in range(length - 1):
        step = int(rng.integers(-2, 3))
        walk.append(int(np.clip(walk[-1] + step, 0, 24)))
    prefix = SequencePrefix(fx.space, tuple(walk))
    eps = 2.5 / 24.0
    sched = ToleranceSchedule(((eps, 0),))
    if not quasi_cauchy_test(prefix, sched).consistent:
        return
    keep = sorted(
        set(
            int(v)
            for v in rng.integers(0, length, size=max(2, length // 2))
        )
    )
    if len(keep) < 2:
        return
    sub = prefix.select(keep)
    assert bourbaki_qc_test(sub, fx.space, eps).consistent


def test_prefix_select_and_subrange():
    space = line_space(range(10))
    prefix = SequencePrefix(space, (0, 2, 4, 6, 8))
    assert prefix.select([1, 3]).indices == (2, 6)
    assert prefix.subrange(1, 4).indices == (2, 4, 6)
    assert prefix.point(2) == 4
    gaps = prefix.gaps()
    assert list(gaps) == [2.0, 2.0, 2.0, 2.0]


@pytest.mark.parametrize("call", [
    lambda p: p.select([True, 0]),
    lambda p: p.select([0, 5]),
    lambda p: p.select([-1]),
    lambda p: p.point(1.5),
    lambda p: p.point(-1),
    lambda p: p.subrange(0, 6),
    lambda p: p.subrange(-2, 5),
])
def test_prefix_positions_outside_the_prefix_are_refused(call):
    prefix = SequencePrefix(line_space(range(10)), (0, 2, 4, 6, 8))
    with pytest.raises(IndexOutOfRange):
        call(prefix)


def test_empty_prefix_is_refused():
    with pytest.raises(MalformedInput, match="at least one position"):
        SequencePrefix(line_space(range(3)), ())

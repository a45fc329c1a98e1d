"""Tolerance schedules, the three sequence tests, splice, and extraction."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chainscope import (
    ChainGraph,
    ScalarFunction,
    SequencePrefix,
    ToleranceSchedule,
    approximate,
    bourbaki_qc_test,
    build_space,
    cauchy_test,
    extract_bqc_subsequence,
    make_fixture,
    proof_bounds_report,
    pseudo_cauchy_test,
    quasi_cauchy_test,
    random_space,
    seq_lipschitz_constant,
    shift_schedule,
    splice_to_quasi_cauchy,
)
from chainscope.chains import find_chain, is_chainable
from chainscope.errors import (
    BadSchedule,
    Exhausted,
    IndexOutOfRange,
    MalformedInput,
    NoChainAtScale,
    NonPositiveEpsilon,
    ShortPrefix,
)
from chainscope.harness import oracle_components
from chainscope import metric, sequences
from chainscope.sequences import DEFAULT_STAGES

from test_blocked_scans import ref_realized


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


def test_qc_gap_equal_to_eps_falsifies():
    # strict <: a gap of exactly eps breaks the stage
    space = line_space([0, 1, 2])
    verdict = quasi_cauchy_test(SequencePrefix(space, (0, 1, 2)),
                                ToleranceSchedule(((1.0, 0),)))
    assert verdict.status == "falsified"
    w = verdict.witness
    assert (w.stage, w.index, w.partner, w.gap) == (0, 0, 1, 1.0)


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


def test_pseudo_witness_is_the_first_closest_pair_across_blocks(monkeypatch):
    # one-row blocks: rows 0 and 2 both reach the least distance 3, and the
    # witness stays the first in scan order
    monkeypatch.setattr(metric, "_BLOCK_ELEMENTS", 1)
    space = line_space([0, 3, 10, 13])
    verdict = pseudo_cauchy_test(identity_prefix(space),
                                 ToleranceSchedule(((2.0, 0),)))
    assert verdict.status == "falsified"
    w = verdict.witness
    assert (w.index, w.partner, w.gap) == (0, 1, 3.0)


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


def test_shift_schedule_keeps_vacuous_stages_vacuous():
    # a start past the last original position moves by the whole
    # insertion: the stage stays vacuous, the starts still increase
    sched = ToleranceSchedule(((0.3, 0), (0.1, 2), (0.05, 10)))
    shifted = shift_schedule(sched, (0, 4, 7))
    assert shifted.stages == ((0.3, 0), (0.1, 7), (0.05, 15))
    fx = make_fixture("grid-interval", count=5)
    prefix = SequencePrefix(fx.space, (0, 4, 1))
    sched = ToleranceSchedule(((0.3, 0), (0.1, 10)))
    out, emb = splice_to_quasi_cauchy(prefix, fx.space, sched)
    assert (out.indices, emb) == ((0, 1, 2, 3, 4, 3, 2, 1), (0, 4, 7))
    shifted = shift_schedule(sched, emb)
    assert shifted.stages == ((0.3, 0), (0.1, 15))
    assert quasi_cauchy_test(out, shifted).consistent


def test_splice_reads_gaps_once_and_one_graph_per_stage(monkeypatch):
    # no per-pair distance call; one live graph per stage with a wide
    # gap, none for a stage whose gaps are all narrow
    fx = make_fixture("grid-interval", count=41)
    calls = []
    live = sequences._live_graph

    def count(space, eps):
        calls.append(eps)
        return live(space, eps)

    def refuse(*args):
        raise AssertionError("per-pair distance call")

    # spacing 0.025: gap 0 is wide for stage 0, stage 1's gaps are all
    # narrow, stage 2's last three are wide
    prefix = SequencePrefix(fx.space, (0, 20, 20, 21, 22, 23, 30, 34, 40))
    sched = ToleranceSchedule(((0.3, 0), (0.2, 2), (0.06, 5)))
    want = ref_splice(prefix, fx.space, sched)
    monkeypatch.setattr(sequences, "_live_graph", count)
    monkeypatch.setattr(type(fx.space), "distance", refuse)
    out, emb = splice_to_quasi_cauchy(prefix, fx.space, sched)
    assert calls == [0.3, 0.06]
    assert (out.indices, emb) == want
    assert emb[:6] == (0, 2, 3, 4, 5, 6)


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
    lambda prefix, space: proof_bounds_report(
        approximate(ScalarFunction(space, np.zeros(space.n)), 0.5), prefix,
        ToleranceSchedule(((0.3, 0),))),
    lambda prefix, space: seq_lipschitz_constant(
        ScalarFunction(space, np.arange(space.n)), prefix),
    lambda prefix, space: seq_lipschitz_constant(
        ScalarFunction(space, np.arange(space.n)), prefix, mode="all-pairs"),
], ids=["bqc", "splice", "extract", "bounds", "lipschitz", "lipschitz-all"])
def test_a_foreign_space_is_refused(call):
    # the prefix's own space has 5 points; the one passed beside it has 10,
    # and the other way round, where a prefix index is past the space
    small = make_fixture("grid-interval", count=5).space
    large = make_fixture("grid-interval", count=10).space
    with pytest.raises(MalformedInput):
        call(identity_prefix(small), large)
    with pytest.raises(MalformedInput):
        call(identity_prefix(large), small)


# -- label queries against the DFS oracle ---------------------------------


def oracle_labels(space):
    """Each point's component label, its smallest member, by plain DFS; one
    search per scale."""
    @functools.cache
    def labels(eps):
        return {x: c[0] for c in oracle_components(space, eps) for x in c}

    return labels


def oracle_bqc(prefix, labels, eps):
    roots = [labels(eps)[i] for i in prefix.indices]
    if len(roots) >= 2 and roots[-1] != roots[-2]:
        return "falsified", None, None
    n0 = 0
    for k, r in enumerate(roots):
        if r != roots[-1]:
            n0 = k + 1
    return "consistent", n0, roots[-1]


def oracle_extract(prefix, labels, schedule, rule):
    """(emitted positions, stage tuples, exhausted stage or None)."""
    survivors = list(range(len(prefix)))
    emitted = []
    records = []
    for j, (eps, _) in enumerate(schedule.stages):
        roots = [labels(eps)[prefix.indices[p]] for p in survivors]
        counts = {}
        for r in roots:
            counts[r] = counts.get(r, 0) + 1
        if rule == "first":
            win = roots[0]
        else:
            best = max(counts.values())
            win = min(r for r, c in counts.items() if c == best)
        survivors = [p for p, r in zip(survivors, roots) if r == win]
        records.append((j, eps, tuple(survivors), win, len(survivors)))
        floor = emitted[-1] if emitted else -1
        later = [p for p in survivors if p > floor]
        if not later:
            return tuple(emitted), records, j
        emitted.append(later[0])
    return tuple(emitted), records, None


@st.composite
def tied_spaces(draw):
    """Integer grids with duplicates, or repaired matrices, up to 64 points."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        # clusters at several scales: coordinate gaps of 1, 3 and 7
        coord = st.sampled_from([0, 1, 4, 5, 12])
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        return build_space(np.asarray(pts, dtype=float), "euclidean(2)")
    return random_space("repaired-matrix", n, seed=draw(st.integers(0, 999)),
                        density=draw(st.sampled_from([0.1, 0.3, 0.6])))


def scales(space):
    """Candidate scales: the grid's merge scales 1, 3 and 7, each at and
    above it (strictness), and the space's twelve least distances."""
    least = ref_realized(space)[:12].tolist()
    return sorted({0.5, 1.0, 1.5, 3.0, 3.5, 7.0, 7.5, *least}, reverse=True)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tied_spaces(), st.data())
def test_label_queries_match_the_dfs_oracle(space, data):
    ladder = scales(space)
    labels = oracle_labels(space)
    pick = st.integers(0, space.n - 1)
    prefix = SequencePrefix(space, tuple(data.draw(
        st.lists(pick, min_size=1, max_size=16))))
    eps = data.draw(st.sampled_from(ladder))
    result = bourbaki_qc_test(prefix, space, eps)
    assert (result.status, result.n0, result.center) == oracle_bqc(
        prefix, labels, eps)
    if result.consistent:
        assert type(result.n0) is int and type(result.center) is int
    assert is_chainable(space, eps) is (set(labels(eps).values()) == {0})
    if len(prefix) < 2:
        return
    stages = data.draw(st.integers(1, min(3, len(ladder), len(prefix) - 1)))
    tols = sorted(data.draw(st.sets(st.sampled_from(ladder), min_size=stages,
                                    max_size=stages)), reverse=True)
    starts = sorted(data.draw(st.sets(st.integers(0, len(prefix) - 2),
                                      min_size=stages, max_size=stages)))
    sched = ToleranceSchedule(tuple(zip(tols, starts)))
    for rule in ("majority", "first"):
        positions, records, stage = oracle_extract(prefix, labels, sched,
                                                   rule)
        if stage is None:
            result = extract_bqc_subsequence(prefix, space, sched, rule)
            got = result.positions, result.stages
        else:
            with pytest.raises(Exhausted) as err:
                extract_bqc_subsequence(prefix, space, sched, rule)
            assert err.value.stage == stage
            got = err.value.positions, err.value.components
        assert got[0] == positions
        assert [(r.stage, r.eps, r.survivors, r.component_floor, r.census)
                for r in got[1]] == records
        ints = [*got[0], *(v for r in got[1] for v in (
            r.component_floor, r.census, *r.survivors))]
        assert all(type(v) is int for v in ints)


def test_label_queries_build_no_chain_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("ChainGraph built")

    space, prefix = two_cluster_setup()
    monkeypatch.setattr(ChainGraph, "__init__", refuse)
    sched = ToleranceSchedule(((0.2, 0), (0.1, 2)))
    assert bourbaki_qc_test(prefix, space, 0.2).consistent is False
    assert extract_bqc_subsequence(prefix, space, sched).positions == (0, 2)
    assert not is_chainable(space, 0.2)
    with pytest.raises(AssertionError, match="ChainGraph built"):
        ChainGraph(space, 0.2)


# -- splice against a per-gap find_chain loop -----------------------------


def ref_splice(prefix, space, schedule):
    """The per-gap splice: one find_chain per wide gap in prefix order,
    raising NoChainAtScale at the first gap with no chain."""
    idx = prefix.indices
    graphs = {}
    out, embedding = [idx[0]], [0]
    for k in range(len(idx) - 1):
        a, b = idx[k], idx[k + 1]
        hit = None  # the last stage whose start is at or before k
        for j, (eps, start) in enumerate(schedule.stages):
            if start <= k:
                hit = (j, eps)
        if hit is None or space.distance(a, b) < hit[1]:
            out.append(b)
        else:
            stage, eps = hit
            if eps not in graphs:
                graphs[eps] = ChainGraph(space, eps)
            witness = find_chain(graphs[eps], a, b)
            if witness is None:
                raise NoChainAtScale(stage, (a, b), eps)
            out.extend(witness.indices[1:])
        embedding.append(len(out) - 1)
    return tuple(out), tuple(embedding)


def splice_outcome(splice, prefix, space, schedule):
    """(indices, embedding), or the NoChainAtScale payload."""
    try:
        out, embedding = splice(prefix, space, schedule)
    except NoChainAtScale as err:
        return err.stage, err.pair, err.eps
    if isinstance(out, SequencePrefix):
        out = out.indices
    assert all(type(v) is int for v in (*out, *embedding))
    return out, embedding


@st.composite
def splice_scenes(draw):
    """A tied space (integer grid in one or two dimensions with
    duplicates, or a repaired matrix), a prefix over it, and a schedule on
    its realized distances.  Up to 200 points and prefix positions."""
    kind = draw(st.sampled_from(["line", "grid", "matrix"]))
    many = st.one_of(st.integers(1, 20), st.integers(65, 200))
    n = draw(many if kind == "line" else st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "line":
        # unit steps with duplicates, and maybe breaks of 3
        steps = [0, 1, 1, 1, 3] if draw(st.booleans()) else [0, 1, 1, 1]
        xs = np.cumsum(rng.choice(steps, n))
        space = build_space(xs[:, None].astype(float), "euclidean(1)")
    elif kind == "grid":
        pts = rng.integers(0, draw(st.integers(1, 10)), (n, 2))
        space = build_space(pts.astype(float), "euclidean(2)")
    else:
        space = random_space("repaired-matrix", n,
                             seed=int(rng.integers(1000)),
                             density=draw(st.sampled_from([0.1, 0.3, 0.6])))
    length = draw(st.one_of(st.integers(2, 20), st.integers(65, 200)))
    prefix = SequencePrefix(space, tuple(
        rng.integers(0, space.n, length).tolist()))
    ladder = sorted({1.5, 2.5, 3.5, *ref_realized(space)[:6].tolist()}
                    - {0.0}, reverse=True)
    stages = draw(st.integers(1, min(3, len(ladder))))
    tols = sorted(draw(st.sets(st.sampled_from(ladder), min_size=stages,
                               max_size=stages)), reverse=True)
    # the first stage needs a pair of positions; later stages may start
    # past the prefix, where they are vacuous
    first = draw(st.integers(0, length - 2))
    starts = [first, *sorted(draw(st.sets(st.integers(first + 1, length + 5),
                                          min_size=stages - 1,
                                          max_size=stages - 1)))]
    return prefix, space, ToleranceSchedule(tuple(zip(tols, starts)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(splice_scenes(), st.booleans())
def test_splice_matches_per_gap_find_chain(scene, hold):
    # with graphs held at the schedule's scales (lists filled) the splice
    # searches those live graphs; the reference builds graphs of its own
    prefix, space, schedule = scene
    held = [ChainGraph(space, eps) for eps, _ in schedule.stages] if hold \
        else []
    for graph in held:
        graph.neighbors(0)
    got = splice_outcome(splice_to_quasi_cauchy, prefix, space, schedule)
    assert got == splice_outcome(ref_splice, prefix, space, schedule)
    if len(got) == 2:  # spliced, not a (stage, pair, eps) payload
        out = SequencePrefix(space, got[0])
        shifted = shift_schedule(schedule, got[1])
        assert quasi_cauchy_test(out, shifted).consistent


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

"""Moduli of continuity: global, scale-restricted, sequence, and family."""

import math
import warnings

import numpy as np
import pytest

from chainscope import (
    ScalarFunction,
    SequencePrefix,
    SparseVector,
    ToleranceSchedule,
    build_space,
    equi_chain_continuity_check,
    lipschitz_constant,
    lits_modulus,
    local_lipschitz_profile,
    lp_tail_criterion,
    make_fixture,
    quasi_cauchy_test,
    seq_lipschitz_constant,
    spike_function,
    ward_falsifier,
)
from chainscope.errors import (
    DegenerateSpace,
    EmptyFamily,
    MalformedInput,
    NonPositiveEpsilon,
    OverlappingBalls,
    ShortPrefix,
)


def brute_sup_ratio(space, values, limit=None):
    """Double-loop restatement of the pair-ratio supremum."""
    best, witness = 0.0, None
    for i in range(space.n - 1):
        for j in range(i + 1, space.n):
            d = space.distance(i, j)
            if limit is not None and d >= limit:
                continue
            df = abs(values[j] - values[i])
            if d == 0.0:
                if df > 0.0:
                    return math.inf, (i, j)
                continue
            r = df / d
            if witness is None or r > best:
                best, witness = r, (i, j)
    return best, witness


# -- global Lipschitz constant ---------------------------------------------


def test_indicator_on_naturals_plus():
    fx = make_fixture("naturals-plus", n=50)
    report = lipschitz_constant(fx.function)
    assert report.kind == "lipschitz"
    assert report.constant == pytest.approx(50.0, rel=1e-12)
    i, j = report.witness
    assert {fx.space.labels[i], fx.space.labels[j]} == {"n50", "p50"}


def test_linear_function_constant_two():
    fx = make_fixture("grid-interval", count=101)
    f = ScalarFunction(fx.space, 2.0 * np.linspace(0.0, 1.0, 101))
    assert lipschitz_constant(f).constant == 2.0


def test_zero_distance_clash_gives_inf():
    fx = make_fixture("slow-spike-grid", n=16, spikes=2)
    report = lipschitz_constant(fx.function)
    assert report.constant == math.inf
    i, j = report.witness
    assert fx.space.distance(i, j) == 0.0
    assert fx.function(i) != fx.function(j)


def test_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        space = build_space(rng.uniform(0, 3, size=(n, 2)), "euclidean(2)")
        f = ScalarFunction(space, rng.uniform(-1, 1, size=n))
        want, wit = brute_sup_ratio(space, f.values)
        got = lipschitz_constant(f)
        assert got.constant == want
        assert got.witness == wit


def test_single_point_degenerate():
    space = build_space([[0.0]], "euclidean(1)")
    f = ScalarFunction(space, [1.0])
    with pytest.raises(DegenerateSpace):
        lipschitz_constant(f)
    with pytest.raises(DegenerateSpace):
        lits_modulus(f, 0.5)


# -- scale-restricted modulus ----------------------------------------------


def test_lits_growth_with_size():
    vals = {}
    for n in (25, 50):
        fx = make_fixture("naturals-plus", n=n)
        report = lits_modulus(fx.function, 0.25)
        assert report.kind == "lits"
        assert report.scale == 0.25
        vals[n] = report.constant
        assert report.constant == pytest.approx(n, rel=1e-12)
    assert vals[25] < vals[50]


def test_lits_on_linear_function():
    fx = make_fixture("grid-interval", count=101)
    f = ScalarFunction(fx.space, 2.0 * np.linspace(0.0, 1.0, 101))
    assert lits_modulus(f, 0.25).constant == 2.0


def test_lits_isolated_pairs_vacuous():
    space = build_space([0.0, 10.0, 20.0], "euclidean(1)")
    f = ScalarFunction(space, [0.0, 5.0, -3.0])
    report = lits_modulus(f, 0.5)
    assert report.constant == 0.0
    assert report.witness is None


def test_lits_strict_at_delta():
    space = build_space([0.0, 0.5], "euclidean(1)")
    f = ScalarFunction(space, [0.0, 1.0])
    assert lits_modulus(f, 0.5).constant == 0.0  # d == delta excluded
    assert lits_modulus(f, 0.5001).constant == pytest.approx(2.0)


def test_lits_matches_brute_force():
    rng = np.random.default_rng(32)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        space = build_space(rng.uniform(0, 3, size=(n, 2)), "euclidean(2)")
        f = ScalarFunction(space, rng.uniform(-1, 1, size=n))
        delta = float(rng.uniform(0.2, 2.0))
        want, wit = brute_sup_ratio(space, f.values, limit=delta)
        got = lits_modulus(f, delta)
        assert got.constant == want
        assert got.witness == wit


# -- sequence moduli --------------------------------------------------------


def test_consecutive_modulus_on_harmonic_prefix():
    n = 400
    fx = make_fixture("harmonic-sums", n=n)
    report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
    assert report.kind == "qc-seq"
    want = n / (math.sqrt(n) + math.sqrt(n - 1))
    assert report.constant == pytest.approx(want, rel=1e-12)
    assert report.witness == (n - 2, n - 1)


def test_consecutive_modulus_constant_function():
    fx = make_fixture("grid-interval", count=20)
    f = ScalarFunction(fx.space, np.full(20, 3.0))
    report = seq_lipschitz_constant(f, SequencePrefix(fx.space, tuple(range(20))))
    assert report.constant == 0.0
    assert report.witness is not None  # pairs exist, all ratios vanish


def test_consecutive_modulus_stationary_prefix():
    fx = make_fixture("grid-interval", count=20)
    f = ScalarFunction(fx.space, np.linspace(0, 1, 20))
    prefix = SequencePrefix(fx.space, (7, 7, 7))
    report = seq_lipschitz_constant(f, prefix)
    assert report.constant == 0.0
    assert report.witness is None


def test_all_pairs_even_subsequence_flat():
    fx = make_fixture("sqrt-space", n=100)
    evens = tuple(k for k in range(100) if (k + 1) % 2 == 0)
    report = seq_lipschitz_constant(
        fx.function, SequencePrefix(fx.space, evens), "all-pairs"
    )
    assert report.kind == "cauchy-seq"
    assert report.constant == 0.0


def test_consecutive_interleaved_parity_growth():
    vals = {}
    for n in (50, 100):
        fx = make_fixture("sqrt-space", n=n)
        report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
        want = math.sqrt(n) + math.sqrt(n - 1)
        assert report.constant == pytest.approx(want, rel=1e-12)
        vals[n] = report.constant
    assert vals[50] < vals[100]


def test_sequence_modulus_zero_distance_clash():
    fx = make_fixture("slow-spike-grid", n=16, spikes=1)
    dup = fx.space.index_of("dup0")
    base = fx.space.index_of("b0")
    prefix = SequencePrefix(fx.space, (base, dup, base + 1))
    report = seq_lipschitz_constant(fx.function, prefix)
    assert report.constant == math.inf
    assert report.witness == (0, 1)


def test_sequence_modulus_guards():
    fx = make_fixture("grid-interval", count=5)
    f = ScalarFunction(fx.space, np.zeros(5))
    with pytest.raises(ShortPrefix):
        seq_lipschitz_constant(f, SequencePrefix(fx.space, (0,)))
    with pytest.raises(MalformedInput):
        seq_lipschitz_constant(
            f, SequencePrefix(fx.space, (0, 1)), mode="pairs"
        )


def test_all_pairs_dominates_consecutive():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        space = build_space(rng.uniform(0, 3, size=(n, 2)), "euclidean(2)")
        f = ScalarFunction(space, rng.uniform(-1, 1, size=n))
        length = int(rng.integers(2, 8))
        prefix = SequencePrefix(
            space, tuple(int(rng.integers(0, n)) for _ in range(length))
        )
        cons = seq_lipschitz_constant(f, prefix, "consecutive").constant
        allp = seq_lipschitz_constant(f, prefix, "all-pairs").constant
        assert allp >= cons


# -- local profile ----------------------------------------------------------


def test_profile_on_naturals_plus():
    fx = make_fixture("naturals-plus", n=50)
    profile = local_lipschitz_profile(fx.function, 0.5)
    assert profile.max() == pytest.approx(50.0, rel=1e-12)
    for m in (3, 17, 50):
        x = fx.space.index_of(f"n{m}")
        assert profile[x] == pytest.approx(m, rel=1e-12)
    # scale 1/2 isolates the small-m points entirely
    assert profile[fx.space.index_of("n1")] == 0.0
    assert profile[fx.space.index_of("n2")] == 0.0


def test_profile_constant_function_zero():
    fx = make_fixture("grid-interval", count=30)
    f = ScalarFunction(fx.space, np.full(30, 2.5))
    assert (local_lipschitz_profile(f, 0.2) == 0.0).all()


def test_profile_towers_blowup():
    fx = make_fixture(
        "scaled-unit-vectors", variant="towers", n=12, k=12, scale="linear"
    )
    profile = local_lipschitz_profile(fx.function, 0.5)
    want = float(12**13 - 144)
    assert profile.max() == pytest.approx(want, rel=1e-9)
    assert profile.max() >= 1e12


def test_profile_inf_at_duplicated_points():
    fx = make_fixture("slow-spike-grid", n=16, spikes=2)
    profile = local_lipschitz_profile(fx.function, 0.05)
    dup = fx.space.index_of("dup0")
    twin = fx.space.index_of("b0")
    assert profile[dup] == math.inf
    assert profile[twin] == math.inf
    far = fx.space.index_of("b8")
    assert math.isfinite(profile[far])


def test_profile_bounded_by_global_constant():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        space = build_space(rng.uniform(0, 3, size=(n, 2)), "euclidean(2)")
        f = ScalarFunction(space, rng.uniform(-1, 1, size=n))
        glob = lipschitz_constant(f).constant
        profile = local_lipschitz_profile(f, float(rng.uniform(0.3, 3.0)))
        assert (profile <= glob + 1e-12).all()


# -- gap transport search ----------------------------------------------------


def test_ward_search_finds_harmonic_witness():
    fx = make_fixture("harmonic-sums", n=400)
    sched = ToleranceSchedule.default(fx.space, len(fx.prefix))
    result = ward_falsifier(fx.function, fx.space, 0.02, sched)
    assert result.found
    assert result.image_gap >= 0.02
    assert quasi_cauchy_test(result.prefix, sched).consistent
    a, b = result.pair
    assert fx.space.distance(a, b) < sched.finest_eps
    assert result.evaluations == 1  # tightest pair already carries the gap


def test_ward_search_identity_exhausts():
    fx = make_fixture("grid-interval", count=101)
    f = ScalarFunction(fx.space, np.linspace(0.0, 1.0, 101))
    sched = ToleranceSchedule(((0.5, 0), (0.1, 5)))
    result = ward_falsifier(f, fx.space, 0.1, sched, budget=2000)
    # every candidate pair sits below the finest scale, so its image gap
    # under the identity is below eps_img by construction
    assert not result.found
    assert result.status == "exhausted"
    assert result.evaluations < result.budget


def test_ward_search_indicator_witness_labels():
    fx = make_fixture("naturals-plus", n=50)
    sched = ToleranceSchedule(((0.5, 0),))
    result = ward_falsifier(fx.function, fx.space, 0.5, sched)
    assert result.found
    a, b = result.pair
    labels = {fx.space.labels[a], fx.space.labels[b]}
    assert labels == {"n50", "p50"}  # the closest integer/offset pair
    assert result.image_gap == 1.0


def test_ward_search_budget_cap():
    fx = make_fixture("sqrt-space", n=60)
    sched = ToleranceSchedule(((0.5, 0),))
    result = ward_falsifier(fx.function, fx.space, 1.5, sched, budget=5)
    assert result.status == "exhausted"
    assert result.evaluations == 5


def test_ward_search_rejects_bad_budget():
    fx = make_fixture("grid-interval", count=5)
    f = ScalarFunction(fx.space, np.zeros(5))
    sched = ToleranceSchedule(((0.5, 0),))
    with pytest.raises(MalformedInput):
        ward_falsifier(f, fx.space, 0.1, sched, budget=0)
    with pytest.raises(NonPositiveEpsilon):
        ward_falsifier(f, fx.space, 0.0, sched)


def test_ward_search_rejects_a_foreign_space():
    space = make_fixture("grid-interval", count=5).space
    f = ScalarFunction(space, np.zeros(5))
    other = make_fixture("grid-interval", count=10).space
    with pytest.raises(MalformedInput):
        ward_falsifier(f, other, 0.1, ToleranceSchedule(((0.5, 0),)))


# a slope past float64 (1e10 over 1e-300) and a value gap past it
# (1.7e308 - -1.7e308), each on a single pair at distance d
OVERFLOWS = [
    pytest.param([[0.0, 1e-300], [1e-300, 0.0]], "explicit-matrix",
                 [0.0, 1e10], 1e-300, id="slope"),
    pytest.param([0.0, 1.0], "euclidean(1)", [1.7e308, -1.7e308], 1.0,
                 id="gap"),
]


@pytest.mark.parametrize("data,spec,values,d", OVERFLOWS)
def test_moduli_past_float64_are_inf_without_warning(data, spec, values, d):
    space = build_space(data, spec)
    f = ScalarFunction(space, values)
    prefix = SequencePrefix(space, (0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [
            lipschitz_constant(f),
            lits_modulus(f, 2 * d),
            seq_lipschitz_constant(f, prefix, "consecutive"),
            seq_lipschitz_constant(f, prefix, "all-pairs"),
        ]
        profile = local_lipschitz_profile(f, 2 * d)
        ward = ward_falsifier(f, space, 1.0, ToleranceSchedule(((2 * d, 0),)))
        loose = equi_chain_continuity_check([f], 1.0)
        tight = equi_chain_continuity_check([f], 1.0, delta=2 * d)
    for report in reports:
        assert report.constant == math.inf
        assert report.witness == (0, 1)
    assert profile.tolist() == [math.inf, math.inf]
    assert ward.pair == (0, 1)
    assert loose.passed and loose.uniform_delta == d
    gap = abs(values[1] - values[0])
    assert not tight.passed and tight.witness[2:] == (1, gap)


# -- family checks ------------------------------------------------------------


def dilation_family(count=6):
    space = make_fixture("grid-interval", count=101).space
    data = np.linspace(0.0, 1.0, 101)
    return space, [
        ScalarFunction(space, (t / (count - 1)) * data, name=f"t{t}")
        for t in range(count)
    ]


def test_equi_chain_delegates_to_flat_member():
    _, family = dilation_family()
    report = equi_chain_continuity_check(family, 0.25, chain=True)
    assert report.passed
    assert report.mode == "chain"
    # consecutive sup gaps are 0.2, one chain component, flattest member wins
    assert set(report.certificates.values()) == {0}
    assert report.uniform_delta == math.inf


def test_equi_chain_delegates_to_a_later_member():
    # steepest first: the delegation loop must move the certificate past
    # member 0 to the first member of largest violation distance, slope 0.2
    # (members 4 and 5 never vary by 0.25 on [0, 1], so both have +inf)
    _, family = dilation_family()
    family = family[::-1]
    report = equi_chain_continuity_check(family, 0.25, chain=True)
    assert report.passed
    assert set(report.certificates.values()) == {4}
    assert report.uniform_delta == math.inf


def test_plain_mode_fails_at_fixed_scale():
    _, family = dilation_family()
    report = equi_chain_continuity_check(
        family, 0.25, chain=False, delta=0.3
    )
    assert not report.passed
    assert report.mode == "plain"
    assert report.uniform_delta == pytest.approx(0.25)
    x, fi, partner, osc = report.witness
    assert osc >= 0.25
    assert abs(family[fi].values[partner] - family[fi].values[x]) == osc


def test_plain_mode_loose_scale_passes():
    _, family = dilation_family()
    report = equi_chain_continuity_check(
        family, 0.25, chain=False, delta=0.2
    )
    assert report.passed
    assert all(report.certificates[k] == k for k in range(len(family)))


def test_singleton_constant_family():
    space = make_fixture("grid-interval", count=11).space
    family = [ScalarFunction(space, np.full(11, 4.0))]
    report = equi_chain_continuity_check(family, 0.1, chain=False)
    assert report.passed
    assert report.uniform_delta == math.inf


def test_family_guards():
    with pytest.raises(EmptyFamily):
        equi_chain_continuity_check([], 0.1)
    a = make_fixture("grid-interval", count=5).space
    b = make_fixture("grid-interval", count=5).space
    family = [
        ScalarFunction(a, np.zeros(5)),
        ScalarFunction(b, np.zeros(5)),
    ]
    with pytest.raises(MalformedInput):
        equi_chain_continuity_check(family, 0.1)


def test_lp_tail_chain_through_origin():
    family = [SparseVector({})]
    for axis in range(1, 11):
        for t in (0.25, 0.5, 0.75, 1.0):
            family.append(SparseVector({axis: t}))
    report = lp_tail_criterion(family, 2.0, 0.5, 1)
    assert report.passed
    assert report.failures == ()
    assert set(report.certificates) == set(range(len(family)))


def test_lp_tail_isolated_self_certificates():
    family = [SparseVector({1: float(k)}) for k in range(1, 6)]
    report = lp_tail_criterion(family, 2.0, 0.5, 1)
    assert report.passed
    assert report.certificates == {k: k for k in range(5)}


def test_lp_tail_unit_vectors_all_fail():
    family = [SparseVector.unit(k, 1.0) for k in range(1, 11)]
    report = lp_tail_criterion(family, 2.0, 0.5, 0)
    assert not report.passed
    assert report.failures == tuple(range(10))
    assert report.certificates == {}


def test_lp_tail_reads_dict_members_as_sparse_vectors():
    # the space builder takes plain entries, and so must the tail step
    want = lp_tail_criterion([SparseVector({0: 1.0}), SparseVector({1: 2.0})],
                             2, 0.5, 0)
    got = lp_tail_criterion([{0: 1.0}, {1: 2.0}], 2, 0.5, 0)
    assert got == want
    assert (got.passed, got.certificates, got.failures) == (False, {0: 0}, (1,))


def test_lp_tail_guards():
    with pytest.raises(EmptyFamily):
        lp_tail_criterion([], 2.0, 0.5, 0)
    family = [SparseVector.unit(1, 1.0)]
    with pytest.raises(MalformedInput):
        lp_tail_criterion(family, 0.5, 0.5, 0)
    with pytest.raises(MalformedInput):
        lp_tail_criterion(family, 2.0, 0.5, -1)


# -- spike construction --------------------------------------------------------


def test_spike_matches_closed_form_tent():
    fx = make_fixture("grid-interval", a=-2.0, b=2.0, count=41)
    center = fx.space.index_of("g20")
    f = spike_function(fx.space, [center], [1.0], [1.0])
    xs = np.linspace(-2.0, 2.0, 41)
    for i, x in enumerate(xs):
        assert f(i) == pytest.approx(max(0.0, 1.0 - abs(x)), abs=1e-12)


def sqrt_spikes(n):
    fx = make_fixture("sqrt-space", n=n)
    gaps = np.diff(np.sqrt(np.arange(1, n + 1)))
    centers, radii, heights = [], [], []
    for i in range(1, n - 1, 2):
        r = 0.9 * min(gaps[i - 1], gaps[i])
        centers.append(i)
        radii.append(r)
        heights.append(float(i))
    return fx, spike_function(fx.space, centers, radii, heights), centers


def test_spike_heights_realized_at_centers():
    fx, f, centers = sqrt_spikes(40)
    for c in centers:
        assert f(c) == float(c)
    others = set(range(40)) - set(centers)
    for x in others:
        assert f(x) == 0.0


def test_spike_sequence_modulus_diverges():
    vals = {}
    for n in (24, 48):
        fx, f, _ = sqrt_spikes(n)
        report = seq_lipschitz_constant(f, fx.prefix, "consecutive")
        # worst step leaves the last spike, height n-3 over the gap
        # between consecutive roots
        want = (n - 3) * (math.sqrt(n - 1) + math.sqrt(n - 2))
        assert report.constant == pytest.approx(want, rel=1e-12)
        vals[n] = report.constant
    assert vals[24] < vals[48]


def test_spike_empty_is_zero():
    fx = make_fixture("grid-interval", count=9)
    f = spike_function(fx.space, [], [], [])
    assert (f.values == 0.0).all()


def test_spike_overlap_rejected():
    fx = make_fixture("grid-interval", count=21)  # spacing 0.05
    with pytest.raises(OverlappingBalls) as err:
        spike_function(fx.space, [10, 12], [0.3, 0.3], [1.0, 1.0])
    assert err.value.k1 == 0
    assert err.value.k2 == 1
    assert isinstance(err.value.witness, int)
    assert fx.space.distance(err.value.witness, 12) < 0.3


def test_spike_malformed_inputs():
    fx = make_fixture("grid-interval", count=9)
    with pytest.raises(MalformedInput):
        spike_function(fx.space, [1, 2], [0.1], [1.0, 1.0])
    with pytest.raises(MalformedInput):
        spike_function(fx.space, [1], [0.0], [1.0])


# -- strictness at each boundary ------------------------------------------------


def points_on_a_line(*xs):
    return build_space(np.asarray(xs, dtype=float)[:, None], "euclidean(1)")


def test_tail_mass_equal_to_eps_power_is_not_small():
    # p = 1 is a norm, and a tail of exactly eps^p is not below it
    for p, eps in [(1, 0.5), (2, 0.5)]:
        report = lp_tail_criterion([{1: 0.5}], p, eps, 0)
        assert not report.passed and report.failures == (0,)
    assert lp_tail_criterion([{1: 0.25}], 1, 0.5, 0).passed


def test_violation_at_distance_zero_fails_without_delta():
    # coincident points whose values differ by eps: no positive scale works
    space = points_on_a_line(0.0, 0.0, 3.0)
    f = ScalarFunction(space, [0.0, 1.0, 0.0])
    report = equi_chain_continuity_check([f], 1.0)
    assert report.uniform_delta == 0.0 and not report.passed


def test_violation_at_exactly_delta_passes_and_the_witness_ball_is_open():
    # the nearest violations lie exactly 1 away: the open 1-ball holds none
    space = points_on_a_line(0.0, 1.0, 2.0)
    f = ScalarFunction(space, [0.0, 0.6, 5.0])
    report = equi_chain_continuity_check([f], 0.5, delta=1.0)
    assert report.uniform_delta == 1.0 and report.passed
    # at delta 2 the check fails at point 0; point 2, exactly 2 away, lies
    # outside the open ball, so the witness is point 1
    report = equi_chain_continuity_check([f], 0.5, delta=2.0)
    assert not report.passed and report.witness == (0, 0, 1, 0.6)


def test_spike_balls_touching_at_one_point_do_not_overlap():
    # point 1 lies exactly on both balls' edges, so in neither open ball
    space = points_on_a_line(0.0, 1.0, 2.0)
    f = spike_function(space, [0, 2], [1.0, 1.0], [1.0, 1.0])
    assert f.values.tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(OverlappingBalls):
        spike_function(space, [0, 2], [1.5, 1.5], [1.0, 1.0])

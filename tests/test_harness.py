"""Random generators, brute-force oracles, and the implication suite."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import floyd_warshall

from chainscope import (
    ChainGraph,
    ScalarFunction,
    build_space,
    chainability_threshold,
    implication_suite,
    lipschitz_constant,
    make_fixture,
    oracle_chain_exists,
    oracle_components,
    random_space,
)
from chainscope import harness
from chainscope.cli import _implications
from chainscope.errors import BadSpec, NonPositiveEpsilon, TooLarge
from chainscope.harness import (
    _repaired_matrix,
    _shrink,
    _shrunk_trial,
    _still_fails,
    _Trial,
)
from chainscope.moduli import ModulusReport
from chainscope.sequences import (
    SequencePrefix,
    ToleranceSchedule,
    Verdict,
    Witness,
    splice_to_quasi_cauchy,
)

SUITE_CHECKS = (
    "status-ladder",
    "sequence-oracle",
    "moduli-order",
    "moduli-oracle",
    "component-structure",
    "splice-roundtrip",
)


def union_find_threshold(space):
    """Smallest scale whose closed graph connects, by increasing merges."""
    n = space.n
    if n == 1:
        return 0.0
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pairs = sorted(
        (space.distance(i, j), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    blocks = n
    for d, i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            blocks -= 1
            if blocks == 1:
                return d
    return math.inf


# -- random spaces -----------------------------------------------------------


def test_random_space_deterministic():
    a = random_space("euclidean-cloud", 12, seed=5, dim=3, scale=2.0)
    b = random_space("euclidean-cloud", 12, seed=5, dim=3, scale=2.0)
    assert np.array_equal(a.distance_matrix(), b.distance_matrix())
    c = random_space("euclidean-cloud", 12, seed=6, dim=3, scale=2.0)
    assert not np.array_equal(a.distance_matrix(), c.distance_matrix())


def test_random_space_cloud_shape():
    space = random_space("euclidean-cloud", 20, seed=1, dim=2, scale=3.0)
    assert space.n == 20
    assert space.diameter() <= 3.0 * math.sqrt(2) + 1e-9


def test_random_space_repaired_matrix_is_metric():
    space = random_space("repaired-matrix", 10, seed=4, density=0.4)
    mat = space.distance_matrix()
    assert np.array_equal(mat, mat.T)
    assert (np.diag(mat) == 0).all()
    off = mat[~np.eye(10, dtype=bool)]
    assert (off > 0).all() and np.isfinite(off).all()
    for i in range(10):
        for j in range(10):
            for k in range(10):
                assert mat[i, j] <= mat[i, k] + mat[k, j] + 1e-9


def test_random_space_rejects_bad_specs():
    with pytest.raises(BadSpec):
        random_space("euclidean-cloud", 0)
    with pytest.raises(BadSpec):
        random_space("klein-bottle", 5)
    with pytest.raises(BadSpec):
        random_space("euclidean-cloud", 5, dim=0)
    with pytest.raises(BadSpec):
        random_space("euclidean-cloud", 5, wobble=3)
    with pytest.raises(BadSpec):
        random_space("repaired-matrix", 5, density=1.5)
    # the seed rule of implication_suite: a nonnegative integer
    for seed in (-1, 1.5, "a", True):
        with pytest.raises(BadSpec):
            random_space("euclidean-cloud", 5, seed=seed)


# -- brute-force oracles -------------------------------------------------------


def test_oracle_components_trivial_scales():
    space = random_space("euclidean-cloud", 9, seed=8)
    tiny = space.min_positive_distance() * 0.5
    assert oracle_components(space, tiny) == [[x] for x in range(9)]
    huge = space.diameter() * 1.1
    assert oracle_components(space, huge) == [list(range(9))]


def test_oracle_components_guards():
    big = make_fixture("grid-interval", count=65).space
    with pytest.raises(TooLarge):
        oracle_components(big, 1.0)
    small = make_fixture("grid-interval", count=5).space
    with pytest.raises(NonPositiveEpsilon):
        oracle_components(small, 0.0)


def test_oracle_chain_exists_hop_counts():
    space = build_space([0.0, 1.0, 2.0, 3.0, 10.0], "euclidean(1)")
    assert oracle_chain_exists(space, 0, 0, 0.001, 0)
    assert oracle_chain_exists(space, 0, 1, 1.5, 1)
    assert not oracle_chain_exists(space, 0, 3, 1.5, 2)
    assert oracle_chain_exists(space, 0, 3, 1.5, 3)
    assert not oracle_chain_exists(space, 0, 4, 1.5, 4)


def test_oracle_chain_guards():
    space = build_space(np.arange(9, dtype=float), "euclidean(1)")
    with pytest.raises(TooLarge):
        oracle_chain_exists(space, 0, 1, 1.0, 2)
    small = build_space(np.arange(5, dtype=float), "euclidean(1)")
    with pytest.raises(TooLarge):
        oracle_chain_exists(small, 0, 1, 1.0, 5)
    with pytest.raises(NonPositiveEpsilon):
        oracle_chain_exists(small, 0, 1, -1.0, 2)


def test_threshold_matches_union_find():
    rng = np.random.default_rng(61)
    for trial in range(15):
        if trial % 2 == 0:
            space = random_space(
                "euclidean-cloud",
                int(rng.integers(2, 30)),
                seed=int(rng.integers(2**31)),
                dim=int(rng.integers(1, 4)),
            )
        else:
            space = random_space(
                "repaired-matrix",
                int(rng.integers(2, 20)),
                seed=int(rng.integers(2**31)),
                density=float(rng.uniform(0.2, 0.9)),
            )
        assert chainability_threshold(space) == union_find_threshold(space)


def scipy_repaired_matrix(n, density, rng):
    """The repaired-matrix draw closed by scipy's Floyd-Warshall."""
    raw = rng.uniform(0.5, 1.5, size=(n, n))
    keep = rng.random(size=(n, n)) < density
    mat = np.where(keep | keep.T, np.minimum(raw, raw.T), np.inf)
    np.fill_diagonal(mat, 0.0)
    closed = floyd_warshall(mat)
    finite = closed[np.isfinite(closed)]
    fill = float(finite.max()) + 1.0 if finite.size else 1.0
    closed[~np.isfinite(closed)] = fill
    return closed


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
@example(12, 0.0, 7)  # every pair gets the fill value
@example(1, 0.5, 0)
def test_closures_match_scipy_and_union_find(n, density, seed):
    got = _repaired_matrix(n, density, np.random.default_rng(seed))
    want = scipy_repaired_matrix(n, density, np.random.default_rng(seed))
    assert np.array_equal(got, want)
    matrix = random_space("repaired-matrix", n, seed=seed, density=density)
    assert chainability_threshold(matrix) == union_find_threshold(matrix)
    cloud = random_space("euclidean-cloud", n, seed=seed, dim=1 + seed % 3)
    assert chainability_threshold(cloud) == union_find_threshold(cloud)


def test_threshold_is_strict_boundary():
    space = random_space("euclidean-cloud", 15, seed=17)
    thr = chainability_threshold(space)
    assert thr > 0
    assert len(ChainGraph(space, thr).components()) >= 2
    assert len(ChainGraph(space, thr * (1 + 1e-9)).components()) == 1


def test_threshold_single_point():
    assert chainability_threshold(build_space([[3.0]], "euclidean(1)")) == 0.0


# -- implication suite -----------------------------------------------------------


def test_suite_shape_and_green_run():
    report = implication_suite(trials=10, seed=3)
    assert report.ok
    assert report.trials == 10
    assert report.seed == 3
    assert report.checked == SUITE_CHECKS
    assert report.failures == ()
    payload = _implications(report)
    assert payload["ok"] is True
    assert payload["checked"] == list(SUITE_CHECKS)


def test_suite_rejects_bad_inputs():
    with pytest.raises(BadSpec):
        implication_suite(trials=0)
    with pytest.raises(BadSpec):
        implication_suite(trials=2, overrides={"teleport": lambda: None})


def flipped_gap_test(prefix, schedule):
    """Deliberately broken: flags small steps instead of large ones."""
    schedule.check_against(prefix)
    gaps = prefix.gaps()
    last = len(prefix) - 1
    for j, (eps, n_j) in enumerate(schedule.stages):
        if n_j >= last:
            continue
        for k in range(n_j, last):
            if gaps[k] < eps:
                return Verdict(
                    "falsified",
                    Witness(j, k, k + 1, float(gaps[k])),
                    "quasi-cauchy",
                    schedule,
                )
    return Verdict("consistent", None, "quasi-cauchy", schedule)


def test_suite_catches_flipped_comparator():
    report = implication_suite(
        trials=10, seed=3, overrides={"quasi_cauchy_test": flipped_gap_test}
    )
    assert not report.ok
    names = {f.check for f in report.failures}
    assert names & {"sequence-oracle", "status-ladder"}
    for f in report.failures:
        assert f.shrunk  # shrinking always reports a configuration


def test_suite_catches_scale_blind_modulus():
    report = implication_suite(
        trials=15,
        seed=3,
        overrides={"lits_modulus": lambda f, delta: lipschitz_constant(f)},
    )
    assert not report.ok
    assert any(f.check == "moduli-oracle" for f in report.failures)


def test_suite_catches_merged_components():
    report = implication_suite(
        trials=10,
        seed=3,
        overrides={"components": lambda space, eps: [list(range(space.n))]},
    )
    assert not report.ok
    assert any(f.check == "component-structure" for f in report.failures)


def test_suite_failure_payload_roundtrips():
    report = implication_suite(
        trials=6,
        seed=3,
        overrides={"components": lambda space, eps: [list(range(space.n))]},
    )
    payload = _implications(report)
    assert payload["ok"] is False
    assert payload["failures"]
    first = payload["failures"][0]
    assert set(first) == {"check", "trial", "detail", "shrunk"}


# -- every failure branch of the checks -------------------------------------------


def failing(overrides, trials=10, seed=3):
    """(check, detail) of each failure the suite reports under overrides."""
    report = implication_suite(trials=trials, seed=seed, overrides=overrides)
    return {(f.check, f.detail) for f in report.failures}


def reported(overrides, check, start, **suite):
    """True iff some failure of the named check has a detail starting so."""
    return any(name == check and detail.startswith(start)
               for name, detail in failing(overrides, **suite))


def always_falsified(prefix, schedule):
    """Deliberately broken: no stage ever has a close pair."""
    return Verdict("falsified", Witness(0, 0, 1, 0.0), "pseudo-cauchy", schedule)


def always_consistent(prefix, schedule):
    """Deliberately broken: every stage holds."""
    return Verdict("consistent", None, "any", schedule)


def modulus(value):
    """Deliberately broken: a modulus of the given constant, whatever the
    function."""
    return lambda *args: ModulusReport("broken", value)


def spliced(edit):
    """The real splice with its (walk, embedding) passed through edit."""
    return lambda prefix, space, schedule: edit(
        *splice_to_quasi_cauchy(prefix, space, schedule))


def line_trial(points, ops=(), prefix=None, schedule=((1.0, 0),),
               values=None, eps_pair=(1.0, 2.0)):
    """A hand-built trial on points of the real line."""
    space = build_space(np.asarray(points, dtype=float)[:, None], "euclidean(1)")
    prefix = tuple(range(space.n)) if prefix is None else prefix
    values = np.zeros(space.n) if values is None else np.asarray(values, float)
    return _Trial(0, dict(harness._DEFAULT_OPS, **dict(ops)), space,
                  SequencePrefix(space, prefix), ToleranceSchedule(schedule),
                  values, 1.0, list(eps_pair))


def test_status_ladder_catches_a_pseudo_test_with_no_close_pair():
    assert reported({"pseudo_cauchy_test": always_falsified}, "status-ladder",
                    "small steps consistent but no close pair")


def test_sequence_oracle_catches_an_all_pairs_test_that_always_holds():
    assert reported({"cauchy_test": always_consistent}, "sequence-oracle",
                    "all-pairs verdict None but direct scan says (")


def test_sequence_oracle_rederives_a_falsified_close_pair_stage():
    # 0, 10, 20 at eps 5: no pair is close, so every test falsifies stage 0,
    # and the close-pair oracle expects the stage and its least distance
    trial = line_trial([0, 10, 20], schedule=((5.0, 0),))
    assert harness._check_sequence_oracle(trial) is None
    blind = replace(trial, ops=dict(trial.ops,
                                    pseudo_cauchy_test=always_consistent))
    assert harness._check_sequence_oracle(blind) == (
        "close-pair verdict None but direct scan says (0, 10.0)")


def test_sequence_oracle_skips_a_stage_with_no_pair():
    # the second stage starts at the last position: it has no pair to ask
    # for, so neither the tests nor the oracle may call it broken
    trial = line_trial([0, 1, 10], schedule=((20.0, 0), (0.5, 2)))
    assert harness._check_sequence_oracle(trial) is None


@pytest.mark.parametrize("overrides, start", [
    ({"lipschitz_constant": modulus(0.0)}, "global slope 0.0 below scale-"),
    ({"lits_modulus": modulus(0.0)}, "slope at scale beyond diameter is 0.0"),
    ({"seq_lipschitz_constant": lambda f, prefix, mode: ModulusReport(
        mode, 0.0 if mode == "all-pairs" else 1.0)},
     "all-pairs slope 0.0 below consecutive slope 1.0"),
])
def test_moduli_order_catches_each_broken_inequality(overrides, start):
    assert reported(overrides, "moduli-order", start)


def test_moduli_oracle_catches_a_wrong_global_slope():
    def doubled(f):
        return ModulusReport("lipschitz", 2.0 * lipschitz_constant(f).constant + 1)

    assert reported({"lipschitz_constant": doubled}, "moduli-oracle",
                    "global slope ")


def test_moduli_oracle_reads_duplicate_points():
    # points 0 and 1 coincide with clashing values (slope +inf); points 2
    # and 3 coincide with equal values, which tell nothing
    trial = line_trial([0, 0, 1, 1], values=[0.0, 1.0, 2.0, 2.0])
    assert lipschitz_constant(ScalarFunction(trial.space, trial.values)
                              ).constant == math.inf
    assert harness._check_moduli_oracle(trial) is None
    # without the clash the slope is the finite one between the pairs
    calm = replace(trial, values=np.array([0.0, 0.0, 2.0, 2.0]))
    assert harness._check_moduli_oracle(calm) is None


def test_component_structure_widens_equal_scales():
    seen = []

    def recorded(space, eps):
        seen.append(eps)
        return ChainGraph(space, eps).components()

    trial = line_trial([0, 1, 3, 4], ops={"components": recorded},
                       eps_pair=(1.5, 1.5))
    assert harness._check_component_structure(trial) is None
    assert seen == [1.5, 1.5 * 1.5 + 1e-9]


def test_component_structure_catches_a_reversed_scale():
    # components read at the scale reflected about 0.6 diameters: the finer
    # scale gets the coarser partition
    def reflected(space, eps):
        return ChainGraph(space, 1.25 * space.diameter() - eps).components()

    assert reported({"components": reflected}, "component-structure",
                    "1 components at ")


def test_component_structure_catches_components_taken_as_index_blocks():
    # index blocks of the true sizes: at 2 the blocks are {0, 1}, {2, 3},
    # {4}, {5}, and at 5 they are {0, 1, 2}, {3, 4, 5}, while the true
    # components are {0, 1, 4} and {2, 3, 5}
    def blocks(space, eps):
        sizes = [len(c) for c in ChainGraph(space, eps).components()]
        return [part.tolist() for part in
                np.split(np.arange(space.n), np.cumsum(sizes)[:-1])]

    trial = line_trial([0, 1, 20, 21, 5, 25], ops={"components": blocks},
                       eps_pair=(2.0, 5.0))
    assert harness._check_component_structure(trial) == (
        "component [2, 3] splits across scales")


@pytest.mark.parametrize("edit, detail", [
    (lambda walk, embedding: (walk, embedding[:-1]),
     "embedding length differs from the input prefix"),
    (lambda walk, embedding: (walk, embedding[::-1]),
     "embedding is not strictly increasing"),
    (lambda walk, embedding: (
        SequencePrefix(walk.space, walk.indices[::-1]), embedding),
     "input position 0 not preserved at 0"),
])
def test_splice_roundtrip_catches_a_broken_embedding(edit, detail):
    assert ("splice-roundtrip", detail) in failing({"splice": spliced(edit)})


def test_splice_roundtrip_catches_a_splice_that_inserts_nothing():
    def unchanged(prefix, space, schedule):
        return prefix, tuple(range(len(prefix)))

    assert reported({"splice": unchanged}, "splice-roundtrip",
                    "spliced walk still breaks its schedule: Witness(")


def test_shrink_halves_when_dropping_the_last_position_heals():
    # a check that fails exactly on prefixes of 2, 4, 8 and 16 positions:
    # dropping one position always heals it, halving never does
    trial = line_trial(range(16))
    lengths = []

    def powers_of_two(t):
        lengths.append(len(t.prefix))
        n = len(t.prefix)
        return "fails" if n & (n - 1) == 0 else None

    want = _shrunk_trial(trial, trial.prefix.subrange(0, 2)).describe()
    assert _shrink(trial, powers_of_two) == want
    assert lengths == [15, 8, 7, 4, 3, 2]


def test_still_fails_skips_too_large_and_counts_crashes():
    trial = line_trial(range(4))

    def too_large(t):
        raise TooLarge("capped")

    def crash(t):
        raise RuntimeError("boom")

    assert _still_fails(trial, too_large) is False
    assert _still_fails(trial, crash) is True


def test_shrunk_trial_without_a_schedule_is_none():
    # no schedule can be drawn for something that is not a prefix
    assert _shrunk_trial(line_trial(range(4)), None) is None


def test_suite_skips_too_large_and_reports_crashes():
    def too_large(space, eps):
        raise TooLarge("capped")

    def crash(space, eps):
        raise RuntimeError("boom")

    assert implication_suite(trials=4, seed=3,
                             overrides={"components": too_large}).ok
    report = implication_suite(trials=4, seed=3,
                               overrides={"components": crash})
    assert [(f.check, f.detail) for f in report.failures] == [
        ("component-structure", "raised RuntimeError('boom')")] * 4

"""End-to-end acceptance gate.

Nine numbered criteria, each wrapped so that exactly one summary line
reaches the terminal per criterion, pass or fail, with the measured
runtime against its budget.  Every numeric target is asserted at the
stated tolerance; nothing here is smoke-only.
"""

import itertools
import math
import time

import numpy as np

from chainscope.approximation import approximate, proof_bounds_report
from chainscope.chains import (
    ChainGraph,
    ball_layers,
    covering_profile,
    find_chain,
)
from chainscope.fixtures import make_fixture
from chainscope.harness import (
    chainability_threshold,
    implication_suite,
    random_space,
)
from chainscope.moduli import (
    equi_chain_continuity_check,
    lits_modulus,
    local_lipschitz_profile,
    seq_lipschitz_constant,
)
from chainscope.sequences import (
    SequencePrefix,
    ToleranceSchedule,
    Verdict,
    Witness,
    cauchy_test,
    quasi_cauchy_test,
    shift_schedule,
    splice_to_quasi_cauchy,
)


def _gate(capsys, num, label, budget, body):
    """Run one criterion body and print its single summary line.

    The line is emitted whether the body passes, fails, or crashes, so
    the terminal always shows one verdict per criterion.  The budget is
    part of the verdict: a slow pass is a fail.
    """
    t0 = time.perf_counter()
    failure = None
    detail = ""
    try:
        out = body()
        if out:
            detail = f" ({out})"
    except BaseException as exc:  # noqa: BLE001 - verdict line must print
        failure = exc
    elapsed = time.perf_counter() - t0
    ok = failure is None and elapsed < budget
    with capsys.disabled():
        print(
            f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}"
            f"{detail} [{elapsed:.2f}s / {budget:g}s]"
        )
    if failure is not None:
        raise failure
    assert elapsed < budget, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    )


def _far_pair_distances(fx):
    members = fx.meta["members"]
    space = fx.space
    out = {}
    for i, j in itertools.combinations(sorted(members), 2):
        if j - i < 2:
            continue
        out[(i, j)] = min(
            space.distance(a, b)
            for a in members[i]
            for b in members[j]
        )
    return out


def test_criterion_1_segment_distances(capsys):
    def body():
        fx = make_fixture("segment-chain", n=12, subdiv=1)
        dists = _far_pair_distances(fx)
        assert len(dists) == 55
        for pair, d in dists.items():
            assert d >= 0.5 - 1e-12, (pair, d)
        assert abs(min(dists.values()) - 0.5) <= 1e-12
        # even subdivision puts a sup-norm midpoint on every segment, so
        # there the per-pair distance itself is exactly one half
        fx2 = make_fixture("segment-chain", n=12, subdiv=2)
        for pair, d in _far_pair_distances(fx2).items():
            assert abs(d - 0.5) <= 1e-12, (pair, d)

    _gate(capsys, 1, "inter-segment sup distances", 1.0, body)


def test_criterion_2_chain_length_and_covering(capsys):
    def body():
        fx = make_fixture("segment-chain", n=16, subdiv=4)
        graph = ChainGraph(fx.space, 0.25)
        witness = find_chain(
            graph, fx.space.index_of("e8"), fx.space.index_of("e14")
        )
        assert witness is not None
        witness.validate(fx.space)
        floor = 2 * (7 - 4) - 1
        assert floor == 5
        assert witness.length >= floor, witness.length
        stars = []
        for n in (8, 12, 16):
            space = make_fixture("segment-chain", n=n, subdiv=4).space
            stars.append(covering_profile(space, 0.25)[1])
        assert stars[0] < stars[1] < stars[2], stars
        return f"hops={witness.length}, m_star={stars}"

    _gate(capsys, 2, "chain length bound and covering growth", 5.0, body)


def test_criterion_3_approximation_guarantees(capsys):
    def body():
        fx = make_fixture("harmonic-sums", n=200)
        f = fx.function
        for eps, n0 in ((0.5, 10), (0.1, 30)):
            decomp = approximate(f, eps)
            sup = float(np.max(np.abs(eps * decomp.h.values - f.values)))
            assert sup < eps, (eps, sup)
            assert decomp.sup_error < eps
            g = decomp.g.values
            assert np.all(g > 0.0), float(g.min())
            assert np.all(g <= 2.0), float(g.max())
            report = proof_bounds_report(
                decomp, fx.prefix, ToleranceSchedule(((eps, n0),))
            )
            assert report.n0 == n0
            assert report.pairs_checked > 0
            assert report.all_ok, report.violations
            assert not report.violations

    _gate(capsys, 3, "approximation guarantees on harmonic sums", 5.0, body)


def test_criterion_4_splice_round_trip(capsys):
    def body():
        rng = np.random.default_rng(20260817)
        for trial in range(100):
            n = int(rng.integers(5, 201))
            space = random_space("euclidean-cloud", n, seed=trial, dim=2)
            thr = chainability_threshold(space)
            assert thr > 0.0
            k = int(rng.integers(4, 13))
            idx = tuple(int(v) for v in rng.integers(0, n, size=k))
            prefix = SequencePrefix(space, idx)
            # both scales sit above the connectivity threshold, so every
            # wide gap has a chain to splice in
            schedule = ToleranceSchedule(
                ((1.6 * thr, 0), (1.3 * thr, max(1, k // 2)))
            )
            out, emb = splice_to_quasi_cauchy(prefix, space, schedule)
            shifted = shift_schedule(schedule, emb)
            assert quasi_cauchy_test(out, shifted).consistent, trial
            assert all(b > a for a, b in zip(emb, emb[1:])), trial
            for p in range(k):
                assert out.indices[emb[p]] == idx[p], (trial, p)
        return "100/100"

    _gate(capsys, 4, "splice round trip on seeded spaces", 30.0, body)


def _enumerated_layers(space, x, eps, m):
    """Reach set of chains from x with at most m hops, by brute listing.

    Every interior tuple is tried; no graph search is involved, so this
    is an independent check on the layered computation.
    """
    n = space.n
    reach = {x}
    for interior in itertools.product(range(n), repeat=m - 1):
        path = (x,) + interior
        if all(space.distance(a, b) < eps for a, b in zip(path, path[1:])):
            last = path[-1]
            reach.add(last)
            reach.update(
                b for b in range(n) if space.distance(last, b) < eps
            )
    return reach


def test_criterion_5_oracle_equivalence(capsys):
    def body():
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            kind = "euclidean-cloud" if trial % 2 == 0 else "repaired-matrix"
            space = random_space(kind, n, seed=trial)
            realized = sorted(
                {
                    float(space.distance(a, b))
                    for a in range(n)
                    for b in range(a)
                }
            )
            if realized:
                eps = float(rng.choice(realized)) * float(rng.uniform(0.8, 1.4))
            else:
                eps = 1.0
            graph = ChainGraph(space, eps)
            adj = [
                [b for b in range(n) if b != a and space.distance(a, b) < eps]
                for a in range(n)
            ]
            part = {x: set(c) for c in graph.components() for x in c}
            for x in range(n):
                seen = {x}
                stack = [x]
                while stack:
                    a = stack.pop()
                    for b in adj[a]:
                        if b not in seen:
                            seen.add(b)
                            stack.append(b)
                assert part[x] == seen, (trial, x)
                want = {x}
                for m in range(1, 5):
                    want |= _enumerated_layers(space, x, eps, m)
                    got = set(ball_layers(graph, x, m))
                    assert got == want, (trial, x, m)
        return "200/200"

    _gate(capsys, 5, "hop balls and components against enumeration", 30.0, body)


def test_criterion_6_divergent_consecutive_modulus(capsys):
    def body():
        big = 50000
        fx = make_fixture("harmonic-sums", n=big + 1)
        report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
        assert report.kind == "qc-seq"
        want = (big + 1) / (math.sqrt(big + 1) + math.sqrt(big))
        assert abs(report.constant - want) <= 1e-9, report.constant
        assert report.constant > 100.0
        return f"constant={report.constant:.4f}"

    _gate(capsys, 6, "divergent consecutive modulus at scale", 2.0, body)


def test_criterion_7_tent_equi_continuity_split(capsys):
    def body():
        fx = make_fixture("tent-family", n=30, variant="ramp")
        assert fx.domain.n == 300
        family = list(fx.family)
        chain_report = equi_chain_continuity_check(family, 0.2, chain=True)
        assert chain_report.passed, chain_report.uniform_delta
        plain = equi_chain_continuity_check(
            family, 0.5, chain=False, delta=0.25
        )
        assert not plain.passed
        assert plain.witness is not None
        assert plain.witness[3] >= 0.5
        # at the origin the steepest member swings a full unit inside the
        # quarter ball; that single point sinks the plain check
        grid = fx.meta["grid"]
        at_zero = int(np.argmin(np.abs(grid)))
        assert grid[at_zero] == 0.0
        ball = np.flatnonzero(fx.domain.distances_from(at_zero) < 0.25)
        osc = max(
            float(np.max(np.abs(f.values[ball] - f.values[at_zero])))
            for f in family
        )
        assert osc == 1.0
        assert osc > 0.5
        for m in range(1, len(family)):
            gap = float(
                np.max(np.abs(family[m - 1].values - family[m].values))
            )
            assert abs(gap - 1.0 / (m + 1)) <= 1e-12, m

    _gate(capsys, 7, "tent family equi-continuity split", 10.0, body)


def _cell_indicator_on_integers():
    lits_values = []
    for n in (25, 50):
        fx = make_fixture("naturals-plus", n=n)
        report = lits_modulus(fx.function, 0.25)
        assert report.constant == float(n) or abs(
            report.constant - n
        ) <= 1e-9 * n, report.constant
        lits_values.append(report.constant)
        schedule = ToleranceSchedule(((1.2, 0),))
        assert quasi_cauchy_test(fx.prefix, schedule).consistent
        along = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
        assert math.isfinite(along.constant)
        # seeded search over sub-prefixes: whenever one is consistent at
        # its own generous schedule the sequence constant stays finite
        rng = np.random.default_rng(11)
        for _ in range(10):
            k = int(rng.integers(3, 12))
            pos = tuple(
                sorted(int(v) for v in rng.choice(fx.space.n, k, replace=False))
            )
            sub = SequencePrefix(fx.space, pos)
            wide = ToleranceSchedule(((float(max(sub.gaps())) * 1.01, 0),))
            if quasi_cauchy_test(sub, wide).consistent:
                got = seq_lipschitz_constant(fx.function, sub, "consecutive")
                assert math.isfinite(got.constant)
    assert lits_values[1] > lits_values[0]


def _cell_even_indicator_on_roots():
    consec = []
    for n in (25, 50):
        fx = make_fixture("sqrt-space", n=n)
        evens = tuple(i for i in range(n) if (i + 1) % 2 == 0)
        for prefix in (
            SequencePrefix(fx.space, evens),
            SequencePrefix(fx.space, evens[len(evens) // 2 :]),
        ):
            spread = fx.space.distance(prefix.indices[0], prefix.indices[-1])
            schedule = ToleranceSchedule(((spread * 1.05, 0),))
            assert cauchy_test(prefix, schedule).consistent
            flat = seq_lipschitz_constant(fx.function, prefix, "all-pairs")
            assert flat.kind == "cauchy-seq"
            assert flat.constant == 0.0
        mixed = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
        want = math.sqrt(n) + math.sqrt(n - 1)
        assert abs(mixed.constant - want) <= 1e-9 * want, mixed.constant
        consec.append(mixed.constant)
    assert consec[1] > consec[0]


def _cell_sqrt_on_harmonic():
    values = []
    for n in (200, 400):
        fx = make_fixture("harmonic-sums", n=n)
        report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
        want = n / (math.sqrt(n) + math.sqrt(n - 1))
        assert abs(report.constant - want) <= 1e-9 * want, report.constant
        values.append(report.constant)
    assert values[1] > values[0]


def _cell_power_towers():
    maxima = []
    for n in (10, 11, 12):
        fx = make_fixture("scaled-unit-vectors", n=n, variant="towers", k=n)
        profile = local_lipschitz_profile(fx.function, 0.5)
        top = float(np.max(profile))
        want = float(n ** (n + 1) - n * n)
        assert abs(top - want) <= 1e-9 * want, (n, top)
        maxima.append(top)
    assert maxima[0] < maxima[1] < maxima[2]
    assert maxima[2] >= 1e12
    assert abs(maxima[2] - float(12 ** 13 - 144)) <= 1e-9 * float(12 ** 13)


def test_criterion_8_classification_cells(capsys):
    def body():
        cells = (
            ("integer-indicator", _cell_indicator_on_integers),
            ("even-indicator", _cell_even_indicator_on_roots),
            ("sqrt-on-harmonic", _cell_sqrt_on_harmonic),
            ("power-towers", _cell_power_towers),
        )
        verdicts = []
        failures = []
        for name, check in cells:
            try:
                check()
            except AssertionError as exc:
                verdicts.append(f"{name}=FAIL")
                failures.append(f"{name}: {exc}")
            else:
                verdicts.append(f"{name}=ok")
        assert not failures, "; ".join(failures)
        return ", ".join(verdicts)

    _gate(capsys, 8, "modulus classification cells", 20.0, body)


def _flipped_gap_test(prefix, schedule):
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


def test_criterion_9_implication_suite(capsys):
    def body():
        report = implication_suite(trials=100, seed=7)
        assert report.trials == 100
        assert not report.failures, report.failures[0]
        broken = implication_suite(
            trials=12,
            seed=7,
            overrides={"quasi_cauchy_test": _flipped_gap_test},
        )
        assert broken.failures, "flipped comparator went unnoticed"
        return f"clean 100 trials, mutant caught {len(broken.failures)}x"

    _gate(capsys, 9, "implication lattice and mutant detection", 60.0, body)

"""Deterministic example spaces, their canonical data, and checkable claims.

One catalog, read by make_fixture, canonical_claims and claim_runs (the
verify command's replay list), lists every (fixture, variant): the
builder, the parameters it reads with their defaults, the sizes verify
replays it at, and its claims.  Each builder makes a metric
space plus whatever canonical ordering or function belongs to it; each
claim is a machine-checkable fact that verify replays.  Generation is
pure: identical parameters give bit-identical spaces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .approximation import approximate
from .chains import ChainGraph, covering_profile, find_chain, u_placed_gap
from .errors import BadParam, TooLarge, UnknownFixture, _integral, _real
from .metric import MetricSpace, SparseVector
from .moduli import (
    ScalarFunction,
    equi_chain_continuity_check,
    lipschitz_constant,
    lits_modulus,
    local_lipschitz_profile,
    lp_tail_criterion,
    seq_lipschitz_constant,
    ward_falsifier,
)
from .sequences import (
    SequencePrefix,
    ToleranceSchedule,
    bourbaki_qc_test,
    cauchy_test,
    quasi_cauchy_test,
)

__all__ = [
    "Fixture",
    "Claim",
    "ClaimOutcome",
    "FIXTURE_NAMES",
    "make_fixture",
    "canonical_claims",
    "claim_runs",
]


@dataclass(frozen=True)
class Fixture:
    """A generated space with its canonical attachments."""

    name: str
    space: MetricSpace
    prefix: SequencePrefix | None = None
    function: ScalarFunction | None = None
    family: tuple | None = None
    domain: MetricSpace | None = None
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClaimOutcome:
    claim_id: str
    passed: bool
    details: str


@dataclass(frozen=True)
class Claim:
    """One checkable statement about a fixture."""

    id: str
    statement: str
    test: object  # callable(Fixture) -> (passed, details)

    def check(self, fx):
        passed, details = self.test(fx)
        return ClaimOutcome(self.id, passed, details)


def _positive_int(value, name, minimum=1):
    n = _integral(value)
    if n is None:
        raise BadParam(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise BadParam(f"{name} must be >= {minimum}, got {n}")
    return n


# Bytes of packed coordinates (points x columns x 8) a fixture may take; a
# builder refuses a larger size before it allocates anything.
FIXTURE_BYTES = 2**28

# Bytes the rows of a `chains --eps-geom` report may take, counted as
# COUNT x SCALE_ROW_BYTES (a bare row, eps and component count, measured
# about 440 bytes of Python objects); a larger COUNT is refused before
# any scale or graph is made.
REPORT_BYTES = 2**30
SCALE_ROW_BYTES = 512


def _within_budget(points, columns):
    size = 8 * points * columns
    if size > FIXTURE_BYTES:
        from decimal import Decimal  # formats an int of any size

        raise TooLarge(
            f"fixture of {Decimal(points):.3g} points x {columns} columns "
            f"needs about {Decimal(size):.3g} bytes, over the "
            f"{FIXTURE_BYTES}-byte fixture budget"
        )


def _finite(value, name):
    x = _real(value)
    if x is None:
        raise BadParam(f"{name} must be a finite number, got {value!r}")
    return x


# ---------------------------------------------------------------- fixtures


def _bounded_line(n, step, cap):
    n = _positive_int(n, "n", 2)
    step = _finite(step, "step")
    cap = _finite(cap, "cap")
    if step <= 0 or cap <= 0:
        raise BadParam("step and cap must be positive")
    _within_budget(n, 1)
    data = np.arange(n) * step
    space = MetricSpace(
        "bounded-usual", data, param=cap,
        labels=[f"t{i}" for i in range(n)],
    )
    prefix = SequencePrefix(space, tuple(range(n)))
    return Fixture("bounded-line", space, prefix=prefix,
                   params={"n": n, "step": step, "cap": cap})


def _segment_chain(n, subdiv):
    n = _positive_int(n, "n", 2)
    subdiv = _positive_int(subdiv, "subdiv", 1)
    _within_budget(1 + subdiv * n * (n + 3) // 2, n + 1)
    points = []
    labels = []
    members = {m: [] for m in range(1, n + 1)}
    for m in range(1, n + 1):
        kmax = subdiv * (m + 1)
        start = 1 if m > 1 else 0  # k = 0 repeats the previous endpoint
        for k in range(start, kmax + 1):
            a = 1.0 - k / kmax
            b = k / kmax
            entries = {}
            if a != 0.0:
                entries[m] = a
            if b != 0.0:
                entries[m + 1] = b
            idx = len(points)
            points.append(SparseVector(entries))
            if k == 0:
                labels.append(f"e{m}")
            elif k == kmax:
                labels.append(f"e{m + 1}")
            else:
                labels.append(f"X{m}k{k}")
            members[m].append(idx)
            if k == kmax and m < n:
                members[m + 1].append(idx)  # shared endpoint
    space = MetricSpace("sup-norm-sparse", points, labels=labels)
    prefix = SequencePrefix(space, tuple(range(len(points))))
    return Fixture(
        "segment-chain", space, prefix=prefix,
        params={"n": n, "subdiv": subdiv},
        meta={"members": members},
    )


def _tent_fixture(grid, rows, names, params, meta):
    """The family whose i-th member takes the values rows[i] on grid, as a
    space under the sup distance."""
    domain = MetricSpace(
        "euclidean", grid, param=1,
        labels=[f"x{i}" for i in range(len(grid))],
    )
    family = tuple(
        ScalarFunction(domain, row, name=name)
        for row, name in zip(rows, names)
    )
    space = MetricSpace("function-sup", rows, param=domain.n, labels=names)
    prefix = SequencePrefix(space, tuple(range(space.n)))
    return Fixture(
        "tent-family", space, prefix=prefix, family=family, domain=domain,
        params=params, meta=meta,
    )


def _tent_interp(n):
    """Piecewise tents walked between consecutive reciprocal nodes."""
    n = _positive_int(n, "n", 1)
    _within_budget(1 + n * (n + 3) // 2, n + 2)
    grid = [0.0] + [1.0 / m for m in range(n + 1, 0, -1)]
    node_pos = {m: grid.index(1.0 / m) for m in range(1, n + 2)}
    rows = []
    tags = []
    for m in range(1, n + 1):
        for k in range(0 if m == 1 else 1, m + 2):
            vals = np.zeros(len(grid))
            vals[node_pos[m]] = 1.0 - k / (m + 1)
            vals[node_pos[m + 1]] = k / (m + 1)
            rows.append(vals)
            tags.append((m, k))
    grid = np.asarray(grid)
    return _tent_fixture(
        grid, np.vstack(rows), [f"f{m}k{k}" for m, k in tags],
        {"n": n, "variant": "interp"}, {"tags": tags, "grid": grid},
    )


def _tent_ramp(n):
    """Ramps min(m x, 1) on a grid holding every node 1/m."""
    n = _positive_int(n, "n", 1)
    _within_budget(n, n + 271)  # the grid: 270 even steps and n + 1 nodes
    pts = set(np.linspace(0.0, 1.0, 270).tolist())
    pts.update(1.0 / k for k in range(1, n + 2))
    grid = np.asarray(sorted(pts))
    rows = np.vstack([np.minimum(m * grid, 1.0) for m in range(1, n + 1)])
    return _tent_fixture(
        grid, rows, [f"f{m}" for m in range(1, n + 1)],
        {"n": n, "variant": "ramp"}, {"grid": grid},
    )


def _harmonic_sums(n):
    n = _positive_int(n, "n", 2)
    _within_budget(n, 1)
    sums = np.cumsum(1.0 / np.arange(1, n + 1))
    space = MetricSpace(
        "euclidean", sums, param=1,
        labels=[f"H{k}" for k in range(1, n + 1)],
    )
    prefix = SequencePrefix(space, tuple(range(n)))
    f = ScalarFunction(space, np.sqrt(np.arange(1, n + 1)), name="sqrt-index")
    return Fixture("harmonic-sums", space, prefix=prefix, function=f,
                   params={"n": n})


def _sqrt_space(n):
    n = _positive_int(n, "n", 2)
    _within_budget(n, 1)
    roots = np.sqrt(np.arange(1, n + 1))
    space = MetricSpace(
        "euclidean", roots, param=1,
        labels=[f"s{k}" for k in range(1, n + 1)],
    )
    prefix = SequencePrefix(space, tuple(range(n)))
    vals = np.asarray([1.0 if k % 2 == 0 else 0.0 for k in range(1, n + 1)])
    f = ScalarFunction(space, vals, name="even-indicator")
    return Fixture("sqrt-space", space, prefix=prefix, function=f,
                   params={"n": n})


def _naturals_plus(n):
    n = _positive_int(n, "n", 2)
    _within_budget(2 * n - 1, 1)
    pts = [(float(m), f"n{m}", 1.0) for m in range(1, n + 1)]
    # m = 1 is skipped: 1 + 1/1 collides with the natural 2
    pts += [(m + 1.0 / m, f"p{m}", 0.0) for m in range(2, n + 1)]
    pts.sort()
    data = np.asarray([x for x, _, _ in pts])
    space = MetricSpace(
        "euclidean", data, param=1, labels=[lab for _, lab, _ in pts]
    )
    prefix = SequencePrefix(space, tuple(range(len(pts))))
    f = ScalarFunction(
        space, np.asarray([v for _, _, v in pts]), name="integer-indicator"
    )
    return Fixture("naturals-plus", space, prefix=prefix, function=f,
                   params={"n": n})


def _ray_points(n, den):
    """The origin o, then on each axis 1..n the points i/den for
    i = 1..den, labelled r<axis>x<i>; the tip of axis k is point k*den."""
    points = [SparseVector({})]
    labels = ["o"]
    for axis in range(1, n + 1):
        for i in range(1, den + 1):
            points.append(SparseVector({axis: i / den}))
            labels.append(f"r{axis}x{i}")
    return points, labels


def _rays(n, r_step):
    n = _positive_int(n, "n", 1)
    r_step = _finite(r_step, "r_step")
    # 1 / r_step overflows to inf for a subnormal step
    den = round(min(1.0 / r_step, sys.float_info.max)) if r_step > 0 else 0
    if den < 1 or abs(den * r_step - 1.0) > 1e-9:
        raise BadParam(f"r_step {r_step} must evenly divide 1")
    _within_budget(1 + n * den, n)
    points, labels = _ray_points(n, den)
    space = MetricSpace("sup-norm-sparse", points, labels=labels)
    prefix = SequencePrefix(space, tuple(range(den, n * den + 1, den)))
    return Fixture(
        "scaled-unit-vectors", space, prefix=prefix,
        params={"n": n, "variant": "rays", "r_step": r_step},
    )


def _towers(n, k, scale):
    n = _positive_int(n, "n", 1)
    kmax = _positive_int(k, "k", 1)
    _within_budget(n * kmax, kmax)
    if n**kmax > sys.float_info.max:
        raise BadParam(f"function values n**k = {n}**{kmax} overflow float64")
    if scale == "linear":
        base = [float(m) for m in range(1, n + 1)]
    elif scale == "sqrt":
        base = [math.sqrt(m) for m in range(1, n + 1)]
    else:
        raise BadParam(f"unknown scale {scale!r}")
    points = []
    labels = []
    values = []
    for m in range(1, n + 1):
        for j in range(1, kmax + 1):
            entries = {1: base[m - 1]}
            entries[j] = entries.get(j, 0.0) + 1.0 / m
            points.append(SparseVector(entries))
            labels.append(f"T{m}k{j}")
            values.append(float(m**j))
    space = MetricSpace("sup-norm-sparse", points, labels=labels)
    f = ScalarFunction(space, np.asarray(values), name="power-ladder")
    prefix = SequencePrefix(space, tuple(range(len(points))))
    return Fixture(
        "scaled-unit-vectors", space, prefix=prefix, function=f,
        params={"n": n, "variant": "towers", "k": kmax, "scale": scale},
    )


def _grid_interval(a, b, count):
    a, b = _finite(a, "a"), _finite(b, "b")
    count = _positive_int(count, "count", 2)
    if not b > a:
        raise BadParam(f"need b > a, got [{a}, {b}]")
    _within_budget(count, 1)
    data = np.linspace(a, b, count)
    space = MetricSpace(
        "euclidean", data, param=1, labels=[f"g{i}" for i in range(count)]
    )
    prefix = SequencePrefix(space, tuple(range(count)))
    return Fixture("grid-interval", space, prefix=prefix,
                   params={"a": a, "b": b, "count": count})


def _slow_spike_grid(n, spikes):
    n = _positive_int(n, "n", 2)
    spikes = _positive_int(spikes, "spikes", 1)
    if spikes > n:
        raise BadParam("spikes cannot exceed the grid size")
    _within_budget(n + spikes, 1)
    base = np.linspace(0.0, 1.0, n)
    data = np.concatenate([base, base[:spikes]])
    labels = [f"b{i}" for i in range(n)] + [f"dup{j}" for j in range(spikes)]
    space = MetricSpace("euclidean", data, param=1, labels=labels)
    vals = np.zeros(n + spikes)
    vals[n:] = 1.0 / np.sqrt(np.arange(1, spikes + 1))
    f = ScalarFunction(space, vals, name="spike-levels")
    return Fixture("slow-spike-grid", space, function=f,
                   params={"n": n, "spikes": spikes})


# ------------------------------------------------------------------ claims


def _claim_cap_saturation(fx):
    cap = fx.params["cap"]
    span = (fx.params["n"] - 1) * fx.params["step"]
    if span < cap:
        return True, "span below cap; nothing to saturate"
    d = fx.space.distance(0, fx.space.n - 1)
    if d == cap:
        return True, f"d(ends) = {d}"
    return False, f"d(ends) = {d}, expected cap {cap}"


def _claim_hop_radius_growth(fx):
    n, step, cap = (fx.params[k] for k in ("n", "step", "cap"))
    eps = 1.5 * step
    k1, m1 = covering_profile(fx.space, eps)
    double = make_fixture("bounded-line", n=2 * n, step=step, cap=cap)
    k2, m2 = covering_profile(double.space, eps)
    want1 = math.ceil((n - 1) / 2)
    if k1 != 1 or k2 != 1:
        return False, f"expected single components, got k = {k1}, {k2}"
    if m1 != want1:
        return False, f"radius {m1} at size {n}, expected {want1}"
    if not m2 > m1:
        return False, f"radius failed to grow: {m1} -> {m2}"
    return True, f"radius {m1} -> {m2} when the line doubles"


def _far_separation(space, groups, noun, nouns):
    """Check that groups whose keys differ by two or more stay exactly 0.5
    apart: the least distance between their points, over all such pairs."""
    best = math.inf
    keys = sorted(groups)
    for i in keys:
        for j in keys:
            if j - i < 2:
                continue
            blocks = space.pair_blocks(groups[i], groups[j])
            d = min(float(D.min()) for _, _, D in blocks)
            if d < 0.5 - 1e-12:
                return False, f"{nouns} {i},{j} come {d} close, below 0.5"
            best = min(best, d)
    if math.isinf(best):
        return True, f"no {noun} pair two apart at this size"
    if abs(best - 0.5) <= 1e-12:
        return True, f"min separation {best}"
    return False, f"min separation {best}, expected 0.5"


def _claim_far_segment_separation(fx):
    return _far_separation(fx.space, fx.meta["members"], "segment",
                           "segments")


def _claim_adjacent_touch(fx):
    members = fx.meta["members"]
    for m in sorted(members)[:-1]:
        shared = set(members[m]) & set(members[m + 1])
        if not shared:
            return False, f"segments {m} and {m + 1} share no endpoint"
    return True, "every adjacent pair shares its endpoint"


def _gaps_match(fx, want, holds):
    """Claim that prefix gap k equals want[k] within 1e-12; holds on a pass."""
    for k, (gap, w) in enumerate(zip(fx.prefix.gaps(), want)):
        if abs(gap - w) > 1e-12:
            return False, f"gap {gap} at position {k}, expected {w}"
    return True, holds


def _claim_segment_step_size(fx):
    # segment m contributes subdiv*(m+1) steps of that reciprocal length
    kmax = [fx.params["subdiv"] * (m + 1) for m in range(1, fx.params["n"] + 1)]
    return _gaps_match(fx, [1.0 / k for k in kmax for _ in range(k)],
                       "all within-segment steps match 1/(subdiv*(m+1))")


def _claim_snake_prefix_qc(fx):
    gaps = fx.prefix.gaps()
    length = len(fx.prefix)
    starts = [0, length // 3, (2 * length) // 3]
    stages = []
    prev_eps = math.inf
    prev_n = -1
    for n0 in starts:
        if n0 > length - 2 or n0 <= prev_n:
            continue
        eps = float(np.max(gaps[n0:])) * (1 + 1e-9)
        if eps >= prev_eps:
            continue
        stages.append((eps, n0))
        prev_eps, prev_n = eps, n0
    verdict = quasi_cauchy_test(
        fx.prefix, ToleranceSchedule(tuple(stages))
    )
    if verdict.consistent:
        return True, f"consistent across {len(stages)} stages"
    w = verdict.witness
    return False, f"gap {w.gap} at position {w.index} broke stage {w.stage}"


def _claim_chain_hop_floor(fx):
    if fx.params["n"] < 14:
        return True, "needs endpoints e8 and e14; size too small"
    graph = ChainGraph(fx.space, 0.25)
    x = fx.space.index_of("e8")
    y = fx.space.index_of("e14")
    witness = find_chain(graph, x, y)
    if witness is None:
        return False, "e8 and e14 are not chain-connected at 0.25"
    floor = 2 * (7 - 4) - 1
    if witness.length >= floor:
        return True, f"hop count {witness.length} >= {floor}"
    return False, f"hop count {witness.length} below floor {floor}"


def _claim_profile_growth(fx):
    stars = []
    for size in (8, 12, 16):
        other = make_fixture("segment-chain", n=size, subdiv=4)
        k, m_star = covering_profile(other.space, 0.25)
        stars.append(m_star)
    if stars[0] < stars[1] < stars[2]:
        return True, f"radii {stars} strictly increase"
    return False, f"radii {stars} fail to increase"


def _claim_tent_consecutive_gap(fx):
    return _gaps_match(fx, [1.0 / (m + 1) for m, _ in fx.meta["tags"][1:]],
                       "every consecutive sup gap matches its family spacing")


def _claim_tent_far_separation(fx):
    groups = {}
    for idx, (m, _) in enumerate(fx.meta["tags"]):
        groups.setdefault(m, []).append(idx)
    return _far_separation(fx.space, groups, "family", "families")


def _claim_ramp_consecutive_gap(fx):
    return _gaps_match(fx, [1.0 / (m + 1) for m in range(1, fx.params["n"])],
                       "sup gaps follow 1/(m+1)")


def _claim_ramp_oscillation(fx):
    grid = fx.meta["grid"]
    zero = int(np.argmin(np.abs(grid)))
    for m, g in enumerate(fx.family, start=1):
        at = int(np.argmin(np.abs(grid - 1.0 / m)))
        if abs(grid[at] - 1.0 / m) > 1e-12:
            return False, f"1/{m} missing from the grid"
        osc = abs(g.values[at] - g.values[zero])
        if abs(osc - 1.0) > 1e-12:
            return False, f"|f_{m}(1/{m}) - f_{m}(0)| = {osc}"
    return True, "every ramp swings by exactly 1 between 0 and 1/m"


def _claim_ramp_chain_pass(fx):
    report = equi_chain_continuity_check(
        list(fx.family), 0.2, chain=True, delta=0.04
    )
    if report.passed:
        return True, f"uniform scale {report.uniform_delta:.6g}"
    return False, f"failed with uniform scale {report.uniform_delta:.6g}"


def _claim_ramp_plain_fail(fx):
    if fx.params["n"] < 6:
        return True, "family too small to break the plain check at 0.04"
    report = equi_chain_continuity_check(
        list(fx.family), 0.2, chain=False, delta=0.04
    )
    if report.passed:
        return False, "plain check unexpectedly passed at scale 0.04"
    osc = report.witness[3]
    if osc > 0.5:
        return True, f"witness oscillation {osc:.6g} > 1/2"
    return False, f"witness oscillation {osc:.6g} not above 1/2"


def _claim_harmonic_step(fx):
    # the step from H_k to H_(k+1), at position k - 1, is 1/(k+1)
    return _gaps_match(fx, [1.0 / (k + 2) for k in range(fx.params["n"] - 1)],
                       "partial-sum steps match 1/(k+1)")


def _claim_harmonic_qc(fx):
    if fx.params["n"] < 102:
        return True, "needs 102 points for the reference schedule"
    verdict = quasi_cauchy_test(
        fx.prefix, ToleranceSchedule(((0.1, 10), (0.01, 100)))
    )
    if verdict.consistent:
        return True, "consistent at stages (0.1, 10), (0.01, 100)"
    return False, f"falsified at {verdict.witness}"


def _claim_harmonic_not_cauchy(fx):
    if fx.params["n"] < 21:
        return True, "tail too short to spread past 0.5"
    verdict = cauchy_test(fx.prefix, ToleranceSchedule(((0.5, 10),)))
    if not verdict.consistent:
        w = verdict.witness
        return True, f"tail pair {w.index},{w.partner} spreads {w.gap:.4g}"
    return False, "tail stayed within 0.5; partial sums cannot do that"


def _claim_harmonic_slope(fx):
    n = fx.params["n"]
    report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
    want = n / (math.sqrt(n) + math.sqrt(n - 1))
    if abs(report.constant - want) <= 1e-9:
        return True, f"constant {report.constant:.12g}"
    return False, f"constant {report.constant!r}, expected {want!r}"


def _claim_harmonic_approx(fx):
    decomp = approximate(fx.function, 0.5)
    return True, f"sup error {decomp.sup_error:.6g} < 0.5"


def _claim_sqrt_even_flat(fx):
    evens = tuple(p for p in range(len(fx.prefix)) if (p + 1) % 2 == 0)
    if len(evens) < 2:
        return True, "too few even positions to compare"
    sub = fx.prefix.select(evens)
    report = seq_lipschitz_constant(fx.function, sub, "all-pairs")
    if report.constant == 0.0:
        return True, "indicator constant on the even positions"
    return False, f"constant {report.constant} on the even positions"


def _claim_sqrt_alternation_slope(fx):
    n = fx.params["n"]
    report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
    want = math.sqrt(n) + math.sqrt(n - 1)
    if abs(report.constant - want) > 1e-9:
        return False, f"constant {report.constant!r}, expected {want!r}"
    half = make_fixture("sqrt-space", n=max(2, n // 2))
    smaller = seq_lipschitz_constant(
        half.function, half.prefix, "consecutive"
    ).constant
    if report.constant > smaller:
        return True, f"slope {smaller:.4g} -> {report.constant:.4g}"
    return False, f"slope failed to grow: {smaller} -> {report.constant}"


def _claim_chi_lipschitz_size(fx):
    n = fx.params["n"]
    report = lipschitz_constant(fx.function)
    if abs(report.constant - n) > 1e-9 * n:
        return False, f"constant {report.constant}, expected {n}"
    i, j = report.witness
    pair = {fx.space.label_of(i), fx.space.label_of(j)}
    if pair == {f"n{n}", f"p{n}"}:
        return True, f"constant {report.constant:.9g} at {sorted(pair)}"
    return False, f"witness {sorted(pair)}, expected n{n} with p{n}"


def _claim_lits_quarter_grows(fx):
    n = fx.params["n"]
    if n < 10:
        return True, "growth comparison needs n >= 10"
    big = lits_modulus(fx.function, 0.25).constant
    half = make_fixture("naturals-plus", n=n // 2)
    small = lits_modulus(half.function, 0.25).constant
    if abs(big - n) > 1e-9 * n:
        return False, f"scale-0.25 slope {big}, expected {n}"
    if big > small:
        return True, f"slope {small:.4g} -> {big:.4g} as size doubles"
    return False, f"slope failed to grow: {small} -> {big}"


def _claim_local_quarter_profile(fx):
    n = fx.params["n"]
    if n < 5:
        return True, "no pair closer than 0.25 below n = 5"
    profile = local_lipschitz_profile(fx.function, 0.25)
    for m in (5, n // 2, n):
        if m < 5:
            continue
        idx = fx.space.index_of(f"n{m}")
        if abs(profile[idx] - m) > 1e-9 * m:
            return False, f"profile at n{m} is {profile[idx]}, expected {m}"
    lonely = fx.space.index_of("n3")
    if profile[lonely] != 0.0:
        return False, f"profile at n3 is {profile[lonely]}, expected 0"
    return True, "per-point slopes climb linearly and vanish early"


def _claim_ward_jump(fx):
    schedule = ToleranceSchedule.default(fx.space, len(fx.prefix))
    result = ward_falsifier(
        fx.function, fx.space, 0.5, schedule, budget=500
    )
    if not result.found:
        return False, "no witness found for the indicator jump"
    a, b = result.pair
    la, lb = fx.space.label_of(a), fx.space.label_of(b)
    if {la[0], lb[0]} == {"n", "p"}:
        return True, f"jump {result.image_gap} across {la},{lb}"
    return False, f"witness {la},{lb} is not an integer/offset pair"


def _claim_rays_bqc(fx):
    # the tips chain through o at 0.07 when the ray steps are shorter
    if not fx.params["r_step"] < 0.07:
        return True, "ray steps of 0.07 or more do not chain at 0.07"
    result = bourbaki_qc_test(fx.prefix, fx.space, 0.07)
    if result.consistent and result.n0 == 0:
        return True, "whole tail sits in one component at 0.07"
    return False, f"status {result.status}, n0 {result.n0}"


def _claim_rays_unit_separation(fx):
    lo, hi = math.inf, -math.inf
    for _, _, d in fx.space.pair_blocks(fx.prefix.indices):
        lo = np.fmin.reduce(d, axis=None, initial=lo)
        hi = np.fmax.reduce(d, axis=None, initial=hi)
    if lo < 1.0 or hi > 1.0:
        return False, f"tip distances stray from 1: {lo}..{hi}"
    return True, "all ray tips exactly 1 apart"


def _claim_rays_lp_tail(fx):
    # under the 2-norm the rays chain through o at 0.5 when their steps
    # are shorter; o and axis 1 have no mass past coordinate 1
    n, r_step = fx.params["n"], fx.params["r_step"]
    if not r_step < 0.5:
        return True, "ray steps of 0.5 or more do not chain at 0.5"
    points, _ = _ray_points(n, round(1.0 / r_step))
    report = lp_tail_criterion(points, 2, 0.5, 1)
    through = set(report.certificates.values())
    if report.passed and through == {fx.space.index_of("o")}:
        return True, f"all {len(points)} points certify through o"
    return False, (f"failures {list(report.failures[:8])}, "
                   f"certified through {sorted(through)[:8]}")


def _claim_split_interval_gap(fx):
    # the halves meet at the middle point; trimmed at a quarter span, each
    # keeps its quarter point, which sits exactly that far from the middle
    count, span = fx.params["count"], fx.params["b"] - fx.params["a"]
    q, rest = divmod(count - 1, 4)
    eps = span / 4
    space = fx.space
    if rest or {space.distance(2 * q, k) for k in (q, 3 * q)} != {eps}:
        return True, "no grid point is exactly a quarter span from the middle"
    gap = u_placed_gap(space, range(2 * q + 1), range(2 * q, count), eps)
    if abs(gap - span / 2) <= 1e-12 * span:
        return True, f"trimmed at {eps:g}, the halves sit {gap:g} apart"
    return False, f"the trimmed halves sit {gap:g} apart, not {span / 2:g}"


def _claim_towers_profile_blowup(fx):
    n, kmax = fx.params["n"], fx.params["k"]
    profile = local_lipschitz_profile(fx.function, 0.5)
    floor = float(n) ** kmax
    top = float(profile.max())
    if top >= floor:
        return True, f"max local slope {top:.6g} >= {floor:.6g}"
    return False, f"max local slope {top:.6g} below {floor:.6g}"


# ----------------------------------------------------------------- catalog


def _catalog():
    """Every (fixture, variant) with its builder, the parameters the
    builder reads with their defaults, the replay sizes verify builds it
    at, and its claims in verify order.

    A plain fixture has variant None; the first variant listed under a
    name is its default.  The table is built per call, so a claim holds
    whatever check function the module names at the time of use.
    """
    return {
        ("bounded-line", None): (
            _bounded_line, {"n": 50, "step": 0.1, "cap": 1.0}, {},
            Claim("cap-saturation",
                  "the metric saturates at the cap across the span",
                  _claim_cap_saturation),
            Claim("hop-radius-growth",
                  "one chain component whose hop radius grows with the line",
                  _claim_hop_radius_growth),
        ),
        ("segment-chain", None): (
            _segment_chain, {"n": 12, "subdiv": 1}, {"n": 16, "subdiv": 4},
            Claim("far-segment-separation",
                  "segments two apart stay exactly 0.5 apart in sup norm",
                  _claim_far_segment_separation),
            Claim("adjacent-segments-touch",
                  "adjacent segments share an endpoint",
                  _claim_adjacent_touch),
            Claim("segment-step-size",
                  "within-segment steps equal 1/(subdiv*(m+1))",
                  _claim_segment_step_size),
            Claim("snake-prefix-qc",
                  "the head-to-tail walk has small-step-consistent gaps",
                  _claim_snake_prefix_qc),
            Claim("chain-hop-floor",
                  "chains from e8 to e14 at scale 0.25 need at least 5 hops",
                  _claim_chain_hop_floor),
            Claim("covering-profile-growth",
                  "the covering hop radius at 0.25 grows across sizes 8/12/16",
                  _claim_profile_growth),
        ),
        ("tent-family", "interp"): (
            _tent_interp, {"n": 10}, {},
            Claim("tent-consecutive-gap",
                  "consecutive tent sup gaps equal the family spacing",
                  _claim_tent_consecutive_gap),
            Claim("tent-far-family-separation",
                  "tent families two apart stay exactly 0.5 apart",
                  _claim_tent_far_separation),
        ),
        ("tent-family", "ramp"): (
            _tent_ramp, {"n": 10}, {"n": 30},
            Claim("ramp-consecutive-gap",
                  "consecutive ramp sup gaps equal 1/(m+1)",
                  _claim_ramp_consecutive_gap),
            Claim("ramp-oscillation-at-zero",
                  "each ramp swings by 1 between 0 and 1/m",
                  _claim_ramp_oscillation),
            Claim("ramp-chain-delegation",
                  "chain delegation certifies the family at 0.2 / 0.04",
                  _claim_ramp_chain_pass),
            Claim("ramp-plain-failure",
                  "the plain check at scale 0.04 fails with a big swing",
                  _claim_ramp_plain_fail),
        ),
        ("harmonic-sums", None): (
            _harmonic_sums, {"n": 500}, {},
            Claim("harmonic-step",
                  "partial-sum steps equal 1/(k+1)",
                  _claim_harmonic_step),
            Claim("harmonic-small-steps",
                  "the walk is small-step consistent at (0.1,10), (0.01,100)",
                  _claim_harmonic_qc),
            Claim("harmonic-tail-spread",
                  "the tail spreads past 0.5, so all-pairs tightness fails",
                  _claim_harmonic_not_cauchy),
            Claim("harmonic-slope-formula",
                  "the consecutive slope equals n/(sqrt(n)+sqrt(n-1))",
                  _claim_harmonic_slope),
            Claim("harmonic-approx-bound",
                  "the level approximant stays within 0.5 uniformly",
                  _claim_harmonic_approx),
        ),
        ("sqrt-space", None): (
            _sqrt_space, {"n": 50}, {},
            Claim("even-subprefix-flat",
                  "the even-position subsequence sees a constant function",
                  _claim_sqrt_even_flat),
            Claim("alternation-slope-growth",
                  "the alternating slope equals sqrt(n)+sqrt(n-1) and grows",
                  _claim_sqrt_alternation_slope),
        ),
        ("naturals-plus", None): (
            _naturals_plus, {"n": 50}, {},
            Claim("indicator-slope-equals-size",
                  "the indicator's slope equals the largest integer n",
                  _claim_chi_lipschitz_size),
            Claim("small-scale-slope-growth",
                  "the scale-0.25 slope equals n and grows with the fixture",
                  _claim_lits_quarter_grows),
            Claim("local-slope-ladder",
                  "per-point slopes at scale 0.25 equal each pair's index",
                  _claim_local_quarter_profile),
            Claim("small-step-image-jump",
                  "a small-step walk carries a unit image jump",
                  _claim_ward_jump),
        ),
        ("scaled-unit-vectors", "rays"): (
            _rays, {"n": 20, "r_step": 0.05}, {},
            Claim("rays-single-component",
                  "every ray tip chains to every other through the origin",
                  _claim_rays_bqc),
            Claim("rays-unit-separation",
                  "distinct ray tips sit exactly 1 apart",
                  _claim_rays_unit_separation),
            Claim("rays-lp-tail-through-origin",
                  "at p 2, eps 0.5 and n0 1 every ray point certifies "
                  "through the origin",
                  _claim_rays_lp_tail),
        ),
        ("scaled-unit-vectors", "towers"): (
            _towers, {"n": 20, "k": 12, "scale": "linear"}, {"n": 12},
            Claim("tower-slope-blowup",
                  "local slopes at scale 0.5 exceed n^k",
                  _claim_towers_profile_blowup),
        ),
        ("grid-interval", None): (
            _grid_interval, {"a": 0.0, "b": 1.0, "count": 101}, {},
            Claim("split-interval-gap",
                  "the halves, trimmed a quarter span from the middle, sit "
                  "half the span apart",
                  _claim_split_interval_gap),
        ),
        ("slow-spike-grid", None): (
            _slow_spike_grid, {"n": 64, "spikes": 8}, {},
        ),
    }


FIXTURE_NAMES = tuple(sorted({name for name, _ in _catalog()}))


def _resolve(name, params):
    """(builder, parameters, claims) of a fixture: the catalog entry for
    (name, params["variant"]), with params merged over its defaults and
    "variant" left out.

    Rejects an unknown name, an unknown variant, a variant given to a
    plain fixture, and a key the entry does not read.
    """
    catalog = _catalog()
    variants = [v for n, v in catalog if n == name]
    if not variants:
        raise UnknownFixture(
            f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        )
    variant = variants[0]
    if variant is not None:
        variant = params.pop("variant", variant)
        if variant not in variants:
            raise BadParam(f"unknown {name} variant {variant!r}")
    build, defaults, _, *claims = catalog[name, variant]
    for key in params:
        if key not in defaults:
            where = name if variant is None else f"{name}[{variant}]"
            raise BadParam(f"{where} does not take parameter {key!r}")
    return build, {**defaults, **params}, claims


def make_fixture(name, **params):
    """Build a fixture; params override the catalog's defaults."""
    build, params, _ = _resolve(name, params)
    return build(**params)


def canonical_claims(name, **params):
    """Checkable facts attached to a fixture; empty for slow-spike-grid."""
    return _resolve(name, params)[2]


def claim_runs(name=None):
    """What verify replays: (display, fixture, claims) per catalog entry,
    or per entry of fixture ``name``, in catalog order.  The fixture is
    built at the entry's replay sizes if it has claims, else it is None."""
    for (fixture, variant), (_, _, sizes, *claims) in _catalog().items():
        if name in (None, fixture):
            display = fixture if variant is None else f"{fixture}[{variant}]"
            params = sizes if variant is None else {**sizes, "variant": variant}
            built = make_fixture(fixture, **params) if claims else None
            yield display, built, claims

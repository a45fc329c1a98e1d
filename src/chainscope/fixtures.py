"""Deterministic example spaces, their canonical data, and checkable claims.

Each fixture builds a metric space plus whatever canonical ordering or
function belongs to it; canonical_claims attaches machine-checkable facts
that the verify command replays.  Generation is pure: identical parameters
give bit-identical spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approximation import approximate
from .chains import ChainGraph, covering_profile
from .errors import BadParam, UnknownFixture
from .metric import MetricSpace, SparseVector, above_diagonal
from .moduli import (
    ScalarFunction,
    equi_chain_continuity_check,
    lipschitz_constant,
    lits_modulus,
    local_lipschitz_profile,
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
class Claim:
    """One checkable statement about a fixture."""

    id: str
    statement: str
    check: object  # callable(Fixture) -> ClaimOutcome


@dataclass(frozen=True)
class ClaimOutcome:
    claim_id: str
    passed: bool
    details: str


def _ok(cid, details=""):
    return ClaimOutcome(cid, True, details)


def _bad(cid, details):
    return ClaimOutcome(cid, False, details)


def _take(params, defaults, name):
    """Merge user params over defaults, rejecting unknown keys."""
    out = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise BadParam(f"{name} does not take parameter {key!r}")
        out[key] = value
    return out


def _positive_int(value, name, minimum=1):
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise BadParam(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise BadParam(f"{name} must be >= {minimum}, got {n}")
    return n


# ---------------------------------------------------------------- fixtures


def _bounded_line(params):
    p = _take(params, {"n": 50, "step": 0.1, "cap": 1.0}, "bounded-line")
    n = _positive_int(p["n"], "n", 2)
    step = float(p["step"])
    cap = float(p["cap"])
    if step <= 0 or cap <= 0:
        raise BadParam("step and cap must be positive")
    data = np.arange(n) * step
    space = MetricSpace(
        "bounded-usual", data, param=cap,
        labels=[f"t{i}" for i in range(n)],
    )
    prefix = SequencePrefix(space, tuple(range(n)))
    return Fixture("bounded-line", space, prefix=prefix,
                   params={"n": n, "step": step, "cap": cap})


def _segment_chain_points(n, subdiv):
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
    return points, labels, members


def _segment_chain(params):
    p = _take(params, {"n": 12, "subdiv": 1}, "segment-chain")
    n = _positive_int(p["n"], "n", 2)
    subdiv = _positive_int(p["subdiv"], "subdiv", 1)
    points, labels, members = _segment_chain_points(n, subdiv)
    space = MetricSpace("sup-norm-sparse", points, labels=labels)
    prefix = SequencePrefix(space, tuple(range(len(points))))
    return Fixture(
        "segment-chain", space, prefix=prefix,
        params={"n": n, "subdiv": subdiv},
        meta={"members": members},
    )


def _tent_interp_family(n):
    """Piecewise tents walked between consecutive reciprocal nodes."""
    m_top = n + 1
    grid = [0.0] + [1.0 / m for m in range(m_top, 0, -1)]
    node_pos = {m: grid.index(1.0 / m) for m in range(1, m_top + 1)}
    rows = []
    tags = []
    for m in range(1, n + 1):
        for k in range(0 if m == 1 else 1, m + 2):
            vals = np.zeros(len(grid))
            vals[node_pos[m]] = 1.0 - k / (m + 1)
            vals[node_pos[m + 1]] = k / (m + 1)
            rows.append(vals)
            tags.append((m, k))
    return np.asarray(grid), np.vstack(rows), tags


def _tent_ramp_grid(n):
    pts = set(np.linspace(0.0, 1.0, 270).tolist())
    pts.update(1.0 / k for k in range(1, n + 2))
    return np.asarray(sorted(pts))


def _tent_family(params):
    p = _take(params, {"n": 10, "variant": "interp"}, "tent-family")
    n = _positive_int(p["n"], "n", 1)
    variant = p["variant"]
    if variant == "interp":
        grid, rows, tags = _tent_interp_family(n)
        domain = MetricSpace(
            "euclidean", grid, param=1,
            labels=[f"x{i}" for i in range(len(grid))],
        )
        fam_labels = [f"f{m}k{k}" for m, k in tags]
        meta = {"tags": tags, "grid": grid}
    elif variant == "ramp":
        grid = _tent_ramp_grid(n)
        domain = MetricSpace(
            "euclidean", grid, param=1,
            labels=[f"x{i}" for i in range(len(grid))],
        )
        rows = np.vstack(
            [np.minimum(m * grid, 1.0) for m in range(1, n + 1)]
        )
        fam_labels = [f"f{m}" for m in range(1, n + 1)]
        meta = {"grid": grid}
    else:
        raise BadParam(f"unknown tent-family variant {variant!r}")
    family = tuple(
        ScalarFunction(domain, rows[i], name=fam_labels[i])
        for i in range(len(rows))
    )
    space = MetricSpace(
        "function-sup", rows, param=domain.n, labels=fam_labels
    )
    prefix = SequencePrefix(space, tuple(range(space.n)))
    return Fixture(
        "tent-family", space, prefix=prefix, family=family, domain=domain,
        params={"n": n, "variant": variant}, meta=meta,
    )


def _harmonic_sums(params):
    p = _take(params, {"n": 500}, "harmonic-sums")
    n = _positive_int(p["n"], "n", 2)
    sums = np.cumsum(1.0 / np.arange(1, n + 1))
    space = MetricSpace(
        "euclidean", sums, param=1,
        labels=[f"H{k}" for k in range(1, n + 1)],
    )
    prefix = SequencePrefix(space, tuple(range(n)))
    f = ScalarFunction(space, np.sqrt(np.arange(1, n + 1)), name="sqrt-index")
    return Fixture("harmonic-sums", space, prefix=prefix, function=f,
                   params={"n": n})


def _sqrt_space(params):
    p = _take(params, {"n": 50}, "sqrt-space")
    n = _positive_int(p["n"], "n", 2)
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


def _naturals_plus(params):
    p = _take(params, {"n": 50}, "naturals-plus")
    n = _positive_int(p["n"], "n", 2)
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


def _rays_fixture(n, r_step):
    den = round(1.0 / r_step)
    if den < 1 or abs(den * r_step - 1.0) > 1e-9:
        raise BadParam(f"r_step {r_step} must evenly divide 1")
    points = [SparseVector({})]
    labels = ["o"]
    units = []
    for axis in range(1, n + 1):
        for i in range(1, den + 1):
            points.append(SparseVector({axis: i / den}))
            labels.append(f"r{axis}x{i}")
            if i == den:
                units.append(len(points) - 1)
    space = MetricSpace("sup-norm-sparse", points, labels=labels)
    prefix = SequencePrefix(space, tuple(units))
    return space, prefix


def _towers_fixture(n, kmax, scale):
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
    return space, prefix, f


def _scaled_units(params):
    p = _take(
        params,
        {"n": 20, "variant": "rays", "r_step": 0.05, "k": 12,
         "scale": "linear"},
        "scaled-unit-vectors",
    )
    n = _positive_int(p["n"], "n", 1)
    variant = p["variant"]
    if variant == "rays":
        space, prefix = _rays_fixture(n, float(p["r_step"]))
        return Fixture(
            "scaled-unit-vectors", space, prefix=prefix,
            params={"n": n, "variant": "rays", "r_step": float(p["r_step"])},
        )
    if variant == "towers":
        kmax = _positive_int(p["k"], "k", 1)
        space, prefix, f = _towers_fixture(n, kmax, p["scale"])
        return Fixture(
            "scaled-unit-vectors", space, prefix=prefix, function=f,
            params={"n": n, "variant": "towers", "k": kmax,
                    "scale": p["scale"]},
        )
    raise BadParam(f"unknown scaled-unit-vectors variant {variant!r}")


def _grid_interval(params):
    p = _take(params, {"a": 0.0, "b": 1.0, "count": 101}, "grid-interval")
    a, b = float(p["a"]), float(p["b"])
    count = _positive_int(p["count"], "count", 2)
    if not b > a:
        raise BadParam(f"need b > a, got [{a}, {b}]")
    data = np.linspace(a, b, count)
    space = MetricSpace(
        "euclidean", data, param=1, labels=[f"g{i}" for i in range(count)]
    )
    prefix = SequencePrefix(space, tuple(range(count)))
    return Fixture("grid-interval", space, prefix=prefix,
                   params={"a": a, "b": b, "count": count})


def _slow_spike_grid(params):
    p = _take(params, {"n": 64, "spikes": 8}, "slow-spike-grid")
    n = _positive_int(p["n"], "n", 2)
    spikes = _positive_int(p["spikes"], "spikes", 1)
    if spikes > n:
        raise BadParam("spikes cannot exceed the grid size")
    base = np.linspace(0.0, 1.0, n)
    data = np.concatenate([base, base[:spikes]])
    labels = [f"b{i}" for i in range(n)] + [f"dup{j}" for j in range(spikes)]
    space = MetricSpace("euclidean", data, param=1, labels=labels)
    vals = np.zeros(n + spikes)
    vals[n:] = 1.0 / np.sqrt(np.arange(1, spikes + 1))
    f = ScalarFunction(space, vals, name="spike-levels")
    return Fixture("slow-spike-grid", space, function=f,
                   params={"n": n, "spikes": spikes})


_BUILDERS = {
    "bounded-line": _bounded_line,
    "segment-chain": _segment_chain,
    "tent-family": _tent_family,
    "harmonic-sums": _harmonic_sums,
    "sqrt-space": _sqrt_space,
    "naturals-plus": _naturals_plus,
    "scaled-unit-vectors": _scaled_units,
    "grid-interval": _grid_interval,
    "slow-spike-grid": _slow_spike_grid,
}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


def make_fixture(name, **params):
    if name not in _BUILDERS:
        raise UnknownFixture(
            f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        )
    return _BUILDERS[name](params)


# ------------------------------------------------------------------ claims


def _claim_cap_saturation(fx):
    cid = "cap-saturation"
    cap = fx.params["cap"]
    span = (fx.params["n"] - 1) * fx.params["step"]
    if span < cap:
        return _ok(cid, "span below cap; nothing to saturate")
    d = fx.space.distance(0, fx.space.n - 1)
    if d == cap:
        return _ok(cid, f"d(ends) = {d}")
    return _bad(cid, f"d(ends) = {d}, expected cap {cap}")


def _claim_hop_radius_growth(fx):
    cid = "hop-radius-growth"
    n, step, cap = (fx.params[k] for k in ("n", "step", "cap"))
    eps = 1.5 * step
    k1, m1 = covering_profile(fx.space, eps)
    double = make_fixture("bounded-line", n=2 * n, step=step, cap=cap)
    k2, m2 = covering_profile(double.space, eps)
    want1 = math.ceil((n - 1) / 2)
    if k1 != 1 or k2 != 1:
        return _bad(cid, f"expected single components, got k = {k1}, {k2}")
    if m1 != want1:
        return _bad(cid, f"radius {m1} at size {n}, expected {want1}")
    if not m2 > m1:
        return _bad(cid, f"radius failed to grow: {m1} -> {m2}")
    return _ok(cid, f"radius {m1} -> {m2} when the line doubles")


def _far_separation(cid, space, groups, noun, nouns):
    """Claim that groups whose keys differ by two or more stay exactly 0.5
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
                return _bad(cid, f"{nouns} {i},{j} come {d} close, below 0.5")
            best = min(best, d)
    if math.isinf(best):
        return _ok(cid, f"no {noun} pair two apart at this size")
    if abs(best - 0.5) <= 1e-12:
        return _ok(cid, f"min separation {best}")
    return _bad(cid, f"min separation {best}, expected 0.5")


def _claim_far_segment_separation(fx):
    return _far_separation("far-segment-separation", fx.space,
                           fx.meta["members"], "segment", "segments")


def _claim_adjacent_touch(fx):
    cid = "adjacent-segments-touch"
    members = fx.meta["members"]
    for m in sorted(members)[:-1]:
        shared = set(members[m]) & set(members[m + 1])
        if not shared:
            return _bad(cid, f"segments {m} and {m + 1} share no endpoint")
    return _ok(cid, "every adjacent pair shares its endpoint")


def _claim_segment_step_size(fx):
    cid = "segment-step-size"
    s = fx.params["subdiv"]
    gaps = fx.prefix.gaps()
    pos = 0
    for m in range(1, fx.params["n"] + 1):
        kmax = s * (m + 1)  # each segment contributes kmax consecutive gaps
        want = 1.0 / kmax
        for _ in range(kmax):
            if pos >= len(gaps):
                return _bad(cid, "ran out of gaps early")
            if abs(gaps[pos] - want) > 1e-12:
                return _bad(
                    cid,
                    f"gap {gaps[pos]} at position {pos}, expected {want}",
                )
            pos += 1
    return _ok(cid, "all within-segment steps match 1/(subdiv*(m+1))")


def _claim_snake_prefix_qc(fx):
    cid = "snake-prefix-qc"
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
        return _ok(cid, f"consistent across {len(stages)} stages")
    w = verdict.witness
    return _bad(cid, f"gap {w.gap} at position {w.index} broke stage {w.stage}")


def _claim_chain_hop_floor(fx):
    cid = "chain-hop-floor"
    if fx.params["n"] < 14:
        return _ok(cid, "needs endpoints e8 and e14; size too small")
    graph = ChainGraph(fx.space, 0.25)
    x = fx.space.index_of("e8")
    y = fx.space.index_of("e14")
    witness = graph.find_chain(x, y)
    if witness is None:
        return _bad(cid, "e8 and e14 are not chain-connected at 0.25")
    floor = 2 * (7 - 4) - 1
    if witness.length >= floor:
        return _ok(cid, f"hop count {witness.length} >= {floor}")
    return _bad(cid, f"hop count {witness.length} below floor {floor}")


def _claim_profile_growth(fx):
    cid = "covering-profile-growth"
    stars = []
    for size in (8, 12, 16):
        other = make_fixture("segment-chain", n=size, subdiv=4)
        k, m_star = covering_profile(other.space, 0.25)
        stars.append(m_star)
    if stars[0] < stars[1] < stars[2]:
        return _ok(cid, f"radii {stars} strictly increase")
    return _bad(cid, f"radii {stars} fail to increase")


def _claim_tent_consecutive_gap(fx):
    cid = "tent-consecutive-gap"
    tags = fx.meta["tags"]
    gaps = fx.prefix.gaps()
    for t in range(len(tags) - 1):
        m_next, _ = tags[t + 1]
        want = 1.0 / (m_next + 1)
        if abs(gaps[t] - want) > 1e-12:
            return _bad(
                cid, f"gap {gaps[t]} before {tags[t + 1]}, expected {want}"
            )
    return _ok(cid, "every consecutive sup gap matches its family spacing")


def _claim_tent_far_separation(fx):
    groups = {}
    for idx, (m, _) in enumerate(fx.meta["tags"]):
        groups.setdefault(m, []).append(idx)
    return _far_separation("tent-far-family-separation", fx.space, groups,
                           "family", "families")


def _claim_ramp_consecutive_gap(fx):
    cid = "ramp-consecutive-gap"
    gaps = fx.prefix.gaps()
    for m in range(1, fx.params["n"]):
        want = 1.0 / (m + 1)
        if abs(gaps[m - 1] - want) > 1e-12:
            return _bad(cid, f"sup gap {gaps[m - 1]} at {m}, expected {want}")
    return _ok(cid, "sup gaps follow 1/(m+1)")


def _claim_ramp_oscillation(fx):
    cid = "ramp-oscillation-at-zero"
    grid = fx.meta["grid"]
    zero = int(np.argmin(np.abs(grid)))
    for m, g in enumerate(fx.family, start=1):
        at = int(np.argmin(np.abs(grid - 1.0 / m)))
        if abs(grid[at] - 1.0 / m) > 1e-12:
            return _bad(cid, f"1/{m} missing from the grid")
        osc = abs(g.values[at] - g.values[zero])
        if abs(osc - 1.0) > 1e-12:
            return _bad(cid, f"|f_{m}(1/{m}) - f_{m}(0)| = {osc}")
    return _ok(cid, "every ramp swings by exactly 1 between 0 and 1/m")


def _claim_ramp_chain_pass(fx):
    cid = "ramp-chain-delegation"
    report = equi_chain_continuity_check(
        list(fx.family), 0.2, chain=True, delta=0.04
    )
    if report.passed:
        return _ok(cid, f"uniform scale {report.uniform_delta:.6g}")
    return _bad(cid, f"failed with uniform scale {report.uniform_delta:.6g}")


def _claim_ramp_plain_fail(fx):
    cid = "ramp-plain-failure"
    if fx.params["n"] < 6:
        return _ok(cid, "family too small to break the plain check at 0.04")
    report = equi_chain_continuity_check(
        list(fx.family), 0.2, chain=False, delta=0.04
    )
    if report.passed:
        return _bad(cid, "plain check unexpectedly passed at scale 0.04")
    osc = report.witness[3]
    if osc > 0.5:
        return _ok(cid, f"witness oscillation {osc:.6g} > 1/2")
    return _bad(cid, f"witness oscillation {osc:.6g} not above 1/2")


def _claim_harmonic_step(fx):
    cid = "harmonic-step"
    gaps = fx.prefix.gaps()
    for k in range(len(gaps)):
        want = 1.0 / (k + 2)
        if abs(gaps[k] - want) > 1e-12:
            return _bad(cid, f"gap {gaps[k]} at {k}, expected {want}")
    return _ok(cid, "partial-sum steps match 1/(k+1)")


def _claim_harmonic_qc(fx):
    cid = "harmonic-small-steps"
    if fx.params["n"] < 102:
        return _ok(cid, "needs 102 points for the reference schedule")
    verdict = quasi_cauchy_test(
        fx.prefix, ToleranceSchedule(((0.1, 10), (0.01, 100)))
    )
    if verdict.consistent:
        return _ok(cid, "consistent at stages (0.1, 10), (0.01, 100)")
    return _bad(cid, f"falsified at {verdict.witness}")


def _claim_harmonic_not_cauchy(fx):
    cid = "harmonic-tail-spread"
    if fx.params["n"] < 21:
        return _ok(cid, "tail too short to spread past 0.5")
    verdict = cauchy_test(fx.prefix, ToleranceSchedule(((0.5, 10),)))
    if not verdict.consistent:
        return _ok(cid, f"tail pair {verdict.witness.index},"
                        f"{verdict.witness.partner} spreads "
                        f"{verdict.witness.gap:.4g}")
    return _bad(cid, "tail stayed within 0.5; partial sums cannot do that")


def _claim_harmonic_slope(fx):
    cid = "harmonic-slope-formula"
    n = fx.params["n"]
    report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
    want = n / (math.sqrt(n) + math.sqrt(n - 1))
    if abs(report.constant - want) <= 1e-9:
        return _ok(cid, f"constant {report.constant:.12g}")
    return _bad(cid, f"constant {report.constant!r}, expected {want!r}")


def _claim_harmonic_approx(fx):
    cid = "harmonic-approx-bound"
    decomp = approximate(fx.function, 0.5)
    return _ok(cid, f"sup error {decomp.sup_error:.6g} < 0.5")


def _claim_sqrt_even_flat(fx):
    cid = "even-subprefix-flat"
    evens = tuple(p for p in range(len(fx.prefix)) if (p + 1) % 2 == 0)
    if len(evens) < 2:
        return _ok(cid, "too few even positions to compare")
    sub = fx.prefix.select(evens)
    report = seq_lipschitz_constant(fx.function, sub, "all-pairs")
    if report.constant == 0.0:
        return _ok(cid, "indicator constant on the even positions")
    return _bad(cid, f"constant {report.constant} on the even positions")


def _claim_sqrt_alternation_slope(fx):
    cid = "alternation-slope-growth"
    n = fx.params["n"]
    report = seq_lipschitz_constant(fx.function, fx.prefix, "consecutive")
    want = math.sqrt(n) + math.sqrt(n - 1)
    if abs(report.constant - want) > 1e-9:
        return _bad(cid, f"constant {report.constant!r}, expected {want!r}")
    half = make_fixture("sqrt-space", n=max(2, n // 2))
    smaller = seq_lipschitz_constant(
        half.function, half.prefix, "consecutive"
    ).constant
    if report.constant > smaller:
        return _ok(cid, f"slope {smaller:.4g} -> {report.constant:.4g}")
    return _bad(cid, f"slope failed to grow: {smaller} -> {report.constant}")


def _claim_chi_lipschitz_size(fx):
    cid = "indicator-slope-equals-size"
    n = fx.params["n"]
    report = lipschitz_constant(fx.function)
    if abs(report.constant - n) > 1e-9 * n:
        return _bad(cid, f"constant {report.constant}, expected {n}")
    i, j = report.witness
    pair = {fx.space.label_of(i), fx.space.label_of(j)}
    if pair == {f"n{n}", f"p{n}"}:
        return _ok(cid, f"constant {report.constant:.9g} at {sorted(pair)}")
    return _bad(cid, f"witness {sorted(pair)}, expected n{n} with p{n}")


def _claim_lits_quarter_grows(fx):
    cid = "small-scale-slope-growth"
    n = fx.params["n"]
    if n < 10:
        return _ok(cid, "growth comparison needs n >= 10")
    big = lits_modulus(fx.function, 0.25).constant
    half = make_fixture("naturals-plus", n=n // 2)
    small = lits_modulus(half.function, 0.25).constant
    if abs(big - n) > 1e-9 * n:
        return _bad(cid, f"scale-0.25 slope {big}, expected {n}")
    if big > small:
        return _ok(cid, f"slope {small:.4g} -> {big:.4g} as size doubles")
    return _bad(cid, f"slope failed to grow: {small} -> {big}")


def _claim_local_quarter_profile(fx):
    cid = "local-slope-ladder"
    n = fx.params["n"]
    if n < 5:
        return _ok(cid, "no pair closer than 0.25 below n = 5")
    profile = local_lipschitz_profile(fx.function, 0.25)
    for m in (5, n // 2, n):
        if m < 5:
            continue
        idx = fx.space.index_of(f"n{m}")
        if abs(profile[idx] - m) > 1e-9 * m:
            return _bad(cid, f"profile at n{m} is {profile[idx]}, expected {m}")
    lonely = fx.space.index_of("n3")
    if profile[lonely] != 0.0:
        return _bad(cid, f"profile at n3 is {profile[lonely]}, expected 0")
    return _ok(cid, "per-point slopes climb linearly and vanish early")


def _claim_ward_jump(fx):
    cid = "small-step-image-jump"
    schedule = ToleranceSchedule.default(fx.space, len(fx.prefix))
    result = ward_falsifier(
        fx.function, fx.space, 0.5, schedule, budget=500
    )
    if not result.found:
        return _bad(cid, "no witness found for the indicator jump")
    a, b = result.pair
    la, lb = fx.space.label_of(a), fx.space.label_of(b)
    if {la[0], lb[0]} == {"n", "p"}:
        return _ok(cid, f"jump {result.image_gap} across {la},{lb}")
    return _bad(cid, f"witness {la},{lb} is not an integer/offset pair")


def _claim_rays_bqc(fx):
    cid = "rays-single-component"
    result = bourbaki_qc_test(fx.prefix, fx.space, 0.07)
    if result.consistent and result.n0 == 0:
        return _ok(cid, "whole tail sits in one component at 0.07")
    return _bad(cid, f"status {result.status}, n0 {result.n0}")


def _claim_rays_unit_separation(fx):
    cid = "rays-unit-separation"
    lo, hi = math.inf, -math.inf
    for offset, _, d in fx.space.pair_blocks(fx.prefix.indices):
        upper = d[above_diagonal(offset, d)]
        lo, hi = upper.min(initial=lo), upper.max(initial=hi)
    if lo < 1.0 or hi > 1.0:
        return _bad(cid, f"tip distances stray from 1: {lo}..{hi}")
    return _ok(cid, "all ray tips exactly 1 apart")


def _claim_towers_profile_blowup(fx):
    cid = "tower-slope-blowup"
    n, kmax = fx.params["n"], fx.params["k"]
    profile = local_lipschitz_profile(fx.function, 0.5)
    floor = float(n) ** kmax
    top = float(profile.max())
    if top >= floor:
        return _ok(cid, f"max local slope {top:.6g} >= {floor:.6g}")
    return _bad(cid, f"max local slope {top:.6g} below {floor:.6g}")


def canonical_claims(name, **params):
    """Checkable facts attached to a fixture; empty for plain grids."""
    if name not in _BUILDERS:
        raise UnknownFixture(
            f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        )
    if name == "bounded-line":
        return [
            Claim("cap-saturation",
                  "the metric saturates at the cap across the span",
                  _claim_cap_saturation),
            Claim("hop-radius-growth",
                  "one chain component whose hop radius grows with the line",
                  _claim_hop_radius_growth),
        ]
    if name == "segment-chain":
        return [
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
        ]
    if name == "tent-family":
        variant = params.get("variant", "interp")
        if variant == "ramp":
            return [
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
            ]
        return [
            Claim("tent-consecutive-gap",
                  "consecutive tent sup gaps equal the family spacing",
                  _claim_tent_consecutive_gap),
            Claim("tent-far-family-separation",
                  "tent families two apart stay exactly 0.5 apart",
                  _claim_tent_far_separation),
        ]
    if name == "harmonic-sums":
        return [
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
        ]
    if name == "sqrt-space":
        return [
            Claim("even-subprefix-flat",
                  "the even-position subsequence sees a constant function",
                  _claim_sqrt_even_flat),
            Claim("alternation-slope-growth",
                  "the alternating slope equals sqrt(n)+sqrt(n-1) and grows",
                  _claim_sqrt_alternation_slope),
        ]
    if name == "naturals-plus":
        return [
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
        ]
    if name == "scaled-unit-vectors":
        variant = params.get("variant", "rays")
        if variant == "towers":
            return [
                Claim("tower-slope-blowup",
                      "local slopes at scale 0.5 exceed n^k",
                      _claim_towers_profile_blowup),
            ]
        return [
            Claim("rays-single-component",
                  "every ray tip chains to every other through the origin",
                  _claim_rays_bqc),
            Claim("rays-unit-separation",
                  "distinct ray tips sit exactly 1 apart",
                  _claim_rays_unit_separation),
        ]
    return []

"""Randomized spaces, brute-force oracles, and implication cross-checks.

The oracles here are deliberately naive: plain DFS for components, full
enumeration for short chains, a min-max closure of the distance matrix
for the chainability threshold.  They exist to disagree with the fast
implementations when one of the two is wrong, so they share no code with
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chains import ChainGraph
from .errors import BadSpec, NonPositiveEpsilon, TooLarge, _integral, _real
from .metric import MetricSpace
from .moduli import ScalarFunction, lipschitz_constant, lits_modulus, seq_lipschitz_constant
from .sequences import (
    SequencePrefix,
    ToleranceSchedule,
    cauchy_test,
    pseudo_cauchy_test,
    quasi_cauchy_test,
    shift_schedule,
    splice_to_quasi_cauchy,
)

__all__ = [
    "random_space",
    "oracle_components",
    "oracle_chain_exists",
    "chainability_threshold",
    "TrialFailure",
    "SuiteReport",
    "implication_suite",
]

ORACLE_COMPONENT_LIMIT = 64
ORACLE_CHAIN_POINTS = 8
ORACLE_CHAIN_HOPS = 4


# ------------------------------------------------------------- generators


def random_space(kind, n, seed=0, **params):
    """Draw a reproducible random space.

    kinds: "euclidean-cloud" (dim, scale) and "repaired-matrix" (density).
    The same (kind, n, seed, params) always gives the same space.
    """
    count = _integral(n)
    if count is None or count < 1:
        raise BadSpec(f"need at least one point, got n={n}")
    seed = _integral(seed)
    if seed is None or seed < 0:
        raise BadSpec("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    if kind == "euclidean-cloud":
        dim = _integral(params.pop("dim", 2))
        scale = _real(params.pop("scale", 1.0))
        if params:
            raise BadSpec(f"unknown parameters {sorted(params)}")
        if dim is None or scale is None or dim < 1 or scale <= 0:
            raise BadSpec("euclidean-cloud needs dim >= 1 and scale > 0")
        pts = rng.uniform(0.0, scale, size=(count, dim))
        return MetricSpace("euclidean", pts, param=dim)
    if kind == "repaired-matrix":
        given = params.pop("density", 0.5)
        if params:
            raise BadSpec(f"unknown parameters {sorted(params)}")
        density = _real(given)
        if density is None or not 0.0 <= density <= 1.0:
            raise BadSpec(f"density must lie in [0, 1], got {given}")
        return MetricSpace("explicit-matrix", _repaired_matrix(count, density, rng))
    raise BadSpec(f"unknown random space kind {kind!r}")


def _repaired_matrix(n, density, rng):
    # random partial edge weights, then a Floyd-Warshall closure in O(n^3)
    # time and O(n^2) memory; pairs never reached stay at a constant
    # exceeding every finite entry, which cannot break the triangle
    # inequality
    raw = rng.uniform(0.5, 1.5, size=(n, n))
    keep = rng.random(size=(n, n)) < density
    closed = np.where(keep | keep.T, np.minimum(raw, raw.T), np.inf)
    np.fill_diagonal(closed, 0.0)
    # the diagonal is 0, so row and column k hold still during step k
    for k in range(n):
        np.minimum(closed, closed[:, k, None] + closed[k], out=closed)
    finite = closed[np.isfinite(closed)]
    fill = float(finite.max()) + 1.0 if finite.size else 1.0
    closed[~np.isfinite(closed)] = fill
    return closed


# ---------------------------------------------------------------- oracles


def oracle_components(space, eps):
    """Component partition at scale eps by plain DFS; small inputs only.

    Returns a list of sorted index lists, ordered by smallest member.
    """
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    if space.n > ORACLE_COMPONENT_LIMIT:
        raise TooLarge(
            f"oracle_components is capped at {ORACLE_COMPONENT_LIMIT} points,"
            f" got {space.n}"
        )
    seen = [False] * space.n
    out = []
    for start in range(space.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in range(space.n):
                if not seen[y] and space.distance(x, y) < eps:
                    seen[y] = True
                    stack.append(y)
        out.append(sorted(comp))
    return out


def oracle_chain_exists(space, x, y, eps, max_hops):
    """Exhaustive search for a chain of at most max_hops steps.

    Enumerates every interior assignment, so both guards are tiny.
    """
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    if space.n > ORACLE_CHAIN_POINTS:
        raise TooLarge(
            f"oracle_chain_exists is capped at {ORACLE_CHAIN_POINTS} points,"
            f" got {space.n}"
        )
    if max_hops > ORACLE_CHAIN_HOPS:
        raise TooLarge(
            f"oracle_chain_exists is capped at {ORACLE_CHAIN_HOPS} hops,"
            f" got {max_hops}"
        )
    x = space.check_index(x)
    y = space.check_index(y)
    if x == y:
        return True
    for hops in range(1, max_hops + 1):
        for interior in _tuples(space.n, hops - 1):
            path = (x, *interior, y)
            if all(
                space.distance(path[t], path[t + 1]) < eps
                for t in range(hops)
            ):
                return True
    return False


def _tuples(n, length):
    if length == 0:
        yield ()
        return
    for head in range(n):
        for rest in _tuples(n, length - 1):
            yield (head, *rest)


def chainability_threshold(space):
    """Largest bottleneck distance: the space chains at any scale above it.

    A min-max closure of the distance matrix, so reach[i, j] ends as the
    least possible largest step on a path from i to j.  It only compares
    distances, so the value is an exact matrix entry.  O(n^3) time,
    O(n^2) memory.
    """
    reach = space.distance_matrix()
    for k in range(space.n):
        np.minimum(reach, np.maximum(reach[:, k, None], reach[k]), out=reach)
    return float(reach.max())


# ----------------------------------------------------- implication checks


@dataclass(frozen=True)
class TrialFailure:
    check: str
    trial: int
    detail: str
    shrunk: str


@dataclass(frozen=True)
class SuiteReport:
    trials: int
    seed: int
    checked: tuple
    failures: tuple

    @property
    def ok(self):
        return not self.failures


_DEFAULT_OPS = {
    "quasi_cauchy_test": quasi_cauchy_test,
    "cauchy_test": cauchy_test,
    "pseudo_cauchy_test": pseudo_cauchy_test,
    "lipschitz_constant": lipschitz_constant,
    "lits_modulus": lits_modulus,
    "seq_lipschitz_constant": seq_lipschitz_constant,
    "components": lambda space, eps: ChainGraph(space, eps).components(),
    "splice": splice_to_quasi_cauchy,
}


def _draw_space(rng, trial):
    if trial % 2 == 0:
        n = int(rng.integers(5, 25))
        dim = int(rng.integers(1, 4))
        scale = float(rng.uniform(1.0, 5.0))
        return random_space(
            "euclidean-cloud", n, seed=int(rng.integers(2**32)),
            dim=dim, scale=scale,
        )
    n = int(rng.integers(5, 21))
    density = float(rng.uniform(0.3, 0.9))
    return random_space(
        "repaired-matrix", n, seed=int(rng.integers(2**32)), density=density
    )


def _draw_prefix(rng, space):
    length = int(rng.integers(6, 31))
    idx = tuple(int(v) for v in rng.integers(0, space.n, size=length))
    return SequencePrefix(space, idx)


def _draw_schedule(rng, space, prefix):
    # factor > 1 keeps the stage satisfiable, < 1 usually falsifies it;
    # both kinds must appear or permissive bugs stay invisible
    gaps = prefix.gaps()
    top = float(np.max(gaps)) if len(gaps) else 1.0
    top = max(top, space.min_positive_distance() or 1.0)
    factor = float(rng.choice((1.5, 1.1, 0.7)))
    stages = [(top * factor + 1e-9, 0)]
    mid = len(prefix) // 2
    if mid >= 1 and len(prefix) >= 4 and float(np.max(gaps[mid:])) > 0:
        f2 = float(rng.choice((1.0 + 1e-9, 0.8)))
        eps2 = float(np.max(gaps[mid:])) * f2
        if eps2 < stages[0][0]:
            stages.append((eps2, mid))
    return ToleranceSchedule(tuple(stages))


def _partition_key(components):
    return sorted(tuple(sorted(c)) for c in components)


@dataclass(frozen=True)
class _Trial:
    """One sampled configuration plus everything a check needs."""

    trial: int
    ops: dict
    space: MetricSpace
    prefix: SequencePrefix
    schedule: ToleranceSchedule
    values: np.ndarray
    delta: float
    eps_pair: list

    def describe(self):
        return (
            f"space(n={self.space.n}, {self.space.provider}), "
            f"prefix={self.prefix.indices}, schedule={self.schedule.stages}"
        )


def _draw_trial(rng, trial, ops):
    space = _draw_space(rng, trial)
    prefix = _draw_prefix(rng, space)
    schedule = _draw_schedule(rng, space, prefix)
    values = rng.uniform(-1.0, 1.0, size=space.n)
    scale = max(space.diameter(), 1e-6)
    delta = float(rng.uniform(0.2, 1.0) * scale)
    eps_pair = sorted(float(rng.uniform(0.05, 1.2) * scale) for _ in range(2))
    return _Trial(trial, ops, space, prefix, schedule, values, delta, eps_pair)


def _check_status_ladder(t):
    """All-pairs tightness implies small steps implies some close pair."""
    ops = t.ops
    cauchy = ops["cauchy_test"](t.prefix, t.schedule)
    qc = ops["quasi_cauchy_test"](t.prefix, t.schedule)
    pseudo = ops["pseudo_cauchy_test"](t.prefix, t.schedule)
    if cauchy.consistent and not qc.consistent:
        return f"all-pairs consistent but a consecutive gap broke: {qc.witness}"
    if qc.consistent and not pseudo.consistent:
        return f"small steps consistent but no close pair: {pseudo.witness}"
    return None


def _check_sequence_oracle(t):
    """Re-derive each verdict with plain loops and demand exact agreement."""
    ops = t.ops
    space, prefix, schedule = t.space, t.prefix, t.schedule
    idx = prefix.indices
    last = len(idx) - 1

    qc = ops["quasi_cauchy_test"](prefix, schedule)
    expect = None
    for j, (eps, n0) in enumerate(schedule.stages):
        for k in range(n0, last):
            if not space.distance(idx[k], idx[k + 1]) < eps:
                expect = (j, k)
                break
        if expect:
            break
    got = None if qc.consistent else (qc.witness.stage, qc.witness.index)
    if got != expect:
        return f"consecutive-gap verdict {got} but direct scan says {expect}"

    cauchy = ops["cauchy_test"](prefix, schedule)
    expect = None
    for j, (eps, n0) in enumerate(schedule.stages):
        for a in range(n0, last + 1):
            for b in range(a + 1, last + 1):
                if not space.distance(idx[a], idx[b]) < eps:
                    expect = (j, a, b)
                    break
            if expect:
                break
        if expect:
            break
    got = (
        None if cauchy.consistent
        else (cauchy.witness.stage, cauchy.witness.index, cauchy.witness.partner)
    )
    if got != expect:
        return f"all-pairs verdict {got} but direct scan says {expect}"

    pseudo = ops["pseudo_cauchy_test"](prefix, schedule)
    expect = None
    for j, (eps, n0) in enumerate(schedule.stages):
        if n0 >= last:
            continue  # no pair to ask for, same skip as the implementation
        best = math.inf
        for a in range(n0, last + 1):
            for b in range(a + 1, last + 1):
                best = min(best, space.distance(idx[a], idx[b]))
        if not best < eps:
            expect = (j, best)
            break
    got = (
        None if pseudo.consistent
        else (pseudo.witness.stage, pseudo.witness.gap)
    )
    if got != expect:
        return f"close-pair verdict {got} but direct scan says {expect}"
    return None


def _check_moduli_order(t):
    ops = t.ops
    f = ScalarFunction(t.space, t.values)
    if t.space.n < 2:
        return None
    lip = ops["lipschitz_constant"](f).constant
    small = ops["lits_modulus"](f, t.delta).constant
    if not (lip >= small or math.isinf(lip)):
        return f"global slope {lip} below scale-{t.delta:g} slope {small}"
    wide = ops["lits_modulus"](f, t.space.diameter() + 1.0).constant
    if not (wide == lip or (math.isinf(wide) and math.isinf(lip))):
        return f"slope at scale beyond diameter is {wide}, expected {lip}"
    allp = ops["seq_lipschitz_constant"](f, t.prefix, "all-pairs").constant
    cons = ops["seq_lipschitz_constant"](f, t.prefix, "consecutive").constant
    if not (allp >= cons or math.isinf(allp)):
        return f"all-pairs slope {allp} below consecutive slope {cons}"
    return None


def _check_moduli_oracle(t):
    """Recompute both global moduli with a plain double loop."""
    ops = t.ops
    f = ScalarFunction(t.space, t.values)
    n = t.space.n
    if n < 2:
        return None

    def brute(limit):
        best = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                d = t.space.distance(i, j)
                if limit is not None and not d < limit:
                    continue
                df = abs(t.values[i] - t.values[j])
                if d == 0.0:
                    if df > 0.0:
                        return math.inf
                    continue
                best = max(best, df / d)
        return best

    lip = ops["lipschitz_constant"](f).constant
    if lip != brute(None):
        return f"global slope {lip} but the double loop says {brute(None)}"
    small = ops["lits_modulus"](f, t.delta).constant
    if small != brute(t.delta):
        return (
            f"scale-{t.delta:g} slope {small} but the double loop says"
            f" {brute(t.delta)}"
        )
    return None


def _check_component_structure(t):
    ops = t.ops
    lo, hi = t.eps_pair
    if lo == hi:
        hi = lo * 1.5 + 1e-9
    fine = ops["components"](t.space, lo)
    coarse = ops["components"](t.space, hi)
    if len(fine) < len(coarse):
        return (
            f"{len(fine)} components at {lo:g} but {len(coarse)} at {hi:g}"
        )
    owner = {}
    for ci, comp in enumerate(coarse):
        for x in comp:
            owner[x] = ci
    for comp in fine:
        owners = {owner[x] for x in comp}
        if len(owners) != 1:
            return f"component {sorted(comp)[:6]} splits across scales"
    if t.space.n <= ORACLE_COMPONENT_LIMIT:
        got = _partition_key(fine)
        want = _partition_key(oracle_components(t.space, lo))
        if got != want:
            return f"partition at {lo:g} disagrees with the DFS oracle"
    return None


def _check_splice_roundtrip(t):
    ops = t.ops
    threshold = chainability_threshold(t.space)
    eps0 = threshold * 1.6 + 1e-9
    eps1 = threshold * 1.3 + 1e-9
    stages = [(eps0, 0)]
    mid = len(t.prefix) // 2
    if eps1 < eps0 and mid >= 1 and mid <= len(t.prefix) - 2:
        stages.append((eps1, mid))
    schedule = ToleranceSchedule(tuple(stages))
    out, embedding = ops["splice"](t.prefix, t.space, schedule)
    if len(embedding) != len(t.prefix):
        return "embedding length differs from the input prefix"
    if any(b <= a for a, b in zip(embedding, embedding[1:])):
        return "embedding is not strictly increasing"
    for pos, where in zip(range(len(t.prefix)), embedding):
        if out.indices[where] != t.prefix.indices[pos]:
            return f"input position {pos} not preserved at {where}"
    shifted = shift_schedule(schedule, embedding)
    verdict = quasi_cauchy_test(out, shifted)
    if not verdict.consistent:
        return f"spliced walk still breaks its schedule: {verdict.witness}"
    return None


_CHECKS = {
    "status-ladder": _check_status_ladder,
    "sequence-oracle": _check_sequence_oracle,
    "moduli-order": _check_moduli_order,
    "moduli-oracle": _check_moduli_oracle,
    "component-structure": _check_component_structure,
    "splice-roundtrip": _check_splice_roundtrip,
}


def _shrink(t, check):
    """Greedy prefix shortening; keeps the failure alive while it can."""
    best = t
    while len(best.prefix) > 2:
        cut = best.prefix.subrange(0, len(best.prefix) - 1)
        trial = _shrunk_trial(best, cut)
        if trial is not None and _still_fails(trial, check):
            best = trial
            continue
        half = best.prefix.subrange(0, max(2, len(best.prefix) // 2))
        trial = _shrunk_trial(best, half)
        if (
            len(half) < len(best.prefix)
            and trial is not None
            and _still_fails(trial, check)
        ):
            best = trial
            continue
        break
    return best.describe()


def _still_fails(trial, check):
    try:
        return check(trial) is not None
    except TooLarge:
        return False
    except Exception:
        return True


def _shrunk_trial(t, prefix):
    try:
        schedule = _draw_schedule(np.random.default_rng(0), t.space, prefix)
        return replace(t, prefix=prefix, schedule=schedule)
    except Exception:
        return None


def implication_suite(trials=25, seed=0, overrides=None):
    """Run every structural implication on random inputs.

    overrides swaps named operations for instrumented ones, so a test can
    verify the suite notices a deliberately broken implementation.
    """
    count = _integral(trials)
    if count is None or count < 1:
        raise BadSpec(f"need at least one trial, got {trials}")
    seed = _integral(seed)
    if seed is None or seed < 0:
        raise BadSpec("seed must be a nonnegative integer")
    ops = dict(_DEFAULT_OPS)
    if overrides:
        unknown = set(overrides) - set(ops)
        if unknown:
            raise BadSpec(f"unknown operations {sorted(unknown)}")
        ops.update(overrides)
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(count):
        t = _draw_trial(rng, trial, ops)
        for name, check in _CHECKS.items():
            try:
                detail = check(t)
            except TooLarge:
                continue
            except Exception as exc:  # a crash is a failure with a traceback
                failures.append(
                    TrialFailure(name, trial, f"raised {exc!r}", t.describe())
                )
                continue
            if detail is not None:
                failures.append(
                    TrialFailure(name, trial, detail, _shrink(t, check))
                )
    return SuiteReport(count, seed, tuple(_CHECKS), tuple(failures))

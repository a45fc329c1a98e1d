"""Lipschitz-type moduli, continuity-class checks, and spike builders.

All moduli are finite suprema of |f(x)-f(y)| / d(x,y) over some pair set.
Conventions used throughout: an empty pair set has supremum 0, and a
zero-distance pair with differing values reports +inf.  A value gap or a
slope past float64's largest value is +inf as well, with no warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metric
from .chains import ChainGraph
from .errors import (
    DegenerateSpace,
    EmptyFamily,
    MalformedInput,
    OverlappingBalls,
    ShortPrefix,
    check_eps,
)
from .metric import MetricSpace, SparseVector, _floats, _integral, _real
from .sequences import SequencePrefix, quasi_cauchy_test

__all__ = [
    "ScalarFunction",
    "ModulusReport",
    "WardResult",
    "EquiContinuityReport",
    "LpTailReport",
    "lipschitz_constant",
    "lits_modulus",
    "seq_lipschitz_constant",
    "local_lipschitz_profile",
    "ward_falsifier",
    "equi_chain_continuity_check",
    "lp_tail_criterion",
    "spike_function",
]


@dataclass(frozen=True)
class ScalarFunction:
    """Real values attached to every point of a space."""

    space: object
    values: np.ndarray
    name: str | None = None

    def __post_init__(self):
        try:  # a copy: the caller's array stays writable and unshared
            vals = np.array(_floats(self.values))
        except MalformedInput:
            raise MalformedInput("function values must be numbers") from None
        if vals.shape != (self.space.n,):
            raise MalformedInput(
                f"function has {vals.shape} values for {self.space.n} points"
            )
        if not np.isfinite(vals).all():
            raise MalformedInput("function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, i):
        return float(self.values[self.space.check_index(i)])


@dataclass(frozen=True)
class ModulusReport:
    """A modulus value together with the pair that realizes it.

    witness holds space indices for the space-wide moduli and prefix
    positions for the sequence moduli; it is None exactly when no pair
    qualified (vacuous supremum 0).
    """

    kind: str
    constant: float
    scale: float | None = None
    witness: tuple | None = None


@np.errstate(over="ignore")  # a gap or slope past float64 is +inf
def _top_ratio(d, here, there, limit=math.inf):
    """(ratio, flat index) of the first largest |there - here| / d with
    d < limit, or None if none counts: a zero-distance pair with differing
    values gives +inf at once, an equal-value duplicate tells nothing."""
    df = np.abs(there - here)
    zero = d == 0.0
    hot = zero & (df > 0.0)
    if hot.any():
        return math.inf, int(np.argmax(hot))
    live = (d < limit) & ~zero
    if not live.any():
        return None
    ratios = np.divide(df, d, out=np.full(d.shape, -math.inf), where=live)
    top = int(np.argmax(ratios))
    return float(ratios.flat[top]), top


def _sup_ratio(space, values, members=None, limit=None):
    """(constant, witness) of sup |f(x)-f(y)|/d(x,y) over pairs of members.

    The witness is a pair of positions in members (space indices when
    members is None).  Pairs at distance >= limit are excluded when limit is
    given.  First zero-distance pair with differing values short-circuits to
    +inf.  Lexicographically first maximizing pair wins.
    """
    members = np.arange(space.n) if members is None else members
    members = np.asarray(members, dtype=int)
    limit = math.inf if limit is None else limit
    vals = values[members]
    best = 0.0
    witness = None
    for offset, rows, d in space.pair_blocks(members):
        top = _top_ratio(d, values[rows, None], vals[offset:], limit)
        if top is None:
            continue
        hot = d.flat[top[1]] == 0.0  # a zero-distance clash: +inf, stop
        if hot or witness is None or top[0] > best:
            best = top[0]
            a, b = divmod(top[1], d.shape[1])
            witness = (offset + a, offset + b)
        if hot:
            break
    return best, witness


def lipschitz_constant(f):
    """Global modulus: supremum of the pair ratio over the whole space."""
    if f.space.n == 1:
        raise DegenerateSpace("a single point admits no pair ratios")
    constant, witness = _sup_ratio(f.space, f.values)
    return ModulusReport("lipschitz", constant, None, witness)


def lits_modulus(f, delta):
    """Modulus over pairs strictly closer than delta."""
    delta = check_eps(delta)
    if f.space.n == 1:
        raise DegenerateSpace("a single point admits no pair ratios")
    constant, witness = _sup_ratio(f.space, f.values, limit=delta)
    return ModulusReport("lits", constant, delta, witness)


def seq_lipschitz_constant(f, prefix, mode="consecutive"):
    """Pair-ratio supremum along a prefix.

    mode "consecutive" scans the steps (k, k+1); mode "all-pairs" scans
    every pair of positions.  Witness is a pair of prefix positions.
    """
    if prefix.space is not f.space:
        raise MalformedInput("the prefix lives on a different space")
    if len(prefix) < 2:
        raise ShortPrefix(len(prefix))
    idx = np.asarray(prefix.indices, dtype=int)
    vals = f.values[idx]
    if mode == "consecutive":
        top = _top_ratio(prefix.gaps(), vals[:-1], vals[1:])
        if top is None:
            return ModulusReport("qc-seq", 0.0, None, None)
        return ModulusReport("qc-seq", top[0], None, (top[1], top[1] + 1))
    if mode != "all-pairs":
        raise MalformedInput(f"unknown sequence modulus mode {mode!r}")
    constant, witness = _sup_ratio(prefix.space, f.values, idx)
    return ModulusReport("cauchy-seq", constant, None, witness)


def local_lipschitz_profile(f, delta):
    """Per-point Lipschitz constant of f restricted to the open delta-ball.

    One scan over the row blocks of ``pair_blocks``: each block row's ball
    is its columns with d < delta.  The block's balls, sorted by size, are
    padded with their own last member and stacked into (g, m, m) groups of
    at most ``metric._BLOCK_ELEMENTS`` doubles of kernel work, counted as
    pairs times the space's pair width like ``pair_blocks``' own blocks,
    one kernel call per group, so the kernel work is the sum of |B|^2 in
    cache-sized stacks.  A ball with more pairs than that is taken in
    chunks of rows, each against the columns from its first row on.
    """
    delta = check_eps(delta)
    space, values = f.space, f.values
    budget = max(1, metric._BLOCK_ELEMENTS // space._pair_width)  # pairs
    out = np.zeros(space.n)
    idx = np.arange(space.n)
    for offset, _, d in space.pair_blocks(idx, idx):
        near = d < delta
        sizes = near.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        members = np.flatnonzero(near) % space.n  # each row's ball in turn
        order = np.argsort(sizes, kind="stable")
        order = order[sizes[order] >= 2]
        # the group from position i takes every later j whose j - i + 1
        # balls of sizes[order[j]]^2 pairs fit; reach rises strictly in j
        reach = np.arange(order.size) + 1 - budget // sizes[order] ** 2
        i = 0
        while i < order.size:
            j = max(i + 1, int(np.searchsorted(reach, i, side="right")))
            group = order[i:j]
            width = sizes[group[-1]]
            pad = np.minimum(np.arange(width), sizes[group, None] - 1)
            balls = members[starts[group, None] + pad]
            # a ball over the budget goes in row chunks, each against
            # its own and the later columns: every pair once or twice
            step = max(1, budget // (group.size * width))
            top = np.zeros(group.size)
            for k in range(0, width, step):
                rows, cols = balls[:, k:k + step], balls[:, k:]
                top = np.maximum(top, _ratio_max(space, values, rows, cols))
            out[offset + group] = top
            i = j
    return out


def _ratio_max(space, values, rows, cols):
    """Per stacked ball, the largest ratio over rows x cols, or 0.

    Each ratio is |f(y) - f(z)| / d(y, z) as in _top_ratio: |a / b| equals
    |a| / |b| exactly, so a -0.0 matrix entry is a zero distance too.  A
    zero distance gives inf for a clash and nan, which fmax skips, for
    equal values, such as a ball's padding repeating a member.
    """
    ii, jj = rows[:, :, None], cols[:, None, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = values[jj] - values[ii]
        np.divide(ratios, space._pairs(ii, jj), out=ratios)
    np.abs(ratios, out=ratios)
    return np.fmax.reduce(ratios, axis=(1, 2), initial=0.0)


@dataclass(frozen=True)
class WardResult:
    """Outcome of the gap-transport search.

    status "witness": prefix passes the quasi-Cauchy test at the schedule
    while the image of its final step jumps by at least eps_img.  status
    "exhausted": the budget ran out or no candidate pair exists; this is
    never a continuity certificate.
    """

    status: str
    eps_img: float
    budget: int
    evaluations: int
    prefix: object | None = None
    pair: tuple | None = None
    image_gap: float | None = None

    @property
    def found(self):
        return self.status == "witness"


def ward_falsifier(f, space, eps_img, schedule, budget=1000):
    """Search for a schedule-consistent prefix whose image gap is large.

    Candidate pairs (a, b) with d(a, b) below the schedule's finest eps are
    taken in ascending (distance, a, b) order, at most budget of them; the
    first whose image gap |f(b) - f(a)| reaches eps_img is wrapped into the
    prefix a, a, ..., a, b, whose lone positive gap sits past every stage
    start, and that prefix is verified with quasi_cauchy_test.  evaluations
    is the witness's 1-based place in that order, or the number of
    candidates when none qualifies.  Exhaustion is not a continuity proof.
    """
    if f.space is not space:
        raise MalformedInput("the function lives on a different space")
    eps_img = check_eps(eps_img)
    budget = _integral(budget)
    if budget is None or budget < 1:
        raise MalformedInput("budget must be at least 1")
    finest = schedule.finest_eps
    # a running first budget of (distance, a, b): O(budget + block) memory
    kept = np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=int)
    for offset, rows, d in space.pair_blocks(np.arange(space.n)):
        a, b = np.nonzero(d < finest)
        pairs = d[a, b], rows[a], offset + b
        merged = [np.concatenate(p) for p in zip(kept, pairs)]
        order = np.lexsort(merged[::-1])[:budget]
        kept = [part[order] for part in merged]
    _, first, second = kept
    with np.errstate(over="ignore"):  # a gap past float64 is +inf
        gaps = np.abs(f.values[second] - f.values[first])
    hits = np.flatnonzero(gaps >= eps_img)
    if not hits.size:
        return WardResult("exhausted", eps_img, budget, len(gaps))
    a, b = int(first[hits[0]]), int(second[hits[0]])
    prefix = SequencePrefix(space, (a,) * schedule.stages[-1][1] + (a, b))
    if not quasi_cauchy_test(prefix, schedule).consistent:
        raise AssertionError(f"ward witness {(a, b)} is not quasi-Cauchy")
    return WardResult(
        "witness", eps_img, budget, int(hits[0]) + 1,
        prefix=prefix, pair=(a, b), image_gap=float(gaps[hits[0]]),
    )


# _violation_distances' nearest-column tiers: each block row's _CANDIDATES
# nearest columns, then _CANDIDATE_GROWTH times as many, and so on below n.
_CANDIDATES = 64
_CANDIDATE_GROWTH = 16


def _nearest_far(d, col_values, row_values, eps):
    """Per row, the least d to a column whose value is eps or more away."""
    far = np.abs(col_values - row_values[:, None]) >= eps
    return np.where(far, d, math.inf).min(axis=1)


def _nearest_tiers(d, sizes):
    """(columns, distances) of each row's sizes[t] nearest columns for
    ascending sizes, each tier picked from the next larger one."""
    tiers = []
    pick, pick_d = None, d
    for size in reversed(sizes):
        part = np.argpartition(pick_d, size - 1, axis=1)[:, :size]
        pick = part if pick is None else np.take_along_axis(pick, part, axis=1)
        pick_d = np.take_along_axis(pick_d, part, axis=1)
        tiers.append((pick, pick_d))
    return tiers[::-1]


@np.errstate(over="ignore")  # a value gap past float64 is +inf
def _violation_distances(space, values, eps, rows=None):
    """Per function k and row point x: min distance from x to a y with
    |f_k(y)-f_k(x)| >= eps (+inf if none).

    values holds one function per row; rows defaults to every point.  A
    row has a far point for f_k exactly when f_k's least or largest value
    is eps or more away (rounding keeps f(y) - f(x) monotone in f(y)), so
    rows with none stay +inf unscanned.  The others take one scan over the
    row blocks of ``pair_blocks``.  With three or more functions, each
    block row's nearest columns are picked once, in nested tiers of
    _CANDIDATES, _CANDIDATES * _CANDIDATE_GROWTH, ... columns below n, and
    the tiers are searched in turn, one call per tier on the (function,
    row) pairs of the block still open: every column outside a tier is at
    least as far as its farthest member, so the first tier that holds a
    far column gives the exact minimum.  A tier's call holds at most
    functions x block rows x tier size entries.  Pairs with no far column
    in any tier fall back to the full row, one call per function, and a
    function whose far columns mostly lie outside the tiers drops them for
    the later blocks.
    """
    rows = np.arange(space.n) if rows is None else np.asarray(rows, dtype=int)
    out = np.full((len(values), rows.size), math.inf)
    at_rows = values[:, rows]
    high, low = values.max(axis=1)[:, None], values.min(axis=1)[:, None]
    has_far = (high - at_rows >= eps) | (at_rows - low >= eps)
    live = np.flatnonzero(has_far.any(axis=0))
    sizes = []  # tier sizes, ascending
    size = _CANDIDATES
    while size < space.n:
        sizes.append(size)
        size *= _CANDIDATE_GROWTH
    # a function leaves the tiers once they have settled less than half of
    # the rows it brought to them; the pick is made while three functions
    # use it (shared by two, it was slower than the full rows at n = 2000)
    tiered = np.ones(len(values), dtype=bool)
    tried = np.zeros(len(values), dtype=int)
    missed = np.zeros(len(values), dtype=int)
    for offset, chunk, d in space.pair_blocks(rows[live], np.arange(space.n)):
        at = live[offset:offset + len(chunk)]
        todo = has_far[:, at]  # the open (function, block row) pairs
        if sizes and tiered.sum() >= 3:
            fk, fr = np.nonzero(todo & tiered[:, None])
            tried += np.bincount(fk, minlength=len(values))
            for pick, pick_d in _nearest_tiers(d, sizes):
                if not fk.size:
                    break
                nearest = _nearest_far(
                    pick_d[fr], values[fk[:, None], pick[fr]],
                    values[fk, chunk[fr]], eps,
                )
                out[fk, at[fr]] = nearest
                found = nearest < math.inf
                todo[fk[found], fr[found]] = False
                fk, fr = fk[~found], fr[~found]
            missed += np.bincount(fk, minlength=len(values))
            tiered = 2 * missed <= tried
        for k in np.flatnonzero(todo.any(axis=1)):
            left = np.flatnonzero(todo[k])
            full = d if left.size == len(chunk) else d[left]
            v = values[k]
            out[k, at[left]] = _nearest_far(full, v, v[chunk[left]], eps)
    return out


@dataclass(frozen=True)
class EquiContinuityReport:
    """Family-level continuity check result.

    In chain mode each function delegates to the best certificate inside
    its eps-chain component of the family (sup metric); in plain mode each
    function must answer for itself.  delta_by_point[x] is the largest
    scale below which every certificate's oscillation at x stays under eps.
    """

    eps: float
    mode: str  # "chain" | "plain"
    delta: float | None
    passed: bool
    certificates: dict
    delta_by_point: np.ndarray
    uniform_delta: float
    witness: tuple | None = None  # (x, f_index, partner, oscillation)


def _delegates(graph, key):
    """Each point's delegate, the first member of its eps-chain component
    with the largest key, keyed by point in component order."""
    out = {}
    for members in graph.components():
        out.update(dict.fromkeys(members, max(members, key=key.__getitem__)))
    return out


def equi_chain_continuity_check(family, eps, chain=True, delta=None):
    """Check a family of functions for chain-delegated equi-continuity.

    With chain=True every function may delegate its modulus to the member
    of its eps-chain component (component of the family under the sup
    metric) whose worst-point violation distance is largest; with
    chain=False each function certifies for itself, which is the plain
    equi-continuity check.  With delta=None the verdict asks only for
    positive per-point scales; a fixed delta demands every per-point scale
    reach it.  Certificates are chosen per function and scale, not per
    point; that is the strictest reading of the quantifiers.
    """
    if not family:
        raise EmptyFamily("no functions to check")
    eps = check_eps(eps)
    space = family[0].space
    for g in family[1:]:
        if g.space is not space:
            raise MalformedInput("family members live on different spaces")
    if delta is not None:
        delta = check_eps(delta)
    values = np.vstack([g.values for g in family])
    viol = _violation_distances(space, values, eps)
    min_viol = viol.min(axis=1)

    if chain:
        fam_space = MetricSpace("function-sup", values, param=space.n)
        certificates = _delegates(ChainGraph(fam_space, eps), min_viol)
    else:
        certificates = {k: k for k in range(len(family))}

    cert_per_fn = np.asarray([certificates[k] for k in range(len(family))])
    delta_by_point = viol[cert_per_fn].min(axis=0)
    uniform = float(delta_by_point.min())
    floor = 0.0 if delta is None else delta
    passed = uniform > floor if delta is None else uniform >= floor

    witness = None
    if not passed:
        x = int(np.argmin(delta_by_point))
        fi = int(np.argmin(viol[cert_per_fn, x]))
        g = int(cert_per_fn[fi])
        d = space.distances_from(x)
        radius = delta if delta is not None else math.inf
        ball = np.flatnonzero(d < radius)
        with np.errstate(over="ignore"):  # a gap past float64 is +inf
            osc = np.abs(values[g, ball] - values[g, x])
        top = int(np.argmax(osc))
        witness = (x, fi, int(ball[top]), float(osc[top]))
    return EquiContinuityReport(
        eps=eps,
        mode="chain" if chain else "plain",
        delta=delta,
        passed=bool(passed),
        certificates=certificates,
        delta_by_point=delta_by_point,
        uniform_delta=uniform,
        witness=witness,
    )


@dataclass(frozen=True)
class LpTailReport:
    """Which family members can delegate to a small-tail neighbor."""

    passed: bool
    p: float
    eps: float
    n0: int
    certificates: dict
    failures: tuple


def lp_tail_criterion(family, p, eps, n0):
    """Every member must chain at scale eps to one with small p-tail mass.

    family is a list of sparse vectors (or their entries) under the p-norm
    metric; x certifies via the first member y of its eps-chain component
    whose mass beyond coordinate n0 is strictly below eps^p.
    """
    if not family:
        raise EmptyFamily("no vectors to check")
    power = _real(p)
    if power is None or power < 1:
        raise MalformedInput(f"p must be >= 1, got {p}")
    eps = check_eps(eps)
    n0 = _integral(n0)
    if n0 is None or n0 < 0:
        raise MalformedInput("n0 must be nonnegative")
    family = [v if isinstance(v, SparseVector) else SparseVector(v)
              for v in family]
    space = MetricSpace("p-norm-sparse", family, param=power)
    tails = np.asarray([v.tail_mass(power, n0) for v in family])
    small = tails < eps**power
    delegate = _delegates(ChainGraph(space, eps), small)
    certificates = {x: y for x, y in sorted(delegate.items()) if small[y]}
    failures = tuple(x for x, y in sorted(delegate.items()) if not small[y])
    return LpTailReport(
        passed=not failures,
        p=power,
        eps=eps,
        n0=n0,
        certificates=certificates,
        failures=failures,
    )


def spike_function(space, centers, radii, heights):
    """Tent spikes on disjoint strict balls, zero elsewhere.

    Inside ball k the value ramps linearly from heights[k] at the center to
    0 at the ball edge.  The centers' distance rows come from one
    ``pair_blocks`` scan, taken in the given order; a point lying inside
    two balls is rejected, naming the first clashing center and its first
    clashing point.
    """
    centers = [space.check_index(c) for c in centers]
    given = list(radii)
    radii = [_real(r) for r in given]
    heights = [_real(h) for h in heights]
    if not len(centers) == len(radii) == len(heights):
        raise MalformedInput("centers, radii, heights must align")
    for r, raw in zip(radii, given):
        if r is None or not r > 0:
            raise MalformedInput(f"spike radius must be positive, got {raw}")
    if None in heights:
        raise MalformedInput("spike heights must be finite numbers")
    values = np.zeros(space.n)
    owner = np.full(space.n, -1)
    for offset, _, d in space.pair_blocks(centers, np.arange(space.n)):
        for k, row in enumerate(d, start=offset):
            r, h = radii[k], heights[k]
            inside = np.flatnonzero(row < r)
            clash = inside[owner[inside] >= 0]
            if clash.size:
                x = int(clash[0])
                raise OverlappingBalls(int(owner[x]), k, x)
            owner[inside] = k
            values[inside] = h * (1.0 - row[inside] / r)
    return ScalarFunction(space, values, name="spike")

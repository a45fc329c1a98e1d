"""Level-window decomposition and the small-step uniform approximant.

Overlapping open windows ((n-1)eps, (n+1)eps) slice the range of f; each
window gets a cutoff g_n measuring the distance to its complement, and the
normalized window-index average h turns the slices back into a function.
eps*h approximates f uniformly within eps while moving slowly between
nearby points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentLevels,
    MalformedInput,
    NoValidDelta,
    check_eps,
)
from .moduli import ScalarFunction, _violation_distances
from .sequences import quasi_cauchy_test

__all__ = [
    "LevelDecomposition",
    "BoundsReport",
    "level_sets",
    "partition_functions",
    "approximate",
    "proof_bounds_report",
]


def level_sets(f, eps):
    """Window membership: x lands in every n with (n-1)eps < f(x) < (n+1)eps.

    The inequalities are strict with no tolerance, so a value sitting
    exactly on a window boundary n*eps belongs to window n alone.
    """
    eps = check_eps(eps)
    levels = {}
    for x, v in enumerate(f.values.tolist()):
        t = v / eps
        if not math.isfinite(t):
            raise InconsistentLevels(f"f({x}) / eps overflows float64")
        base = math.floor(t)
        homes = [n for n in (base, base + 1)
                 if (n - 1) * eps < v < (n + 1) * eps]
        if not homes:
            # (n - 1) * eps and (n + 1) * eps both round to v
            raise InconsistentLevels(
                f"point {x} lies in no window: f({x}) / eps = {t:g} is too "
                "large for float64 windows"
            )
        for n in homes:
            levels.setdefault(n, []).append(x)
    return {n: sorted(members) for n, members in sorted(levels.items())}


def partition_functions(space, levels):
    """Window cutoffs g_n(x) = min(1, d(x, complement of C_n)) and their sum.

    d(x, empty set) is +inf, so a window holding the whole space
    contributes the constant 1.  One scan over the row blocks of
    ``pair_blocks`` serves every window: in each block, a member row's g_n
    is the least distance to the columns outside C_n.  The rows go in the
    order of their first window, so a block meets few windows.  The sum g
    must land in (0, 2]: a zero would mean some point touches the
    complement of every window that contains its value, which only
    zero-distance twins with clashing values can produce.
    """
    n_pts = space.n
    inside = np.zeros((len(levels), n_pts), dtype=bool)
    for w, members in enumerate(levels.values()):
        if all(type(i) is int for i in members):  # as level_sets makes them
            members = np.array(members)
        inside[w, space._index_array(members)] = True
    parts = np.zeros(inside.shape)
    order = np.argsort(inside.argmax(axis=0), kind="stable")
    for _, rows, d in space.pair_blocks(order, np.arange(n_pts)):
        for w in np.flatnonzero(inside[:, rows].any(axis=1)):
            hit = np.flatnonzero(inside[w, rows])
            near = np.where(inside[w], math.inf, d[hit]).min(axis=1)
            parts[w, rows[hit]] = np.minimum(1.0, near)
    g_parts = {}
    total = np.zeros(n_pts)
    for n, vals in zip(levels, parts):
        g_parts[n] = ScalarFunction(space, vals, name=f"g[{n}]")
        total += vals
    covered = inside.any(axis=0)
    if not covered.all():
        missing = int(np.flatnonzero(~covered)[0])
        raise InconsistentLevels(f"point {missing} lies in no window")
    if not (total > 0).all():
        dead = int(np.flatnonzero(total <= 0)[0])
        raise InconsistentLevels(
            f"g({dead}) = 0: a zero-distance twin with a clashing value "
            "touches the complement of every window containing the point"
        )
    if not (total <= 2.0).all():
        worst = int(np.argmax(total))
        raise InconsistentLevels(
            f"g({worst}) = {total[worst]} exceeds 2; windows overlap too much"
        )
    return g_parts, ScalarFunction(space, total, name="g")


@dataclass(frozen=True)
class LevelDecomposition:
    """Everything the construction produces for one (f, eps)."""

    f: ScalarFunction
    eps: float
    levels: dict
    g_parts: dict
    g: ScalarFunction
    h: ScalarFunction
    approx: ScalarFunction

    @property
    def sup_error(self):
        return float(np.max(np.abs(self.approx.values - self.f.values)))


def approximate(f, eps):
    """Run the whole pipeline and verify its guarantees.

    The sup-error bound |eps*h - f| < eps and the window-sum bound
    0 < g <= 2 are structural: a violation is an implementation bug, so
    both are enforced with hard assertions rather than returned as data.
    """
    eps = check_eps(eps)
    levels = level_sets(f, eps)
    g_parts, g = partition_functions(f.space, levels)
    weighted = np.zeros(f.space.n)
    for n, part in g_parts.items():
        weighted += n * part.values
    h_vals = weighted / g.values
    h = ScalarFunction(f.space, h_vals, name="h")
    approx = ScalarFunction(f.space, eps * h_vals, name="approx")
    decomp = LevelDecomposition(f, eps, levels, g_parts, g, h, approx)
    if not decomp.sup_error < eps:
        raise AssertionError(
            f"sup error {decomp.sup_error} failed to stay below {eps}; "
            "the level construction is broken"
        )
    return decomp


@dataclass(frozen=True)
class BoundsReport:
    """Measured slopes of g and h along a prefix tail against their bounds.

    delta is the largest realized distance below which f moves less than
    eps/4 around every prefix point; the h slope answers to 10/delta^2 and
    the g slope to the constant 3.  Margins are the worst-case slack,
    sharp values the largest measured ratios.
    """

    eps: float
    delta: float
    n0: int
    pairs_checked: int
    g_bound_ok: bool
    h_bound_ok: bool
    g_margin: float
    h_margin: float
    g_sharp: float
    h_sharp: float
    violations: tuple

    @property
    def all_ok(self):
        return self.g_bound_ok and self.h_bound_ok


@np.errstate(over="ignore", divide="ignore")  # a bound past float64: inf
def proof_bounds_report(decomp, prefix, schedule):
    """Check the two slope estimates along a schedule-consistent prefix.

    The prefix must pass the quasi-Cauchy test at the supplied schedule;
    pairs from the first stage start onward are then measured.  delta is
    derived from the data: the largest realized-distance breakpoint whose
    open balls around every prefix point confine f within eps/4.  Only a
    zero-distance pair with values eps/4 apart (or a space with no
    positive distances at all) leaves no valid breakpoint.
    """
    if not quasi_cauchy_test(prefix, schedule).consistent:
        raise MalformedInput(
            "prefix is not quasi-Cauchy-consistent at the supplied schedule"
        )
    space = decomp.f.space
    f_vals = decomp.f.values
    quarter = decomp.eps / 4.0

    min_viol = float(
        _violation_distances(
            space, f_vals[None, :], quarter, rows=np.unique(prefix.indices)
        ).min()
    )
    if math.isinf(min_viol):
        delta = space.diameter()  # the largest realized distance
        if delta == 0:
            raise NoValidDelta(
                "space realizes no positive distance to anchor delta"
            )
    elif min_viol <= 0:
        raise NoValidDelta(
            "a zero-distance pair moves f by eps/4; no positive scale works"
        )
    else:
        delta = min_viol  # itself a realized distance, hence the largest
        # breakpoint compatible with the containment

    n0 = schedule.first_start
    idx = np.asarray(prefix.indices, dtype=int)
    a, b = idx[n0:-1], idx[n0 + 1:]
    d = prefix.gaps()[n0:]
    live = d > 0

    def slope(name, v, per_unit):
        """Violations, margin and sharp ratio of |v(b) - v(a)| <= per_unit*d."""
        dv = abs(v[b] - v[a])
        cap = np.multiply(per_unit, d, out=d.copy(), where=live)  # 0 stays 0
        bad = [(name, n0 + int(k), float(dv[k]), float(cap[k]))
               for k in np.flatnonzero(dv > cap)]
        margin = float((cap - dv).min(initial=math.inf))
        return bad, margin, float((dv[live] / d[live]).max(initial=0.0))

    # unlike Python's float, a float64 leaves its range without raising:
    # a delta^2 that underflows to 0 makes the h bound +inf
    h_unit = 10.0 / np.float64(delta) ** 2
    g_bad, g_margin, g_sharp = slope("g", decomp.g.values, 3.0)
    h_bad, h_margin, h_sharp = slope("h", decomp.h.values, h_unit)
    return BoundsReport(
        eps=decomp.eps,
        delta=delta,
        n0=n0,
        pairs_checked=len(d),
        g_bound_ok=not g_bad,
        h_bound_ok=not h_bad,
        g_margin=g_margin,
        h_margin=h_margin,
        g_sharp=g_sharp,
        h_sharp=h_sharp,
        # by step, g before h at the same step
        violations=tuple(sorted(g_bad + h_bad, key=lambda v: v[1])),
    )

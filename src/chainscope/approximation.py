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
    """Two window slots per point, their cutoffs, and the cutoffs' sum g.

    ``slots[x]`` holds the positions in ``levels`` of x's windows (at most
    two), ascending, -1 in an empty slot; ``cutoffs[x]`` the matching
    g_n(x) = min(1, d(x, complement of C_n)), 1 for a window of the whole
    space and 0.0 in an empty slot.  A point in no window or a third one
    is refused.  One ``pair_blocks`` scan, rows in first-window order,
    masks each row block's windows in O(block·n).  g lies in [0, 2] by
    construction; a zero, from zero-distance twins with clashing values
    touching every window's complement, is refused.
    """
    slots = np.full((space.n, 2), -1)
    for w, members in enumerate(levels.values()):
        x = space._index_array(members)
        full = x[slots[x, 1] >= 0]
        if full.size:
            raise InconsistentLevels(f"point {full[0]} lies in a third window")
        slots[x, (slots[x, 0] >= 0).astype(int)] = w
    missing = np.flatnonzero(slots[:, 0] < 0)
    if missing.size:
        raise InconsistentLevels(f"point {missing[0]} lies in no window")
    cutoffs = np.zeros(slots.shape)
    order = np.argsort(slots[:, 0], kind="stable")
    for _, rows, d in space.pair_blocks(order, np.arange(space.n)):
        ws, at = np.unique(slots[rows], return_inverse=True)
        inside = (slots[:, 0] == ws[:, None]) | (slots[:, 1] == ws[:, None])
        for s, at_s in enumerate(at.reshape(-1, 2).T):
            near = np.where(inside[at_s], math.inf, d).min(axis=1)
            cutoffs[rows, s] = np.minimum(1.0, near)
    cutoffs[slots < 0] = 0.0
    total = 0.0 + cutoffs[:, 0] + cutoffs[:, 1]
    if not (total > 0).all():
        dead = int(np.flatnonzero(total <= 0)[0])
        raise InconsistentLevels(
            f"g({dead}) = 0: a zero-distance twin with a clashing value "
            "touches the complement of every window containing the point"
        )
    return slots, cutoffs, ScalarFunction(space, total, name="g")


@dataclass(frozen=True)
class LevelDecomposition:
    """One (f, eps) construction; a point lies in at most two windows."""

    f: ScalarFunction
    eps: float
    levels: dict
    g: ScalarFunction
    h: ScalarFunction
    approx: ScalarFunction

    @property
    def sup_error(self):
        return float(np.max(np.abs(self.approx.values - self.f.values)))


def approximate(f, eps):
    """Run the whole pipeline and verify its guarantees.

    h sums n * g_n / g over at most two windows per point, in window order;
    g <= 2 by construction, and g = 0 raises ``InconsistentLevels``.  The
    sup-error bound |eps*h - f| < eps is structural: a violation is a bug,
    so a hard assertion enforces it.
    """
    eps = check_eps(eps)
    levels = level_sets(f, eps)
    slots, cutoffs, g = partition_functions(f.space, levels)
    # n * g_n(x) per slot; an empty slot's 0.0 cutoff adds +-0.0
    weighted = np.array(list(levels), dtype=float)[slots] * cutoffs
    h_vals = (0.0 + weighted[:, 0] + weighted[:, 1]) / g.values
    h = ScalarFunction(f.space, h_vals, name="h")
    approx = ScalarFunction(f.space, eps * h_vals, name="approx")
    decomp = LevelDecomposition(f, eps, levels, g, h, approx)
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
    if prefix.space is not decomp.f.space:
        raise MalformedInput("the prefix lives on a different space")
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

    def times(per_unit):
        return np.multiply(per_unit, d, out=d.copy(), where=live)  # 0 stays 0

    def slope(name, v, cap):
        """Violations, margin and sharp ratio of |v(b) - v(a)| <= cap."""
        dv = abs(v[b] - v[a])
        bad = [(name, n0 + int(k), float(dv[k]), float(cap[k]))
               for k in np.flatnonzero(dv > cap)]
        margin = float((cap - dv).min(initial=math.inf))
        return bad, margin, float((dv[live] / d[live]).max(initial=0.0))

    # unlike Python's float, a float64 leaves its range without raising:
    # a delta^2 that underflows to 0 makes the h bound +inf; one that
    # overflows makes 10 / delta^2 0, where 10 (d / delta) / delta need not be
    h_unit = 10.0 / np.float64(delta) ** 2
    h_cap = times(h_unit) if h_unit else 10.0 * (d / delta) / delta
    g_bad, g_margin, g_sharp = slope("g", decomp.g.values, times(3.0))
    h_bad, h_margin, h_sharp = slope("h", decomp.h.values, h_cap)
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

"""Finite-prefix sequence classification and the two chain constructions.

A prefix of a sequence can never certify an asymptotic property, so every
test here returns a verdict that is either "consistent" with the property at
the supplied tolerance schedule or "falsified" by a concrete witness.  The
schedule plays the role of the usual eps/n_0 quantifier prefix at finitely
many scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, groupby

import numpy as np

from .chains import _live_graph, find_chain, scale_tree
from .errors import (
    BadSchedule,
    Exhausted,
    IndexOutOfRange,
    MalformedInput,
    NoChainAtScale,
    ShortPrefix,
    check_eps,
)
from .metric import _integral, _real

__all__ = [
    "SequencePrefix",
    "ToleranceSchedule",
    "Witness",
    "Verdict",
    "BqcResult",
    "StageRecord",
    "ExtractResult",
    "quasi_cauchy_test",
    "cauchy_test",
    "pseudo_cauchy_test",
    "bourbaki_qc_test",
    "splice_to_quasi_cauchy",
    "shift_schedule",
    "extract_bqc_subsequence",
]

# stages of ToleranceSchedule.default, fewer when the prefix is short
DEFAULT_STAGES = 3


@dataclass(frozen=True)
class SequencePrefix:
    """An ordered finite run of space indices; repeats are allowed."""

    space: object
    indices: tuple

    def __post_init__(self):
        idx = tuple(self.space.check_index(i) for i in self.indices)
        if not idx:
            raise MalformedInput("prefix must contain at least one position")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def _position(self, pos, stop=False):
        """pos as a position of the prefix by the integer rule; a stop may
        also be the length.  Anything else raises IndexOutOfRange."""
        p = _integral(pos)
        if p is None or not 0 <= p < len(self) + stop:
            raise IndexOutOfRange(pos, len(self), f"position {pos!r} outside "
                                  f"a prefix of length {len(self)}")
        return p

    def point(self, pos):
        return self.indices[self._position(pos)]

    def gaps(self):
        """Consecutive distances d(x_k, x_{k+1}) as an array of length len-1."""
        idx = np.asarray(self.indices, dtype=int)
        if len(idx) < 2:
            return np.zeros(0)
        return self.space.pairwise(idx[:-1], idx[1:])

    def subrange(self, start, stop):
        sub = self.indices[self._position(start):self._position(stop, True)]
        if not sub:
            raise MalformedInput("empty subrange")
        return SequencePrefix(self.space, sub)

    def select(self, positions):
        return SequencePrefix(self.space, tuple(map(self.point, positions)))


def _stage(s):
    """One schedule stage as (float eps, int start)."""
    try:
        e, n = s
    except (TypeError, ValueError):
        e = n = None
    eps = _real(e)
    start = _integral(n)
    if eps is None or start is None:
        raise BadSchedule(f"schedule stage {s!r} is not an [eps, n] pair")
    return eps, start


@dataclass(frozen=True)
class ToleranceSchedule:
    """Stages (eps_j, n_j): from position n_j on, gaps answer to eps_j.

    eps strictly decreasing and positive, n strictly increasing; the first
    stage must leave at least one consecutive pair to check, later stages
    may be vacuous on short prefixes.
    """

    stages: tuple

    def __post_init__(self):
        stages = tuple(_stage(s) for s in self.stages)
        if not stages:
            raise BadSchedule("schedule needs at least one stage")
        for e, n in stages:
            check_eps(e)
            if n < 0:
                raise BadSchedule(f"negative stage start {n}")
        eps = [e for e, _ in stages]
        starts = [n for _, n in stages]
        if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
            raise BadSchedule("stage tolerances must strictly decrease")
        if list(starts) != sorted(starts) or len(set(starts)) != len(starts):
            raise BadSchedule("stage starts must strictly increase")
        object.__setattr__(self, "stages", stages)

    def __len__(self):
        return len(self.stages)

    def check_against(self, prefix):
        if len(prefix) < 2:
            raise ShortPrefix(len(prefix))
        if self.stages[0][1] > len(prefix) - 2:
            raise BadSchedule(
                f"first stage starts at {self.stages[0][1]} but the prefix "
                f"has only {len(prefix)} positions"
            )
        return self

    @property
    def finest_eps(self):
        return self.stages[-1][0]

    @property
    def first_start(self):
        return self.stages[0][1]

    @classmethod
    def default(cls, space, length):
        """Diameter-scaled halving ladder with evenly spread stage starts."""
        diam = space.diameter()
        if not diam > 0:
            raise BadSchedule("zero-diameter space admits no tolerance ladder")
        if length < 2:
            raise BadSchedule(f"need a prefix of length >= 2, got {length}")
        out = []
        prev = -1
        for j in range(DEFAULT_STAGES):
            n = max(prev + 1, (j * length) // (DEFAULT_STAGES + 1))
            if n > length - 2:
                break
            out.append((diam * 2.0**-j, n))
            prev = n
        return cls(tuple(out))


@dataclass(frozen=True)
class Witness:
    """Concrete gap that breaks a stage: positions index/partner, gap >= eps."""

    stage: int
    index: int
    partner: int
    gap: float


@dataclass(frozen=True)
class Verdict:
    status: str  # "consistent" | "falsified"
    witness: Witness | None
    kind: str
    schedule: ToleranceSchedule

    @property
    def consistent(self):
        return self.status == "consistent"


def _staged(kind, prefix, schedule, breach):
    """The verdict of a staged test, the first breached stage's witness.

    breach(start, eps) returns the (index, partner, gap) that breaks the
    stage whose tail starts at position start, or None when it holds.  A
    stage that leaves no pair of positions is vacuous and skipped.
    """
    schedule.check_against(prefix)
    for j, (eps, start) in enumerate(schedule.stages):
        if start >= len(prefix) - 1:
            continue
        hit = breach(start, eps)
        if hit is not None:
            return Verdict("falsified", Witness(j, *hit), kind, schedule)
    return Verdict("consistent", None, kind, schedule)


def quasi_cauchy_test(prefix, schedule):
    """Every consecutive gap from each stage start must stay below stage eps."""
    gaps = prefix.gaps()

    def breach(start, eps):
        bad = np.flatnonzero(gaps[start:] >= eps)
        if not bad.size:
            return None
        k = start + int(bad[0])
        return k, k + 1, float(gaps[k])

    return _staged("quasi-cauchy", prefix, schedule, breach)


def cauchy_test(prefix, schedule):
    """All pairs from each stage start on must stay below stage eps."""
    idx = np.asarray(prefix.indices, dtype=int)

    def breach(start, eps):
        for offset, _, d in prefix.space.pair_blocks(idx[start:]):
            bad = d >= eps
            if bad.any():
                a, b = divmod(int(np.argmax(bad)), d.shape[1])
                return start + offset + a, start + offset + b, float(d[a, b])
        return None

    return _staged("cauchy", prefix, schedule, breach)


def pseudo_cauchy_test(prefix, schedule):
    """Each stage tail must contain some pair of positions closer than eps.

    The falsifying witness is the tail's closest pair, first in scan order.
    """
    idx = np.asarray(prefix.indices, dtype=int)

    def breach(start, eps):
        best = math.inf
        pair = None
        for offset, _, d in prefix.space.pair_blocks(idx[start:]):
            low = np.fmin.reduce(d, axis=None, initial=math.inf)
            if low < eps:
                return None  # some pair is close enough; the stage holds
            if low < best:  # the block's first pair at low, in scan order
                best = float(low)
                a, b = divmod(int(np.flatnonzero(d == low)[0]), d.shape[1])
                pair = (start + offset + a, start + offset + b)
        return (*pair, best)

    return _staged("pseudo-cauchy", prefix, schedule, breach)


@dataclass(frozen=True)
class BqcResult:
    """Outcome of the single-tail-component check at one scale."""

    status: str  # "consistent" | "falsified"
    eps: float
    n0: int | None = None
    center: int | None = None

    @property
    def consistent(self):
        return self.status == "consistent"


def bourbaki_qc_test(prefix, space, eps):
    """Minimal n0 from which the prefix tail sits in one chain component.

    Components are taken in the ambient space, read once from the labels
    of its scale tree; no chain graph is built.  With two or more
    positions the verdict is falsified when even the final two points
    split; the center is the smallest space index in the tail's component.
    """
    if prefix.space is not space:
        raise MalformedInput("the prefix lives on a different space")
    eps = check_eps(eps)
    roots = scale_tree(space).labels(eps)[np.asarray(prefix.indices)]
    if len(roots) >= 2 and roots[-1] != roots[-2]:
        return BqcResult("falsified", eps)
    split = np.flatnonzero(roots != roots[-1])
    n0 = int(split[-1]) + 1 if split.size else 0
    return BqcResult("consistent", eps, n0, int(roots[-1]))


def splice_to_quasi_cauchy(prefix, space, schedule):
    """Insert chain interiors so every scheduled gap closes below its eps.

    Gaps come from one prefix.gaps() call and their stages from one
    searchsorted over the stage starts (none before the first start).
    Each gap too wide for its stage gets find_chain's lexicographically
    first shortest witness at that scale, searched in the stage's one
    live ChainGraph (built when none is live).  Stages run in prefix
    order, so NoChainAtScale names the first gap with no chain.  Returns
    the widened prefix and the map from original positions to new ones.
    """
    if prefix.space is not space:
        raise MalformedInput("the prefix lives on a different space")
    schedule.check_against(prefix)
    idx = prefix.indices
    eps, starts = zip(*schedule.stages)
    stage = np.searchsorted(starts, np.arange(len(idx) - 1), side="right") - 1
    # stage -1, before the first start, reads the appended +inf
    wide = np.flatnonzero(prefix.gaps() >= np.append(eps, np.inf)[stage])
    pieces = [(b,) for b in idx[1:]]
    for j, group in groupby(wide.tolist(), key=lambda k: int(stage[k])):
        graph = _live_graph(space, eps[j])
        for k in group:
            witness = find_chain(graph, idx[k], idx[k + 1])
            if witness is None:
                raise NoChainAtScale(j, idx[k:k + 2], eps[j])
            pieces[k] = witness.indices[1:]
    out = (idx[0], *chain.from_iterable(pieces))
    return SequencePrefix(space, out), (0, *accumulate(map(len, pieces)))


def shift_schedule(schedule, embedding):
    """Schedule whose stage starts follow the splice embedding; a start
    past the prefix moves by the whole insertion, so it stays vacuous."""
    last = len(embedding) - 1
    return ToleranceSchedule(tuple(
        (e, embedding[min(n, last)] + max(n - last, 0))
        for e, n in schedule.stages
    ))


@dataclass(frozen=True)
class StageRecord:
    """One extraction stage: scale, surviving positions, chosen component."""

    stage: int
    eps: float
    survivors: tuple
    component_floor: int  # smallest space index in the chosen component
    census: int


@dataclass(frozen=True)
class ExtractResult:
    positions: tuple
    stages: tuple


def extract_bqc_subsequence(prefix, space, schedule, rule="majority"):
    """One position per stage, drawn from ever-finer single components.

    At each stage the surviving positions are grouped by chain component at
    that stage's scale, read once from the labels of the space's scale tree
    (no chain graph is built); the most populous component is kept (rule
    "majority", ties to the component with the smallest member index) or
    the first survivor's component (rule "first").  One new position beyond
    the last emission is emitted per stage; running out raises Exhausted
    with the completed stages attached.
    """
    if prefix.space is not space:
        raise MalformedInput("the prefix lives on a different space")
    schedule.check_against(prefix)
    if rule not in ("majority", "first"):
        raise MalformedInput(f"unknown extraction rule {rule!r}")
    points = np.asarray(prefix.indices)
    survivors = np.arange(len(prefix))
    emitted = []
    records = []
    for j, (eps, _) in enumerate(schedule.stages):
        roots = scale_tree(space).labels(eps)[points[survivors]]
        # the first of the largest counts is the smallest tied label
        win = roots[0] if rule == "first" else np.argmax(np.bincount(roots))
        survivors = survivors[roots == win]
        records.append(
            StageRecord(
                stage=j,
                eps=eps,
                survivors=tuple(survivors.tolist()),
                component_floor=int(win),
                census=len(survivors),
            )
        )
        floor = emitted[-1] if emitted else -1
        later = survivors[survivors > floor]
        if not later.size:
            raise Exhausted(j, tuple(emitted), tuple(records))
        emitted.append(int(later[0]))
    return ExtractResult(tuple(emitted), tuple(records))

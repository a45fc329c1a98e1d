"""Operation recording, output checks and chain references shared by the
workloads."""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


class CheckFailed(Exception):
    """An operation's output disagrees with its independent reference."""


class KnownDefect(CheckFailed):
    """A check that fails on a defect recorded in the benchmark's README."""


class Pass:
    """One pass over a workload's operations.

    ``op`` runs an operation and keeps its result with the check to apply;
    checks run in ``failures`` after the timed region has ended.  An
    operation whose inputs failed to build raises too, so it counts as a
    failure of its own rather than being skipped.
    """

    def __init__(self):
        self.records = []

    def op(self, name, fn, check=None):
        try:
            value = fn()
        except Exception as exc:  # a raising op is a counted failure
            self.add(name, None, exc, check)
            return None
        self.add(name, value, None, check)
        return value

    def add(self, name, value, exc, check):
        self.records.append((name, value, exc, check))

    @property
    def attempted(self):
        return len(self.records)

    def failures(self):
        """[(op name, message, is_known_defect)] for every failed op."""
        out = []
        for name, value, exc, check in self.records:
            if exc is not None:
                out.append((name, f"raised {exc!r}", False))
                continue
            if check is None:
                continue
            try:
                check(value)
            except KnownDefect as err:
                out.append((name, str(err), True))
            except Exception as err:  # a malformed output fails its check
                out.append((name, f"{type(err).__name__}: {err}", False))
        return out


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(actual, expected, rel=1e-12):
    """True when two floats agree to a relative tolerance (inf == inf)."""
    actual, expected = float(actual), float(expected)
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= rel * max(abs(expected), 1e-300)


def require_close(actual, expected, what, rel=1e-12):
    require(close(actual, expected, rel), f"{what}: {actual!r} != {expected!r}")


def same_partition(labels_a, labels_b):
    """True when two per-point labelings define the same partition."""
    if len(labels_a) != len(labels_b):
        return False
    fwd, back = {}, {}
    for a, b in zip(labels_a, labels_b):
        a, b = int(a), int(b)
        if fwd.setdefault(a, b) != b or back.setdefault(b, a) != a:
            return False
    return True


def _strict_graph(dist, eps):
    adj = dist < eps
    np.fill_diagonal(adj, False)
    return adj


def components(dist, eps):
    """Component label per point of the strict-< eps graph."""
    return connected_components(_strict_graph(dist, eps), directed=False)[1]


def hop_reference(dist, eps):
    """(labels, all-pairs hop counts, m_star) of the strict-< eps graph.

    m_star is the covering radius: the largest, over components, of the
    smallest hop eccentricity of a member within its component.
    """
    adj = _strict_graph(dist, eps)
    count, labels = connected_components(adj, directed=False)
    hops = shortest_path(csr_matrix(adj), directed=False, unweighted=True)
    m_star = max(
        int(hops[np.ix_(m, m)].max(axis=1).min())
        for m in (np.flatnonzero(labels == c) for c in range(count))
    )
    return labels, hops, m_star

"""Exception types shared across the package, the two number rules for
caller-supplied numbers, and the scale check built on them."""

import math

import numpy as np

__all__ = [
    "ChainscopeError",
    "MalformedInput",
    "MetricViolation",
    "IndexOutOfRange",
    "NonPositiveEpsilon",
    "NonPositiveLength",
    "EmptySubset",
    "NotACover",
    "ShortPrefix",
    "BadSchedule",
    "NoChainAtScale",
    "Exhausted",
    "DegenerateSpace",
    "EmptyFamily",
    "OverlappingBalls",
    "InconsistentLevels",
    "NoValidDelta",
    "UnknownFixture",
    "BadParam",
    "BadSpec",
    "TooLarge",
]


class ChainscopeError(Exception):
    """Base class for every package-specific error."""


class MalformedInput(ChainscopeError, ValueError):
    """Input whose shape, type, or content cannot be interpreted."""


class MetricViolation(ChainscopeError, ValueError):
    """A metric axiom failed validation; never silently repaired."""

    def __init__(self, axiom, witness, detail=""):
        self.axiom = str(axiom)
        self.witness = tuple(int(w) for w in witness)
        msg = f"{self.axiom} violated at {self.witness}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class IndexOutOfRange(ChainscopeError, IndexError):
    """A point index outside [0, n), or a token that names no point."""

    def __init__(self, index, n, message=None):
        self.index = index
        self.n = n
        super().__init__(message or f"index {index} outside [0, {n})")


class NonPositiveEpsilon(ChainscopeError, ValueError):
    """A scale parameter that must be strictly positive was not."""


def _integral(v):
    """v as an int when it is an integer string or a number equal to an
    int; None otherwise (1.5, inf, nan, a list, a boolean)."""
    if type(v) is int:
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (bool, np.bool_)):
        return None
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if isinstance(v, str) or n == v else None


def _real(v):
    """v as a float when it is a finite number or a numeric string; None
    otherwise (inf, nan, a list, a boolean)."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        return None
    ok = math.isfinite(x) and not isinstance(v, (bool, np.bool_))
    return x if ok else None


def check_eps(value):
    """The value as a float when it is a positive finite scale; else raise."""
    eps = _real(value)
    if eps is None or not eps > 0:
        raise NonPositiveEpsilon(
            f"eps must be a positive finite number, got {value}"
        )
    return eps


class NonPositiveLength(ChainscopeError, ValueError):
    """A hop count that must be >= 1 was not."""


class EmptySubset(ChainscopeError, ValueError):
    """An operation that needs a nonempty index subset got an empty one."""


class NotACover(ChainscopeError, ValueError):
    """Two index sets that must jointly cover the space do not."""


class ShortPrefix(ChainscopeError, ValueError):
    """A sequence prefix shorter than the operation requires."""


class BadSchedule(ChainscopeError, ValueError):
    """A tolerance schedule violating its monotonicity contract."""


class NoChainAtScale(ChainscopeError):
    """No chain joins a required pair at the binding stage scale."""

    def __init__(self, stage, pair, eps):
        self.stage = int(stage)
        self.pair = tuple(int(p) for p in pair)
        self.eps = float(eps)
        super().__init__(
            f"no chain at scale {self.eps:g} (stage {self.stage}) "
            f"between points {self.pair}"
        )


class Exhausted(ChainscopeError):
    """Survivors ran out before the schedule ended.

    Carries the partial result: the stage reached and everything emitted
    before the failure.
    """

    def __init__(self, stage, positions, components):
        self.stage = int(stage)
        self.positions = tuple(int(p) for p in positions)
        self.components = tuple(components)
        super().__init__(
            f"survivors exhausted at stage {self.stage} "
            f"after emitting {len(self.positions)} positions"
        )


class DegenerateSpace(ChainscopeError, ValueError):
    """A space too small for the requested modulus (no pairs)."""


class EmptyFamily(ChainscopeError, ValueError):
    """A function family that must be nonempty was empty."""


class OverlappingBalls(ChainscopeError, ValueError):
    """Two spike balls share a point."""

    def __init__(self, k1, k2, witness):
        self.k1 = int(k1)
        self.k2 = int(k2)
        self.witness = int(witness)
        super().__init__(
            f"balls {self.k1} and {self.k2} overlap at point {self.witness}"
        )


class InconsistentLevels(ChainscopeError, ValueError):
    """Level-window membership does not cover every point."""


class NoValidDelta(ChainscopeError):
    """No positive breakpoint satisfies the image-containment requirement."""


class UnknownFixture(ChainscopeError, ValueError):
    """Fixture name not in the registry."""


class BadParam(ChainscopeError, ValueError):
    """A fixture or generator parameter outside its domain."""


class BadSpec(ChainscopeError, ValueError):
    """A random-space spec outside its domain."""


class TooLarge(ChainscopeError, ValueError):
    """Input exceeds a hard size guard: a brute-force oracle's, or the
    fixture budget, whose message gives the byte estimate."""

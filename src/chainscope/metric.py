"""Finite metric spaces with pluggable distance providers and axiom validation.

A space is a fixed indexed point set plus a distance oracle.  Each provider
is one ``_Provider`` record: its parameter rule (the same for
``parse_provider`` and ``MetricSpace``), how point data becomes the
read-only coordinate array, the one kernel behind every query route, and
its validation.  A subspace slices its parent's coordinates, so its
distances equal the parent's bit for bit.  Construction always raises on
a violation; an invalid input is never patched into a metric.

An explicit matrix is checked exhaustively: finite, nonnegative, symmetric
with a zero diagonal, and every triangle over all n**3 triples, each within
the absolute tolerance ``MATRIX_TOL``.  The five derived providers are
metrics by construction: each is a p-norm or the sup norm of coordinate
differences (``euclidean``, ``p-norm-sparse``, ``sup-norm-sparse``,
``function-sup``) or min(cap, |a - b|) (``bounded-usual``).  A triangle
check on them could only report rounding, so they are checked for range
alone: finite point data, and a finite bound on every distance, which is
the provider's kernel applied to the per-coordinate spread.  Euclidean
differences below about 1e-154 square to zero, so such distinct points lie
at distance 0.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IndexOutOfRange, MalformedInput, MetricViolation
from .errors import _integral, _real

__all__ = [
    "SparseVector",
    "MetricSpace",
    "build_space",
    "parse_provider",
    "load_matrix_csv",
    "load_points_jsonl",
]

# Absolute tolerance of the explicit-matrix checks: diagonal, symmetry and
# triangle.
MATRIX_TOL = 1e-12


def _coordinate(k, v):
    """One coordinate entry as (int index, float value)."""
    index = _integral(k)
    if index is None:
        raise MalformedInput(f"coordinate index {k!r} is not an integer")
    value = _real(v)
    if value is None:
        raise MalformedInput(f"coordinate {index} value {v!r} is not a number")
    return index, value


class SparseVector:
    """Finitely supported real vector; coordinates not stored are zero."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        items = entries.items() if hasattr(entries, "items") else entries
        store = {}
        for k, v in items:
            k, v = _coordinate(k, v)
            if k < 0:
                raise MalformedInput(f"negative coordinate index {k}")
            if v != 0.0:
                store[k] = v
        self.entries = store

    @classmethod
    def unit(cls, k, value=1.0):
        return cls({k: value})

    def support(self):
        return set(self.entries)

    def key(self):
        """Hashable identity: sorted (index, value) pairs."""
        return tuple(sorted(self.entries.items()))

    def __getitem__(self, k):
        return self.entries.get(_coordinate(k, 0.0)[0], 0.0)

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        body = ", ".join(f"{k}: {v:g}" for k, v in sorted(self.entries.items()))
        return f"SparseVector({{{body}}})"

    def tail_mass(self, p, n0):
        """Sum of |v_i|^p over coordinates i > n0."""
        return sum(abs(v) ** p for k, v in self.entries.items() if k > n0)


def _no_param(kind, param):
    if param not in (None, ""):
        raise MalformedInput(f"provider {kind} takes no parameter")
    return None


def _number_rule(number, holds, requirement):
    """Rule for a parameter that ``number`` reads and ``holds`` accepts."""
    def rule(kind, param):
        if param in (None, ""):
            raise MalformedInput(f"provider {kind} requires a parameter")
        value = number(param)
        if value is None or not holds(value):
            raise MalformedInput(f"{kind} {requirement}")
        return value
    return rule


def _floats(data):
    """Dense point data as a float array: a numpy integer or float array as
    numpy converts it, anything else entry by entry, where a boolean, a
    ragged row or a value that is no number or numeric string is refused
    (finiteness is checked on the whole array, as for numpy input)."""
    if isinstance(data, np.ndarray) and data.dtype.kind in "iuf":
        return np.asarray(data, dtype=float)
    try:
        cells = np.array(data, dtype=object)
        if any(isinstance(v, (bool, np.bool_)) for v in cells.flat):
            raise TypeError
        return np.reshape([float(v) for v in cells.flat], cells.shape)
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(
            "point data must be numbers in rows of one length") from None


def _matrix_coords(kind, data, param):
    mat = _floats(data)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MalformedInput(f"distance matrix must be square, got {mat.shape}")
    _check_matrix_basics(mat)
    mat = 0.5 * (mat + mat.T)  # within-tol symmetrization, checked above
    np.fill_diagonal(mat, 0.0)
    return mat


# The converters copy: the space marks its coordinates read-only and caches
# structures built from them, so they must not share the caller's buffer.
def _row_coords(kind, data, param):
    rows = np.array(_floats(data))
    if rows.ndim != 2 or rows.shape[1] != param:
        raise MalformedInput(f"{kind}({param}) needs rows of width {param}, "
                             f"got an array of shape {rows.shape}")
    return rows


def _point_coords(kind, data, param):
    # as _row_coords, but a 1-d array is one value per point
    pts = _floats(data)
    return _row_coords(kind, pts[:, None] if pts.ndim == 1 else pts, param)


def _line_coords(kind, data, param):
    return np.array(_floats(data)).reshape(-1)


def _sparse_coords(kind, data, param):
    """SparseVectors (or their entries) packed onto their joint support."""
    vecs = [v if isinstance(v, SparseVector) else SparseVector(v) for v in data]
    if not vecs:
        raise MalformedInput("empty point list")
    support = sorted(set().union(*(v.entries for v in vecs)) or {0})
    col = {k: i for i, k in enumerate(support)}
    packed = np.zeros((len(vecs), len(support)))
    for i, v in enumerate(vecs):
        for k, val in v.entries.items():
            packed[i, col[k]] = val
    return packed


# numpy's add.reduce sums 8 or more terms pairwise and fewer left to right,
# so below this width a per-coordinate running sum rounds exactly like the
# reduce form and avoids its (rows, cols, width) difference tensor.
_PAIRWISE_SUM_TERMS = 8


# Each kernel maps broadcastable index arrays (ii, jj) to d(ii, jj); the
# scalar, row, elementwise and block routes all go through it.
def _matrix_kernel(c, param, ii, jj):
    return c[ii, jj]


def _euclidean_kernel(c, param, ii, jj):
    """Euclidean distances, squared, summed and rooted in place.

    Below _PAIRWISE_SUM_TERMS coordinates the running sum starts from the
    first column's square, not from 0.0: a square is never -0.0, so
    0.0 + x is x and the floats are unchanged.  Every route passes at
    least one index array, so the sum is an array that sqrt overwrites.
    """
    if c.shape[1] >= _PAIRWISE_SUM_TERMS:
        diff = c[ii] - c[jj]
        diff *= diff
        return np.sqrt(diff.sum(axis=-1))
    first, *others = c.T
    acc = first[ii] - first[jj]
    acc *= acc
    for col in others:
        sq = col[ii] - col[jj]
        sq *= sq
        acc += sq
    return np.sqrt(acc, out=acc)


def _bounded_kernel(c, param, ii, jj):
    # two finite values can lie more than float64's largest value apart;
    # the gap is then inf and min(cap, inf) is the cap
    with np.errstate(over="ignore"):
        gap = c[ii] - c[jj]
        return np.minimum(param, np.abs(gap, out=gap), out=gap)


def _p_norm_kernel(c, param, ii, jj):
    # scaled by each pair's largest difference, so the powers neither
    # overflow nor underflow unless the distance itself does
    diff = c[ii] - c[jj]
    np.abs(diff, out=diff)
    top = diff.max(axis=-1, keepdims=True)
    top[top == 0.0] = 1.0
    diff /= top
    diff **= param
    return top[..., 0] * diff.sum(axis=-1) ** (1.0 / param)


def _sup_kernel(c, param, ii, jj):
    diff = c[ii] - c[jj]
    return np.abs(diff, out=diff).max(axis=-1)


@dataclass(frozen=True)
class _Provider:
    """Everything that depends on the distance kind.

    ``matrix`` marks coordinates that are the distance matrix itself: a
    subspace takes its rows and columns, validation is the exhaustive
    check instead of the range check, and JSONL cannot hold it.
    """

    rule: Callable  # (kind, param) -> the checked param
    coords: Callable  # (kind, data, param) -> float coordinate array
    kernel: Callable  # (coords, param, ii, jj) -> d(ii, jj)
    pair_width: int | None = None  # doubles per pair; None: one per column
    dense_width: Callable | None = None  # param -> JSONL row width; None: sparse
    matrix: bool = False


_PROVIDERS = {
    "explicit-matrix": _Provider(
        _no_param, _matrix_coords, _matrix_kernel, pair_width=1, matrix=True
    ),
    "euclidean": _Provider(
        _number_rule(_integral, lambda v: v >= 1,
                     "dimension must be a positive integer"),
        _point_coords, _euclidean_kernel, dense_width=lambda param: param,
    ),
    "sup-norm-sparse": _Provider(_no_param, _sparse_coords, _sup_kernel),
    "p-norm-sparse": _Provider(
        _number_rule(_real, lambda v: v >= 1, "requires p >= 1"),
        _sparse_coords, _p_norm_kernel,
    ),
    "bounded-usual": _Provider(
        _number_rule(_real, lambda v: v > 0, "requires cap > 0"),
        _line_coords, _bounded_kernel, pair_width=1,
        dense_width=lambda param: 1,
    ),
    "function-sup": _Provider(
        _number_rule(_integral, lambda v: v >= 1,
                     "domain size must be a positive integer"),
        _row_coords, _sup_kernel, dense_width=lambda param: param,
    ),
}


_PROVIDER_RE = re.compile(r"^\s*([a-z][a-z-]*)\s*(?:\(\s*([^)]*?)\s*\))?\s*$")


def parse_provider(spec):
    """Normalize a provider spec to a (kind, param) pair.

    Accepts strings like ``"euclidean(2)"`` or pairs like ``("euclidean", 2)``.
    """
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        kind, param = spec
    elif isinstance(spec, str):
        m = _PROVIDER_RE.match(spec)
        if not m:
            raise MalformedInput(f"cannot parse provider spec {spec!r}")
        kind, param = m.group(1), m.group(2)
    else:
        raise MalformedInput(f"cannot parse provider spec {spec!r}")
    try:
        record = _PROVIDERS[kind]
    except (KeyError, TypeError):
        raise MalformedInput(f"unknown provider {kind!r}") from None
    return kind, record.rule(kind, param)


# Rows per pair block are sized so one block holds about this many doubles.
_BLOCK_ELEMENTS = 1 << 18


def _check_matrix_basics(mat):
    if not np.all(np.isfinite(mat)):
        raise MalformedInput("distance matrix must be finite")
    neg = np.argwhere(mat < 0)
    if neg.size:
        i, j = (int(v) for v in neg[0])
        raise MetricViolation("nonnegativity", (i, j), f"d={mat[i, j]:g}")
    bad_diag = np.flatnonzero(np.abs(np.diag(mat)) > MATRIX_TOL)
    if bad_diag.size:
        i = int(bad_diag[0])
        raise MetricViolation("identity", (i, i), f"d(i,i)={mat[i, i]:g}")
    asym = np.abs(mat - mat.T)
    if asym.max(initial=0.0) > MATRIX_TOL:
        i, j = (int(v) for v in np.argwhere(asym > MATRIX_TOL)[0])
        raise MetricViolation(
            "symmetry", (i, j), f"{mat[i, j]:g} != {mat[j, i]:g}"
        )


def _check_triangle_exhaustive(mat):
    # d(i,k) <= min_j d(i,j) + d(j,k) + tol (x -> x + tol is monotone, so
    # the min-plus row finds every violating triple); the witness is the
    # lexicographically first violating (i, k, j).  mat is symmetric, so
    # the min-plus matrix is too, and a violation at (i, k) is one at
    # (k, i): the first in row-major order lies above the diagonal, and
    # each row block needs only its columns from its first row on.  Its
    # min-plus block is taken in square tiles of j, s * s * n sums each.
    n = len(mat)
    s = max(1, math.isqrt(_BLOCK_ELEMENTS // n))
    for a in range(0, n, s):
        rows = mat[a:a + s]
        best = np.full((len(rows), n - a), np.inf)
        for c in range(0, n, s):
            tile = rows[:, c:c + s, None] + mat[None, c:c + s, a:]
            np.minimum(best, tile.min(axis=1), out=best)
        viol = rows[:, a:] > best + MATRIX_TOL
        if viol.any():
            i, k = divmod(int(viol.argmax()), n - a)
            i, k = a + i, a + k
            j = int((mat[i, k] > mat[i, :] + mat[:, k] + MATRIX_TOL).argmax())
            raise MetricViolation(
                "triangle",
                (i, k, j),
                f"d({i},{k})={mat[i, k]:g} > d({i},{j})+d({j},{k})="
                f"{mat[i, j] + mat[j, k]:g}",
            )


class MetricSpace:
    """Indexed finite point set with a validated distance oracle.

    Instances are immutable after construction: backing arrays are private
    copies marked read-only, and all query methods are pure.  ``validation`` records how
    the axioms were checked: ``{"mode": "exhaustive", "triples": n**3}``
    or ``{"mode": "by-construction", "triples": 0}``.
    """

    def __init__(self, kind, data, param=None, labels=None):
        kind, param = parse_provider((kind, param))
        self._setup(kind, param, _PROVIDERS[kind].coords(kind, data, param), labels)

    def _setup(self, kind, param, coords, labels):
        """Check and adopt coordinates: converted ones, or a parent's slice."""
        record = _PROVIDERS[kind]
        self.kind, self.param = kind, param
        self.n = len(coords)
        if self.n < 1:
            raise MalformedInput("a space needs at least one point")
        if not np.all(np.isfinite(coords)):
            raise MalformedInput("point data must be finite")
        coords.setflags(write=False)
        self._coords = coords
        self._kernel = record.kernel
        self._pair_width = record.pair_width or coords.shape[1]

        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != self.n:
                raise MalformedInput("labels length differs from point count")
        self.labels = labels
        self._label_index = (
            {lab: i for i, lab in enumerate(labels)} if labels else {}
        )

        if record.matrix:
            _check_triangle_exhaustive(coords)
            self.validation = {"mode": "exhaustive", "triples": self.n**3}
        else:
            self._check_range()
            self.validation = {"mode": "by-construction", "triples": 0}

    def _check_range(self):
        # every kernel is monotone in each |difference|, so its value on
        # the per-coordinate spread bounds every distance
        with np.errstate(over="ignore", invalid="ignore"):
            spread = np.ptp(self._coords, axis=0)
            bound = self._kernel(
                np.stack([spread, np.zeros_like(spread)]), self.param, [0], [1]
            )
        if not np.all(np.isfinite(bound)):
            raise MalformedInput(f"{self.provider} distances overflow float64")

    # -- identity -----------------------------------------------------------

    @property
    def provider(self):
        return self.kind if self.param is None else f"{self.kind}({self.param:g})"

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"MetricSpace({self.provider}, n={self.n})"

    def check_index(self, i):
        """i as a point index by the integer rule: 2.0 is 2, 1.5 is refused."""
        index = _integral(i)
        if index is None:
            raise IndexOutOfRange(
                i, self.n, f"{i!r} is neither a point index nor a label"
            )
        if not 0 <= index < self.n:
            raise IndexOutOfRange(index, self.n)
        return index

    def label_of(self, i):
        return self.labels[i] if self.labels else str(i)

    def index_of(self, token):
        """Resolve a point reference: a label, else a point index."""
        if isinstance(token, str) and token in self._label_index:
            return self._label_index[token]
        return self.check_index(token)

    # -- distance oracle ----------------------------------------------------

    def distance(self, i, j):
        i = self.check_index(i)
        j = self.check_index(j)
        # a one-pair array, not scalars: numpy's scalar power rounds
        # differently from its array loop
        return float(self._kernel(self._coords, self.param, [i], [j])[0])

    def distances_from(self, i):
        """Vector of distances from point i to every point."""
        i = self.check_index(i)
        return self._kernel(self._coords, self.param, i, np.arange(self.n))

    def _index_array(self, idx):
        ints = isinstance(idx, np.ndarray) and idx.dtype.kind in "iu"
        if ints and (idx.size == 0 or 0 <= idx.min() and idx.max() < self.n):
            return idx.astype(int, copy=False)
        idx = np.asarray(idx, dtype=object)  # a bool in a list stays a bool
        checked = [self.check_index(i) for i in idx.flat]
        return np.array(checked, dtype=int).reshape(idx.shape)

    def pairwise(self, ii, jj):
        """Elementwise distances between two equal-length index arrays."""
        ii = self._index_array(ii)
        jj = self._index_array(jj)
        if ii.shape != jj.shape:
            raise MalformedInput("index arrays must have equal shape")
        return self._pairs(ii, jj)

    def _pairs(self, ii, jj):
        """d(ii, jj) for checked index arrays that broadcast together, such
        as a stack of balls ``idx[:, :, None]`` against ``idx[:, None, :]``."""
        return self._kernel(self._coords, self.param, ii, jj)

    def pair_blocks(self, rows, cols=None, block=None):
        """Distances from row points to column points, one row block at a time.

        Yields ``(offset, row_indices, D)`` in row order, where row_indices
        is ``rows[offset:offset + len(D)]`` and ``D[a, b]`` is the distance
        from ``row_indices[a]`` to ``cols[b]``.

        Without ``cols`` the scan is square and takes the upper triangle:
        each block is paired with the positions from its own first row on,
        so ``D[a, b]`` is the distance from ``rows[offset + a]`` to
        ``rows[offset + b]`` for b > a, and every unordered pair of distinct
        positions appears once.  The entries with b <= a are NaN, so a
        ``<``, ``>=`` or ``>`` test never selects them and ``np.fmin`` /
        ``np.fmax`` reductions skip them.  A caller that needs full rows
        passes ``cols`` explicitly.

        Without ``block`` the rows per block follow a fixed element budget
        over the full row width, so working memory is O(block * len(cols)),
        never O(n^2).  Every query route shares one kernel, so the values
        are bit-identical to ``distance``, ``distances_from`` and
        ``pairwise``.
        """
        rows = self._index_array(rows).reshape(-1)
        square = cols is None
        cols = rows if square else self._index_array(cols).reshape(-1)
        if block is None:
            block = _BLOCK_ELEMENTS // max(1, cols.size * self._pair_width)
        block = max(1, int(block))
        # the non-pairs of every square block, sliced for the last one
        below = np.tri(min(block, rows.size), dtype=bool) if square else None
        for start in range(0, rows.size, block):
            chunk = rows[start:start + block]
            right = cols[start:] if square else cols
            d = self._kernel(
                self._coords, self.param, chunk[:, None], right[None, :]
            )
            if square:  # the block's own square holds its non-pairs
                np.copyto(d[:, :len(d)], np.nan, where=below[:len(d), :len(d)])
            yield start, chunk, d

    def distance_matrix(self):
        """Full n-by-n matrix; O(n^2) time and memory."""
        idx = np.arange(self.n)
        blocks = self.pair_blocks(idx, idx)
        return np.vstack([d for _, _, d in blocks])

    def diameter(self):
        return max(float(np.fmax.reduce(d, axis=None, initial=0.0))
                   for _, _, d in self.pair_blocks(np.arange(self.n)))

    def min_positive_distance(self):
        return min(float(d.min(where=d > 0, initial=math.inf))
                   for _, _, d in self.pair_blocks(np.arange(self.n)))

    def isolation(self, i):
        """Distance from point i to the nearest other point; +inf if alone."""
        row = self.distances_from(i)
        row[self.check_index(i)] = math.inf
        return float(row.min())

    def realized_distances(self):
        """Sorted unique positive pairwise distances (the breakpoint set)."""
        blocks = self.pair_blocks(np.arange(self.n))
        return np.unique(np.concatenate([np.unique(d[d > 0])
                                         for _, _, d in blocks]))

    def subspace(self, indices):
        """Space restricted to the given point indices (order preserved).

        It slices this space's coordinates, so its distances equal this
        space's bit for bit.
        """
        idx = [self.check_index(i) for i in indices]
        if not idx:
            raise MalformedInput("subspace needs at least one index")
        labels = [self.labels[i] for i in idx] if self.labels else None
        c = self._coords
        coords = c[np.ix_(idx, idx)] if _PROVIDERS[self.kind].matrix else c[idx]
        sub = MetricSpace.__new__(MetricSpace)
        sub._setup(self.kind, self.param, coords, labels)
        return sub


def build_space(point_data, provider_spec, labels=None):
    """Build and validate a MetricSpace from raw point data.

    ``provider_spec`` is one of: explicit-matrix, euclidean(dim),
    sup-norm-sparse, p-norm-sparse(p>=1), bounded-usual(cap>0),
    function-sup(domain-size).
    """
    kind, param = parse_provider(provider_spec)
    return MetricSpace(kind, point_data, param=param, labels=labels)


def load_matrix_csv(path):
    """Read a header-free n-by-n CSV distance matrix into a space."""
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file with no data; reject it instead
            warnings.simplefilter("error")
            mat = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except Exception as exc:
        raise MalformedInput(f"cannot read matrix CSV {path}: {exc}") from None
    return MetricSpace("explicit-matrix", mat)


def load_points_jsonl(path):
    """Read points from JSONL: a provider header line, then one point per line.

    Header: ``{"provider": "...", "param": ...}``.  Points:
    ``{"id": int, "coords": {"<index>": value, ...}, "label": optional}``.
    Points are ordered by id.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    if not lines:
        raise MalformedInput(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSONL header: {exc}") from None
    if not isinstance(header, dict) or "provider" not in header:
        raise MalformedInput("first JSONL line must be a provider header")
    kind, param = parse_provider((header["provider"], header.get("param")) if
                                 header.get("param") is not None else header["provider"])
    record = _PROVIDERS[kind]
    if record.matrix:
        raise MalformedInput(f"{kind} cannot be loaded from JSONL")

    rows = []
    for ln in lines[1:]:
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"bad JSONL point line: {exc}") from None
        if not isinstance(rec, dict) or "id" not in rec or "coords" not in rec:
            raise MalformedInput("point lines need 'id' and 'coords'")
        rows.append(rec)
    if not rows:
        raise MalformedInput("JSONL file has a header but no points")
    ids = []
    for r in rows:
        point_id = _integral(r["id"])
        if point_id is None:
            raise MalformedInput(f"point id {r['id']!r} is not an integer")
        ids.append(point_id)
        if not isinstance(r["coords"], dict):
            raise MalformedInput(
                f"point {r['id']}: coords must be a map of index to value"
            )
    if len(set(ids)) != len(ids):
        raise MalformedInput("duplicate point ids")
    rows.sort(key=lambda r: _integral(r["id"]))
    labels = [str(r.get("label", r["id"])) for r in rows]

    def entries(r):
        """The point's coordinates as (index, value) pairs."""
        try:
            return [_coordinate(k, v) for k, v in r["coords"].items()]
        except MalformedInput as exc:
            raise MalformedInput(f"point {r['id']}: {exc}") from None

    if record.dense_width is None:
        data = [SparseVector(entries(r)) for r in rows]
    else:
        width = record.dense_width(param)
        data = np.zeros((len(rows), width))
        for rix, r in enumerate(rows):
            for k, v in entries(r):
                if not 0 <= k < width:
                    raise MalformedInput(
                        f"coordinate index {k} outside [0, {width}) for {kind}"
                    )
                data[rix, k] = v
    return MetricSpace(kind, data, param=param, labels=labels)

"""Finite metric spaces with pluggable distance providers and axiom validation.

A space is a fixed indexed point set plus a distance oracle.  Providers either
store distances outright (``explicit-matrix``) or derive them from per-point
data.  Construction validates the metric axioms and always raises on a
violation; an invalid input is never patched into a metric.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import IndexOutOfRange, MalformedInput, MetricViolation

__all__ = [
    "SparseVector",
    "MetricSpace",
    "build_space",
    "distance",
    "isolation",
    "parse_provider",
    "load_matrix_csv",
    "load_points_jsonl",
]

# Largest n for which n**3 stays within the triple sampling budget; derived
# providers are checked exhaustively below it and sampled above it.
EXHAUSTIVE_TRIPLE_LIMIT = 46
TRIPLE_SAMPLE_BUDGET = 100_000
_VALIDATION_SEED = 0x5EED


def _coordinate(k, v):
    """One coordinate entry as (int index, float value)."""
    try:
        index = int(k)
    except (TypeError, ValueError, OverflowError):
        index = None
    if index is None or (not isinstance(k, str) and index != k):
        raise MalformedInput(f"coordinate index {k!r} is not an integer")
    try:
        return index, float(v)
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(
            f"coordinate {index} value {v!r} is not a number"
        ) from None


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
        return self.entries.get(int(k), 0.0)

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        body = ", ".join(f"{k}: {v:g}" for k, v in sorted(self.entries.items()))
        return f"SparseVector({{{body}}})"

    def sup_distance(self, other):
        keys = self.support() | other.support()
        return max((abs(self[k] - other[k]) for k in keys), default=0.0)

    def p_distance(self, other, p):
        keys = self.support() | other.support()
        return sum(abs(self[k] - other[k]) ** p for k in keys) ** (1.0 / p)

    def tail_mass(self, p, n0):
        """Sum of |v_i|^p over coordinates i > n0."""
        return sum(abs(v) ** p for k, v in self.entries.items() if k > n0)

    def to_json_dict(self):
        return {str(k): v for k, v in sorted(self.entries.items())}


_PROVIDER_RE = re.compile(r"^\s*([a-z][a-z-]*)\s*(?:\(\s*([^)]*?)\s*\))?\s*$")

_KINDS = (
    "explicit-matrix",
    "euclidean",
    "sup-norm-sparse",
    "p-norm-sparse",
    "bounded-usual",
    "function-sup",
)


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

    if kind not in _KINDS:
        raise MalformedInput(f"unknown provider {kind!r}")

    if kind in ("explicit-matrix", "sup-norm-sparse"):
        if param not in (None, ""):
            raise MalformedInput(f"provider {kind} takes no parameter")
        return kind, None

    if param in (None, ""):
        raise MalformedInput(f"provider {kind} requires a parameter")
    try:
        value = float(param)
    except (TypeError, ValueError):
        raise MalformedInput(f"bad parameter {param!r} for provider {kind}") from None

    if kind == "euclidean":
        if value < 1 or value != int(value):
            raise MalformedInput("euclidean dimension must be a positive integer")
        return kind, int(value)
    if kind == "function-sup":
        if value < 1 or value != int(value):
            raise MalformedInput("function-sup domain size must be a positive integer")
        return kind, int(value)
    if kind == "p-norm-sparse":
        if value < 1:
            raise MalformedInput("p-norm-sparse requires p >= 1")
        return kind, value
    if kind == "bounded-usual":
        if value <= 0:
            raise MalformedInput("bounded-usual requires cap > 0")
        return kind, value
    raise MalformedInput(f"unknown provider {kind!r}")


# Rows per pair block are sized so one block holds about this many doubles.
_BLOCK_ELEMENTS = 1 << 18

# numpy's add.reduce sums 8 or more terms pairwise and fewer left to right,
# so below this width a per-coordinate running sum rounds exactly like the
# reduce form and avoids its (rows, cols, width) difference tensor.
_PAIRWISE_SUM_TERMS = 8


# Each kernel maps broadcastable index arrays (ii, jj) to d(ii, jj); the
# scalar, row, elementwise and block routes all go through it.
def _matrix_kernel(c, param, ii, jj):
    return c[ii, jj]


def _euclidean_kernel(c, param, ii, jj):
    if c.shape[1] >= _PAIRWISE_SUM_TERMS:
        diff = c[ii] - c[jj]
        return np.sqrt((diff * diff).sum(axis=-1))
    acc = 0.0
    for col in c.T:
        diff = col[ii] - col[jj]
        acc = acc + diff * diff
    return np.sqrt(acc)


def _bounded_kernel(c, param, ii, jj):
    return np.minimum(param, np.abs(c[ii] - c[jj]))


def _p_norm_kernel(c, param, ii, jj):
    diff = np.abs(c[ii] - c[jj])
    return (diff**param).sum(axis=-1) ** (1.0 / param)


def _sup_kernel(c, param, ii, jj):
    return np.abs(c[ii] - c[jj]).max(axis=-1)


_KERNELS = {
    "explicit-matrix": _matrix_kernel,
    "euclidean": _euclidean_kernel,
    "sup-norm-sparse": _sup_kernel,
    "p-norm-sparse": _p_norm_kernel,
    "bounded-usual": _bounded_kernel,
    "function-sup": _sup_kernel,
}


def above_diagonal(offset, block):
    """Mask of the entries of a ``pair_blocks`` block from a square scan
    (cols == rows) that pair a row with a later position."""
    rows, cols = block.shape
    return np.arange(cols) > np.arange(offset, offset + rows)[:, None]


class MetricSpace:
    """Indexed finite point set with a validated distance oracle.

    Instances are immutable after construction: backing arrays are marked
    read-only and all query methods are pure.
    """

    def __init__(self, kind, data, param=None, tol=1e-12, labels=None, validate=True):
        if kind not in _KINDS:
            raise MalformedInput(f"unknown provider {kind!r}")
        self.kind = kind
        self.tol = float(tol)
        self.param = param
        self._vectors = None

        if kind == "explicit-matrix":
            mat = np.asarray(data, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise MalformedInput(f"distance matrix must be square, got {mat.shape}")
            self.n = mat.shape[0]
            self._check_matrix_basics(mat)
            mat = 0.5 * (mat + mat.T)  # within-tol symmetrization, checked above
            np.fill_diagonal(mat, 0.0)
            self._coords = mat
        elif kind == "euclidean":
            pts = np.asarray(data, dtype=float)
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.ndim != 2:
                raise MalformedInput("euclidean points must be a 2-d array")
            if param is None:
                self.param = param = pts.shape[1]
            if pts.shape[1] != param:
                raise MalformedInput(
                    f"euclidean({param}) got points of dimension {pts.shape[1]}"
                )
            self.n = pts.shape[0]
            self._coords = pts
        elif kind == "bounded-usual":
            if param is None or param <= 0:
                raise MalformedInput("bounded-usual requires cap > 0")
            pts = np.asarray(data, dtype=float).reshape(-1)
            self.n = pts.shape[0]
            self._coords = pts
        elif kind in ("sup-norm-sparse", "p-norm-sparse"):
            if kind == "p-norm-sparse" and (param is None or param < 1):
                raise MalformedInput("p-norm-sparse requires p >= 1")
            vecs = [v if isinstance(v, SparseVector) else SparseVector(v) for v in data]
            if not vecs:
                raise MalformedInput("empty point list")
            self._vectors = tuple(vecs)
            self.n = len(vecs)
            support = sorted(set().union(*(v.support() for v in vecs)) or {0})
            col = {k: i for i, k in enumerate(support)}
            packed = np.zeros((self.n, len(support)))
            for i, v in enumerate(vecs):
                for k, val in v.entries.items():
                    packed[i, col[k]] = val
            self._support = np.asarray(support, dtype=int)
            self._support.setflags(write=False)
            self._coords = packed
        elif kind == "function-sup":
            vals = np.asarray(data, dtype=float)
            if vals.ndim != 2:
                raise MalformedInput("function-sup points must be a 2-d array")
            if param is None:
                self.param = param = vals.shape[1]
            if vals.shape[1] != param:
                raise MalformedInput(
                    f"function-sup({param}) got rows of width {vals.shape[1]}"
                )
            self.n = vals.shape[0]
            self._coords = vals

        if self.n < 1:
            raise MalformedInput("a space needs at least one point")
        if not np.all(np.isfinite(self._coords)):
            raise MalformedInput("point data must be finite")
        self._coords.setflags(write=False)
        self._kernel = _KERNELS[kind]
        # doubles a kernel holds per pair, at most: one per coordinate for
        # the vector providers, one for the matrix and bounded-usual kernels
        self._pair_width = (
            1 if kind in ("explicit-matrix", "bounded-usual")
            else self._coords.shape[1]
        )

        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != self.n:
                raise MalformedInput("labels length differs from point count")
        self.labels = labels
        self._label_index = (
            {lab: i for i, lab in enumerate(labels)} if labels else {}
        )

        if validate:
            self._validate()

    # -- construction checks ------------------------------------------------

    def _check_matrix_basics(self, mat):
        if not np.all(np.isfinite(mat)):
            raise MalformedInput("distance matrix must be finite")
        neg = np.argwhere(mat < 0)
        if neg.size:
            i, j = (int(v) for v in neg[0])
            raise MetricViolation("nonnegativity", (i, j), f"d={mat[i, j]:g}")
        bad_diag = np.flatnonzero(np.abs(np.diag(mat)) > self.tol)
        if bad_diag.size:
            i = int(bad_diag[0])
            raise MetricViolation("identity", (i, i), f"d(i,i)={mat[i, i]:g}")
        asym = np.abs(mat - mat.T)
        if asym.max(initial=0.0) > self.tol:
            i, j = (int(v) for v in np.argwhere(asym > self.tol)[0])
            raise MetricViolation(
                "symmetry", (i, j), f"{mat[i, j]:g} != {mat[j, i]:g}"
            )

    def _validate(self):
        if self.kind == "explicit-matrix":
            self._check_triangle_exhaustive(self._coords)
        elif self.n <= EXHAUSTIVE_TRIPLE_LIMIT:
            self._check_triangle_exhaustive(self.distance_matrix())
        else:
            self._check_triangle_sampled()

    def _check_triangle_exhaustive(self, mat):
        # d(i,k) <= d(i,j) + d(j,k) + tol for all triples; witness is the
        # lexicographically first (i, k, j).
        n = self.n
        viol = np.zeros((n, n), dtype=bool)
        best_j = np.full((n, n), n, dtype=int)
        for j in range(n - 1, -1, -1):
            bad = mat > mat[:, [j]] + mat[[j], :] + self.tol
            viol |= bad
            best_j[bad] = j
        if viol.any():
            i, k = (int(v) for v in np.argwhere(viol)[0])
            j = int(best_j[i, k])
            raise MetricViolation(
                "triangle",
                (i, k, j),
                f"d({i},{k})={mat[i, k]:g} > d({i},{j})+d({j},{k})="
                f"{mat[i, j] + mat[j, k]:g}",
            )

    def _check_triangle_sampled(self):
        rng = np.random.default_rng(_VALIDATION_SEED)
        m = TRIPLE_SAMPLE_BUDGET
        ii = rng.integers(0, self.n, m)
        jj = rng.integers(0, self.n, m)
        kk = rng.integers(0, self.n, m)
        d_ik = self.pairwise(ii, kk)
        d_ij = self.pairwise(ii, jj)
        d_jk = self.pairwise(jj, kk)
        bad = np.flatnonzero(d_ik > d_ij + d_jk + self.tol)
        if bad.size:
            b = bad[0]
            raise MetricViolation(
                "triangle",
                (int(ii[b]), int(kk[b]), int(jj[b])),
                f"d={d_ik[b]:g} > {d_ij[b] + d_jk[b]:g}",
            )
        # identity of indiscernibles, spot-checked on the same sample
        zero = np.flatnonzero((d_ij == 0.0) & (ii != jj))
        for b in zero:
            if not np.allclose(
                self._coords[ii[b]], self._coords[jj[b]], atol=self.tol, rtol=0.0
            ):
                raise MetricViolation(
                    "identity",
                    (int(ii[b]), int(jj[b])),
                    "zero distance between distinct points",
                )

    # -- identity -----------------------------------------------------------

    @property
    def provider(self):
        if self.kind in ("explicit-matrix", "sup-norm-sparse"):
            return self.kind
        return f"{self.kind}({self.param:g})"

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"MetricSpace({self.provider}, n={self.n})"

    def check_index(self, i):
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexOutOfRange(i, self.n)
        return i

    def label_of(self, i):
        return self.labels[i] if self.labels else str(i)

    def index_of(self, token):
        """Resolve a point reference: integer string or label."""
        if isinstance(token, (int, np.integer)):
            return self.check_index(token)
        token = str(token)
        if token in self._label_index:
            return self._label_index[token]
        try:
            return self.check_index(int(token))
        except ValueError:
            raise IndexOutOfRange(token, self.n) from None

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
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)]
            raise IndexOutOfRange(int(bad.flat[0]), self.n)
        return idx

    def pairwise(self, ii, jj):
        """Elementwise distances between two equal-length index arrays."""
        ii = np.asarray(ii, dtype=int)
        jj = np.asarray(jj, dtype=int)
        if ii.shape != jj.shape:
            raise MalformedInput("index arrays must have equal shape")
        ii = self._index_array(ii)
        jj = self._index_array(jj)
        return self._kernel(self._coords, self.param, ii, jj)

    def pair_blocks(self, rows, cols=None, block=None):
        """Distances from row points to column points, one row block at a time.

        Yields ``(offset, row_indices, D)`` in row order, where row_indices
        is ``rows[offset:offset + len(D)]`` and ``D[a, b]`` is the distance
        from ``row_indices[a]`` to ``cols[b]``; cols defaults to rows.
        Without ``block`` the rows per block follow a fixed element budget,
        so working memory is O(block * len(cols)), never O(n^2).  Every
        query route shares one kernel, so the values are bit-identical to
        ``distance``, ``distances_from`` and ``pairwise``.
        """
        rows = self._index_array(rows).reshape(-1)
        cols = rows if cols is None else self._index_array(cols).reshape(-1)
        if block is None:
            block = _BLOCK_ELEMENTS // max(1, cols.size * self._pair_width)
        block = max(1, int(block))
        for start in range(0, rows.size, block):
            chunk = rows[start:start + block]
            yield start, chunk, self._kernel(
                self._coords, self.param, chunk[:, None], cols[None, :]
            )

    def distance_matrix(self):
        """Full n-by-n matrix; O(n^2) time and memory."""
        blocks = self.pair_blocks(np.arange(self.n))
        return np.vstack([d for _, _, d in blocks])

    def diameter(self):
        blocks = self.pair_blocks(np.arange(self.n))
        return max(float(d.max()) for _, _, d in blocks)

    def min_positive_distance(self):
        best = math.inf
        for _, _, d in self.pair_blocks(np.arange(self.n)):
            pos = d[d > 0]
            if pos.size:
                best = min(best, float(pos.min()))
        return best

    def isolation(self, i):
        """Distance from point i to the nearest other point; +inf if alone."""
        i = self.check_index(i)
        if self.n == 1:
            return math.inf
        row = self.distances_from(i)
        mask = np.ones(self.n, dtype=bool)
        mask[i] = False
        return float(row[mask].min())

    def realized_distances(self):
        """Sorted unique positive pairwise distances (the breakpoint set)."""
        parts = []
        for offset, _, d in self.pair_blocks(np.arange(self.n)):
            upper = d[above_diagonal(offset, d)]
            parts.append(np.unique(upper[upper > 0]))
        return np.unique(np.concatenate(parts))

    def subspace(self, indices, validate=False):
        """Space restricted to the given point indices (order preserved)."""
        idx = [self.check_index(i) for i in indices]
        if not idx:
            raise MalformedInput("subspace needs at least one index")
        labels = [self.labels[i] for i in idx] if self.labels else None
        if self.kind == "explicit-matrix":
            data = self._coords[np.ix_(idx, idx)]
        elif self._vectors is not None:
            data = [self._vectors[i] for i in idx]
        else:
            data = self._coords[idx]
        return MetricSpace(
            self.kind, data, param=self.param, tol=self.tol,
            labels=labels, validate=validate,
        )


def build_space(point_data, provider_spec, tol=1e-12, labels=None):
    """Build and validate a MetricSpace from raw point data.

    ``provider_spec`` is one of: explicit-matrix, euclidean(dim),
    sup-norm-sparse, p-norm-sparse(p>=1), bounded-usual(cap>0),
    function-sup(domain-size).
    """
    kind, param = parse_provider(provider_spec)
    return MetricSpace(kind, point_data, param=param, tol=tol, labels=labels)


def distance(space, i, j):
    return space.distance(i, j)


def isolation(space, i):
    return space.isolation(i)


def load_matrix_csv(path, tol=1e-12):
    """Read a header-free n-by-n CSV distance matrix into a space."""
    try:
        mat = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except Exception as exc:
        raise MalformedInput(f"cannot read matrix CSV {path}: {exc}") from None
    return MetricSpace("explicit-matrix", mat, tol=tol)


def load_points_jsonl(path, tol=1e-12):
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
        try:
            ids.append(int(r["id"]))
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(f"point id {r['id']!r} is not an integer") from None
        if not isinstance(r["coords"], dict):
            raise MalformedInput(
                f"point {r['id']}: coords must be a map of index to value"
            )
    if len(set(ids)) != len(ids):
        raise MalformedInput("duplicate point ids")
    rows.sort(key=lambda r: int(r["id"]))
    labels = [str(r.get("label", r["id"])) for r in rows]

    def entries(r):
        """The point's coordinates as (index, value) pairs."""
        try:
            return [_coordinate(k, v) for k, v in r["coords"].items()]
        except MalformedInput as exc:
            raise MalformedInput(f"point {r['id']}: {exc}") from None

    if kind in ("sup-norm-sparse", "p-norm-sparse"):
        data = [SparseVector(entries(r)) for r in rows]
    else:
        if kind == "euclidean":
            width = param
        elif kind == "function-sup":
            width = param
        elif kind == "bounded-usual":
            width = 1
        else:
            raise MalformedInput("explicit-matrix cannot be loaded from JSONL")
        dense = np.zeros((len(rows), width))
        for rix, r in enumerate(rows):
            for k, v in entries(r):
                if not 0 <= k < width:
                    raise MalformedInput(
                        f"coordinate index {k} outside [0, {width}) for {kind}"
                    )
                dense[rix, k] = v
        data = dense.reshape(-1) if kind == "bounded-usual" else dense
    return MetricSpace(kind, data, param=param, tol=tol, labels=labels)

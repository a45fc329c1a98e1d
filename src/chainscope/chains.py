"""Strict epsilon-adjacency graphs and chain connectivity queries.

Two points are adjacent at scale eps when their distance is strictly below
eps.  Everything here is derived from that one relation: hop layers (BFS),
components (union-find), witness chains, covering profiles, discreteness
thresholds, and the trimmed-cover gap.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import (
    EmptySubset,
    IndexOutOfRange,
    MalformedInput,
    NonPositiveLength,
    NotACover,
    check_eps,
)

__all__ = [
    "ChainGraph",
    "ChainWitness",
    "DiscretenessReport",
    "build_chain_graph",
    "ball_layers",
    "chain_component",
    "find_chain",
    "is_chainable",
    "covering_profile",
    "chain_discreteness",
    "is_uniformly_chain_discrete",
    "u_placed_gap",
]

DISCRETENESS_GRID_SIZE = 40
DISCRETENESS_GRID_RATIO = 0.8


@dataclass(frozen=True)
class ChainWitness:
    """A concrete chain p_0..p_n with every consecutive gap below eps."""

    indices: tuple
    eps: float

    @property
    def length(self):
        """Hop count, one less than the number of listed points."""
        return len(self.indices) - 1

    def validate(self, space):
        for a, b in zip(self.indices, self.indices[1:]):
            if not space.distance(a, b) < self.eps:
                raise MalformedInput(
                    f"witness gap d({a},{b}) >= eps {self.eps:g}"
                )
        return self


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


class ChainGraph:
    """Adjacency, components, and hop geometry of a space at one scale.

    Immutable after construction except for the lazily filled eccentricity
    cache, which is computed once under a lock and read-only afterwards.
    """

    def __init__(self, space, eps):
        self.space = space
        self.eps = check_eps(eps)
        n = space.n
        self._neighbors = []
        uf = _UnionFind(n)
        for _, rows, d in space.pair_blocks(np.arange(n)):
            near = d < self.eps
            near[np.arange(len(rows)), rows] = False
            for i, row in zip(rows.tolist(), near):
                nbrs = np.flatnonzero(row)
                nbrs.setflags(write=False)
                self._neighbors.append(nbrs)
                for j in nbrs[nbrs > i].tolist():
                    uf.union(i, j)
        self._root = np.asarray([uf.find(i) for i in range(n)], dtype=int)
        self._root.setflags(write=False)
        self._members = {}
        for i in range(n):
            self._members.setdefault(int(self._root[i]), []).append(i)
        self._ecc_lock = threading.Lock()
        self._ecc = None  # (m_star, per-component (min_ecc, center))

    @property
    def n(self):
        return self.space.n

    def neighbors(self, i):
        return self._neighbors[self.space.check_index(i)]

    def component_id(self, i):
        return int(self._root[self.space.check_index(i)])

    def component_members(self, i):
        return self._members[self.component_id(i)]

    @property
    def component_count(self):
        return len(self._members)

    def components(self):
        """All components as sorted member lists, ordered by smallest member."""
        return sorted(self._members.values(), key=lambda m: m[0])

    def ball_layers(self, x, m):
        """Points reachable from x by a chain of at most m hops (x included)."""
        x = self.space.check_index(x)
        m = int(m)
        if m < 1:
            raise NonPositiveLength(m)
        seen = {x}
        frontier = [x]
        for _ in range(m):
            nxt = []
            for p in frontier:
                for q in self._neighbors[p]:
                    q = int(q)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            if not nxt:
                break
            frontier = nxt
        return seen

    def chain_component(self, x):
        return set(self.component_members(x))

    def find_chain(self, x, y):
        """Shortest-hop witness from x to y, or None when disconnected.

        BFS with ascending-index neighbor order, so the witness is
        deterministic.
        """
        x = self.space.check_index(x)
        y = self.space.check_index(y)
        if x == y:
            return ChainWitness((x,), self.eps)
        if self._root[x] != self._root[y]:
            return None
        parent = {x: -1}
        frontier = [x]
        while frontier:
            nxt = []
            for p in frontier:
                for q in self._neighbors[p]:
                    q = int(q)
                    if q in parent:
                        continue
                    parent[q] = p
                    if q == y:
                        path = [y]
                        while path[-1] != x:
                            path.append(parent[path[-1]])
                        return ChainWitness(tuple(reversed(path)), self.eps)
                    nxt.append(q)
            frontier = nxt
        return None  # unreachable: components already agreed

    def _hop_matrix(self):
        n = self.n
        indptr = np.zeros(n + 1, dtype=int)
        for i in range(n):
            indptr[i + 1] = indptr[i] + len(self._neighbors[i])
        indices = np.concatenate(self._neighbors) if n else np.zeros(0, dtype=int)
        data = np.ones(len(indices), dtype=np.int8)
        adj = csr_matrix((data, indices, indptr), shape=(n, n))
        return shortest_path(adj, method="D", directed=False, unweighted=True)

    def covering_profile(self):
        """(component count, minimal uniform hop radius).

        The radius is the largest over components of the best center's hop
        eccentricity, i.e. the smallest m such that one chain ball of m hops
        per component covers everything.
        """
        with self._ecc_lock:
            if self._ecc is None:
                per_component = {}
                m_star = 0
                if all(len(m) == 1 for m in self._members.values()):
                    for root in self._members:
                        per_component[root] = (0, root)
                else:
                    hops = self._hop_matrix()
                    for root, members in self._members.items():
                        if len(members) == 1:
                            per_component[root] = (0, members[0])
                            continue
                        sub = hops[np.ix_(members, members)]
                        ecc = sub.max(axis=1)
                        best = int(np.argmin(ecc))
                        m_comp = int(ecc[best])
                        per_component[root] = (m_comp, members[best])
                        m_star = max(m_star, m_comp)
                self._ecc = (m_star, per_component)
        return self.component_count, self._ecc[0]

    def component_centers(self):
        """Per-component (min hop eccentricity, center index)."""
        self.covering_profile()
        return dict(self._ecc[1])


def build_chain_graph(space, eps):
    return ChainGraph(space, eps)


def ball_layers(graph, x, m):
    return graph.ball_layers(x, m)


def chain_component(graph, x):
    return graph.chain_component(x)


def find_chain(graph, x, y):
    return graph.find_chain(x, y)


def is_chainable(space, eps):
    return ChainGraph(space, eps).component_count == 1


def covering_profile(space, eps):
    return ChainGraph(space, eps).covering_profile()


@dataclass
class DiscretenessReport:
    """Per-point separation thresholds for a subset of a space.

    thresholds[x] is the largest scale delta (among the scanned candidates,
    or exact over realized distances) at which the delta-chain component of
    x still contains no other subset point.  uniform is their minimum.
    """

    mode: str
    thresholds: dict
    uniform: float
    candidates: tuple | None = None
    exact: bool = False
    subset: tuple = field(default_factory=tuple)

    def uniformly_discrete_at(self, delta):
        return all(t >= delta for t in self.thresholds.values())


def _subset_indices(space, subset):
    idx = [space.check_index(i) for i in subset]
    if not idx:
        raise EmptySubset("chain discreteness needs a nonempty subset")
    if len(set(idx)) != len(idx):
        raise MalformedInput("subset contains repeated indices")
    return idx


def _universe_edges(space, universe):
    """All unordered pairs of universe positions with their distances."""
    m = len(universe)
    uni = np.asarray(universe, dtype=int)
    ii, jj = np.triu_indices(m, k=1)
    dist = space.pairwise(uni[ii], uni[jj])
    return ii, jj, dist

def chain_discreteness(space, subset, mode="in-ambient", grid="geometric"):
    """Scale thresholds below which subset points sit in separate components.

    mode "in-ambient" lets chains pass through any point of the space;
    "in-itself" restricts them to the subset.  grid is "geometric" (a fixed
    candidate ladder from the diameter down), "exact-breakpoints" (sweep of
    realized distances, giving exact merge thresholds), or an explicit
    iterable of candidate scales.
    """
    idx = _subset_indices(space, subset)
    if mode not in ("in-ambient", "in-itself"):
        raise MalformedInput(f"unknown discreteness mode {mode!r}")
    if len(idx) == 1:
        return DiscretenessReport(
            mode=mode,
            thresholds={idx[0]: math.inf},
            uniform=math.inf,
            exact=True,
            subset=(idx[0],),
        )

    universe = list(range(space.n)) if mode == "in-ambient" else sorted(idx)
    pos_of = {p: k for k, p in enumerate(universe)}
    subset_pos = [pos_of[i] for i in idx]

    if isinstance(grid, str) and grid == "exact-breakpoints":
        thresholds = _exact_thresholds(space, universe, subset_pos)
        report_grid = None
        exact = True
    else:
        if isinstance(grid, str):
            if grid != "geometric":
                raise MalformedInput(f"unknown discreteness grid {grid!r}")
            diam = space.diameter()
            candidates = tuple(
                diam * DISCRETENESS_GRID_RATIO**i
                for i in range(DISCRETENESS_GRID_SIZE)
            )
        else:
            candidates = tuple(sorted((float(g) for g in grid), reverse=True))
            if not candidates:
                raise MalformedInput("empty candidate grid")
        thresholds = _grid_thresholds(space, universe, subset_pos, candidates)
        report_grid = candidates
        exact = False

    out = {idx[k]: thresholds[k] for k in range(len(idx))}
    return DiscretenessReport(
        mode=mode,
        thresholds=out,
        uniform=min(out.values()),
        candidates=report_grid,
        exact=exact,
        subset=tuple(idx),
    )


def _exact_thresholds(space, universe, subset_pos):
    # Single-linkage sweep: add edges in ascending weight order; the moment
    # x's component captures a second subset point, the sup of valid deltas
    # is exactly that edge weight (strict < keeps the component clean at it).
    ii, jj, dist = _universe_edges(space, universe)
    order = np.argsort(dist, kind="stable")
    uf = _UnionFind(len(universe))
    sub_count = {}
    for p in subset_pos:
        sub_count[uf.find(p)] = sub_count.get(uf.find(p), 0) + 1
    pending = set(range(len(subset_pos)))
    thresholds = [math.inf] * len(subset_pos)

    k = 0
    m = len(order)
    while k < m and pending:
        w = dist[order[k]]
        while k < m and dist[order[k]] == w:
            e = order[k]
            ra, rb = uf.find(int(ii[e])), uf.find(int(jj[e]))
            if ra != rb:
                ca, cb = sub_count.pop(ra, 0), sub_count.pop(rb, 0)
                uf.union(ra, rb)
                sub_count[uf.find(ra)] = ca + cb
            k += 1
        done = [
            t for t in pending if sub_count.get(uf.find(subset_pos[t]), 0) > 1
        ]
        for t in done:
            thresholds[t] = float(w)
            pending.discard(t)
    return thresholds


def _grid_thresholds(space, universe, subset_pos, candidates):
    # Ascending sweep with one incremental union-find: being captured by a
    # second subset point is monotone in delta, so each point's threshold is
    # simply the largest candidate at which it is still alone.
    ii, jj, dist = _universe_edges(space, universe)
    order = np.argsort(dist, kind="stable")
    uf = _UnionFind(len(universe))
    thresholds = [0.0] * len(subset_pos)
    k = 0
    m = len(order)
    for delta in sorted(c for c in candidates if c > 0):
        while k < m and dist[order[k]] < delta:
            e = order[k]
            uf.union(int(ii[e]), int(jj[e]))
            k += 1
        counts = {}
        for p in subset_pos:
            r = uf.find(p)
            counts[r] = counts.get(r, 0) + 1
        for t, p in enumerate(subset_pos):
            if counts[uf.find(p)] == 1:
                thresholds[t] = float(delta)
    return thresholds


def is_uniformly_chain_discrete(space, subset, delta, mode="in-ambient"):
    """True iff distinct subset points occupy distinct components at delta."""
    idx = _subset_indices(space, subset)
    delta = check_eps(delta)
    if mode == "in-ambient":
        graph = ChainGraph(space, delta)
        roots = {graph.component_id(i) for i in idx}
    elif mode == "in-itself":
        sub = space.subspace(sorted(idx))
        graph = ChainGraph(sub, delta)
        roots = {graph.component_id(k) for k in range(len(idx))}
    else:
        raise MalformedInput(f"unknown discreteness mode {mode!r}")
    return len(roots) == len(idx)


def u_placed_gap(space, cplus, cminus, eps):
    """Distance between the eps-trimmed halves of a two-set cover.

    Each side is trimmed to the points at distance >= eps from the cover's
    intersection; the gap is the minimum distance between the trimmed sides,
    +inf when either side trims away completely.
    """
    eps = check_eps(eps)
    plus = sorted({space.check_index(i) for i in cplus})
    minus = sorted({space.check_index(i) for i in cminus})
    if set(plus) | set(minus) != set(range(space.n)):
        missing = sorted(set(range(space.n)) - (set(plus) | set(minus)))
        raise NotACover(f"points {missing[:8]} lie in neither cover side")
    inter = sorted(set(plus) & set(minus))

    def trim(side):
        return [
            x
            for _, rows, d in space.pair_blocks(side, inter)
            for x in rows[d.min(axis=1, initial=math.inf) >= eps].tolist()
        ]

    tp, tm = trim(plus), trim(minus)
    if not tp or not tm:
        return math.inf
    return min(float(d.min()) for _, _, d in space.pair_blocks(tp, tm))

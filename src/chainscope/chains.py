"""Strict epsilon-adjacency graphs and chain connectivity queries.

Two points are adjacent at scale eps when their distance is strictly below
eps.  Everything here is derived from that one relation: hop layers (BFS),
components (from one minimum spanning tree per space, for every scale),
neighbour lists (each graph's own CSR, masked from a coarser filled live
graph or scanned), witness chains, covering profiles, discreteness
thresholds, and the trimmed-cover gap.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySubset,
    MalformedInput,
    NonPositiveLength,
    NotACover,
    _integral,
    _real,
    check_eps,
)

__all__ = [
    "ChainGraph",
    "ChainWitness",
    "DiscretenessReport",
    "ball_layers",
    "find_chain",
    "component_centers",
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


@dataclass(frozen=True, eq=False)
class ScaleTree:
    """Minimum spanning tree of a point set, as the order in which dense
    Prim adds the positions: order[k] joins at distance join[k] from the
    positions before it (join[0] = +inf).

    Single linkage (Gower & Ross, JRSS C 18(1), 1969): the join weights
    are the tree's edge weights, and one tree serves every scale, because
    the strict eps-chain components are contiguous runs of order, each
    starting exactly where join >= eps; labels and merge_weights rest on
    this.  Say the tree holds every earlier component whole and part of a
    component C.  C is eps-chained, so some edge of weight below eps
    leaves the tree into C, while every edge from the tree to a point
    outside C weighs at least eps.  Prim takes the cheapest edge out of the
    tree, so it finishes C before it leaves, and it enters each component
    at a weight >= eps.  Hence the positions at Prim steps a < b share a
    component at eps iff max(join[a+1 : b+1]) < eps: that maximum is their
    bottleneck distance.  The weights come from the space's own kernel, so
    the strict comparison is exact.
    """

    order: np.ndarray
    join: np.ndarray

    @property
    def n(self):
        return len(self.order)

    def labels(self, eps):
        """Per-position component label at scale eps: the component's
        smallest position."""
        starts = np.flatnonzero(self.join >= eps)
        smallest = np.minimum.reduceat(self.order, starts)
        out = np.empty_like(self.order)
        out[self.order] = np.repeat(smallest, np.diff(starts, append=self.n))
        return out

    def merge_weights(self, points):
        """For each listed position, the least weight w at which the edges
        of weight <= w join it to another listed position (+inf if never).

        That is the smaller bottleneck to its two neighbours in Prim order
        among the listed positions.
        """
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.n)
        steps = rank[np.asarray(points, dtype=int)]
        by_step = np.argsort(steps)
        s = steps[by_step]
        # bottleneck between consecutive listed positions in Prim order
        gaps = np.full(len(s) + 1, math.inf)
        gaps[1:-1] = np.maximum.reduceat(self.join[: s[-1] + 1], s[:-1] + 1)
        out = np.empty(len(s))
        out[by_step] = np.minimum(gaps[:-1], gaps[1:])
        return out.tolist()


def _spanning_tree(space, points):
    """ScaleTree of the listed points by dense Prim: each point joining the
    tree is measured only against the points still outside it, so every
    pair is computed at most once, in O(len(points)) working memory."""
    points = np.asarray(points, dtype=int)
    m = len(points)
    order = np.zeros(m, dtype=int)
    join = np.full(m, math.inf)
    # positions outside the tree and their distance to it
    rest = np.arange(1, m)
    best = space._pairs(points[0], points[1:])
    for k in range(1, m):
        j = int(np.argmin(best))
        order[k], join[k] = rest[j], best[j]
        last = m - 1 - k
        rest[j], best[j] = rest[last], best[last]
        rest, best = rest[:last], best[:last]
        if last:
            d = space._pairs(points[order[k]], points[rest])
            np.minimum(best, d, out=best)
    order.setflags(write=False)
    join.setflags(write=False)
    return ScaleTree(order, join)


_TREES = weakref.WeakKeyDictionary()
_TREES_LOCK = threading.Lock()


def scale_tree(space):
    """The space's ScaleTree, built on first use and kept while the space
    lives."""
    with _TREES_LOCK:
        tree = _TREES.get(space)
        if tree is None:
            tree = _TREES[space] = _spanning_tree(space, np.arange(space.n))
    return tree


def _slots(starts, lens):
    """Positions of the slices [starts[k], starts[k] + lens[k]), one after
    another: where a run of CSR rows sits in indices."""
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return shift + np.arange(len(shift))


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _scan_table(graph):
    """(indptr, indices, dist), the graph's strict eps-graph: row i of the
    CSR is indices[indptr[i]:indptr[i + 1]] (int32, ascending), and dist
    holds each edge's distance from the space's own kernel.  Each label
    run is scanned against itself, members by index; singletons cost
    nothing.

    An edge below eps joins its two ends into one component, so no edge is
    missed.  Each block's chunk of edges is held until the degrees fix
    indptr and is then placed at its rows' offsets (no global sort), so
    the scan holds at most twice its output plus O(block * |C|).
    """
    space, eps, n = graph.space, graph.eps, graph.n
    order, starts = graph._runs()
    degree = np.zeros(n, dtype=int)
    chunks = []
    for start, stop in zip(starts.tolist(), starts[1:].tolist() + [n]):
        if stop - start < 2:
            continue
        members = order[start:stop]
        ids = members.astype(np.int32)
        for offset, rows, d in space.pair_blocks(members, members):
            near = d < eps
            np.fill_diagonal(near[:, offset:], False)  # each row's own column
            degree[rows] = near.sum(axis=1)
            flat = np.flatnonzero(near)
            chunks.append((rows, ids[flat % len(ids)], d.take(flat)))
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(degree, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    dist = np.empty(indptr[-1])
    while chunks:
        rows, ids, d = chunks.pop()
        slots = _slots(indptr[rows], degree[rows])
        indices[slots] = ids
        dist[slots] = d
    return _frozen(indptr, indices, dist)


def _mask(graph, eps):
    """(indptr, indices, dist) at a scale eps <= graph.eps from a filled
    graph's arrays, in O(edges) and without kernel calls: an edge below
    eps is below graph.eps too, with the same kernel value, so masking
    dist with strict < gives exactly that scale's graph."""
    (indptr, indices), dist = graph._csr, graph._dist
    if eps == graph.eps:
        return indptr, indices, dist
    keep = dist < eps
    kept = np.zeros(len(keep) + 1, dtype=indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return _frozen(kept[indptr], indices[keep], dist[keep])


def _bfs(indptr, indices, source, hops):
    """Breadth-first search from source over one CSR.

    Writes hop distances into hops (-1 marks unseen) one layer at a time
    and yields the depth of each new layer once it is written, so a caller
    stops the search by leaving the loop; the last depth yielded is the
    source's eccentricity.
    """
    hops[source] = 0
    frontier = np.asarray([source])
    depth = 0
    while True:
        starts = indptr[frontier]
        reached = indices[_slots(starts, indptr[frontier + 1] - starts)]
        reached = reached[hops[reached] < 0]
        if not reached.size:
            return
        depth += 1
        # hops doubles as a last-writer array: each point reached twice
        # keeps one copy's ticket, so exactly one copy matches it
        ticket = -2 - np.arange(reached.size)
        hops[reached] = ticket
        frontier = reached[hops[reached] == ticket]
        hops[frontier] = depth
        yield depth


WORD = 64  # BFS sources per round of component_centers, one bit each


def _bit_bfs(rows, nbrs, reach):
    """Bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013) over one CSR
    with no empty row: row i is nbrs[rows[i]:rows[i + 1]].

    reach holds one uint64 word per point, with bit b set at the source of
    search b.  Each layer pulls into every row the words of its
    neighbours, so all the searches advance together.  Returns the
    (points x WORD) int32 hop counts, 0 where a bit never arrives.
    """
    # planes[k] holds, per point, the bits b whose hop count has bit k set
    planes = []
    depth = 0
    while True:
        new = np.bitwise_or.reduceat(reach[nbrs], rows) & ~reach
        moved = np.flatnonzero(new)
        if not moved.size:
            break
        new = new[moved]
        depth += 1
        reach[moved] |= new
        if depth == 1 << len(planes):
            planes.append(np.zeros_like(reach))
        for k, plane in enumerate(planes):
            if depth >> k & 1:
                plane[moved] |= new
    dist = np.zeros((len(reach), WORD), dtype=np.int32)
    for plane in reversed(planes):
        dist <<= 1
        dist += np.unpackbits(plane.astype("<u8").view(np.uint8),
                              bitorder="little").reshape(-1, WORD)
    return dist


def _rank(keys, group):
    """Each item's rank by keys (ties by position) among the items of its
    group."""
    order = np.lexsort((keys, group))
    sorted_group = group[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(sorted_group,
                                                          sorted_group)
    return rank


def _centers(indptr, indices, points, size):
    """(least hop eccentricities, lowest-index centers) of components
    given as their members, sorted, one component after another (points),
    and the component sizes (size).

    The eccentricity bounds of Takes & Kosters (Algorithms 6(1), 2013)
    decide most points without a search from them: after a BFS from v,
    max(d(v,x), ecc(v) - d(v,x)) <= ecc(x) <= ecc(v) + d(v,x).  They
    start at lo = 0 and hi = size - 1, so a single point is its own center
    before any round.  Each round runs one bit-parallel BFS over every
    component still open, from up to WORD of its undecided points, those
    of least lower bound (ties by position); any sources give the same
    result, these keep rounds shallow.  Components are disjoint, so they
    share the bits.
    """
    start = np.cumsum(size) - size
    comp = np.repeat(np.arange(len(size)), size)
    slot = np.arange(len(points))
    lo = np.zeros(len(points), dtype=int)
    hi = size[comp] - 1
    at = np.empty(len(indptr) - 1, dtype=int)  # point -> row of the CSR
    rows = None
    while True:
        exact = lo == hi
        r = np.minimum.reduceat(hi, start)[comp]
        best = np.where(exact & (hi == r), slot, len(points))
        center = np.minimum.reduceat(best, start)
        # a point is decided once its eccentricity is known, or once it
        # cannot beat the best exact center (larger, or tied at a higher
        # index)
        undecided = ~exact & (
            (lo < r) | ((lo == r) & (slot < center[comp]))
        )
        if not undecided.any():
            return r[start].tolist(), points[center].tolist()
        cand = np.flatnonzero(undecided)
        bit = _rank(lo[cand], comp[cand])
        src, bit = cand[bit < WORD], bit[bit < WORD]
        count = np.bincount(comp[src], minlength=len(size))
        live = np.flatnonzero(count[comp])
        if rows is None or len(rows) > len(live):
            # the CSR of the open components, renumbered from 0; all its
            # rows are nonempty and stay inside their component
            ids = points[live]
            at[ids] = np.arange(len(live))
            degree = indptr[ids + 1] - indptr[ids]
            rows = np.cumsum(degree) - degree
            nbrs = at[indices[_slots(indptr[ids], degree)]]
            part = np.flatnonzero(np.diff(comp[live], prepend=-1))
            # row -> its component's position in part
            seat = np.repeat(np.arange(len(part)),
                             np.diff(part, append=len(live)))
        reach = np.zeros(len(live), dtype=np.uint64)
        reach[at[points[src]]] = np.uint64(1) << bit.astype(np.uint64)
        d = _bit_bfs(rows, nbrs, reach)
        # each search's eccentricity within each open component; a bit
        # with no source in a component reads 0 there, which moves lo not
        # at all, and its hi bound is the starting one, size - 1
        ecc = np.maximum.reduceat(d, part, axis=0)
        held = comp[live[part]]
        bound = ecc[seat]
        bound -= d
        np.maximum(bound, d, out=bound)
        lo[live] = np.maximum(lo[live], bound.max(axis=1))
        unused = np.arange(WORD) >= count[held][:, None]
        np.copyto(ecc, size[held, None] - 1, where=unused)
        # into bound in place: seat is in range, and mode "raise" would
        # buffer a copy
        np.take(ecc, seat, axis=0, out=bound, mode="clip")
        bound += d
        hi[live] = np.minimum(hi[live], bound.min(axis=1))
        del d, bound  # the round's (n x WORD) scratch, freed before the next


_GRAPHS = weakref.WeakKeyDictionary()  # space -> WeakSet of live ChainGraphs
_GRAPHS_LOCK = threading.Lock()


def _served(space, eps):
    """The finest live graph of the space filled at a scale >= eps, or
    None; under _GRAPHS_LOCK."""
    filled = [graph for graph in _GRAPHS.get(space, ())
              if graph._csr is not None and graph.eps >= eps]
    return min(filled, key=lambda graph: graph.eps, default=None)


class ChainGraph:
    """Adjacency and components of a space at one scale; the hop queries
    (ball_layers, find_chain, component_centers) take a graph.

    A graph holds its scale's component labels, read from the space's
    ScaleTree (a component's label is its smallest member), and its
    neighbour lists (one CSR) with each edge's distance, filled on first
    use, once, and read-only afterwards.  Its components are its label
    runs (_runs), which the scan, the center search and components() all
    read.  Each graph is registered, by a weak reference, among the
    space's live graphs, so covering_profile and the splice reuse a live
    graph at their scale (labels and CSR) while the caller holds it.

    The fill masks the finest live graph of the space that is filled at a
    scale >= eps, and scans its own label runs only when there is none;
    it never reads the scale tree.  A graph holds that source graph from
    its construction to its fill, so a caller may drop the coarser graph
    before the fill; a finer one filled since serves instead.  After the
    fill a graph refers to no other graph, and shares a source's arrays
    only at the source's own scale.  Registration and the fill run under
    _GRAPHS_LOCK, so a scan also blocks graph construction in other
    threads.  Nothing in chainscope builds graphs from threads.
    """

    def __init__(self, space, eps):
        self.space = space
        self.eps = check_eps(eps)
        self._label = scale_tree(space).labels(self.eps)
        self._label.setflags(write=False)
        self._csr = None  # (indptr, indices)
        self._dist = None
        with _GRAPHS_LOCK:
            self._source = _served(space, self.eps)  # held until the fill
            live = _GRAPHS.get(space)
            if live is None:
                live = _GRAPHS[space] = weakref.WeakSet()
            live.add(self)

    @property
    def n(self):
        return self.space.n

    def _adjacency(self):
        with _GRAPHS_LOCK:
            if self._csr is None:
                source = _served(self.space, self.eps)
                indptr, indices, self._dist = (
                    _scan_table(self) if source is None
                    else _mask(source, self.eps))
                self._csr = indptr, indices
                self._source = None
        return self._csr

    def _runs(self):
        """The points sorted by (label, index), and where each label's run
        starts."""
        order = np.argsort(self._label, kind="stable")
        return order, np.flatnonzero(np.diff(self._label[order], prepend=-1))

    def neighbors(self, i):
        """Points at distance below eps from i, as a read-only ascending
        int32 array."""
        i = self.space.check_index(i)
        indptr, indices = self._adjacency()
        return indices[indptr[i]:indptr[i + 1]]

    def component_id(self, i):
        """Label of i's component: the component's smallest member index."""
        return int(self._label[self.space.check_index(i)])

    def component_members(self, i):
        """Sorted members of i's component: one O(n) scan of the labels per
        call, so take every member list from components()."""
        return np.flatnonzero(self._label == self.component_id(i)).tolist()

    @property
    def component_count(self):
        """The number of components: one O(n) scan of the labels per call
        (a component's label is its smallest member, the one point that is
        its own label)."""
        return int(np.count_nonzero(self._label == np.arange(self.n)))

    def components(self):
        """All components as sorted member lists, ordered by smallest member."""
        order, starts = self._runs()
        return [part.tolist() for part in np.split(order, starts[1:])]


def _live_graph(space, eps):
    """A live ChainGraph of the space at eps, or a new one when none is."""
    eps = check_eps(eps)
    with _GRAPHS_LOCK:
        graph = next((g for g in _GRAPHS.get(space, ()) if g.eps == eps), None)
    return ChainGraph(space, eps) if graph is None else graph


def ball_layers(graph, x, m):
    """Points reachable from x by a chain of at most m hops (x included)."""
    x = graph.space.check_index(x)
    hops_max = _integral(m)
    if hops_max is None or hops_max < 1:
        raise NonPositiveLength(f"hop count must be >= 1, got {m}")
    indptr, indices = graph._adjacency()
    hops = np.full(graph.n, -1)
    for depth in _bfs(indptr, indices, x, hops):
        if depth == hops_max:
            break
    return set(np.flatnonzero(hops >= 0).tolist())


def find_chain(graph, x, y):
    """Shortest-hop witness from x to y, or None when disconnected.

    The witness is the lexicographically first shortest chain read from
    x: a BFS from y gives every point its hop count to y, and the walk
    from x steps each time to the smallest neighbour one hop nearer y.
    """
    x = graph.space.check_index(x)
    y = graph.space.check_index(y)
    if x == y:
        return ChainWitness((x,), graph.eps)
    if graph._label[x] != graph._label[y]:
        return None
    indptr, indices = graph._adjacency()
    hops = np.full(graph.n, -1)
    for _ in _bfs(indptr, indices, y, hops):
        if hops[x] >= 0:
            break
    path = [x]
    while path[-1] != y:
        p = path[-1]
        row = indices[indptr[p]:indptr[p + 1]]
        path.append(int(row[hops[row] == hops[p] - 1][0]))
    return ChainWitness(tuple(path), graph.eps)


def component_centers(graph):
    """Per-component (min hop eccentricity, center index), keyed by
    component label in ascending order.  The center of a component is its
    lowest index of least eccentricity.

    The components are the graph's label runs, all searched at once, in
    rounds of one bit-parallel BFS from up to 64 points of each
    component still open: its undecided points of least Takes-Kosters
    lower bound, ties by index.  A round costs one O(depth x edges) sweep
    over the open components' rows, where depth is the largest
    eccentricity of its sources, so components of large hop diameter
    (long paths) pay for every layer.  The scratch is two (n x 64) int32
    arrays, the hop counts and one bound at a time (512 bytes a point),
    and 16 bytes an edge: the renumbered rows and the neighbour words each
    layer gathers.
    """
    order, starts = graph._runs()
    indptr, indices = graph._adjacency()
    radii, centers = _centers(indptr, indices, order,
                              np.diff(starts, append=graph.n))
    return dict(zip(order[starts].tolist(), zip(radii, centers)))


def is_chainable(space, eps):
    """True iff the space is one eps-chain component: a component's label
    is its smallest point, so every label is 0."""
    return not scale_tree(space).labels(check_eps(eps)).any()


def covering_profile(space, eps):
    """(component count, minimal uniform hop radius) at scale eps.

    The radius is the largest over components of the best center's hop
    eccentricity, i.e. the smallest m such that one chain ball of m hops
    per component covers everything.  A live ChainGraph of the space at
    eps is reused with its neighbour lists; a graph is built only when
    none is live.
    """
    graph = _live_graph(space, eps)
    centers = component_centers(graph).values()
    return len(centers), max(e for e, _ in centers)


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


def _candidate(g):
    """An explicit candidate scale by the real-number rule, or +inf, which
    is a candidate too."""
    c = _real(g) if g != math.inf else math.inf
    if c is None:
        raise MalformedInput(f"candidate scale {g!r} is not a number")
    return c


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

    if isinstance(grid, str) and grid == "exact-breakpoints":
        candidates = None
    elif isinstance(grid, str):
        if grid != "geometric":
            raise MalformedInput(f"unknown discreteness grid {grid!r}")
        diam = space.diameter()
        candidates = tuple(
            diam * DISCRETENESS_GRID_RATIO**i
            for i in range(DISCRETENESS_GRID_SIZE)
        )
    else:
        candidates = tuple(sorted(map(_candidate, grid), reverse=True))
        if not candidates:
            raise MalformedInput("empty candidate grid")

    # x's component first captures a second subset point at its merge
    # weight, and strict < keeps the component clean at that weight itself.
    if mode == "in-ambient":
        merge = scale_tree(space).merge_weights(idx)
    else:
        merge = _spanning_tree(space, idx).merge_weights(range(len(idx)))

    if candidates is None:
        thresholds = merge
    else:
        # x is alone at delta iff delta <= its merge weight
        ladder = np.sort([c for c in candidates if c > 0])
        pick = np.searchsorted(ladder, merge, side="right") - 1
        thresholds = [float(ladder[k]) if k >= 0 else 0.0 for k in pick]

    out = {i: t for i, t in zip(idx, thresholds)}
    return DiscretenessReport(
        mode=mode,
        thresholds=out,
        uniform=min(out.values()),
        candidates=candidates,
        exact=candidates is None,
        subset=tuple(idx),
    )


def is_uniformly_chain_discrete(space, subset, delta, mode="in-ambient"):
    """True iff distinct subset points occupy distinct components at delta."""
    idx = _subset_indices(space, subset)
    delta = check_eps(delta)
    report = chain_discreteness(space, idx, mode, "exact-breakpoints")
    return report.uniformly_discrete_at(delta)


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

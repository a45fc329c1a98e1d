"""scale-sweep: chain structure rebuilt across a ladder of scales.

A clustered euclidean(2) cloud (12 Gaussian blobs) swept over a geometric
ladder of scales, on which the component count runs from 1 to about a
hundred.  Every scale builds its chain graph more than once (the graph
itself, the covering profile, the sequence tests), so one structure
serving all scales shows here; distance rows are a minor share.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .common import (
    Pass, close, components, hop_reference, require, same_partition,
)

PER_BLOB = 66
BLOBS = 12               # on a jittered 4 x 3 grid, so that the work per
N = PER_BLOB * BLOBS     # pass barely depends on the seed
SIGMA = 0.03
LADDER = tuple(0.14 * 0.7**i for i in range(7))
EXTRACT_STAGES = 4       # first four ladder scales, starts spread over the walk
BQC_SCALES = (0, 2, 4)   # ladder positions
SPLICE_LEN = 40
SPLICE_SCALES = (0, 2)   # ladder positions of the splice schedule
SPLICE_START = 10
SUBSET_STEP = 10         # every 10th point for chain_discreteness
GRID_SIZE, GRID_RATIO = 40, 0.8  # the documented geometric candidate ladder

SIZES = {"n": N, "blobs": BLOBS, "sigma": SIGMA, "scales": len(LADDER),
         "subset": N // SUBSET_STEP, "splice_prefix": SPLICE_LEN}


def generate(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    gx, gy = np.meshgrid(np.linspace(0.2, 0.8, 4), np.linspace(0.25, 0.75, 3))
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    centers += rng.uniform(-0.02, 0.02, centers.shape)
    blob = np.repeat(np.arange(BLOBS), PER_BLOB)
    pts = centers[blob] + rng.normal(0.0, SIGMA, (N, 2))
    # a walk that ends inside blob 0, so tail-component tests can pass
    home = rng.permutation(np.flatnonzero(blob == 0))
    away = rng.permutation(np.flatnonzero(blob != 0))
    walk = np.concatenate([away, home])
    # the splice prefix stays inside the largest component at its finest
    # scale, so every gap it must close has a chain
    comp = components(squareform(pdist(pts)), LADDER[SPLICE_SCALES[-1]])
    biggest = np.flatnonzero(comp == np.bincount(comp).argmax())
    splice = rng.choice(biggest, size=min(SPLICE_LEN, len(biggest)),
                        replace=False)
    return {"pts": pts, "walk": walk, "splice": splice}


def references(inp):
    pts, walk = inp["pts"], inp["walk"]
    dist = squareform(pdist(pts))
    ref = {}
    start = int(walk[-1])
    for s, eps in enumerate(LADDER):
        labels, hops, m_star = hop_reference(dist, eps)
        mine = np.flatnonzero(labels == labels[start])
        far = int(mine[np.argmax(hops[start, mine])])
        ref[f"labels{s}"] = labels
        ref[f"m_star{s}"] = m_star
        ref[f"chain{s}"] = np.asarray([start, far, int(hops[start, far])])

    for s in BQC_SCALES:
        roots = ref[f"labels{s}"][walk]
        if roots[-1] != roots[-2]:
            ref[f"bqc{s}"] = np.asarray([-1, -1])
            continue
        n0 = len(roots) - 1
        while n0 > 0 and roots[n0 - 1] == roots[-1]:
            n0 -= 1
        center = int(np.flatnonzero(ref[f"labels{s}"] == roots[-1])[0])
        ref[f"bqc{s}"] = np.asarray([n0, center])

    subset = np.arange(0, N, SUBSET_STEP)
    candidates = dist.max() * GRID_RATIO ** np.arange(GRID_SIZE)
    thresholds = np.zeros(len(subset))
    for c in np.sort(candidates):
        labels = components(dist, c)
        alone = np.bincount(labels[subset], minlength=labels.max() + 1)
        thresholds[alone[labels[subset]] == 1] = c
    ref["candidates"] = candidates
    ref["grid_thresholds"] = thresholds
    sub = dist[np.ix_(subset, subset)]
    np.fill_diagonal(sub, np.inf)
    ref["exact_thresholds"] = sub.min(axis=1)
    return ref


def _schedules(walk):
    extract = tuple(
        (LADDER[j], (j * len(walk)) // (2 * EXTRACT_STAGES))
        for j in range(EXTRACT_STAGES)
    )
    splice = ((LADDER[SPLICE_SCALES[0]], 0),
              (LADDER[SPLICE_SCALES[1]], SPLICE_START))
    return extract, splice


def _gaps(pts, indices):
    idx = np.asarray(indices)
    return np.linalg.norm(pts[idx[1:]] - pts[idx[:-1]], axis=1)


def run_pass(cs, inp, ref):
    pts, walk, splice_pts = inp["pts"], inp["walk"], inp["splice"]
    extract_stages, splice_stages = _schedules(walk)
    subset = list(range(0, N, SUBSET_STEP))
    p = Pass()

    def build():
        space = cs.build_space(pts, "euclidean(2)")
        prefix = cs.SequencePrefix(space, tuple(int(i) for i in walk))
        short = cs.SequencePrefix(space, tuple(int(i) for i in splice_pts))
        return (space, prefix, short, cs.ToleranceSchedule(extract_stages),
                cs.ToleranceSchedule(splice_stages))

    built = p.op("build", build, lambda b: require(b[0].n == N, "point count"))
    space, prefix, short, extract_sched, splice_sched = built or (None,) * 5

    for s, eps in enumerate(LADDER):
        labels = ref[f"labels{s}"]

        def graph_check(g, labels=labels):
            require(g.component_count == labels.max() + 1, "component count")
            ids = [g.component_id(i) for i in range(N)]
            require(same_partition(ids, labels), "component partition")

        graph = p.op(f"chain_graph[{s}]",
                     lambda eps=eps: cs.ChainGraph(space, eps), graph_check)

        def profile_check(v, s=s, labels=labels):
            require(v == (labels.max() + 1, ref[f"m_star{s}"]), f"profile {v}")

        p.op(f"covering_profile[{s}]",
             lambda eps=eps: cs.covering_profile(space, eps), profile_check)
        a, b, hops = (int(v) for v in ref[f"chain{s}"])

        def chain_check(w, space=space, a=a, b=b, hops=hops, eps=eps):
            w.validate(space)
            require(w.indices[0] == a and w.indices[-1] == b, "endpoints")
            require(w.length == hops, f"{w.length} hops, expected {hops}")
            require((_gaps(pts, w.indices) < eps).all(), "witness gap")

        p.op(f"find_chain[{s}]", lambda g=graph, a=a, b=b: cs.find_chain(g, a, b),
             chain_check)

    def extract_check(res):
        pos = res.positions
        require(len(pos) == EXTRACT_STAGES and list(pos) == sorted(set(pos)),
                f"positions {pos}")
        alive = np.arange(N)
        for j, rec in enumerate(res.stages):
            labels = ref[f"labels{j}"][walk]
            groups = np.bincount(labels[alive])
            surv = np.asarray(rec.survivors)
            require(set(surv) <= set(alive), "survivors shrink")
            require(len(set(labels[surv])) == 1, "one component per stage")
            require(len(surv) == groups.max() == rec.census, "majority")
            require(pos[j] in set(surv), "emitted survivor")
            alive = surv

    p.op("extract_bqc_subsequence",
         lambda: cs.extract_bqc_subsequence(prefix, space, extract_sched),
         extract_check)

    for s in BQC_SCALES:
        n0, center = (int(v) for v in ref[f"bqc{s}"])

        def bqc_check(res, n0=n0, center=center):
            if n0 < 0:
                require(res.status == "falsified", "bqc status")
            else:
                require((res.n0, res.center) == (n0, center),
                        f"bqc ({res.n0}, {res.center})")

        p.op(f"bourbaki_qc_test[{s}]",
             lambda s=s: cs.bourbaki_qc_test(prefix, space, LADDER[s]), bqc_check)

    def splice_check(res):
        out, embedding = res
        out = np.asarray(out.indices)
        require((out[list(embedding)] == splice_pts).all(), "embedding")
        gaps = _gaps(pts, out)
        for eps, start in splice_stages:
            require((gaps[embedding[start]:] < eps).all(), "spliced gap")

    p.op("splice_to_quasi_cauchy",
         lambda: cs.splice_to_quasi_cauchy(short, space, splice_sched),
         splice_check)

    def grid_check(rep):
        require(len(rep.candidates) == GRID_SIZE and all(
            close(c, r) for c, r in zip(rep.candidates, ref["candidates"])),
            "candidate ladder")
        got = [rep.thresholds[i] for i in subset]
        require(all(close(g, r) for g, r in zip(got, ref["grid_thresholds"])),
                "grid thresholds")
        require(rep.uniform == min(got), "uniform")

    p.op("chain_discreteness[geometric]",
         lambda: cs.chain_discreteness(space, subset, "in-ambient", "geometric"),
         grid_check)

    def exact_check(rep):
        got = [rep.thresholds[i] for i in subset]
        require(all(close(g, r) for g, r in zip(got, ref["exact_thresholds"])),
                "exact thresholds")
        require(rep.exact and rep.uniform == min(got), "uniform")

    p.op("chain_discreteness[exact]",
         lambda: cs.chain_discreteness(space, subset, "in-itself",
                                       "exact-breakpoints"),
         exact_check)
    return p

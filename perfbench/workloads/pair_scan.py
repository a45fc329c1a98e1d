"""pair-scan: all-pairs row scans through the distance kernel at one scale.

A uniform euclidean(2) cloud, a smooth function on it, a family of ten
such functions and a walk through every point.  Nearly all the work is
row-by-row distance scans (``distances_from`` and ``pairwise``), and no
operation sweeps several chain scales, so a faster kernel or blocked pair
scan shows here while a multi-scale chain structure is bypassed.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from .common import Pass, require, require_close

N = 800                 # points; the walk visits every point once
FAMILY = 10             # functions in the equi-continuity family
DELTA = 0.06            # lits_modulus and local_lipschitz_profile scale
EQUI_EPS = 0.5
APPROX_EPS = 0.1
BIG_EPS = (2.0, 1.8)    # above the unit square's diameter: full scans
PSEUDO_FINE = 1e-9      # below every pair distance: full tail scan
WARD_SCHEDULE = ((0.05, 0), (0.02, 3))
WARD_EPS_IMG = 0.15
WARD_BUDGET = 300

SIZES = {"n": N, "walk": N, "family": FAMILY, "delta": DELTA}


def _waves(rng, pts, count):
    """Sums of three plane waves in random directions, rescaled to [-2, 2].

    Fixed wave numbers and range keep the level count and slopes, and so
    the work per pass, nearly independent of the seed.
    """
    out = []
    for _ in range(count):
        angle = rng.random(3) * 2 * np.pi
        k = 4.0 * np.column_stack([np.cos(angle), np.sin(angle)])
        v = np.sin(pts @ k.T + rng.random(3) * 2 * np.pi).sum(axis=1)
        out.append(4.0 * (v - v.min()) / (v.max() - v.min()) - 2.0)
    return out


def generate(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    pts = rng.random((N, 2))
    f, *family = _waves(rng, pts, 1 + FAMILY)
    walk = np.argsort(pts @ rng.normal(size=2), kind="stable")
    return {"pts": pts, "f": f, "family": np.asarray(family), "walk": walk}


def _ratio_max(d, df):
    """Largest df/d over the pairs with d > 0; 0 when there are none."""
    live = d > 0
    if not live.any():
        return 0.0
    return float((df[live] / d[live]).max())


def references(inp):
    pts, f, family, walk = inp["pts"], inp["f"], inp["family"], inp["walk"]
    dist = squareform(pdist(pts))
    iu = np.triu_indices(N, k=1)
    d_pairs = dist[iu]
    df_pairs = np.abs(f[iu[0]] - f[iu[1]])
    ref = {
        "diameter": d_pairs.max(),
        "min_positive": d_pairs[d_pairs > 0].min(),
        "lipschitz": _ratio_max(d_pairs, df_pairs),
    }
    near = d_pairs < DELTA
    ref["lits"] = _ratio_max(d_pairs[near], df_pairs[near])

    local = np.zeros(N)
    for x in range(N):
        ball = np.flatnonzero(dist[x] < DELTA)
        if len(ball) >= 2:
            bi, bj = np.triu_indices(len(ball), k=1)
            local[x] = _ratio_max(
                dist[ball[bi], ball[bj]], np.abs(f[ball[bi]] - f[ball[bj]])
            )
    ref["local_profile"] = local

    # equi-continuity: violation distances, family components under the
    # sup metric, best certificate per component (first on ties)
    viol = np.full((FAMILY, N), np.inf)
    for k in range(FAMILY):
        far = np.abs(family[k][None, :] - family[k][:, None]) >= EQUI_EPS
        viol[k] = np.where(far, dist, np.inf).min(axis=1)
    sup = np.abs(family[:, None, :] - family[None, :, :]).max(axis=2)
    _, comp = connected_components(sup < EQUI_EPS, directed=False)
    min_viol = viol.min(axis=1)
    cert = np.empty(FAMILY, dtype=int)
    for c in np.unique(comp):
        members = np.flatnonzero(comp == c)
        cert[members] = members[np.argmax(min_viol[members])]
    ref["equi_uniform"] = viol[cert].min(axis=0).min()

    # proof_bounds_report's delta: nearest point moving f by eps/4
    far = np.abs(f[None, :] - f[:, None]) >= APPROX_EPS / 4
    nearest = np.where(far, dist, np.inf).min(axis=1)
    ref["bounds_delta"] = nearest.min() if np.isfinite(nearest).any() \
        else d_pairs.max()

    # pseudo-Cauchy stage 1: the closest pair in the tail, first in scan order
    tail = walk[N // 4:]
    sub = dist[np.ix_(tail, tail)]
    ti, tj = np.triu_indices(len(tail), k=1)
    vals = sub[ti, tj]
    first = int(np.argmin(vals))
    ref["pseudo_pair"] = np.asarray([ti[first] + N // 4, tj[first] + N // 4])
    ref["pseudo_gap"] = vals[first]

    # ward: candidate pairs in (distance, i, j) order within the budget
    finest = WARD_SCHEDULE[-1][0]
    close = d_pairs < finest
    ci, cj, cd = iu[0][close], iu[1][close], d_pairs[close]
    order = np.lexsort((cj, ci, cd))[:WARD_BUDGET]
    gaps = np.abs(f[cj[order]] - f[ci[order]])
    hit = np.flatnonzero(gaps >= WARD_EPS_IMG)
    if hit.size:
        e = order[hit[0]]
        ref["ward_pair"] = np.asarray([ci[e], cj[e]])
        ref["ward_evals"] = hit[0] + 1
    else:
        ref["ward_pair"] = np.asarray([-1, -1])
        ref["ward_evals"] = len(order)
    return ref


def _check_ratio_witness(rep, f, pts, positions=None):
    i, j = rep.witness
    if positions is not None:
        i, j = positions[i], positions[j]
    d = np.linalg.norm(pts[i] - pts[j])
    require_close(abs(f[i] - f[j]) / d, rep.constant, "witness ratio", 1e-9)


def run_pass(cs, inp, ref):
    pts, fv, fam, walk = inp["pts"], inp["f"], inp["family"], inp["walk"]
    p = Pass()

    def build():
        space = cs.build_space(pts, "euclidean(2)")
        f = cs.ScalarFunction(space, fv)
        family = [cs.ScalarFunction(space, v) for v in fam]
        prefix = cs.SequencePrefix(space, tuple(int(i) for i in walk))
        big = cs.ToleranceSchedule(((BIG_EPS[0], 0), (BIG_EPS[1], N // 2)))
        pseudo = cs.ToleranceSchedule(((BIG_EPS[0], 0), (PSEUDO_FINE, N // 4)))
        ward = cs.ToleranceSchedule(WARD_SCHEDULE)
        return space, f, family, prefix, big, pseudo, ward

    built = p.op("build", build, lambda b: require(b[0].n == N, "point count"))
    space, f, family, prefix, big, pseudo, ward = built or (None,) * 7
    p.op("diameter", lambda: space.diameter(),
         lambda v: require_close(v, ref["diameter"], "diameter"))
    p.op("min_positive_distance", lambda: space.min_positive_distance(),
         lambda v: require_close(v, ref["min_positive"], "min positive"))

    def lipschitz_check(expected):
        def check(rep):
            require_close(rep.constant, expected, rep.kind)
            _check_ratio_witness(rep, fv, pts)
        return check

    p.op("lipschitz_constant", lambda: cs.lipschitz_constant(f),
         lipschitz_check(ref["lipschitz"]))
    p.op("lits_modulus", lambda: cs.lits_modulus(f, DELTA),
         lipschitz_check(ref["lits"]))
    p.op("local_lipschitz_profile",
         lambda: cs.local_lipschitz_profile(f, DELTA),
         lambda v: require(np.allclose(v, ref["local_profile"], rtol=1e-12,
                                       atol=0.0), "local profile values"))

    def equi_check(rep):
        require_close(rep.uniform_delta, ref["equi_uniform"], "uniform delta")
        require(rep.passed == (ref["equi_uniform"] > 0), "equi verdict")

    p.op("equi_chain_continuity_check",
         lambda: cs.equi_chain_continuity_check(family, EQUI_EPS), equi_check)

    def approx_check(decomp):
        require(decomp.sup_error < APPROX_EPS, "sup_error >= eps")
        err = np.abs(decomp.approx.values - fv).max()
        require(err < APPROX_EPS, f"|approx - f| = {err} >= eps")

    decomp = p.op("approximate", lambda: cs.approximate(f, APPROX_EPS),
                  approx_check)

    def bounds_check(rep):
        require(rep.all_ok, "slope bounds violated")
        require(rep.n0 == 0 and rep.pairs_checked == N - 1, "pairs checked")
        require_close(rep.delta, ref["bounds_delta"], "delta")

    p.op("proof_bounds_report",
         lambda: cs.proof_bounds_report(decomp, prefix, big), bounds_check)
    p.op("cauchy_test", lambda: cs.cauchy_test(prefix, big),
         lambda v: require(v.status == "consistent", "cauchy verdict"))

    def pseudo_check(v):
        require(v.status == "falsified" and v.witness.stage == 1,
                "pseudo verdict")
        pair = (v.witness.index, v.witness.partner)
        require(pair == tuple(ref["pseudo_pair"]), f"pseudo witness {pair}")
        require_close(v.witness.gap, ref["pseudo_gap"], "pseudo gap")

    p.op("pseudo_cauchy_test", lambda: cs.pseudo_cauchy_test(prefix, pseudo),
         pseudo_check)

    def seq_check(rep):
        require_close(rep.constant, ref["lipschitz"], "all-pairs constant")
        _check_ratio_witness(rep, fv, pts, positions=walk)

    p.op("seq_lipschitz_constant",
         lambda: cs.seq_lipschitz_constant(f, prefix, "all-pairs"), seq_check)

    def ward_check(res):
        found = ref["ward_pair"][0] >= 0
        require(res.found == found, f"ward status {res.status}")
        require(res.evaluations == ref["ward_evals"], "ward evaluations")
        if found:
            require(res.pair == tuple(ref["ward_pair"]), f"ward pair {res.pair}")

    p.op("ward_falsifier",
         lambda: cs.ward_falsifier(f, space, WARD_EPS_IMG, ward, WARD_BUDGET),
         ward_check)
    return p

"""cli: the chainscope command, one interpreter per call.

Exhaustive triangle validation of a seeded distance matrix (``space`` and
``chains --matrix``), the README's ``chains``, ``seq`` and ``approx``
examples, and ``verify --all``.  Every call pays interpreter start and
import, and ``verify`` builds hundreds of tiny spaces, so per-space set-up
costs and import time show here while distance-kernel speed hardly does.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .common import (
    KnownDefect, Pass, close, hop_reference, require, require_close,
)

M = 400                          # matrix points: O(M^3) validation per load
EPS_GEOM = ("0.3", "0.8", "6")
TRIALS = 25
README_HOPS = 37                 # README: e1 to e13 at eps 0.3 takes 37 hops

SIZES = {"matrix_n": M, "eps_geom": " ".join(EPS_GEOM), "verify_trials": TRIALS}

KNOWN_DEFECT = (
    "chains --discreteness prints the subset's point indices as thresholds "
    "(list() of the thresholds dict in cmd_chains), so uniform != "
    "min(thresholds)"
)


def generate(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    pts = rng.random((M, 2))
    matrix = os.path.join(workdir, "matrix.csv")
    np.savetxt(matrix, squareform(pdist(pts)), fmt="%.17g", delimiter=",")
    return {"pts": pts, "matrix": matrix, "seed": seed}


def _scales():
    start, ratio, count = (float(v) for v in EPS_GEOM)
    return [start * ratio**i for i in range(int(count))]


def references(inp):
    dist = squareform(pdist(inp["pts"]))
    pairs = dist[np.triu_indices(M, k=1)]
    ref = {"diameter": pairs.max(), "min_positive": pairs[pairs > 0].min()}
    rows = []
    for eps in _scales():
        labels, hops, m_star = hop_reference(dist, eps)
        end = hops[0, M - 1]
        rows.append([labels.max() + 1, m_star, end if np.isfinite(end) else -1])
    ref["scales"] = np.asarray(rows)
    return ref


def _report(code, out, err):
    require(code == 0, f"exit code {code}")
    require(err == "", f"stderr {err.strip()[:200]!r}")
    return json.loads(out)["results"]   # raises unless exactly one document


def commands(inp, ref):
    """(name, argv, check) for each call; check takes (code, stdout, stderr)."""
    pts, matrix = inp["pts"], inp["matrix"]

    def space_check(*run):
        res = _report(*run)
        require(res["n"] == M, "point count")
        require_close(res["diameter"], ref["diameter"], "diameter")
        require_close(res["min_positive_distance"], ref["min_positive"],
                      "min positive")
        require_close(res["isolation"]["min"], ref["min_positive"],
                      "min isolation")

    def matrix_chains_check(*run):
        res = _report(*run)
        require(len(res["scales"]) == len(ref["scales"]), "scale count")
        for row, (count, m_star, hops), eps in zip(
                res["scales"], ref["scales"], _scales()):
            require(close(row["eps"], eps), "scale value")
            require(row["components"] == count, f"components at {eps}")
            require(row["profile"] == {"k": count, "m_star": m_star},
                    f"profile at {eps}")
            w = row["witness"]
            if hops < 0:
                require(w is None, "witness across components")
                continue
            idx = np.asarray(w["indices"])
            require(idx[0] == 0 and idx[-1] == M - 1, "witness endpoints")
            require(w["hops"] == hops == len(idx) - 1, "witness hops")
            gaps = np.linalg.norm(pts[idx[1:]] - pts[idx[:-1]], axis=1)
            require((gaps < eps).all(), "witness gap")

    def readme_chains_check(*run):
        res = _report(*run)
        first = res["scales"][0]
        require(first["components"] == 1, "segment chain at 0.3")
        require(first["witness"]["hops"] == README_HOPS, "README hop count")
        for row in res["scales"]:
            w = row["witness"]
            require(row["profile"]["k"] == row["components"], "profile k")
            if w is not None:
                require(w["labels"][0] == "e1" and w["labels"][-1] == "e13"
                        and w["hops"] == len(w["indices"]) - 1, "witness")
        disc = res["discreteness"]
        thresholds = disc["thresholds"]
        if thresholds == list(range(len(thresholds))):
            raise KnownDefect(KNOWN_DEFECT)
        require(all(isinstance(t, float) for t in thresholds)
                and disc["uniform"] == min(thresholds),
                "uniform != min(thresholds)")

    def seq_check(*run):
        res = _report(*run)
        require(res["verdict"]["status"] == "consistent", "README verdict")
        require(res["splice"]["consistent"] is True, "splice consistency")
        pos = res["extract"]["positions"]
        require(len(pos) == 2 and pos == sorted(set(pos)), "extract positions")

    def approx_check(*run):
        res = _report(*run)
        require(res["decomposition"]["sup_error"] < 0.1, "sup_error >= eps")
        bounds = res["bounds"]
        require(bounds["g_bound_ok"] and bounds["h_bound_ok"], "slope bounds")

    def verify_check(*run):
        require(_report(*run)["failed"] == 0, "verify failures")

    readme = ["--fixture", "segment-chain", "--n", "12", "--subdiv", "4",
              "--eps", "0.3", "0.126", "--witness", "e1", "e13", "--profile"]
    return [
        ("space", ["space", "--matrix", matrix], space_check),
        ("chains[matrix]",
         ["chains", "--matrix", matrix, "--eps-geom", *EPS_GEOM, "--profile",
          "--witness", "0", str(M - 1)], matrix_chains_check),
        ("chains[readme]", ["chains", *readme, "--discreteness"],
         readme_chains_check),
        ("seq",
         ["seq", "--fixture", "harmonic-sums", "--n", "200",
          "--schedule", "[[0.6, 0], [0.1, 12]]", "--test", "qc",
          "--splice", "--extract"], seq_check),
        ("approx",
         ["approx", "--fixture", "harmonic-sums", "--n", "200", "--canonical",
          "--eps", "0.1", "--bounds-prefix", json.dumps(list(range(16))),
          "--schedule", "[[0.15, 5]]"], approx_check),
        ("verify",
         ["verify", "--all", "--trials", str(TRIALS), "--seed",
          str(inp["seed"])], verify_check),
    ]


def run_subprocess_pass(inp, ref, cwd):
    """Each call in its own interpreter; returns the pass and summed wall.

    The interpreter inherits this process's environment, which carries the
    source tree on PYTHONPATH and the thread settings.
    """
    p = Pass()
    wall = 0.0
    for name, argv, check in commands(inp, ref):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "chainscope.cli", *argv],
                capture_output=True, text=True, cwd=cwd, timeout=150,
            )
        except subprocess.TimeoutExpired as exc:
            wall += time.perf_counter() - t0
            p.add(name, None, exc, None)
            continue
        wall += time.perf_counter() - t0
        p.add(name, (proc.returncode, proc.stdout, proc.stderr), None,
              lambda run, check=check: check(*run))
    return p, wall


def run_pass(cs, inp, ref):
    """The same calls in-process through chainscope.cli.main."""
    main = importlib.import_module("chainscope.cli").main
    p = Pass()
    for name, argv, check in commands(inp, ref):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        except Exception as exc:  # a traceback counts as a failed call
            p.add(name, None, exc, None)
            continue
        p.add(name, (code, out.getvalue(), err.getvalue()), None,
              lambda run, check=check: check(*run))
    return p

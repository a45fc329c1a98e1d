"""chainscope benchmark: three workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --trace 1            # every workload, traced
    python3 perfbench/run.py --workload pair-scan --seed 3 --seconds 20

Each workload runs in fresh worker processes started one at a time from
this process: PROBES set-up probes, one reference process (numpy/scipy
only) and the measured worker.  The worker runs passes over the workload's
operations for --seconds and checks every output against the references
after each pass, outside the timed region.

Untraced (--trace 0) the metrics are wall_s (median pass wall time),
setup_s (median over PROBES + 1 fresh processes of ``import chainscope``
plus input generation) and peak_rss_mb (the worker's ru_maxrss; for cli the
largest CLI child).  Traced (--trace 1) the worker alternates untraced and
traced in-process passes and reports per-layer self times and work counts
(see tracer.py).  The failed / attempted ratio
is printed as op_fail_ratio.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 1 when an output check fails for a
reason other than the known defect recorded in README.md, 2 when the
source tree or a worker is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("pair-scan", "scale-sweep", "cli")
PROBES = 6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    """A worker process failed; the run has no result."""


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("per_pair", "reuse", "overhead")):
        return "ratio"
    return "count"


def _child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(role, workload, seed, workdir, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", workload, "--seed", str(seed), "--workdir", workdir,
           *extra]
    # a session of its own, so a timeout also ends the worker's CLI children
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} {role} worker timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {role} worker exited {proc.returncode}:"
                         f" {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, out_dir):
    """Probe, reference and measured runs of one workload; its metrics."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=out_dir)
    try:
        probes = [_worker("probe", workload, seed, workdir)
                  for _ in range(PROBES)]
        src = ROOT / "src" / "chainscope"
        for probe in probes:
            if Path(probe["file"]).resolve().parent != src.resolve():
                raise BenchError(f"chainscope imported from {probe['file']}")
        refs = os.path.join(workdir, "refs.npz")
        _worker("refs", workload, seed, workdir, "--refs", refs)
        spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        res = _worker("run", workload, seed, workdir, "--refs", refs,
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--spans", str(spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        # counts repeat exactly from pass to pass; times are medians
        metrics = {k: v[0] if len(set(v)) == 1 else statistics.median(v)
                   for k, v in res["layers"].items()}
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead"] = statistics.median(
            t / u for t, u in zip(res["layers"]["traced.wall_s"],
                                  res["untraced_wall_s"])
        )
        samples = {"traced.wall_s": len(res["layers"]["traced.wall_s"])}
    else:
        setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
        metrics = {
            "wall_s": statistics.median(res["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        samples = {"wall_s": len(res["wall_s"]), "setup_s": len(setups),
                   "peak_rss_mb": 1}
    return {"metrics": metrics, "samples": samples, "res": res,
            "env": probes[0]["env"]}


def _report(workload, out):
    res = out["res"]
    print(f"{workload:12s} sizes " + " ".join(
        f"{k}={v}" for k, v in res["sizes"].items()))
    for name, value in out["metrics"].items():
        n = out["samples"].get(name)
        note = f"  (median of {n})" if n and n > 1 else ""
        print(f"{workload:12s} {name:24s} {value:.6g} {_unit(name)}{note}")
    ratio = res["failed"] / res["attempted"]
    print(f"{workload:12s} {'op_fail_ratio':24s} {ratio:.6g} ratio"
          f"  ({res['failed']} failed of {res['attempted']} attempted,"
          f" {res['known_defect']} from the known defect)")
    for message in res["failures"]:
        print(f"{workload:12s}   failed: {message}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("all",) + WORKLOADS, default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chainscope" / "__init__.py").is_file():
        print(f"error: no chainscope source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("env " + " ".join(f"{k}={v}" for k, v in
                            next(iter(results.values()))["env"].items()))
    metrics = {}
    attempted = failed = unexpected = 0
    for name, out in results.items():
        _report(name, out)
        res = out["res"]
        attempted += res["attempted"]
        failed += res["failed"]
        unexpected += res["failed"] - res["known_defect"]
        for metric, value in out["metrics"].items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": _unit(metric)}
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if unexpected == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

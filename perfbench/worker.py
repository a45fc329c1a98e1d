"""One benchmark process: a set-up probe, a reference run, or the measured run.

Started by ``run.py`` in a fresh interpreter for each role, so that the
import cost is paid anew and ``ru_maxrss`` is this workload's own
high-water mark.  Prints one JSON object on stdout.

    --role probe  time ``import chainscope`` and input generation
    --role refs   generate the inputs and write the independent references
                  to --refs (numpy/scipy only; chainscope is not imported)
    --role run    set up, read --refs, then run passes until --seconds have
                  elapsed; with --trace 1, untraced and traced passes in
                  turn, writing the spans to --spans
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time


def _workload(name):
    return importlib.import_module("workloads." + name.replace("-", "_"))


def _setup(args):
    t0 = time.perf_counter()
    import chainscope  # noqa: F401  (timed: the import is part of set-up)
    t1 = time.perf_counter()
    wl = _workload(args.workload)
    inputs = wl.generate(args.seed, args.workdir)
    t2 = time.perf_counter()
    return chainscope, wl, inputs, t1 - t0, t2 - t0


def _environment():
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def _load_refs(path):
    import numpy as np
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


class Tally:
    """Attempted and failed operations over every pass of a run."""

    def __init__(self):
        self.attempted = self.failed = self.known = 0
        self.messages = []

    def add(self, p):
        self.attempted += p.attempted
        for name, message, known in p.failures():
            self.failed += 1
            self.known += known
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {message}")


def _passes(seconds, run_one):
    """Run passes until `seconds` have elapsed (at least one); wall times."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(run_one())
    return walls


def _measured(args):
    cs, wl, inputs, _, setup_s = _setup(args)
    refs = _load_refs(args.refs)
    tally = Tally()
    out = {"setup_s": setup_s}

    def in_process():
        t0 = time.perf_counter()
        p = wl.run_pass(cs, inputs, refs)
        wall = time.perf_counter() - t0
        tally.add(p)
        return wall

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        layers = []

        def pair():
            # an untraced pass, then a traced one, so drift in machine
            # speed touches both sides of the overhead ratio alike
            wall = in_process()
            tracer.begin_pass()
            p = wl.run_pass(cs, inputs, refs)
            layers.append(tracer.end_pass())
            tally.add(p)
            return wall

        out["untraced_wall_s"] = _passes(args.seconds, pair)
        out["layers"] = {k: [row[k] for row in layers] for k in layers[0]}
        tracer.dump(args.spans)
    elif args.workload == "cli":
        def subprocess_pass():
            p, wall = wl.run_subprocess_pass(inputs, refs, args.workdir)
            tally.add(p)
            return wall

        out["wall_s"] = _passes(args.seconds, subprocess_pass)
    else:
        out["wall_s"] = _passes(args.seconds, in_process)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace \
        else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(sizes=wl.SIZES, attempted=tally.attempted, failed=tally.failed,
               known_defect=tally.known, failures=tally.messages)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("probe", "refs", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs")
    ap.add_argument("--spans")
    args = ap.parse_args()

    if args.role == "probe":
        cs, _, _, import_s, setup_s = _setup(args)
        out = {"import_s": import_s, "setup_s": setup_s, "file": cs.__file__,
               "env": _environment()}
    elif args.role == "refs":
        import numpy as np
        wl = _workload(args.workload)
        refs = wl.references(wl.generate(args.seed, args.workdir))
        np.savez(args.refs, **refs)
        out = {"refs": args.refs}
    else:
        out = _measured(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

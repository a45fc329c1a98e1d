"""JSON command line: build spaces, run analyses, replay canonical claims.

Every subcommand prints one JSON report to stdout and nothing else there;
diagnostics go to stderr.  Exit codes: 0 success, 1 a verification claim
failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .approximation import approximate, proof_bounds_report
from .chains import ChainGraph, chain_discreteness, scale_tree
from .errors import ChainscopeError, MalformedInput, NoValidDelta
from .fixtures import FIXTURE_NAMES, canonical_claims, make_fixture
from .harness import implication_suite
from .metric import load_matrix_csv, load_points_jsonl
from .moduli import ScalarFunction
from .sequences import (
    SequencePrefix,
    ToleranceSchedule,
    bourbaki_qc_test,
    cauchy_test,
    extract_bqc_subsequence,
    pseudo_cauchy_test,
    quasi_cauchy_test,
    shift_schedule,
    splice_to_quasi_cauchy,
)

# fixture configurations the verify command replays claims on
VERIFY_MATRIX = (
    ("bounded-line", {}),
    ("segment-chain", {"n": 16, "subdiv": 4}),
    ("tent-family[interp]", {"name": "tent-family", "n": 10}),
    ("tent-family[ramp]", {"name": "tent-family", "n": 30, "variant": "ramp"}),
    ("harmonic-sums", {"n": 500}),
    ("sqrt-space", {"n": 50}),
    ("naturals-plus", {"n": 50}),
    ("scaled-unit-vectors[rays]", {"name": "scaled-unit-vectors"}),
    ("scaled-unit-vectors[towers]",
     {"name": "scaled-unit-vectors", "variant": "towers", "n": 12, "k": 12}),
    ("grid-interval", {}),
    ("slow-spike-grid", {}),
)


def _sanitize(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats as strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(command, inputs, results, started, pretty):
    report = {
        "command": command,
        "inputs": _sanitize(inputs),
        "results": _sanitize(results),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "version": __version__,
    }
    if pretty:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _fixture_params(args):
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.subdiv is not None:
        params["subdiv"] = args.subdiv
    if args.variant is not None:
        params["variant"] = args.variant
    for item in args.param or ():
        if "=" not in item:
            raise MalformedInput(f"--param wants KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        params[key] = _parse_value(value)
    return params


def _load_space(args):
    sources = [args.matrix, args.points, args.fixture]
    if sum(s is not None for s in sources) != 1:
        raise MalformedInput(
            "exactly one of --matrix, --points, --fixture is required"
        )
    if args.matrix is not None:
        return load_matrix_csv(args.matrix), None
    if args.points is not None:
        return load_points_jsonl(args.points), None
    fixture = make_fixture(args.fixture, **_fixture_params(args))
    return fixture.space, fixture


def _read_json(path):
    try:
        if path.lstrip().startswith(("[", "{")):
            return json.loads(path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read JSON from {path!r}: {exc}") from None


def _load_prefix(args, space, fixture):
    if args.prefix is not None:
        tokens = _read_json(args.prefix)
        if not isinstance(tokens, list):
            raise MalformedInput("a prefix file holds a JSON list")
        return SequencePrefix(
            space, tuple(space.index_of(t) for t in tokens)
        )
    if fixture is not None and fixture.prefix is not None:
        return fixture.prefix
    raise MalformedInput(
        "no --prefix given and the space has no canonical ordering"
    )


def _load_schedule(args, space, prefix):
    if args.schedule is not None:
        stages = _read_json(args.schedule)
        if not isinstance(stages, list):
            raise MalformedInput("a schedule is a JSON list of [eps, n] pairs")
        return ToleranceSchedule(tuple(stages))
    return ToleranceSchedule.default(space, len(prefix))


def _eps_values(args):
    if args.eps and args.eps_geom:
        raise MalformedInput("--eps and --eps-geom are mutually exclusive")
    if args.eps:
        return [float(e) for e in args.eps]
    if args.eps_geom:
        start, ratio, count = args.eps_geom
        count = int(count)
        if count < 1:
            raise MalformedInput("--eps-geom needs count >= 1")
        return [float(start) * float(ratio) ** i for i in range(count)]
    raise MalformedInput("one of --eps or --eps-geom is required")


def _witness_dict(space, witness):
    if witness is None:
        return None
    return {
        "indices": list(witness.indices),
        "labels": [space.label_of(i) for i in witness.indices],
        "hops": witness.length,
        "eps": witness.eps,
    }


# ------------------------------------------------------------ subcommands


def cmd_space(args):
    started = time.perf_counter()
    space, _ = _load_space(args)
    # with every point listed, a point's merge weight is the least w at
    # which one edge of weight <= w joins it to another point, i.e. its
    # isolation; the least positive distance is the least positive tree
    # edge (join[0] = +inf stands in when there is none)
    tree = scale_tree(space)
    iso = np.asarray(tree.merge_weights(range(space.n)))
    results = {
        "n": space.n,
        "provider": space.provider,
        "diameter": space.diameter(),
        "min_positive_distance": float(tree.join[tree.join > 0].min()),
        "isolation": {
            "min": float(iso.min()),
            "max": float(iso.max()),
            "mean": float(iso.mean()) if np.all(np.isfinite(iso)) else "inf",
            "argmin": space.label_of(int(iso.argmin())),
            "argmax": space.label_of(int(iso.argmax())),
        },
        "validation": space.validation,
    }
    _emit("space", _echo_inputs(args), results, started, args.pretty)
    return 0


def cmd_chains(args):
    started = time.perf_counter()
    space, _ = _load_space(args)
    rows = []
    for eps in _eps_values(args):
        graph = ChainGraph(space, eps)
        row = {"eps": eps, "components": graph.component_count}
        if args.ball:
            x, m = space.index_of(args.ball[0]), int(args.ball[1])
            members = sorted(graph.ball_layers(x, m))
            row["ball"] = {
                "center": space.label_of(x),
                "hops": m,
                "members": [space.label_of(i) for i in members],
                "size": len(members),
            }
        if args.witness:
            x, y = (space.index_of(t) for t in args.witness)
            row["witness"] = _witness_dict(space, graph.find_chain(x, y))
        if args.profile:
            k, m_star = graph.covering_profile()
            row["profile"] = {"k": k, "m_star": m_star}
        rows.append(row)
    results = {"scales": rows}
    if args.discreteness:
        if args.subset is not None:
            tokens = _read_json(args.subset)
            subset = [space.index_of(t) for t in tokens]
        else:
            subset = list(range(space.n))
        report = chain_discreteness(space, subset, mode=args.mode)
        results["discreteness"] = {
            "mode": report.mode,
            "uniform": report.uniform,
            "exact": report.exact,
            "thresholds": [report.thresholds[i] for i in report.subset],
        }
    _emit("chains", _echo_inputs(args), results, started, args.pretty)
    return 0


def cmd_seq(args):
    started = time.perf_counter()
    space, fixture = _load_space(args)
    prefix = _load_prefix(args, space, fixture)
    results = {"length": len(prefix)}
    if args.test == "bqc":
        if args.eps is None:
            raise MalformedInput("--test bqc needs --eps")
        outcome = bourbaki_qc_test(prefix, space, float(args.eps))
        results["verdict"] = outcome.to_json_dict()
    else:
        schedule = _load_schedule(args, space, prefix)
        results["schedule"] = [list(s) for s in schedule.stages]
        runner = {
            "qc": quasi_cauchy_test,
            "cauchy": cauchy_test,
            "pseudo": pseudo_cauchy_test,
        }[args.test]
        results["verdict"] = runner(prefix, schedule).to_json_dict()
        if args.splice:
            out, embedding = splice_to_quasi_cauchy(prefix, space, schedule)
            shifted = shift_schedule(schedule, embedding)
            results["splice"] = {
                "indices": out.to_json_list(),
                "embedding": list(embedding),
                "schedule": [list(s) for s in shifted.stages],
                "consistent": quasi_cauchy_test(out, shifted).consistent,
            }
        if args.extract:
            extraction = extract_bqc_subsequence(
                prefix, space, schedule, rule=args.rule
            )
            results["extract"] = extraction.to_json_dict()
    _emit("seq", _echo_inputs(args), results, started, args.pretty)
    return 0


def _load_function(args, space, fixture):
    if args.function is not None and args.canonical:
        raise MalformedInput("--function and --canonical are exclusive")
    if args.function is not None:
        payload = _read_json(args.function)
        if isinstance(payload, dict):
            values = payload.get("values")
            name = payload.get("name")
        else:
            values, name = payload, None
        return ScalarFunction(space, np.asarray(values, dtype=float), name=name)
    if args.canonical:
        if fixture is None or fixture.function is None:
            raise MalformedInput("this space has no canonical function")
        return fixture.function
    raise MalformedInput("one of --function or --canonical is required")


def cmd_approx(args):
    started = time.perf_counter()
    space, fixture = _load_space(args)
    f = _load_function(args, space, fixture)
    eps = float(args.eps)
    decomp = approximate(f, eps)
    results = {"decomposition": decomp.to_json_dict()}
    if args.bounds_prefix is not None:
        tokens = _read_json(args.bounds_prefix)
        prefix = SequencePrefix(
            space, tuple(space.index_of(t) for t in tokens)
        )
        schedule = _load_schedule(args, space, prefix)
        try:
            results["bounds"] = proof_bounds_report(
                decomp, prefix, schedule
            ).to_json_dict()
        except NoValidDelta as exc:
            results["warning"] = f"no valid scale for the bound check: {exc}"
    _emit("approx", _echo_inputs(args), results, started, args.pretty)
    return 0


def cmd_verify(args):
    started = time.perf_counter()
    seed = _resolve_seed(args)
    wanted = None if args.all else args.fixture
    if wanted is not None and wanted not in FIXTURE_NAMES:
        raise MalformedInput(
            f"unknown fixture {wanted!r}; known: {', '.join(FIXTURE_NAMES)}"
        )
    rows = []
    failed = 0
    for display, config in VERIFY_MATRIX:
        params = dict(config)
        name = params.pop("name", display)
        if wanted is not None and name != wanted:
            continue
        claims = canonical_claims(name, **params)
        if not claims:
            rows.append({
                "fixture": display, "claim": None, "passed": True,
                "details": "no claims attached",
            })
            continue
        fixture = make_fixture(name, **params)
        for claim in claims:
            outcome = claim.check(fixture)
            failed += 0 if outcome.passed else 1
            rows.append({
                "fixture": display,
                "claim": outcome.claim_id,
                "statement": claim.statement,
                "passed": outcome.passed,
                "details": outcome.details,
            })
    results = {"claims": rows, "seed": seed}
    if wanted is None:
        suite = implication_suite(trials=args.trials, seed=seed)
        results["implications"] = suite.to_json_dict()
        failed += len(suite.failures)
    results["failed"] = failed
    _emit("verify", _echo_inputs(args), results, started, args.pretty)
    return 1 if failed else 0


def _echo_inputs(args):
    skip = {"func", "pretty", "command"}
    return {
        k: v
        for k, v in vars(args).items()
        if k not in skip and v is not None and v is not False
    }


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    return int(os.environ.get("CHAINSCOPE_SEED", "0"))


# ----------------------------------------------------------------- parser


def _add_space_args(sub):
    sub.add_argument("--matrix", help="CSV distance matrix file")
    sub.add_argument("--points", help="JSONL points file")
    sub.add_argument("--fixture", choices=FIXTURE_NAMES,
                     help="generate a named fixture")
    sub.add_argument("--n", type=int, help="fixture size")
    sub.add_argument("--subdiv", type=int, help="segment-chain subdivision")
    sub.add_argument("--variant", help="fixture variant where applicable")
    sub.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="extra fixture parameter, repeatable")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chainscope",
        description="Finite metric spaces: chains, sequence tests, moduli,"
                    " and level approximation.",
    )
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subcommand copy from clobbering a --pretty given
    # before the subcommand name
    common.add_argument("--pretty", action="store_true",
                        default=argparse.SUPPRESS,
                        help="indent the JSON report")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("space", parents=[common],
                         help="load or generate a space and summarize it")
    _add_space_args(sp)
    sp.set_defaults(func=cmd_space)

    ch = subs.add_parser("chains", parents=[common], help="component structure across scales")
    _add_space_args(ch)
    ch.add_argument("--eps", nargs="+", metavar="E", help="explicit scale list")
    ch.add_argument("--eps-geom", nargs=3, metavar=("START", "RATIO", "COUNT"),
                    help="geometric scale grid")
    ch.add_argument("--ball", nargs=2, metavar=("X", "M"),
                    help="hop ball around a point")
    ch.add_argument("--witness", nargs=2, metavar=("X", "Y"),
                    help="chain witness between two points")
    ch.add_argument("--profile", action="store_true",
                    help="covering profile (k, m_star) per scale")
    ch.add_argument("--discreteness", action="store_true",
                    help="per-point separation thresholds")
    ch.add_argument("--subset", help="JSON index/label list for --discreteness")
    ch.add_argument("--mode", choices=("in-ambient", "in-itself"),
                    default="in-ambient")
    ch.set_defaults(func=cmd_chains)

    sq = subs.add_parser("seq", parents=[common], help="sequence prefix classification")
    _add_space_args(sq)
    sq.add_argument("--prefix", help="JSON list of point indices or labels")
    sq.add_argument("--test", choices=("qc", "cauchy", "pseudo", "bqc"),
                    default="qc")
    sq.add_argument("--schedule",
                    help="JSON [[eps, n], ...] file or inline literal")
    sq.add_argument("--eps", type=float, help="scale for --test bqc")
    sq.add_argument("--splice", action="store_true",
                    help="splice the prefix into a schedule-consistent walk")
    sq.add_argument("--extract", action="store_true",
                    help="extract a per-stage component subsequence")
    sq.add_argument("--rule", choices=("majority", "first"),
                    default="majority", help="component pick rule for --extract")
    sq.set_defaults(func=cmd_seq)

    ap = subs.add_parser("approx", parents=[common], help="level decomposition of a function")
    _add_space_args(ap)
    ap.add_argument("--function", help="JSON array (or {values, name}) file")
    ap.add_argument("--canonical", action="store_true",
                    help="use the fixture's canonical function")
    ap.add_argument("--eps", type=float, required=True)
    ap.add_argument("--bounds-prefix",
                    help="JSON prefix file for the bound report")
    ap.add_argument("--schedule",
                    help="JSON [[eps, n], ...] file or inline literal")
    ap.set_defaults(func=cmd_approx)

    vf = subs.add_parser("verify", parents=[common],
                         help="replay canonical claims and implication checks")
    group = vf.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--fixture", choices=FIXTURE_NAMES)
    vf.add_argument("--seed", type=int,
                    help="suite seed (default: CHAINSCOPE_SEED or 0)")
    vf.add_argument("--trials", type=int, default=25)
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChainscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""JSON command line: build spaces, run analyses, replay canonical claims.

Each subcommand returns its results and ``main`` prints one JSON report
of them to stdout, nothing else there; diagnostics go to stderr.  Exit
codes: 0 success, 1 a verification claim failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .approximation import approximate, proof_bounds_report
from .chains import (ChainGraph, ball_layers, chain_discreteness,
                     covering_profile, find_chain, scale_tree)
from .errors import (
    ChainscopeError,
    Exhausted,
    IndexOutOfRange,
    MalformedInput,
    NoValidDelta,
    TooLarge,
    check_eps,
)
from .fixtures import (
    FIXTURE_NAMES,
    REPORT_BYTES,
    SCALE_ROW_BYTES,
    claim_runs,
    make_fixture,
)
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

def _sanitize(obj):
    """The JSON form of a report value; the one encoder every report uses.

    A prefix is its index list and a schedule its ``[eps, start]`` stages;
    any other result dataclass is its fields, less those that are None.
    numpy scalars and arrays are unwrapped, non-finite floats are strings.
    """
    if isinstance(obj, SequencePrefix):
        obj = obj.indices
    elif isinstance(obj, ToleranceSchedule):
        obj = obj.stages
    elif dataclasses.is_dataclass(obj):
        named = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        obj = {k: v for k, v in named if v is not None}
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


def _implications(suite):
    """The property suite's fields and its ``ok`` flag."""
    return {**_sanitize(suite), "ok": suite.ok}


def _emit(args, results, started):
    """Print the report; its inputs are the options set after parsing."""
    skip = {"func", "pretty", "command"}
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k not in skip and v is not None and v is not False
    }
    report = {
        "command": args.command,
        "inputs": _sanitize(inputs),
        "results": _sanitize(results),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "version": __version__,
    }
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    print(json.dumps(report, sort_keys=True, **layout))


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _fixture_params(args):
    params = {k: getattr(args, k) for k in ("n", "subdiv", "variant")
              if getattr(args, k) is not None}
    for item in args.param or ():
        if "=" not in item:
            raise MalformedInput(f"--param wants KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key in params:
            raise MalformedInput(f"fixture parameter {key!r} given twice")
        params[key] = _parse_value(value)
    return params


def _load_space(args):
    if args.fixture is None:
        _reject_unused(args, ("n", "subdiv", "variant", "param"),
                       "applies only with --fixture")
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


def _point(space, token, flag):
    """The point an index or a label names; an error names the flag."""
    try:
        return space.index_of(token)
    except IndexOutOfRange as exc:
        raise MalformedInput(f"{flag}: {exc}") from None


def _points(space, text, flag):
    """The points a JSON list of indices or labels names, in its order."""
    try:
        tokens = _read_json(text)
    except MalformedInput as exc:
        raise MalformedInput(f"{flag}: {exc}") from None
    if not isinstance(tokens, list):
        raise MalformedInput(
            f"{flag}: not a JSON list of point indices or labels: {tokens!r}"
        )
    return tuple(_point(space, t, flag) for t in tokens)


def _load_prefix(args, space, fixture):
    if args.prefix is not None:
        return SequencePrefix(space, _points(space, args.prefix, "--prefix"))
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


def _literal(text, cast, flag):
    """A number given on the command line, cast to float or int."""
    try:
        return cast(text)
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise MalformedInput(f"{flag} wants {noun}, got {text!r}") from None


def _eps_values(args):
    """The requested scales, each made only when asked for, so a check
    can stop at the first bad one."""
    if args.eps:
        yield from [_literal(e, float, "--eps") for e in args.eps]
        return
    start, ratio, count = args.eps_geom
    start = _literal(start, float, "--eps-geom START")
    ratio = _literal(ratio, float, "--eps-geom RATIO")
    count = _literal(count, int, "--eps-geom COUNT")
    if count < 1:
        raise MalformedInput("--eps-geom needs count >= 1")
    size = count * SCALE_ROW_BYTES
    if size > REPORT_BYTES:
        from decimal import Decimal  # formats an int of any size

        raise TooLarge(
            f"--eps-geom COUNT {Decimal(count):.3g} needs about "
            f"{Decimal(size):.3g} bytes of report rows, over the "
            f"{REPORT_BYTES}-byte report budget"
        )
    try:
        for i in range(count):
            yield start * ratio ** i
    except OverflowError:
        raise MalformedInput(
            f"--eps-geom scales overflow float64 within {count} steps"
        ) from None


def _reject_unused(args, names, why):
    """Refuse an option that the chosen path would ignore; name the flag."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise MalformedInput(f"--{name.replace('_', '-')} {why}")


def _given(args, *names):
    """The named options that were given, to pass on as keywords; the
    library holds the defaults of the rest."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


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
    space, _ = _load_space(args)
    # with every point listed, a point's merge weight is the least w at
    # which one edge of weight <= w joins it to another point, i.e. its
    # isolation
    iso = np.asarray(scale_tree(space).merge_weights(range(space.n)))
    results = {
        "n": space.n,
        "provider": space.provider,
        "diameter": space.diameter(),
        "min_positive_distance": space.min_positive_distance(),
        "isolation": {
            "min": float(iso.min()),
            "max": float(iso.max()),
            "mean": float(iso.mean()),
            "argmin": space.label_of(int(iso.argmin())),
            "argmax": space.label_of(int(iso.argmax())),
        },
        "validation": space.validation,
    }
    return results


def cmd_chains(args):
    if not args.discreteness:
        _reject_unused(args, ("subset", "mode"),
                       "applies only with --discreteness")
    # every number is read before the space loads, every point once
    scales = [check_eps(eps) for eps in _eps_values(args)]
    hops = _literal(args.ball[1], int, "--ball M") if args.ball else None
    space, _ = _load_space(args)
    center = _point(space, args.ball[0], "--ball X") if args.ball else None
    ends = [_point(space, t, "--witness") for t in args.witness or ()]
    rows = []
    for eps in scales:
        graph = ChainGraph(space, eps)
        row = {"eps": eps, "components": graph.component_count}
        if args.ball:
            members = sorted(ball_layers(graph, center, hops))
            row["ball"] = {
                "center": space.label_of(center),
                "hops": hops,
                "members": [space.label_of(i) for i in members],
                "size": len(members),
            }
        if args.witness:
            row["witness"] = _witness_dict(space, find_chain(graph, *ends))
        if args.profile:
            k, m_star = covering_profile(space, eps)
            row["profile"] = {"k": k, "m_star": m_star}
        rows.append(row)
    results = {"scales": rows}
    if args.discreteness:
        if args.subset is not None:
            subset = _points(space, args.subset, "--subset")
        else:
            subset = list(range(space.n))
        report = chain_discreteness(space, subset, **_given(args, "mode"))
        results["discreteness"] = {
            "mode": report.mode,
            "uniform": report.uniform,
            "exact": report.exact,
            "thresholds": [report.thresholds[i] for i in report.subset],
        }
    return results


def cmd_seq(args):
    test = args.test or "qc"
    if test == "bqc":
        _reject_unused(args, ("schedule", "splice", "extract"),
                       "does not apply to --test bqc")
    else:
        _reject_unused(args, ("eps",), "applies only to --test bqc")
    if not args.extract:
        _reject_unused(args, ("rule",), "applies only with --extract")
    if test == "bqc" and args.eps is None:
        raise MalformedInput("--test bqc needs --eps")
    space, fixture = _load_space(args)
    prefix = _load_prefix(args, space, fixture)
    results = {"length": len(prefix)}
    if test == "bqc":
        results["verdict"] = bourbaki_qc_test(prefix, space, args.eps)
    else:
        schedule = _load_schedule(args, space, prefix)
        results["schedule"] = schedule
        runner = {
            "qc": quasi_cauchy_test,
            "cauchy": cauchy_test,
            "pseudo": pseudo_cauchy_test,
        }[test]
        results["verdict"] = runner(prefix, schedule)
        if args.splice:
            out, embedding = splice_to_quasi_cauchy(prefix, space, schedule)
            shifted = shift_schedule(schedule, embedding)
            results["splice"] = {
                "indices": out,
                "embedding": embedding,
                "schedule": shifted,
                "consistent": quasi_cauchy_test(out, shifted).consistent,
            }
        if args.extract:
            try:
                results["extract"] = extract_bqc_subsequence(
                    prefix, space, schedule, **_given(args, "rule")
                )
            except Exhausted as exc:
                # running out of survivors is an outcome, not bad input
                results["extract"] = {
                    "positions": exc.positions,
                    "stages": exc.components,
                    "exhausted_at": exc.stage,
                }
    return results


def _load_function(args, space, fixture):
    if args.canonical:
        if fixture is None or fixture.function is None:
            raise MalformedInput("this space has no canonical function")
        return fixture.function
    payload = _read_json(args.function)
    if isinstance(payload, dict):
        values = payload.get("values")
        name = payload.get("name")
    else:
        values, name = payload, None
    return ScalarFunction(space, values, name=name)


def cmd_approx(args):
    if args.bounds_prefix is None:
        _reject_unused(args, ("schedule",), "applies only with --bounds-prefix")
    space, fixture = _load_space(args)
    f = _load_function(args, space, fixture)
    decomp = approximate(f, args.eps)
    # the decomposition's own fields hold whole functions; the report
    # keeps the scale, the windows, g, h and the sup error
    results = {"decomposition": {
        "eps": decomp.eps,
        "levels": decomp.levels,
        "g": decomp.g.values,
        "h": decomp.h.values,
        "sup_error": decomp.sup_error,
    }}
    if args.bounds_prefix is not None:
        prefix = SequencePrefix(
            space, _points(space, args.bounds_prefix, "--bounds-prefix")
        )
        schedule = _load_schedule(args, space, prefix)
        try:
            results["bounds"] = proof_bounds_report(decomp, prefix, schedule)
        except NoValidDelta as exc:
            results["warning"] = f"no valid scale for the bound check: {exc}"
    return results


def cmd_verify(args):
    if not args.all:
        _reject_unused(args, ("trials",), "applies only with --all")
    seed = args.seed
    if seed is None:
        seed = _literal(os.environ.get("CHAINSCOPE_SEED", "0"), int,
                        "CHAINSCOPE_SEED")
    rows = []
    failed = 0
    # --fixture is None under --all, which replays every entry
    for display, fixture, claims in claim_runs(args.fixture):
        if not claims:
            rows.append({
                "fixture": display, "claim": None, "passed": True,
                "details": "no claims attached",
            })
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
    if args.all:
        suite = implication_suite(seed=seed, **_given(args, "trials"))
        results["implications"] = _implications(suite)
        failed += len(suite.failures)
    results["failed"] = failed
    return results


# ----------------------------------------------------------------- parser


def _add_space_args(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="CSV distance matrix file")
    source.add_argument("--points", help="JSONL points file")
    source.add_argument("--fixture", choices=FIXTURE_NAMES,
                        help="generate a named fixture")
    sub.add_argument("--n", type=int, help="fixture size")
    sub.add_argument("--subdiv", type=int, help="segment-chain subdivision")
    sub.add_argument("--variant", help="fixture variant where applicable")
    sub.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="extra fixture parameter, repeatable")


class _Parser(argparse.ArgumentParser):
    """A usage error raises, so ``main`` prints it as one error line;
    subcommand parsers inherit the class."""

    def error(self, message):
        raise MalformedInput(message)


def build_parser():
    parser = _Parser(
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
    scales = ch.add_mutually_exclusive_group(required=True)
    scales.add_argument("--eps", nargs="+", metavar="E",
                        help="explicit scale list")
    scales.add_argument("--eps-geom", nargs=3,
                        metavar=("START", "RATIO", "COUNT"),
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
                    help="where --discreteness takes its components")
    ch.set_defaults(func=cmd_chains)

    sq = subs.add_parser("seq", parents=[common], help="sequence prefix classification")
    _add_space_args(sq)
    sq.add_argument("--prefix", help="JSON list of point indices or labels")
    sq.add_argument("--test", choices=("qc", "cauchy", "pseudo", "bqc"),
                    help="sequence test, qc when absent")
    sq.add_argument("--schedule",
                    help="JSON [[eps, n], ...] file or inline literal")
    sq.add_argument("--eps", type=float, help="scale for --test bqc")
    sq.add_argument("--splice", action="store_true",
                    help="splice the prefix into a schedule-consistent walk")
    sq.add_argument("--extract", action="store_true",
                    help="extract a per-stage component subsequence")
    sq.add_argument("--rule", choices=("majority", "first"),
                    help="component pick rule for --extract")
    sq.set_defaults(func=cmd_seq)

    ap = subs.add_parser("approx", parents=[common], help="level decomposition of a function")
    _add_space_args(ap)
    function = ap.add_mutually_exclusive_group(required=True)
    function.add_argument("--function",
                          help="JSON array (or {values, name}) file")
    function.add_argument("--canonical", action="store_true",
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
    vf.add_argument("--trials", type=int,
                    help="implication trials for --all")
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        results = args.func(args)
        _emit(args, results, started)
    except (ChainscopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if results.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())

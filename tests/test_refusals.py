"""Refusals of malformed input, one case per validation branch."""

import json

import numpy as np
import pytest

from chainscope import (
    SequencePrefix,
    ToleranceSchedule,
    build_space,
    chain_discreteness,
    cli,
    make_fixture,
)
from chainscope.errors import BadSchedule, MalformedInput
from chainscope.metric import load_points_jsonl

EUCLID2 = json.dumps({"provider": "euclidean(2)"})
CUT_LINE = '{"id": 0,'


def jsonl(tmp_path, *lines):
    path = tmp_path / "points.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return load_points_jsonl(path)


def run(*argv):
    """One subcommand as main runs it, less main's catch-all."""
    args = cli.build_parser().parse_args(list(argv))
    return args.func(args)


def decode_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


def line(n):
    return build_space(np.arange(float(n))[:, None], "euclidean(1)")


def grid():
    return make_fixture("grid-interval", count=5).space


@pytest.mark.parametrize("call, error, message", [
    # metric
    (lambda t: build_space([[0, 1], [1, 2]], "euclidean(3)"), MalformedInput,
     "euclidean(3) needs rows of width 3, got an array of shape (2, 2)"),
    (lambda t: build_space([[0, 5], [1, 2]], "bounded-usual(1)"),
     MalformedInput,
     "bounded-usual(1) needs rows of width 1, got an array of shape (2, 2)"),
    (lambda t: build_space([0.0, 1.0, 2.0], "euclidean(1)",
                           labels=["a", "b", "a"]), MalformedInput,
     "label 'a' names points 0 and 2"),
    (lambda t: build_space([], "sup-norm-sparse"), MalformedInput,
     "empty point list"),
    (lambda t: build_space([[0.0]], 5), MalformedInput,
     "cannot parse provider spec 5"),
    (lambda t: build_space([[0.0]], "Euclid(2)"), MalformedInput,
     "cannot parse provider spec 'Euclid(2)'"),
    (lambda t: build_space([[0, np.inf], [np.inf, 0]], "explicit-matrix"),
     MalformedInput, "distance matrix must be finite"),
    (lambda t: build_space(np.zeros((0, 2)), "euclidean(2)"), MalformedInput,
     "a space needs at least one point"),
    (lambda t: build_space([[0.0, np.nan]], "euclidean(2)"), MalformedInput,
     "point data must be finite"),
    (lambda t: build_space([[0.0], [1.0]], "euclidean(1)", labels=["a"]),
     MalformedInput, "labels length differs from point count"),
    (lambda t: jsonl(t, "[1]", '{"id": 0, "coords": {}}'), MalformedInput,
     "first JSONL line must be a provider header"),
    (lambda t: jsonl(t, EUCLID2, CUT_LINE), MalformedInput,
     f"bad JSONL point line: {decode_error(CUT_LINE)}"),
    (lambda t: jsonl(t, EUCLID2, '{"coords": {}}'), MalformedInput,
     "point lines need 'id' and 'coords'"),
    (lambda t: jsonl(t, EUCLID2, '{"id": 0}'), MalformedInput,
     "point lines need 'id' and 'coords'"),
    (lambda t: jsonl(t, EUCLID2, '{"id": 0, "coords": {}}',
                     '{"id": 0, "coords": {}}'), MalformedInput,
     "duplicate point ids"),
    (lambda t: jsonl(t, EUCLID2, '{"id": 0, "coords": {"2": 1}}'),
     MalformedInput, "coordinate index 2 outside [0, 2) for euclidean"),
    # the provider is refused before any point line is read
    (lambda t: jsonl(t, '{"provider": "explicit-matrix"}'), MalformedInput,
     "explicit-matrix cannot be loaded from JSONL"),
    # chains
    (lambda t: chain_discreteness(grid(), [0, 1], grid="log"),
     MalformedInput, "unknown discreteness grid 'log'"),
    (lambda t: chain_discreteness(grid(), [0, 1], grid=[]), MalformedInput,
     "empty candidate grid"),
    # cli
    (lambda t: run("chains", "--fixture", "grid-interval", "--eps-geom",
                   "0.3", "0.8", "0"), MalformedInput,
     "--eps-geom needs count >= 1"),
    (lambda t: run("approx", "--fixture", "grid-interval", "--canonical",
                   "--eps", "0.1"), MalformedInput,
     "this space has no canonical function"),
    (lambda t: run("chains", "--fixture", "grid-interval", "--eps", "0.1",
                   "--discreteness", "--subset", "[0"), MalformedInput,
     f"--subset: cannot read JSON from '[0': {decode_error('[0')}"),
    # sequences
    (lambda t: SequencePrefix(line(2), (0, 1)).subrange(1, 1),
     MalformedInput, "empty subrange"),
    (lambda t: ToleranceSchedule.default(line(1), 5), BadSchedule,
     "zero-diameter space admits no tolerance ladder"),
])
def test_malformed_input_names_the_rule(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("value, want", [
    (np.int64(3), 3),
    (np.float64(0.5), 0.5),
    (np.bool_(True), True),
    (float("nan"), "nan"),
])
def test_sanitize_unwraps_numpy_scalars(value, want):
    got = cli._sanitize(value)
    assert got == want and type(got) is type(want)

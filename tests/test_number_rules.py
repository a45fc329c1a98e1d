"""Every caller-supplied index, count and scale goes through one of two
rules: ``_integral`` (an int, a number equal to one, or an integer string)
or ``_real`` (a finite number or a numeric string).  Neither takes a
boolean, so ``True`` is never the index 1 and never the scale 1.0."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainscope import (
    ChainGraph,
    ScalarFunction,
    SequencePrefix,
    SparseVector,
    ToleranceSchedule,
    ball_layers,
    build_space,
    find_chain,
    implication_suite,
    lp_tail_criterion,
    make_fixture,
    parse_provider,
    partition_functions,
    random_space,
    spike_function,
    ward_falsifier,
)
from chainscope.errors import (
    BadParam,
    BadSchedule,
    BadSpec,
    IndexOutOfRange,
    MalformedInput,
    NonPositiveEpsilon,
    NonPositiveLength,
    check_eps,
)

SPACE = build_space(np.arange(5.0), "euclidean(1)")
GRAPH = ChainGraph(SPACE, 1.5)
PREFIX = SequencePrefix(SPACE, (4, 3, 2, 1, 0))
STEP = ScalarFunction(SPACE, [0.0, 0.0, 0.0, 0.0, 5.0])
FAMILY = [SparseVector({0: 1.0, 3: 0.5}), SparseVector({0: 1.0})]


def _blocks(rows):
    # a square block's non-pairs are NaN, which never equals itself, so the
    # blocks are compared by their bytes
    return [(o, r.tolist(), d.shape, d.tobytes())
            for o, r, d in SPACE.pair_blocks(rows)]


# name -> (rule, call(v), the site's error, a plain int the site accepts)
SITES = {
    "check_index": ("integral", SPACE.check_index, IndexOutOfRange, 3),
    "index_of": ("integral", SPACE.index_of, IndexOutOfRange, 3),
    "distance": ("integral", lambda v: SPACE.distance(0, v), IndexOutOfRange, 3),
    "pairwise": ("integral", lambda v: SPACE.pairwise([0], [v]).tolist(),
                 IndexOutOfRange, 2),
    "pair_blocks": ("integral", lambda v: _blocks([0, v, 4]),
                    IndexOutOfRange, 1),
    "subspace": ("integral",
                 lambda v: SPACE.subspace([0, v]).distance_matrix().tolist(),
                 IndexOutOfRange, 2),
    "prefix": ("integral", lambda v: SequencePrefix(SPACE, (0, v, 1)).indices,
               IndexOutOfRange, 2),
    "prefix point": ("integral", PREFIX.point, IndexOutOfRange, 3),
    "prefix select": ("integral", lambda v: PREFIX.select([0, v]).indices,
                      IndexOutOfRange, 2),
    "prefix subrange": ("integral", lambda v: PREFIX.subrange(0, v).indices,
                        IndexOutOfRange, 2),
    "component_id": ("integral", GRAPH.component_id, IndexOutOfRange, 4),
    "neighbors": ("integral", lambda v: GRAPH.neighbors(v).tolist(),
                  IndexOutOfRange, 2),
    "find_chain": ("integral", lambda v: find_chain(GRAPH, 0, v).indices,
                   IndexOutOfRange, 3),
    "ball_layers hops": ("integral", lambda v: ball_layers(GRAPH, 0, v),
                         NonPositiveLength, 2),
    "partition_functions": (
        "integral",
        lambda v: partition_functions(SPACE, {0: [0, 1, 2, 3, v]})[-1]
        .values.tolist(),
        IndexOutOfRange, 4,
    ),
    "ward budget": (
        "integral",
        lambda v: ward_falsifier(
            STEP, SPACE, 0.5, ToleranceSchedule(((1.5, 0),)), budget=v
        ),
        MalformedInput, 3,
    ),
    "suite trials": ("integral", lambda v: implication_suite(trials=v, seed=1),
                     BadSpec, 1),
    "suite seed": ("integral", lambda v: implication_suite(trials=1, seed=v),
                   BadSpec, 2),
    "random_space n": (
        "integral",
        lambda v: random_space("euclidean-cloud", v, seed=1).distance_matrix()
        .tolist(),
        BadSpec, 4,
    ),
    "random_space dim": (
        "integral",
        lambda v: random_space("euclidean-cloud", 4, seed=1, dim=v)
        .distance_matrix().tolist(),
        BadSpec, 3,
    ),
    "lp_tail n0": ("integral",
                   lambda v: lp_tail_criterion(FAMILY, 2, 0.8, v),
                   MalformedInput, 1),
    "coordinate index": ("integral", lambda v: SparseVector({1: 2.0})[v],
                         MalformedInput, 1),
    "euclidean dimension": ("integral",
                            lambda v: parse_provider(("euclidean", v)),
                            MalformedInput, 2),
    "check_eps": ("real", check_eps, NonPositiveEpsilon, 2),
    "graph eps": ("real", lambda v: ChainGraph(SPACE, v).components(),
                  NonPositiveEpsilon, 1),
    "schedule eps": ("real", lambda v: ToleranceSchedule(((v, 0),)).stages,
                     BadSchedule, 2),
    "p-norm parameter": ("real",
                         lambda v: parse_provider(("p-norm-sparse", v)),
                         MalformedInput, 3),
    "random_space scale": (
        "real",
        lambda v: random_space("euclidean-cloud", 4, seed=1, scale=v)
        .distance_matrix().tolist(),
        BadSpec, 2,
    ),
    "random_space density": (
        "real",
        lambda v: random_space("repaired-matrix", 4, seed=1, density=v)
        .distance_matrix().tolist(),
        BadSpec, 1,
    ),
    "lp_tail p": ("real", lambda v: lp_tail_criterion(FAMILY, v, 0.8, 1),
                  MalformedInput, 2),
    "spike radius": (
        "real", lambda v: spike_function(SPACE, [2], [v], [1.0]).values.tolist(),
        MalformedInput, 2,
    ),
    "spike height": (
        "real", lambda v: spike_function(SPACE, [2], [2.0], [v]).values.tolist(),
        MalformedInput, 3,
    ),
    "coordinate value": ("real", lambda v: SparseVector({1: v}).entries,
                         MalformedInput, 2),
    "fixture float": (
        "real",
        lambda v: make_fixture("bounded-line", n=4, step=v).space
        .distance_matrix().tolist(),
        BadParam, 1,
    ),
    "function value": (
        "real", lambda v: ScalarFunction(SPACE, [0.0, v, 0.0, 0.0, 1.0])
        .values.tolist(),
        MalformedInput, 2,
    ),
    "function array": (
        "real", lambda v: ScalarFunction(SPACE, np.full(5, v)).values.tolist(),
        MalformedInput, 2,
    ),
}

booleans = st.sampled_from([True, False, np.True_, np.False_])
non_finite = st.sampled_from([math.inf, -math.inf, math.nan, np.float64("nan")])
non_integral = st.floats(0.01, 4.99).filter(lambda x: not x.is_integer())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SITES)), st.data())
def test_each_site_refuses_what_its_rule_refuses(name, data):
    rule, call, error, plain = SITES[name]
    bad = [booleans, non_finite]
    if rule == "integral":
        bad.append(non_integral)
    with pytest.raises(error):
        call(data.draw(st.one_of(bad), label="refused"))
    # an integral float or a numpy integer is the plain int, bit for bit
    same = data.draw(st.sampled_from(
        [float(plain), np.float64(plain), np.int64(plain), np.int32(plain)]
    ), label="accepted")
    assert call(same) == call(plain)


# valid point data for each dense provider, as nested lists
DENSE = {
    "euclidean(1)": [[0.0], [1.0]],
    "bounded-usual(2)": [0.0, 1.0],
    "function-sup(2)": [[0.0, 1.0], [1.0, 0.0]],
    "explicit-matrix": [[0.0, 1.0], [1.0, 0.0]],
}


def _last_entry(data, value):
    """data with its last entry replaced by value."""
    if isinstance(data[-1], list):
        return data[:-1] + [data[-1][:-1] + [value]]
    return data[:-1] + [value]


@pytest.mark.parametrize("provider", sorted(DENSE))
def test_dense_coordinates_go_by_the_real_rule(provider):
    data = DENSE[provider]
    want = build_space(data, provider).distance_matrix().tolist()
    # numeric strings and numpy numbers are the plain floats, bit for bit
    texts = np.asarray(data).astype(str).tolist()
    for same in (texts, np.asarray(data), np.asarray(data).astype(int)):
        assert build_space(same, provider).distance_matrix().tolist() == want
    refused = "point data must be numbers in rows of one length"
    for bad in (True, np.False_, "x", [1.0], None):
        with pytest.raises(MalformedInput, match=refused):
            build_space(_last_entry(data, bad), provider)
    with pytest.raises(MalformedInput, match=refused):
        build_space(np.asarray(data) > 0, provider)  # a boolean array
    with pytest.raises(MalformedInput, match=refused):
        build_space([[0.0, 1.0], [1.0]], provider)  # ragged

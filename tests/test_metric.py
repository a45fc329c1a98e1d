"""Metric space construction, validation, and distance queries."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainscope import (
    MetricSpace,
    SparseVector,
    build_space,
    load_matrix_csv,
    load_points_jsonl,
    make_fixture,
)
from chainscope.errors import (
    IndexOutOfRange,
    MalformedInput,
    MetricViolation,
)
from chainscope import metric
from chainscope.metric import (
    MATRIX_TOL,
    _integral,
    parse_provider,
)


def test_two_point_matrix_valid():
    space = build_space([[0.0, 1.0], [1.0, 0.0]], "explicit-matrix")
    assert space.n == 2
    assert space.distance(0, 1) == 1.0
    assert space.distance(1, 0) == 1.0
    assert space.distance(0, 0) == 0.0


def test_triangle_violation_names_the_triple():
    with pytest.raises(MetricViolation) as err:
        build_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "explicit-matrix")
    assert err.value.axiom == "triangle"
    # 3 > 1 + 1 through the middle point
    assert set(err.value.witness) == {0, 1, 2}


def test_asymmetric_matrix_rejected():
    with pytest.raises(MetricViolation) as err:
        build_space([[0, 1], [2, 0]], "explicit-matrix")
    assert err.value.axiom == "symmetry"


def test_negative_entry_rejected():
    with pytest.raises(MetricViolation):
        build_space([[0, -1], [-1, 0]], "explicit-matrix")


def test_bounded_usual_caps_distances():
    space = build_space(np.array([0.0, 0.5, 7.0]), "bounded-usual(1)")
    assert space.distance(0, 2) == 1.0
    assert space.distance(0, 1) == 0.5


def test_sup_norm_disjoint_units():
    e1 = SparseVector({1: 1.0})
    e3 = SparseVector({3: 1.0})
    space = build_space([e1, e3], "sup-norm-sparse")
    assert space.distance(0, 1) == 1.0


def test_euclidean_line():
    space = build_space(np.array([1.0, 2.5]), "euclidean(1)")
    assert space.distance(0, 1) == 1.5


def test_segment_midpoints_half_apart():
    # subdiv 2 puts a sup-norm midpoint on every segment (k = kmax/2)
    fx = make_fixture("segment-chain", n=4, subdiv=2)
    i = fx.space.index_of("X1k2")
    j = fx.space.index_of("X3k4")
    assert fx.space.distance(i, j) == pytest.approx(0.5, abs=1e-12)


def test_isolation_unit_spaced_integers():
    space = build_space(np.arange(1.0, 11.0), "euclidean(1)")
    assert space.isolation(4) == pytest.approx(1.0)


def test_isolation_sqrt_point():
    fx = make_fixture("sqrt-space", n=100)
    i = fx.space.index_of("s4")
    # consecutive root gaps shrink, so the right-hand neighbor is nearest
    want = math.sqrt(5) - math.sqrt(4)
    brute = min(
        fx.space.distance(i, j) for j in range(fx.space.n) if j != i
    )
    assert fx.space.isolation(i) == pytest.approx(want, rel=1e-12)
    assert fx.space.isolation(i) == brute


def test_isolation_singleton_infinite():
    space = build_space(np.array([3.0]), "euclidean(1)")
    assert space.isolation(0) == math.inf


def test_index_out_of_range():
    space = build_space(np.array([0.0, 1.0]), "euclidean(1)")
    with pytest.raises(IndexOutOfRange):
        space.distance(0, 2)
    with pytest.raises(IndexOutOfRange):
        space.distance(-3, 0)


def test_booleans_are_not_indices():
    space = build_space(np.array([0.0, 1.0]), "euclidean(1)")
    assert _integral(True) is None and _integral(False) is None
    assert _integral(np.True_) is None
    for token in (True, False):
        with pytest.raises(IndexOutOfRange):
            space.index_of(token)
    assert space.index_of(1) == space.index_of("1") == 1


def test_label_lookup_roundtrip():
    fx = make_fixture("naturals-plus", n=10)
    i = fx.space.index_of("n7")
    assert fx.space.label_of(i) == "n7"
    assert fx.space.index_of(i) == i
    with pytest.raises(IndexOutOfRange):
        fx.space.index_of("nowhere")


def test_distance_routes_agree_exactly():
    # scalar, row, and full-matrix queries must return identical floats,
    # otherwise exact oracle comparisons downstream turn flaky
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, size=(17, 3))
    space = build_space(pts, "euclidean(3)")
    mat = space.distance_matrix()
    for i in range(space.n):
        row = space.distances_from(i)
        for j in range(space.n):
            d = space.distance(i, j)
            assert d == row[j]
            assert d == mat[i, j]


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(12, 2))
    space = build_space(pts, "euclidean(2)")
    ii = np.array([0, 3, 7, 11])
    jj = np.array([5, 2, 7, 0])
    got = space.pairwise(ii, jj)
    for k in range(len(ii)):
        assert got[k] == space.distance(int(ii[k]), int(jj[k]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False),
            st.floats(-50, 50, allow_nan=False),
        ),
        min_size=2,
        max_size=12,
    )
)
def test_metric_axioms_hold_on_clouds(coords):
    space = build_space(np.asarray(coords, dtype=float), "euclidean(2)")
    mat = space.distance_matrix()
    n = space.n
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)
    assert np.all(mat >= 0.0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert mat[i, k] <= mat[i, j] + mat[j, k] + 1e-9


def test_diameter_and_min_positive():
    space = build_space(np.array([0.0, 0.25, 1.0]), "euclidean(1)")
    assert space.diameter() == pytest.approx(1.0)
    assert space.min_positive_distance() == pytest.approx(0.25)


def test_sparse_vector_basics():
    v = SparseVector({1: 0.5, 4: -1.0, 9: 0.0})
    assert set(v.support()) == {1, 4}  # stored zeros are dropped
    assert v[1] == 0.5
    assert v[2] == 0.0
    assert v.tail_mass(2, 1) == pytest.approx(1.0)
    assert v.tail_mass(2, 9) == 0.0
    # integral floats and numpy integers name the same coordinates
    assert SparseVector({2.0: 1.0, np.int64(3): 2.0}) == SparseVector(
        {2: 1.0, 3: 2.0}
    )


def test_sparse_vector_equality_and_hash():
    a = SparseVector({2: 1.0})
    b = SparseVector({2: 1.0})
    assert a == b
    assert hash(a) == hash(b)
    assert a != SparseVector({2: 1.0, 3: 0.1})


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"a": 1}, "coordinate index 'a' is not an integer"),
        ({2: "x"}, "coordinate 2 value 'x' is not a number"),
        ({2: [1]}, "coordinate 2 value [1] is not a number"),
        ({-1: 1.0}, "negative coordinate index -1"),
        ({1.5: 2.0}, "coordinate index 1.5 is not an integer"),
        ({0.9: 1.0}, "coordinate index 0.9 is not an integer"),
    ],
)
def test_sparse_vector_rejects_bad_coordinates(entries, message):
    with pytest.raises(MalformedInput, match=re.escape(message)):
        SparseVector(entries)


def test_parse_provider_forms():
    assert parse_provider("euclidean(2)") == ("euclidean", 2)
    assert parse_provider(("bounded-usual", 1.5)) == ("bounded-usual", 1.5)
    assert parse_provider("sup-norm-sparse") == ("sup-norm-sparse", None)
    with pytest.raises(MalformedInput):
        parse_provider("euclidean")
    with pytest.raises(MalformedInput):
        parse_provider("euclidean(0)")
    with pytest.raises(MalformedInput):
        parse_provider("warp-drive(3)")
    with pytest.raises(MalformedInput):
        parse_provider("p-norm-sparse(0.5)")


# Point data valid for each provider, so only the parameter can be wrong.
_GOOD_DATA = {
    "euclidean": [[0.0, 1.0], [2.0, 3.0]],
    "function-sup": [[0.0, 1.0], [2.0, 3.0]],
    "p-norm-sparse": [{0: 1.0}, {2: 1.0}],
    "sup-norm-sparse": [{0: 1.0}, {2: 1.0}],
    "bounded-usual": [0.0, 1.0],
}


@pytest.mark.parametrize("kind, param", [
    ("euclidean", 0), ("euclidean", 2.5), ("function-sup", 0),
    ("p-norm-sparse", 0.5), ("bounded-usual", 0), ("bounded-usual", -1),
    ("sup-norm-sparse", 3), ("euclidean", float("nan")),
    ("euclidean", float("inf")), ("p-norm-sparse", float("nan")),
    ("bounded-usual", float("nan")),
])
def test_one_parameter_rule_on_both_routes(kind, param):
    with pytest.raises(MalformedInput):
        parse_provider((kind, param))
    with pytest.raises(MalformedInput):
        MetricSpace(kind, _GOOD_DATA[kind], param=param)


def test_matrix_csv_roundtrip(tmp_path):
    mat = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in mat))
    space = load_matrix_csv(str(path))
    assert space.n == 3
    assert np.allclose(space.distance_matrix(), mat)


def test_points_jsonl_roundtrip(tmp_path):
    lines = [json.dumps({"provider": "euclidean", "param": 2})]
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    for k, c in enumerate(pts):
        coords = {str(ax): val for ax, val in enumerate(c) if val != 0.0}
        lines.append(json.dumps({"id": k, "coords": coords, "label": f"q{k}"}))
    path = tmp_path / "pts.jsonl"
    path.write_text("\n".join(lines))
    space = load_points_jsonl(str(path))
    assert space.n == 3
    assert space.index_of("q2") == 2
    assert space.distance(0, 2) == pytest.approx(2.0)


def test_derived_provider_builds_by_construction():
    # no triangle check runs on a derived provider, at any size
    rng = np.random.default_rng(99)
    space = build_space(rng.normal(size=(60, 2)), "euclidean(2)")
    assert space.n == 60
    assert space.validation == {"mode": "by-construction", "triples": 0}


def test_symmetrization_within_tol_is_not_repair():
    mat = [[0.0, 1.0], [1.0 + 1e-13, 0.0]]
    space = build_space(mat, "explicit-matrix")
    assert space.distance(0, 1) == space.distance(1, 0)


def test_matrix_checks_refuse_only_past_the_tolerance():
    # a diagonal entry or an asymmetry of exactly MATRIX_TOL is accepted
    tol = MATRIX_TOL
    assert build_space([[tol, 1.0], [1.0, 0.0]],
                       "explicit-matrix").distance(0, 0) == 0.0
    assert build_space([[0.0, tol], [0.0, 0.0]],
                       "explicit-matrix").distance(0, 1) == tol / 2
    # so the symmetry witness is the first pair strictly past it
    with pytest.raises(MetricViolation) as err:
        build_space([[0.0, tol, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                    "explicit-matrix")
    assert (err.value.axiom, err.value.witness) == ("symmetry", (0, 2))
    # d(0,3) is exactly d(0,1) + d(1,3) + tol, which holds, and exceeds
    # d(0,2) + d(2,3) + tol: the witness's middle point is 2, not 1
    far = 0.5 + 0.5 + tol
    mat = [[0.0, 0.5, 0.25, far], [0.5, 0.0, 0.5, 0.5],
           [0.25, 0.5, 0.0, 0.25], [far, 0.5, 0.25, 0.0]]
    with pytest.raises(MetricViolation) as err:
        build_space(mat, "explicit-matrix")
    assert (err.value.axiom, err.value.witness) == ("triangle", (0, 3, 2))
    # and a triangle gap of exactly the tolerance is accepted
    build_space([[0.0, 0.5, far], [0.5, 0.0, 0.5], [far, 0.5, 0.0]],
                "explicit-matrix")


def _scaled_p_norm_row(c, i, p):
    """p-norm distances from row i, each pair scaled by its largest
    coordinate difference."""
    diff = np.abs(c - c[i])
    top = diff.max(axis=1, keepdims=True)
    top[top == 0.0] = 1.0
    return top[:, 0] * ((diff / top) ** p).sum(axis=1) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 2.5])
def test_scaled_p_norm_matches_plain_formula(p):
    rng = np.random.default_rng(8)
    dense = rng.normal(size=(11, 10)) * 10.0 ** rng.uniform(-3, 3, size=10)
    dense[rng.random(dense.shape) < 0.3] = 0.0
    dense[3] = dense[7]  # a zero-distance pair
    space = build_space([SparseVector(dict(enumerate(r))) for r in dense],
                        f"p-norm-sparse({p})")
    c = space._coords
    for i in range(space.n):
        plain = (np.abs(c - c[i]) ** p).sum(axis=1) ** (1.0 / p)
        np.testing.assert_allclose(space.distances_from(i), plain,
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p, gap", [(2.0, 1e200), (100.0, 1e4), (200.0, 1e-3)])
def test_p_norm_neither_overflows_nor_underflows(p, gap):
    # the plain power sum gives inf for 1e200**2 and 1e4**100, and 0.0 for
    # 1e-3**200
    space = build_space([{0: 0.0}, {0: gap}], f"p-norm-sparse({p:g})")
    assert space.distance(0, 1) == gap
    assert space.distance(1, 0) == gap


def _first_triangle_violation(mat):
    """Brute force: the lexicographically first (i, k, j) with
    d(i,k) > d(i,j) + d(j,k) + MATRIX_TOL, or None."""
    n = len(mat)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if mat[i][k] > mat[i][j] + mat[j][k] + MATRIX_TOL:
                    return (i, k, j)
    return None


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    mat = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            # half-integers: exact sums, so ties sit on the strict boundary
            mat[i, k] = mat[k, i] = draw(st.integers(0, 6)) / 2
    return mat


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_exhaustive_triangle_witness_matches_brute_force(mat):
    want = _first_triangle_violation(mat.tolist())
    if want is None:
        space = build_space(mat, "explicit-matrix")
        assert space.validation == {"mode": "exhaustive", "triples": len(mat) ** 3}
        return
    with pytest.raises(MetricViolation) as err:
        build_space(mat, "explicit-matrix")
    assert err.value.axiom == "triangle"
    assert err.value.witness == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14), st.sampled_from([1, 2, 3, 5, None]), st.data())
def test_triangle_tiles_match_brute_force(n, side, data):
    # tiles of side 1, 2, 3, 5 or the whole matrix, on half-integer
    # matrices (ties on the strict boundary) with a few entries raised
    # within the symmetry tolerance
    halves = st.integers(0, 8).map(lambda v: v / 2)
    mat = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            mat[i, k] = mat[k, i] = data.draw(halves)
    for i, k in data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=3)):
        if i != k:
            mat[i, k] += 4e-13
    want = _first_triangle_violation((0.5 * (mat + mat.T)).tolist())
    budget = n * n * n if side is None else side * side * n
    with mock.patch.object(metric, "_BLOCK_ELEMENTS", budget):
        if want is None:
            build_space(mat, "explicit-matrix")
            return
        with pytest.raises(MetricViolation) as err:
            build_space(mat, "explicit-matrix")
    assert err.value.axiom == "triangle"
    assert err.value.witness == want


# Valid spaces with large coordinates, each rejected by a triangle check
# with an absolute tolerance: rounding alone makes d(0,2) exceed
# d(0,1) + d(1,2) + 1e-12.  Each value is coordinate 0 of one point.
LARGE_COORDINATE_CASES = [
    ("euclidean(1)", [66082.49672407474, 66690.0087671014, 841317.2796123832]),
    ("euclidean(1)", np.sort(np.random.default_rng(0).uniform(0, 1e6, 40))),
    ("function-sup(1)",
     [25196.870801760364, 30350.294384111632, 372185.27256520395]),
    ("p-norm-sparse(3)",
     [226423.48269714406, 513003.58282220847, 725849.4205510871]),
    ("bounded-usual(500000)",
     [20215.573356146877, 30288.833931601977, 252768.67795245638]),
    # no rounding here: the gap overflows to inf and the distance is the cap
    ("bounded-usual(1)", [-1e308, 1e308]),
    ("sup-norm-sparse",
     [38985.84103304536, 166011.15304721703, 590387.8678348517]),
]


def _points(spec, values):
    """One point per value, with the value as coordinate 0."""
    if "sparse" in spec:
        return [{0: float(v)} for v in values]
    return np.asarray(values, dtype=float)[:, None]


@pytest.mark.parametrize(
    "spec, values", LARGE_COORDINATE_CASES,
    ids=[f"{spec}-n{len(v)}" for spec, v in LARGE_COORDINATE_CASES],
)
def test_derived_providers_accept_large_coordinates(spec, values):
    space = build_space(_points(spec, values), spec)
    assert space.n == len(values)
    assert space.validation == {"mode": "by-construction", "triples": 0}
    assert np.all(np.isfinite(space.distance_matrix()))


@pytest.mark.parametrize("spec, values", [
    ("euclidean(1)", [0.0, 1e200]),
    ("euclidean(1)", [0.0, 1e200, 3e200]),
    ("function-sup(1)", [-1e308, 1e308]),
    ("sup-norm-sparse", [-1e308, 1e308]),
    ("p-norm-sparse(2)", [-1e308, 1e308]),
])
def test_overflowing_distances_rejected(spec, values):
    with pytest.raises(MalformedInput, match="distances overflow float64"):
        build_space(_points(spec, values), spec)


@pytest.mark.parametrize("spec, data", [
    ("euclidean(2)", np.arange(6.0).reshape(3, 2)),
    ("euclidean(1)", np.array([0.0, 1.0, 3.0])),
    ("function-sup(2)", np.arange(6.0).reshape(3, 2) ** 2),
    ("bounded-usual(2)", np.array([0.0, 1.0, 3.0])),
    ("explicit-matrix", np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])),
])
def test_space_does_not_share_the_callers_array(spec, data):
    view = data[:]
    space = build_space(data, spec)
    before = (space.distance(0, 2), space.distances_from(0).copy(),
              space.pairwise([0, 1], [2, 2]).copy())
    data[0] = 7.0
    view[-1] = -5.0
    assert data.flags.writeable
    assert space.distance(0, 2) == before[0]
    assert np.array_equal(space.distances_from(0), before[1])
    assert np.array_equal(space.pairwise([0, 1], [2, 2]), before[2])


def test_width_one_providers_read_a_1d_array_as_one_value_per_point():
    values = np.array([0.5, -2.0, 7.25, 0.5])
    for spec in ("function-sup(1)", "euclidean(1)", "bounded-usual(3)"):
        flat = build_space(values, spec)
        rows = build_space(values[:, None], spec)
        assert flat._coords.shape == rows._coords.shape == (4, 1)
        assert flat.distance_matrix().tobytes() == \
            rows.distance_matrix().tobytes()


@pytest.mark.parametrize("spec, data, width", [
    ("explicit-matrix", [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], 1),
    ("euclidean(3)", np.zeros((2, 3)), 3),
    ("function-sup(4)", np.zeros((2, 4)), 4),
    ("bounded-usual(1)", [0.0, 5.0, 1e308], 1),
    ("sup-norm-sparse", [{0: 1.0, 7: 2.0}, {3: 1.0}], 3),
    ("p-norm-sparse(2)", [{5: 1.0}, {}], 1),
])
def test_pair_width_is_doubles_per_pair(spec, data, width):
    # a pair block's rows are sized by it: one double per pair for a
    # matrix lookup, one per coordinate column otherwise
    assert build_space(data, spec)._pair_width == width


def _kernel_cases():
    rng = np.random.default_rng(21)
    cases = []
    for d in (1, 2, 3, 7, 8, 20):
        pts = rng.normal(size=(13, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        pts[4] = pts[9]  # a zero-distance pair
        cases.append((
            f"euclidean({d})", pts, lambda c, i: np.linalg.norm(c - c[i], axis=1)
        ))
    # dense rows: every column stays in the support, so the packed
    # coordinates are exactly these columns
    dense = rng.normal(size=(11, 10))
    dense[rng.random(dense.shape) < 0.3] = 0.0
    dense[0] = 1.0
    sparse = [SparseVector(dict(enumerate(row))) for row in dense]
    cases.append((
        "sup-norm-sparse", sparse, lambda c, i: np.abs(c - c[i]).max(axis=1)
    ))
    for p in (1.0, 2.5):
        cases.append((
            f"p-norm-sparse({p})", sparse,
            lambda c, i, p=p: _scaled_p_norm_row(c, i, p),
        ))
    cases.append(("function-sup(9)", rng.normal(size=(12, 9)),
                  lambda c, i: np.abs(c - c[i]).max(axis=1)))
    cases.append(("bounded-usual(0.7)", rng.normal(size=14),
                  lambda c, i: np.minimum(0.7, np.abs(c[:, 0] - c[i, 0]))))
    line = np.sort(rng.uniform(0, 5, size=10))
    cases.append(("explicit-matrix", np.abs(line[:, None] - line[None, :]),
                  lambda c, i: c[i]))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("spec,data,seed_row", _kernel_cases())
def test_kernel_routes_bit_identical(spec, data, seed_row):
    # every query route and the per-provider row formula must agree to the
    # bit; the d >= 8 cases cross numpy's switch to pairwise summation
    space = build_space(data, spec)
    c = space._coords
    n = space.n
    mat = space.distance_matrix()
    idx = np.arange(n)
    for i in range(n):
        want = seed_row(c, i)
        assert np.array_equal(space.distances_from(i), want)
        assert np.array_equal(mat[i], want)
        assert np.array_equal(space.pairwise(np.full(n, i), idx), want)
        assert [space.distance(i, j) for j in range(n)] == want.tolist()
    for block in (1, 3, None):
        stacked = np.full((n, n), np.nan)
        for offset, rows, d in space.pair_blocks(idx, idx, block=block):
            assert np.array_equal(rows, idx[offset:offset + len(d)])
            stacked[rows] = d
        assert np.array_equal(stacked, mat)
    cols = idx[::-2]
    for offset, rows, d in space.pair_blocks(idx[1::3], cols, block=2):
        assert np.array_equal(d, mat[np.ix_(rows, cols)])
    # index sets stacked and broadcast against themselves, as the local
    # profile stacks its balls
    stack = np.stack([idx, idx[::-1], np.roll(idx, 1)])
    got = space._pairs(stack[:, :, None], stack[:, None, :])
    for square, sub in zip(got, stack):
        assert np.array_equal(square, mat[np.ix_(sub, sub)])
    # the public route still asks for equal shapes, even where they would
    # broadcast
    for ii, jj in [(idx[:2], idx[:3]), (idx[:1], idx[:2]),
                   (idx[:, None], idx)]:
        with pytest.raises(MalformedInput):
            space.pairwise(ii, jj)


@st.composite
def provider_spaces(draw):
    """A space of 1 to 9 points for any of the six providers."""
    n = draw(st.integers(1, 9))
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from([
        "euclidean", "sup-norm-sparse", "p-norm-sparse", "bounded-usual",
        "function-sup", "explicit-matrix",
    ]))
    if kind == "explicit-matrix":
        line = np.asarray(draw(st.lists(st.integers(-50, 50), min_size=n,
                                        max_size=n)), dtype=float)
        return build_space(np.abs(line[:, None] - line[None, :]), kind)
    if kind == "bounded-usual":
        cap = draw(st.floats(0.01, 1e3))
        values = draw(st.lists(coord, min_size=n, max_size=n))
        return build_space(values, f"bounded-usual({cap})")
    if kind.endswith("-sparse"):
        entries = st.dictionaries(st.integers(0, 12), coord, max_size=10)
        points = [SparseVector(e) for e in draw(st.lists(
            entries, min_size=n, max_size=n))]
        p = draw(st.floats(1.0, 4.0))
        return build_space(points, f"p-norm-sparse({p})"
                           if kind == "p-norm-sparse" else kind)
    width = draw(st.integers(1, 10))  # euclidean sums pairwise from 8 on
    rows = draw(st.lists(st.lists(coord, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    return build_space(np.asarray(rows), f"{kind}({width})")


@settings(max_examples=150, deadline=None)
@given(provider_spaces(), st.integers(1, 4))
def test_kernels_are_symmetric_bit_for_bit(space, block):
    # d(i, j) and d(j, i) are the same float, so a maximum or minimum over
    # pairs may read either orientation
    ii, jj = np.meshgrid(np.arange(space.n), np.arange(space.n))
    assert np.array_equal(space.pairwise(ii, jj), space.pairwise(jj, ii))
    idx = np.arange(space.n)
    square = np.vstack([d for _, _, d in space.pair_blocks(
        idx, idx, block=block)])
    assert np.array_equal(square, square.T)


@settings(max_examples=150, deadline=None)
@given(provider_spaces(), st.sampled_from([1, 3, None]), st.data())
def test_square_scan_is_the_upper_triangle(space, block, data):
    # without cols each row block meets only the positions from its own
    # first row on; the entries that pair a row with itself or an earlier
    # position are NaN, so each unordered pair of distinct positions is a
    # number exactly once
    mat = space.distance_matrix()
    idx = np.arange(space.n)
    order = np.asarray(data.draw(st.permutations(idx)), dtype=int)
    later = [[a, b] for a in range(space.n) for b in range(a + 1, space.n)]
    for rows in (idx, order):
        covered, pairs = [], []
        for offset, chunk, d in space.pair_blocks(rows, block=block):
            assert np.array_equal(chunk, rows[offset:offset + len(d)])
            a, b = np.indices(d.shape)
            assert np.array_equal(np.isnan(d), b <= a)
            want = mat[np.ix_(chunk, rows[offset:])]
            assert np.array_equal(d[b > a], want[b > a])
            covered.extend(chunk.tolist())
            pairs.extend((offset + np.argwhere(~np.isnan(d))).tolist())
        assert covered == rows.tolist()
        assert sorted(pairs) == later


def _spread_sparse_points():
    """12 points on up to 40 coordinates, each on a few of them, so a
    subset of points misses most columns."""
    rng = np.random.default_rng(13)
    points = []
    for _ in range(12):
        cols = rng.choice(40, size=rng.integers(1, 12), replace=False)
        points.append(dict(zip(cols.tolist(), rng.normal(size=cols.size))))
    return points


@pytest.mark.parametrize("spec,data,seed_row", _kernel_cases() + [
    pytest.param("p-norm-sparse(3)", _spread_sparse_points(), None,
                 id="p-norm-sparse(3)-spread"),
])
def test_subspace_preserves_distances(spec, data, seed_row):
    # a subset of points is read through its parent's coordinates (the
    # in-itself discreteness and the trimmed-cover gap scan it so), so
    # every column, the sparse support included, is the parent's: numpy
    # groups the p-norm's sums the same way and every distance is
    # bit-identical
    space = build_space(data, spec)
    mat = space.distance_matrix()
    idx = np.arange(space.n)
    rng = np.random.default_rng(2)
    subsets = [[i, j] for i in idx for j in idx if i < j] + [
        idx[::-1], idx[::3], rng.choice(space.n, 4, replace=False),
    ]
    for keep in subsets:
        blocks = space.pair_blocks(keep, keep, block=3)
        got = np.vstack([d for _, _, d in blocks])
        assert np.array_equal(got, mat[np.ix_(keep, keep)])


def test_pair_blocks_checks_indices():
    space = build_space(np.array([0.0, 1.0, 3.0]), "euclidean(1)")
    with pytest.raises(IndexOutOfRange):
        next(space.pair_blocks([0, 3]))
    with pytest.raises(IndexOutOfRange):
        next(space.pair_blocks([0, 1], [-1]))
    assert list(space.pair_blocks([])) == []

"""Generated example spaces and their canonical claims."""

import json
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainscope import (
    FIXTURE_NAMES,
    SequencePrefix,
    canonical_claims,
    make_fixture,
)
from chainscope import fixtures
from chainscope.errors import BadParam, TooLarge, UnknownFixture
from chainscope.fixtures import claim_runs

from test_blocked_scans import blocks_of

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "schema.md"


def test_unknown_fixture_name():
    with pytest.raises(UnknownFixture):
        make_fixture("moebius-strip")
    with pytest.raises(UnknownFixture):
        canonical_claims("moebius-strip")


def test_bad_params_rejected():
    with pytest.raises(BadParam):
        make_fixture("harmonic-sums", m=10)  # unknown key
    with pytest.raises(BadParam):
        make_fixture("segment-chain", n=1)
    with pytest.raises(BadParam):
        make_fixture("slow-spike-grid", n=4, spikes=9)
    with pytest.raises(BadParam):
        make_fixture("scaled-unit-vectors", variant="rays", r_step=0.07)
    with pytest.raises(BadParam):
        make_fixture("scaled-unit-vectors", variant="spiral")
    with pytest.raises(BadParam):
        make_fixture(
            "scaled-unit-vectors", variant="towers", scale="cubic"
        )


@pytest.mark.parametrize(
    "name, params",
    [
        ("bounded-line", {"step": True}),
        ("bounded-line", {"cap": np.True_}),
        ("grid-interval", {"b": True}),
        ("scaled-unit-vectors", {"r_step": False}),
    ],
)
def test_booleans_are_not_float_params(name, params):
    (key, value), = params.items()
    with pytest.raises(BadParam, match=f"{key} must be a finite number"):
        make_fixture(name, **params)


def test_params_of_another_variant_rejected():
    for params in ({"k": 3}, {"scale": "sqrt"}, {"variant": "rays", "k": 3},
                   {"variant": "towers", "r_step": 0.5}):
        with pytest.raises(BadParam):
            make_fixture("scaled-unit-vectors", **params)
    with pytest.raises(BadParam):
        make_fixture("tent-family", variant="ramp", r_step=0.5)
    with pytest.raises(BadParam):
        make_fixture("bounded-line", variant="interp")


def test_canonical_claims_resolve_like_make_fixture():
    with pytest.raises(BadParam):
        canonical_claims("tent-family", variant="spiral")
    with pytest.raises(BadParam):
        canonical_claims("bounded-line", bogus=1)
    with pytest.raises(BadParam):
        canonical_claims("scaled-unit-vectors", variant="towers", r_step=0.5)
    ids = [c.id for c in canonical_claims("tent-family", variant="ramp")]
    assert ids[0] == "ramp-consecutive-gap"


def _schema_fixture_rows():
    """(fixture, variant, is_default, {param: default}) per row of the
    fixture table in docs/schema.md."""
    text = SCHEMA.read_text(encoding="utf-8")
    section = text.split("### `--fixture NAME`", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        name, variant, params = (c.strip() for c in line.strip("|").split("|"))
        default = variant.endswith("(default)")
        variant = variant.removesuffix("(default)").strip().strip("`")
        rows.append((
            name.strip("`"),
            None if variant == "—" else variant,
            default,
            {k: json.loads(v) for k, v in re.findall(r"`(\w+)=([^`]+)`",
                                                      params)},
        ))
    return rows


def test_schema_fixture_table_matches_catalog():
    from chainscope.fixtures import _catalog

    rows = _schema_fixture_rows()
    catalog = _catalog()
    assert [(name, variant) for name, variant, _, _ in rows] == list(catalog)
    seen = set()
    for name, variant, default, params in rows:
        defaults = catalog[name, variant][1]
        # same keys in the same order, same values of the same types
        assert list(params.items()) == list(defaults.items()), (name, variant)
        assert [type(v) for v in params.values()] == [
            type(v) for v in defaults.values()
        ]
        assert default == (variant is not None and name not in seen)
        seen.add(name)


def test_every_builder_is_deterministic():
    cases = {
        "bounded-line": {},
        "segment-chain": {"n": 6, "subdiv": 2},
        "tent-family": {"n": 8},
        "harmonic-sums": {"n": 40},
        "sqrt-space": {"n": 40},
        "naturals-plus": {"n": 12},
        "scaled-unit-vectors": {"n": 4},
        "grid-interval": {"count": 20},
        "slow-spike-grid": {"n": 12, "spikes": 3},
    }
    assert set(cases) == set(FIXTURE_NAMES)
    for name, params in cases.items():
        a = make_fixture(name, **params)
        b = make_fixture(name, **params)
        assert np.array_equal(a.space.distance_matrix(), b.space.distance_matrix())
        assert a.space.labels == b.space.labels
        if a.function is not None:
            assert np.array_equal(a.function.values, b.function.values)


def test_segment_chain_shape():
    fx = make_fixture("segment-chain", n=5, subdiv=2)
    members = fx.meta["members"]
    assert set(members) == {1, 2, 3, 4, 5}
    # adjacent segments share exactly their junction endpoint
    for m in range(1, 5):
        shared = set(members[m]) & set(members[m + 1])
        assert len(shared) == 1
        (j,) = shared
        assert fx.space.labels[j] == f"e{m + 1}"
    # segment m holds subdiv*(m+1)+1 points
    for m in range(1, 6):
        assert len(members[m]) == 2 * (m + 1) + 1


def test_segment_chain_snake_gaps():
    fx = make_fixture("segment-chain", n=4, subdiv=3)
    gaps = fx.prefix.gaps()
    members = fx.meta["members"]
    pos = 0
    for m in range(1, 5):
        step = 1.0 / (3 * (m + 1))
        # each segment's run covers its whole member list consecutively,
        # entering through the endpoint shared with the previous one
        for _ in range(len(members[m]) - 1):
            assert gaps[pos] == pytest.approx(step, abs=1e-12)
            pos += 1
    assert pos == len(gaps)


def test_harmonic_fixture_values():
    fx = make_fixture("harmonic-sums", n=30)
    sums = np.cumsum(1.0 / np.arange(1, 31))
    got = np.asarray(
        [fx.space.distance(0, k) for k in range(30)]
    )
    assert got == pytest.approx(sums - 1.0, abs=1e-12)
    gaps = fx.prefix.gaps()
    assert gaps == pytest.approx(1.0 / np.arange(2, 31), abs=1e-12)
    assert fx.function.values == pytest.approx(np.sqrt(np.arange(1, 31)))
    assert fx.function.name == "sqrt-index"


def test_sqrt_fixture_values():
    fx = make_fixture("sqrt-space", n=20)
    assert fx.space.labels[0] == "s1"
    assert fx.space.distance(0, 3) == pytest.approx(2.0 - 1.0)
    want = [1.0 if (k % 2 == 0) else 0.0 for k in range(1, 21)]
    assert list(fx.function.values) == want


def test_towers_sqrt_scale_coordinates():
    # point T{m}k{j}: sqrt(m) on coordinate 1, plus 1/m on coordinate j
    n, k = 4, 3
    fx = make_fixture("scaled-unit-vectors", variant="towers", n=n, k=k,
                      scale="sqrt")
    assert fx.params == {"n": n, "variant": "towers", "k": k, "scale": "sqrt"}
    coords = np.zeros((n * k, k + 1))
    for m in range(1, n + 1):
        for j in range(1, k + 1):
            row = (m - 1) * k + j - 1
            assert fx.space.label_of(row) == f"T{m}k{j}"
            coords[row, 1] = math.sqrt(m)
            coords[row, j] += 1.0 / m
            assert fx.function(row) == float(m**j)
    want = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
    assert np.array_equal(fx.space.distance_matrix(), want)


def test_naturals_plus_census():
    fx = make_fixture("naturals-plus", n=20)
    assert fx.space.n == 2 * 20 - 1  # the m=1 offset point collides and is dropped
    assert "p1" not in fx.space.labels
    assert "n1" in fx.space.labels and "p2" in fx.space.labels
    order = np.asarray(
        [fx.space.distance(0, k) for k in range(fx.space.n)]
    )
    assert (np.diff(order) > 0).all()  # points come sorted along the line


def test_slow_spike_grid_realizes_zero():
    fx = make_fixture("slow-spike-grid", n=10, spikes=2)
    assert fx.space.n == 12
    dup = fx.space.index_of("dup1")
    twin = fx.space.index_of("b1")
    assert fx.space.distance(dup, twin) == 0.0
    assert fx.function(dup) == pytest.approx(1.0 / math.sqrt(2))
    assert fx.function(twin) == 0.0
    assert fx.space.min_positive_distance() > 0


def test_tent_interp_walk_steps():
    fx = make_fixture("tent-family", n=8)
    gaps = fx.prefix.gaps()
    # within family m the interpolation step is 1/(m+1): coarsest at the
    # first tent pair, finest at the last
    assert gaps.max() == pytest.approx(0.5, abs=1e-12)
    assert gaps.min() == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_plain_grids_carry_no_claims():
    assert canonical_claims("slow-spike-grid") == []
    assert [c.id for c in canonical_claims("grid-interval")] == [
        "split-interval-gap"
    ]


def only_claim(name, claim_id):
    (claim,) = [c for c in canonical_claims(name) if c.id == claim_id]
    return claim


def test_split_interval_gap_keeps_the_quarter_points(monkeypatch):
    # the quarter points sit exactly eps from the middle, so the trim
    # keeps them; a strict trim would drop them and leave 0.52
    fx = make_fixture("grid-interval")
    claim = only_claim("grid-interval", "split-interval-gap")
    assert claim.check(fx).details == (
        "trimmed at 0.25, the halves sit 0.5 apart")
    gap = fixtures.u_placed_gap
    monkeypatch.setattr(fixtures, "u_placed_gap", lambda s, p, m, eps: gap(
        s, p, m, math.nextafter(eps, math.inf)))
    outcome = claim.check(fx)
    assert not outcome.passed
    assert outcome.details == "the trimmed halves sit 0.52 apart, not 0.5"


def test_rays_lp_tail_claim_sees_a_broken_chain(monkeypatch):
    fx = make_fixture("scaled-unit-vectors")
    claim = only_claim("scaled-unit-vectors", "rays-lp-tail-through-origin")
    assert claim.check(fx).details == "all 401 points certify through o"
    # at scale 0.05 the ray steps of 0.05 stop chaining through o, so
    # r2x1 (point 21), whose tail is 0.05^2, delegates to no small tail
    tail = fixtures.lp_tail_criterion
    monkeypatch.setattr(fixtures, "lp_tail_criterion",
                        lambda family, p, eps, n0: tail(family, p, 0.05, n0))
    outcome = claim.check(fx)
    assert not outcome.passed
    assert outcome.details.startswith("failures [21, ")


def test_rays_single_component_claim_at_coarse_steps(monkeypatch):
    # steps of 0.5 cannot chain at 0.07: the claim says so and passes
    fx = make_fixture("scaled-unit-vectors", n=3, r_step=0.5)
    (claim,) = [c for c in canonical_claims("scaled-unit-vectors", n=3,
                                            r_step=0.5)
                if c.id == "rays-single-component"]
    outcome = claim.check(fx)
    assert outcome.passed
    assert outcome.details == "ray steps of 0.07 or more do not chain at 0.07"
    # at the defaults the steps of 0.05 chain at 0.07 but not at 0.04, so
    # under that shifted scale the claim still fails
    fx = make_fixture("scaled-unit-vectors")
    claim = only_claim("scaled-unit-vectors", "rays-single-component")
    assert claim.check(fx).details == "whole tail sits in one component at 0.07"
    bqc = fixtures.bourbaki_qc_test
    monkeypatch.setattr(fixtures, "bourbaki_qc_test",
                        lambda prefix, space, eps: bqc(prefix, space, 0.04))
    outcome = claim.check(fx)
    assert not outcome.passed
    assert outcome.details == "status falsified, n0 None"


def test_all_catalog_claims_pass():
    for display, fx, claims in claim_runs():
        if display == "slow-spike-grid":
            assert claims == []
            continue
        assert claims, display
        for claim in claims:
            outcome = claim.check(fx)
            assert outcome.claim_id == claim.id
            assert outcome.passed, f"{display}: {claim.id}: {outcome.details}"


def test_claim_ids_unique_per_fixture():
    for _, _, claims in claim_runs():
        ids = [c.id for c in claims]
        assert len(ids) == len(set(ids))


def test_claim_runs_follow_the_catalog_at_its_replay_sizes():
    from chainscope.fixtures import _catalog

    runs = list(claim_runs())
    assert [display for display, _, _ in runs] == [
        name if variant is None else f"{name}[{variant}]"
        for name, variant in _catalog()
    ]
    params = {display: fx and fx.params for display, fx, _ in runs}
    assert params["segment-chain"] == {"n": 16, "subdiv": 4}
    assert params["tent-family[ramp]"]["n"] == 30
    assert params["scaled-unit-vectors[towers]"]["n"] == 12
    assert params["harmonic-sums"] == {"n": 500}
    assert params["grid-interval"] == {"a": 0.0, "b": 1.0, "count": 101}
    # entries without claims are listed but not built
    assert params["slow-spike-grid"] is None
    assert [d for d, _, _ in claim_runs("tent-family")] == [
        "tent-family[interp]", "tent-family[ramp]",
    ]


@pytest.mark.parametrize("block", [1, 2, None])
def test_rays_unit_separation_over_every_pair(block):
    fx = make_fixture("scaled-unit-vectors", n=4, r_step=0.5)
    (claim,) = [c for c in canonical_claims("scaled-unit-vectors", n=4)
                if c.id == "rays-unit-separation"]

    def check(labels):
        idx = tuple(fx.space.index_of(t) for t in labels)
        with blocks_of(block):
            return claim.check(replace(fx, prefix=SequencePrefix(fx.space, idx)))

    with blocks_of(block):
        outcome = claim.check(fx)
    assert outcome.passed
    assert outcome.details == "all ray tips exactly 1 apart"
    assert check(["r3x2"]).passed  # one tip, no pair
    # a half-way point sits 0.5 from its own tip and 1 from the others;
    # the range covers every pair, not just the first point's row
    bad = check(["r2x2", "r3x2", "r1x2", "r1x1"])
    assert not bad.passed
    assert bad.details == "tip distances stray from 1: 0.5..1.0"
    # a repeated tip is 0 from itself
    assert check(["r2x2", "r1x2", "r2x2"]).details == (
        "tip distances stray from 1: 0.0..1.0"
    )


@pytest.mark.parametrize("name, params", [
    ("harmonic-sums", {"n": 1e9}),  # an integral float passes the int rule
    ("scaled-unit-vectors", {"r_step": 1e-300}),  # 1 / r_step divides 1
])
def test_oversized_fixture_is_refused_at_once(name, params):
    started = time.perf_counter()
    with pytest.raises(TooLarge, match=r"needs about .* bytes, over the "
                                       r"268435456-byte fixture budget"):
        make_fixture(name, **params)
    assert time.perf_counter() - started < 1.0


def test_fixture_budget_covers_the_coordinates(monkeypatch):
    """Each builder's size estimate is at least the bytes of its space's
    coordinates, and equal to them but for the ramp grid, which it bounds:
    a budget one byte short refuses the fixture, an exact one builds it."""
    for (name, variant), (_, defaults, *_) in fixtures._catalog().items():
        params = {**defaults, **({} if variant is None else
                                 {"variant": variant})}
        monkeypatch.undo()
        need = make_fixture(name, **params).space._coords.nbytes
        monkeypatch.setattr(fixtures, "FIXTURE_BYTES", need - 1)
        with pytest.raises(TooLarge):
            make_fixture(name, **params)
        if (name, variant) != ("tent-family", "ramp"):
            monkeypatch.setattr(fixtures, "FIXTURE_BYTES", need)
            make_fixture(name, **params)

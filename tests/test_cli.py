"""Command-line surface: envelopes, exit codes, and input plumbing."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import chainscope
from chainscope import chain_discreteness, cli, covering_profile, make_fixture
from chainscope.metric import load_matrix_csv, load_points_jsonl
from chainscope.moduli import ModulusReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


ENVELOPE_KEYS = {"command", "inputs", "results", "timing_ms", "version"}


def test_space_envelope_and_diameter(capsys):
    code, report = run_cli(
        capsys, "space", "--fixture", "harmonic-sums", "--n", "100"
    )
    assert code == 0
    assert set(report) == ENVELOPE_KEYS
    assert report["command"] == "space"
    assert report["version"] == chainscope.__version__
    want = sum(1.0 / k for k in range(2, 101))
    assert report["results"]["diameter"] == pytest.approx(want, rel=1e-12)
    assert report["results"]["n"] == 100
    assert report["inputs"]["fixture"] == "harmonic-sums"


def test_space_sup_norm_provider(capsys):
    code, report = run_cli(
        capsys, "space", "--fixture", "segment-chain", "--n", "4",
        "--subdiv", "1",
    )
    assert code == 0
    assert report["results"]["provider"] == "sup-norm-sparse"
    assert report["results"]["n"] == 15


def test_space_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chainscope.cli", "space", "--fixture",
         "grid-interval"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["n"] == 101


def test_bad_matrix_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("0,1,3\n1,0,1\n3,1,0\n")
    code = cli.main(["space", "--matrix", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "triangle" in err


def test_missing_source_exits_two(capsys):
    code = cli.main(["space"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exactly one" in err


def test_chains_witness_hop_floor(capsys):
    code, report = run_cli(
        capsys, "chains", "--fixture", "segment-chain", "--n", "16",
        "--subdiv", "4", "--eps", "0.25", "--witness", "e8", "e14",
    )
    assert code == 0
    row = report["results"]["scales"][0]
    assert row["eps"] == 0.25
    witness = row["witness"]
    assert witness["hops"] >= 5
    assert witness["labels"][0] == "e8"
    assert witness["labels"][-1] == "e14"


def test_chains_geometric_scale_grid(capsys):
    code, report = run_cli(
        capsys, "chains", "--fixture", "grid-interval",
        "--eps-geom", "1.0", "0.5", "10", "--profile",
    )
    assert code == 0
    rows = report["results"]["scales"]
    assert len(rows) == 10
    for k, row in enumerate(rows):
        assert row["eps"] == pytest.approx(0.5**k)
        assert set(row["profile"]) == {"k", "m_star"}
    counts = [row["components"] for row in rows]
    assert counts == sorted(counts)  # finer scales only split components


def test_chains_ball_members(capsys):
    code, report = run_cli(
        capsys, "chains", "--fixture", "grid-interval",
        "--param", "count=11", "--eps", "0.15", "--ball", "g5", "2",
    )
    assert code == 0
    ball = report["results"]["scales"][0]["ball"]
    assert ball["center"] == "g5"
    assert ball["members"] == ["g3", "g4", "g5", "g6", "g7"]
    assert ball["size"] == 5


def test_chains_profile_matches_covering_profile(capsys):
    code, report = run_cli(
        capsys, "chains", "--fixture", "segment-chain", "--n", "16",
        "--subdiv", "4", "--eps", "0.3", "0.126", "0.05", "--profile",
    )
    assert code == 0
    space = make_fixture("segment-chain", n=16, subdiv=4).space
    for row in report["results"]["scales"]:
        k, m_star = covering_profile(space, row["eps"])
        assert row["profile"] == {"k": k, "m_star": m_star}


def test_chains_discreteness_thresholds_in_subset_order(capsys):
    subset = ["g9", "g0", "g5", "g10", "g1"]
    code, report = run_cli(
        capsys, "chains", "--fixture", "grid-interval", "--param",
        "count=11", "--eps", "0.15", "--discreteness", "--mode", "in-itself",
        "--subset", json.dumps(subset),
    )
    assert code == 0
    disc = report["results"]["discreteness"]
    space = make_fixture("grid-interval", count=11).space
    want = chain_discreteness(
        space, [space.index_of(t) for t in subset], mode="in-itself"
    )
    assert disc["thresholds"] == [want.thresholds[i] for i in want.subset]
    assert all(isinstance(t, float) for t in disc["thresholds"])
    assert disc["uniform"] == min(disc["thresholds"])
    assert len(set(disc["thresholds"])) > 1  # order is actually exercised


def test_seq_default_schedule_consistent(capsys):
    code, report = run_cli(
        capsys, "seq", "--fixture", "harmonic-sums", "--n", "200",
        "--test", "qc",
    )
    assert code == 0
    results = report["results"]
    assert results["verdict"]["status"] == "consistent"
    stages = results["schedule"]
    assert len(stages) >= 2
    assert stages[0][1] == 0


def test_seq_cauchy_falsified(capsys):
    code, report = run_cli(
        capsys, "seq", "--fixture", "harmonic-sums", "--n", "500",
        "--test", "cauchy", "--schedule", "[[0.5, 10]]",
    )
    assert code == 0
    verdict = report["results"]["verdict"]
    assert verdict["status"] == "falsified"
    assert verdict["witness"]["gap"] >= 0.5


def test_seq_integer_steps_falsified_at_one(capsys):
    code, report = run_cli(
        capsys, "seq", "--fixture", "grid-interval",
        "--param", "a=1", "--param", "b=12", "--param", "count=12",
        "--test", "qc", "--schedule", "[[0.5, 1]]",
    )
    assert code == 0
    witness = report["results"]["verdict"]["witness"]
    assert witness["stage"] == 0
    assert witness["index"] == 1
    assert witness["partner"] == 2
    assert witness["gap"] == 1.0


def test_seq_bqc_rays(capsys):
    code, report = run_cli(
        capsys, "seq", "--fixture", "scaled-unit-vectors",
        "--test", "bqc", "--eps", "0.07",
    )
    assert code == 0
    verdict = report["results"]["verdict"]
    assert verdict["status"] == "consistent"
    assert verdict["n0"] == 0


def test_seq_splice_reports_embedding(capsys):
    code, report = run_cli(
        capsys, "seq", "--fixture", "grid-interval",
        "--param", "a=0", "--param", "b=2", "--param", "count=21",
        "--prefix", "[10, 20]", "--schedule", "[[0.15, 0]]", "--splice",
    )
    assert code == 0
    splice = report["results"]["splice"]
    assert splice["embedding"] == [0, 10]
    assert splice["indices"] == list(range(10, 21))
    assert splice["consistent"] is True


def test_approx_canonical_harmonic(capsys):
    code, report = run_cli(
        capsys, "approx", "--fixture", "harmonic-sums", "--n", "200",
        "--canonical", "--eps", "0.5",
    )
    assert code == 0
    decomposition = report["results"]["decomposition"]
    assert decomposition["sup_error"] < 0.5
    assert decomposition["eps"] == 0.5


def test_approx_inline_constant_function(capsys):
    code, report = run_cli(
        capsys, "approx", "--fixture", "grid-interval",
        "--param", "count=5", "--function", "[2, 2, 2, 2, 2]",
        "--eps", "1.0",
    )
    assert code == 0
    decomposition = report["results"]["decomposition"]
    assert decomposition["sup_error"] == 0.0
    assert decomposition["h"] == [2.0] * 5


def test_approx_degenerate_bounds_warn_not_fail(tmp_path, capsys):
    path = tmp_path / "twins.csv"
    path.write_text("0,0,1\n0,0,1\n1,1,0\n")
    code, report = run_cli(
        capsys, "approx", "--matrix", str(path),
        "--function", "[0.0, 0.3, 1.0]", "--eps", "1.0",
        "--bounds-prefix", "[0, 1]", "--schedule", "[[0.5, 0]]",
    )
    assert code == 0
    assert "warning" in report["results"]
    assert "bounds" not in report["results"]


def test_approx_bounds_report_fields(capsys):
    code, report = run_cli(
        capsys, "approx", "--fixture", "harmonic-sums", "--n", "200",
        "--canonical", "--eps", "0.5",
        "--bounds-prefix", json.dumps(list(range(200))),
        "--schedule", "[[0.5, 10]]",
    )
    assert code == 0
    bounds = report["results"]["bounds"]
    assert bounds["g_bound_ok"] and bounds["h_bound_ok"]
    assert bounds["violations"] == []
    assert bounds["pairs_checked"] == 189


def test_verify_single_fixture(capsys):
    code, report = run_cli(
        capsys, "verify", "--fixture", "harmonic-sums"
    )
    assert code == 0
    claims = report["results"]["claims"]
    assert claims
    assert all(row["fixture"] == "harmonic-sums" for row in claims)
    assert all(row["passed"] for row in claims)
    assert "implications" not in report["results"]


def test_verify_all_catalog(capsys):
    code, report = run_cli(capsys, "verify", "--all", "--trials", "5")
    assert code == 0
    results = report["results"]
    assert results["failed"] == 0
    assert len(results["claims"]) == 30
    assert all(row["passed"] for row in results["claims"])
    assert results["implications"]["ok"] is True


def test_verify_detects_broken_modulus(monkeypatch, capsys):
    def doubled(f):
        real = lipschitz_real(f)
        return ModulusReport(
            real.kind, real.constant * 2.0, real.scale, real.witness
        )

    from chainscope import fixtures as fixture_mod

    lipschitz_real = fixture_mod.lipschitz_constant
    monkeypatch.setattr(fixture_mod, "lipschitz_constant", doubled)
    code, report = run_cli(
        capsys, "verify", "--fixture", "naturals-plus"
    )
    assert code == 1
    rows = report["results"]["claims"]
    broken = [r for r in rows if not r["passed"]]
    assert any(r["claim"] == "indicator-slope-equals-size" for r in broken)


def test_verify_seed_resolution(monkeypatch, capsys):
    monkeypatch.setenv("CHAINSCOPE_SEED", "42")
    code, report = run_cli(
        capsys, "verify", "--fixture", "grid-interval"
    )
    assert code == 0
    assert report["results"]["seed"] == 42
    code, report = run_cli(
        capsys, "verify", "--fixture", "grid-interval", "--seed", "7"
    )
    assert report["results"]["seed"] == 7


def test_pretty_flag_both_positions(capsys):
    code = cli.main(["--pretty", "space", "--fixture", "grid-interval"])
    first = capsys.readouterr().out
    assert code == 0
    assert first.startswith("{\n")
    code = cli.main(["space", "--fixture", "grid-interval", "--pretty"])
    second = capsys.readouterr().out
    assert code == 0
    a, b = json.loads(first), json.loads(second)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_schedule_file_matches_inline(tmp_path, capsys):
    inline = "[[0.5, 10], [0.01, 100]]"
    path = tmp_path / "sched.json"
    path.write_text(inline)
    base = [
        "seq", "--fixture", "harmonic-sums", "--n", "300", "--test", "qc",
    ]
    _, by_inline = run_cli(capsys, *base, "--schedule", inline)
    _, by_file = run_cli(capsys, *base, "--schedule", str(path))
    assert by_inline["results"]["verdict"] == by_file["results"]["verdict"]
    assert by_inline["results"]["schedule"] == by_file["results"]["schedule"]


def test_prefix_accepts_labels(capsys):
    code, report = run_cli(
        capsys, "seq", "--fixture", "grid-interval", "--param", "count=21",
        "--prefix", '["g0", "g1", "g2"]', "--test", "qc",
        "--schedule", "[[0.1, 0]]",
    )
    assert code == 0
    assert report["results"]["verdict"]["status"] == "consistent"


def test_nonfinite_values_serialized_as_strings(capsys):
    code, report = run_cli(
        capsys, "space", "--fixture", "grid-interval", "--param", "count=2"
    )
    assert code == 0
    # a two-point space has isolation equal to the single gap, all finite
    assert report["results"]["isolation"]["min"] == pytest.approx(1.0)
    code, report = run_cli(
        capsys, "space", "--fixture", "slow-spike-grid",
    )
    assert code == 0
    # duplicated grid points sit at distance zero from their twin
    assert report["results"]["min_positive_distance"] > 0
    assert report["results"]["isolation"]["min"] == 0.0


def run_cli_error(capsys, *argv):
    """Exit code and stderr lines of a call that must fail cleanly."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


@pytest.mark.parametrize(
    "point, message",
    [
        ('{"id": "a", "coords": {"0": 1.0}}', "point id 'a' is not an integer"),
        ('{"id": 0, "coords": [1.0]}', "coords must be a map"),
    ],
)
@pytest.mark.parametrize("provider", ["euclidean(2)", "sup-norm-sparse"])
def test_malformed_jsonl_point_exits_two(tmp_path, capsys, point, message,
                                         provider):
    path = tmp_path / "pts.jsonl"
    path.write_text(json.dumps({"provider": provider}) + "\n" + point + "\n")
    code, err = run_cli_error(capsys, "space", "--points", str(path))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


@pytest.mark.parametrize(
    "coords, message",
    [
        ('{"0": "x"}', "point 0: coordinate 0 value 'x' is not a number"),
        ('{"0": [1]}', "point 0: coordinate 0 value [1] is not a number"),
        ('{"a": 1}', "point 0: coordinate index 'a' is not an integer"),
    ],
)
@pytest.mark.parametrize("provider", ["euclidean(2)", "sup-norm-sparse"])
def test_non_numeric_jsonl_coordinate_exits_two(tmp_path, capsys, coords,
                                                message, provider):
    path = tmp_path / "pts.jsonl"
    path.write_text(
        json.dumps({"provider": provider}) + "\n"
        + '{"id": 0, "coords": ' + coords + "}\n"
    )
    code, err = run_cli_error(capsys, "space", "--points", str(path))
    assert code == 2
    assert err == [f"error: {message}"]


def test_schedule_stage_not_a_pair_exits_two(capsys):
    code, err = run_cli_error(
        capsys, "seq", "--fixture", "harmonic-sums", "--test", "qc",
        "--schedule", "[0.5, 1]",
    )
    assert code == 2
    assert err == ["error: schedule stage 0.5 is not an [eps, n] pair"]


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_bad_eps_names_the_rule(capsys, eps):
    code, err = run_cli_error(
        capsys, "chains", "--fixture", "harmonic-sums", "--eps", eps,
    )
    assert code == 2
    assert err == [
        f"error: eps must be a positive finite number, got {float(eps)}"
    ]


def ref_space_fields(space):
    """The space report's least positive distance and isolation block by
    one distance row per point and a full pair scan."""
    iso = np.asarray([space.isolation(i) for i in range(space.n)])
    return cli._sanitize({
        "min_positive_distance": space.min_positive_distance(),
        "isolation": {
            "min": float(iso.min()),
            "max": float(iso.max()),
            "mean": float(iso.mean()) if np.all(np.isfinite(iso)) else "inf",
            "argmin": space.label_of(int(iso.argmin())),
            "argmax": space.label_of(int(iso.argmax())),
        },
    })


def assert_space_report_matches_rows(capsys, flag, path, space):
    code, report = run_cli(capsys, "space", flag, str(path))
    assert code == 0
    results = report["results"]
    assert {k: results[k] for k in ("min_positive_distance", "isolation")} == (
        ref_space_fields(space)
    )
    assert results["n"] == space.n
    assert results["diameter"] == space.diameter()


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(["euclidean(2)", "sup-norm-sparse"]),
    # integer grid points: ties, duplicates (distance 0) and n = 1
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=12),
)
def test_space_report_matches_per_point_rows(tmp_path, capsys, provider,
                                             pts):
    path = tmp_path / "grid.jsonl"
    path.write_text("\n".join(
        [json.dumps({"provider": provider})]
        + [json.dumps({"id": i, "coords": {"0": x, "1": y}})
           for i, (x, y) in enumerate(pts)]
    ) + "\n")
    assert_space_report_matches_rows(capsys, "--points", path,
                                     load_points_jsonl(path))


@pytest.mark.parametrize("rows", [
    ["0"],  # one point: no positive distance, isolation +inf
    ["0,0,2", "0,0,2", "2,2,0"],  # a duplicate pair and a tie
    ["0,1,2,2", "1,0,1,2", "2,1,0,1", "2,2,1,0"],
])
def test_space_report_on_explicit_matrix(tmp_path, capsys, rows):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(rows) + "\n")
    assert_space_report_matches_rows(capsys, "--matrix", path,
                                     load_matrix_csv(path))


def test_space_reports_validation_by_construction(tmp_path, capsys):
    # an absolute-tolerance triangle check rejects these three points
    path = tmp_path / "line.jsonl"
    path.write_text("\n".join(
        [json.dumps({"provider": "euclidean(1)"})]
        + [json.dumps({"id": i, "coords": {"0": x}}) for i, x in enumerate(
            [66082.49672407474, 66690.0087671014, 841317.2796123832])]
    ) + "\n")
    code, report = run_cli(capsys, "space", "--points", str(path))
    assert code == 0
    assert report["results"]["validation"] == {
        "mode": "by-construction", "triples": 0,
    }


def test_space_reports_validation_exhaustive(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0,1,2\n1,0,1\n2,1,0\n")
    code, report = run_cli(capsys, "space", "--matrix", str(path))
    assert code == 0
    assert report["results"]["validation"] == {
        "mode": "exhaustive", "triples": 27,
    }


@pytest.mark.parametrize("provider", [
    "euclidean(nan)", "euclidean(inf)", "p-norm-sparse(nan)",
    "bounded-usual(nan)",
])
def test_non_finite_provider_parameter_exits_two(tmp_path, capsys, provider):
    path = tmp_path / "pts.jsonl"
    path.write_text(
        json.dumps({"provider": provider}) + "\n"
        + '{"id": 0, "coords": {"0": 1}}\n'
        + '{"id": 1, "coords": {"0": 2}}\n'
    )
    code, err = run_cli_error(capsys, "space", "--points", str(path))
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {provider[:-5]} ")


def test_overflowing_points_exit_two(tmp_path, capsys):
    path = tmp_path / "far.jsonl"
    path.write_text(
        json.dumps({"provider": "euclidean(1)"}) + "\n"
        + '{"id": 0, "coords": {"0": 0}}\n'
        + '{"id": 1, "coords": {"0": 1e200}}\n'
    )
    code, err = run_cli_error(capsys, "space", "--points", str(path))
    assert code == 2
    assert err == ["error: euclidean(1) distances overflow float64"]

"""Command-line surface: envelopes, exit codes, and input plumbing."""

import json
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import chainscope
from chainscope import (
    FIXTURE_NAMES,
    ToleranceSchedule,
    chain_discreteness,
    cli,
    covering_profile,
    extract_bqc_subsequence,
    make_fixture,
)
from chainscope.errors import Exhausted
from chainscope.fixtures import FIXTURE_BYTES, REPORT_BYTES, SCALE_ROW_BYTES
from chainscope.metric import load_matrix_csv, load_points_jsonl
from chainscope.moduli import ModulusReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


ENVELOPE_KEYS = {"command", "inputs", "results", "timing_ms", "version"}
SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "schema.md"


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
    assert err == ("error: one of the arguments --matrix --points --fixture"
                   " is required\n")


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


def test_chains_witness_across_components_is_null(capsys):
    code, report = run_cli(
        capsys, "chains", "--fixture", "grid-interval", "--param", "count=11",
        "--eps", "0.05", "0.15", "--witness", "g0", "g5",
    )
    assert code == 0
    apart, joined = report["results"]["scales"]
    assert apart["components"] == 11 and apart["witness"] is None
    assert joined["witness"]["hops"] == 5


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


def test_seq_splice_keeps_a_stage_past_the_prefix_vacuous(capsys):
    # stage 1 starts past the 3-position prefix; its shifted start moves
    # by the whole insertion and stays past the spliced prefix
    code, report = run_cli(
        capsys, "seq", "--fixture", "grid-interval", "--param", "count=5",
        "--prefix", "[0, 4, 1]", "--schedule", "[[0.3, 0], [0.1, 10]]",
        "--splice",
    )
    assert code == 0
    splice = report["results"]["splice"]
    assert splice["embedding"] == [0, 4, 7]
    assert splice["schedule"] == [[0.3, 0], [0.1, 15]]
    assert splice["consistent"] is True


def test_seq_splice_failure_names_the_points(capsys):
    # the gap at prefix positions (0, 1) joins the points 0 and 49
    code, err = run_cli_error(
        capsys, "seq", "--fixture", "harmonic-sums", "--n", "50",
        "--prefix", "[0, 49, 1]", "--schedule", "[[0.3, 0]]", "--splice",
    )
    assert code == 2
    assert err == ["error: no chain at scale 0.3 (stage 0) between points "
                   "(0, 49)"]


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


def test_approx_function_object_names_its_values(capsys):
    argv = ["approx", "--fixture", "grid-interval", "--param", "count=5",
            "--eps", "0.3"]
    values = [0.0, 0.1, 0.5, 0.9, 1.3]
    code, plain = run_cli(capsys, *argv, "--function", json.dumps(values))
    assert code == 0
    code, named = run_cli(capsys, *argv, "--function",
                          json.dumps({"values": values, "name": "ramp"}))
    assert code == 0
    assert named["results"] == plain["results"]


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


def test_approx_bounds_past_float64_exit_zero(tmp_path, capsys):
    # delta = 1e-300, so delta^2 underflows and the h bound is +inf
    path = tmp_path / "tiny.csv"
    path.write_text("0,1e-300\n1e-300,0\n")
    code = cli.main([
        "approx", "--matrix", str(path), "--function", "[0, 1]",
        "--eps", "0.1", "--bounds-prefix", "[0,1]", "--schedule", "[[0.5, 0]]",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    bounds = json.loads(captured.out)["results"]["bounds"]
    assert bounds["h_bound_ok"]
    assert bounds["delta"] == 1e-300
    assert bounds["h_margin"] == "inf"


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


def test_approx_with_two_windows_a_point_fits_under_512_mib(tmp_path):
    # f(i) = 10i + 0.5 at eps 1 puts each of 5000 points alone in two
    # windows; the decomposition keeps two window slots a point, not a
    # windows x n array, so the call runs under a 512 MiB address-space
    # cap set in the child alone
    pts = np.random.default_rng(27).random((5000, 2))
    points, function = tmp_path / "cloud.jsonl", tmp_path / "steep.json"
    rows = [{"id": i, "coords": {"0": x, "1": y}}
            for i, (x, y) in enumerate(pts.tolist())]
    points.write_text("\n".join(
        json.dumps(r) for r in [{"provider": "euclidean(2)"}, *rows]))
    values = [10.0 * i + 0.5 for i in range(5000)]
    function.write_text(json.dumps(values))
    cap = 512 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "chainscope.cli", "approx", "--points",
         str(points), "--function", str(function), "--eps", "1"],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr[-400:]
    got = json.loads(proc.stdout)["results"]["decomposition"]
    space = load_points_jsonl(points)
    want = chainscope.approximate(chainscope.ScalarFunction(space, values), 1)
    assert len(got["levels"]) == 10_000
    assert {int(n): m for n, m in got["levels"].items()} == want.levels
    assert got["g"] == want.g.values.tolist()
    assert got["h"] == want.h.values.tolist()


def test_report_key_sets_match_schema(monkeypatch, capsys):
    """Each block has exactly the keys docs/schema.md lists for it."""
    harmonic = ["--fixture", "harmonic-sums", "--n", "200"]
    stages = "[[0.6, 0], [0.1, 12]]"
    verdict = {"status", "kind", "schedule"}
    witness = {"stage", "index", "partner", "gap"}

    def results(*argv):
        code, report = run_cli(capsys, *argv)
        assert code == 0
        return report["results"]

    seq = results("seq", *harmonic, "--schedule", stages, "--test", "qc",
                  "--splice", "--extract")
    assert set(seq) == {"length", "schedule", "verdict", "splice", "extract"}
    assert set(seq["verdict"]) == verdict
    assert set(seq["splice"]) == {"indices", "embedding", "schedule",
                                  "consistent"}
    assert set(seq["extract"]) == {"positions", "stages"}
    for record in seq["extract"]["stages"]:
        assert set(record) == {"stage", "eps", "survivors",
                               "component_floor", "census"}
    falsified = results("seq", *harmonic, "--schedule", stages,
                        "--test", "cauchy")["verdict"]
    assert falsified["status"] == "falsified"
    assert set(falsified) == verdict | {"witness"}
    assert set(falsified["witness"]) == witness

    bqc = ["seq", "--fixture", "scaled-unit-vectors", "--test", "bqc"]
    held = results(*bqc, "--eps", "0.07")
    assert set(held) == {"length", "verdict"}
    assert held["verdict"]["status"] == "consistent"
    assert set(held["verdict"]) == {"status", "eps", "n0", "center"}
    broken = results(*bqc, "--eps", "0.01")["verdict"]
    assert broken["status"] == "falsified"
    assert set(broken) == {"status", "eps"}

    approx = results("approx", *harmonic, "--canonical", "--eps", "0.1",
                     "--bounds-prefix", json.dumps(list(range(16))),
                     "--schedule", "[[0.15, 5]]")
    assert set(approx) == {"decomposition", "bounds"}
    assert set(approx["decomposition"]) == {"eps", "levels", "g", "h",
                                            "sup_error"}
    assert set(approx["bounds"]) == {
        "eps", "delta", "n0", "pairs_checked", "g_bound_ok", "h_bound_ok",
        "g_margin", "h_margin", "g_sharp", "h_sharp", "violations",
    }

    suite = cli.implication_suite
    monkeypatch.setattr(cli, "implication_suite", lambda **kw: suite(
        overrides={"components": lambda space, eps: [list(range(space.n))]},
        **kw,
    ))
    code, report = run_cli(capsys, "verify", "--all", "--trials", "3")
    assert code == 1
    implications = report["results"]["implications"]
    assert set(implications) == {"trials", "seed", "checked", "failures",
                                 "ok"}
    assert implications["ok"] is False
    assert set(implications["failures"][0]) == {"check", "trial", "detail",
                                                "shrunk"}


def test_seq_extract_reports_exhaustion_as_data(capsys):
    # survivors run out at stage 1 with one position emitted: exit 0, the
    # emitted positions, every stage record reached and the stage that
    # ran out, as the library's Exhausted carries them
    schedule = "[[0.6, 0], [0.3, 5], [0.1, 12]]"
    code, report = run_cli(
        capsys, "seq", "--fixture", "harmonic-sums", "--n", "200",
        "--schedule", schedule, "--test", "qc", "--extract", "--rule", "first",
    )
    assert code == 0
    extract = report["results"]["extract"]
    assert set(extract) == {"positions", "stages", "exhausted_at"}
    fx = make_fixture("harmonic-sums", n=200)
    with pytest.raises(Exhausted) as err:
        extract_bqc_subsequence(fx.prefix, fx.space,
                                ToleranceSchedule(json.loads(schedule)),
                                "first")
    assert extract["exhausted_at"] == err.value.stage == 1
    assert extract["positions"] == list(err.value.positions) == [0]
    assert [r["survivors"] for r in extract["stages"]] == [
        list(r.survivors) for r in err.value.components]
    for record in extract["stages"]:
        assert set(record) == {"stage", "eps", "survivors",
                               "component_floor", "census"}


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
    assert len(results["claims"]) == 31
    assert all(row["passed"] for row in results["claims"])
    assert results["implications"]["ok"] is True


def test_verify_fixture_rows_equal_its_rows_under_all(capsys):
    code, report = run_cli(capsys, "verify", "--all", "--trials", "1")
    assert code == 0
    every = report["results"]["claims"]
    for name in FIXTURE_NAMES:
        code, report = run_cli(capsys, "verify", "--fixture", name)
        assert code == 0
        mine = [row for row in every
                if row["fixture"].partition("[")[0] == name]
        assert mine
        assert report["results"]["claims"] == mine


def test_inputs_hold_exactly_the_given_options(capsys):
    """inputs is what was given, as in docs/schema.md's envelope example;
    an option left out takes the library's default and is not echoed."""
    block = re.search(r"```json\n(.*?)```", SCHEMA.read_text(), re.S)
    example = json.loads(block.group(1))
    inputs = example["inputs"]
    code, report = run_cli(
        capsys, example["command"], "--fixture", inputs["fixture"],
        "--n", str(inputs["n"]), "--eps", *inputs["eps"],
    )
    assert code == 0
    assert report["inputs"] == inputs
    code, report = run_cli(capsys, "seq", *HARMONIC, "--pretty")
    assert report["inputs"] == {"fixture": "harmonic-sums", "n": 20}
    assert report["results"]["verdict"]["kind"] == "quasi-cauchy"
    code, report = run_cli(capsys, "verify", "--fixture", "grid-interval")
    assert report["inputs"] == {"fixture": "grid-interval"}
    # a flag given is true; flags not given are left out
    code, report = run_cli(capsys, "chains", *SEGMENT, "--eps", "0.5",
                           "--profile")
    assert report["inputs"] == {
        "eps": ["0.5"], "fixture": "segment-chain", "n": 4, "profile": True,
        "subdiv": 1,
    }
    code, report = run_cli(capsys, "chains", *SEGMENT, "--eps", "0.5",
                           "--discreteness", "--mode", "in-itself")
    assert report["inputs"]["mode"] == "in-itself"
    assert report["results"]["discreteness"]["mode"] == "in-itself"


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
    monkeypatch.setenv("CHAINSCOPE_SEED", "abc")
    code, err = run_cli_error(capsys, "verify", "--fixture", "grid-interval")
    assert code == 2
    assert err == ["error: CHAINSCOPE_SEED wants an integer, got 'abc'"]


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
        ('{"id": 1.5, "coords": {"0": 1.0}}', "point id 1.5 is not an integer"),
        ('{"id": true, "coords": {"0": 1.0}}', "point id True is not an integer"),
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


def test_repeated_label_exits_two(tmp_path, capsys):
    # a label must name one point: --witness a would otherwise read the
    # last point labelled a
    path = tmp_path / "dup.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in [
        {"provider": "euclidean(1)"},
        {"id": 0, "coords": {"0": 0.0}, "label": "a"},
        {"id": 1, "coords": {"0": 1.0}, "label": "a"},
    ]) + "\n")
    code, err = run_cli_error(capsys, "chains", "--points", str(path),
                              "--eps", "2", "--witness", "a", "0")
    assert code == 2
    assert err == ["error: label 'a' names points 0 and 1"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "is empty"),
        ("{bad\n", "bad JSONL header: "),
        ('{"provider": "euclidean(1)"}\n', "a header but no points"),
        ('{"provider": "explicit-matrix"}\n{"id": 0, "coords": {"0": 1}}\n',
         "explicit-matrix cannot be loaded from JSONL"),
    ],
)
def test_malformed_jsonl_file_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "pts.jsonl"
    path.write_text(text)
    code, err = run_cli_error(capsys, "space", "--points", str(path))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--schedule", "[[0.6, true]]",
         "error: schedule stage [0.6, True] is not an [eps, n] pair"),
        ("--prefix", "[true, false, true]",
         "error: --prefix: True is neither a point index nor a label"),
    ],
)
def test_booleans_are_not_integers(capsys, flag, value, message):
    code, err = run_cli_error(capsys, "seq", *HARMONIC, flag, value)
    assert code == 2
    assert err == [message]


def test_prefix_numbers_equal_to_integers_are_indices(capsys):
    argv = ["seq", *HARMONIC, "--schedule", "[[0.6, 0]]"]
    code, by_float = run_cli(capsys, *argv, "--prefix", "[2.0, 3]")
    assert code == 0
    code, by_int = run_cli(capsys, *argv, "--prefix", "[2, 3]")
    assert by_float["results"] == by_int["results"]
    assert by_float["results"]["length"] == 2


@pytest.mark.parametrize(
    "value, message",
    [
        ('["nowhere"]', "'nowhere' is neither a point index nor a label"),
        ("[1.5]", "1.5 is neither a point index nor a label"),
        ("[0, 20]", "index 20 outside [0, 20)"),
    ],
)
def test_prefix_token_that_names_no_point_exits_two(capsys, value, message):
    code, err = run_cli_error(capsys, "seq", *HARMONIC, "--prefix", value)
    assert code == 2
    assert err == [f"error: --prefix: {message}"]


@pytest.mark.parametrize("flag", ["--prefix", "--bounds-prefix", "--subset"])
def test_point_list_that_is_no_list_exits_two(tmp_path, capsys, flag):
    path = tmp_path / "f.json"
    path.write_text("5")
    argv = {
        "--prefix": ["seq", *HARMONIC],
        "--bounds-prefix": ["approx", *HARMONIC, "--canonical", "--eps",
                            "0.1"],
        "--subset": ["chains", *SEGMENT, "--eps", "0.5", "--discreteness"],
    }[flag]
    code, err = run_cli_error(capsys, *argv, flag, str(path))
    assert code == 2
    assert err == [
        f"error: {flag}: not a JSON list of point indices or labels: 5"
    ]


def test_another_variants_param_exits_two(capsys):
    code, err = run_cli_error(
        capsys, "space", "--fixture", "scaled-unit-vectors", "--param", "k=abc"
    )
    assert code == 2
    assert err == [
        "error: scaled-unit-vectors[rays] does not take parameter 'k'"
    ]


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


@pytest.mark.parametrize("argv, message", [
    (["--eps", "abc"], "--eps wants a number, got 'abc'"),
    (["--eps-geom", "x", "0.8", "3"], "--eps-geom START wants a number, got 'x'"),
    (["--eps-geom", "0.3", "0.8", "2.5"],
     "--eps-geom COUNT wants an integer, got '2.5'"),
    (["--eps-geom", "0.3", "1e200", "3"],
     "--eps-geom scales overflow float64 within 3 steps"),
    (["--eps", "0.5", "--ball", "e1", "abc"],
     "--ball M wants an integer, got 'abc'"),
    (["--eps", "0.5", "--ball", "e1", "-2"], "hop count must be >= 1, got -2"),
    (["--eps", "0.5", "--ball", "99", "2"],
     "--ball X: index 99 outside [0, 15)"),
    (["--eps", "0.5", "--ball", "1.5", "2"],
     "--ball X: '1.5' is neither a point index nor a label"),
    (["--eps", "0.5", "--witness", "e1", "nowhere"],
     "--witness: 'nowhere' is neither a point index nor a label"),
    (["--eps", "0.5", "--witness", "99", "0"],
     "--witness: index 99 outside [0, 15)"),
])
def test_bad_chains_literal_names_the_rule(capsys, argv, message):
    code, err = run_cli_error(
        capsys, "chains", "--fixture", "segment-chain", "--n", "4",
        "--subdiv", "1", *argv,
    )
    assert code == 2
    assert err == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["chains", "--eps", "abc"], "--eps wants a number, got 'abc'"),
    (["chains", "--eps", "0"], "eps must be a positive finite number, got 0.0"),
    (["chains", "--eps-geom", "0.3", "0.8", "2.5"],
     "--eps-geom COUNT wants an integer, got '2.5'"),
    (["chains", "--eps", "0.5", "--ball", "0", "x"],
     "--ball M wants an integer, got 'x'"),
    (["seq", "--test", "bqc"], "--test bqc needs --eps"),
])
def test_numbers_are_read_before_the_space_loads(capsys, argv, message):
    # the matrix file does not exist: a number is refused before any load
    code, err = run_cli_error(capsys, *argv, "--matrix", "no-such-file.csv")
    assert code == 2
    assert err == [f"error: {message}"]


def test_eps_geom_stops_at_its_first_zero_scale(capsys):
    # 0.5 ** i reaches 0 after about 1075 steps: the scales past it are
    # never made, so the peak does not grow with COUNT
    argv = ["chains", "--fixture", "grid-interval", "--param", "count=5",
            "--eps-geom", "0.5", "0.5", "1000000"]
    tracemalloc.start()
    try:
        code, err = run_cli_error(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == ["error: eps must be a positive finite number, got 0.0"]
    assert peak < 4 * 2**20, peak


def test_eps_geom_count_over_the_report_budget_is_refused():
    # at ratio 1 no scale reaches 0, so each of 3e6 scales would make a
    # graph and a row; the COUNT is refused before any, in a child whose
    # 512 MiB address-space cap ends it if the refusal is missing
    cap = 512 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "chainscope.cli", "chains", "--fixture",
         "grid-interval", "--param", "count=5", "--eps-geom", "0.5", "1",
         "3000000"],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    size = 3000000 * SCALE_ROW_BYTES
    assert size > REPORT_BYTES
    assert proc.stderr.splitlines() == [
        "error: --eps-geom COUNT 3.00e+6 needs about 1.54e+9 bytes of report "
        f"rows, over the {REPORT_BYTES}-byte report budget"
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
    # the triangle tolerance lets zero distances join 0 and 2, which sit
    # 1e-13 apart: no zero-weight tree edge carries that distance
    ["0,0,1e-13", "0,0,0", "1e-13,0,0"],
])
def test_space_report_on_explicit_matrix(tmp_path, capsys, rows):
    path = tmp_path / "m.csv"
    path.write_text("\n".join(rows) + "\n")
    assert_space_report_matches_rows(capsys, "--matrix", path,
                                     load_matrix_csv(path))


def test_space_report_when_zero_distances_do_not_chain(tmp_path, capsys):
    # neighbours 1e-162 apart square to 0, the ends 2e-162 apart do not
    path = tmp_path / "line.jsonl"
    path.write_text("\n".join(
        [json.dumps({"provider": "euclidean(1)"})]
        + [json.dumps({"id": i, "coords": {"0": x}})
           for i, x in enumerate([0.0, 1e-162, 2e-162])]
    ) + "\n")
    space = load_points_jsonl(path)
    assert space.min_positive_distance() == space.diameter() > 0
    assert_space_report_matches_rows(capsys, "--points", path, space)


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


# Runs in a fresh interpreter that refuses to import scipy: the library,
# the four analysis commands, the harness oracles and verify --all all run
# on numpy alone, and none of them even asks for scipy.
SCIPY_GUARD = r"""
import contextlib, io, json, sys

asked = []


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            asked.append(name)
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())

import chainscope
import chainscope.cli

out = {"codes": []}
readme = ["--fixture", "segment-chain", "--n", "12", "--subdiv", "4"]
for argv in (
    ["space", "--matrix", sys.argv[1]],
    ["chains", "--matrix", sys.argv[1], "--eps-geom", "2", "0.5", "3",
     "--profile", "--witness", "0", "3", "--ball", "1", "2"],
    ["chains", *readme, "--eps", "0.3", "0.126", "--witness", "e1", "e13",
     "--profile", "--discreteness"],
    ["seq", "--fixture", "harmonic-sums", "--n", "200", "--schedule",
     "[[0.6, 0], [0.1, 12]]", "--splice", "--extract"],
    ["approx", "--fixture", "harmonic-sums", "--n", "200", "--canonical",
     "--eps", "0.1", "--bounds-prefix", "[0,1,2,3,4,5,6,7,8,9,10,11,12,13]",
     "--schedule", "[[0.15, 5]]"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(chainscope.cli.main(argv))

space = chainscope.random_space("repaired-matrix", 7, seed=5, density=0.4)
out["matrix_sum"] = float(space.distance_matrix().sum())
out["threshold"] = chainscope.chainability_threshold(space)
cloud = chainscope.random_space("euclidean-cloud", 30, seed=2, dim=2)
out["cloud_threshold"] = chainscope.chainability_threshold(cloud)
report = io.StringIO()
with contextlib.redirect_stdout(report):
    out["verify_code"] = chainscope.cli.main(["verify", "--all", "--trials", "3"])
out["verify"] = json.loads(report.getvalue())["results"]
out["asked"] = asked
out["loaded"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(out))
"""


def test_library_cli_and_oracles_run_with_scipy_blocked(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * 5
    # the values these oracles gave while they called scipy's routines
    assert out["matrix_sum"] == 48.15471135986073
    assert out["threshold"] == 0.8197846543182863
    assert out["cloud_threshold"] == 0.2585824345882665
    assert out["verify_code"] == 0
    assert out["verify"]["failed"] == 0
    assert len(out["verify"]["claims"]) == 31
    assert out["verify"]["implications"]["ok"] is True
    assert out["asked"] == [] and out["loaded"] == []


# --------------------------------------------- malformed input, exit 2 only

SEGMENT = ["--fixture", "segment-chain", "--n", "4", "--subdiv", "1"]
HARMONIC = ["--fixture", "harmonic-sums", "--n", "20"]

# text that no int() or float() accepts and argparse never takes for a flag
junk = st.text(alphabet="abxyz. ", max_size=4)
non_integral = st.floats(min_value=0, allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer()
)
not_an_integer = st.one_of(
    junk, non_integral.map(repr), st.sampled_from(["1e9", "1e999", "inf", "nan"])
)
not_a_count = st.one_of(not_an_integer, st.integers(-9, 0).map(str))


def _literal_cases():
    """argv lists whose literal arguments break a rule."""
    bad_eps = st.one_of(
        junk, st.sampled_from(["nan", "inf", "0"]), st.integers(-9, -1).map(str)
    )
    good = st.sampled_from(["0.5", "2"])
    stage = st.one_of(
        st.floats(0.01, 1).map(lambda e: [e]),
        st.tuples(st.floats(0.01, 1), non_integral).map(list),
        st.tuples(st.floats(0.01, 1), junk).map(list),
        st.tuples(st.floats(max_value=0, allow_infinity=False),
                  st.integers(0, 5)).map(list),
        st.tuples(st.floats(0.01, 1), st.integers(max_value=-1)).map(list),
    )
    schedule = st.one_of(
        st.sampled_from(["[]", "{}", "[[0.5, 0], [0.6, 3]]", "[[0.5, 0]"]),
        st.lists(stage, min_size=1, max_size=3).map(json.dumps),
    )
    bad_token = st.one_of(
        st.integers(20, 10**30), st.integers(max_value=-1), non_integral, junk,
        st.none(),
    )
    # a point token on the command line that names none of SEGMENT's 15
    bad_point = st.one_of(
        st.integers(15, 10**30).map(str), st.integers(max_value=-1).map(str),
        non_integral.map(repr), junk,
    )
    prefix = st.tuples(st.lists(st.integers(0, 19), max_size=3),
                       bad_token).map(lambda t: json.dumps([*t[0], t[1]]))
    # --param values parse as int, then float, so "1e9" is an integral size;
    # a size past the fixture budget is refused before anything is built
    oversized = st.one_of(
        st.integers(FIXTURE_BYTES // 8 + 1, 10**30).map(str),
        st.sampled_from(["1e9", "1e12", "1e300"]),
    )
    param = st.one_of(
        st.one_of(junk, non_integral.map(repr), st.sampled_from(["inf", "nan"]),
                  oversized).map(lambda v: f"n={v}"),
        st.integers(-9, 1).map(lambda v: f"n={v}"),
        junk.filter(lambda s: "=" not in s),
        st.sampled_from(["m=3", "n="]),
    )
    return st.one_of(
        bad_eps.map(lambda e: ["chains", *SEGMENT, "--eps", e]),
        st.tuples(good, good, not_a_count).map(
            lambda t: ["chains", *SEGMENT, "--eps-geom", *t]),
        st.tuples(st.one_of(junk, st.just("0.5")), junk).map(
            lambda t: ["chains", *SEGMENT, "--eps-geom", *t, "3"]),
        not_a_count.map(
            lambda m: ["chains", *SEGMENT, "--eps", "0.5", "--ball", "e1", m]),
        bad_point.map(
            lambda x: ["chains", *SEGMENT, "--eps", "0.5", "--ball", x, "2"]),
        st.tuples(st.sampled_from(["e1", "3"]), bad_point)
        .flatmap(st.permutations).map(
            lambda xy: ["chains", *SEGMENT, "--eps", "0.5", "--witness", *xy]),
        schedule.map(lambda s: ["seq", *HARMONIC, "--schedule", s]),
        prefix.map(lambda p: ["approx", *HARMONIC, "--canonical", "--eps",
                              "0.1", "--bounds-prefix", p]),
        param.map(lambda p: ["space", "--fixture", "harmonic-sums",
                             "--param", p]),
        # argparse's own int options
        st.tuples(st.sampled_from([["space", "--fixture", "harmonic-sums",
                                    "--n"], ["verify", "--all", "--trials"]]),
                  not_an_integer).map(lambda t: [*t[0], t[1]]),
    )


def _point_list_cases():
    """argv and file text for a point-list flag that names no list of
    points: a value that is no list, an object, nested lists, booleans,
    or an unknown label among valid indices."""
    flags = st.sampled_from([
        ["seq", *HARMONIC, "--prefix"],
        ["approx", *HARMONIC, "--canonical", "--eps", "0.1",
         "--bounds-prefix"],
        ["chains", *SEGMENT, "--eps", "0.5", "--discreteness", "--subset"],
    ])
    token = st.integers(0, 14)  # a point of both spaces
    value = st.one_of(
        st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(),
                  st.none(), junk),
        st.dictionaries(junk, token, max_size=2),
        st.lists(st.lists(token, max_size=2), min_size=1, max_size=2),
        st.lists(st.booleans(), min_size=1, max_size=3),
        st.lists(token, max_size=2, unique=True).map(
            lambda ts: [*ts, "no-such-label"]),
    )
    return st.tuples(flags, value).map(
        lambda t: ([*t[0], "{file}"], json.dumps(t[1])))


@st.composite
def _matrix_files(draw):
    """A line metric's distance CSV with one defect."""
    xs = draw(st.lists(st.integers(0, 9), min_size=3, max_size=5))
    rows = [[abs(a - b) for b in xs] for a in xs]
    n = len(xs)
    i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda t: t[0] != t[1]))
    defect = draw(st.sampled_from(
        ["cell", "ragged", "short", "asymmetric", "diagonal", "negative",
         "non-finite", "triangle", "empty"]))
    if defect == "cell":
        rows[i][j] = draw(junk.filter(lambda s: s.strip()))
    elif defect == "ragged":
        rows[i] = rows[i][:-1]
    elif defect == "short":
        rows = rows[:-1]
    elif defect == "asymmetric":
        rows[i][j] += 1
    elif defect == "diagonal":
        rows[i][i] = 1
    elif defect == "negative":
        rows[i][j] = rows[j][i] = -1
    elif defect == "non-finite":
        rows[i][j] = rows[j][i] = draw(st.sampled_from(["nan", "inf"]))
    elif defect == "triangle":
        rows = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    else:
        rows = []
    return "".join(",".join(map(str, r)) + "\n" for r in rows)


@st.composite
def _jsonl_files(draw):
    """A points file with one malformed header or point line."""
    provider = draw(st.sampled_from(["euclidean(2)", "sup-norm-sparse"]))
    points = [{"id": 0, "coords": {"0": 1.0}}, {"id": 1, "coords": {"1": 2.0}}]
    header = {"provider": provider}
    k = draw(st.integers(0, 1))
    defect = draw(st.sampled_from(
        ["id", "coords", "index", "value", "range", "missing", "duplicate",
         "json", "header", "empty"]))
    if defect == "id":
        points[k]["id"] = draw(st.one_of(non_integral, junk, st.none(),
                                         st.just([1])))
    elif defect == "coords":
        points[k]["coords"] = draw(st.one_of(st.just([1.0]), junk, st.none()))
    elif defect == "index":
        points[k]["coords"] = {draw(junk.filter(lambda s: s.strip())): 1.0}
    elif defect == "value":
        points[k]["coords"] = {"0": draw(st.one_of(junk, st.just([1])))}
    elif defect == "range":
        provider = header["provider"] = "euclidean(2)"
        points[k]["coords"] = {str(draw(st.integers(2, 99))): 1.0}
    elif defect == "missing":
        del points[k][draw(st.sampled_from(["id", "coords"]))]
    elif defect == "duplicate":
        points[1]["id"] = 0
    elif defect == "header":
        header = draw(st.sampled_from([
            {"provider": "euclidean"}, {"provider": "euclidean", "param": 0},
            {"provider": "p-norm-sparse", "param": 0.5}, {"provider": "nope"},
            {"param": 2}, {"provider": "explicit-matrix"},
        ]))
    lines = [json.dumps(header)] + [json.dumps(p) for p in points]
    if defect == "json":
        lines[1 + k] = lines[1 + k][:-1]
    elif defect == "empty":
        lines = lines[:1]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    _literal_cases().map(lambda argv: (argv, None)),
    _point_list_cases(),
    _matrix_files().map(lambda text: (["space", "--matrix", "{file}"], text)),
    _jsonl_files().map(lambda text: (["chains", "--points", "{file}",
                                      "--eps", "1"], text)),
))
@example((["chains", *SEGMENT, "--eps", "abc"], None))
@example((["chains", *SEGMENT, "--eps-geom", "0.3", "0.8", "1.5"], None))
@example((["chains", *SEGMENT, "--eps-geom", "0.3", "1e200", "3"], None))
@example((["chains", *SEGMENT, "--eps", "0.5", "--ball", "e1", "abc"], None))
@example((["chains", *SEGMENT, "--eps", "0.5", "--ball", "e1", "-2"], None))
@example((["chains", *SEGMENT, "--eps", "0.5", "--ball", "-1", "2"], None))
@example((["chains", *SEGMENT, "--eps", "0.5", "--witness", "e1", "15"], None))
@example((["seq", *HARMONIC, "--schedule", "[[0.5, 1.5]]"], None))
@example((["space", "--fixture", "harmonic-sums", "--param", "n=inf"], None))
@example((["space", "--fixture", "harmonic-sums", "--param", "n=1e9"], None))
@example((["space", "--fixture", "scaled-unit-vectors",
           "--param", "r_step=1e-300"], None))
@example((["space", "--fixture", "scaled-unit-vectors",
           "--param", "r_step=5e-324"], None))  # 1 / r_step overflows
@example((["space", "--matrix", "{file}"], ""))
@example((["seq", *HARMONIC, "--test", "bqc", "--eps", "abc"], None))
@example((["seq", "--fixture", "harmonic-sums", "--n", "abc"], None))
@example((["seq", "--fixture", "harmonic-sums", "--n", "2.5"], None))
@example((["verify", "--all", "--trials", "x"], None))
@example((["space", *HARMONIC, "--bogus"], None))
@example((["approx", *HARMONIC, "--canonical"], None))
@example((["space", "--fixture", "nope"], None))
@example((["chains", *SEGMENT, "--eps", "0.5", "--mode", "sideways"], None))
@example((["space", "--points", "{file}"],
          '{"provider": "euclidean(1)"}\n{"id": 1.5, "coords": {"0": 1}}\n'))
@example((["seq", *HARMONIC, "--schedule", "[[true, 0]]"], None))
@example((["approx", "--matrix", "{file}", "--function", "[true, false]",
           "--eps", "0.1"], "0,1\n1,0\n"))
@example((["space", "--points", "{file}"],
          '{"provider": "euclidean(1)"}\n{"id": 0, "coords": {"0": true}}\n'
          '{"id": 1, "coords": {"0": 2}}\n'))
@example((["space", "--fixture", "scaled-unit-vectors", "--variant", "towers",
           "--param", "n=20", "--param", "k=300"], None))  # 20**300 > 1e308
@example((["approx", "--matrix", "{file}", "--function", "[1e308, 0]",
           "--eps", "0.1"], "0,1\n1,0\n"))  # f / eps overflows
@example((["approx", "--matrix", "{file}", "--function", "[1e20, 0]",
           "--eps", "0.1"], "0,1\n1,0\n"))  # f / eps past float64 windows
@example((["verify", "--all", "--trials", "1", "--seed", "-1"], None))
def test_malformed_input_exits_two_with_one_error_line(tmp_path, capsys, case):
    argv, text = case
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = [str(path) if a == "{file}" else a for a in argv]
    # a warning would print lines of its own on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_cli_error(capsys, *argv)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert [str(w.message) for w in caught] == []


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["seq", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: chainscope seq")


@pytest.mark.parametrize("argv, message", [
    # the parser's own message, without its usage block
    (["seq", "--fixture", "harmonic-sums", "--n", "abc"],
     "argument --n: invalid int value: 'abc'"),
    # an option the chosen path would ignore
    (["seq", *HARMONIC, "--test", "bqc", "--eps", "0.1", "--schedule",
      "[[0.5, 0]]"], "--schedule does not apply to --test bqc"),
    (["seq", *HARMONIC, "--test", "bqc", "--eps", "0.1", "--splice"],
     "--splice does not apply to --test bqc"),
    (["seq", *HARMONIC, "--test", "bqc", "--eps", "0.1", "--extract"],
     "--extract does not apply to --test bqc"),
    (["seq", *HARMONIC, "--eps", "0.1"], "--eps applies only to --test bqc"),
    (["seq", *HARMONIC, "--test", "cauchy", "--eps", "0"],
     "--eps applies only to --test bqc"),
    (["chains", *SEGMENT, "--eps", "0.5", "--subset", "[0, 1]"],
     "--subset applies only with --discreteness"),
    (["approx", *HARMONIC, "--canonical", "--eps", "0.1", "--schedule",
      "[[0.15, 5]]"], "--schedule applies only with --bounds-prefix"),
    (["seq", *HARMONIC, "--rule", "first"],
     "--rule applies only with --extract"),
    (["chains", *HARMONIC, "--eps", "0.5", "--mode", "in-itself"],
     "--mode applies only with --discreteness"),
    (["verify", "--fixture", "grid-interval", "--trials", "5"],
     "--trials applies only with --all"),
    # the fixture knobs apply to a fixture alone, each key once; the
    # refusal comes before the file is read
    (["space", "--matrix", "missing.csv", "--n", "5", "--param", "k=3"],
     "--n applies only with --fixture"),
    (["space", "--points", "missing.jsonl", "--subdiv", "2"],
     "--subdiv applies only with --fixture"),
    (["chains", "--matrix", "missing.csv", "--eps", "1", "--variant", "ramp"],
     "--variant applies only with --fixture"),
    (["seq", "--points", "missing.jsonl", "--param", "n=3"],
     "--param applies only with --fixture"),
    (["space", "--fixture", "harmonic-sums", "--n", "30", "--param", "n=20"],
     "fixture parameter 'n' given twice"),
    (["space", "--fixture", "harmonic-sums", "--param", "n=20",
      "--param", "n=30"], "fixture parameter 'n' given twice"),
    (["space", "--fixture", "tent-family", "--variant", "ramp",
      "--param", "variant=interp"], "fixture parameter 'variant' given twice"),
    # exactly one of each group, in the parser's own words
    (["space", "--matrix", "missing.csv", "--fixture", "harmonic-sums"],
     "argument --fixture: not allowed with argument --matrix"),
    (["chains", *SEGMENT, "--eps", "0.5", "--eps-geom", "0.3", "0.8", "3"],
     "argument --eps-geom: not allowed with argument --eps"),
    (["chains", *SEGMENT], "one of the arguments --eps --eps-geom is required"),
    (["approx", *HARMONIC, "--eps", "0.1"],
     "one of the arguments --function --canonical is required"),
    (["approx", *HARMONIC, "--eps", "0.1", "--canonical", "--function", "[0]"],
     "argument --function: not allowed with argument --canonical"),
    # inputs the chosen path reads and refuses
    (["approx", *HARMONIC, "--eps", "0.1", "--function", '{"values": "x"}'],
     "function values must be numbers"),
    (["approx", *HARMONIC, "--eps", "0.1", "--function", "[0, 1]"],
     "function has (2,) values for 20 points"),
    (["seq", "--fixture", "slow-spike-grid"],
     "no --prefix given and the space has no canonical ordering"),
    # an integer past float64 is no function value, and no traceback
    (["approx", *HARMONIC, "--eps", "0.1", "--function", f"[1{'0' * 400}]"],
     "function values must be numbers"),
])
def test_usage_error_names_the_option(capsys, argv, message):
    code, err = run_cli_error(capsys, *argv)
    assert code == 2
    assert err == [f"error: {message}"]

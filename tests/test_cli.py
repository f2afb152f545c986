"""Command-line behavior: outputs, exit codes, determinism."""

import json
from pathlib import Path

from sphere_census.cli import main
from sphere_census.winding import circle, dump_curve_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_csv_to_stdout(capsys):
    code, out, err = run(capsys, "census", "--map", "power:d=2", "--n-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,rate,bound_dn,theorem3_sum"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["3", "5", "9", "17"]


def test_census_writes_file(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "--map", "power:d=2", "--n-max", "2",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("n,count,rate")


def test_degree_json(capsys):
    code, out, _ = run(capsys, "degree", "--map", "power:d=3")
    assert code == 0
    payload = json.loads(out)
    assert payload["global"] == 3
    assert len(payload["witnesses"]) == 3
    assert sum(w["local_degree"] for w in payload["witnesses"]) == 3


def test_degree_with_explicit_value(capsys):
    code, out, _ = run(capsys, "degree", "--map", "power:d=2", "--value", "1,0")
    payload = json.loads(out)
    assert code == 0 and payload["global"] == 2


def test_index_subcommand(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text(dump_curve_csv(circle(0j, 2.0, 64)))
    code, out, _ = run(capsys, "index", "--map", "power:d=2", "--curve", str(path))
    assert code == 0
    assert json.loads(out)["index"] == 2


def test_annuli_json(capsys):
    code, out, _ = run(capsys, "annuli", "--map", "product:q=affine(2,0);d=2")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{
        "lower_s": "-inf", "upper_s": "inf", "delta": 2, "d_i": 2,
        "repelling": True, "theorem3_bound": 1,
    }]


def test_strip_index_lines(capsys):
    code, out, _ = run(capsys, "strip-index", "--map", "product:q=affine(2,0);d=3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["k"] for r in rows] == [0, 1]
    assert all(r["index"] == 1 for r in rows)
    assert all(r["m_used"] >= 1 for r in rows)


def test_check_h_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "check-h", "--map", "power:d=2")
    assert code == 0
    assert json.loads(out)["status"] == "pass"

    witness_path = tmp_path / "witness.csv"
    code, out, _ = run(capsys, "check-h", "--map", "quad:c=0.1+0.0i",
                       "--witness-out", str(witness_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["witness_image_winding"] != 0
    assert witness_path.read_text().startswith("# chart=north")


def test_parse_error_exits_2(capsys):
    for argv in (
        ("census", "--map", "power:k=2"),
        ("census", "--map", "quad:c=nan"),
        ("census", "--map", "product:q=affine(nan,0);d=2"),
        ("degree", "--map", "power:d=2", "--value", "nan,0"),
        ("degree", "--map", "power:d=2", "--value", "abc"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"] == "ParseError"


def test_analysis_error_exits_1(capsys):
    # quadratic maps are not in straightened form: decompose fails
    code, out, err = run(capsys, "annuli", "--map", "quad:c=0.1+0.0i")
    assert code == 1
    assert json.loads(err)["error"] == "NotStraightened"


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "degree", "--map", "quad:c=0.1+0.0i")
    _, second, _ = run(capsys, "degree", "--map", "quad:c=0.1+0.0i")
    assert first == second
    _, c1, _ = run(capsys, "census", "--map", "power:d=2", "--n-max", "4")
    _, c2, _ = run(capsys, "census", "--map", "power:d=2", "--n-max", "4")
    assert c1 == c2


def test_seed_env_var_changes_draws_not_results(capsys, monkeypatch):
    _, base, _ = run(capsys, "degree", "--map", "power:d=2")
    monkeypatch.setenv("SPHERE_CENSUS_SEED", "42")
    _, seeded, _ = run(capsys, "degree", "--map", "power:d=2")
    assert json.loads(base)["global"] == json.loads(seeded)["global"] == 2
    assert json.loads(base)["regular_value"] != json.loads(seeded)["regular_value"]


def test_outputs_match_recorded_bytes(capsys):
    # recorded from the scalar evaluation path; between them the queries run
    # every batched sample set: probe and core circles, boundary circles, the
    # hypothesis probe, pole orbits and the profile grids
    cases = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    for case in cases:
        got = run(capsys, *case["argv"])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["argv"]

"""Command-line behavior: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere_census
from sphere_census import annuli, census, charts, cli, degree, lefschetz, strip_lift, winding
from sphere_census.charts import Chart
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


def test_census_incomplete_exits_1_without_csv(capsys, monkeypatch):
    monkeypatch.setattr(census, "ABERTH_MAX_ITERS", 1)
    code, out, err = run(capsys, "census", "--map", "quad:c=0.1+0.0i", "--n-max", "3")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "CensusIncomplete"


# each census fails at the order a solve of one order at a time fails at,
# with the same stderr: a merge at order 8, an Aberth cap at order 2 (order
# 1 starts from the polished fixed points of f) and a residual at order 1;
# with both the cap and the residual patched, order 1's residual failure
# comes before order 2's cap, of the quadratic and of a cubic alike
@pytest.mark.parametrize("patch, text, n_max, order, message", [
    ({}, "quad:c=-2+0i", 8, 8,
     "iter:n=8(quad:c=-2+0i): 1 of 257 approximations merge into another at a "
     "fixed point of multiplier away from 1"),
    ({"ABERTH_MAX_ITERS": 1}, "quad:c=0.1+0.0i", 4, 2,
     "Aberth iteration for 4 fixed points of an iterate of order 2 left 4 "
     "unconverged after 1 steps"),
    ({"RESIDUAL_CAP": 0.0}, "quad:c=0.1+0.0i", 8, 1,
     "quad:c=0.1+0i: 2 of 3 fixed points fail the residual filter"),
    ({"ABERTH_MAX_ITERS": 1, "RESIDUAL_CAP": 0.0}, "quad:c=0.1+0.0i", 4, 1,
     "quad:c=0.1+0i: 2 of 3 fixed points fail the residual filter"),
    ({"ABERTH_MAX_ITERS": 1, "RESIDUAL_CAP": 0.0}, "rational:P=0,2,0,1;Q=1,0,3", 3, 1,
     "rational:P=0+0i,2+0i,0+0i,1+0i;Q=1+0i,0+0i,3+0i: 2 of 4 fixed points fail "
     "the residual filter"),
], ids=["merge", "aberth-cap", "residual", "residual-before-cap", "cubic-residual-before-cap"])
@pytest.mark.parametrize("later_error", [False, True], ids=["alone", "later-error"])
def test_census_fails_at_the_order_that_fails(capsys, monkeypatch, patch, text, n_max,
                                             order, message, later_error):
    for name, value in patch.items():
        monkeypatch.setattr(census, name, value)
    if later_error:
        # a non-census error while growing the preimage tree for the next order
        preimages = degree._preimages

        def failing(forms, a, b):
            if a.size >= 2 ** order:
                raise RuntimeError("preimage tree")
            return preimages(forms, a, b)

        monkeypatch.setattr(degree, "_preimages", failing)
    code, out, err = run(capsys, "census", "--map", text, "--n-max", str(n_max))
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": "CensusIncomplete", "message": message}) + "\n"


def test_strip_index_lifts_a_huge_degree(capsys):
    # F(x + 1) - F(x) - d is a rounding step of d*x, about 1e-7 at d = 1e9
    code, out, err = run(capsys, "strip-index", "--map", "power:d=1000000000", "--lift", "0")
    assert code == 0, err
    assert json.loads(out)["index"] == 1


def test_census_identity_profile_written_piecewise(capsys):
    # every pwl node on the diagonal: q(s) = s, so whole curves are fixed
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "census", "--map",
                       "product:q=pwl(-inf:-inf,0:0,inf:inf);d=2", "--n-max", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    # the iterate at n = 2 composes two pwl profiles rather than folding them
    for line in out.strip().splitlines()[1:]:
        row = line.split(",")
        assert row[1] == "inf"
        assert row[2] == ""  # rate undefined


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


def test_degree_of_a_constant_power_at_its_value_is_refused(capsys):
    # z^0 sends the whole sphere to 1: the level latitude s = 0 is a whole
    # circle of preimages, which no set of witnesses can stand for
    code, out, err = run(capsys, "degree", "--map", "power:d=0", "--value", "1,0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "PreimageClusterTooTight",
                               "message": "angular-degree-0 circle preimage"}


def test_index_subcommand(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text(dump_curve_csv(circle(0j, 2.0, 64)))
    code, out, _ = run(capsys, "index", "--map", "power:d=2", "--curve", str(path))
    assert code == 0
    assert json.loads(out)["index"] == 2


def test_index_reads_the_fixture_chart(tmp_path, capsys):
    # |w| = 0.5 in the south chart surrounds N, a superattracting fixed
    # point of z^2 + 0.5; the same circle in the north chart holds none
    for chart, want in ((Chart.SOUTH, 1), (Chart.NORTH, 0)):
        path = tmp_path / f"{chart.value}.csv"
        path.write_text(dump_curve_csv(circle(0j, 0.5, 64, chart=chart)))
        code, out, _ = run(capsys, "index", "--map", "quad:c=0.5+0i", "--curve", str(path))
        assert code == 0 and json.loads(out)["index"] == want, chart


def test_annuli_json(capsys):
    code, out, _ = run(capsys, "annuli", "--map", "product:q=affine(2,0);d=2")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{
        "lower_s": "-inf", "upper_s": "inf", "delta": 2, "d_i": 2,
        "repelling": True, "theorem3_bound": 1,
    }]


def test_annuli_next_to_a_pole_crossing_node(capsys):
    # the boundary circles at the cuts sit one rounding step off the node
    for spec, d_i in (
        ("product:q=pwl(-inf:-inf,-1.5:0,0:inf,inf:-inf);d=0", [0, 0]),
        ("product:q=pwl(-inf:-inf,-1.5:inf,0:-inf,inf:inf);d=2", [2, -2, 2]),
    ):
        code, out, _ = run(capsys, "annuli", "--map", spec)
        assert code == 0, spec
        assert [r["d_i"] for r in json.loads(out)] == d_i


def test_strip_index_lines(capsys):
    code, out, _ = run(capsys, "strip-index", "--map", "product:q=affine(2,0);d=3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["k"] for r in rows] == [0, 1]
    assert all(r["index"] == 1 for r in rows)
    assert all(r["m_used"] >= 1 for r in rows)


def test_strip_index_caps_the_lift_count_before_any_lift(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lifted past the degree cap")

    monkeypatch.setattr(strip_lift, "lift", forbidden)
    code, out, err = run(capsys, "strip-index", "--map", "power:d=5000")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DegreeCapExceeded"


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


def test_check_h_reports_a_quadratic_without_attractor(capsys):
    code, out, err = run(capsys, "check-h", "--map", "quad:c=-1.1+0i")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "scope_unavailable"
    assert "no attracting finite fixed point" in payload["detail"]


@pytest.mark.parametrize("c", ["1e-7", "1e-6", "3e-5", "1e-10"])
def test_check_h_reports_a_loop_probe_with_no_room(capsys, c):
    # near c = 0 the pole preimages crowd the anchor: the probe circle runs
    # through S or around it, and check-h reports that as the census does
    code, out, err = run(capsys, "check-h", "--map", f"quad:c={c}+0i")
    assert (code, err) == (1, "")
    assert json.loads(out)["status"] == "scope_unavailable"


def test_iterated_poly_census_prints_no_overflow_warning(capsys):
    # q∘q overflows past |s| ~ 1e102; the profile evaluates that as +-inf
    # silently, so the census prints its rows and nothing on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, out, err = run(capsys, "census", "--map",
                             "iter:n=2(product:q=poly(0,3,0,-0.5);d=2)", "--n-max", "3")
    assert (code, err) == (0, "")
    assert out == ("n,count,rate,bound_dn,theorem3_sum\n"
                   "1,29,3.36729582999,4,0\n"
                   "2,1097,3.50016723014,16,0\n"
                   "3,30809,3.44518737802,64,0\n")


def test_strip_index_refuses_a_loop_through_a_pole_by_name(capsys):
    # two repelling components of q∘q have a window edge that q∘q sends onto
    # a pole, so their comparison loops have infinite heights
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, out, err = run(capsys, "strip-index", "--map",
                             "iter:n=2(product:q=pwl(-inf:-inf,-1:inf,1:-inf,inf:inf);d=2)")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NonFiniteSamples"


@pytest.mark.parametrize("text", ["quad:c=-0.75+0i", "quad:c=0.25+0i",
                                  "iter:n=2(quad:c=0.25+0i)"])
def test_quadratics_without_an_attracting_anchor_name_their_scope(capsys, text):
    # a parabolic fixed point (|2z| = 1) does not anchor the annulus either
    for command in ("annuli", "strip-index"):
        code, out, err = run(capsys, command, "--map", text)
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "AnchorNotAttracting"
        assert "no attracting finite fixed point" in payload["message"]
    code, out, err = run(capsys, "check-h", "--map", text)
    assert (code, err) == (1, "")
    assert json.loads(out)["status"] == "scope_unavailable"


def test_parse_error_exits_2(capsys, tmp_path):
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("# chart=north\n0,1\n1,0,0\n")
    too_few = tmp_path / "too_few.csv"
    too_few.write_text("# chart=north\n" + "".join(f"{k},1\n" for k in range(5)))
    ring = "".join(f"{k},1\n" for k in range(8))
    infinite = tmp_path / "infinite.csv"
    infinite.write_text("# chart=north\ninf,0\n" + ring)
    not_a_number = tmp_path / "not_a_number.csv"
    not_a_number.write_text("# chart=north\nnan,0\n" + ring)
    past_cap = tmp_path / "past_cap.csv"
    past_cap.write_text("# chart=north\n1e9,0\n" + ring)
    # the row past the cap is refused before 0 is mapped to N by 1/z^2
    past_cap_and_pole = tmp_path / "past_cap_and_pole.csv"
    past_cap_and_pole.write_text("# chart=north\n0,0\n1e9,0\n" + ring)
    for argv in (
        # usage errors
        ("census",),
        ("census", "--map", "power:d=2", "--n-max", "abc"),
        ("degree", "--map", "power:d=2", "--value"),
        ("frobnicate",),
        (),
        ("census", "--map", "power:k=2"),
        ("census", "--map", "quad:c=nan"),
        ("census", "--map", "product:q=affine(nan,0);d=2"),
        ("degree", "--map", "power:d=2", "--value", "nan,0"),
        ("degree", "--map", "power:d=2", "--value", "abc"),
        ("degree", "--map", "power:d=2", "--value", "1e9,0"),
        # the grammar accepts these, a constructor rejects them
        ("annuli", "--map", "product:q=pwl(-inf:-inf,-1.5:-inf,0:inf,inf:inf);d=0"),
        ("degree", "--map", "iter:n=0(power:d=2)"),
        ("degree", "--map", "rational:P=0;Q=0"),
        ("degree", "--map", "rational:P=0;Q=1,0,1"),
        ("census", "--map", "rational:P=0;Q=1,0,1", "--n-max", "2"),
        ("degree", "--map", "rational:P=-1,0,1;Q=1,1"),    # P and Q share a root
        ("degree", "--map", "product:q=pwl(-inf:-inf,1:1,0:0,inf:inf);d=2"),
        ("degree", "--map", "product:q=poly(0);d=2"),
        # bad input outside the map spec
        ("census", "--map", "power:d=2", "--n-max", "0"),
        ("census", "--map", "power:d=2", "--n-max", "-3"),
        ("index", "--map", "power:d=2", "--curve", str(tmp_path / "missing.csv")),
        ("index", "--map", "power:d=2", "--curve", str(bad_row)),
        ("index", "--map", "power:d=2", "--curve", str(too_few)),
        ("index", "--map", "power:d=2", "--curve", str(infinite)),
        ("index", "--map", "power:d=2", "--curve", str(not_a_number)),
        ("index", "--map", "power:d=-2", "--curve", str(past_cap)),
        ("index", "--map", "power:d=-2", "--curve", str(past_cap_and_pole)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"] == "ParseError"
    # a value at the chart cap itself is accepted
    code, out, _ = run(capsys, "degree", "--map", "power:d=2", "--value", "1e8,0")
    assert code == 0 and json.loads(out)["global"] == 2
    # help is not an error: usage on stdout, exit 0
    for argv in (["-h"], ["census", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0 and capsys.readouterr().out.startswith("usage:")


def test_analysis_error_exits_1(capsys):
    # quadratic maps are not in straightened form: decompose fails
    code, out, err = run(capsys, "annuli", "--map", "quad:c=0.1+0.0i")
    assert code == 1
    assert json.loads(err)["error"] == "NotStraightened"


def test_degree_refuses_the_degree_cap_before_any_solve(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved a map over the degree cap")

    monkeypatch.setattr(degree, "find_preimages", forbidden)
    code, out, err = run(capsys, "degree", "--map", "power:d=100000")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "DegreeCapExceeded",
                               "message": "degree 100000^1 exceeds 4096"}
    # the annulus side reads a power off its product view, with no cap
    code, out, _ = run(capsys, "annuli", "--map", "power:d=10000000")
    assert code == 0 and json.loads(out)[0]["d_i"] == 10000000


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "degree", "--map", "quad:c=0.1+0.0i")
    _, second, _ = run(capsys, "degree", "--map", "quad:c=0.1+0.0i")
    assert first == second
    _, c1, _ = run(capsys, "census", "--map", "power:d=2", "--n-max", "4")
    _, c2, _ = run(capsys, "census", "--map", "power:d=2", "--n-max", "4")
    assert c1 == c2


def _fresh_process(argv):
    src = str(Path(sphere_census.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "sphere_census.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_package_does_not_import_numpy_polynomial():
    # a process of its own: the tests import numpy.polynomial as a reference
    src = str(Path(sphere_census.__file__).resolve().parents[1])
    code = ("import sys; from sphere_census import charts, cli; "
            "charts.parse_map('rational:P=0,2,0,1;Q=1,0,3'); "
            "charts.parse_map('product:q=poly(0,3,0,-0.5);d=2'); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_no_census_or_check_draws_random_numbers(tmp_path):
    # a process of its own: the tests draw from numpy.random; the census's
    # Aberth frame is a constant, and none of these commands draws a number
    src = str(Path(sphere_census.__file__).resolve().parents[1])
    curve = tmp_path / "circle.csv"
    curve.write_text(dump_curve_csv(circle(0.3 + 0.1j, 0.7, 64)))
    argvs = [["census", "--map", m, "--n-max", n] for m, n in (
        ("quad:c=0.1+0.0i", "6"), ("rational:P=0,2,0,1;Q=1,0,3", "4"),
        ("power:d=2", "5"), ("product:q=affine(2,0);d=3", "3"))] + [
        ["check-h", "--map", "quad:c=0.1+0.0i"],
        ["check-h", "--map", "rational:P=0,2,0,1;Q=1,0,3"],
        ["annuli", "--map", "product:q=affine(2,0);d=3"],
        ["index", "--map", "power:d=2", "--curve", str(curve)]]
    code = ("import contextlib, io, sys; from sphere_census import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
            "print(codes, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "[0, 0, 0, 0, 1, 1, 0, 0] False\n", "")


def test_long_untwisted_iterates_do_not_nest(capsys):
    # each level of an iterate's view nested one more twist, to the
    # recursion limit; the slope 2^2000 overflows to inf, silently
    code, out, err = run(capsys, "census", "--map", "iter:n=2000(product:q=affine(2,0);d=1)",
                         "--n-max", "1")
    assert (code, out.splitlines()[-1], err) == (0, "1,inf,,1,", "")
    code, out, err = run(capsys, "degree", "--map", "iter:n=2000(power:d=1)")
    assert (code, json.loads(out)["global"], err) == (0, 1, "")
    code, out, err = run(capsys, "degree", "--map", "iter:n=2000(product:q=affine(2,0);d=1)")
    assert (code, out, json.loads(err)["error"]) == (1, "", "PoleHasNoCoordinate")


@pytest.mark.parametrize("spec", [
    "iter:n=500(product:q=pwl(-inf:-inf,0:0.5,inf:inf);d=1)",
    "iter:n=500(product:q=pwl(-inf:-inf,0:0.5,inf:inf);d=1;h=affine(0,0.1))",
    "iter:n=1000(product:q=affine(1,0);d=1;h=affine(0,0.1))",
    "iter:n=2000(product:q=affine(1,0);d=1;h=affine(0,0.1))",
])
def test_deep_product_iterates_are_one_loop(capsys, spec):
    # orders past the depth Python allows a recursion, read by one loop; q
    # moves every latitude or h turns every circle, so only S and N are fixed
    code, out, err = run(capsys, "census", "--map", spec, "--n-max", "1")
    assert (code, out.splitlines()[-1].split(",")[:2], err) == (0, ["1", "2"], "")


@pytest.mark.parametrize("argv", [
    ("census", "--map", "iter:n=20(product:q=affine(2,0);d=3)", "--n-max", "1"),
    ("census", "--map", "iter:n=5000(product:q=affine(2,0);d=3)", "--n-max", "1"),
    ("census", "--map", "power:d=1", "--n-max", "1000000000000"),
    ("degree", "--map", "iter:n=1000000(product:q=affine(2,0);d=3)"),
    ("check-h", "--map", "iter:n=1000000(power:d=3)"),
    ("strip-index", "--map", "iter:n=1000000(power:d=3)"),
    ("annuli", "--map", "iter:n=1000000000000(power:d=1)"),
    ("strip-index", "--map", "iter:n=1000000000000(power:d=1)"),
    ("check-h", "--map", "iter:n=1000000000000(power:d=1)"),
    *((command, "--map", "iter:n=4000(iter:n=4000(product:q=affine(1,0);d=1;h=affine(0,0.1)))")
      for command in ("annuli", "check-h", "strip-index")),
], ids=["census-3^20", "census-3^5000", "census-power1-order", "degree-3^1e6",
        "check-h-float-range", "strip-index-float-range", "annuli-order", "strip-index-order",
        "check-h-order", "annuli-nested", "check-h-nested", "strip-index-nested"])
def test_product_budgets_refuse_before_any_view(capsys, monkeypatch, argv):
    # the census and degree refuse at the cap before any view or array of
    # the iterate exists; the other subcommands refuse a view whose angular
    # degree passes the float range, or whose total order, through every
    # nested iterate, passes the cap at |d| <= 1, before its fold
    def forbidden(*args, **kwargs):
        raise AssertionError("built a view over the budget")

    if argv[0] in ("census", "degree"):
        monkeypatch.setattr(census, "_product_fixed_points", forbidden)
        monkeypatch.setattr(charts, "_iterated_view", forbidden)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, json.loads(err)["error"]) == (1, "", "DegreeCapExceeded")


# the exceptions the package names; a bare builtin one is a crash
LIBRARY_ERRORS = {name for module in (annuli, census, charts, degree, lefschetz, strip_lift,
                                      winding)
                  for name, value in vars(module).items()
                  if isinstance(value, type) and issubclass(value, Exception)
                  and value.__module__.startswith("sphere_census")}
# deep orders draw radial profiles monotone on the line, so that q^n has one
# level solution per level, and constant twists; shallow ones add profiles
# whose iterates have ever more level solutions (a pole-crossing profile, a
# cubic folding the line, a reflection whose even iterates are the identity
# to rounding) and sloped twists, whose laps the grid bisects one scalar walk
# of the iterate at a time: both cost minutes at orders in the hundreds
DEEP_RADIALS = st.one_of(
    st.builds("affine({},{})".format, st.sampled_from([-2, -1, -0.5, 0.5, 1, 1.5, 2]),
              st.sampled_from([0, -0.3, 0.2, 1])),
    st.sampled_from(["poly(0.1,1.5,0,0.3)", "poly(-1,1,0,0.01)", "pwl(-inf:-inf,0:0.5,inf:inf)",
                     "pwl(-inf:-inf,-0.5:-0.2,0.7:1.4,inf:inf)"]))
CONSTANT_TWISTS = st.sampled_from(["zero", "affine(0,0.1)", "affine(0,-2)"])
PRODUCT_ITERATES = st.one_of(
    st.tuples(DEEP_RADIALS, CONSTANT_TWISTS,
              st.one_of(st.integers(1, 4), st.sampled_from([64, 700, 1100, 4096, 5000]))),
    st.tuples(st.one_of(DEEP_RADIALS, st.sampled_from([
                  "poly(0,3,0,-0.5)", "pwl(-inf:-inf,-1:inf,1:-inf,inf:inf)",
                  "pwl(-inf:inf,0:0,inf:-inf)"])),
              st.one_of(CONSTANT_TWISTS, st.builds("affine({},{})".format,
                                                   st.sampled_from([0.3, -1]),
                                                   st.sampled_from([0.1, -2, 0]))),
              st.integers(1, 4)))


@settings(max_examples=25, deadline=None)
@given(case=PRODUCT_ITERATES, d=st.integers(-3, 3))
def test_product_iterates_answer_or_name_their_error(case, d):
    """Product iterates of any order up to 5000 either answer (exit 0, or
    check-h's fail or scope_unavailable) or exit 1 or 2 with one JSON line
    on stderr naming a library error; no numpy warning and no bare builtin
    error (RecursionError, MemoryError, OverflowError, ValueError)."""
    q, h, n = case
    spec = f"iter:n={n}(product:q={q};d={d};h={h})"
    for argv in (("census", "--map", spec, "--n-max", "1"), ("degree", "--map", spec),
                 ("annuli", "--map", spec), ("strip-index", "--map", spec),
                 ("check-h", "--map", spec)):
        out, err = StringIO(), StringIO()
        with (redirect_stdout(out), redirect_stderr(err),
              warnings.catch_warnings(record=True) as seen):
            warnings.simplefilter("always")
            code = main(list(argv))
        assert [str(w.message) for w in seen] == [], argv
        if code == 0 or (argv[0] == "check-h" and not err.getvalue()):
            assert code in (0, 1) and err.getvalue() == "", argv
            continue
        assert code in (1, 2), argv
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["error"] in LIBRARY_ERRORS, (argv, line)


def test_one_process_runs_many_queries_as_fresh_ones(capsys):
    # the parser is built once per process; a usage error in between leaves
    # no trace in the queries that follow it
    queries = [
        ("census", "--map", "power:d=2", "--n-max", "3"),
        ("census", "--n-max", "3"),  # --map missing: exit 2, JSON on stderr
        ("degree", "--map", "power:d=3"),
        ("strip-index", "--map", "product:q=affine(2,0);d=3"),
        ("census", "--map", "power:d=-2", "--n-max", "2"),
    ]
    for argv in queries:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv
    assert cli.build_parser() is cli.build_parser()


def test_seed_env_var_changes_draws_not_results(capsys, monkeypatch):
    _, base, _ = run(capsys, "degree", "--map", "power:d=2")
    monkeypatch.setenv("SPHERE_CENSUS_SEED", "42")
    _, seeded, _ = run(capsys, "degree", "--map", "power:d=2")
    assert json.loads(base)["global"] == json.loads(seeded)["global"] == 2
    assert json.loads(base)["regular_value"] != json.loads(seeded)["regular_value"]


def test_outputs_match_recorded_bytes(capsys, monkeypatch):
    # recorded from the scalar evaluation path; between them the queries run
    # every batched sample set: probe and core circles, boundary circles, the
    # hypothesis probe, pole orbits and the profile grids.  Only `degree`
    # draws from SPHERE_CENSUS_SEED: every other case prints the same bytes
    # under another seed
    cases = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    for case in cases:
        got = run(capsys, *case["argv"])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["argv"]
    monkeypatch.setenv("SPHERE_CENSUS_SEED", "42")
    for case in (case for case in cases if case["argv"][0] != "degree"):
        got = run(capsys, *case["argv"])
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["argv"]

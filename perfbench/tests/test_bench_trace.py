"""Tracing changes no output and sees calls through every module binding."""
import json

import pytest

import sphere_census
from sphere_census import census, charts, cli, degree

import run
import worker
import workloads
from tracer import TRACED, Tracer


def census_query(m, n_max):
    return workloads.Query("census", m, ("census", "--map", m.spec, "--n-max", str(n_max)),
                           n_max=n_max)


def small_queries(tmp_path):
    """The certify queries of one seed with one strip lift, plus short censuses
    that succeed, undercount or crash."""
    maps = workloads.draw_maps(3)
    queries = [q for q in workloads.build("certify", 3, str(tmp_path))
               if q.kind != "strip-index" or abs(q.map.params["k"] - 1) == 1]
    queries += [census_query(maps["power"], 3), census_query(maps["product"], 2),
                census_query(workloads.product_map(3.0, 0.4, 2), 4),
                census_query(maps["cardioid"], 3), census_query(maps["period2"], 2)]
    worker.write_fixtures(queries)
    return queries


def test_traced_and_untraced_stdout_are_byte_identical(tmp_path):
    queries = small_queries(tmp_path)
    plain = worker.run_pass(cli, queries, None)
    tracer = Tracer()
    traced = worker.run_pass(cli, queries, tracer)
    assert [o[:2] for o in traced["outputs"]] == [o[:2] for o in plain["outputs"]]
    assert traced["digest"] == plain["digest"]
    stats = traced["stats"]
    assert stats["cli.main"]["calls"] == len(queries)
    for key in ("charts.evaluate", "winding.winding_number", "degree.local_degree",
                "annuli.decompose", "lefschetz.lefschetz_index",
                "strip_lift.verify_index", "census.fixed_points"):
        assert stats[key]["calls"] > 0, key


def test_every_binding_is_patched_and_restored():
    original = charts.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (charts, census, degree, sphere_census):
            assert mod.evaluate is not original
            assert mod.evaluate.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in (charts, census, degree, sphere_census):
        assert mod.evaluate is original


def test_fixed_points_counts_both_census_passes(tmp_path):
    result = worker.run_pass(cli, [census_query(workloads.power_map(2), 3)], Tracer())
    fp = result["stats"]["census.fixed_points"]
    assert fp["calls"] == 2 * 3
    assert fp["points"] == fp["oracle"] == 2 * (3 + 5 + 9)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [f"{key}.{field}" for key, fields in run.LAYER_METRICS for field in fields]
    assert names + ["trace.overhead_s"] == [m["name"] for m in spec["per_layer"]]
    traced = {f"{home}.{name}" for home, names in TRACED.items() for name in names}
    assert {key for key, _ in run.LAYER_METRICS} <= traced


def test_query_times_are_scaled_by_the_kernel_runs_around_them():
    ref = run.REFERENCE_S
    passes = [{"query_s": [1.0, 2.0], "reference_s": [2 * ref, 2 * ref, 2 * ref]},
              {"query_s": [3.0, 1.0], "reference_s": [ref, ref, 3 * ref]}]
    # pass 1 scales to 0.5, 1.0; pass 2 to 3.0, 0.5 (kernel mean 2 * ref)
    assert run.scaled_queries(passes) == pytest.approx([1.75, 0.75])
    assert run.host_speed(passes) == pytest.approx(0.5)

"""The generator is a pure function of the seed."""
import math

import workloads


def specs(workload, seed, workdir="w"):
    return [(q.argv, q.files) for q in workloads.build(workload, seed, workdir)]


def test_same_seed_same_queries():
    for workload in workloads.WORKLOADS:
        assert specs(workload, 7) == specs(workload, 7)


def test_different_seeds_draw_different_maps_of_the_same_families():
    a, b = workloads.draw_maps(1), workloads.draw_maps(2)
    assert a.keys() == b.keys()
    assert all(a[key].family == b[key].family for key in a)
    assert sum(a[key].params != b[key].params for key in a) >= 5


def test_offcentre_core_image_first_leaves_the_chart_at_n_max():
    window = math.log(1e6)
    for seed in range(50):
        m = workloads.draw_maps(seed)["offcentre"]
        a, b, k = (m.params[key] for key in ("a", "b", "k"))
        assert b != 0
        orbit = [abs(b) * (a ** n - 1) / (a - 1)
                 for n in range(1, workloads.product_nmax(k) + 1)]
        assert orbit[-1] > window > orbit[-2]


def test_product_orders_respect_the_degree_cap():
    assert workloads.product_nmax(2) == 7 and workloads.product_nmax(-3) == 4


def test_circle_fixture_keeps_clear_of_fixed_points():
    for seed in range(50):
        m = workloads.draw_maps(seed)["circle"]
        zeros, pole = workloads.power_fixed_data(m.params["d"])
        marks = zeros + ([0j] if pole else [])
        c, r = m.params["center"], m.params["radius"]
        assert all(abs(abs(z - c) - r) > 0.1 for z in marks)


def test_certify_covers_every_lift_count():
    for seed in range(10):
        maps = workloads.draw_maps(seed)
        lifts = sorted(abs(maps[f"model{i}"].params["k"] - 1)
                       for i in range(len(workloads.CERTIFY_K_STRATA)))
        assert lifts == [1, 2, 3, 4, 4, 4]

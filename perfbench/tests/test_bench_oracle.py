"""The closed-form oracle accepts right answers and flags the known wrong ones."""
import json

import oracle
from workloads import RATIONAL, Map, Query, power_map, product_map

# census output of the degree-3 rational map as the seed program prints it:
# n = 5 finds 44 of the 3^5 + 1 = 244 fixed points
RATIONAL_N5 = """n,count,rate,bound_dn,theorem3_sum
1,4,1.38629436112,3,
2,10,1.1512925465,9,
3,28,1.11073483673,27,
4,82,1.10167981182,81,
5,44,0.756837926784,243,
"""
POWER_N4 = """n,count,rate,bound_dn,theorem3_sum
1,3,1.09861228867,2,1
2,5,0.804718956217,4,3
3,9,0.732408192445,8,7
4,17,0.708303336014,16,15
"""
STRIP_DM3 = [
    {"d": -3, "fixed_point_projection": {"chart": "south", "im": -0.0, "re": 0.818730753078},
     "index": -1, "k": 0, "m_used": 1},
    {"d": -3, "fixed_point_projection": {"chart": "south", "im": -0.818730753078,
                                         "re": 5.0132799806e-17}, "index": -1, "k": 1, "m_used": 1},
    {"d": -3, "fixed_point_projection": {"chart": "south", "im": -1.00265599612e-16,
                                         "re": -0.818730753078}, "index": -1, "k": 2, "m_used": 1},
    {"d": -3, "fixed_point_projection": {"chart": "south", "im": 0.818730753078,
                                         "re": -1.50398399418e-16}, "index": -1, "k": 3, "m_used": 1},
]


def census_query(m, n_max):
    return Query("census", m, ("census", "--map", m.spec, "--n-max", str(n_max)), n_max=n_max)


def simple_query(kind, m):
    return Query(kind, m, (kind, "--map", m.spec))


def test_rational_undercount_at_n5_is_flagged():
    ops = oracle.check(census_query(RATIONAL, 5), 0, RATIONAL_N5, "")
    assert [op.ok for op in ops] == [True, True, True, True, False]
    assert ops[4].n == 5
    assert ops[4].expected.startswith("count 244,")
    assert ops[4].got.startswith("count 44,")


def test_power_rows_are_exact():
    ops = oracle.check(census_query(power_map(2), 4), 0, POWER_N4, "")
    assert len(ops) == 4 and all(op.ok for op in ops)


def test_crashed_census_fails_every_row():
    m = product_map(2.5, -0.4, -2)
    err = json.dumps({"error": "ImageHitsPole", "message": "core image near a pole"})
    ops = oracle.check(census_query(m, 6), 1, "", err)
    assert len(ops) == 6 and not any(op.ok for op in ops)
    assert all(op.got == "exit 1 ImageHitsPole" for op in ops)


def test_product_census_oracle():
    m = product_map(2.0, 0.0, -3)
    assert [oracle.census_count(m, n) for n in (1, 2, 3)] == [6, 10, 30]


def test_strip_index_oracle():
    q = simple_query("strip-index", product_map(2.5, -0.3, -3))
    text = "".join(json.dumps(row) + "\n" for row in STRIP_DM3)
    (op,) = oracle.check(q, 0, text, "")
    assert op.ok, op.got
    repeated = STRIP_DM3[:3] + [STRIP_DM3[0] | {"k": 3}]
    text = "".join(json.dumps(row) + "\n" for row in repeated)
    (op,) = oracle.check(q, 0, text, "")
    assert not op.ok and "repeated" in op.got


def test_check_h_crash_counts_as_failed():
    q = simple_query("check-h", RATIONAL)
    err = json.dumps({"error": "ValueError", "message": "no attracting fixed point"})
    (op,) = oracle.check(q, 1, "", err)
    assert not op.ok and op.got == "exit 1 ValueError"
    (op,) = oracle.check(q, 1, json.dumps({"status": "fail"}) + "\n", "")
    assert op.ok


def test_index_oracle_counts_zeros_minus_poles():
    def circle(d, center, radius):
        return Map("power", f"power:d={d}", {"d": d, "center": center, "radius": radius})

    assert oracle.index_oracle(circle(2, 1 + 0j, 0.3)) == 1
    assert oracle.index_oracle(circle(2, 0.5 + 0j, 0.9)) == 2
    # 1/z^2 - z = (1 - z^3) / z^2: three cube roots of unity, a double pole at 0
    assert oracle.index_oracle(circle(-2, 0j, 0.5)) == -2
    assert oracle.index_oracle(circle(-2, 0j, 1.5)) == 1

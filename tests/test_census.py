"""Fixed-point enumeration, growth reports, and the theorem cross-checks."""

import cmath
import math

import numpy as np
import pytest

from sphere_census import census
from sphere_census.census import (
    DegreeCapExceeded,
    census_csv,
    fixed_points,
    growth_report,
    poles_attracting,
    theorem_a_crosscheck,
)
from sphere_census.charts import (
    AffineProfile,
    Iterate,
    N_POLE,
    Power,
    ProductMap,
    Quadratic,
    S_POLE,
    chordal,
)
from sphere_census.gallery import DILATION


def compose_poly(coeffs, n):
    """Oracle-side polynomial self-composition via plain convolution."""
    out = np.array(coeffs, dtype=complex)
    base = np.array(coeffs, dtype=complex)
    for _ in range(n - 1):
        acc = np.zeros(1, dtype=complex)
        power = np.ones(1, dtype=complex)
        for c in base:
            acc_len = max(len(acc), len(power))
            acc = np.pad(acc, (0, acc_len - len(acc)))
            term = c * power
            term = np.pad(term, (0, acc_len - len(term)))
            acc = acc + term
            power = np.convolve(power, out)
        out = acc
    return out


def distinct_root_count(coeffs, tol=1e-6):
    roots = np.roots(coeffs[::-1])
    kept = []
    for r in roots:
        if all(abs(r - k) > tol for k in kept):
            kept.append(r)
    return len(kept)


def test_squaring_fixed_points_n3():
    # oracle: z^8 = z has solutions 0, infinity, and the 7th roots of unity
    fps = fixed_points(Power(2), 3)
    assert fps.count == 9
    assert S_POLE in fps.points and N_POLE in fps.points
    finite = [p for p in fps.points if not p.is_pole]
    for k in range(7):
        root = cmath.exp(2j * math.pi * k / 7)
        assert min(chordal(p, census.SpherePoint(root)) for p in finite) < 1e-9


def test_dilation_has_only_the_poles():
    fps = fixed_points(DILATION, 5)
    assert fps.count == 2
    assert set(fps.points) == {S_POLE, N_POLE}


def test_quadratic_c0_fixed_points():
    fps = fixed_points(Quadratic(0j), 1)
    assert fps.count == 3
    vals = sorted(p.latitude() for p in fps.points)
    # 0, 1 and infinity
    assert vals[0] == -math.inf and vals[2] == math.inf
    assert abs(vals[1]) < 1e-12


def test_power_counts_match_root_oracle():
    # independent composition + distinct-root count, plus the closed form
    for n in range(1, 9):
        fps = fixed_points(Power(2), n)
        poly = compose_poly([0, 0, 1], n)  # z^(2^n)
        poly[1] -= 1  # minus z
        assert fps.count == distinct_root_count(poly) + 1  # plus infinity
        assert fps.count == 2 ** n + 1


def test_quadratic_counts_match_root_oracle():
    c = 0.1
    for n in range(1, 7):
        fps = fixed_points(Quadratic(c), n)
        poly = compose_poly([c, 0, 1], n)
        poly[1] -= 1
        assert fps.count == distinct_root_count(poly) + 1
        assert fps.count == 2 ** n + 1


def test_product_and_power_forms_agree():
    # the product normal form of the squaring map censuses identically
    product_form = ProductMap(AffineProfile(2.0, 0.0), 2)
    for n in (1, 2, 3, 4):
        a = fixed_points(Power(2), n)
        b = fixed_points(product_form, n)
        assert a.count == b.count
        for p in a.points:
            assert min(chordal(p, q) for q in b.points) < 1e-9


def test_fixed_points_of_iterate_spec():
    fps = fixed_points(Iterate(Power(2), 2), 2)  # = f^4
    assert fps.count == 2 ** 4 + 1


def test_monotone_consistency():
    for spec in (Power(2), Quadratic(0.1), ProductMap(AffineProfile(2.0, 0.0), 3)):
        for n in (1, 2):
            small = fixed_points(spec, n).points
            large = fixed_points(spec, 2 * n).points
            for p in small:
                assert min(chordal(p, q) for q in large) < 1e-6


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        fixed_points(Power(2), 13)


def test_continuum_flags():
    ident = fixed_points(Power(1), 1)
    assert ident.is_continuum and ident.count == math.inf
    rotation = ProductMap(AffineProfile(1.0, 0.0), 1, AffineProfile(0.0, math.pi))
    assert fixed_points(rotation, 1).count == 2  # poles only
    assert fixed_points(rotation, 2).is_continuum  # full turn: identity


def test_growth_report_squaring():
    report = growth_report(Power(2), 8)
    assert [int(r.count) for r in report.rows] == [2 ** n + 1 for n in range(1, 9)]
    assert report.rows[-1].rate >= math.log(2) - 0.05
    assert report.has_rate_numerically


def test_growth_report_dilation_fails_the_rate():
    report = growth_report(DILATION, 8)
    assert [int(r.count) for r in report.rows] == [2] * 8
    assert report.rows[-1].rate == pytest.approx(math.log(2) / 8)
    assert not report.has_rate_numerically


def test_growth_report_quadratic():
    report = growth_report(Quadratic(0.1), 6)
    assert [int(r.count) for r in report.rows] == [2 ** n + 1 for n in range(1, 7)]
    assert report.has_rate_numerically


def test_poles_attracting():
    assert poles_attracting(Power(2))
    assert poles_attracting(Quadratic(0.1))
    assert not poles_attracting(DILATION)  # the radius doubling repels from S
    # the product form of the squaring map attracts at both poles, like z^2
    assert poles_attracting(ProductMap(AffineProfile(2.0, 0.0), 2))


def test_crosscheck_squaring_all_bounds_hold():
    report = theorem_a_crosscheck(Power(2), 4)
    assert report.status == "ok"
    assert report.passed
    for row in report.rows:
        assert row.theorem3_sum == 2 ** row.n - 1
        assert row.degree_power <= row.count
        assert row.theorem3_sum <= row.count


def test_crosscheck_dilation_reports_attractor_failure():
    report = theorem_a_crosscheck(DILATION, 3)
    assert report.status == "attractors_not_verified"
    assert [r.count for r in report.rows] == [2.0, 2.0, 2.0]
    # no contradiction: the bound columns are simply out of scope
    assert all(r.theorem3_sum is None for r in report.rows)


def test_crosscheck_quadratic_reports_hypothesis_failure():
    report = theorem_a_crosscheck(Quadratic(0.1), 2)
    assert report.status == "hypothesis_failed"
    assert report.witness is not None
    assert [r.count for r in report.rows] == [3.0, 5.0]


def test_crosscheck_reports_quadratic_without_attractor():
    # c near -1: both finite fixed points repel, so the annulus has no S anchor
    report = theorem_a_crosscheck(Quadratic(-1.071666 + 0.073510j), 3)
    assert report.status == "scope_unavailable"
    assert "no attracting finite fixed point" in report.detail
    assert [r.count for r in report.rows] == [3.0, 5.0, 9.0]
    assert all(r.theorem3_sum is None for r in report.rows)


def test_crosscheck_keeps_rows_when_core_image_hits_pole():
    # the core s = 0 lands at s = 0.95 * (2^n - 1) under f^n, beyond the
    # |s| < ln(1e6) window at n = 4, so decompose(f^4) raises ImageHitsPole
    spec = ProductMap(AffineProfile(2.0, 0.95), 2)
    report = theorem_a_crosscheck(spec, 4)
    assert report.status == "ok"
    assert [r.count for r in report.rows] == [3.0, 5.0, 9.0, 17.0]
    assert [r.theorem3_sum for r in report.rows] == [1, 3, 7, None]


def test_census_csv_schema():
    text = census_csv(Power(2), 3)
    lines = text.strip().splitlines()
    assert lines[0] == "n,count,rate,bound_dn,theorem3_sum"
    assert lines[1].startswith("1,3,")
    assert lines[1].endswith(",2,1")
    assert lines[3].split(",")[1] == "9"


def test_census_csv_continuum_marker():
    text = census_csv(ProductMap(AffineProfile(1.0, 0.0), 1), 1)
    row = text.strip().splitlines()[1].split(",")
    assert row[1] == "inf"
    assert row[2] == ""  # rate undefined

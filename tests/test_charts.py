"""Chart arithmetic, map evaluation, profiles, and the map-spec grammar."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphere_census.census import _mod_twist, _shifted
from sphere_census.charts import (
    AffineProfile,
    Chart,
    Iterate,
    N_POLE,
    ParseError,
    PiecewiseLinearProfile,
    PoleHasNoCoordinate,
    PolyProfile,
    Power,
    ProductMap,
    Quadratic,
    RationalPair,
    S_POLE,
    _ComposedRadial,
    _ComposedTwist,
    SpherePoint,
    as_product_view,
    as_rational,
    chordal,
    evaluate,
    evaluate_many,
    format_map,
    from_latlon,
    parse_map,
    to_chart,
)

INF = math.inf


# ---------------------------------------------------------------------------
# Points and charts
# ---------------------------------------------------------------------------


@given(
    mag=st.floats(min_value=-6.0, max_value=6.0),
    ang=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_chart_round_trip(mag, ang):
    z = 10.0 ** mag * cmath.exp(1j * ang)
    p = SpherePoint(z, Chart.NORTH)
    back = to_chart(to_chart(p, Chart.SOUTH), Chart.NORTH)
    assert abs(back.value - z) <= 1e-12 * abs(z)


def test_poles_are_chart_origin_points():
    assert S_POLE.is_pole and S_POLE.chart is Chart.NORTH
    assert N_POLE.is_pole and N_POLE.chart is Chart.SOUTH
    assert S_POLE.latitude() == -INF
    assert N_POLE.latitude() == INF
    # normalization never moves a pole to the other chart
    assert S_POLE.normalized() == S_POLE


def test_to_chart_examples():
    p = to_chart(SpherePoint(2 + 0j), Chart.SOUTH)
    assert p.chart is Chart.SOUTH and p.value == 0.5 + 0j
    q = to_chart(SpherePoint(1 + 0j), Chart.SOUTH)
    assert q.value == 1 + 0j
    with pytest.raises(PoleHasNoCoordinate):
        to_chart(S_POLE, Chart.SOUTH)
    with pytest.raises(PoleHasNoCoordinate):
        to_chart(N_POLE, Chart.NORTH)


def test_normalized_keeps_unit_bound():
    p = SpherePoint(5 + 5j).normalized()
    assert p.chart is Chart.SOUTH and abs(p.value) <= 1.0


def test_chordal_metric():
    assert chordal(S_POLE, N_POLE) == pytest.approx(2.0)
    assert chordal(SpherePoint(1 + 0j), SpherePoint(1 + 0j, Chart.SOUTH)) == 0.0
    # agrees with the planar formula for finite points
    a, b = 0.3 + 0.1j, -0.2 + 0.5j
    want = 2 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
    assert chordal(SpherePoint(a), SpherePoint(b)) == pytest.approx(want)


def test_from_latlon_round_trip():
    p = from_latlon(0.4, 1.2)
    assert p.latitude() == pytest.approx(0.4)
    assert p.angle() == pytest.approx(1.2)
    assert from_latlon(-INF, 0.0) == S_POLE
    assert from_latlon(INF, 0.3) == N_POLE


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_power_examples():
    out = evaluate(Power(2), SpherePoint(2 + 0j))
    assert chordal(out, SpherePoint(4 + 0j)) < 1e-12
    assert evaluate(Power(2), N_POLE) == N_POLE  # exact, not approximate
    assert evaluate(Power(2), S_POLE) == S_POLE
    # negative exponents swap the poles
    assert evaluate(Power(-1), S_POLE) == N_POLE
    assert evaluate(Power(-1), N_POLE) == S_POLE


def test_evaluate_quadratic_examples():
    out = evaluate(Quadratic(0.1), SpherePoint(0j))
    assert out.chart is Chart.NORTH and out.value == pytest.approx(0.1)
    assert evaluate(Quadratic(0.1), N_POLE) == N_POLE
    # south-chart formula w -> w^2/(1 + c w^2)
    w = 0.5 + 0.1j
    c = 0.1 + 0.0j
    got = evaluate(Quadratic(c), SpherePoint(w, Chart.SOUTH))
    want = w * w / (1 + c * w * w)
    assert chordal(got, SpherePoint(want, Chart.SOUTH)) < 1e-12


def test_evaluate_rational_is_consistent_across_charts():
    spec = RationalPair((1, 0, 2), (3, 1))  # (1 + 2z^2) / (3 + z)
    for z in (0.3 + 0.2j, 2.5 - 1j, -4 + 0.1j):
        north = evaluate(spec, SpherePoint(z))
        south = evaluate(spec, to_chart(SpherePoint(z), Chart.SOUTH))
        assert chordal(north, south) < 1e-12


def test_evaluate_reciprocal():
    spec = RationalPair((1,), (0, 1))
    out = evaluate(spec, SpherePoint(0.25 + 0j, Chart.SOUTH))  # z = 4
    assert chordal(out, SpherePoint(0.25 + 0j)) < 1e-12
    assert evaluate(spec, S_POLE) == N_POLE


def test_evaluate_product_pole_images_follow_end_limits():
    up = ProductMap(AffineProfile(2.0, 0.0), 2)
    assert evaluate(up, S_POLE) == S_POLE
    assert evaluate(up, N_POLE) == N_POLE
    down = ProductMap(AffineProfile(-1.0, 0.0), 2)
    assert evaluate(down, S_POLE) == N_POLE
    assert evaluate(down, N_POLE) == S_POLE


def test_evaluate_product_matches_power():
    spec = ProductMap(AffineProfile(2.0, 0.0), 2)  # same map as z^2
    for z in (0.5 + 0.2j, 1.5 - 0.7j, -0.1 + 0.9j):
        got = evaluate(spec, SpherePoint(z))
        want = evaluate(Power(2), SpherePoint(z))
        assert chordal(got, want) < 1e-12


def test_iterate_equals_repeated_application():
    rng = np.random.default_rng(3)
    base = Quadratic(0.1 + 0.05j)
    spec = Iterate(base, 3)
    for _ in range(1000):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = SpherePoint(z)
        manual = p
        for _ in range(3):
            manual = evaluate(base, manual)
        assert chordal(evaluate(spec, p), manual) <= 1e-9
    # poles exactly
    assert evaluate(Iterate(Power(2), 4), N_POLE) == N_POLE
    assert evaluate(Iterate(Power(-1), 3), S_POLE) == N_POLE


THREE_BRANCH = PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF)))

radials = st.one_of(
    st.builds(AffineProfile, st.sampled_from([-2.5, -1.5, 1.5, 2.0, 3.0]),
              st.floats(-0.5, 0.5)),
    st.builds(lambda a, c: PolyProfile((0.1, a, 0.0, c)),
              st.floats(0.5, 2.0), st.sampled_from([-0.2, 0.3])),
    st.just(THREE_BRANCH),
    st.just(PiecewiseLinearProfile(((-INF, -INF), (-0.5, -0.2), (0.7, 1.4), (INF, INF)))),
)
twists = st.one_of(
    st.just(AffineProfile(0.0, 0.0)),
    st.builds(AffineProfile, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.builds(lambda a, b: PolyProfile((a, b, 0.1)), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
base_specs = st.one_of(
    st.builds(Power, st.integers(-3, 3)),
    st.builds(lambda re, im: Quadratic(complex(re, im)), st.floats(-1.2, 0.3), st.floats(-0.5, 0.5)),
    st.sampled_from([RationalPair((0, 2, 0, 1), (1, 0, 3)), RationalPair((1, 0, 2), (3, 1)),
                     RationalPair((1j, 0.3, 2 - 1j), (0.5, 1.5j))]),
    st.builds(ProductMap, radials, st.sampled_from([-3, -2, -1, 1, 2, 3]), twists),
)
specs = st.one_of(base_specs, st.builds(Iterate, base_specs, st.integers(1, 3)))
# both poles (0 in either chart), the unit circle, and general points
coordinates = st.one_of(
    st.just(0j),
    st.floats(0.0, 2 * math.pi).map(lambda a: cmath.exp(1j * a)),
    st.builds(lambda m, a: 10.0 ** m * cmath.exp(1j * a),
              st.floats(-6.0, 6.0), st.floats(0.0, 2 * math.pi)),
)


@given(spec=specs, points=st.lists(st.tuples(coordinates, st.booleans()),
                                   min_size=1, max_size=8))
def test_evaluate_many_matches_evaluate(spec, points):
    values = np.array([z for z, _ in points], dtype=complex)
    north = np.array([n for _, n in points])
    try:
        want = [evaluate(spec, SpherePoint(z, Chart.NORTH if n else Chart.SOUTH))
                for z, n in points]
    except Exception as exc:
        with pytest.raises(type(exc)):
            evaluate_many(spec, values, north)
        return
    got, got_north = evaluate_many(spec, values, north)
    # the batch repeats the scalar arithmetic, so the results are identical
    assert [w.chart is Chart.NORTH for w in want] == got_north.tolist()
    assert [w.value for w in want] == got.tolist()


profiles = st.one_of(
    radials,
    twists,
    st.builds(_ComposedRadial, radials, radials),
    st.builds(_ComposedTwist, st.integers(-3, 3), twists, radials, twists),
    radials.map(_shifted),
    twists.map(_mod_twist),
)


@given(profile=profiles,
       ss=st.lists(st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-INF, INF, -1.0, 1.0])),
                   min_size=1, max_size=12))
def test_profile_many_matches_call(profile, ss):
    try:
        want = [profile(s) for s in ss]
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            profile.many(np.array(ss))
        return
    got = profile.many(np.array(ss)).tolist()
    assert got == want or np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# Declared degrees
# ---------------------------------------------------------------------------


def test_declared_degrees():
    assert Power(2).declared_degree == 2
    assert Power(-1).declared_degree == 1   # 1/z is a rotation of the sphere
    assert Power(-2).declared_degree == 2
    assert Quadratic(0.1).declared_degree == 2
    assert RationalPair((1,), (0, 1)).declared_degree == 1
    assert RationalPair((1, 0, 0, 5), (0, 1)).declared_degree == 3
    assert ProductMap(AffineProfile(2, 0), 3).declared_degree == 3
    assert ProductMap(AffineProfile(-1, 0), 3).declared_degree == -3
    assert ProductMap(AffineProfile(2, 0), -2).declared_degree == -2
    assert Iterate(Power(2), 3).declared_degree == 8
    assert Iterate(ProductMap(AffineProfile(-1, 0), 3), 2).declared_degree == 9


def test_three_branch_profile_degree_is_net_crossing():
    prof = PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF)))
    assert ProductMap(prof, 2).declared_degree == 2


def test_rational_rejects_common_roots():
    with pytest.raises(ValueError):
        # both vanish at z = 1
        RationalPair((-1, 1), (-1, 0, 1))


def test_product_rejects_finite_ends_with_rotation():
    with pytest.raises(ValueError):
        ProductMap(AffineProfile(0.0, 0.3), 2)
    # angular degree 0 with a tame twist is fine
    ProductMap(AffineProfile(0.0, 0.3), 0)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_affine_profile_limits():
    q = AffineProfile(2.0, 1.0)
    assert q(0.5) == 2.0
    assert q.end_limits() == (-INF, INF)
    assert AffineProfile(-0.5, 0).end_limits() == (INF, -INF)
    assert AffineProfile(0, 3).end_limits() == (3.0, 3.0)
    assert AffineProfile(0, 3)(INF) == 3.0


def test_poly_profile_limits():
    q = PolyProfile((1.0, 0.0, -2.0))  # 1 - 2 s^2
    assert q(2.0) == pytest.approx(-7.0)
    assert q.end_limits() == (-INF, -INF)
    assert PolyProfile((0, 1, 0, 4)).end_limits() == (-INF, INF)


def test_pwl_profile_crossings_and_continuity():
    prof = PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF)))
    assert prof.pole_crossings() == ((-1.0, 1), (1.0, -1))
    assert prof(-1.0) == INF and prof(1.0) == -INF
    assert prof.end_limits() == (-INF, INF)
    # strictly monotone along each branch
    for lo, hi in ((-6, -1.01), (-0.99, 0.99), (1.01, 6)):
        ss = np.linspace(lo, hi, 200)
        vals = [prof(s) for s in ss]
        diffs = np.diff(vals)
        assert (diffs > 0).all() or (diffs < 0).all()
    # continuity near a crossing: values blow up towards it
    assert prof(-1.001) > 5
    assert prof(-0.999) > 5 or prof(-0.999) < -5  # other side dives from +inf
    assert prof(0.0) == pytest.approx(0.0)


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(((0.0, 1.0), (1.0, 2.0)))  # no infinite ends
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(((-INF, INF), (0.0, INF), (INF, 0.0)))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


def test_as_rational_flattens_power_iterates():
    p, q = as_rational(Iterate(Power(2), 3))
    assert len(p) - 1 == 8 and q == (1 + 0j,)


def test_as_rational_composes_quadratic():
    p, q = as_rational(Iterate(Quadratic(0.5), 2))
    # (z^2 + c)^2 + c with c = 1/2: z^4 + z^2 + 3/4
    want = np.array([0.75, 0, 1, 0, 1])
    assert np.allclose(np.array(p, dtype=complex), want)
    assert q == (1 + 0j,)


def test_product_view_of_iterate_composes_affine():
    view = as_product_view(Iterate(ProductMap(AffineProfile(2, 0), 2), 3))
    assert view.angular_degree == 8
    assert isinstance(view.radial, AffineProfile)
    assert view.radial.a == 8.0


def test_product_view_twist_composition():
    base = ProductMap(AffineProfile(1.0, 0.0), 2, AffineProfile(0.0, 0.5))
    view = as_product_view(Iterate(base, 2))
    # theta -> 4 theta + (2*0.5 + 0.5)
    assert view.angular_degree == 4
    assert view.twist(0.7) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "power:d=2",
        "quad:c=0.1+0.0i",
        "rational:P=1,0,0;Q=0,0,1",
        "product:q=affine(2,0);d=2;h=zero",
        "iter:n=3(power:d=2)",
        "product:q=pwl(-inf:-inf,-1:inf,1:-inf,inf:inf);d=2",
    ],
)
def test_grammar_round_trip(text):
    spec = parse_map(text)
    again = parse_map(format_map(spec))
    assert again == spec


def test_grammar_examples():
    assert parse_map("power:d=2") == Power(2)
    assert parse_map("quad:c=0.1+0.0i") == Quadratic(0.1 + 0j)
    spec = parse_map("rational:P=1,0,0;Q=0,0,1")
    assert spec.p == (1 + 0j,) and spec.q == (0j, 0j, 1 + 0j)
    spec = parse_map("iter:n=3(power:d=2)")
    assert spec == Iterate(Power(2), 3)


@pytest.mark.parametrize(
    "bad",
    [
        "power:k=2",              # unknown key
        "power:d=2;d=3",          # duplicate key
        "quad:c=xyz",
        "nonsense:d=1",
        "product:q=affine(2,0)",  # missing d
        "rational:P=1,0",         # missing Q
        "iter:n=0(power:d=2)",    # parses but n must be >= 1
    ],
)
def test_grammar_rejects(bad):
    with pytest.raises((ParseError, ValueError)):
        parse_map(bad)

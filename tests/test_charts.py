"""Chart arithmetic, map evaluation, profiles, and the map-spec grammar."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphere_census.census import _mod_twist
from sphere_census.charts import (
    AffineProfile,
    CHART_OVERFLOW,
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
    _Shifted,
    _angles,
    _horner,
    _normalized_many,
    _shifted,
    SpherePoint,
    as_product_view,
    chart_value,
    chordal,
    chordal_many,
    curve_image,
    dedup_many,
    evaluate,
    evaluate_many,
    format_map,
    from_latlon,
    from_latlon_many,
    latitudes,
    parse_map,
    solve_profile_level,
    to_chart,
    wrap_angle,
)
from sphere_census.gallery import GALLERY
from sphere_census.winding import SampledCurve, circle

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


def point_arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of ``SpherePoint``s as (values, north)."""
    return (np.array([p.value for p in points], dtype=complex),
            np.array([p.chart is Chart.NORTH for p in points], dtype=bool))


def chordal_to_points(values, north, points) -> np.ndarray:
    """Chordal distance of each batch image (values, north) from the scalar
    image, a ``SpherePoint``: the two may sit in different charts where
    |image| rounds to either side of 1."""
    return chordal_many(values, north, *point_arrays(points))


# Batch and scalar images agree to rounding.  An iterate to n = 3 of a map of
# degree up to 3 multiplies a rounding step in an angle by up to 27; the
# worst of 40,000 draws of these specs was 1.6e-14.
EVALUATE_BOUND = 1e-12


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
    assert (chordal_to_points(got, got_north, want) <= EVALUATE_BOUND).all()


@given(c=st.builds(complex, st.floats(-2.0, 1.0), st.floats(-1.0, 1.0)) | st.floats(-2.0, 1.0),
       points=st.lists(st.tuples(coordinates, st.booleans()), min_size=1, max_size=8))
# a negative real point in the south chart (the imaginary zero's sign) and a
# tie |1 + c w^2| = |w^2| (the image's chart)
@example(c=-0.546503832162518, points=[(-0.6422919237420782 + 0j, False)])
@example(c=0.0, points=[(1 + 0j, False)])
def test_quadratic_evaluates_as_its_rational_pair(c, points):
    """A quadratic is the rational map (c + z^2)/1, bit for bit, in both
    charts and on both evaluation paths."""
    quad, pair = Quadratic(complex(c)), RationalPair((c, 0, 1), (1,))
    for z, north in points:
        p = SpherePoint(z, Chart.NORTH if north else Chart.SOUTH)
        assert repr(evaluate(quad, p)) == repr(evaluate(pair, p))
    values = [z for z, _ in points]
    norths = [n for _, n in points]
    for got, want in zip(evaluate_many(quad, values, norths), evaluate_many(pair, values, norths)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", [
    "quad:c=0.1+0.0i", "quad:c=-1.071666+0.073510i", "rational:P=0,2,0,1;Q=1,0,3",
    "rational:P=1j,0.3,2-1j;Q=0.5,1.5j", "iter:n=3(quad:c=-0.5+0.3i)",
    "iter:n=2(rational:P=0,2,0,1;Q=1,0,3)",
])
def test_scalar_evaluate_is_bit_identical_to_the_batch(text):
    """The scalar ``evaluate`` is the batch's reference: each image within
    1e-14 chordally, in the same chart away from |image| = 1 (the test keeps
    its name; the two agree to rounding, not bit for bit)."""
    spec = parse_map(text)
    rng = np.random.default_rng(13)
    values = 10.0 ** rng.uniform(-3.0, 0.0, 400) * np.exp(2j * np.pi * rng.uniform(size=400))
    # real and imaginary points, whose zero parts carry a sign
    values[:8] = [0.5, -0.5, 0.25j, -0.25j, 1.0, -1.0, 0.0, 1j]
    for north in (True, False):
        chart = Chart.NORTH if north else Chart.SOUTH
        want = [evaluate(spec, SpherePoint(z, chart)) for z in values.tolist()]
        got, got_north = evaluate_many(spec, values, north)
        assert (chordal_to_points(got, got_north, want) <= 1e-14).all()
        tie = np.abs(np.abs(got) - 1.0) < 1e-12
        assert ([w.chart is Chart.NORTH for w in want] == got_north)[~tie].all()


curves = st.one_of(
    st.builds(circle, st.sampled_from([0j, 0.5 + 0j, 1 + 1j, -2j]), st.floats(0.01, 3.0),
              st.sampled_from([16, 64]), st.sampled_from(list(Chart))),
    # explicit samples, the poles of either chart among them
    st.builds(SampledCurve, st.lists(coordinates, min_size=8, max_size=12, unique=True),
              st.sampled_from(list(Chart))),
)


@given(spec=specs, curve=curves, target=st.sampled_from(list(Chart)))
# 1/z^2 sends the sample z = 0 to N, which has no north coordinate
@example(spec=Power(-2), target=Chart.NORTH,
         curve=SampledCurve((0j, 1, 1j, -1, -1j, 2, 2j, -2), Chart.NORTH))
# the last sample's image lies within ~1e-308 of S: 1/w is inf in both, and
# the batch must not warn where the scalar division is silent
@example(spec=ProductMap(PolyProfile((0.1, 1.0625, 0.0, 0.3)), -2), target=Chart.SOUTH,
         curve=SampledCurve((1, *(cmath.exp(1j * a) for a in (1, 2, 3, 4, 1.5, 2.5)),
                             10 ** -5.75 * cmath.exp(1j)), Chart.NORTH))
def test_curve_image_matches_the_scalar_image(spec, curve, target):
    """One batch gives each sample's scalar image to rounding (the sphere
    points of the two target-chart coordinates within ``EVALUATE_BOUND``
    chordally, and an infinite coordinate where the scalar one is), or the
    error the first failing scalar image raises; on a parameterized curve
    the refinement closure gives the batch's own images on the sample grid,
    and on any curve the scalar image of each curve point off it to
    rounding: seeded parameters in [0, 2), one on the closing edge and one
    below the first sample's."""
    north = target is Chart.NORTH

    def scalar(z):
        return chart_value(evaluate(spec, SpherePoint(z, curve.chart)), target)

    def assert_close(got, want):
        want = np.array(want, dtype=complex)
        finite = np.isfinite(want)
        assert (np.isfinite(got) == finite).all()
        # coordinates past 1 are read in the other chart, where they are small
        flags = np.full(finite.sum(), north)
        a, b = _normalized_many(got[finite], flags), _normalized_many(want[finite], flags)
        assert (chordal_many(*a, *b) <= EVALUATE_BOUND).all()

    try:
        want = [scalar(z) for z in curve.points.tolist()]
    except Exception as exc:
        with pytest.raises(Exception) as info:
            curve_image(spec, curve, target)
        assert type(info.value) is type(exc)
        return
    got, image_at = curve_image(spec, curve, target)
    assert_close(got, want)
    if curve.param_fn is not None:
        assert image_at(curve.params).tobytes() == got.tobytes()
    ts = np.concatenate([np.random.default_rng(got.size).uniform(0.0, 2.0, 16),
                         [0.5 * (curve.params[-1] + curve.params[0] + 1.0),
                          0.5 * curve.params[0]]])
    try:
        want = [scalar(z) for z in curve.point_at(ts).tolist()]
    except Exception as exc:
        with pytest.raises(Exception) as info:
            image_at(ts)
        assert type(info.value) is type(exc)
        return
    assert_close(image_at(ts), want)


def test_horner_matches_numpy_polyval():
    rng = np.random.default_rng(29)
    for size in (1, 2, 3, 4, 7):
        coeffs = tuple((rng.normal(size=size) + 1j * rng.normal(size=size)).tolist())
        for x in (rng.normal(size=50) + 1j * rng.normal(size=50)).tolist() + [0j, -0.0 - 0.0j, 2.0]:
            want = complex(npoly.polyval(x, np.array(coeffs)))
            assert repr(_horner(coeffs, x)) == repr(want)
    # real profiles, scalar and batch, at latitudes whose values overflow to
    # +-inf, or to nan through an infinite coefficient, with no warning
    s = np.concatenate([rng.normal(scale=4.0, size=50), [0.0, -0.0, 1e200, -1e200, -1e103]])
    seen = set()
    for coeffs in ((0.0, 3.0, 0.0, -0.5), (1.5,), (-2.0, 0.25), (1.0, math.inf),
                   (-math.inf, 0.0, 1.0), tuple(rng.normal(size=6).tolist())):
        profile = PolyProfile(coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [repr(float(npoly.polyval(x, np.array(coeffs)))) for x in s.tolist()]
        assert [repr(profile(x)) for x in s.tolist()] == want
        assert [repr(profile(x)) for x in s] == want   # numpy float64 latitudes
        assert list(map(repr, profile.many(s).tolist())) == want
        seen.update(want)
    assert {"inf", "-inf", "nan"} <= seen


# the views of short iterates: an affine radial folded, any other radial and
# a nonzero twist read off the base view and the order
iterated_views = st.builds(lambda q, d, h, n: as_product_view(Iterate(ProductMap(q, d, h), n)),
                           radials, st.integers(-3, 3), twists, st.integers(2, 4))
profiles = st.one_of(
    radials,
    twists,
    iterated_views.map(lambda view: view.radial),
    iterated_views.map(lambda view: view.twist),
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
    assert_profile_close(profile.many(np.array(ss)), want)


def assert_profile_close(got: np.ndarray, want) -> None:
    """``many`` against ``__call__``: the same infinities and NaNs, and finite
    values within 1e-12 relative to max(1, |value|).  numpy's exp, log,
    log1p and tanh may round apart from libm's in the last bit; the worst of
    20,000 draws of these profiles was 3.6e-15."""
    want = np.array(want, dtype=float)
    finite = np.isfinite(want)
    assert (np.isfinite(got) == finite).all()
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    err = np.abs(got[finite] - want[finite])
    assert (err <= 1e-12 * np.maximum(1.0, np.abs(want[finite]))).all()


# coordinates of either chart out to the cap, with the poles, and a second
# point that is free, within 1e-9 of the first, or the first's other-chart
# coordinate moved by as little
chart_coordinates = st.one_of(
    st.sampled_from([0j, complex(CHART_OVERFLOW), 1 + 0j]),
    st.builds(lambda m, a: 10.0 ** m * cmath.exp(1j * a),
              st.floats(-8.0, 7.999), st.floats(0.0, 2 * math.pi)),
)


@st.composite
def point_pairs(draw):
    z, north = draw(chart_coordinates), draw(st.booleans())
    kind = draw(st.sampled_from(["free", "near", "other chart"]))
    if kind == "free":
        return z, north, draw(chart_coordinates), draw(st.booleans())
    eps = draw(st.sampled_from([0.0, 1e-17, 1e-13, 1e-9])) * cmath.exp(
        1j * draw(st.floats(0.0, 2 * math.pi)))
    if kind == "near":
        return z, north, z + eps, north
    return z, north, (1 / z if z and abs(1 / z) <= CHART_OVERFLOW else 0j) + eps, not north


@given(pairs=st.lists(point_pairs(), min_size=1, max_size=8))
# a coordinate whose modulus rounds to 1 / CHART_OVERFLOW, but whose
# other-chart coordinate lies past the cap
@example(pairs=[(9.999999999999982e-09 + 5.96046447753906e-16j, True, 0j, False)])
# chart norms where math.hypot and numpy's hypot round apart
@example(pairs=[(-2.50075149791556 - 1.0800597973040416j, True,
                 0.060355688296061825 - 0.2116537347695932j, False)])
def test_chordal_many_matches_chordal(pairs):
    """The batch distances are the scalar ones to rounding: within 1e-14 of
    the range [0, 2]; numpy's complex products may fuse a multiply-add where
    CPython's round twice."""
    v1, n1, v2, n2 = (np.array(col) for col in zip(*pairs))
    p = [SpherePoint(z, Chart.NORTH if n else Chart.SOUTH) for z, n in zip(v1, n1)]
    q = [SpherePoint(z, Chart.NORTH if n else Chart.SOUTH) for z, n in zip(v2, n2)]
    got = chordal_many(v1, n1, v2, n2)
    assert (np.abs(got - [chordal(a, b) for a, b in zip(p, q)]) <= 1e-14).all()
    for pole in (S_POLE, N_POLE):
        got = chordal_many(v1, n1, pole.value, pole.chart is Chart.NORTH)
        assert (np.abs(got - [chordal(a, pole) for a in p]) <= 1e-14).all()


def dedup_all_pairs(points, radius):
    """The greedy quadratic loop the height sweep replaced.  Each pair is
    measured by ``chordal_many``, the sweep's own arithmetic, so a pair at a
    distance within rounding of the radius (a meridian step of the radius
    across the unit circle) is judged as the sweep judges it."""

    def distance(p, q):
        return chordal_many(p.value, p.chart is Chart.NORTH, q.value, q.chart is Chart.NORTH)

    kept = []
    for p in points:
        if all(distance(p, other) > radius for other in kept):
            kept.append(p)
    return kept


# clusters: a few base points, each copied with offsets near the radii, in
# the chart coordinate or along a meridian (where height moves fastest)
offsets = st.sampled_from([0.0, 1e-8, 1e-7, 2e-7, 1e-6, 3e-6, 1e-3])
clustered_points = st.lists(coordinates, min_size=1, max_size=4).flatmap(
    lambda bases: st.lists(st.one_of(
        st.builds(
            lambda k, eps, a, north: SpherePoint(
                bases[k % len(bases)] + eps * cmath.exp(1j * a),
                Chart.NORTH if north else Chart.SOUTH),
            st.integers(0, 3), offsets, st.floats(0.0, 2 * math.pi), st.booleans()),
        st.builds(
            lambda k, ds, dt: from_latlon(math.log(abs(bases[k % len(bases)]) or 1.0) + ds,
                                          cmath.phase(bases[k % len(bases)]) + dt),
            st.integers(0, 3), offsets, offsets),
    ), max_size=30))


# many points at one height, as a product map's preimages of one value lie:
# |d| angles evenly spaced on a latitude, a few of them again one turn on, on
# one latitude or on two nearby ones
ring_points = st.builds(
    lambda s, shifts, d, t, again: [from_latlon(s + ds, (t + 2 * math.pi * k) / d)
                                    for ds in shifts for k in [*range(abs(d)), *again]],
    st.floats(-3.0, 3.0), st.lists(st.sampled_from([0.0, 1e-7, 1e-4, 0.2]), min_size=1,
                                   max_size=2),
    st.integers(-60, 60).filter(bool), st.floats(0.0, 2 * math.pi),
    st.lists(st.integers(0, 120), max_size=3),
)


@given(points=st.one_of(clustered_points, ring_points),
       radius=st.sampled_from([1e-7, 1e-6, 1e-4, 0.3]))
def test_dedup_sweep_matches_all_pairs(points, radius):
    kept = dedup_many(*point_arrays(points), radius)
    assert [points[i] for i in kept.tolist()] == dedup_all_pairs(points, radius)


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


@pytest.mark.parametrize("nodes", [
    ((-INF, -INF), (-1.5, 0.0), (0.0, INF), (INF, -INF)),
    ((-INF, -INF), (-1.5, INF), (0.0, -INF), (INF, INF)),
    ((-INF, -INF), (-1.0, INF), (1.0, -INF), (INF, INF)),
    ((-INF, -INF), (-1.0, -2.0), (-0.5, 0.2), (0.5, -0.2), (1.0, 2.0), (INF, INF)),
])
def test_pwl_one_rounding_step_off_each_node(nodes):
    # next to a node the segment parameter can round to exactly 0 or 1; the
    # ramp then gives the node value, and both evaluators agree to rounding:
    # one may round the parameter to 1 where the other stops an ulp short
    prof = PiecewiseLinearProfile(nodes)
    for s, _ in nodes[1:-1]:
        ss = [float(np.nextafter(s, -INF)), float(np.nextafter(s, INF))]
        assert_profile_close(prof.many(np.array(ss)), [prof(x) for x in ss])


def test_pwl_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(((0.0, 1.0), (1.0, 2.0)))  # no infinite ends
    with pytest.raises(ValueError):
        PiecewiseLinearProfile(((-INF, INF), (0.0, INF), (INF, 0.0)))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [-3, -1, 1, 2])
def test_monomial_views_match_evaluate(k):
    c = 1.7 - 0.6j
    p, q = ((c,), (0j,) * -k + (1,)) if k < 0 else ((0j,) * k + (c,), (1,))
    spec = RationalPair(p, q)
    view = as_product_view(spec)
    assert view.angular_degree == k
    rng = np.random.default_rng(k + 10)
    for _ in range(200):
        s, theta = rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)
        image = from_latlon(view.radial(s), k * theta + view.twist(s))
        assert chordal(image, evaluate(spec, from_latlon(s, theta))) < 1e-12


@pytest.mark.parametrize("spec", [
    Power(-2),
    Quadratic(0),
    RationalPair((0, 0, 0, 1.5 - 2j), (1,)),
    Iterate(Quadratic(0), 3),
    Iterate(ProductMap(THREE_BRANCH, 2), 2),
], ids=["power", "squaring", "monomial", "iterate", "product-iterate"])
def test_product_views_are_product_maps(spec):
    assert isinstance(as_product_view(spec), ProductMap)


def test_product_map_is_its_own_view():
    spec = ProductMap(THREE_BRANCH, 3, AffineProfile(0.2, 0.1))
    assert as_product_view(spec) is spec


def test_squaring_quadratic_has_the_power_view():
    assert as_product_view(Quadratic(0)) == as_product_view(Power(2))
    assert as_product_view(Quadratic(0.1)) is None
    assert as_product_view(RationalPair((1, 0, 1), (1,))) is None


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


# deep iterates whose walk through the charts keeps its rounding: a radial
# profile of slope 1 off a bounded core (a pwl translation by c, or a pwl
# map contracting onto s = 0) or an affine q(s) = +-s + b, and d in -1..1, so
# that the angle is read mod 2 pi; orders to 600 (pwl) and 1000 (a twisted
# affine map), past the depth Python allows a recursion
deep_twists = st.one_of(st.just(AffineProfile(0.0, 0.0)),
                        st.builds(AffineProfile, st.floats(-1e-3, 1e-3), st.floats(-1.0, 1.0)))
deep_iterates = st.one_of(
    st.builds(lambda q, d, h, n: (ProductMap(q, d, h), n),
              st.one_of(st.floats(-0.02, 0.02).map(lambda c: PiecewiseLinearProfile(
                  ((-INF, -INF), (0.0, c), (INF, INF)))),
                        st.just(PiecewiseLinearProfile(
                            ((-INF, -INF), (-1.0, -0.5), (1.0, 0.5), (INF, INF))))),
              st.integers(-1, 1), deep_twists, st.integers(2, 600)),
    st.builds(lambda a, b, d, h, n: (ProductMap(AffineProfile(a, b), d, h), n),
              st.sampled_from([-1.0, 1.0]), st.floats(-0.01, 0.01), st.integers(-1, 1),
              deep_twists.filter(lambda h: h != AffineProfile(0.0, 0.0)), st.integers(2, 1000)),
)


@settings(max_examples=30, deadline=None)
@given(case=deep_iterates, ss=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       theta=st.floats(-math.pi, math.pi))
@example(case=(ProductMap(PiecewiseLinearProfile(((-INF, -INF), (0.0, 0.5), (INF, INF))), 1,
                          AffineProfile(0.0, 0.1)), 600), ss=[-3.0, 0.0, 3.0], theta=1.0)
@example(case=(ProductMap(AffineProfile(1.0, 0.0), 1, AffineProfile(0.0, 0.1)), 1000),
         ss=[-3.0, 0.0, 3.0], theta=1.0)
def test_iterated_view_matches_walking_the_base(case, ss, theta):
    """The radial profile and twist of an iterate's view, scalar and batch,
    give the latitude and angle of walking the base n times (``evaluate``
    and ``evaluate_many`` of the ``Iterate``) within 1e-12 relative to
    max(1, |value|)."""
    base, n = case
    spec, view = Iterate(base, n), as_product_view(Iterate(base, n))
    ss = np.array(ss)
    values, north = evaluate_many(spec, *from_latlon_many(ss, np.full(ss.size, theta)))
    images = [evaluate(spec, from_latlon(s, theta)) for s in ss.tolist()]
    for radial, twist, lat, ang in (
            (view.radial.many(ss), view.twist.many(ss), latitudes(values, north),
             _angles(values, north)),
            ([view.radial(s) for s in ss.tolist()], [view.twist(s) for s in ss.tolist()],
             [p.latitude() for p in images], [p.angle() for p in images])):
        radial, angle = np.array(radial), view.angular_degree * theta + np.array(twist)
        assert (np.abs(radial - lat) <= 1e-12 * np.maximum(1.0, np.abs(radial))).all()
        assert (np.abs(wrap_angle(angle - ang)) <= 1e-12 * np.maximum(1.0, np.abs(angle))).all()


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
    # roots 1 and 1.000001: far outside the 1e-10 of a shared root
    assert parse_map("rational:P=-1,1;Q=-1.000001,1").q == (-1.000001, 1)


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
        "rational:P=-1,0,1;Q=1,1",   # (z^2 - 1)/(z + 1): the shared root -1
        "rational:P=1,1;Q=-1,0,1",   # its reciprocal: P of the lower degree
    ],
)
def test_grammar_rejects(bad):
    with pytest.raises(ParseError):
        parse_map(bad)


def test_affine_fixed_latitude_closed_form_matches_the_grid():
    # an affine profile's fixed latitude is -b / (a - 1) at any latitude;
    # inside the grid's |s| < 18 the per-branch bisection finds the same root
    rng = np.random.default_rng(53)
    for _ in range(200):
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 6.0)
        if abs(a - 1.0) < 0.05:
            continue
        s_star = rng.uniform(-17.5, 17.5)
        profile = AffineProfile(a, s_star * (1.0 - a))
        closed = solve_profile_level(_shifted(profile), 0.0)
        grid = solve_profile_level(_Shifted(profile), 0.0)
        assert len(closed) == len(grid) == 1
        assert abs(closed[0] - grid[0]) < 1e-12
        assert abs(closed[0] - s_star) < 1e-12


# ---------------------------------------------------------------------------
# Profile levels
# ---------------------------------------------------------------------------

# The levels ``solve_profile_level`` returned, recorded to 12 digits, on the
# gallery's three-branch profile and its iterates to n = 3: the fixed
# latitudes, as the census solves them (grid 10000), and the latitudes over
# three levels, as ``degree`` solves them.
THREE_BRANCH_LEVELS = {
    1: (
        [-2.52811961673e-16],
        {
            -1.5:
            [-2.70141327798, 0.635148952387, 1.20141327798],
            0.0:
            [-1.69314718056, 0.0, 1.69314718056],
            0.7:
            [-1.40318604889, -0.336375544336, 2.10318604889],
        },
    ),
    2: (
        [-1.43236073012, -1.25157789855, -0.614537756778, -4.19534838559e-16,
         0.614537756778, 1.25157789855, 1.43236073012],
        {
            -1.5:
            [-3.76636789981, -1.42517397875, -1.26295550613, -0.537552204756,
             -0.30731210595, 0.874219973508, 1.06495462182, 2.06032293114, 2.46436878411],
            0.0:
            [-2.86199480406, -1.69314718056, -1.1688476235, -0.689275193006,
             -5.55111512313e-17, 0.689275193006, 1.1688476235, 1.69314718056,
             2.86199480406],
            0.7:
            [-2.62297401188, -1.87541233466, -1.11517242827, -0.782424920866,
             0.166619663094, 0.605377959368, 1.219787963, 1.53903679032, 3.21835847716],
        },
    ),
    3: (
        [-2.58291366473, -2.53576842608, -1.98117516267, -1.88477926453, -1.35302764739,
         -1.29332712393, -1.12919067929, -1.07622080046, -0.859507607712, -0.736318237619,
         -0.511379021803, -0.352380464192, -1.91631090432e-16, 0.352380464192,
         0.511379021803, 0.736318237619, 0.859507607712, 1.07622080046, 1.12919067929,
         1.29332712393, 1.35302764739, 1.88477926453, 1.98117516267, 2.53576842608,
         2.58291366473],
        {
            -1.5:
            [-4.78924026449, -2.64066159684, -2.51201388706, -1.9976168859, -1.85856216184,
             -1.34867413966, -1.29620328724, -1.11992546584, -1.08163760583,
             -0.843211765566, -0.773973090094, -0.487272481788, -0.411246054746,
             0.152458082931, 0.262485629357, 0.559068924219, 0.612296503697, 0.95477444989,
             1.02287236468, 1.21548761809, 1.24905838093, 1.46006468114, 1.55125005589,
             2.22289411316, 2.36115790907, 3.18024839698, 3.54600638994],
            0.0:
            [-3.91757579559, -2.86199480406, -2.43942789549, -2.09603263016,
             -1.69314718056, -1.40675743715, -1.27058027199, -1.1688476235, -1.05558099153,
             -0.891870815622, -0.689275193006, -0.525873310193, -0.331611340872,
             -2.50733745119e-16, 0.331611340872, 0.525873310193, 0.689275193006,
             0.891870815622, 1.05558099153, 1.1688476235, 1.27058027199, 1.40675743715,
             1.69314718056, 2.09603263016, 2.43942789549, 2.86199480406, 3.91757579559],
            0.7:
            [-3.69304718966, -3.0180325763, -2.39874010462, -2.15900741971, -1.6133036062,
             -1.43558561127, -1.25873674935, -1.19440467341, -1.03924061609,
             -0.923038648576, -0.646649318501, -0.544052465401, -0.293771465122,
             -0.0831176270559, 0.372405008874, 0.506184307771, 0.734166577013,
             0.86465118379, 1.07007317778, 1.14262024164, 1.28356767635, 1.37658249885,
             1.77992326929, 2.04096357064, 2.47852471235, 2.73344146373, 4.25759909325],
        },
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_profile_levels_are_the_recorded_ones(n):
    """The grid and the bisection of ``solve_profile_level`` find the
    recorded levels on the gallery's profiles and their iterates to n = 3.
    Every gallery profile but the three-branch one is affine, solved in
    closed form, so the three-branch iterates are the ones recorded."""
    for name, spec in GALLERY.items():
        view = as_product_view(Iterate(spec, n))
        if view is not None and name != "three_branch":
            assert isinstance(view.radial, AffineProfile)
    radial = as_product_view(Iterate(GALLERY["three_branch"], n)).radial
    fixed, levels = THREE_BRANCH_LEVELS[n]

    def assert_recorded(got, want):
        assert len(got) == len(want)
        assert all(abs(g - w) <= 1e-11 * max(1.0, abs(w)) for g, w in zip(got, want))

    assert_recorded(solve_profile_level(_shifted(radial), 0.0, grid=10000), fixed)
    for level, want in levels.items():
        assert_recorded(solve_profile_level(radial, level), want)

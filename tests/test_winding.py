"""Winding numbers, inn/out classification, essentiality, curve fixtures."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_census.charts import Chart
from sphere_census.winding import (
    CurveError,
    InnOut,
    NonFiniteSamples,
    NonIntegralWinding,
    PointOnCurve,
    SampledCurve,
    circle,
    classify,
    concatenate,
    dump_curve_csv,
    is_essential,
    latitude_circle,
    load_curve_csv,
    winding_number,
)


def analytic_winding(fn, p, samples=20000):
    """Oracle: continuous argument sum of an analytic parameterization."""
    ts = np.linspace(0.0, 1.0, samples, endpoint=True)
    zs = np.array([fn(t) for t in ts]) - p
    total = np.unwrap(np.angle(zs))
    return (total[-1] - total[0]) / (2 * math.pi)


def test_unit_circle_examples():
    c = circle(0j, 1.0, 64)
    assert winding_number(c, 0j) == 1
    assert winding_number(c, 3 + 0j) == 0


def test_doubled_sample_list_winds_twice():
    pts = tuple(cmath.exp(2j * math.pi * k / 64) for k in range(64))
    doubled = SampledCurve(pts + pts)
    assert winding_number(doubled, 0j) == 2


def test_classify_examples():
    c = circle(0j, 1.0, 64)
    assert classify(c, 0j) is InnOut.INN
    assert classify(c, 3 + 0j) is InnOut.OUT


def test_figure_eight_cancels():
    # circle traversed once each way; the oracle is the exact argument sum
    fwd = circle(0j, 1.0, 64)
    back = fwd.reversed()
    both = concatenate(fwd, back)

    def param(t):
        return cmath.exp(2j * math.pi * t) if t < 0.5 else cmath.exp(-2j * math.pi * t)

    oracle = analytic_winding(param, 0j)
    assert round(oracle) == 0
    assert classify(both, 0j) is InnOut.OUT


def test_winding_matches_analytic_oracle_for_offsets():
    c = circle(0.5 + 0.5j, 1.2, 64)
    for p in (0.5 + 0.5j, 0j, 1.5 + 0.4j, 3 + 3j):
        oracle = round(analytic_winding(lambda t: 0.5 + 0.5j + 1.2 * cmath.exp(2j * math.pi * t), p))
        assert winding_number(c, p) == oracle


def test_point_on_curve_raises():
    c = circle(0j, 1.0, 64)
    with pytest.raises(PointOnCurve):
        winding_number(c, 1 + 0j)


def test_non_integral_winding_raises_on_discontinuous_parameterization():
    # the curve teleports between two far circles; seen from a point between
    # them, the jump edge never refines below the per-edge cap
    def jump(ts):
        return np.exp(2j * np.pi * ts) + np.where(ts >= 0.5, 25.0, 0.0)

    ts = np.arange(64) / 64
    curve = SampledCurve(jump(ts), param_fn=jump, params=ts)
    with pytest.raises(NonIntegralWinding):
        winding_number(curve, 12.0 + 0j)


def test_adaptive_refinement_handles_sparse_circle():
    # 8 samples of a circle about a point near the boundary: per-edge
    # increments start above pi/2 and must be refined away
    fn = lambda ts: np.exp(2j * np.pi * ts)
    ts = np.arange(8) / 8
    sparse = SampledCurve(fn(ts), param_fn=fn, params=ts)
    assert winding_number(sparse, 0.8 + 0j) == 1
    assert winding_number(sparse, 1.2 + 0j) == 0


def test_additivity_on_shared_basepoint_loops():
    rng = np.random.default_rng(12)
    for _ in range(25):
        base = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        def loop():
            n = int(rng.integers(10, 20))
            center = base + complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            pts = [base] + [
                center + rng.uniform(0.3, 1.0) * cmath.exp(2j * math.pi * i / n)
                for i in range(1, n)
            ]
            return SampledCurve(tuple(pts))

        a, b = loop(), loop()
        both = concatenate(a, b)
        p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(z - p) for z in both.points) < 0.05:
            continue
        assert winding_number(both, p) == winding_number(a, p) + winding_number(b, p)


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    t = min(1.0, max(0.0, ((p - a) * (b - a).conjugate()).real / abs(b - a) ** 2))
    return abs(a + t * (b - a) - p)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_perturbation_stability(seed):
    # the 32-gon and its jittered copy are both plain polylines: the circle
    # itself may wind differently about a p between a chord and its arc
    rng = np.random.default_rng(seed)
    c = circle(0j, 1.0, 32)
    p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    pts = c.points.tolist()
    dist = min(_segment_distance(p, a, b) for a, b in zip(pts, pts[1:] + pts[:1]))
    if dist < 1e-3:
        return
    w0 = winding_number(SampledCurve(c.points), p)
    jittered = tuple(
        z + 0.007 * dist * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for z in pts
    )
    assert winding_number(SampledCurve(jittered), p) == w0


@pytest.mark.parametrize("bad", [math.inf, complex(0, -math.inf), math.nan])
def test_non_finite_samples_are_refused_before_any_arithmetic(bad):
    pts = circle(0j, 1.0, 16).points.copy()
    pts[5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSamples, match="1 of 16 curve samples"):
            winding_number(SampledCurve(pts), 0.3j)
        # three turns on 8 samples take refinement, whose midpoints are not
        # finite here: they are refused the same way
        ts = np.arange(8) / 8
        fast = SampledCurve(np.exp(6j * np.pi * ts), params=ts,
                            param_fn=lambda t: np.full(t.shape, bad, dtype=complex))
        with pytest.raises(NonFiniteSamples):
            winding_number(fast, 0j)
    assert issubclass(NonFiniteSamples, CurveError)


def test_sign_flips_under_chart_swap():
    # the same sphere circle seen from the other pole winds the other way
    north = circle(0j, 2.0, 64)
    south_pts = tuple(1.0 / z for z in north.points.tolist())
    south = SampledCurve(south_pts, Chart.SOUTH)
    assert winding_number(north, 0j) == -winding_number(south, 0j)


def test_is_essential_examples():
    assert is_essential(circle(0j, 1.0, 64)) is True
    assert is_essential(circle(1 + 0j, 0.1, 64)) is False
    assert is_essential(latitude_circle(0.5)) is True


def test_is_essential_requires_north_chart():
    with pytest.raises(ValueError):
        is_essential(circle(0j, 1.0, 64, chart=Chart.SOUTH))


def test_curve_constructor_cleans_degenerate_edges():
    pts = (1 + 0j, 1 + 0j, 1j, -1 + 0j, -1j, 0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j, 1 + 0j)
    c = SampledCurve(pts)
    assert c.points[0] != c.points[-1]
    assert all(a != b for a, b in zip(c.points, c.points[1:]))
    with pytest.raises(ValueError):
        SampledCurve((1 + 0j, 2 + 0j, 3 + 0j))  # too few samples


def test_curve_csv_round_trip(tmp_path):
    c = circle(0.2 + 0.1j, 0.7, 16)
    text = dump_curve_csv(c)
    assert text.startswith("# chart=north")
    back = load_curve_csv(text)
    assert back.chart is Chart.NORTH
    assert np.allclose(back.points, c.points)


def scalar_curve(points, params=None):
    """The sample lists ``SampledCurve`` kept when it trimmed in Python: the
    first of each run of equal consecutive samples, then no last sample
    equal to the first."""
    pts = [complex(z) for z in points]
    pars = list(params) if params is not None else [i / len(pts) for i in range(len(pts))]
    keep_p, keep_t = [], []
    for z, t in zip(pts, pars):
        if not keep_p or z != keep_p[-1]:
            keep_p.append(z)
            keep_t.append(t)
    while len(keep_p) > 1 and keep_p[-1] == keep_p[0]:
        keep_p.pop()
        keep_t.pop()
    if len(keep_p) < 8:
        raise ValueError("a sampled curve needs at least 8 distinct samples")
    return keep_p, keep_t


def scalar_point_at(points, params, t):
    """The polyline position at t that ``SampledCurve.point_at`` computed
    one parameter at a time: linear along the first chord that holds t."""
    ts = list(params) + [params[0] + 1.0]
    zs = list(points) + [points[0]]
    t = t % 1.0
    if t < ts[0]:
        t += 1.0
    for i in range(len(zs) - 1):
        if ts[i] <= t <= ts[i + 1]:
            span = ts[i + 1] - ts[i]
            lam = 0.0 if span == 0 else (t - ts[i]) / span
            return zs[i] + lam * (zs[i + 1] - zs[i])
    return zs[0]


def off_grid(params, rng, count=16):
    """The sample parameters, seeded parameters in [0, 2), one on the
    closing edge and one below the first sample's parameter."""
    params = np.asarray(params)
    return np.concatenate([params, rng.uniform(0.0, 2.0, count),
                           [0.5 * (params[-1] + params[0] + 1.0), 0.5 * params[0]]])


def test_curve_trimming_matches_the_scalar_loop():
    # runs of repeats, repeats that are not consecutive, -0.0 beside 0.0,
    # closing runs equal to the first sample, and too few distinct samples;
    # the polyline between the kept samples is the scalar interpolation
    pool = [0j, complex(-0.0, 0.0), 1 + 0j, 1j, -1 - 2j, 0.5 - 0.5j, 3 + 0j,
            -2j, 2 + 2j, -1 + 0j, 1e-300 + 0j, complex(0.0, -0.0)]
    rng = np.random.default_rng(43)
    errors = 0
    for trial in range(600):
        picks = rng.integers(0, len(pool), int(rng.integers(1, 16)))
        pts = [pool[i] for i in picks for _ in range(int(rng.integers(1, 4)))]
        pts += [pts[0]] * int(rng.integers(0, 4))
        params = None if trial % 3 == 0 else np.sort(rng.uniform(0.0, 1.0, len(pts))).tolist()
        try:
            want_p, want_t = scalar_curve(pts, params)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                SampledCurve(tuple(pts), params=params)
            errors += 1
            continue
        c = SampledCurve(tuple(pts), params=params)
        assert [repr(z) for z in c.points.tolist()] == [repr(z) for z in want_p]
        assert [repr(t) for t in c.params.tolist()] == [repr(t) for t in want_t]
        assert not (c.points.flags.writeable or c.params.flags.writeable)
        ts = off_grid(want_t, rng)
        assert [repr(z) for z in c.point_at(ts).tolist()] == [
            repr(scalar_point_at(want_p, want_t, t)) for t in ts.tolist()]
    assert 100 < errors < 500
    with pytest.raises(ValueError, match="params must match"):
        SampledCurve(tuple(pool), params=(0.0, 0.5))


@pytest.mark.parametrize("center,radius,samples", [
    (0j, 1.0, 64), (0.5 + 0.5j, 1.2, 64), (-3.25 + 1e-7j, 1e-6, 128),
    (complex(-0.0, -0.0), 3e4, 8), (0, 0.1, 256), (1.5, 2, 1000), (1e8 - 2j, 0.05, 128),
])
def test_circle_samples_are_the_scalar_samples(center, radius, samples):
    def scalar(t):
        return center + radius * cmath.exp(2j * math.pi * (t % 1.0))

    ts = [i / samples for i in range(samples)]
    want = [scalar(t) for t in ts]
    refine = off_grid(ts, np.random.default_rng(samples))
    for chart in Chart:
        c = circle(center, radius, samples, chart)
        assert c.chart is chart
        assert [repr(z) for z in c.points.tolist()] == [repr(z) for z in want]
        assert c.params.tolist() == ts
        assert [repr(z) for z in c.point_at(refine).tolist()] == [
            repr(scalar(t)) for t in refine.tolist()]

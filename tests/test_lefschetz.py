"""Lefschetz indices, rectangle certificates, and the fixed-point consequence."""

import cmath
import math

import numpy as np
import pytest

from sphere_census import lefschetz
from sphere_census.charts import Chart, Power, Quadratic, RationalPair
from sphere_census.lefschetz import (
    CertificateIndexMismatch,
    FixedPointOnCurve,
    Rect,
    RectCertificate,
    boundary_curve,
    fixed_point_in,
    lefschetz_index,
    rectangle_certificate,
)
from sphere_census.winding import SampledCurve, circle

UNIT = Rect(-1.0, 1.0, -1.0, 1.0)


def displacement_oracle(fn, curve_fn, samples=20000):
    """Continuous argument sum of t -> f(gamma(t)) - gamma(t)."""
    ts = np.linspace(0.0, 1.0, samples)
    zs = np.array([curve_fn(t) for t in ts])
    disp = np.array([fn(z) for z in zs]) - zs
    total = np.unwrap(np.angle(disp))
    return (total[-1] - total[0]) / (2 * math.pi)


def test_doubling_map_on_unit_circle():
    fn = lambda z: 2 * z
    unit_circle = circle(0j, 1.0, 64)
    oracle = round(displacement_oracle(fn, lambda t: cmath.exp(2j * math.pi * t)))
    assert oracle == 1
    assert lefschetz_index(fn, unit_circle) == 1


def test_each_base_sample_is_mapped_once():
    calls = []

    def doubling(z):
        calls.append(z)
        return 2 * z

    assert lefschetz_index(doubling, circle(0j, 1.0, 64)) == 1
    assert len(calls) < 2 * 64


def test_a_polygon_is_refined_along_its_chords(monkeypatch):
    # a curve without param_fn: each point refinement asks for lies on the
    # chord between the two vertices around its parameter
    gon = SampledCurve(tuple(0.9 * cmath.exp(2j * math.pi * k / 8) for k in range(8)))
    read = []
    point_at = SampledCurve.point_at

    def recorded(curve, t):
        z = point_at(curve, t)
        if curve is gon:
            read.append((np.asarray(t), z))
        return z

    with monkeypatch.context() as patch:
        patch.setattr(SampledCurve, "point_at", recorded)
        assert lefschetz_index(Power(6), gon) == 1
    assert lefschetz_index(Power(6), circle(0j, 0.9, 256)) == 1
    # one refinement round: its two midpoints read in one batch for the
    # image and in one for the displacement
    assert len(read) == 2
    vertices = gon.points.tolist()
    for ts, zs in read:
        assert ts.shape == zs.shape and ts.size == 2
        for t, z in zip(ts.tolist(), zs.tolist()):
            k, lam = int(8 * t), 8 * t % 1.0
            start, end = vertices[k], vertices[(k + 1) % 8]
            assert abs(z - (start + lam * (end - start))) < 1e-15


def test_translation_has_zero_index():
    assert lefschetz_index(lambda z: z + 5, circle(0j, 1.0, 64)) == 0


def test_a_field_constant_only_on_the_grid_is_refused():
    # the displacement z^8 is 1 at every 8th root of unity, but winds 8
    # times between them: the grid aliases the index
    fn = lambda z: z + z ** 8
    with pytest.raises(ValueError, match="resample denser"):
        lefschetz_index(fn, circle(0j, 1.0, 8))
    assert lefschetz_index(fn, circle(0j, 1.0, 32)) == 8


def test_squaring_map_counts_interior_fixed_points():
    # oracle: indices of the two fixed points inside |z| = 2, via small
    # circles around z = 0 and z = 1 with the analytic argument sum
    fn = lambda z: z * z
    idx0 = round(displacement_oracle(fn, lambda t: 0.05 * cmath.exp(2j * math.pi * t)))
    idx1 = round(displacement_oracle(fn, lambda t: 1 + 0.05 * cmath.exp(2j * math.pi * t)))
    assert (idx0, idx1) == (1, 1)
    assert lefschetz_index(fn, circle(0j, 2.0, 64)) == idx0 + idx1


def test_mapspec_input_is_accepted():
    assert lefschetz_index(Power(2), circle(0j, 2.0, 64)) == 2
    assert lefschetz_index(RationalPair((5, 1), (1,)), circle(0j, 1.0, 64)) == 0
    # a constant map: the image has one distinct sample, the displacement many
    assert lefschetz_index(RationalPair((5,), (1,)), circle(0j, 1.0, 64)) == 0
    # a spec is read in the curve's chart: |w| = 0.5 in the south chart
    # surrounds only N, a superattracting fixed point of z^2 + 0.5
    assert lefschetz_index(Quadratic(0.5), circle(0j, 0.5, 64, chart=Chart.SOUTH)) == 1
    assert lefschetz_index(Quadratic(0.5), circle(0j, 0.5, 64)) == 0


def test_a_spec_index_maps_its_samples_in_one_batch(monkeypatch):
    from sphere_census import charts

    calls = {"evaluate": 0, "evaluate_many": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(charts, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(charts, name, counting)
    # z^2 - z winds twice about 0 on |z| = 2, with no edge to refine
    assert lefschetz_index(Power(2), circle(0j, 2.0, 64)) == 2
    assert calls == {"evaluate": 0, "evaluate_many": 1}


def test_fixed_point_on_curve_raises():
    with pytest.raises(FixedPointOnCurve):
        lefschetz_index(lambda z: 2 * z, circle(1 + 0j, 1.0, 64))  # 0 on curve


def test_large_magnitude_images_are_handled():
    # image coordinates well beyond the chart normalization threshold
    assert lefschetz_index(Power(2), circle(0j, 3e4, 64)) == 2


def test_certificate_mismatch_guard_fires(monkeypatch):
    import sphere_census.lefschetz as lf

    monkeypatch.setattr(lf, "_index_of_images", lambda images, image_at, curve: 99)
    with pytest.raises(CertificateIndexMismatch):
        lf.rectangle_certificate(lambda z: 2 * z, UNIT)


def test_certificate_sides_are_read_off_the_boundary_curve():
    rect = Rect(-1.0, 2.0, -0.5, 1.0)
    calls = []

    def doubling(z):
        calls.append(z)
        return 2 * z

    assert rectangle_certificate(doubling, rect) is RectCertificate.EXPANDING
    # the sides sample the index curve, so every side point is a curve point
    assert set(calls[:256]) == set(boundary_curve(rect, 64).points.tolist())


def test_certificate_maps_its_boundary_once():
    # the sides and the index read the same 256 images
    calls = []

    def doubling(z):
        calls.append(z)
        return 2 * z

    assert rectangle_certificate(doubling, UNIT) is RectCertificate.EXPANDING
    assert len(calls) == 256


def test_certificates_on_canonical_linear_models():
    assert rectangle_certificate(lambda z: 2 * z, UNIT) is RectCertificate.EXPANDING
    assert rectangle_certificate(lambda z: 0.5 * z, UNIT) is RectCertificate.CONTRACTING
    saddle_h = lambda z: complex(0.5 * z.real, 2 * z.imag)
    assert rectangle_certificate(saddle_h, UNIT) is RectCertificate.SADDLE_H
    saddle_v = lambda z: complex(2 * z.real, 0.5 * z.imag)
    assert rectangle_certificate(saddle_v, UNIT) is RectCertificate.SADDLE_V


def test_certified_indices():
    assert RectCertificate.EXPANDING.certified_index == 1
    assert RectCertificate.CONTRACTING.certified_index == 1
    assert RectCertificate.SADDLE_H.certified_index == -1
    assert RectCertificate.SADDLE_V.certified_index == -1
    assert RectCertificate.NO_CERTIFICATE.certified_index is None


def test_rotation_gets_no_certificate():
    assert rectangle_certificate(lambda z: 1j * z, UNIT) is RectCertificate.NO_CERTIFICATE


def test_tie_on_boundary_gets_no_certificate():
    # the right side maps exactly onto itself: a tie, not a strict crossing
    fn = lambda z: complex(z.real, 2 * z.imag)
    assert rectangle_certificate(fn, UNIT) is RectCertificate.NO_CERTIFICATE


def test_certificate_stable_under_ten_percent_resize():
    cases = [
        (lambda z: 2 * z, RectCertificate.EXPANDING),
        (lambda z: complex(0.5 * z.real, 2 * z.imag), RectCertificate.SADDLE_H),
    ]
    for fn, want in cases:
        for factor in (0.9, 1.0, 1.1):
            rect = UNIT.scaled(factor)
            assert rectangle_certificate(fn, rect) is want
            assert lefschetz_index(fn, boundary_curve(rect)) == want.certified_index


def test_negative_eigenvalues_still_certify():
    # orientation through the patterns is blind to eigenvalue signs; the
    # index is sign(det(I - M)) for linear maps, which the patterns encode
    fn = lambda z: complex(-2 * z.real, -2 * z.imag)
    assert rectangle_certificate(fn, UNIT) is RectCertificate.CONTRACTING
    fn = lambda z: complex(-2 * z.real, 2 * z.imag)
    assert rectangle_certificate(fn, UNIT) is RectCertificate.SADDLE_H


def test_fixed_point_in_affine_contraction():
    fn = lambda z: 0.5 * z + 0.2
    z = fixed_point_in(fn, UNIT)
    assert z is not None and abs(z - 0.4) < 1e-10


def test_fixed_point_in_saddle():
    fn = lambda z: complex(0.5 * z.real + 0.1, 2 * z.imag - 0.3)
    star = complex(0.1 / 0.5, 0.3)
    z = fixed_point_in(fn, Rect(-1, 1, -1, 1))
    assert z is not None and abs(z - star) < 1e-9


def test_fixed_point_in_returns_none_without_index():
    fn = lambda z: z + 1.0
    assert fixed_point_in(fn, UNIT) is None


def test_certified_rectangles_force_fixed_points():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = float(rng.choice([-1, 1])) * rng.uniform(1.3, 3.0)
        b = float(rng.choice([-1, 1])) * rng.uniform(1.3, 3.0)
        if rng.uniform() < 0.5:
            a = 1.0 / a
        if rng.uniform() < 0.5:
            b = 1.0 / b
        shift = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fn = lambda z, a=a, b=b: complex(
            a * z.real + shift.real, b * z.imag + shift.imag
        )
        star = complex(shift.real / (1 - a), shift.imag / (1 - b))
        half = rng.uniform(0.8, 1.5)
        rect = Rect(star.real - half, star.real + half,
                    star.imag - half, star.imag + half)
        cert = rectangle_certificate(fn, rect)
        assert cert is not RectCertificate.NO_CERTIFICATE
        found = fixed_point_in(fn, rect)
        assert found is not None
        assert abs(found - star) < 1e-8
        assert rect.contains(found)


@pytest.mark.parametrize("fn, star", [
    (lambda z: 0.5 * z + 0.2, 0.4 + 0j),
    (lambda z: complex(0.5 * z.real + 0.1, 2 * z.imag - 0.3), 0.2 + 0.3j),
], ids=["contraction", "saddle"])
def test_fixed_point_in_takes_at_most_two_indices(fn, star, monkeypatch):
    # the rectangle's index and the check about the polished point: no search
    calls = []

    def counting(f, curve):
        calls.append(curve)
        return lefschetz_index(f, curve)

    monkeypatch.setattr(lefschetz, "lefschetz_index", counting)
    z = fixed_point_in(fn, UNIT)
    assert z is not None and abs(z - star) < 1e-9
    assert len(calls) <= 2


def test_fixed_point_in_refuses_an_index_shared_by_two_fixed_points():
    # z + z^2 - 1/4 fixes -1/2 and 1/2, each of index 1
    fn = lambda z: z + z * z - 0.25
    assert lefschetz_index(fn, boundary_curve(UNIT, 48)) == 2
    assert fixed_point_in(fn, UNIT) is None


def test_fixed_point_in_raises_on_a_boundary_fixed_point():
    fn = lambda z: 0.5 * (z - 1) + 1  # fixes 1, on the right side of UNIT
    with pytest.raises(FixedPointOnCurve):
        fixed_point_in(fn, UNIT)


@pytest.mark.parametrize("rect,per_side", [
    (UNIT, 64), (UNIT, 48), (Rect(-3.0, 3.0, 0.25, 0.75), 56), (Rect(0.0, 1.0, 0.25, 0.75), 16),
    (Rect(-1e-3, 2e-3, -7.5, -0.1), 8), (Rect(0.1, 0.30000000000000004, 1e8, 1e8 + 64), 37),
])
def test_boundary_samples_are_the_scalar_samples(rect, per_side):
    corners = [complex(rect.x0, rect.y0), complex(rect.x1, rect.y0),
               complex(rect.x1, rect.y1), complex(rect.x0, rect.y1)]

    def at(t):
        leg, frac = divmod(t % 1.0 * 4.0, 1.0)
        a, b = corners[int(leg) % 4], corners[(int(leg) + 1) % 4]
        return a + frac * (b - a)

    n = 4 * per_side
    ts = [i / n for i in range(n)]
    curve = boundary_curve(rect, per_side)
    assert [repr(z) for z in curve.points.tolist()] == [repr(at(t)) for t in ts]
    assert curve.params.tolist() == ts
    # refinement reads the same parameterization off the grid, on the
    # closing side and just below t = 0 (where t % 1.0 rounds to 1.0)
    rng = np.random.default_rng(per_side)
    refine = np.concatenate([ts, rng.uniform(0.0, 2.0, 64), [1 - 0.5 / n, -1e-20]])
    assert [repr(z) for z in curve.point_at(refine).tolist()] == [
        repr(at(t)) for t in refine.tolist()]

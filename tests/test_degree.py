"""Local/global/annular degrees and the cactus identities."""

import cmath
import math
import re

import numpy as np
import pytest

from sphere_census import annuli, degree
from sphere_census.charts import (
    AffineProfile,
    Chart,
    DegreeCapExceeded,
    Iterate,
    N_POLE,
    PiecewiseLinearProfile,
    Power,
    ProductMap,
    Quadratic,
    RationalPair,
    S_POLE,
    SpherePoint,
    as_rational,
    chart_value,
    chordal,
    evaluate,
    format_map,
    from_latlon,
    parse_map,
    sphere_points,
)
from sphere_census.degree import (
    DegreeMismatch,
    PreimageClusterTooTight,
    RadiusTooLarge,
    annular_degree,
    cactus_check,
    component_degrees,
    find_preimages,
    global_degree,
    image_curve,
    local_degree,
    witness_radius,
)
from sphere_census.gallery import GALLERY
from sphere_census.winding import (
    EDGE_CAP,
    PointOnCurve,
    circle,
    latitude_circle,
    winding_number,
)

INF = math.inf


def unwrap_turns(values):
    total = np.unwrap(np.angle(np.asarray(values)))
    return (total[-1] - total[0]) / (2 * math.pi)


def point_arrays(points):
    """A sequence of ``SpherePoint``s as (values, north)."""
    return (np.array([p.value for p in points], dtype=complex),
            np.array([p.chart is Chart.NORTH for p in points], dtype=bool))


def north_ordered(values, north):
    """Whether the points (values, north) are in ``find_preimages``'s order."""
    keys = [degree._north_key(v, up) for v, up in zip(values.tolist(), north.tolist())]
    return keys == sorted(keys)


# ---------------------------------------------------------------------------
# Local degree
# ---------------------------------------------------------------------------


def test_local_degree_cubing_at_origin():
    # oracle: the argument of (r e^{i t})^3 advances three turns
    ts = np.linspace(0, 1, 4096)
    oracle = round(unwrap_turns([(0.1 * cmath.exp(2j * math.pi * t)) ** 3 for t in ts]))
    assert oracle == 3
    assert local_degree(Power(3), *point_arrays([SpherePoint(0j)]), SpherePoint(0j), 0.1) == (3,)


def test_local_degree_regular_point_of_squaring():
    # oracle: sign of the numeric Jacobian determinant at z = 1
    h = 1e-6
    fn = lambda z: z * z
    fx = (fn(1 + h) - fn(1 - h)) / (2 * h)
    fy = (fn(1 + 1j * h) - fn(1 - 1j * h)) / (2 * h)
    det = fx.real * fy.imag - fx.imag * fy.real
    assert det > 0
    one = SpherePoint(1 + 0j)
    assert local_degree(Power(2), *point_arrays([one]), one, 0.05) == (1,)


def test_local_degree_at_north_pole():
    # w -> w^2/(1 + c w^2) has a double point at w = 0
    assert local_degree(Quadratic(0j), *point_arrays([N_POLE]), N_POLE, 0.1) == (2,)
    assert local_degree(Quadratic(0.1 + 0j), *point_arrays([N_POLE]), N_POLE, 0.1) == (2,)


def test_local_degree_orientation_reversal():
    # (s, theta) -> (-s, theta) is inversion in the unit circle, degree -1
    spec = ProductMap(AffineProfile(-1.0, 0.0), 1)
    x = from_latlon(0.3, 0.4)
    y = evaluate(spec, x)
    assert local_degree(spec, *point_arrays([x]), y, 0.02) == (-1,)


def forbid_scalar_evaluate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar evaluate in local_degree")

    monkeypatch.setattr(degree, "evaluate", forbidden)


def test_local_degree_refines_a_fast_winding_image(monkeypatch):
    # the image of the 128-sample probe about 0 winds 40 times, 1.96 rad per
    # edge, past the pi/2 edge cap: the winding refines before it settles,
    # with no call of the scalar evaluator
    image = image_curve(Power(40), circle(0j, 0.1, 128), Chart.NORTH)
    assert np.abs(np.angle(image.points / np.roll(image.points, 1))).min() > EDGE_CAP
    forbid_scalar_evaluate(monkeypatch)
    assert local_degree(Power(40), *point_arrays([SpherePoint(0j)]), SpherePoint(0j), 0.1) == (40,)


def test_radius_too_large():
    one = SpherePoint(1 + 0j)
    with pytest.raises(RadiusTooLarge):
        # the circle of radius 2 about 1 passes through -1, whose image is y
        local_degree(Power(2), *point_arrays([one]), one, 2.0)


def test_the_first_failing_witness_names_the_error(monkeypatch):
    # witnesses are checked in order, as one by one: the probe about 1 passes
    # through a preimage of y, and 0.5 does not map to y at all; both errors
    # are read off the probe batch, with no call of the scalar evaluator
    forbid_scalar_evaluate(monkeypatch)
    one, half = SpherePoint(1 + 0j), SpherePoint(0.5 + 0j)
    with pytest.raises(RadiusTooLarge):
        local_degree(Power(2), *point_arrays([one, half]), one, 2.0)
    with pytest.raises(ValueError, match="x does not map to y"):
        local_degree(Power(2), *point_arrays([half, one]), one, 2.0)


def test_a_squashed_image_through_the_value_is_refused():
    # (s, theta) -> (1.5e-9 s, theta) flattens the probe circle's image to a
    # sliver about y, 1.5e-9 of its length thick: it passes the gap test,
    # but y lies within the winding's PointOnCurve distance of it
    spec = ProductMap(AffineProfile(1.5e-9, 0.0), 1)
    x = from_latlon(0.3, 0.4)
    with pytest.raises(PointOnCurve):
        local_degree(spec, *point_arrays([x]), evaluate(spec, x), 0.01)


def lone_degrees(spec, xs, y, radius):
    """``winding_number`` of each witness's own ``image_curve``, one by one."""
    y = y.normalized()
    return tuple(
        winding_number(image_curve(spec, circle(x.value, radius, 128, chart=x.chart), y.chart),
                       y.value)
        for x in (x.normalized() for x in xs))


CERTIFY_MAPS = [
    "product:q=affine(1.53,0.1542);d=-3", "product:q=affine(2.0549,0.2662);d=-2",
    "product:q=affine(2.4925,-0.1698);d=-1", "power:d=-2", "product:q=affine(2.4431,0);d=3",
    "quad:c=0.161024-0.041100i", "quad:c=-1.071666+0.073510i", "rational:P=0,2,0,1;Q=1,0,3",
    "product:q=affine(2.6587,0.2932);d=-2", "product:q=affine(2.6841,0.0589);d=3",
    "power:d=2", "product:q=affine(2.2249,-0.0842);d=2", "quad:c=0.189601+0.135450i",
    "quad:c=-0.904994-0.060067i",
]


@pytest.mark.parametrize("spec", [
    *GALLERY.values(), *(Iterate(spec, 2) for spec in GALLERY.values()),
    *map(parse_map, CERTIFY_MAPS),
], ids=format_map)
def test_batched_local_degrees_match_the_lone_windings(spec):
    # the witnesses of eight values, wound as rows of one batch and each on
    # its own image curve; the values spread over |s| < 2.5, so that even the
    # dilations have witnesses in both charts
    rng = np.random.default_rng(27)
    charts = set()
    for _ in range(8):
        y = from_latlon(rng.uniform(-2.5, 2.5), rng.uniform(0.0, 2 * math.pi))
        infinity = N_POLE if y.chart is Chart.NORTH else S_POLE
        try:
            pre = find_preimages(spec, y)
            radius = witness_radius(*pre, find_preimages(spec, infinity))
            batch = local_degree(spec, *pre, y, radius)
        except (PreimageClusterTooTight, RadiusTooLarge):
            continue
        assert batch == lone_degrees(spec, sphere_points(*pre), y, radius)
        charts |= {x.normalized().chart for x in sphere_points(*pre)}
    assert charts == {Chart.NORTH, Chart.SOUTH} or spec.declared_degree == 0


def test_only_rows_that_need_refinement_reach_winding_number(monkeypatch):
    # z^40 (z - 1) sends 0, a zero of order 40, and 1 to 0: the image of the
    # probe about 0 winds 40 times past the edge cap and is refined alone,
    # the one about 1 settles in the batch
    calls = []
    wind = degree.winding_number
    monkeypatch.setattr(degree, "winding_number",
                        lambda curve, p: calls.append(p) or wind(curve, p))
    assert local_degree(Power(40), *point_arrays([S_POLE]), S_POLE, 0.1) == (40,)
    assert len(calls) == 1
    calls.clear()
    spec = RationalPair((0,) * 40 + (-1, 1), (1,))
    assert local_degree(spec, *point_arrays([S_POLE, SpherePoint(1 + 0j)]), S_POLE, 0.05) == (40, 1)
    assert len(calls) == 1
    calls.clear()
    y = SpherePoint(0.3 + 0.4j)
    pre = find_preimages(Power(40), y)
    assert local_degree(Power(40), *pre, y, witness_radius(*pre)) == (1,) * 40
    assert calls == []


# ---------------------------------------------------------------------------
# Preimages and global degree
# ---------------------------------------------------------------------------


def test_preimages_of_squaring():
    pre = sphere_points(*find_preimages(Power(2), SpherePoint(1 + 0j)))
    assert len(pre) == 2
    assert any(abs(p.value - 1) < 1e-9 for p in pre)
    assert any(abs(p.value + 1) < 1e-9 for p in pre)


def test_preimages_include_infinity():
    # f(z) = z^2 fixes N, so N is a preimage of N
    pre = sphere_points(*find_preimages(Power(2), N_POLE))
    assert any(p == N_POLE for p in pre)
    # 1/z sends N to S: N is the only preimage of S
    pre = sphere_points(*find_preimages(RationalPair((1,), (0, 1)), SpherePoint(0j)))
    assert pre == (N_POLE,)


def test_iterate_preimages_match_expanded_roots():
    # (z^2 + c)^2 + c with c = 1/2 is z^4 + z^2 + 3/4
    y = SpherePoint(0.3 - 0.2j)
    pre = sphere_points(*find_preimages(Iterate(Quadratic(0.5), 2), y))
    want = np.roots([1, 0, 1, 0, 0.75 - y.value])
    assert len(pre) == 4
    zs = [chart_value(p, Chart.NORTH) for p in pre]
    for z in zs:
        assert np.abs(want - z).min() < 1e-12
    keys = [(round(z.real, 9), round(z.imag, 9)) for z in zs]
    assert keys == sorted(keys)


def test_preimage_routes_level_loop_and_product_view(monkeypatch):
    # (z^2 + 1/2)^3 = y is solved as three calls of the shared level
    # solver, on the 1, 2 and 4 targets of its levels, f^3 never formed;
    # z^8 = y takes the product view of the iterated power, its closed-form
    # eighth roots, and no level is solved
    rng = np.random.default_rng(41)
    y = SpherePoint(complex(*rng.uniform(-1.0, 1.0, 2)))
    solve = degree._preimages
    calls = []
    monkeypatch.setattr(degree, "_preimages",
                        lambda forms, a, b: calls.append(a.size) or solve(forms, a, b))
    spec = Iterate(Quadratic(0.5), 3)
    pre = find_preimages(spec, y)
    assert calls == [1, 2, 4]
    assert len(pre[0]) == 8
    assert north_ordered(*pre)
    assert all(chordal(evaluate(spec, x), y) < 1e-9 for x in sphere_points(*pre))
    calls.clear()
    pre = find_preimages(Iterate(Power(2), 3), y)
    assert calls == []
    assert north_ordered(*pre)
    zs = [chart_value(p, Chart.NORTH) for p in sphere_points(*pre)]
    want = [abs(y.value) ** (1 / 8) * cmath.exp(1j * (cmath.phase(y.value) + 2 * math.pi * k) / 8)
            for k in range(8)]
    assert len(zs) == 8
    assert all(min(abs(z - w) for z in zs) < 1e-12 for w in want)
    assert as_rational(Iterate(Power(2), 3)) is None
    assert as_rational(Power(2)) is None


def test_power_preimages_skip_the_dedup(monkeypatch):
    # the 4096 closed-form roots are distinct by construction: one sort, and
    # no pairwise comparison of 4096 points of one height
    def forbidden(*args, **kwargs):
        raise AssertionError("deduplicated a product view's preimages")

    monkeypatch.setattr(degree, "dedup_many", forbidden)
    y = SpherePoint(0.3 - 0.2j)
    pre = find_preimages(Power(4096), y)
    assert len(pre[0]) == 4096
    assert north_ordered(*pre)
    assert witness_radius(*pre) > 0


def test_preimages_lost_to_infinity_are_n_exactly():
    # z + 1/z = (z^2 + 1)/z sends S and N to N: the equation of N, -z = 0,
    # drops degree at both ends, a root at 0 and one lost to infinity
    spec = parse_map("rational:P=1,0,1;Q=0,1")
    assert sphere_points(*find_preimages(spec, N_POLE)) == (S_POLE, N_POLE)
    # under f^2 the preimages of S, z^2 + 1 = 0, join them
    pre = sphere_points(*find_preimages(Iterate(spec, 2), N_POLE))
    assert len(pre) == 4
    assert [x for x in pre if x.is_pole] == [S_POLE, N_POLE]
    zs = sorted((chart_value(x, Chart.NORTH) for x in pre if not x.is_pole), key=lambda z: z.imag)
    assert abs(zs[0] + 1j) < 1e-12 and abs(zs[1] - 1j) < 1e-12


def test_product_preimages_are_sorted_by_north_order():
    # a fold with a twist: two level latitudes of three angles each, found
    # latitude by latitude and angle by angle, returned in the one order of
    # every route
    spec = ProductMap(PiecewiseLinearProfile(((-INF, -INF), (0.0, 1.0), (INF, -INF))), 3,
                      AffineProfile(0.0, 0.7))
    y = from_latlon(0.25, 2.0)
    raw = sphere_points(*degree._product_preimages(spec, y))
    pre = sphere_points(*find_preimages(spec, y))
    assert raw != pre
    assert pre == tuple(sorted(raw, key=lambda p: degree._north_key(p.value, p.chart is Chart.NORTH)))
    assert len(pre) == 6
    assert all(chordal(evaluate(spec, x), y) < 1e-9 for x in pre)


@pytest.mark.parametrize("spec", [
    Iterate(Power(2), 2),
    Iterate(Power(-2), 2),
    Iterate(Power(2), 3),
    Iterate(Quadratic(0), 2),
    Iterate(RationalPair((1,), (0, 0, 1)), 2),
], ids=format_map)
@pytest.mark.parametrize("v", [1e-16, 1e-12])
def test_iterate_near_a_critical_value_keeps_every_preimage(spec, v):
    # at y = 1e-16 a first level of z^2 is the pair +-1e-8 and one of 1/z^2
    # is +-1e8, each chordal 4e-8 apart (within PREIMAGE_DEDUP), and the pair
    # separates at the next level; 1/z^2 sends N within chordal 2e-12 of
    # y = 1e-12, but N is no preimage of y and S no preimage of y under f^2
    report = global_degree(spec, y=SpherePoint(complex(v)))
    assert [d for _, d in report.witnesses] == [1] * spec.declared_degree


def test_global_degree_of_deep_iterates():
    assert global_degree(Iterate(Quadratic(0.1), 8)).total == 256
    cubic = RationalPair((0, 2, 0, 1), (1, 0, 3))
    assert global_degree(Iterate(cubic, 4)).total == 81


def test_global_degree_examples():
    rep = global_degree(Power(2), SpherePoint(1 + 0j))
    assert rep.total == 2
    assert sorted(d for _, d in rep.witnesses) == [1, 1]

    assert global_degree(Quadratic(0.1)).total == 2
    assert global_degree(ProductMap(AffineProfile(1.0, 0.0), 3)).total == 3


def test_global_degree_independent_of_value():
    for y in (SpherePoint(0.7 + 0.2j), SpherePoint(-0.3 + 0.8j)):
        assert global_degree(Power(3), y).total == 3


def test_global_degree_at_critical_value_uses_multiplicity():
    # the preimage of c under z^2 + c is the double point z = 0
    rep = global_degree(Quadratic(0.1 + 0j), SpherePoint(0.1 + 0j))
    assert rep.total == 2
    assert len(rep.witnesses) == 1
    assert rep.witnesses[0][1] == 2


def test_near_critical_value_rejected_as_cluster():
    # preimages sit 2*sqrt(1e-11) apart: below the separation floor
    y = SpherePoint(0.1 + 1e-11 + 0j)
    with pytest.raises(PreimageClusterTooTight):
        global_degree(Quadratic(0.1 + 0j), y)


def test_degree_mismatch_is_fatal():
    class MisdeclaredPower(Power):
        @property
        def declared_degree(self):
            return 7

    with pytest.raises(DegreeMismatch):
        global_degree(MisdeclaredPower(2))


def test_product_pole_is_its_own_only_preimage():
    # q(s) = 2s keeps each end of the latitude line: each pole is the one
    # preimage of itself, of local degree d
    spec = ProductMap(AffineProfile(2.0, 0.0), 3)
    for pole in (S_POLE, N_POLE):
        assert global_degree(spec, y=pole).witnesses == ((pole, 3),)


def test_angular_degree_0_circle_preimage_is_refused():
    # d = 0 sends the whole circle s = 0.2 to the one point (0.4, 0)
    with pytest.raises(PreimageClusterTooTight, match="angular-degree-0"):
        find_preimages(ProductMap(AffineProfile(2.0, 0.0), 0), from_latlon(0.4, 0.0))


@pytest.mark.parametrize("spec", [
    Power(100000), Power(-5000), Iterate(Quadratic(0.1), 13),
    Iterate(RationalPair((0, 2, 0, 1), (1, 0, 3)), 8),
    # iterates whose degree D^n no integer should be formed for
    Iterate(Quadratic(0.1), 1000000), Iterate(Power(3), 10 ** 8),
])
def test_global_degree_refuses_the_degree_cap_before_any_solve(monkeypatch, spec):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved a map over the degree cap")

    monkeypatch.setattr(degree, "find_preimages", forbidden)
    with pytest.raises(DegreeCapExceeded, match="exceeds 4096"):
        global_degree(spec)


def test_global_degree_refuses_a_product_view_over_the_cap(monkeypatch):
    # no cap on the census's product route, but each of the |d| preimages of
    # a level solution is wound: d = 5000 ran for minutes before the cap
    def forbidden(*args, **kwargs):
        raise AssertionError("solved a map over the degree cap")

    monkeypatch.setattr(degree, "find_preimages", forbidden)
    with pytest.raises(DegreeCapExceeded, match="angular degree 5000 exceeds 4096"):
        global_degree(ProductMap(AffineProfile(5000.0, 0.0), 5000))


# ---------------------------------------------------------------------------
# Annular degree
# ---------------------------------------------------------------------------


def test_annular_degree_examples():
    core = latitude_circle(0.0)
    assert annular_degree(Power(2), core) == 2
    assert annular_degree(RationalPair((1,), (0, 1)), core) == -1


def test_annular_degree_radial_flip_keeps_angular_sign():
    # oracle: the image angle of (s, t) -> (-s, 2t) advances +2 turns
    spec = ProductMap(AffineProfile(-1.0, 0.0), 2)
    core = latitude_circle(0.3)
    ts = np.linspace(0, 1, 4096)
    images = [evaluate(spec, SpherePoint(z)).value for z in
              (math.exp(0.3) * cmath.exp(2j * math.pi * t) for t in ts)]
    assert round(unwrap_turns(images)) == 2
    assert annular_degree(spec, core) == 2


def test_annular_degree_invariant_across_latitudes():
    spec = ProductMap(AffineProfile(2.0, 0.0), 3)
    assert annular_degree(spec, latitude_circle(-0.4)) == 3
    assert annular_degree(spec, latitude_circle(0.55)) == 3


def test_annular_degree_rejects_inessential_core():
    from sphere_census.winding import circle

    with pytest.raises(ValueError):
        annular_degree(Power(2), circle(3 + 0j, 0.1, 64))


def test_annular_degree_image_near_pole():
    from sphere_census.degree import ImageHitsPole
    from sphere_census.winding import circle

    # images near S and near N, and through N: the unit circle passes
    # through z = 1, the pole of 1/(z - 1)
    for spec, core in ((Power(2), latitude_circle(-7.5)), (Power(2), latitude_circle(7.5)),
                       (RationalPair((1,), (-1, 1)), circle(0j, 1.0, 64))):
        with pytest.raises(ImageHitsPole):
            annular_degree(spec, core)


def test_annular_degree_refuses_an_aliased_core():
    from sphere_census.winding import circle

    # z^64 is 1 at every 64th root of unity: the image is constant on the
    # grid and winds 64 times between its samples
    with pytest.raises(ValueError, match="resample denser"):
        annular_degree(Power(64), circle(0j, 1.0, 64))
    assert annular_degree(Power(64), circle(0j, 1.0, 256)) == 64


# ---------------------------------------------------------------------------
# Cactus identities
# ---------------------------------------------------------------------------


def test_cactus_single_component():
    comps = annuli.decompose(Power(2))
    report = cactus_check(Power(2), comps)
    assert report.passed
    assert [(r.sphere_degree, r.annular_degree) for r in report.rows] == [(2, 2)]
    assert report.degree_sum == 2


def test_cactus_iterate_multiplicativity():
    spec = Iterate(Power(2), 2)
    report = cactus_check(spec, annuli.decompose(spec))
    assert report.passed
    assert [(r.sphere_degree, r.annular_degree) for r in report.rows] == [(4, 4)]


def test_cactus_three_branch_profile():
    prof = PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF)))
    spec = ProductMap(prof, 2)
    comps = annuli.decompose(spec)
    assert len(comps) == 3
    # oracle: one radial preimage per branch, slope signs +, -, +, each
    # carrying |angular degree| = 2 local preimages of matching orientation
    sums, _ = component_degrees(spec, [(c.s_lo, c.s_hi) for c in comps])
    assert sums == [2, -2, 2]
    report = cactus_check(spec, comps)
    assert report.passed
    assert report.degree_sum == spec.declared_degree == 2
    assert all(abs(r.annular_degree) == abs(r.sphere_degree) for r in report.rows)


def test_component_and_global_degrees_draw_the_same_regular_value():
    prof = PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF)))
    spec = ProductMap(prof, 2)
    comps = annuli.decompose(spec)
    sums, value = component_degrees(spec, [(c.s_lo, c.s_hi) for c in comps])
    report = global_degree(spec)
    assert value == report.regular_value
    assert sum(sums) == report.total == 2


def test_component_degrees_rejects_a_draw_before_winding_it(monkeypatch):
    import sphere_census.degree as degree

    def forbidden(*args, **kwargs):
        raise AssertionError("a rejected draw was wound")

    monkeypatch.setattr(degree, "local_degree", forbidden)
    # no preimage of squaring lies in (5, 6): every draw is rejected on latitude
    with pytest.raises(PreimageClusterTooTight, match="after 32 draws"):
        component_degrees(Power(2), [(5.0, 6.0)])


def test_fold_degree_probe_circles_stay_clear_of_the_poles():
    # both ends map to S; a 0.05 probe circle about the preimage near N
    # (|w| < 0.05 in the south chart) would enclose N and misread its local
    # degree
    spec = parse_map("product:q=pwl(-inf:-inf,0.5:3,inf:-inf);d=1")
    report = global_degree(spec)
    assert report.total == 0
    assert sorted(d for _, d in report.witnesses) == [-1, 1]


def test_component_degree_of_an_iterated_pwl_product():
    spec = parse_map("iter:n=2(product:q=pwl(-inf:-inf,-1:1,inf:inf);d=1)")
    assert component_degrees(spec, [(-math.inf, math.inf)])[0] == [1]


def test_a_preimage_near_a_pole_shrinks_the_probe_circle():
    # z -> 1e-6 z puts every preimage of a regular value within 1e-5 of N:
    # the pole caps the radius and does not reject the value
    assert global_degree(RationalPair((0, 1e-6), (1,))).total == 1


def test_a_pinned_value_near_a_pole_is_not_too_close_to_its_image():
    # the probe circle about the preimage 1e-9 shrinks to stay clear of S, so
    # its image passes about 1e-10 from the target: close in absolute terms,
    # but a tenth of the image's own radius
    report = global_degree(Power(1), y=SpherePoint(1e-9, Chart.NORTH))
    assert report.total == 1
    assert [d for _, d in report.witnesses] == [1]


def test_a_power_pinned_next_to_its_pole_image_takes_no_extra_pole():
    # 1/z^8 sends N to 0, within chordal 2e-12 of y = 1e-12, but N is no
    # preimage of y: the eight roots of modulus 10^1.5 are the only witnesses
    report = global_degree(Iterate(Power(-2), 3), y=SpherePoint(1e-12 + 0j))
    assert report.total == 8
    assert [d for _, d in report.witnesses] == [1] * 8
    assert N_POLE not in [x for x, _ in report.witnesses]


def test_a_power_pinned_with_preimages_below_the_witness_floor_is_refused():
    # the two preimages of 1e-12 under 1/z^2 are +-1e6, chordal 4e-6 apart:
    # below the 1e-4 separation floor for witnesses, by design
    with pytest.raises(PreimageClusterTooTight, match="witness separation"):
        global_degree(Power(-2), y=SpherePoint(1e-12 + 0j))


def test_probe_circles_keep_clear_of_the_preimages_of_the_chart_pole():
    # the value drawn at seed 212 lies in the south chart, whose point at
    # infinity is S; a zero of f^2 lies 0.042 from the witness
    # -0.5126+0.2655i (south chart), inside the probe of radius 0.04999 that
    # the witnesses and the poles allow, which winds 1 - 1 = 0 there; the
    # zeros shrink the radius
    spec = Iterate(Quadratic(-0.5643151715852792 - 1.4016142519734291j), 2)
    report = global_degree(spec, seed=212)
    assert report.regular_value.normalized().chart is Chart.SOUTH
    assert report.total == 4
    assert [d for _, d in report.witnesses] == [1, 1, 1, 1]
    witnesses = [x for x, _ in report.witnesses]
    bare = witness_radius(*point_arrays(witnesses))
    assert witness_radius(*point_arrays(witnesses), find_preimages(spec, S_POLE)) < bare
    assert [local_degree(spec, *point_arrays([x]), report.regular_value, bare)
            for x in witnesses] == [(0,), (1,), (1,), (0,)]


def scalar_witness_radius(preimages, clear=()):
    """``witness_radius`` as scalar ``chordal`` calls over every pair."""
    seps = [chordal(a, b) for i, a in enumerate(preimages) for b in preimages[i + 1:]]
    if min(seps, default=2.0) < 1e-4:
        raise PreimageClusterTooTight(f"witness separation {min(seps):.3g}")
    seps += [chordal(a, p) for a in preimages for p in (S_POLE, N_POLE) if a != p]
    seps += [chordal(a, c) for a in preimages for c in clear]
    return min([0.05] + [sep / 20.0 for sep in seps])


@pytest.mark.parametrize("block", [degree.PAIR_BLOCK, 7])
def test_witness_radius_matches_the_scalar_pairs(block, monkeypatch):
    # blocks of 7 pairs split every row; poles, near-ties and tight pairs
    # are among the draws
    monkeypatch.setattr(degree, "PAIR_BLOCK", block)
    rng = np.random.default_rng(47)

    def draw(count):
        pts = [from_latlon(rng.uniform(-4.0, 4.0), rng.uniform(0.0, 2 * math.pi))
               for _ in range(count)]
        for pole in (S_POLE, N_POLE):
            if rng.random() < 0.3:
                pts.insert(int(rng.integers(0, len(pts) + 1)), pole)
        return pts

    tight = 0
    for _ in range(150):
        pre = draw(int(rng.integers(0, 25)))
        if pre and rng.random() < 0.2:
            near = pre[int(rng.integers(0, len(pre)))]
            pre.append(SpherePoint(near.value + rng.uniform(1e-7, 1e-4), near.chart))
        clear = draw(int(rng.integers(0, 6)))
        try:
            want = scalar_witness_radius(pre, clear)
        except PreimageClusterTooTight as exc:
            with pytest.raises(PreimageClusterTooTight, match=re.escape(str(exc))):
                witness_radius(*point_arrays(pre), point_arrays(clear))
            tight += 1
            continue
        # within a twentieth of the 1e-14 that chordal_many keeps to chordal
        assert abs(witness_radius(*point_arrays(pre), point_arrays(clear)) - want) <= 1e-14 / 20
    assert 5 < tight < 100

"""Pole-preimage structure, decomposition, repelling test, hypothesis probe."""

import math

import pytest

from sphere_census import annuli, census
from sphere_census.annuli import (
    BoundaryTouchesImage,
    ComponentType,
    NotRepelling,
    NotStraightened,
    check_hypothesis_h,
    decompose,
    is_repelling,
    pole_preimages,
    theorem3_bound,
)
from sphere_census.charts import (
    AffineProfile,
    Chart,
    Iterate,
    PiecewiseLinearProfile,
    Power,
    ProductMap,
    Quadratic,
    SpherePoint,
    evaluate,
    to_chart,
)
from sphere_census.winding import winding_number

INF = math.inf


def test_pole_preimages_power():
    comps = pole_preimages(Power(2))
    kinds = [c.kind for c in comps]
    assert kinds == [ComponentType.TYPE_I, ComponentType.TYPE_I]


def test_pole_preimages_quadratic_has_isolated_extra_preimage():
    spec = Quadratic(0.1)
    z_s = spec.attracting_fixed_point()
    comps = pole_preimages(spec)
    kinds = sorted(c.kind.value for c in comps)
    assert kinds == ["I", "I", "III"]
    third = next(c for c in comps if c.kind is ComponentType.TYPE_III)
    # the second preimage of the attractor is its negative
    assert abs(to_chart(third.point, Chart.NORTH).value - (-z_s)) < 1e-9


def test_pole_preimages_of_quadratic_iterate_tag_type_iii():
    spec = Iterate(Quadratic(0.1), 2)
    comps = pole_preimages(spec)
    kinds = sorted(c.kind.value for c in comps)
    # f^2 has four preimages of the attractor and one of N, which is N
    assert kinds == ["I", "I", "III", "III", "III"]
    south = spec.inner.attracting_fixed_point()
    for c in comps:
        if c.kind is ComponentType.TYPE_III:
            assert abs(to_chart(evaluate(spec, c.point), Chart.NORTH).value - south) < 1e-9


def test_pole_preimages_three_branch_profile():
    prof = PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF)))
    comps = pole_preimages(ProductMap(prof, 2))
    assert [c.kind.value for c in comps] == ["I", "II", "II", "I"]
    circles = [c for c in comps if c.kind is ComponentType.TYPE_II]
    assert [c.latitude for c in circles] == [-1.0, 1.0]
    assert circles[0].maps_to_north and not circles[1].maps_to_north


def test_decompose_power_is_single_repelling_window():
    comps = decompose(Power(2))
    assert len(comps) == 1
    c = comps[0]
    assert (c.s_lo, c.s_hi) == (-INF, INF)
    assert (c.win_lo, c.win_hi) == (-1.0, 1.0)
    assert c.delta == 2 and c.d_i == 2
    assert c.repelling  # q(1) = 2 > 1 and q(-1) = -2 < -1
    assert c.lower_circle is None and c.upper_circle is None


def test_decompose_product_examples():
    repel = decompose(ProductMap(AffineProfile(2.0, 0.0), 2))[0]
    assert repel.repelling and repel.delta == 2
    contract = decompose(ProductMap(AffineProfile(0.5, 0.0), 2))[0]
    assert not contract.repelling


def test_decompose_rejects_unstraightened_maps():
    with pytest.raises(NotStraightened):
        decompose(Quadratic(0.1))


def test_is_repelling_endpoint_arithmetic():
    comps = decompose(ProductMap(AffineProfile(2.0, 0.0), 2))
    assert is_repelling(ProductMap(AffineProfile(2.0, 0.0), 2), comps[0])
    shrink = ProductMap(AffineProfile(0.5, 0.0), 2)
    assert not is_repelling(shrink, decompose(shrink)[0])
    # s -> s + 1 moves both boundaries up: outward above, inward below
    shift = ProductMap(AffineProfile(1.0, 1.0), 2)
    assert not is_repelling(shift, decompose(shift)[0])


@pytest.mark.parametrize("spec", [
    ProductMap(AffineProfile(2.0, 0.0), -48),
    ProductMap(PiecewiseLinearProfile(((-INF, -INF), (-1, INF), (1, -INF), (INF, INF))), 2),
])
def test_is_repelling_matches_decompose(spec, monkeypatch):
    comps = decompose(spec)
    sampled = []
    batch = annuli.evaluate_many

    def counting(spec, values, north):
        sampled.append(len(values))
        return batch(spec, values, north)

    monkeypatch.setattr(annuli, "evaluate_many", counting)
    for c in comps:
        assert is_repelling(spec, c) == c.repelling
        # a pole side is sampled as densely as the core, as decompose does
        assert sampled[-2:] == [len(c.core.points)] * 2


def test_is_repelling_inconclusive_on_touching_boundary():
    # the identity radial fixes both boundary latitudes exactly
    spec = ProductMap(AffineProfile(1.0, 0.0), 2)
    with pytest.raises(BoundaryTouchesImage):
        decompose(spec)


def test_theorem3_bound_values():
    comps = {d: decompose(ProductMap(AffineProfile(2.0, 0.0), d))[0]
             for d in (2, -1, 1)}
    assert theorem3_bound(comps[2]) == 1
    assert theorem3_bound(comps[-1]) == 2
    assert theorem3_bound(comps[1]) == 0
    contracting = decompose(ProductMap(AffineProfile(0.5, 0.0), 2))[0]
    with pytest.raises(NotRepelling):
        theorem3_bound(contracting)


def test_hypothesis_passes_for_powers_and_straight_products():
    for d in range(2, 6):
        assert check_hypothesis_h(Power(d)).passed
    assert check_hypothesis_h(ProductMap(AffineProfile(2.0, 0.0), 3)).passed


@pytest.mark.parametrize("c", [0.1, 0.2, 0.1 + 0.1j])
def test_hypothesis_fails_for_quadratics_with_witness(c):
    spec = Quadratic(c)
    report = check_hypothesis_h(spec)
    assert not report.passed
    assert report.witness is not None
    assert report.witness_image_winding not in (None, 0)
    # the witness is inessential but its image winds around the S anchor
    z_s = spec.attracting_fixed_point()
    assert winding_number(report.witness, z_s) == 0
    images = tuple(
        to_chart(evaluate(spec, SpherePoint(z)), Chart.NORTH).value
        for z in report.witness.points
    )
    from sphere_census.winding import SampledCurve

    assert winding_number(SampledCurve(images), z_s) == report.witness_image_winding


def test_repelling_components_meet_their_bound():
    # the count of distinct interior fixed points matches |delta - 1|
    for d in (2, 3, -1, -2):
        spec = ProductMap(AffineProfile(2.0, 0.0), d)
        comp = decompose(spec)[0]
        assert comp.repelling
        bound = theorem3_bound(comp)
        fps = census.fixed_points(spec, 1)
        inside = [p for p in fps.points if comp.win_lo < p.latitude() < comp.win_hi]
        assert len(inside) >= bound
        assert len(inside) == abs(d - 1)


def test_cactus_identities_across_decomposable_gallery():
    from sphere_census.degree import cactus_check
    from sphere_census.gallery import GALLERY

    for name in ("power2", "power3", "reciprocal", "repel_d2", "repel_dm2",
                 "three_branch", "power2_squared", "dilation"):
        spec = GALLERY[name]
        comps = decompose(spec)
        report = cactus_check(spec, comps)
        assert report.passed, name


def test_every_repelling_gallery_component_meets_its_bound():
    from sphere_census.gallery import GALLERY

    checked = 0
    for name, spec in GALLERY.items():
        try:
            comps = decompose(spec)
        except (NotStraightened, BoundaryTouchesImage):
            continue
        fps = census.fixed_points(spec, 1)
        for comp in comps:
            if not comp.repelling:
                continue
            inside = [p for p in fps.points
                      if comp.win_lo < p.latitude() < comp.win_hi]
            assert len(inside) >= theorem3_bound(comp), name
            checked += 1
    assert checked >= 5

"""Pole-preimage structure, decomposition, repelling test, hypothesis probe."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphere_census import annuli, census, degree as degree_mod
from sphere_census.annuli import (
    BoundaryTouchesImage,
    ComponentType,
    NotRepelling,
    NotStraightened,
    UnsupportedSpec,
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
    as_product_view,
    evaluate,
    parse_map,
    to_chart,
)
from sphere_census.winding import latitude_circle, winding_number

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


def test_decompose_product_examples():
    repel = decompose(ProductMap(AffineProfile(2.0, 0.0), 2))[0]
    assert repel.repelling and repel.delta == 2
    contract = decompose(ProductMap(AffineProfile(0.5, 0.0), 2))[0]
    assert not contract.repelling


PWL_ITERATES = (
    # the outer profile reverses, so the circles its inner copy sends to S
    # go on to N and vice versa
    "iter:n=2(product:q=pwl(-inf:inf,-1:-inf,1:inf,inf:-inf);d=2)",
    "iter:n=3(product:q=pwl(-inf:inf,-1:-inf,1:inf,inf:-inf);d=1)",
    "iter:n=2(product:q=pwl(-inf:-inf,-0.5:inf,0.5:0,inf:inf);d=-2)",
)


def _decomposable_specs():
    from sphere_census.gallery import GALLERY

    specs = [parse_map(text) for text in PWL_ITERATES]
    for spec in GALLERY.values():
        try:
            decompose(spec)
        except (NotStraightened, BoundaryTouchesImage):
            continue
        specs.append(spec)
    return specs


def test_decompose_reads_no_local_degrees(monkeypatch):
    # nor samples a curve: decompose and is_repelling read every component
    # off the product view
    import sphere_census
    from sphere_census import charts, winding

    specs = _decomposable_specs()

    def forbidden(*args, **kwargs):
        raise AssertionError("local degree or curve sample in decompose")

    monkeypatch.setattr(degree_mod, "local_degree", forbidden)
    monkeypatch.setattr(degree_mod, "component_degrees", forbidden)
    for module in (sphere_census, annuli, charts, degree_mod, winding):
        for attr in ("evaluate_many", "annular_degree", "winding_number"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    assert len(specs) >= 15
    for spec in specs:
        for c in decompose(spec):
            assert is_repelling(spec, c) == c.repelling


def _assert_sphere_degrees_match_the_oracle(spec):
    """d_i from the cactus identity sums to the declared degree and equals
    the local-degree sum of each component."""
    comps = decompose(spec)
    assert sum(c.d_i for c in comps) == spec.declared_degree, spec
    oracle, _ = degree_mod.component_degrees(spec, [(c.s_lo, c.s_hi) for c in comps])
    assert [c.d_i for c in comps] == oracle, spec


@pytest.mark.parametrize("text", ("power:d=-2", "power:d=0") + PWL_ITERATES)
def test_sphere_degrees_of_fixed_maps_match_the_oracle(text):
    _assert_sphere_degrees_match_the_oracle(parse_map(text))


@pytest.mark.parametrize("text", ["quad:c=1e-20+0i", "rational:P=1e-20,0,1;Q=1"])
def test_decompose_needs_a_product_view(text):
    # straightened (the type III preimage of S falls within the anchor
    # tolerance), but with no product view to read the components off
    with pytest.raises(UnsupportedSpec):
        decompose(parse_map(text))


def test_delta_is_the_annular_degree_of_the_core():
    checked = 0
    for spec in _decomposable_specs():
        samples = max(256, 8 * abs(as_product_view(spec).angular_degree))
        for c in decompose(spec):
            core = latitude_circle(0.5 * (c.win_lo + c.win_hi), samples)
            assert c.delta == degree_mod.annular_degree(spec, core), spec
            checked += 1
    assert checked >= 18


@pytest.mark.parametrize("b", [13.5, -13.5])
def test_core_image_inside_the_pole_window_decomposes(b):
    # the core s = 0 maps to s = b, inside |s| < ln(1e6) = 13.8
    (c,) = decompose(ProductMap(AffineProfile(2.0, b), 2))
    assert c.delta == 2 and not c.repelling


@pytest.mark.parametrize("b", [14.0, -14.0])
def test_core_image_near_a_pole_raises(b):
    with pytest.raises(degree_mod.ImageHitsPole):
        decompose(ProductMap(AffineProfile(2.0, b), 2))


def test_sphere_degree_of_a_fold_is_zero():
    # both ends map to S; the oracle's probe circle about the preimage near
    # N stays clear of N
    spec = parse_map("product:q=pwl(-inf:-inf,0.5:3,inf:-inf);d=1")
    assert [(c.delta, c.d_i) for c in decompose(spec)] == [(1, 0)]
    _assert_sphere_degrees_match_the_oracle(spec)


_POLE = st.sampled_from([-INF, INF])


# nodes within |s| <= 1 and finite values within [-1, 1] (halved for a
# second iterate) keep every preimage of the oracle's regular values at
# |s| < 2.7, where its 0.05 probe circles stay clear of the poles; an example
# is drawn again (assume) when a segment is pinned at one pole on both ends,
# or decompose reports its scope (a core image near a pole, an inconclusive
# repelling test), so every counted example reaches the comparison
@settings(max_examples=60, deadline=None)
@given(
    interior=st.lists(st.tuples(st.integers(-2, 2), st.one_of(
        _POLE, st.floats(-1.0, 1.0))), max_size=3, unique_by=lambda n: n[0]),
    ends=st.tuples(_POLE, _POLE),
    d=st.integers(-3, 4),
    iterated=st.booleans(),
)
def test_sphere_degrees_of_pwl_products_match_the_oracle(interior, ends, d, iterated):
    scale = 0.5 if iterated else 1.0
    nodes = ((-INF, ends[0]),) + tuple(sorted((0.5 * scale * s, scale * v) for s, v in interior)) \
        + ((INF, ends[1]),)
    assume(all(not (math.isinf(a) and a == b) for (_, a), (_, b) in zip(nodes, nodes[1:])))
    spec = ProductMap(PiecewiseLinearProfile(nodes), d)
    try:
        _assert_sphere_degrees_match_the_oracle(Iterate(spec, 2) if iterated else spec)
    except (BoundaryTouchesImage, degree_mod.ImageHitsPole):
        assume(False)


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
def test_is_repelling_matches_decompose(spec):
    for c in decompose(spec):
        assert is_repelling(spec, c) == c.repelling


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
        for z in report.witness.points.tolist()
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

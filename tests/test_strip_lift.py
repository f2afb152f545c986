"""Strip lifts, the comparison loop, certified indices, Nielsen separation."""

import dataclasses
import math
import re

import numpy as np
import pytest

from sphere_census import annuli, census, lefschetz, strip_lift
from sphere_census.charts import (
    AffineProfile,
    Iterate,
    Power,
    ProductMap,
    Quadratic,
    RationalPair,
    chordal,
    evaluate,
    parse_map,
)
from sphere_census.strip_lift import (
    LiftDiscontinuity,
    MNotFound,
    StripError,
    StripMap,
    build_beta,
    lift,
    lift_fixed_point,
    nielsen_fixed_points,
    verify_index,
)


def repel(d: int) -> ProductMap:
    return ProductMap(AffineProfile(2.0, 0.0), d)


def component(spec):
    return annuli.decompose(spec)[0]


def test_lift_closed_form_product():
    spec = repel(2)
    F = lift(spec, component(spec), k=0)
    # s window [-1, 1] maps to y in [0.25, 0.75]; s = 0 sits at y = 0.5
    x, y = F(0.3, 0.5)
    assert x == pytest.approx(0.6)
    assert y == pytest.approx(0.5)  # q(0) = 0 stays at mid-latitude
    # one window down: s = -1 maps to q = -2, one window below the bottom
    assert F(0.0, 0.25)[1] == pytest.approx(0.0)


def test_lift_offset_is_deck_translation():
    spec = repel(2)
    F0 = lift(spec, component(spec), k=0)
    F1 = lift(spec, component(spec), k=1)
    a = F0(0.2, 0.6)
    b = F1(0.2, 0.6)
    assert b[0] - a[0] == pytest.approx(1.0)
    assert b[1] == pytest.approx(a[1])


def test_lift_of_power_doubles_x():
    spec = Power(2)
    F = lift(spec, component(spec), k=0)
    assert F(0.37, 0.5)[0] == pytest.approx(0.74)


def test_equivariance_allows_rounding_but_not_an_offset(monkeypatch):
    # at d = 1e9 F(x + 1) - F(x) - d is a rounding step of d*x, about 1e-7:
    # the lift passes, but one that moves by d + 1e-3 per turn is refused
    spec = Power(10 ** 9)
    comp = component(spec)
    assert lift(spec, comp, k=0).translation_degree == 10 ** 9
    monkeypatch.setattr(StripMap, "translation_degree",
                        property(lambda self: self.component.delta + 1e-3))
    with pytest.raises(LiftDiscontinuity, match="equivariance"):
        lift(spec, comp, k=0)


def test_equivariance_on_random_points():
    spec = repel(3)
    F = lift(spec, component(spec), k=0)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        x = rng.uniform(-3, 3)
        y = rng.uniform(0.25, 0.75)
        a = F(x + 1.0, y)
        b = F(x, y)
        assert abs(a[0] - b[0] - 3) <= 1e-9
        assert abs(a[1] - b[1]) <= 1e-9


def test_projection_commutes():
    spec = repel(-2)
    F = lift(spec, component(spec), k=0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x, y = rng.uniform(-1, 1), rng.uniform(0.3, 0.7)
        upstairs = F(x, y)
        down = evaluate(spec, F.project(x, y))
        assert chordal(F.project(*upstairs), down) <= 1e-9


def test_product_lift_of_reciprocal():
    # 1/z is the monomial z^-1, lifted through its product view:
    # F(x, y) = (-x + k, 1 - y)
    spec = RationalPair((1,), (0, 1))
    comp = component(spec)
    F = lift(spec, comp, k=0)
    assert F.translation_degree == -1
    x, y = F(0.25, 0.6)
    assert x == pytest.approx(-0.25, abs=1e-9)
    # latitude flips: s -> -s, i.e. y -> 1 - y in the symmetric window
    assert y == pytest.approx(0.4, abs=1e-9)


def test_lift_needs_a_product_view():
    # z^2 + 1e-20 is not a product map, so it has no lift, even on a
    # component that z^2 has
    comp = component(Power(2))
    with pytest.raises(annuli.UnsupportedSpec):
        lift(Quadratic(1e-20), comp)


def test_build_beta_spans():
    F = lift(repel(2), component(repel(2)), k=0)
    b1 = build_beta(F, 1)
    xs = [z.real for z in b1.points]
    assert min(xs) == -1.0 and max(xs) == 1.0
    b3 = build_beta(F, 3)
    xs = [z.real for z in b3.points]
    assert min(xs) == -3.0 and max(xs) == 3.0
    b0 = build_beta(F, 0)
    xs = [z.real for z in b0.points]
    assert min(xs) == 0.0 and max(xs) == 1.0
    ys = [z.imag for z in b0.points]
    assert min(ys) == 0.25 and max(ys) == 0.75


@pytest.mark.parametrize("d,want", [(2, 1), (-1, -1), (0, -1)])
def test_verify_index_certified_values(d, want):
    spec = repel(d)
    F = lift(spec, component(spec), k=0)
    result = verify_index(F)
    assert result.index == want
    assert 1 <= result.m_used <= 64


def test_verify_index_rejects_degree_one():
    spec = repel(1)
    F = lift(spec, component(spec), k=0)
    with pytest.raises(ValueError):
        verify_index(F)


def test_verify_index_needs_repelling_behavior():
    # contracting radial never satisfies the boundary displacement pattern
    spec = ProductMap(AffineProfile(0.5, 0.0), 2)
    comp = component(spec)
    F = StripMap(spec, comp, lift_offset=0)
    with pytest.raises(MNotFound):
        verify_index(F)


def count_passes(monkeypatch):
    """The lift passes made from now on: one entry per scalar call and one
    per ``many`` batch, whatever its size."""
    calls = []
    call, many = StripMap.__call__, StripMap.many

    def counting(self, x, y):
        calls.append((x, y))
        return call(self, x, y)

    def counting_many(self, x, y):
        calls.append((x, y))
        return many(self, x, y)

    monkeypatch.setattr(StripMap, "__call__", counting)
    monkeypatch.setattr(StripMap, "many", counting_many)
    return calls


def test_verify_index_tests_the_horizontal_sides_once(monkeypatch):
    # the image height does not depend on x or on the loop width: the two
    # horizontal sides are decided by one lift evaluation each, before any m
    spec = ProductMap(AffineProfile(0.5, 0.0), 2)
    F = StripMap(spec, component(spec), lift_offset=0)
    calls = count_passes(monkeypatch)
    with pytest.raises(MNotFound):
        verify_index(F)
    assert len(calls) <= 2


def test_lift_fixed_point_projects_to_map_fixed_point():
    for d in (2, -1, 0):
        spec = repel(d)
        F = lift(spec, component(spec), k=0)
        res = verify_index(F)
        z = lift_fixed_point(F, res.m_used)
        downstairs = F.project(z.real, z.imag)
        assert chordal(evaluate(spec, downstairs), downstairs) < 1e-10


@pytest.mark.parametrize("d", [2, 3, -1, -2])
def test_nielsen_lifts_give_distinct_fixed_points(d):
    spec = repel(d)
    comp = component(spec)
    fps = nielsen_fixed_points(spec, comp)
    assert len(fps) == abs(d - 1)
    for fp in fps:
        assert fp.residual < 1e-10
    for i, a in enumerate(fps):
        for b in fps[i + 1:]:
            assert chordal(a.sphere_point, b.sphere_point) > 1e-3
    # the projections are exactly the interior fixed points of the map
    interior = [p for p in census.fixed_points(spec, 1).points
                if -1 < p.latitude() < 1]
    assert len(interior) == len(fps)
    for fp in fps:
        assert min(chordal(fp.sphere_point, q) for q in interior) < 1e-9



def test_nielsen_validates_the_lift_once(monkeypatch):
    # lift() checks F + (k, 0) after subtracting k: one check serves every k
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("k", 0))
        return lift(*args, **kwargs)

    monkeypatch.setattr(strip_lift, "lift", counting)
    spec = repel(-3)
    fps = nielsen_fixed_points(spec, component(spec))
    assert [fp.lift_offset for fp in fps] == [0, 1, 2, 3]
    assert calls == [0]
    for fp in fps:
        assert fp.residual < 1e-10

# three radial fixed latitudes, -12/17 (repelling), 0 (attracting) and 12/17
THREE_LATITUDES = "product:q=pwl(-inf:-inf,-1:-2,-0.5:0.2,0.5:-0.2,1:2,inf:inf);d=3"


def _no_quadtree(*args, **kwargs):
    raise AssertionError("the quadtree is not on the strip-lift path")


@pytest.mark.parametrize("spec", [
    *(repel(d) for d in (2, 3, -1, -2, 0)),
    Iterate(ProductMap(AffineProfile(2.0, 0.1), 2), 2),
    parse_map(THREE_LATITUDES),
], ids=["d=2", "d=3", "d=-1", "d=-2", "d=0", "iterate", "three-latitudes"])
def test_lift_fixed_points_are_read_off_the_view(spec, monkeypatch):
    monkeypatch.setattr(lefschetz, "fixed_point_in", _no_quadtree)
    monkeypatch.setattr(lefschetz, "_newton_polish", _no_quadtree)
    comp = component(spec)
    fps = nielsen_fixed_points(spec, comp)
    assert len(fps) == abs(comp.delta - 1)
    fixed = census.fixed_points(spec, 1).points
    for fp in fps:
        assert min(chordal(fp.sphere_point, q) for q in fixed) < 1e-12


def test_lift_fixed_point_takes_the_lowest_latitude_in_the_loop():
    spec = parse_map(THREE_LATITUDES)
    for fp in nielsen_fixed_points(spec, component(spec)):
        assert fp.sphere_point.latitude() == pytest.approx(-12 / 17, abs=1e-12)


def test_lift_fixed_point_outside_the_loop_raises():
    spec = repel(2)
    comp = component(spec)
    # the fixed latitude s = 0 lies below this window
    above = dataclasses.replace(comp, win_lo=0.5, win_hi=1.5)
    with pytest.raises(StripError, match="no radial fixed latitude"):
        lift_fixed_point(StripMap(spec, above, 0), 1)
    # x = (0 + 5) / (1 - 2) = -5 lies beyond the loop of width 1
    with pytest.raises(StripError, match="outside the loop"):
        lift_fixed_point(StripMap(spec, comp, 5), 1)


def test_lift_fixed_point_is_checked_on_the_lift():
    # a translation degree the view does not have gives x = -1/2, which the
    # lift (x -> 2x + 1) moves by 1/2
    spec = repel(2)
    wrong = dataclasses.replace(component(spec), delta=3)
    with pytest.raises(StripError, match="displacement"):
        lift_fixed_point(StripMap(spec, wrong, 1), 1)


def _width_search(F, m_cap=64):
    """Reference oracle: the width search ``verify_index`` replaced, trying
    m = 1 .. m_cap until the images of the sides x = -m and x = m, 65
    heights each, lie beyond them when d >= 2 and on the center side
    otherwise; None when no width holds."""
    lo, hi = strip_lift.Y_LO, strip_lift.Y_HI
    margin = strip_lift.COND_MARGIN
    if F(0.0, lo)[1] >= lo - margin or F(0.0, hi)[1] <= hi + margin:
        return None
    outward = 1.0 if F.translation_degree >= 2 else -1.0
    for m in range(1, m_cap + 1):
        if all(outward * sign * (F(x_v, float(y))[0] - x_v) > margin
               for x_v, sign in ((float(m), 1.0), (-float(m), -1.0))
               for y in np.linspace(lo, hi, 65)):
            return m
    return None


def test_loop_width_matches_the_width_search():
    # twisted affine product maps; one in two twists moves x = 0 by up to
    # ~100 fundamental domains, so some widths lie past the cap
    rng = np.random.default_rng(20)
    degrees = [-4, -3, -2, -1, 0, 2, 3, 4, 5]
    lifts = 0
    widths = set()
    while lifts < 400:
        d = int(rng.choice(degrees))
        reach = float(rng.choice([60.0, 600.0]))
        twist = AffineProfile(float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-reach, reach)))
        spec = ProductMap(AffineProfile(float(rng.uniform(1.2, 3.0)),
                                        float(rng.uniform(-0.5, 0.5))), d, twist)
        comp = component(spec)
        count = min(3, abs(d - 1))
        for k in rng.choice(abs(d - 1), size=count, replace=False):
            F = StripMap(spec, comp, lift_offset=int(k))
            width = _width_search(F, m_cap=128)
            if width is None or width > strip_lift.M_CAP:
                with pytest.raises(MNotFound, match="m <= 64"):
                    verify_index(F)
            else:
                assert verify_index(F).m_used == width
            widths.add(width)
            lifts += 1
    # the sample holds small and large widths, horizontal refusals (None)
    # and widths past the cap
    assert {1, 2, None} <= widths and max(w for w in widths if w) > 64
    assert len(widths) > 20


def test_a_width_past_the_cap_is_refused_after_one_pass(monkeypatch):
    # the twist moves x = 0 by up to 628.3 / 2pi ~ 100 fundamental domains,
    # so the sides clear the loop only at m ~ 101, past M_CAP = 64
    spec = parse_map("product:q=affine(2,0);d=2;h=affine(0,628.3)")
    F = StripMap(spec, component(spec), lift_offset=0)
    assert _width_search(F, m_cap=128) > strip_lift.M_CAP
    calls = count_passes(monkeypatch)
    with pytest.raises(MNotFound, match="m <= 64"):
        verify_index(F)
    assert len(calls) <= 67


def test_verify_index_maps_its_loop_in_one_pass(monkeypatch):
    # the reach and the loop are one batch each; each refinement round would
    # map its midpoints in one more, and this loop needs none
    spec = repel(3)
    F = StripMap(spec, component(spec), lift_offset=1)
    calls = count_passes(monkeypatch)
    assert verify_index(F).index == 1
    assert len(calls) == 2


def none_settled(disp, diam):
    """``_settled`` with no row settled: each is wound alone."""
    return np.zeros(len(disp), dtype=bool), np.zeros(len(disp))


@pytest.mark.parametrize("text", [
    "product:q=affine(2,0);d=3", "product:q=affine(2.3,0.1);d=-3",
    "product:q=affine(2,0);d=-1;h=affine(0.5,0.2)",
])
def test_verify_index_refines_through_the_scalar_lift(text, monkeypatch):
    # the image refinement reads at a loop parameter is the scalar lift of
    # the scalar boundary point there: on the sample grid, at seeded
    # parameters in [0, 2), on the closing side and just below t = 0; the
    # row is forced off the batch, so the lone path winds it
    monkeypatch.setattr(strip_lift, "_settled", none_settled)
    seen = []
    index_of = strip_lift._index_of_images

    def capture(images, image_at, curve):
        seen.append((images, image_at, curve))
        return index_of(images, image_at, curve)

    monkeypatch.setattr(strip_lift, "_index_of_images", capture)
    spec = parse_map(text)
    F = lift(spec, component(spec), k=1)
    m = verify_index(F).m_used
    (images, image_at, beta), = seen
    x0, x1 = -float(m), float(m)
    corners = [complex(x0, 0.25), complex(x1, 0.25), complex(x1, 0.75), complex(x0, 0.75)]

    def scalar(t):
        leg, frac = divmod(t % 1.0 * 4.0, 1.0)
        a, b = corners[int(leg) % 4], corners[(int(leg) + 1) % 4]
        z = a + frac * (b - a)
        return complex(*F(z.real, z.imag))

    grid = beta.params.tolist()
    assert [repr(w) for w in images.tolist()] == [repr(scalar(t)) for t in grid]
    rng = np.random.default_rng(m)
    ts = np.concatenate([grid, rng.uniform(0.0, 2.0, 64), [1 - 0.1 / len(grid), -1e-20]])
    assert [repr(w) for w in image_at(ts).tolist()] == [repr(scalar(t)) for t in ts.tolist()]


# one view per kind of radial and twist profile the lift reads
MANY_SPECS = {
    "affine": "product:q=affine(2.3,0.1);d=-3",
    "poly": "product:q=poly(0.05,1.7,0,0.4);d=2",
    "pwl": THREE_LATITUDES,
    "twisted": "product:q=affine(2,0);d=2;h=pwl(-inf:-3,-0.2:1.5,0.4:-2,inf:5)",
    "iterate": "iter:n=2(product:q=pwl(-inf:-inf,-1:-2,1:2,inf:inf);d=-2;h=affine(0.7,0.3))",
    "power": "power:d=-4",
}


@pytest.mark.parametrize("text", MANY_SPECS.values(), ids=MANY_SPECS.keys())
def test_many_matches_the_scalar_lift_bit_for_bit(text):
    """``StripMap.many`` against the scalar lift: the same infinities, and
    finite coordinates within 1e-12 relative to max(1, |value|), since the
    profiles' ``many`` twins use numpy's exp, log, log1p and tanh (the test
    keeps its name; the two agree to rounding, not bit for bit)."""
    spec = parse_map(text)
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.uniform(-5.0, 5.0, 200), [0.0, -0.0, 1.0, -2.0, 0.5]])
    y = np.concatenate([rng.uniform(-0.2, 1.2, 200), [0.25, 0.75, 0.5, 0.0, 1.0]])
    for k in (0, 3):
        F = StripMap(spec, component(repel(2)), lift_offset=k)
        want = np.array([F(a, b) for a, b in zip(x.tolist(), y.tolist())])
        for got, coord in zip(F.many(x, y), want.T):
            finite = np.isfinite(coord)
            assert (np.isfinite(got) == finite).all()
            assert (got[~finite] == coord[~finite]).all()
            err = np.abs(got[finite] - coord[finite])
            assert (err <= 1e-12 * np.maximum(1.0, np.abs(coord[finite]))).all()


def test_lift_names_the_first_point_that_does_not_commute(monkeypatch):
    # a lift that jumps by half a turn where x > 1.5 misses the covering map
    # there: the error names the first such draw of the seeded stream
    many = StripMap.many

    def jumping(self, x, y):
        xo, yo = many(self, x, y)
        return xo + np.where(np.asarray(x) > 1.5, 0.5, 0.0), yo

    rng = np.random.default_rng(0)
    draws = [(rng.uniform(-2.0, 2.0), rng.uniform(0.25, 0.75)) for _ in range(100)]
    x, y = next((x, y) for x, y in draws if x > 1.5)
    spec = repel(2)
    monkeypatch.setattr(StripMap, "many", jumping)
    with pytest.raises(LiftDiscontinuity,
                       match=re.escape(f"does not commute at (x, y) = ({x:.6g}, {y:.6g})")):
        lift(spec, component(spec))


def reference_verify(F):
    """The per-offset ``verify_index`` the batch replaced: the lift's own
    pass along x = 0, its own loop image and a lone winding; (m, index)."""
    lo, hi, margin = strip_lift.Y_LO, strip_lift.Y_HI, strip_lift.COND_MARGIN
    d = F.translation_degree
    if d == 1:
        raise ValueError("translation degree 1 carries no certified index")
    expected = 1 if d >= 2 else -1
    refused = f"conditions never held for m <= {strip_lift.M_CAP}"
    reach, heights = F.many(np.zeros(65), np.linspace(lo, hi, 65))
    if heights[0] >= lo - margin or heights[-1] <= hi + margin:
        raise MNotFound(refused)
    width = (margin + float(np.abs(reach).max())) / abs(d - 1)
    if not width < strip_lift.M_CAP:
        raise MNotFound(refused)
    m = math.floor(width) + 1
    beta = build_beta(F, m)

    def image_of(zs):
        x, y = F.many(zs.real, zs.imag)
        z = x.astype(complex)
        z.imag = y
        return z

    idx = lefschetz._index_of_images(image_of(beta.points),
                                     lambda t: image_of(beta.point_at(t)), beta)
    if idx != expected:
        raise strip_lift.IndexMismatch(f"loop index {idx} != certified {expected} for degree {d}")
    return m, idx


def outcome(fn, *args):
    """The (k, m_used, index, strip point bits) that ``fn(*args)`` yields, or
    the error's type and message."""
    try:
        return [(k, m, idx, repr(z)) for k, m, idx, z in fn(*args)]
    except Exception as exc:  # the error is the outcome
        return (type(exc), str(exc))


def reference_nielsen(spec, comp, offsets):
    """``nielsen_fixed_points`` as the sequential loop computed it: one
    validation, then each offset verified alone and its fixed point read."""
    lift(spec, comp)
    for k in offsets:
        F = StripMap(spec, comp, k)
        m, idx = reference_verify(F)
        yield k, m, idx, strip_lift.lift_fixed_point(F, m)


def batched_nielsen(spec, comp, offsets):
    for fp in nielsen_fixed_points(spec, comp, offsets):
        yield fp.lift_offset, fp.m_used, fp.index, fp.strip_point


def twisted_maps(seed, count):
    """Seeded twisted affine product maps, drawn as the width search test
    draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.choice([-4, -3, -2, -1, 0, 2, 3, 4, 5]))
        reach = float(rng.choice([6.0, 60.0, 600.0]))
        twist = AffineProfile(float(rng.uniform(-4.0, 4.0)), float(rng.uniform(-reach, reach)))
        yield ProductMap(AffineProfile(float(rng.uniform(1.2, 3.0)),
                                       float(rng.uniform(-0.5, 0.5))), d, twist)


def test_the_batch_matches_the_offset_by_offset_loop(monkeypatch):
    # every offset's width, index and strip point, bit for bit, or the same
    # error; lift_fixed_point sees the same offsets, so an error is raised
    # in offset order, after the fixed points of the offsets before it
    seen = []
    fixed_point = strip_lift.lift_fixed_point

    def recording(F, m):
        seen.append(F.lift_offset)
        return fixed_point(F, m)

    monkeypatch.setattr(strip_lift, "lift_fixed_point", recording)
    cases = [(spec, None) for spec in twisted_maps(35, 60)]
    cases += [(parse_map(text), None) for text in MANY_SPECS.values()]
    # the twist moves x = 0 by about one domain; offset 100 is past M_CAP
    cases.append((parse_map("product:q=affine(2,0);d=2;h=affine(0,6)"), [0, 1, 100, 2]))
    cases.append((parse_map("product:q=affine(2,0);d=-3;h=affine(0.5,6)"), [3, -2, 0, -300, 1]))
    errors = set()
    for spec, offsets in cases:
        for comp in (c for c in annuli.decompose(spec) if c.repelling):
            ks = range(abs(comp.delta - 1)) if offsets is None else offsets
            seen.clear()
            want = outcome(reference_nielsen, spec, comp, ks)
            want_seen = list(seen)
            seen.clear()
            got = outcome(batched_nielsen, spec, comp, offsets)
            assert (got, seen) == (want, want_seen), (spec, offsets)
            if isinstance(want, tuple):
                errors.add(want[0])
    assert MNotFound in errors
    assert seen == [3, -2, 0]


def test_a_row_off_the_batch_is_wound_alone(monkeypatch):
    # the second offset's row is forced off the batch: it alone reaches
    # _index_of_images, and every offset keeps its reference result
    settled_rows = strip_lift._settled

    def all_but_the_second(disp, diam):
        settled, total = settled_rows(disp, diam)
        settled[1] = False
        return settled, total

    lone = []
    index_of = strip_lift._index_of_images

    def counting(images, image_at, curve):
        lone.append(images)
        return index_of(images, image_at, curve)

    spec = parse_map("product:q=affine(2,0);d=4;h=affine(0.5,2)")
    comp = component(spec)
    want = outcome(reference_nielsen, spec, comp, range(3))
    monkeypatch.setattr(strip_lift, "_settled", all_but_the_second)
    monkeypatch.setattr(strip_lift, "_index_of_images", counting)
    got = outcome(batched_nielsen, spec, comp, None)
    assert len(lone) == 1
    assert got == want and len(want) == 3


def test_nielsen_maps_each_loop_width_once(monkeypatch):
    # the validation, the pass along x = 0 and the one loop width of the
    # four offsets are one ``many`` batch each, where the validation made
    # three and each offset its own two
    batches = []
    many = StripMap.many

    def counting_many(self, x, y):
        batches.append(np.size(x))
        return many(self, x, y)

    monkeypatch.setattr(StripMap, "many", counting_many)
    spec = repel(-3)
    fps = nielsen_fixed_points(spec, component(spec))
    assert [(fp.lift_offset, fp.index, fp.m_used) for fp in fps] == [
        (k, -1, 1) for k in range(4)]
    assert batches == [120, 65, 96]

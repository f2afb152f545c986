"""Fixed-point enumeration, growth reports, and the theorem cross-checks."""

import cmath
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_census import census, charts, degree
from sphere_census.census import (
    CensusIncomplete,
    DegreeCapExceeded,
    census_csv,
    fixed_points,
    growth_report,
    poles_attracting,
    theorem_a_crosscheck,
)
from sphere_census.charts import (
    AffineProfile,
    Chart,
    Iterate,
    N_POLE,
    Power,
    ProductMap,
    Quadratic,
    RationalPair,
    S_POLE,
    SpherePoint,
    as_rational,
    chart_values,
    chordal,
    evaluate,
    to_chart,
)
from sphere_census.gallery import DILATION

# (z^3 + 2z) / (3z^2 + 1), degree 3
CUBIC = RationalPair((0, 2, 0, 1), (1, 0, 3))


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


def test_parabolic_fixed_points_count_once():
    # double roots of f^n(z) - z: z + 1 fixes only infinity, which stays
    # exact; z^2 + 1/4 fixes 1/2 with multiplier 1
    for n in (1, 3):
        assert fixed_points(RationalPair((1, 1), (1,)), n).points == (N_POLE,)
    for n in (1, 4, 8):
        fps = fixed_points(Quadratic(0.25), n)
        assert fps.count == 2 ** n
        assert min(abs(p.value - 0.5) for p in fps.points) < 1e-6
    # z^2 - 1.75, the airplane root, has a parabolic 3-cycle: its points are
    # double roots of f^n(z) - z at every n divisible by 3
    want = [2 ** n + 1 - 3 * (n % 3 == 0) for n in range(1, 11)]
    assert [fixed_points(Quadratic(-1.75), n).count for n in range(1, 11)] == want
    rows = census_csv(Quadratic(-1.75), 10).splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == want


def test_multipliers_match_the_derivative():
    # the fixed points of z^2 + c other than infinity, with (f^n)' = prod 2 f^k(z);
    # at n = 2 the 2-cycle is returned in the south chart
    coeffs = as_rational(Quadratic(0.1))
    solved, _ = census._aberth_fixed_points(coeffs, 2, {1: [N_POLE], 2: [N_POLE]})
    for n in (1, 2):
        values, north, roots = solved[n]
        lam = census._multipliers(coeffs, 2, n, census._frame(), roots)
        for z, got in zip(chart_values(values, north, Chart.NORTH).tolist(), lam.tolist()):
            want = 1.0
            for _ in range(n):
                want, z = want * 2 * z, z * z + 0.1
            assert abs(got - want) < 1e-9 * abs(want)


def merge_two_approximations(monkeypatch):
    """Make the last Aberth approximation of each order a second copy of
    the first."""
    solve = census._aberth_fixed_points

    def twice(*args):
        found, left = solve(*args)
        for values, north, roots in found.values():
            values[-1], north[-1], roots[-1] = values[0], north[0], roots[0]
        return found, left

    monkeypatch.setattr(census, "_aberth_fixed_points", twice)


def test_merge_at_a_simple_fixed_point_raises(monkeypatch):
    # a second approximation of one simple fixed point, in place of another
    # fixed point, must not pass as a count one short
    merge_two_approximations(monkeypatch)
    with pytest.raises(CensusIncomplete, match="merge"):
        fixed_points(Quadratic(0.1), 3)


def test_mobius_iterates_fix_what_the_map_fixes():
    # (1 + 2z)/(3 + z) is hyperbolic: f^40 has multiplier 2.618^40 at its
    # repelling fixed point, and still exactly the two fixed points of f
    spec = RationalPair((1, 2), (3, 1))
    assert fixed_points(spec, 40).points == fixed_points(spec, 1).points
    assert fixed_points(spec, 40).count == 2


def test_power_counts_match_root_oracle():
    # independent composition + distinct-root count, plus the closed form
    for n in range(1, 9):
        fps = fixed_points(Power(2), n)
        poly = compose_poly([0, 0, 1], n)  # z^(2^n)
        poly[1] -= 1  # minus z
        assert fps.count == distinct_root_count(poly) + 1  # plus infinity
        assert fps.count == 2 ** n + 1


def sphere_xyz(p):
    """Unit-sphere coordinates of a point from either chart."""
    v = p.value if p.chart is Chart.NORTH else p.value.conjugate()
    r2 = abs(v) ** 2
    h = (r2 - 1) / (r2 + 1) if p.chart is Chart.NORTH else (1 - r2) / (1 + r2)
    return (2 * v.real / (1 + r2), 2 * v.imag / (1 + r2), h)


def certified_count(spec, n, fps):
    """Number of points in fps after checking, by scalar evaluation, that
    each is fixed by f^n and that no two coincide.  A map of degree D >= 2
    has at most D^n + 1 fixed points, so reaching that count finds them all."""
    f_n = Iterate(spec, n) if n > 1 else spec
    for p in fps.points:
        assert chordal(evaluate(f_n, p), p) < 1e-9
    xyz = np.array([sphere_xyz(p) for p in fps.points])
    gap2 = np.maximum(2.0 - 2.0 * xyz @ xyz.T, 0.0)
    np.fill_diagonal(gap2, np.inf)
    assert gap2.min() > 1e-12  # chordal separation above 1e-6
    return len(fps.points)


@pytest.fixture(scope="module")
def quad_order_10():
    """fixed_points(Quadratic(0.1), 10) and the peak memory it traced."""
    tracemalloc.start()
    try:
        fps = fixed_points(Quadratic(0.1), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return fps, peak


def test_quadratic_counts_match_root_oracle(quad_order_10):
    # the expanded-coefficient oracle is sound up to n = 6; beyond it every
    # returned point is checked to be a distinct fixed point
    for c, n_max in ((0.1, 10), (-0.5 + 0.3j, 9)):
        for n in range(1, n_max + 1):
            fps = quad_order_10[0] if (c, n) == (0.1, 10) else fixed_points(Quadratic(c), n)
            if n <= 6:
                poly = compose_poly([c, 0, 1], n)
                poly[1] -= 1
                assert fps.count == distinct_root_count(poly) + 1
            assert certified_count(Quadratic(c), n, fps) == 2 ** n + 1, (c, n)


def test_rational_counts_match_multiplicity_sum():
    for n in range(1, 7):
        fps = fixed_points(CUBIC, n)
        assert certified_count(CUBIC, n, fps) == 3 ** n + 1, n


def test_power_closed_form_at_the_degree_cap():
    t0 = time.perf_counter()
    fps = fixed_points(Power(2), 12)
    assert time.perf_counter() - t0 < 1.0
    assert fps.count == 4097
    assert S_POLE in fps.points and N_POLE in fps.points


def test_fixed_point_memory_is_blocked(quad_order_10):
    # one unblocked 1025 x 1025 complex array of pairwise differences
    # alone takes 16.8 MB
    assert quad_order_10[1] < 8 * 2 ** 20


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(census, "ABERTH_MAX_ITERS", 1)
    with pytest.raises(CensusIncomplete, match="unconverged"):
        fixed_points(Quadratic(0.1), 4)


def test_residual_shortfall_raises(monkeypatch):
    monkeypatch.setattr(census, "RESIDUAL_CAP", 0.0)
    with pytest.raises(CensusIncomplete, match="of 17 fixed points fail"):
        fixed_points(Quadratic(0.1), 4)


def test_product_residual_shortfall_raises(monkeypatch):
    monkeypatch.setattr(census, "RESIDUAL_CAP", 0.0)
    with pytest.raises(CensusIncomplete, match="of 4 fixed points fail the residual"):
        fixed_points(ProductMap(AffineProfile(2.2, 0.01), 3), 1)


def test_fixed_latitude_near_a_pole_keeps_its_points():
    # s* = 15 lies 6e-7 chordal from N: a 1e-6 dedup merged its |d^n - 1|
    # points into the pole and printed 3 at both orders
    spec = ProductMap(AffineProfile(2.0, -15.0), 3)
    assert [fixed_points(spec, n).count for n in (1, 2)] == [4, 10]


def test_census_refuses_the_degree_cap_before_any_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solved an order below a doomed n_max")

    monkeypatch.setattr(census, "_rational_fixed_points", forbidden)
    monkeypatch.setattr(census, "_product_fixed_points", forbidden)
    for spec, n_max, message in [
        (CUBIC, 8, "3\\^8"),
        # orders whose degree no integer should be formed for: these raised
        # a bare ValueError or ran on, multiplying D^n out
        (Iterate(Quadratic(0.1), 1000000), 1, "2\\^1000000"),
        (Power(2), 10 ** 12, "2\\^1000000000000"),
        (Iterate(Power(3), 10 ** 8), 1, "3\\^100000000"),
    ]:
        for report in (census_csv, growth_report, theorem_a_crosscheck):
            t0 = time.perf_counter()
            with pytest.raises(DegreeCapExceeded, match=f"degree {message} exceeds 4096"):
                report(spec, n_max)
            assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("text", [
    "rational:P=0,0,2;Q=1", "rational:P=0,0+1i;Q=1", "rational:P=0,2;Q=1",
    "rational:P=3;Q=0,0,1", "iter:n=3(quad:c=0+0i)",
])
def test_view_route_agrees_with_aberth(text):
    spec = charts.parse_map(text)
    base, order = charts.iterate_base(spec)
    # Aberth on the order-12 iterate of z^2 takes a minute; the closed form
    # covers it in test_quadratic_c0_iterate_at_the_degree_cap
    for n in range(1, 5 if order == 1 else 4):
        view = fixed_points(spec, n)
        aberth = census._rational_fixed_points(base, [order * n])[order * n]
        assert view.count == aberth.count, n
        # a continuum (i z at n = 4 is the identity) has no point list to match
        for p in () if view.is_continuum else view.points:
            assert min(chordal(p, q) for q in aberth.points) < 1e-9, n


def test_quadratic_c0_iterate_at_the_degree_cap():
    t0 = time.perf_counter()
    fps = fixed_points(Iterate(Quadratic(0), 3), 4)
    assert time.perf_counter() - t0 < 1.0
    assert fps.count == 4097
    assert S_POLE in fps.points and N_POLE in fps.points
    # the others are the 4095 distinct 4095-th roots of unity
    turns = set()
    for p in fps.points:
        if not p.is_pole:
            z = to_chart(p, Chart.NORTH).value
            k = cmath.phase(z) * 4095 / (2 * math.pi)
            assert abs(abs(z) - 1) < 1e-12 and abs(k - round(k)) < 1e-6
            turns.add(round(k) % 4095)
    assert len(turns) == 4095



def aberth_inputs(monkeypatch, spec, n):
    """The starts and the fixed roots of the order-n Aberth solve."""
    seen = {}
    solve = census._aberth

    def record(coeffs, deg, u, w, blocks):
        lo = 0
        for order, size, m in blocks:
            if order == n:
                seen["starts"], seen["fixed"] = w[lo:lo + m].copy(), w[lo + m:lo + size].copy()
            lo += size
        return solve(coeffs, deg, u, w, blocks)

    monkeypatch.setattr(census, "_aberth", record)
    fixed_points(spec, n)
    return seen["starts"], seen["fixed"]


def test_preimage_starts_are_finite_distinct_and_off_the_fixed_roots(monkeypatch):
    # the critical orbit 0 -> -2 -> 2 of z^2 - 2 ends on its most repelling
    # fixed point: preimages of 2 itself would start twice at 0
    for n in range(2, 7):
        starts, fixed = aberth_inputs(monkeypatch, Quadratic(-2), n)
        assert starts.size == 2 ** n and fixed.size == 1, n
        assert np.isfinite(starts).all(), n
        gap = np.abs(starts[:, None] - starts[None, :])
        np.fill_diagonal(gap, np.inf)
        assert gap.min() > 1e-9, n
        assert np.abs(starts - fixed[0]).min() > 1e-9, n


HARD_MAPS = [
    ("rational:P=1,0,1;Q=0,2", 6),             # Newton's map for z^2 + 1
    ("quad:c=-2+0i", 7),
    ("quad:c=-0.122561+0.744862i", 8),         # the rabbit
    ("quad:c=0+1i", 8),
]


@pytest.mark.parametrize("text,n_max", HARD_MAPS)
def test_hard_maps_count_every_fixed_point(text, n_max):
    spec = charts.parse_map(text)
    for n in range(1, n_max + 1):
        assert fixed_points(spec, n).count == 2 ** n + 1, n


@pytest.mark.parametrize("text,n_max", [
    # the cardioid and period-2 quadratics the benchmark draws at seed 501
    ("quad:c=0.161024-0.041100i", 8),
    ("quad:c=-1.071666+0.073510i", 8),
    ("rational:P=0,2,0,1;Q=1,0,3", 5),
    *HARD_MAPS,
])
def test_census_sets_match_single_order_solves(monkeypatch, text, n_max):
    # the census solves its orders in one batch; each set must be the one
    # a solve of that order alone finds
    spec = charts.parse_map(text)
    batches = []
    solve = census._solve

    def record(*args):
        batches.append(solve(*args))
        return batches[-1]

    with monkeypatch.context() as patch:
        patch.setattr(census, "_solve", record)
        census_csv(spec, n_max)
    solved = {n: fps for batch in batches for n, fps in batch.items()}
    assert sorted(solved) == list(range(1, n_max + 1))
    for n, fps in solved.items():
        alone = fixed_points(spec, n)
        assert fps.count == alone.count, n
        assert fps.values.tobytes() == alone.values.tobytes(), n
        assert fps.north.tobytes() == alone.north.tobytes(), n


def monomial_jet(coeffs, deg, n, u, w):
    """F^n(x0) and its w-derivative at x0 = U (w, 1), each level a matrix
    product of the coefficient rows with the monomials a^i b^(D-i) and
    their derivatives, scaled as ``census._iterate_jet`` scales."""
    a, b = u[0, 0] * w + u[0, 1], u[1, 0] * w + u[1, 1]
    scale = 1.0 / np.maximum(np.abs(a), np.abs(b))
    a, b, da, db = a * scale, b * scale, u[0, 0] * scale, u[1, 0] * scale
    i = np.arange(deg + 1)[:, None]
    for _ in range(n):
        pa = np.ones((deg + 1, w.size), dtype=complex)
        pb = np.ones((deg + 1, w.size), dtype=complex)
        for k in range(1, deg + 1):
            pa[k] = pa[k - 1] * a
            pb[k] = pb[k - 1] * b
        mono = pa * pb[::-1]
        low = pa[:-1] * pb[-2::-1]
        dmono = np.zeros_like(mono)
        dmono[1:] += i[1:] * low * da
        dmono[:-1] += i[:0:-1] * low * db
        (a, b), (da, db) = coeffs @ mono, coeffs @ dmono
        scale = 1.0 / np.maximum(np.abs(a), np.abs(b))
        a, b, da, db = a * scale, b * scale, da * scale, db * scale
    return a, b, da, db


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_iterate_jet_matches_the_monomial_recursion(deg):
    rng = np.random.default_rng(deg)
    for _ in range(3):
        coeffs = rng.normal(size=(2, deg + 1)) + 1j * rng.normal(size=(2, deg + 1))
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        orders = np.repeat(np.arange(1, 7), 8)
        w = rng.normal(size=orders.size) + 1j * rng.normal(size=orders.size)
        (a0, b0, da0, db0), jet = census._iterate_jet(coeffs, deg, orders, u, w)
        a, b, _, _ = jet = np.array(jet)
        ratio = census._log_derivative(coeffs, deg, orders, u, w)
        for n in range(1, 7):
            rows = orders == n
            ra, rb, rda, rdb = monomial_jet(coeffs, deg, n, u, w[rows])
            np.testing.assert_allclose(a[rows] / b[rows], ra / rb, rtol=1e-12)
            g = ra * b0[rows] - rb * a0[rows]
            dg = rda * b0[rows] + ra * db0[rows] - rdb * a0[rows] - rb * da0[rows]
            np.testing.assert_allclose(ratio[rows], dg / g, rtol=1e-12)
        # each row's jet has the same bits alone as in the mixed batch
        for k in rng.permutation(orders.size)[:12]:
            _, alone = census._iterate_jet(coeffs, deg, orders[k:k + 1], u, w[k:k + 1])
            assert np.array(alone).tobytes() == jet[:, k:k + 1].tobytes(), k


def test_the_frame_is_the_frozen_seeded_qr():
    u = census._frame()
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-15
    rng = np.random.default_rng(2017)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    assert np.abs(u - q).max() <= 1e-15


def horner_jet(coeffs, deg, n, u, w):
    """The Horner walk of ``census._iterate_jet`` with its bookkeeping done
    at every level: the columns sliced, the leaving rows searched for and
    the jet written each time, x and dx scaled as four arrays."""
    a0, b0 = u[0, 0] * w + u[0, 1], u[1, 0] * w + u[1, 1]
    scale = 1.0 / np.maximum(np.abs(a0), np.abs(b0))
    a0, b0 = a0 * scale, b0 * scale
    da0, db0 = u[0, 0] * scale, u[1, 0] * scale
    orders = np.broadcast_to(n, w.shape)
    jet = np.empty((4, w.size), dtype=complex)
    a, b, da, db = a0, b0, da0, db0
    c = coeffs[:, :, None]
    lo = 0
    for level in range(1, int(orders.max(initial=0)) + 1):
        x, dx = c[:, deg] * a, c[:, deg] * da
        bp, dbp = b, db
        for i in range(deg - 1, -1, -1):
            x += c[:, i] * bp
            dx += c[:, i] * dbp
            if i:
                dx = dx * a + x * da
                x = x * a
                bp, dbp = bp * b, dbp * b + bp * db
        (a, b), (da, db) = x, dx
        scale = 1.0 / np.maximum(np.abs(a), np.abs(b))
        a, b, da, db = a * scale, b * scale, da * scale, db * scale
        cut = int(np.searchsorted(orders, level, side="right")) - lo
        jet[:, lo:lo + cut] = a[:cut], b[:cut], da[:cut], db[:cut]
        a, b, da, db = a[cut:], b[cut:], da[cut:], db[cut:]
        lo += cut
    return (a0, b0, da0, db0), tuple(jet)


@pytest.mark.parametrize("deg", [1, 2, 3, 4])
def test_iterate_jet_keeps_the_horner_walk_bits(deg):
    rng = np.random.default_rng(100 + deg)
    for _ in range(3):
        coeffs = rng.normal(size=(2, deg + 1)) + 1j * rng.normal(size=(2, deg + 1))
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        # mixed orders with gaps, one order for all, and single rows
        orders = np.sort(rng.integers(1, 7, size=40))
        orders = orders[(orders != 3) | (rng.random(orders.size) < 0.5)]
        w = rng.normal(size=orders.size) + 1j * rng.normal(size=orders.size)
        cases = [(orders, w), (int(orders[-1]), w)] + [
            (orders[k:k + 1], w[k:k + 1]) for k in range(0, orders.size, 7)]
        for n, rows in cases:
            got = census._iterate_jet(coeffs, deg, n, u, rows)
            want = horner_jet(coeffs, deg, n, u, rows)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_one_orbit_walk_serves_every_order(monkeypatch):
    # solved one order at a time, this census walks 457 jet levels, 35
    # preimage levels, 36 residual levels and 8 frames
    levels, preimages, frames, residual = [], [], [], []

    def counted(name, log, entry, module=census):
        call = getattr(module, name)

        def wrapper(*args):
            log.append(entry(*args))
            return call(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted("_iterate_jet", levels, lambda coeffs, deg, n, u, w: int(np.max(n)))
    # the levels of the preimage tree, not the pole preimages of the
    # cross-check's decomposition, which share the solver
    counted("_preimages", preimages, lambda forms, a, b: a.size
            if sys._getframe(2).f_code.co_name == "_starts" else None, degree)
    counted("_frame", frames, lambda *args: None)
    counted("evaluate_many", residual, lambda spec, values, north: spec)
    census_csv(Quadratic(0.1), 8)
    assert max(levels) <= 8
    assert sum(levels) < 150
    # one level of the preimage tree per order: order 2 needs levels 1 and 2
    assert [k for k in preimages if k is not None] == [2 ** k for k in range(8)]
    assert len(frames) == 1
    assert residual == [Quadratic(0.1)] * 8


def test_multipliers_are_computed_only_where_approximations_merge(monkeypatch):
    # the starts read the multipliers of the 3 fixed points of f; with no
    # merge, none of the 510 approximations of orders 1-8 is asked for one
    rows = []
    multipliers = census._multipliers

    def counted(coeffs, deg, n, u, w):
        rows.append(w.size)
        return multipliers(coeffs, deg, n, u, w)

    monkeypatch.setattr(census, "_multipliers", counted)
    census_csv(Quadratic(0.1), 8)
    assert sum(rows) == 3


def test_close_fixed_points_are_refused_not_merged():
    # z^2 - 2 at n = 8 has the simple fixed points 2 cos(2 pi k / 255) and
    # 2 cos(2 pi k / 257): k = 127 and k = 128 lie 9.4e-7 apart (chordal)
    # near -2, inside DEDUP_RADIUS, so the census refuses the order
    with pytest.raises(CensusIncomplete, match="merge"):
        fixed_points(Quadratic(-2), 8)


def test_preimage_starts_cut_the_aberth_steps(monkeypatch):
    # started from the golden spiral, order 10 takes 140 steps
    steps = []
    log_derivative = census._log_derivative

    def counting(*args):
        steps.append(np.max(args[2]))
        return log_derivative(*args)

    monkeypatch.setattr(census, "_log_derivative", counting)
    assert fixed_points(Quadratic(0.1), 10).count == 1025
    assert steps.count(10) <= 40


def test_quadratic_at_the_degree_cap():
    fps = fixed_points(Quadratic(0.1), 12)
    assert fps.count == 4097
    assert N_POLE in fps.points


@pytest.mark.parametrize("size", [257, 1025])
def test_pair_sums_do_not_depend_on_the_block_size(monkeypatch, size):
    rng = np.random.default_rng(size)
    w = rng.normal(size=size) + 1j * rng.normal(size=size)
    rows = np.sort(rng.choice(size, size // 3, replace=False))
    sums = {}
    for shift in range(10, 17):
        monkeypatch.setattr(census, "PAIR_BLOCK", 1 << shift)
        sums[shift] = (census._pair_sums(w, np.arange(size)).tobytes(),
                       census._pair_sums(w, rows).tobytes())
    assert len(set(sums.values())) == 1


@pytest.mark.parametrize("text", [
    "quad:c=0.1", "quad:c=-2", "rational:P=0,2,0,1;Q=1,0,3",
    "rational:P=1,0,1;Q=0,2",                   # Newton's map for z^2 + 1
])
def test_companion_fixed_points_match_the_spiral_solve(monkeypatch, text):
    spec = charts.parse_map(text)
    deg = spec.declared_degree
    coeffs, u = as_rational(spec), census._frame()
    spiral = census._spiral(deg + 1)
    assert census._aberth(coeffs, deg, u, spiral, [(1, deg + 1, deg + 1)]) == [0]
    # the polish of the companion roots converges within two steps
    left = []
    aberth = census._aberth

    def polish(*args):
        left.append(aberth(*args))
        return left[-1]

    monkeypatch.setattr(census, "_aberth", polish)
    monkeypatch.setattr(census, "ABERTH_MAX_ITERS", 2)
    roots = census._base_fixed_points(coeffs, deg, u, census._forms(coeffs, deg, u))
    assert left == [[0]]
    assert roots.size == deg + 1
    # U is unitary, so the chordal metric in w is the one in z
    gap = 2 * np.abs(roots[:, None] - spiral[None, :]) / np.sqrt(
        (1 + np.abs(roots[:, None]) ** 2) * (1 + np.abs(spiral[None, :]) ** 2))
    assert gap.min(axis=0).max() < 1e-12
    assert gap.min(axis=1).max() < 1e-12


def test_no_coefficient_expansion_or_eigensolve(monkeypatch):
    # the base fixed points are one companion solve of degree D + 1; a row
    # of higher degree would be an expanded f^n - z
    specs = (Quadratic(0.1), CUBIC, RationalPair((1, 2), (3, 1)), Power(-2),
             Iterate(Quadratic(-0.5 + 0.3j), 2))
    base_degree = []

    def bounded(poly, solve=charts._companion_roots):
        if poly.shape[1] - 1 > base_degree[-1] + 1:
            raise AssertionError("coefficient expansion or companion solve")
        return solve(poly)

    for module in (census, degree):
        monkeypatch.setattr(module, "_companion_roots", bounded)
    for spec in specs:
        base_degree.append(abs(charts.iterate_base(spec)[0].declared_degree))
        for n in (1, 2, 3):
            assert fixed_points(spec, n).count == abs(spec.declared_degree) ** n + 1


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
    for spec in (Power(2), Quadratic(0.1), CUBIC, ProductMap(AffineProfile(2.0, 0.0), 3)):
        for n in (1, 2):
            small = fixed_points(spec, n).points
            large = fixed_points(spec, 2 * n).points
            for p in small:
                assert min(chordal(p, q) for q in large) < 1e-6


@pytest.mark.parametrize("spec", [
    RationalPair((1, 2), (3, 1)), CUBIC, Quadratic(0.25), Power(-2),
    ProductMap(AffineProfile(2.0, 0.0), 3),
])
def test_fixed_point_sets_are_sorted_chart_arrays(spec):
    # with or without a fixed pole, a set is the (values, north) pair of
    # evaluate_many, sorted by (latitude, angle), and its points are read off it
    for n in (1, 2):
        fps = fixed_points(spec, n)
        assert fps.values.dtype == complex and fps.north.dtype == bool
        keys = [(p.latitude(), p.angle()) for p in fps.points]
        assert keys == sorted(keys)
        assert [(p.value, p.chart is Chart.NORTH) for p in fps.points] == list(
            zip(fps.values.tolist(), fps.north.tolist()))


def test_census_builds_no_point_it_does_not_print(monkeypatch):
    # the census carries its points as arrays: the 16,411 points of every
    # order's approximations, images and merges are never built one by one
    made = []
    init = SpherePoint.__post_init__

    def counting(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(SpherePoint, "__post_init__", counting)
    assert census_csv(Quadratic(0.1), 12).splitlines()[-1].startswith("12,4097,")
    assert len(made) < 100


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        fixed_points(Power(2), 13)


def test_continuum_flags():
    ident = fixed_points(Power(1), 1)
    assert ident.is_continuum and ident.count == math.inf
    rotation = ProductMap(AffineProfile(1.0, 0.0), 1, AffineProfile(0.0, math.pi))
    assert fixed_points(rotation, 1).count == 2  # poles only
    assert fixed_points(rotation, 2).is_continuum  # full turn: identity


def test_degree_1_product_fixes_its_fixed_latitude_only_untwisted():
    # q(s) = 2s + 1/2 fixes s* = -1/2: without a twist its whole circle is
    # fixed; the twist h = 1 turns it, and only S and N stay fixed
    fps = fixed_points(ProductMap(AffineProfile(2.0, 0.5), 1))
    assert fps.count == math.inf
    assert fps.continuum_latitudes == pytest.approx((-0.5,))
    twisted = fixed_points(ProductMap(AffineProfile(2.0, 0.5), 1, AffineProfile(0.0, 1.0)))
    assert twisted.count == 2
    assert twisted.points == (S_POLE, N_POLE)


def test_a_wrapped_twist_jump_is_not_a_fixed_circle():
    # every circle turns by h(s) in [2, 4]: at n = 1 only the poles are
    # fixed, though the wrapped twist jumps from pi to -pi where h = pi; at
    # n = 2 the circle where 2h = 2pi is fixed
    text = census_csv(charts.parse_map("product:q=affine(1,0);d=1;h=pwl(-inf:2,0:4,inf:4)"), 2)
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert [row[1] for row in rows] == ["2", "inf"]


def test_an_affine_fixed_latitude_past_the_level_grid_is_counted():
    # q(s) = 2s - 20 fixes s* = 20, beyond the grid's |s| < 18, and q^2
    # fixes it too: the poles plus |2^n - 1| points on it; the dilation
    # q(s) = s + ln 2 fixes no latitude at any order
    rows = census_csv(charts.parse_map("product:q=affine(2,-20);d=2"), 2).splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1", "3"], ["2", "5"]]
    rows = census_csv(DILATION, 4).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["2"] * 4


def test_a_degree_1_poly_profile_is_counted_as_its_affine_form():
    # poly(-20,2) is q(s) = 2s - 20 written as a polynomial: its fixed
    # latitude s* = 20 is found in closed form at every order, as the affine
    # spelling's is, and the map still prints as written
    for poly, affine, counts in (("poly(-20,2);d=2", "affine(2,-20);d=2", ["3", "5", "9"]),
                                 ("poly(0.5,2);d=3", "affine(2,0.5);d=3", ["4", "10", "28"])):
        spec = charts.parse_map("product:q=" + poly)
        assert charts.format_map(spec) == "product:q=" + poly
        rows = census_csv(spec, 3).splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == counts
        assert rows == census_csv(charts.parse_map("product:q=" + affine), 3).splitlines()[1:]


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


@pytest.mark.parametrize("text", [
    "power:d=1", "power:d=-1", "power:d=2", "power:d=-2", "power:d=3", "quad:c=0",
    "product:q=affine(0.5,0);d=2", "product:q=affine(-2,0);d=2",
    "product:q=affine(1,0.5);d=2", "product:q=affine(1.01,0);d=2",
    "product:q=affine(2,-15);d=2", "product:q=affine(-0.5,0);d=2",
    "product:q=pwl(-inf:-inf,-1:-2,-0.5:0.2,0.5:-0.2,1:2,inf:inf);d=3",
    "product:q=pwl(-inf:-inf,-1:inf,1:-inf,inf:inf);d=2",
    "product:q=pwl(-inf:-inf,0.5:3,inf:-inf);d=1",
    "product:q=poly(0,0,0,1);d=2", "product:q=poly(0,-1,0,1);d=2",
    "rational:P=0,2;Q=1", "rational:P=0,0,0.5;Q=1",
    "iter:n=2(product:q=affine(-2,0.1);d=2)",
    "iter:n=2(product:q=pwl(-inf:-inf,-1:inf,1:-inf,inf:inf);d=2)",
    # a constant map: its composed twist reads the finite end limits
    "iter:n=2(product:q=affine(0,1);d=0)",
])
def test_poles_attracting_reads_the_product_view(monkeypatch, text):
    spec = charts.parse_map(text)

    def forbidden(*args):
        raise AssertionError("orbit evaluated")

    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(census, "evaluate_many", forbidden)
        warnings.simplefilter("error")
        from_view = poles_attracting(spec)
    monkeypatch.setattr(census, "as_product_view", lambda spec: None)
    assert from_view == poles_attracting(spec)


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


@pytest.mark.parametrize("c", [1e-7, 1e-6, 3e-5, 1e-10])
def test_crosscheck_reports_a_loop_probe_with_no_room(c):
    # near c = 0 the pole preimages crowd the anchor: the probe circle ran
    # through S (PointOnCurve at 1e-7 and 3e-5) or around it (UnsupportedSpec
    # at 1e-6 and 1e-10), and the census raised
    report = theorem_a_crosscheck(Quadratic(c), 2)
    assert report.status == "scope_unavailable"
    assert [r.count for r in report.rows] == [3.0, 5.0]
    assert census_csv(Quadratic(c), 2).splitlines()[1:] == [
        "1,3,1.09861228867,2,", "2,5,0.804718956217,4,"]


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


def count_solves(monkeypatch, solver):
    """The orders each call of the census's private solver ``solver``
    solves: the list it is given, or the order of the one iterate."""
    calls = []
    solve = getattr(census, solver)

    def counted(*args):
        calls.append(list(args[1]) if solver == "_rational_fixed_points"
                     else [charts.iterate_base(args[0])[1]])
        return solve(*args)

    monkeypatch.setattr(census, solver, counted)
    return calls


@pytest.mark.parametrize("spec, solver", [
    (Quadratic(0.1), "_rational_fixed_points"),
    (ProductMap(AffineProfile(2.0, 0.0), 3), "_product_fixed_points"),
])
def test_census_solves_each_order_once(monkeypatch, spec, solver):
    # the growth report and the cross-check each ask for every order
    calls = count_solves(monkeypatch, solver)
    census_csv(spec, 5)
    assert sorted(n for orders in calls for n in orders) == [1, 2, 3, 4, 5]
    # the Aberth orders are solved in one batch, the product orders one by one
    assert len(calls) == (1 if solver == "_rational_fixed_points" else 5)


def test_a_constant_iterate_has_one_fixed_point():
    # f, and so f^2, sends the whole sphere to the point of latitude 1, angle 0
    text = census_csv(charts.parse_map("iter:n=2(product:q=affine(0,1);d=0)"), 3)
    assert [row.split(",")[1] for row in text.splitlines()[1:]] == ["1", "1", "1"]


@pytest.mark.parametrize("spec", [
    Power(2), ProductMap(AffineProfile(2.0, 0.0), 3), Quadratic(0.1),
])
def test_census_makes_one_solve_call(monkeypatch, spec):
    # every order is solved before either report, which only read the sets
    calls = []
    solve = census._solve

    def record(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(census, "_solve", record)
    census_csv(spec, 5)
    assert calls == [(spec, 1, 5)]


def test_a_lone_order_raises_its_own_error(monkeypatch):
    # one order has no other to fall back on: the solver's error is raised
    def broken(*args):
        raise RuntimeError("preimage level failed")

    monkeypatch.setattr(degree, "_preimages", broken)
    with pytest.raises(RuntimeError, match="preimage level failed"):
        fixed_points(Quadratic(0.1), 3)


@settings(max_examples=100, deadline=None)
@given(mu=st.builds(cmath.rect, st.floats(0.0, 0.8), st.floats(-math.pi, math.pi)))
def test_cardioid_census_counts_every_fixed_point(mu):
    # c = mu/2 (1 - mu/2) has an attracting fixed point of multiplier mu
    # (the main cardioid), so every fixed point of f^n is simple: 2^n + 1
    spec = Quadratic(mu / 2 * (1 - mu / 2))
    tables = []
    solve = census._solve

    def record(*args):
        tables.append(solve(*args))
        return tables[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "_solve", record)
        text = census_csv(spec, 6)
    assert [row.split(",")[1] for row in text.splitlines()[1:]] == [
        str(2 ** n + 1) for n in range(1, 7)]
    assert len(tables) == 1
    for n, fps in tables[0].items():
        alone = fixed_points(spec, n)
        assert fps.values.tobytes() == alone.values.tobytes(), n
        assert fps.north.tobytes() == alone.north.tobytes(), n
    assert_divisor_inclusion(tables[0])


def assert_divisor_inclusion(table):
    """Fix(f^k) lies in Fix(f^n) for each k | n of a census table keyed by
    n: every point of order k within chordal 1e-12 of one of order n."""
    for n, big in table.items():
        for k in (k for k in table if n % k == 0 and k < n):
            small = table[k]
            gaps = charts.chordal_many(small.values[:, None], small.north[:, None],
                                       big.values[None, :], big.north[None, :])
            assert gaps.min(axis=1).max() <= 1e-12, (k, n)


def test_the_cubic_census_nests_the_fixed_points_of_divisor_orders():
    assert_divisor_inclusion(census._solve(CUBIC, 1, 6))


def test_no_fixed_point_set_outlives_its_census(monkeypatch):
    calls = count_solves(monkeypatch, "_rational_fixed_points")
    first = census_csv(Quadratic(0.1), 3)
    assert census_csv(Quadratic(0.1), 3) == first
    assert calls == [[1, 2, 3], [1, 2, 3]]
    assert census._SOLVED.get() is None
    fixed_points(Quadratic(0.1), 3)
    fixed_points(Quadratic(0.1), 3)
    assert calls[2:] == [[3], [3]]


def test_a_failed_census_leaves_no_fixed_point_sets(monkeypatch):
    # the growth report's first order raises
    with monkeypatch.context() as patch:
        merge_two_approximations(patch)
        with pytest.raises(CensusIncomplete, match="merge"):
            census_csv(Quadratic(0.1), 3)
    assert census._SOLVED.get() is None
    with pytest.raises(DegreeCapExceeded):
        census_csv(CUBIC, 8)
    assert census._SOLVED.get() is None
    calls = count_solves(monkeypatch, "_rational_fixed_points")
    assert fixed_points(Quadratic(0.1), 1).count == 3
    assert fixed_points(Quadratic(0.1), 1).count == 3
    assert calls == [[1], [1]]

"""Local degree at a preimage, global degree as the local-degree sum,
annular degree of an essential circle, and the cactus identities.

Degrees are always reduced to winding numbers: the local degree at x over y
is the winding of the image of a small circle about x around y, and the
sphere degree is the sum over the preimages of a regular value.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import charts
from .charts import (
    Chart,
    MapSpec,
    SpherePoint,
    as_product_view,
    as_rational,
    chart_value,
    chart_values,
    chordal,
    evaluate,
    evaluate_many,
    from_latlon,
    solve_profile_level,
    to_chart,
)
from .winding import SampledCurve, circle, curve_diameter, is_essential, winding_number

PREIMAGE_DEDUP = 1e-7


class DegreeError(Exception):
    pass


class RadiusTooLarge(DegreeError):
    """The probe circle's image passes too close to the target value."""


class PreimageClusterTooTight(DegreeError):
    """Witnesses are too close together; choose another regular value."""


class DegreeMismatch(DegreeError):
    """Numeric degree disagreed with the declared one: self-test failure."""


class ImageHitsPole(DegreeError):
    """The image of the core circle comes too close to a pole."""


def default_seed() -> int:
    return int(os.environ.get("SPHERE_CENSUS_SEED", "0"))


@dataclass(frozen=True)
class DegreeReport:
    total: int
    witnesses: tuple[tuple[SpherePoint, int], ...]
    regular_value: SpherePoint


# ---------------------------------------------------------------------------
# Preimage finding
# ---------------------------------------------------------------------------


def find_preimages(spec: MapSpec, y: SpherePoint) -> list[SpherePoint]:
    """All preimages of y, deterministically ordered.

    Rational specs are solved algebraically (companion-matrix roots of
    P - y*Q); product specs reduce to a latitude level-set solve plus the
    angular congruence.
    """
    rat = as_rational(spec)
    if rat is not None:
        return _rational_preimages(rat, y)
    view = as_product_view(spec)
    if view is not None:
        return _product_preimages(view, y)
    raise charts.ParseError(f"no preimage solver for {spec!r}")


def _rational_preimages(rat, y: SpherePoint) -> list[SpherePoint]:
    p, q = (np.array(c, dtype=complex) for c in rat)
    d_max = max(p.size, q.size) - 1
    pp = np.pad(p, (0, d_max + 1 - p.size))
    qq = np.pad(q, (0, d_max + 1 - q.size))
    out: list[SpherePoint] = []
    if y.normalized().is_pole and y.normalized().chart is Chart.SOUTH:
        poly = qq  # preimages of N are the poles of the map
    else:
        y_val = to_chart(y.normalized(), Chart.NORTH).value
        poly = pp - y_val * qq
    poly_t = np.trim_zeros(poly, "b")
    if poly_t.size > 1:
        roots = npoly.polyroots(poly_t)
        roots = [_polish_root(poly_t, z) for z in roots]
        for z in sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9))):
            out.append(SpherePoint(z, Chart.NORTH).normalized())
    # infinity is a preimage when the image of N matches y
    img_inf = evaluate_rational_at_infinity(pp, qq)
    if chordal(img_inf, y) < 1e-9:
        out.append(charts.N_POLE)
    return _dedup_points(out, PREIMAGE_DEDUP)


def evaluate_rational_at_infinity(pp: np.ndarray, qq: np.ndarray) -> SpherePoint:
    a, b = pp[-1], qq[-1]
    if b == 0:
        return charts.N_POLE
    if abs(a) > abs(b):
        return SpherePoint(b / a, Chart.SOUTH)
    return SpherePoint(a / b, Chart.NORTH)


def _polish_root(poly: np.ndarray, z: complex, iters: int = 4) -> complex:
    dpoly = npoly.polyder(poly)
    for _ in range(iters):
        val = complex(npoly.polyval(z, poly))
        dval = complex(npoly.polyval(z, dpoly))
        if dval == 0:
            break
        z -= val / dval
    return z


def _product_preimages(view, y: SpherePoint) -> list[SpherePoint]:
    d = view.angular_degree
    out: list[SpherePoint] = []
    s_y = y.latitude()
    theta_y = y.angle()
    if math.isinf(s_y):
        # preimages of a pole: crossing circles are continua, skip them here;
        # point preimages are the ends whose limit matches
        lo, hi = view.radial.end_limits()
        if lo == s_y:
            out.append(charts.S_POLE)
        if hi == s_y:
            out.append(charts.N_POLE)
        return out
    for s in solve_profile_level(view.radial, s_y):
        if d == 0:
            # image of this circle is a single point; generic y misses it
            if abs(_angle_diff(view.twist(s), theta_y)) < 1e-9:
                raise PreimageClusterTooTight("angular-degree-0 circle preimage")
            continue
        for k in range(abs(d)):
            theta = (theta_y - view.twist(s) + 2 * math.pi * k) / d
            out.append(from_latlon(s, theta))
    return _dedup_points(out, PREIMAGE_DEDUP)


def _angle_diff(a: float, b: float) -> float:
    return (a - b + math.pi) % (2 * math.pi) - math.pi


def _dedup_points(points, radius: float) -> list[SpherePoint]:
    kept: list[SpherePoint] = []
    for p in points:
        if all(chordal(p, other) > radius for other in kept):
            kept.append(p)
    return kept


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def local_degree(spec: MapSpec, x: SpherePoint, y: SpherePoint, radius: float) -> int:
    """Winding of the image of the radius-circle about x around y."""
    x = x.normalized()
    y = y.normalized()
    if chordal(evaluate(spec, x), y) > 1e-9:
        raise ValueError("x does not map to y")
    y_val = y.value
    probe = circle(x.value, radius, samples=128, chart=x.chart)

    def image_value(t: float) -> complex:
        p = SpherePoint(probe.point_at(t), x.chart)
        return chart_value(evaluate(spec, p), y.chart)

    imgs = evaluate_many(spec, probe.points, x.chart is Chart.NORTH)
    pts = tuple(chart_values(*imgs, y.chart).tolist())
    image = SampledCurve(pts, y.chart, param_fn=image_value, params=probe.params)
    if min(abs(z - y_val) for z in image.points) <= 1e-9:
        raise RadiusTooLarge("image circle passes through the target value")
    return winding_number(image, y_val)


def global_degree(
    spec: MapSpec,
    y: SpherePoint | None = None,
    seed: int | None = None,
) -> DegreeReport:
    """Sum of local degrees over the preimages of a regular value.

    When y is omitted it is drawn from a seeded pseudo-random sequence,
    rejecting values whose preimages cluster too tightly.  A mismatch with
    the declared degree is fatal.
    """
    if y is not None:
        report = _degree_at(spec, y)
    else:
        rng = np.random.default_rng(default_seed() if seed is None else seed)
        report = None
        for _ in range(32):
            cand = from_latlon(rng.uniform(-0.6, 0.6), rng.uniform(0.0, 2 * math.pi))
            try:
                report = _degree_at(spec, cand)
                break
            except (PreimageClusterTooTight, RadiusTooLarge):
                continue
        if report is None:
            raise PreimageClusterTooTight("no usable regular value after 32 draws")
    if report.total != spec.declared_degree:
        raise DegreeMismatch(
            f"computed degree {report.total} != declared {spec.declared_degree}"
        )
    return report


def _degree_at(spec: MapSpec, y: SpherePoint) -> DegreeReport:
    pre = find_preimages(spec, y)
    radius = witness_radius(pre)
    witnesses = tuple((x, local_degree(spec, x, y, radius)) for x in pre)
    total = sum(d for _, d in witnesses)
    return DegreeReport(total, witnesses, y)


def witness_radius(preimages) -> float:
    """Probe radius separated from every other witness by a factor >= 10."""
    if not preimages:
        return 0.05
    if len(preimages) == 1:
        return 0.05
    sep = min(
        chordal(a, b)
        for i, a in enumerate(preimages)
        for b in preimages[i + 1:]
    )
    if sep < 1e-4:
        raise PreimageClusterTooTight(f"witness separation {sep:.3g}")
    return min(0.05, sep / 20.0)


def annular_degree(spec: MapSpec, core: SampledCurve) -> int:
    """Action of the map on the annulus first homology along a core circle.

    Computed as the winding of the image of the core about the S coordinate
    in the north chart.  The core must be essential and its image must stay
    away from both poles.
    """
    if not is_essential(core):
        raise ValueError("core circle is not essential")

    def image_value(t: float) -> complex:
        p = SpherePoint(core.point_at(t), core.chart)
        return chart_value(evaluate(spec, p), Chart.NORTH)

    vals, north = evaluate_many(
        spec, [core.point_at(t) for t in core.params], core.chart is Chart.NORTH
    )
    pole = vals == 0
    arr = np.zeros_like(vals)
    arr[~pole] = chart_values(vals[~pole], north[~pole], Chart.NORTH)
    mag = np.hypot(arr.real, arr.imag)
    bad = pole | ~((1e-6 < mag) & (mag < 1e6))
    if bad.any():
        t = core.params[int(np.argmax(bad))]
        raise ImageHitsPole(f"core image at parameter {t:.4f} is near a pole")
    pts = tuple(arr.tolist())
    if curve_diameter(arr) < 1e-9 * max(1.0, float(np.abs(arr).max())):
        # constant on the sample grid; probe off-grid parameters to tell a
        # genuinely constant image (angular degree 0) from aliased sampling
        off_grid = [core.point_at(t) for t in (0.1137, 0.4711, 0.7893)]
        imgs = evaluate_many(spec, off_grid, core.chart is Chart.NORTH)
        probes = chart_values(*imgs, Chart.NORTH).tolist()
        if all(abs(v - pts[0]) < 1e-9 * max(1.0, abs(pts[0])) for v in probes):
            return 0
        raise ValueError(
            "core circle sampling aliases the image winding; resample denser"
        )
    image = SampledCurve(pts, Chart.NORTH, param_fn=image_value, params=core.params)
    return winding_number(image, 0j)


# ---------------------------------------------------------------------------
# Cactus identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CactusRow:
    interval: tuple[float, float]
    sphere_degree: int
    annular_degree: int

    @property
    def magnitudes_match(self) -> bool:
        return abs(self.sphere_degree) == abs(self.annular_degree)


@dataclass(frozen=True)
class CactusReport:
    rows: tuple[CactusRow, ...]
    degree_sum: int
    declared: int

    @property
    def passed(self) -> bool:
        return self.degree_sum == self.declared and all(
            r.magnitudes_match for r in self.rows
        )


def component_degrees(
    spec: MapSpec,
    intervals: list[tuple[float, float]],
    seed: int | None = None,
) -> tuple[list[int], SpherePoint]:
    """Sphere degree of each latitude component: bucketed local-degree sums.

    One regular value serves every component; its preimages are assigned to
    components by latitude.
    """
    rng = np.random.default_rng(default_seed() if seed is None else seed)
    last_exc: Exception | None = None
    for _ in range(32):
        y = from_latlon(rng.uniform(-0.6, 0.6), rng.uniform(0.0, 2 * math.pi))
        try:
            pre = find_preimages(spec, y)
            radius = witness_radius(pre)
            sums = [0] * len(intervals)
            for x in pre:
                s = x.latitude()
                hit = [i for i, (lo, hi) in enumerate(intervals) if lo < s < hi]
                if len(hit) != 1:
                    raise PreimageClusterTooTight(
                        f"preimage latitude {s:.6g} not inside a unique component"
                    )
                sums[hit[0]] += local_degree(spec, x, y, radius)
            return sums, y
        except (PreimageClusterTooTight, RadiusTooLarge) as exc:
            last_exc = exc
    raise PreimageClusterTooTight(f"no usable regular value: {last_exc}")


def cactus_check(spec: MapSpec, components) -> CactusReport:
    """Verify sum(d_i) = declared degree and |delta_i| = |d_i| per component.

    ``components`` comes from the annulus decomposition, ordered from S to N.
    Signs of the annular degrees are reported, not asserted.
    """
    intervals = [(c.s_lo, c.s_hi) for c in components]
    sums, _ = component_degrees(spec, intervals)
    rows = tuple(
        CactusRow(interval=iv, sphere_degree=d, annular_degree=c.delta)
        for iv, d, c in zip(intervals, sums, components)
    )
    return CactusReport(rows=rows, degree_sum=sum(sums), declared=spec.declared_degree)

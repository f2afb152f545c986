"""Local degree at a preimage, global degree as the local-degree sum,
annular degree of an essential circle, and the cactus identities.

Degrees are always reduced to winding numbers: the local degree at x over y
is the winding of the image of a small circle about x around y, and the
sphere degree is the sum over the preimages of a regular value, which
``global_degree`` and ``component_degrees`` draw from one seeded sequence.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import charts
from .charts import (
    Chart,
    MapSpec,
    PoleHasNoCoordinate,
    SpherePoint,
    as_product_view,
    as_rational,
    chart_values,
    check_degree_cap,
    chordal_many,
    curve_image,
    dedup_many,
    evaluate,  # unused: perfbench's tracer patches degree.evaluate
    evaluate_many,
    from_latlon,
    from_pairs,
    iterate_base,
    solve_profile_level,
    sphere_arrays,
    wrap_angle,
)
from .winding import (
    SampledCurve,
    circle,
    curve_diameter,
    is_essential,
    ring,
    settle,
    winding_about_zero,
    winding_number,
)

PREIMAGE_DEDUP = 1e-7
# samples of each probe circle of ``local_degree``
PROBE_SAMPLES = 128
# separations measured by one ``chordal_many`` call of ``witness_radius``
PAIR_BLOCK = 1 << 16


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
    """All preimages of y, sorted by ``_north_order``.

    A spec with a product view reduces to a latitude level-set solve plus
    the angular congruence: a power's preimages are its closed-form d-th
    roots.  These are distinct by construction, |d| angles on each of the
    distinct level latitudes, so they are not deduplicated.  Any other spec
    is f^n of a quadratic or rational f, solved level by level in the north
    chart: n calls of ``_preimages`` on 1, D, D^2, ... targets (a : b), f^n
    never expanded, close pairs kept to the last level; a root lost to
    infinity is N = (1 : 0) exactly.  The last level is deduplicated once,
    in ``_north_order``, by ``dedup_many``.
    """
    view = as_product_view(spec)
    if view is not None:
        return sorted(_product_preimages(view, y), key=_north_order)
    base, n = iterate_base(spec)
    forms = _coefficient_rows(*as_rational(base))
    pair = (y.value, 1.0) if y.chart is Chart.NORTH else (1.0, y.value)
    a, b = np.array([pair], dtype=complex).T
    for _ in range(n):
        w = _preimages(forms, a, b)
        finite = np.isfinite(w)
        a, b = np.where(finite, w, 1.0), finite.astype(complex)
    values, north = from_pairs(a, b)
    keys = [_north_key(v, up) for v, up in zip(values.tolist(), north.tolist())]
    order = sorted(range(values.size), key=keys.__getitem__)
    values, north = values[order], north[order]
    kept = dedup_many(values, north, PREIMAGE_DEDUP)
    return [SpherePoint(v, Chart.NORTH if up else Chart.SOUTH)
            for v, up in zip(values[kept].tolist(), north[kept].tolist())]


def _north_order(p: SpherePoint) -> tuple:
    """The order of ``find_preimages``: north-chart value rounded to 9
    places, N last."""
    return _north_key(p.value, p.chart is Chart.NORTH)


def _north_key(value: complex, north: bool) -> tuple:
    """``_north_order`` of the chart point (value, north)."""
    if not north and value == 0:
        return (1,)
    z = value if north else 1.0 / value
    return (0, round(z.real, 9), round(z.imag, 9))


def _coefficient_rows(p, q) -> np.ndarray:
    """F = (P, Q) as two rows of ascending coefficients, padded to degree D."""
    rows = np.zeros((2, max(len(p), len(q))), dtype=complex)
    rows[0, :len(p)], rows[1, :len(q)] = p, q
    return rows


def _preimages(forms: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The D preimages under f of each target (a : b), target by target:
    the roots w of b F1(w, 1) - a F2(w, 1), with ``forms`` holding the
    w-coefficients of F(w, 1) in the caller's chart, each row scaled by
    1 / max(|a|, |b|).  A root lost to infinity is inf: there f(inf) is the
    target."""
    scale = 1.0 / np.maximum(np.abs(a), np.abs(b))
    return _companion_roots(np.outer(b * scale, forms[0]) - np.outer(a * scale, forms[1]))


def _companion_roots(poly: np.ndarray) -> np.ndarray:
    """The roots of each row of ascending coefficients, row by row, as one
    batch of companion eigenvalues: a row whose leading coefficient
    vanishes gives the roots of the row trimmed of it, and inf for each
    root lost to infinity."""
    deg = poly.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        last = -poly[:, :deg] / poly[:, deg:]
    full = np.isfinite(last).all(axis=1)
    companion = np.zeros((np.count_nonzero(full), deg, deg), dtype=complex)
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    companion[:, :, -1] = last[full]
    roots = np.linalg.eigvals(companion)
    if full.all():
        return roots.ravel()
    out = np.full((full.size, deg), complex(math.inf))
    out[full] = roots
    if deg > 1:
        out[~full, :-1] = _companion_roots(poly[~full, :-1]).reshape(-1, deg - 1)
    return out.ravel()


def _product_preimages(view, y: SpherePoint) -> list[SpherePoint]:
    """The preimages of y under a product view, unsorted."""
    d = view.angular_degree
    s_y = y.latitude()
    theta_y = y.angle()
    if math.isinf(s_y):
        # preimages of a pole: crossing circles are continua, skip them here;
        # point preimages are the ends whose limit matches
        return [pole for pole, end in zip((charts.S_POLE, charts.N_POLE),
                                          view.radial.end_limits()) if end == s_y]
    out: list[SpherePoint] = []
    for s in solve_profile_level(view.radial, s_y):
        if d == 0:
            # image of this circle is a single point; generic y misses it
            if abs(wrap_angle(view.twist(s) - theta_y)) < 1e-9:
                raise PreimageClusterTooTight("angular-degree-0 circle preimage")
            continue
        for k in range(abs(d)):
            theta = (theta_y - view.twist(s) + 2 * math.pi * k) / d
            out.append(from_latlon(s, theta))
    return out


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def local_degree(spec: MapSpec, xs, y: SpherePoint, radius: float) -> tuple[int, ...]:
    """Winding of the image of the radius-circle about each x around y.

    One ``evaluate_many`` batch maps the witnesses and all their 128-sample
    probe circles; each image is wound as one row of an array by ``settle``.
    The witnesses are then read in order, so the first failing one names
    the error: one off y raises ValueError, one whose image passes through
    y raises ``RadiusTooLarge``, and a row that does not settle in the
    batch (a repeated sample, an edge at or past ``EDGE_CAP``, or any
    fault) is wound alone by ``winding_number``, which refines or raises.
    A point of the batch that fails to map raises its chart error.
    """
    y = y.normalized()
    xs = [x.normalized() for x in xs]
    values, north = sphere_arrays(xs)
    probes = values[:, None] + ring(radius, np.arange(PROBE_SAMPLES) / PROBE_SAMPLES)
    image, image_north = evaluate_many(
        spec, np.concatenate((values, probes.ravel())),
        np.concatenate((north, np.repeat(north, PROBE_SAMPLES))))
    rows = chart_values(image[values.size:], image_north[values.size:],
                        y.chart).reshape(probes.shape)
    misses = chordal_many(image[:values.size], image_north[:values.size],
                          y.value, y.chart is Chart.NORTH) > 1e-9
    # scale-free: near a pole the probe circle, and so its image, is small
    gaps = np.abs(rows - y.value)
    through = gaps.min(axis=1) <= 1e-9 * gaps.max(axis=1)
    # a repeated sample is trimmed by ``SampledCurve``: such a row is wound alone
    repeats = ((probes == np.roll(probes, -1, axis=1)).any(axis=1)
               | (rows == np.roll(rows, -1, axis=1)).any(axis=1))
    closed = np.concatenate((rows, rows[:, :1]), axis=1)
    # the diameter of a row with an infinite sample is nan, with no warning
    with np.errstate(invalid="ignore", over="ignore"):
        clear, bad, total, integral = settle(closed, y.value, 1e-9 * curve_diameter(rows))
    settled = ~repeats & clear & ~bad.any(axis=1) & integral
    out = []
    for i, x in enumerate(xs):
        if misses[i]:
            raise ValueError("x does not map to y")
        if through[i]:
            raise RadiusTooLarge("image circle passes through the target value")
        if settled[i]:
            out.append(int(np.rint(total[i])))
        else:
            probe = circle(x.value, radius, samples=PROBE_SAMPLES, chart=x.chart)
            out.append(winding_number(image_curve(spec, probe, y.chart), y.value))
    return tuple(out)


def image_curve(spec: MapSpec, curve: SampledCurve, target: Chart) -> SampledCurve:
    """The image of a sampled curve in the target chart, as ``curve_image``
    maps it: each refinement round maps its parameter midpoints in one batch."""
    points, image_at = curve_image(spec, curve, target)
    return SampledCurve(points, target, param_fn=image_at, params=curve.params)


def global_degree(
    spec: MapSpec,
    y: SpherePoint | None = None,
    seed: int | None = None,
) -> DegreeReport:
    """Sum of local degrees over the preimages of a regular value.

    When y is omitted it is drawn from a seeded pseudo-random sequence,
    rejecting values whose preimages cluster too tightly.  A mismatch with
    the declared degree is fatal.  A power, quadratic or rational map of
    degree over ``DEGREE_CAP`` is refused before any solve, and so is a
    product view of angular degree over it: every level solution carries
    |d| preimages, each wound once.
    """
    check_degree_cap(spec, 1)
    view = as_product_view(spec)
    if view is not None and abs(view.angular_degree) > charts.DEGREE_CAP:
        raise charts.DegreeCapExceeded(
            f"angular degree {view.angular_degree} exceeds {charts.DEGREE_CAP}")
    if y is not None:
        report = _degree_at(spec, y)
    else:
        report = _draw_regular_value(spec, seed)
    if report.total != spec.declared_degree:
        raise DegreeMismatch(
            f"computed degree {report.total} != declared {spec.declared_degree}"
        )
    return report


def _draw_regular_value(spec: MapSpec, seed: int | None, screen=None) -> DegreeReport:
    """The report at the first of 32 seeded regular values that
    ``_degree_at`` accepts; ``screen`` may reject one by raising."""
    rng = np.random.default_rng(default_seed() if seed is None else seed)
    for _ in range(32):
        y = from_latlon(rng.uniform(-0.6, 0.6), rng.uniform(0.0, 2 * math.pi))
        try:
            return _degree_at(spec, y, screen)
        except (PreimageClusterTooTight, RadiusTooLarge):
            continue
    raise PreimageClusterTooTight("no usable regular value after 32 draws")


def _degree_at(spec: MapSpec, y: SpherePoint, screen=None) -> DegreeReport:
    """Local degrees at the preimages of y; ``screen`` sees the preimages
    before any of them is wound.  The probe circles also keep clear of the
    preimages of the point at infinity of y's chart (N for a north-chart
    value, S for a south-chart one): a disc holding one winds a pole of the
    chart image as well as its zero."""
    pre = find_preimages(spec, y)
    if screen is not None:
        screen(pre)
    infinity = charts.N_POLE if y.normalized().chart is Chart.NORTH else charts.S_POLE
    radius = witness_radius(pre, find_preimages(spec, infinity))
    witnesses = tuple(zip(pre, local_degree(spec, pre, y, radius)))
    total = sum(d for _, d in witnesses)
    return DegreeReport(total, witnesses, y)


def witness_radius(preimages, clear=()) -> float:
    """Probe radius separated from every other witness by a factor >= 10.

    S, N and the points of ``clear`` shrink it too, so that no probe circle
    encloses its chart's pole or one of them, but only witnesses within 1e-4
    of each other are too tight.  A witness at S or N is not measured
    against itself.  Each block of at most ``PAIR_BLOCK`` separations is one
    ``chordal_many`` batch of witnesses against every point.
    """
    values, north = sphere_arrays(preimages)
    others = sphere_arrays([charts.S_POLE, charts.N_POLE, *clear])
    cols = [np.concatenate(pair) for pair in zip((values, north), others)]
    n = values.size
    tight = least = 2.0
    rows = max(1, PAIR_BLOCK // cols[0].size)
    for lo in range(0, n, rows):
        i = np.arange(lo, min(lo + rows, n))[:, None]
        sep = chordal_many(values[i], north[i], *cols)
        # each pair of witnesses once, and no witness at a pole against itself
        sep[:, :n][np.arange(n) <= i] = 2.0
        sep[:, n:n + 2][(values[i] == 0) & (north[i] == [True, False])] = 2.0
        tight = min(tight, sep[:, :n].min(initial=2.0))
        least = min(least, sep.min())
    if tight < 1e-4:
        raise PreimageClusterTooTight(f"witness separation {tight:.3g}")
    return min(0.05, float(least) / 20.0)


def annular_degree(spec: MapSpec, core: SampledCurve) -> int:
    """Action of the map on the annulus first homology along a core circle.

    Computed as the winding of the ``curve_image`` of the core about the S
    coordinate in the north chart.  The core must be essential and its image
    must stay away from both poles; an image constant on the sample grid has
    degree 0, unless it winds between the samples (ValueError: resample denser).
    """
    if not is_essential(core):
        raise ValueError("core circle is not essential")
    try:
        image, image_at = curve_image(spec, core, Chart.NORTH)
    except PoleHasNoCoordinate as exc:
        raise ImageHitsPole("core image passes through N") from exc
    mag = np.abs(image)
    near = np.flatnonzero(~((1e-6 < mag) & (mag < 1e6)))
    if near.size:
        raise ImageHitsPole(f"core image at parameter {core.params[near[0]]:.4f} is near a pole")
    return winding_about_zero(image, image_at, core.params, 1e-9)


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
) -> tuple[list[int], SpherePoint]:
    """Sphere degree of each latitude component: bucketed local-degree sums.

    One regular value, drawn as ``global_degree`` draws it, serves every
    component; its witnesses are assigned to components by latitude, and a
    value with a preimage outside exactly one component is rejected before
    any winding.
    """

    def component_of(x: SpherePoint) -> int:
        s = x.latitude()
        hit = [i for i, (lo, hi) in enumerate(intervals) if lo < s < hi]
        if len(hit) != 1:
            raise PreimageClusterTooTight(
                f"preimage latitude {s:.6g} not inside a unique component"
            )
        return hit[0]

    report = _draw_regular_value(spec, None, lambda pre: [component_of(x) for x in pre])
    sums = [0] * len(intervals)
    for x, d in report.witnesses:
        sums[component_of(x)] += d
    return sums, report.regular_value


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

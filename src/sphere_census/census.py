"""Fixed points of iterates, growth-rate estimates, and the inequality
cross-checks tying the annulus machinery to the periodic-point counts.

Counts are of distinct fixed points (no multiplicity).  Polynomial and
rational specs are solved algebraically through the iterated fraction;
product specs reduce to a one-dimensional radial fixed-point problem plus
an exact angular congruence per radial solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import annuli, degree as degree_mod
from .charts import (
    Chart,
    Iterate,
    MapSpec,
    N_POLE,
    S_POLE,
    SpherePoint,
    anchor_poles,
    as_product_view,
    as_rational,
    chordal,
    dedup_points,
    evaluate,
    evaluate_many,
    format_map,
    from_latlon,
    solve_profile_level,
    to_chart,
    wrap_angle,
)

INF = math.inf

DEGREE_CAP = 4096
DEDUP_RADIUS = 1e-6
RESIDUAL_CAP = 1e-10
RATE_TOL = 0.05


class CensusError(Exception):
    pass


class DegreeCapExceeded(CensusError):
    """The iterate's algebraic degree is beyond the desk-scale cap."""


@dataclass(frozen=True)
class FixedPointSet:
    """Distinct fixed points of one iterate; circles of fixed points are
    flagged as continua rather than counted."""

    points: tuple[SpherePoint, ...]
    continuum_latitudes: tuple[float, ...] = ()

    @property
    def is_continuum(self) -> bool:
        return bool(self.continuum_latitudes)

    @property
    def count(self) -> float:
        return INF if self.is_continuum else float(len(self.points))


def fixed_points(spec: MapSpec, n: int = 1) -> FixedPointSet:
    """All distinct solutions of f^n(p) = p, poles included."""
    if n < 1:
        raise ValueError("iterate order must be >= 1")
    iterate = spec if n == 1 else Iterate(spec, n)
    flat = _flatten(iterate)
    rat = as_rational(flat)
    if rat is not None:
        if abs(spec.declared_degree) ** n > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"degree {spec.declared_degree}^{n} exceeds {DEGREE_CAP}"
            )
        return _rational_fixed_points(flat, rat)
    view = as_product_view(flat)
    if view is not None:
        return _product_fixed_points(flat, view)
    raise annuli.UnsupportedSpec(f"no fixed-point solver for {spec!r}")


def _flatten(spec: MapSpec) -> MapSpec:
    if isinstance(spec, Iterate) and isinstance(spec.inner, Iterate):
        return _flatten(Iterate(spec.inner.inner, spec.n * spec.inner.n))
    return spec


def _rational_fixed_points(spec: MapSpec, rat) -> FixedPointSet:
    p, q = (np.array(c, dtype=complex) for c in rat)
    fixed_poly = npoly.polysub(p, npoly.polymul(np.array([0j, 1 + 0j]), q))
    fixed_poly = np.trim_zeros(np.asarray(fixed_poly), "b")
    if fixed_poly.size == 0:
        # f is the identity: the whole sphere is fixed
        return FixedPointSet(points=(), continuum_latitudes=(0.0,))
    pts: list[SpherePoint] = []
    if fixed_poly.size > 1:
        for z in npoly.polyroots(fixed_poly):
            pts.append(_polish_fixed(spec, SpherePoint(z, Chart.NORTH).normalized()))
    if len(p) > len(q):  # f(infinity) = infinity
        pts.append(N_POLE)
    pts = [pt for pt in pts if chordal(evaluate(spec, pt), pt) < RESIDUAL_CAP]
    return FixedPointSet(points=tuple(_dedup(pts)))


def _polish_fixed(spec: MapSpec, p: SpherePoint, iters: int = 8) -> SpherePoint:
    """Newton refinement of f(z) - z = 0 with a numeric derivative,
    run in the chart where the point is normalized."""
    z = p.value
    chart = p.chart
    h = 1e-7

    def g(v: complex) -> complex:
        img = evaluate(spec, SpherePoint(v, chart))
        return to_chart(img, chart).value - v

    for _ in range(iters):
        try:
            gz = g(z)
        except Exception:
            break
        if abs(gz) < 1e-14:
            break
        dg = (g(z + h) - gz) / h
        denom = dg
        if denom == 0:
            break
        step = gz / denom
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
    return SpherePoint(z, chart)


def _product_fixed_points(spec: MapSpec, view) -> FixedPointSet:
    d = view.angular_degree
    pts: list[SpherePoint] = []
    continua: list[float] = []
    lo, hi = view.radial.end_limits()
    if lo == -INF:
        pts.append(S_POLE)
    if hi == INF:
        pts.append(N_POLE)
    shifted = _shifted(view.radial)
    plateau = shifted.many(np.linspace(-18.0, 18.0, 2001))
    plateau = np.abs(plateau[np.isfinite(plateau)])
    if plateau.size and plateau.max() < 1e-12:
        # the radial coordinate is fixed at every latitude: fixed points form
        # circles (d = 1, vanishing twist) or meridian-type curves (d != 1)
        if d == 1:
            lats = tuple(
                s for s in solve_profile_level(_mod_twist(view.twist), 0.0)
            ) or ((0.0,) if abs(wrap_angle(view.twist(0.0))) < 1e-9 else ())
        else:
            lats = (0.0,)
        return FixedPointSet(points=tuple(_dedup(pts)), continuum_latitudes=lats)
    for s in solve_profile_level(shifted, 0.0, grid=10000):
        if d == 1:
            if abs(wrap_angle(view.twist(s))) < 1e-9:
                continua.append(s)
            continue
        for k in range(abs(d - 1)):
            theta = (2 * math.pi * k - view.twist(s)) / (d - 1)
            pts.append(from_latlon(s, theta))
    pts = [pt for pt in pts if chordal(evaluate(spec, pt), pt) < RESIDUAL_CAP]
    return FixedPointSet(points=tuple(_dedup(pts)),
                         continuum_latitudes=tuple(continua))


@dataclass(frozen=True)
class _shifted:
    """profile(s) - s, so radial fixed latitudes are level-set zeros."""

    profile: object

    def __call__(self, s: float) -> float:
        v = self.profile(s)
        if math.isinf(v):
            return v
        return v - s

    def many(self, s: np.ndarray) -> np.ndarray:
        v = self.profile.many(s)
        finite = ~np.isinf(v)
        v[finite] -= np.asarray(s)[finite]
        return v

    def pole_crossings(self):
        return self.profile.pole_crossings()


@dataclass(frozen=True)
class _mod_twist:
    """Twist offset wrapped to [-pi, pi): zeros are whole fixed circles."""

    twist: object

    def __call__(self, s: float) -> float:
        return wrap_angle(self.twist(s))

    def many(self, s: np.ndarray) -> np.ndarray:
        # an infinite twist wraps to nan, silently as in float arithmetic
        with np.errstate(invalid="ignore"):
            return wrap_angle(self.twist.many(s))

    def pole_crossings(self):
        return ()


def _dedup(points) -> list[SpherePoint]:
    return dedup_points(sorted(points, key=lambda q: (q.latitude(), q.angle())),
                        DEDUP_RADIUS)


# ---------------------------------------------------------------------------
# Growth reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    n: int
    count: float              # math.inf flags a continuum of fixed points
    rate: float | None        # ln(count)/n; None at zero or infinite count


@dataclass(frozen=True)
class CensusReport:
    map_id: str
    degree: int
    rows: tuple[CensusRow, ...]
    has_rate_numerically: bool


def growth_report(spec: MapSpec, n_max: int) -> CensusReport:
    """Counts and per-iterate growth estimates for n = 1 .. n_max.

    The final row's rate is compared against ln|degree| minus the rate
    tolerance; continuum rows are flagged and excluded from the estimate.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        fps = fixed_points(spec, n)
        count = fps.count
        if math.isinf(count) or count == 0:
            rate = None
        else:
            rate = math.log(count) / n
        rows.append(CensusRow(n=n, count=count, rate=rate))
    deg = spec.declared_degree
    final_rate = rows[-1].rate
    has_rate = (
        abs(deg) > 1
        and final_rate is not None
        and final_rate >= math.log(abs(deg)) - RATE_TOL
    )
    return CensusReport(
        map_id=format_map(spec), degree=deg, rows=tuple(rows),
        has_rate_numerically=has_rate,
    )


# ---------------------------------------------------------------------------
# Theorem-level cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckRow:
    n: int
    degree_power: int           # d^n
    theorem3_sum: int | None    # sum of |delta_i - 1| over repelling components
    count: float
    bounds_hold: bool | None


@dataclass(frozen=True)
class CrosscheckReport:
    map_id: str
    status: str                 # ok | hypothesis_failed | attractors_not_verified
                                # | scope_unavailable
    detail: str
    rows: tuple[CrosscheckRow, ...]
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.status == "ok" and all(
            r.bounds_hold for r in self.rows if r.bounds_hold is not None
        )


def poles_attracting(spec: MapSpec, probes: int = 20, seed: int = 7) -> bool:
    """Orbits of random points near each anchor pole must converge to it."""
    rng = np.random.default_rng(seed)
    orbit = Iterate(spec, 100)
    for pole in anchor_poles(spec):
        starts = [pole.value + 0.05 * math.e ** complex(0, rng.uniform(0, 2 * math.pi))
                  for _ in range(probes)]
        ends, north = evaluate_many(orbit, starts, pole.chart is Chart.NORTH)
        for v, n in zip(ends.tolist(), north.tolist()):
            if chordal(SpherePoint(v, Chart.NORTH if n else Chart.SOUTH), pole) > 1e-3:
                return False
    return True


def theorem_a_crosscheck(spec: MapSpec, n_max: int) -> CrosscheckReport:
    """Per-iterate check that sum |delta_i - 1| <= #Fix(f^n) and d^n <= #Fix(f^n).

    Scope failures (broken loop hypothesis, non-attracting poles) are
    reported, not raised; the count columns are still produced.
    """
    map_id = format_map(spec)
    status, detail, witness = "ok", "", None
    try:
        anchor_poles(spec)
    except ValueError as exc:  # a quadratic without an attracting finite fixed point
        status, detail = "scope_unavailable", str(exc)
    else:
        hyp = annuli.check_hypothesis_h(spec)
        if not hyp.passed:
            status = "hypothesis_failed"
            detail = (
                "an inessential loop has an essential image "
                f"(image winding {hyp.witness_image_winding})"
            )
            witness = hyp.witness
        elif not poles_attracting(spec):
            status = "attractors_not_verified"
            detail = "orbits near at least one pole do not converge to it"
    rows = []
    d = spec.declared_degree
    for n in range(1, n_max + 1):
        count = fixed_points(spec, n).count
        t3_sum: int | None = None
        bounds: bool | None = None
        if status == "ok":
            try:
                comps = annuli.decompose(spec if n == 1 else Iterate(spec, n))
                t3_sum = sum(
                    abs(c.delta - 1) for c in comps if c.repelling
                )
                bounds = t3_sum <= count and d ** n <= count
            except (annuli.AnnuliError, degree_mod.ImageHitsPole):
                t3_sum, bounds = None, None
        rows.append(
            CrosscheckRow(n=n, degree_power=d ** n, theorem3_sum=t3_sum,
                          count=count, bounds_hold=bounds)
        )
    return CrosscheckReport(map_id=map_id, status=status, detail=detail,
                            rows=tuple(rows), witness=witness)


def census_csv(spec: MapSpec, n_max: int) -> str:
    """CSV rows ``n,count,rate,bound_dn,theorem3_sum`` for n = 1 .. n_max."""
    report = growth_report(spec, n_max)
    cross = theorem_a_crosscheck(spec, n_max)
    lines = ["n,count,rate,bound_dn,theorem3_sum"]
    for row, xrow in zip(report.rows, cross.rows):
        count = "inf" if math.isinf(row.count) else str(int(row.count))
        rate = "" if row.rate is None else f"{row.rate:.12g}"
        t3 = "" if xrow.theorem3_sum is None else str(xrow.theorem3_sum)
        lines.append(f"{row.n},{count},{rate},{xrow.degree_power},{t3}")
    return "\n".join(lines) + "\n"

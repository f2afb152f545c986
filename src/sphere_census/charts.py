"""Points on the Riemann sphere, dual stereographic charts, and map specs.

Conventions:
  * the north-chart coordinate z puts the south pole S at z = 0 and the
    north pole N at infinity; the south-chart coordinate is w = 1/z;
  * log-latitude coordinates (s, theta) with s = log|z| are used by
    latitude-preserving product maps; S sits at s = -inf, N at s = +inf.

All types are immutable; evaluation is pure.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

INF = math.inf

# Magnitude cap: chart switching must happen before coordinates reach this.
CHART_OVERFLOW = 1e8


class ChartError(Exception):
    pass


class PoleHasNoCoordinate(ChartError):
    """The requested chart places this pole at infinity."""


class OverflowAtChartBoundary(ChartError):
    """Internal guard: a coordinate exceeded the chart magnitude cap."""


class ParseError(ValueError):
    """Malformed map-spec or profile string."""


class Chart(Enum):
    NORTH = "north"
    SOUTH = "south"

    @property
    def other(self) -> "Chart":
        return Chart.SOUTH if self is Chart.NORTH else Chart.NORTH


@dataclass(frozen=True)
class SpherePoint:
    """A sphere point as a finite complex coordinate in one chart."""

    value: complex
    chart: Chart = Chart.NORTH

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ChartError("chart coordinates must be finite")
        if abs(v) > CHART_OVERFLOW:
            raise OverflowAtChartBoundary(f"|coordinate| = {abs(v):.3g}")
        object.__setattr__(self, "value", v)

    @property
    def is_pole(self) -> bool:
        return self.value == 0

    def normalized(self) -> "SpherePoint":
        """Re-express in the chart where the coordinate has modulus <= 1."""
        if abs(self.value) > 1.0:
            return SpherePoint(1.0 / self.value, self.chart.other)
        return self

    def latitude(self) -> float:
        """log|z| in north-chart terms; -inf at S, +inf at N."""
        if self.value == 0:
            return -INF if self.chart is Chart.NORTH else INF
        mag = math.log(abs(self.value))
        return mag if self.chart is Chart.NORTH else -mag

    def angle(self) -> float:
        """Argument of the north-chart coordinate (0 at poles)."""
        if self.value == 0:
            return 0.0
        a = cmath.phase(self.value)
        return a if self.chart is Chart.NORTH else -a


S_POLE = SpherePoint(0 + 0j, Chart.NORTH)
N_POLE = SpherePoint(0 + 0j, Chart.SOUTH)


def to_chart(p: SpherePoint, target: Chart) -> SpherePoint:
    """Same sphere point, coordinate inverted (w = 1/z) if charts differ."""
    if p.chart is target:
        return p
    if p.is_pole:
        raise PoleHasNoCoordinate(
            f"pole at origin of {p.chart.value} chart has no {target.value} coordinate"
        )
    return SpherePoint(1.0 / p.value, target)


def chart_value(p: SpherePoint, target: Chart) -> complex:
    """Raw coordinate of p in the target chart.

    Unlike ``to_chart`` this returns a bare complex number, exempt from the
    stored-point magnitude cap; use it for transient values in integrands.
    """
    if p.chart is target:
        return p.value
    if p.is_pole:
        raise PoleHasNoCoordinate(
            f"pole at origin of {p.chart.value} chart has no {target.value} coordinate"
        )
    return 1.0 / p.value


def from_latlon(s: float, theta: float) -> SpherePoint:
    """Point with log-latitude s and longitude theta."""
    if s == -INF:
        return S_POLE
    if s == INF:
        return N_POLE
    if s <= 0:
        return SpherePoint(cmath.exp(complex(s, theta)), Chart.NORTH)
    return SpherePoint(cmath.exp(complex(-s, -theta)), Chart.SOUTH)


def chordal(p: SpherePoint, q: SpherePoint) -> float:
    """Chordal metric on the sphere, exact at poles; range [0, 2]."""
    # projective pairs (a : b) with z = a/b; north (z, 1), south (1, w)
    a1, b1 = (p.value, 1.0) if p.chart is Chart.NORTH else (1.0, p.value)
    a2, b2 = (q.value, 1.0) if q.chart is Chart.NORTH else (1.0, q.value)
    num = 2.0 * abs(a1 * b2 - a2 * b1)
    den = math.hypot(abs(a1), abs(b1)) * math.hypot(abs(a2), abs(b2))
    return num / den


# ---------------------------------------------------------------------------
# Radial profiles: evaluable R -> R extended to +-inf, with declared ends.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineProfile:
    """s -> a*s + b."""

    a: float
    b: float

    def __call__(self, s: float) -> float:
        if math.isinf(s):
            lo, hi = self.end_limits()
            return lo if s < 0 else hi
        return self.a * s + self.b

    def many(self, s: np.ndarray) -> np.ndarray:
        """``__call__`` on an array of latitudes."""
        return _on_finite(self, s, lambda x: self.a * x + self.b)

    def end_limits(self) -> tuple[float, float]:
        if self.a > 0:
            return (-INF, INF)
        if self.a < 0:
            return (INF, -INF)
        return (self.b, self.b)

    def pole_crossings(self) -> tuple[tuple[float, int], ...]:
        return ()


@dataclass(frozen=True)
class PolyProfile:
    """Polynomial in s, ascending coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0.0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, s: float) -> float:
        if math.isinf(s):
            lo, hi = self.end_limits()
            return lo if s < 0 else hi
        return float(npoly.polyval(s, self.coeffs))

    def many(self, s: np.ndarray) -> np.ndarray:
        """``__call__`` on an array of latitudes."""
        return _on_finite(self, s, lambda x: npoly.polyval(x, self.coeffs))

    def end_limits(self) -> tuple[float, float]:
        deg = len(self.coeffs) - 1
        lead = self.coeffs[-1]
        if deg == 0 or lead == 0.0:
            return (self.coeffs[0], self.coeffs[0])
        hi = INF if lead > 0 else -INF
        lo = hi if deg % 2 == 0 else -hi
        return (lo, hi)

    def pole_crossings(self) -> tuple[tuple[float, int], ...]:
        return ()


@dataclass(frozen=True)
class PiecewiseLinearProfile:
    """Monotone-per-segment profile through (s, value) nodes.

    Nodes must start at s = -inf and end at s = +inf; those two values are
    the declared end limits.  Values may be +-inf at interior nodes: such a
    node is a pole crossing (the latitude circle there maps onto a pole).
    Segments with a finite node pair interpolate linearly; segments with an
    infinite endpoint use a monotone log-compactified ramp so evaluation is
    total and continuous.
    """

    nodes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        nodes = tuple((float(s), float(v)) for s, v in self.nodes)
        if len(nodes) < 2:
            raise ValueError("need at least two nodes")
        ss = [s for s, _ in nodes]
        if ss[0] != -INF or ss[-1] != INF:
            raise ValueError("first node must be at s=-inf and last at s=+inf")
        if any(not (ss[i] < ss[i + 1]) for i in range(len(ss) - 1)):
            raise ValueError("node latitudes must be strictly increasing")
        for i, (s, v) in enumerate(nodes[1:-1], start=1):
            if math.isinf(s):
                raise ValueError("interior nodes need finite latitude")
        for (s0, v0), (s1, v1) in zip(nodes, nodes[1:]):
            if math.isinf(v0) and math.isinf(v1) and v0 == v1:
                raise ValueError("segment pinned at the same pole on both ends")
        object.__setattr__(self, "nodes", nodes)

    def __call__(self, s: float) -> float:
        nodes = self.nodes
        if s == -INF:
            return nodes[0][1]
        if s == INF:
            return nodes[-1][1]
        hi = 1
        while hi < len(nodes) - 1 and nodes[hi][0] < s:
            hi += 1
        (s0, v0), (s1, v1) = nodes[hi - 1], nodes[hi]
        if s == s0:
            return v0
        if s == s1:
            return v1
        t = self._segment_param(s, s0, s1)
        return _ramp(t, v0, v1)

    def many(self, s: np.ndarray) -> np.ndarray:
        """``__call__`` on an array of latitudes, one segment at a time."""
        s = np.asarray(s, dtype=float)
        nodes = self.nodes
        # the segment the scalar scan stops at: the first interior node >= s
        seg = 1 + np.searchsorted([n[0] for n in nodes[1:-1]], s, side="left")
        out = np.empty(s.shape)
        for hi in range(1, len(nodes)):
            m = seg == hi
            if not m.any():
                continue
            (s0, v0), (s1, v1) = nodes[hi - 1], nodes[hi]
            x = s[m]
            vals = np.where(x == s0, v0, v1)
            inner = (x != s0) & (x != s1)
            if inner.any():
                t = self._segment_params(x[inner], s0, s1)
                vals[inner] = _ramp_many(t, v0, v1)
            out[m] = vals
        return out

    @staticmethod
    def _segment_params(s: np.ndarray, s0: float, s1: float) -> np.ndarray:
        if s0 == -INF and s1 == INF:
            return 0.5 * (1.0 + _libm(math.tanh, 0.5 * s))
        if s0 == -INF:
            return _libm(math.exp, s - s1)
        if s1 == INF:
            return 1.0 - _libm(math.exp, s0 - s)
        return (s - s0) / (s1 - s0)

    @staticmethod
    def _segment_param(s: float, s0: float, s1: float) -> float:
        if s0 == -INF and s1 == INF:
            return 0.5 * (1.0 + math.tanh(0.5 * s))
        if s0 == -INF:
            return math.exp(s - s1)
        if s1 == INF:
            return 1.0 - math.exp(s0 - s)
        return (s - s0) / (s1 - s0)

    def end_limits(self) -> tuple[float, float]:
        return (self.nodes[0][1], self.nodes[-1][1])

    def pole_crossings(self) -> tuple[tuple[float, int], ...]:
        out = []
        for s, v in self.nodes[1:-1]:
            if math.isinf(v):
                out.append((s, 1 if v > 0 else -1))
        return tuple(out)


def _ramp(t: float, v0: float, v1: float) -> float:
    """Monotone interpolation on t in (0,1) honoring infinite endpoints."""
    if math.isfinite(v0) and math.isfinite(v1):
        return v0 + t * (v1 - v0)
    if math.isfinite(v0):  # v1 = +-inf
        return v0 - math.log1p(-t) if v1 > 0 else v0 + math.log1p(-t)
    if math.isfinite(v1):  # v0 = +-inf
        return v1 - math.log(t) if v0 > 0 else v1 + math.log(t)
    # opposite poles
    core = math.log(t / (1.0 - t))
    return core if v1 > 0 else -core


def _ramp_many(t: np.ndarray, v0: float, v1: float) -> np.ndarray:
    """``_ramp`` on an array of segment parameters."""
    if math.isfinite(v0) and math.isfinite(v1):
        return v0 + t * (v1 - v0)
    if math.isfinite(v0):
        tail = _libm(math.log1p, -t)
        return v0 - tail if v1 > 0 else v0 + tail
    if math.isfinite(v1):
        tail = _libm(math.log, t)
        return v1 - tail if v0 > 0 else v1 + tail
    if (t == 1.0).any():
        raise ZeroDivisionError("float division by zero")
    core = _libm(math.log, t / (1.0 - t))
    return core if v1 > 0 else -core


def _libm(fn: Callable[..., float], *args: np.ndarray) -> np.ndarray:
    """A ``math`` function applied elementwise to 1-D arrays.

    numpy's vectorised log, exp, tanh, log1p and arctan2 differ from libm
    in the last bit on some inputs; a latitude one ulp off can flip a
    repelling or level-set test, so the batch calls libm like the scalar
    path does.
    """
    return np.fromiter(map(fn, *(a.tolist() for a in args)), dtype=float,
                       count=args[0].size)


def _on_finite(profile, s: np.ndarray, fn) -> np.ndarray:
    """fn on the finite latitudes; the declared end limits at s = +-inf."""
    s = np.asarray(s, dtype=float)
    ends = np.isinf(s)
    out = np.asarray(fn(np.where(ends, 0.0, s)), dtype=float)
    if ends.any():
        lo, hi = profile.end_limits()
        out[ends] = np.where(s[ends] < 0, lo, hi)
    return out


ZERO_PROFILE = AffineProfile(0.0, 0.0)

RadialProfile = Union[AffineProfile, PolyProfile, PiecewiseLinearProfile]


@dataclass(frozen=True)
class _ComposedRadial:
    """outer(inner(s)); internal carrier for iterated product maps."""

    outer: object
    inner: object

    def __call__(self, s: float) -> float:
        return self.outer(self.inner(s))

    def many(self, s: np.ndarray) -> np.ndarray:
        return self.outer.many(self.inner.many(s))

    def end_limits(self) -> tuple[float, float]:
        return (self(-INF), self(INF))

    def pole_crossings(self) -> tuple[tuple[float, int], ...]:
        out = list(self.inner.pole_crossings())
        for c, sign in self.outer.pole_crossings():
            for s in solve_profile_level(self.inner, c):
                out.append((s, sign))
        return tuple(sorted(set(out)))


def solve_profile_level(profile, level: float, s_cap: float = 18.0,
                        grid: int = 4096) -> list[float]:
    """All finite s with profile(s) == level, by per-branch bisection.

    Branches are the intervals between consecutive pole crossings (profile
    values are finite and continuous inside each).  Deterministic.
    """
    cuts = [-s_cap] + sorted(s for s, _ in profile.pole_crossings()) + [s_cap]
    roots: list[float] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 1e-12:
            continue
        ss = np.linspace(lo, hi, grid)
        # stay off the crossing latitudes themselves
        ss[0] += 1e-9 * (hi - lo)
        ss[-1] -= 1e-9 * (hi - lo)
        vals = profile.many(ss) - level
        sgn = np.sign(vals)
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            a, b = ss[i], ss[i + 1]
            fa = profile(a) - level
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = profile(m) - level
                if fm == 0.0 or (b - a) < 1e-15 * max(1.0, abs(m)):
                    a = b = m
                    break
                if (fa < 0) == (fm < 0):
                    a, fa = m, fm
                else:
                    b = m
            roots.append(0.5 * (a + b))
        for i in np.nonzero(vals == 0.0)[0]:
            roots.append(float(ss[i]))
    roots.sort()
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    return dedup


# ---------------------------------------------------------------------------
# Map specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Power:
    """z -> z**d in the north chart (1/z**|d| when d < 0)."""

    d: int

    @property
    def declared_degree(self) -> int:
        # z**d is holomorphic either way, so the sphere degree is |d|.
        return abs(self.d)


@dataclass(frozen=True)
class Quadratic:
    """z -> z**2 + c.

    The distinguished fixed attractors are N = infinity and S = the
    attracting finite fixed point (exists for small |c|).
    """

    c: complex

    @property
    def declared_degree(self) -> int:
        return 2

    def attracting_fixed_point(self) -> complex:
        # roots of z**2 - z + c; the one with |2z| < 1 is the attractor
        disc = cmath.sqrt(1 - 4 * self.c)
        for z in ((1 - disc) / 2, (1 + disc) / 2):
            if abs(2 * z) < 1:
                return z
        raise ValueError(f"z^2+{self.c} has no attracting finite fixed point")


@dataclass(frozen=True)
class RationalPair:
    """z -> P(z)/Q(z), ascending coefficient lists, reduced."""

    p: tuple[complex, ...]
    q: tuple[complex, ...]

    def __post_init__(self):
        p = _trim(self.p)
        q = _trim(self.q)
        if q == (0j,):
            raise ValueError("denominator is identically zero")
        if p != (0j,) and len(p) > 1 and len(q) > 1:
            rp = npoly.polyroots(np.array(p))
            rq = npoly.polyroots(np.array(q))
            if rp.size and rq.size:
                sep = np.abs(rp[:, None] - rq[None, :]).min()
                if sep < 1e-10:
                    raise ValueError("P and Q share a root; reduce the fraction")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def declared_degree(self) -> int:
        return max(len(self.p), len(self.q)) - 1


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs) if cs else (0j,)


@dataclass(frozen=True)
class ProductMap:
    """(s, theta) -> (q(s), d*theta + h(s)) in log-latitude coordinates."""

    radial: RadialProfile
    angular_degree: int
    twist: RadialProfile = ZERO_PROFILE

    def __post_init__(self):
        lo, hi = self.radial.end_limits()
        for end, lim in ((-1, lo), (1, hi)):
            if math.isinf(lim):
                continue
            # a finite end limit leaves the pole image angle-dependent
            # unless the angular action collapses
            tw = self.twist.end_limits()[0 if end < 0 else 1]
            if self.angular_degree != 0 or math.isinf(tw):
                raise ValueError(
                    "radial profile must send each end to a pole "
                    "(finite end limits only allowed for angular degree 0)"
                )

    @property
    def declared_degree(self) -> int:
        lo, hi = self.radial.end_limits()
        if lo == -INF and hi == INF:
            sign = 1
        elif lo == INF and hi == -INF:
            sign = -1
        else:
            sign = 0
        return self.angular_degree * sign


@dataclass(frozen=True)
class Iterate:
    """n-fold composition of a base spec."""

    inner: "MapSpec"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("iteration count must be >= 1")

    @property
    def declared_degree(self) -> int:
        return self.inner.declared_degree ** self.n


MapSpec = Union[Power, Quadratic, RationalPair, ProductMap, Iterate]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(spec: MapSpec, p: SpherePoint) -> SpherePoint:
    """Apply the map; total on the sphere, exact on poles."""
    p = p.normalized()
    if isinstance(spec, Power):
        return _eval_power(spec.d, p)
    if isinstance(spec, Quadratic):
        return _eval_quadratic(spec.c, p)
    if isinstance(spec, RationalPair):
        return _eval_rational(spec.p, spec.q, p)
    if isinstance(spec, ProductMap):
        return _eval_product(spec, p)
    if isinstance(spec, Iterate):
        out = p
        for _ in range(spec.n):
            out = evaluate(spec.inner, out)
        return out
    raise TypeError(f"not a map spec: {spec!r}")


def _eval_power(d: int, p: SpherePoint) -> SpherePoint:
    v = p.value
    if d == 0:
        return SpherePoint(1 + 0j, p.chart)
    if p.chart is Chart.NORTH:
        return SpherePoint(v ** d, Chart.NORTH) if d > 0 else SpherePoint(v ** (-d), Chart.SOUTH)
    return SpherePoint(v ** d, Chart.SOUTH) if d > 0 else SpherePoint(v ** (-d), Chart.NORTH)


def _eval_quadratic(c: complex, p: SpherePoint) -> SpherePoint:
    if p.chart is Chart.NORTH:
        return SpherePoint(p.value * p.value + c, Chart.NORTH).normalized()
    w = p.value
    # f(1/w) = (1 + c w^2)/w^2, expressed back in the south chart
    num = w * w
    den = 1 + c * w * w
    if abs(den) >= abs(num):
        return SpherePoint(num / den, Chart.SOUTH)
    return SpherePoint(den / num, Chart.NORTH)


def _eval_rational(p_coeffs, q_coeffs, p: SpherePoint) -> SpherePoint:
    if p.chart is Chart.NORTH:
        a = complex(npoly.polyval(p.value, np.array(p_coeffs)))
        b = complex(npoly.polyval(p.value, np.array(q_coeffs)))
    else:
        # z = 1/w: evaluate w^D * P(1/w), i.e. reverse after padding to degree D
        d_max = max(len(p_coeffs), len(q_coeffs))
        pp = tuple(p_coeffs) + (0j,) * (d_max - len(p_coeffs))
        qq = tuple(q_coeffs) + (0j,) * (d_max - len(q_coeffs))
        a = complex(npoly.polyval(p.value, np.array(tuple(reversed(pp)))))
        b = complex(npoly.polyval(p.value, np.array(tuple(reversed(qq)))))
    if a == 0 and b == 0:
        raise OverflowAtChartBoundary("0/0 in rational evaluation")
    if abs(a) > abs(b):
        return SpherePoint(b / a, Chart.SOUTH)
    return SpherePoint(a / b, Chart.NORTH)


def _eval_product(spec: ProductMap, p: SpherePoint) -> SpherePoint:
    s = p.latitude()
    theta = p.angle()
    s_out = spec.radial(s)
    if math.isinf(s_out):
        return S_POLE if s_out < 0 else N_POLE
    tw = spec.twist(s)
    return from_latlon(s_out, spec.angular_degree * theta + tw)


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------
#
# A batch is a complex array of chart coordinates plus a boolean array that
# is True where the coordinate is in the north chart.  Every step repeats the
# scalar arithmetic elementwise and gives the same bits: complex products and
# quotients are spelled out on real parts in CPython's order (numpy's complex
# loops may fuse a multiply-add), and transcendental functions go through
# ``_libm``.


def evaluate_many(spec: MapSpec, values, north) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` on many points: (values, north) -> (values, north).

    ``values`` is a 1-D array of chart coordinates and ``north`` is True
    where a coordinate is in the north chart (one flag, or one per point).
    Each image equals ``evaluate`` of that point, coordinate and chart.
    """
    v = np.array(values, dtype=complex).ravel()
    nor = np.broadcast_to(np.asarray(north, dtype=bool), v.shape).copy()
    _check_coordinates(v)
    # Python float arithmetic overflows to inf and yields nan silently;
    # _check_coordinates then raises as the scalar SpherePoint does
    with np.errstate(over="ignore", invalid="ignore"):
        return _apply_many(spec, v, nor)


def chart_values(values: np.ndarray, north: np.ndarray, target: Chart) -> np.ndarray:
    """``chart_value`` of each point: its raw coordinate in the target chart."""
    to_north = target is Chart.NORTH
    out = np.array(values, dtype=complex)
    flip = north != to_north
    if flip.any():
        if (out[flip] == 0).any():
            raise PoleHasNoCoordinate(
                f"pole at origin of {target.other.value} chart has no "
                f"{target.value} coordinate"
            )
        out[flip] = _cdiv(1.0, out[flip])
    return out


def latitudes(values: np.ndarray, north: np.ndarray) -> np.ndarray:
    """``SpherePoint.latitude`` of each point."""
    mag = np.hypot(values.real, values.imag)
    out = np.where(north, -INF, INF)
    off = mag != 0
    lat = _libm(math.log, mag[off])
    out[off] = np.where(north[off], lat, -lat)
    return out


def _angles(values: np.ndarray, north: np.ndarray) -> np.ndarray:
    """``SpherePoint.angle`` of each point."""
    out = np.zeros(values.shape)
    off = values != 0
    a = _libm(math.atan2, values.imag[off], values.real[off])
    out[off] = np.where(north[off], a, -a)
    return out


def _apply_many(spec: MapSpec, v: np.ndarray, north: np.ndarray):
    if isinstance(spec, Iterate):
        for _ in range(spec.n):
            v, north = _apply_many(spec.inner, v, north)
        return v, north
    v, north = _normalized_many(v, north)
    if isinstance(spec, Power):
        v, north = _power_many(spec.d, v, north)
    elif isinstance(spec, Quadratic):
        v, north = _quadratic_many(spec.c, v, north)
    elif isinstance(spec, RationalPair):
        v, north = _rational_many(spec.p, spec.q, v, north)
    elif isinstance(spec, ProductMap):
        v, north = _product_many(spec, v, north)
    else:
        raise TypeError(f"not a map spec: {spec!r}")
    _check_coordinates(v)
    return v, north


def _check_coordinates(v: np.ndarray) -> None:
    """The checks ``SpherePoint`` makes on a stored coordinate."""
    if not np.isfinite(v).all():
        raise ChartError("chart coordinates must be finite")
    mag = np.hypot(v.real, v.imag)
    over = mag > CHART_OVERFLOW
    if over.any():
        raise OverflowAtChartBoundary(f"|coordinate| = {mag[over][0]:.3g}")


def _normalized_many(v: np.ndarray, north: np.ndarray):
    big = np.hypot(v.real, v.imag) > 1.0
    if big.any():
        v = v.copy()
        v[big] = _cdiv(1.0, v[big])
        north = north ^ big
    return v, north


def _pack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b with CPython's rounding: two products, then one add per part."""
    return _pack(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b: np.ndarray) -> np.ndarray:
    """a / b with CPython's rounding (divide by the larger part of b)."""
    a = np.broadcast_to(np.asarray(a, dtype=complex), b.shape)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if ((br == 0) & (bi == 0)).any():
        raise ZeroDivisionError("complex division by zero")
    re = np.empty(b.shape)
    im = np.empty(b.shape)
    m = np.abs(br) >= np.abs(bi)
    ratio = bi[m] / br[m]
    denom = br[m] + bi[m] * ratio
    re[m] = (ar[m] + ai[m] * ratio) / denom
    im[m] = (ai[m] - ar[m] * ratio) / denom
    m = ~m
    ratio = br[m] / bi[m]
    denom = br[m] * ratio + bi[m]
    re[m] = (ar[m] * ratio + ai[m]) / denom
    im[m] = (ai[m] * ratio - ar[m]) / denom
    return _pack(re, im)


def _cpow(v: np.ndarray, n: int) -> np.ndarray:
    """v ** n for an integer n >= 1, as CPython computes it."""
    if n > 100:  # CPython switches to its polar formula here
        return np.array([z ** n for z in v.tolist()], dtype=complex)
    out = np.ones_like(v)
    mask = 1
    while True:
        if n & mask:
            out = _cmul(out, v)
        mask <<= 1
        if mask > n:
            return out
        v = _cmul(v, v)


def _power_many(d: int, v: np.ndarray, north: np.ndarray):
    if d == 0:
        return np.ones_like(v), north
    return _cpow(v, abs(d)), north if d > 0 else ~north


def _quadratic_many(c: complex, v: np.ndarray, north: np.ndarray):
    out = np.empty_like(v)
    out_north = north.copy()
    z = v[north]
    z = _cmul(z, z) + c
    _check_coordinates(z)
    out[north], out_north[north] = _normalized_many(z, np.ones(z.shape, dtype=bool))
    south = ~north
    w = v[south]
    # f(1/w) = (1 + c w^2)/w^2, expressed back in the south chart
    num = _cmul(w, w)
    den = 1 + _cmul(_cmul(c, w), w)
    keep = np.hypot(den.real, den.imag) >= np.hypot(num.real, num.imag)
    img = np.empty_like(w)
    img[keep] = _cdiv(num[keep], den[keep])
    img[~keep] = _cdiv(den[~keep], num[~keep])
    out[south] = img
    out_north[south] = ~keep
    return out, out_north


def _cpolyval(x: np.ndarray, coeffs) -> np.ndarray:
    """numpy's Horner ``polyval`` at scalar points, with CPython's rounding."""
    c = np.array(coeffs, dtype=complex)
    zero = _pack(x.real * 0.0 - x.imag * 0.0, x.real * 0.0 + x.imag * 0.0)
    acc = c[-1] + zero
    for coeff in c[-2::-1]:
        acc = coeff + _cmul(acc, x)
    return acc


def _rational_many(p_coeffs, q_coeffs, v: np.ndarray, north: np.ndarray):
    d_max = max(len(p_coeffs), len(q_coeffs))
    rev_p = tuple(reversed(tuple(p_coeffs) + (0j,) * (d_max - len(p_coeffs))))
    rev_q = tuple(reversed(tuple(q_coeffs) + (0j,) * (d_max - len(q_coeffs))))
    a = np.empty_like(v)
    b = np.empty_like(v)
    south = ~north
    a[north] = _cpolyval(v[north], p_coeffs)
    b[north] = _cpolyval(v[north], q_coeffs)
    a[south] = _cpolyval(v[south], rev_p)
    b[south] = _cpolyval(v[south], rev_q)
    if ((a == 0) & (b == 0)).any():
        raise OverflowAtChartBoundary("0/0 in rational evaluation")
    flip = np.hypot(a.real, a.imag) > np.hypot(b.real, b.imag)
    out = np.empty_like(v)
    out[flip] = _cdiv(b[flip], a[flip])
    out[~flip] = _cdiv(a[~flip], b[~flip])
    return out, ~flip


def _product_many(spec: ProductMap, v: np.ndarray, north: np.ndarray):
    s = latitudes(v, north)
    theta = _angles(v, north)
    s_out = spec.radial.many(s)
    # infinite radial images are the poles S = (0, north) and N = (0, south)
    out = np.zeros_like(v)
    out_north = s_out < 0
    m = ~np.isinf(s_out)
    s_fin = s_out[m]
    ang = spec.angular_degree * theta[m] + spec.twist.many(s[m])
    low = s_fin <= 0
    x = np.where(low, s_fin, -s_fin)
    y = np.where(low, ang, -ang)
    # cmath.exp(x + iy) = exp(x) * (cos y + i sin y); here x <= 0
    mag = _libm(math.exp, x)
    out[m] = _pack(mag * _libm(math.cos, y), mag * _libm(math.sin, y))
    out_north[m] = low
    return out, out_north


def as_plane_map(spec: MapSpec) -> Callable[[complex], complex]:
    """North-chart view of the map as a plane function z -> f(z)."""

    def fn(z: complex) -> complex:
        img = evaluate(spec, SpherePoint(z, Chart.NORTH))
        return chart_value(img, Chart.NORTH)

    return fn


# ---------------------------------------------------------------------------
# Rational and product normal forms (used by degree / annuli / census)
# ---------------------------------------------------------------------------


def as_rational(spec: MapSpec) -> tuple[tuple[complex, ...], tuple[complex, ...]] | None:
    """Ascending (P, Q) with f = P/Q, or None for product-type specs."""
    if isinstance(spec, Power):
        if spec.d >= 0:
            return ((0j,) * spec.d + (1 + 0j,), (1 + 0j,))
        return ((1 + 0j,), (0j,) * (-spec.d) + (1 + 0j,))
    if isinstance(spec, Quadratic):
        return ((spec.c, 0j, 1 + 0j), (1 + 0j,))
    if isinstance(spec, RationalPair):
        return (spec.p, spec.q)
    if isinstance(spec, Iterate):
        if isinstance(spec.inner, Power):
            return as_rational(Power(spec.inner.d ** spec.n))
        base = as_rational(spec.inner)
        if base is None:
            return None
        p, q = base
        for _ in range(spec.n - 1):
            p, q = compose_rational(base[0], base[1], p, q)
        return p, q
    return None


def compose_rational(p_out, q_out, p_in, q_in):
    """(P,Q) of (p_out/q_out) o (p_in/q_in)."""
    a = np.array(p_in)
    b = np.array(q_in)
    d_max = max(len(p_out), len(q_out)) - 1
    # powers a^i * b^(D-i)
    pow_a = [np.array([1 + 0j])]
    pow_b = [np.array([1 + 0j])]
    for _ in range(d_max):
        pow_a.append(npoly.polymul(pow_a[-1], a))
        pow_b.append(npoly.polymul(pow_b[-1], b))

    def lift(coeffs):
        acc = np.array([0j])
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            acc = npoly.polyadd(acc, c * npoly.polymul(pow_a[i], pow_b[d_max - i]))
        return acc

    return _trim(lift(p_out)), _trim(lift(q_out))


@dataclass(frozen=True)
class _ComposedTwist:
    """Angle offset of a composed product map: d_out*h_in(s) + h_out(q_in(s))."""

    d_out: int
    h_in: object
    q_in: object
    h_out: object

    def __call__(self, s: float) -> float:
        return self.d_out * self.h_in(s) + self.h_out(self.q_in(s))

    def many(self, s: np.ndarray) -> np.ndarray:
        # 0 * inf and inf - inf give nan, silently as in float arithmetic
        with np.errstate(invalid="ignore"):
            return self.d_out * self.h_in.many(s) + self.h_out.many(self.q_in.many(s))

    def end_limits(self) -> tuple[float, float]:
        return (self(-INF), self(INF))

    def pole_crossings(self):
        return ()


@dataclass(frozen=True)
class ProductView:
    """Latitude/angle normal form: s -> radial(s), theta -> d*theta + twist(s)."""

    radial: object
    angular_degree: int
    twist: object


def as_product_view(spec: MapSpec) -> ProductView | None:
    """Product normal form for specs that preserve the latitude foliation."""
    if isinstance(spec, Power):
        return ProductView(AffineProfile(float(spec.d), 0.0), spec.d, ZERO_PROFILE)
    if isinstance(spec, ProductMap):
        return ProductView(spec.radial, spec.angular_degree, spec.twist)
    if isinstance(spec, Iterate):
        base = as_product_view(spec.inner)
        if base is None:
            return None
        view = base
        for _ in range(spec.n - 1):
            view = _compose_views(base, view)
        return view
    return None


def _compose_views(outer: ProductView, inner: ProductView) -> ProductView:
    if isinstance(outer.radial, AffineProfile) and isinstance(inner.radial, AffineProfile):
        radial = AffineProfile(
            outer.radial.a * inner.radial.a,
            outer.radial.a * inner.radial.b + outer.radial.b,
        )
    else:
        radial = _ComposedRadial(outer.radial, inner.radial)
    twist = _ComposedTwist(outer.angular_degree, inner.twist, inner.radial, outer.twist)
    return ProductView(radial, outer.angular_degree * inner.angular_degree, twist)


# ---------------------------------------------------------------------------
# Distinguished poles (the annulus A = sphere minus {N, S})
# ---------------------------------------------------------------------------


def anchor_poles(spec: MapSpec) -> tuple[SpherePoint, SpherePoint]:
    """(S, N) anchoring the annulus for this spec.

    Power, rational and product specs use the chart origins.  Quadratic maps
    anchor S at their attracting finite fixed point, matching the dynamics
    the variant exists to model.
    """
    if isinstance(spec, Quadratic):
        return (SpherePoint(spec.attracting_fixed_point(), Chart.NORTH), N_POLE)
    if isinstance(spec, Iterate):
        return anchor_poles(spec.inner)
    return (S_POLE, N_POLE)


# ---------------------------------------------------------------------------
# Map-spec grammar
# ---------------------------------------------------------------------------

_PROFILE_RE = re.compile(r"^(affine|poly|pwl)\((.*)\)$")


def _parse_number(tok: str) -> float:
    tok = tok.strip()
    if tok in ("inf", "+inf"):
        return INF
    if tok == "-inf":
        return -INF
    try:
        value = float(tok)
    except ValueError as exc:
        raise ParseError(f"bad number {tok!r}") from exc
    if math.isnan(value):
        raise ParseError(f"bad number {tok!r}")
    return value


def _parse_complex(tok: str) -> complex:
    tok = tok.strip().replace("i", "j")
    try:
        value = complex(tok)
    except ValueError as exc:
        raise ParseError(f"bad complex number {tok!r}") from exc
    if not cmath.isfinite(value):
        raise ParseError(f"bad complex number {tok!r}")
    return value


def parse_profile(text: str) -> RadialProfile:
    text = text.strip()
    if text == "zero":
        return ZERO_PROFILE
    m = _PROFILE_RE.match(text)
    if not m:
        raise ParseError(f"bad profile {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind == "affine":
        parts = body.split(",")
        if len(parts) != 2:
            raise ParseError("affine profile needs exactly (a,b)")
        return AffineProfile(_parse_number(parts[0]), _parse_number(parts[1]))
    if kind == "poly":
        return PolyProfile(tuple(_parse_number(c) for c in body.split(",")))
    nodes = []
    for pair in body.split(","):
        if ":" not in pair:
            raise ParseError(f"pwl node {pair!r} needs s:value")
        s_tok, v_tok = pair.split(":", 1)
        nodes.append((_parse_number(s_tok), _parse_number(v_tok)))
    return PiecewiseLinearProfile(tuple(nodes))


def format_profile(profile: RadialProfile) -> str:
    def num(x: float) -> str:
        if x == INF:
            return "inf"
        if x == -INF:
            return "-inf"
        return f"{x:.12g}"

    if isinstance(profile, AffineProfile):
        if profile.a == 0 and profile.b == 0:
            return "zero"
        return f"affine({num(profile.a)},{num(profile.b)})"
    if isinstance(profile, PolyProfile):
        return "poly(" + ",".join(num(c) for c in profile.coeffs) + ")"
    if isinstance(profile, PiecewiseLinearProfile):
        return "pwl(" + ",".join(f"{num(s)}:{num(v)}" for s, v in profile.nodes) + ")"
    raise ParseError(f"profile {profile!r} has no grammar form")


def parse_map(text: str) -> MapSpec:
    """Parse the one-line map grammar.

    Forms: power:d=2 | quad:c=0.1+0.0i | rational:P=1,0,0;Q=0,0,1 |
    product:q=affine(2,0);d=2;h=zero | iter:n=3(power:d=2)
    """
    text = text.strip()
    if ":" not in text:
        raise ParseError(f"map spec {text!r} has no head")
    head, body = text.split(":", 1)
    if head == "power":
        kv = _split_keys(body, {"d"})
        return Power(_parse_int(kv["d"]))
    if head == "quad":
        kv = _split_keys(body, {"c"})
        return Quadratic(_parse_complex(kv["c"]))
    if head == "rational":
        kv = _split_keys(body, {"P", "Q"})
        return RationalPair(
            tuple(_parse_complex(c) for c in kv["P"].split(",")),
            tuple(_parse_complex(c) for c in kv["Q"].split(",")),
        )
    if head == "product":
        kv = _split_keys(body, {"q", "d", "h"}, optional={"h"})
        twist = parse_profile(kv["h"]) if "h" in kv else ZERO_PROFILE
        return ProductMap(parse_profile(kv["q"]), _parse_int(kv["d"]), twist)
    if head == "iter":
        m = re.match(r"^n=(\d+)\((.+)\)$", body)
        if not m:
            raise ParseError("iterate form is iter:n=<k>(<spec>)")
        return Iterate(parse_map(m.group(2)), int(m.group(1)))
    raise ParseError(f"unknown map head {head!r}")


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ParseError(f"bad integer {tok!r}") from exc


def _split_keys(body: str, allowed: set[str], optional: set[str] = frozenset()) -> dict:
    # split on ';' at top level only (profile bodies contain no ';')
    out: dict[str, str] = {}
    for part in body.split(";"):
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}")
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = val
    for key in allowed - optional:
        if key not in out:
            raise ParseError(f"missing key {key!r}")
    return out


def format_map(spec: MapSpec) -> str:
    def cnum(c: complex) -> str:
        return f"{c.real:.12g}{c.imag:+.12g}i"

    if isinstance(spec, Power):
        return f"power:d={spec.d}"
    if isinstance(spec, Quadratic):
        return f"quad:c={cnum(spec.c)}"
    if isinstance(spec, RationalPair):
        ps = ",".join(cnum(c) for c in spec.p)
        qs = ",".join(cnum(c) for c in spec.q)
        return f"rational:P={ps};Q={qs}"
    if isinstance(spec, ProductMap):
        base = f"product:q={format_profile(spec.radial)};d={spec.angular_degree}"
        if spec.twist != ZERO_PROFILE:
            base += f";h={format_profile(spec.twist)}"
        return base
    if isinstance(spec, Iterate):
        return f"iter:n={spec.n}({format_map(spec.inner)})"
    raise ParseError(f"{spec!r} has no grammar form")

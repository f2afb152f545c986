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
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

INF = math.inf

# Magnitude cap: chart switching must happen before coordinates reach this.
CHART_OVERFLOW = 1e8
# Desk-scale cap on the algebraic degree of a map the library solves.
DEGREE_CAP = 4096


class ChartError(Exception):
    pass


class PoleHasNoCoordinate(ChartError):
    """The requested chart places this pole at infinity."""


class OverflowAtChartBoundary(ChartError):
    """Internal guard: a coordinate exceeded the chart magnitude cap."""


class DegreeCapExceeded(Exception):
    """The iterate's algebraic degree is beyond the desk-scale cap."""


class ParseError(ValueError):
    """Malformed map-spec or profile string."""


class AnchorNotAttracting(ValueError):
    """A quadratic has no attracting finite fixed point to anchor S at."""


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
    return p if p.chart is target else SpherePoint(chart_value(p, target), target)


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
    # abs of a complex is C hypot, the function np.hypot calls
    den = abs(complex(abs(a1), abs(b1))) * abs(complex(abs(a2), abs(b2)))
    return num / den


def chordal_many(v1, north1, v2, north2) -> np.ndarray:
    """``chordal`` of each pair of points, in numpy's complex arithmetic; the
    (values, north) arguments broadcast."""
    a1, b1, norm1 = _projective(v1, north1)
    a2, b2, norm2 = _projective(v2, north2)
    cross = a1 * b2 - a2 * b1
    return 2.0 * np.hypot(cross.real, cross.imag) / (norm1 * norm2)


def _projective(values, north):
    """The pair (a, b) with z = a/b that ``chordal`` forms, north (z, 1) and
    south (1, w), and its norm, each modulus through C hypot as ``chordal``
    takes it (numpy's ``abs`` of a complex array may round apart)."""
    a, b = np.where(north, values, 1.0), np.where(north, 1.0, values)
    return a, b, np.hypot(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag))


# Chordal distance is at least the difference of sphere heights tanh(s); the
# slack covers rounding in both, so a pair outside a height window of r + slack
# is farther than r apart as computed by ``chordal`` too.
_HEIGHT_SLACK = 1e-12


def dedup_many(values: np.ndarray, north: np.ndarray, radius: float) -> np.ndarray:
    """Indices, ascending, of the points farther than ``radius`` (chordal)
    from every earlier kept one.  Sorted by height, each point is measured
    only against the later ones in its height window, the t-th later one of
    every point in one batch; each close pair then drops its later point,
    in input order, where the earlier one is kept."""
    heights = np.tanh(latitudes(values, north))
    order = np.argsort(heights)
    reach = np.searchsorted(heights[order], heights[order] + (radius + _HEIGHT_SLACK),
                            side="right") - np.arange(values.size)
    close = []
    for t in range(1, int(reach.max(initial=0))):
        first = np.flatnonzero(reach > t)
        i, j = order[first], order[first + t]
        near = ~(chordal_many(values[i], north[i], values[j], north[j]) > radius)
        close += zip(np.maximum(i, j)[near].tolist(), np.minimum(i, j)[near].tolist())
    keep = np.ones(values.size, dtype=bool)
    for later, earlier in sorted(close):
        if keep[earlier]:
            keep[later] = False
    return np.flatnonzero(keep)


def sphere_points(values: np.ndarray, north: np.ndarray) -> tuple[SpherePoint, ...]:
    """The ``SpherePoint`` of each chart point (values, north)."""
    return tuple(SpherePoint(v, Chart.NORTH if up else Chart.SOUTH)
                 for v, up in zip(values.tolist(), north.tolist()))


def wrap_angle(a):
    """Angle (scalar or array) wrapped to [-pi, pi)."""
    return (a + math.pi) % (2 * math.pi) - math.pi


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
        # an infinite slope gives +-inf, or nan at s = 0, silently
        with np.errstate(over="ignore", invalid="ignore"):
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
        # a value past the float range is +-inf (or nan), silently, as
        # Python float arithmetic gives it
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_horner(self.coeffs, s))

    def many(self, s: np.ndarray) -> np.ndarray:
        """``__call__`` on an array of latitudes."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _on_finite(self, s, lambda x: _horner(self.coeffs, x))

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
        # so every interior node latitude is finite
        if any(not (ss[i] < ss[i + 1]) for i in range(len(ss) - 1)):
            raise ValueError("node latitudes must be strictly increasing")
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
            return 0.5 * (1.0 + np.tanh(0.5 * s))
        if s0 == -INF:
            return np.exp(s - s1)
        if s1 == INF:
            return 1.0 - np.exp(s0 - s)
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
    """Monotone interpolation on t in [0,1] honoring infinite endpoints.

    A latitude one rounding step off a node can give t = 0 or t = 1
    exactly; there the ramp is the node value, as at the node itself.
    """
    if t == 0.0:
        return v0
    if t == 1.0:
        return v1
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
    ends = (t == 0.0) | (t == 1.0)
    if ends.any():
        out = np.where(t == 0.0, v0, v1)
        out[~ends] = _ramp_many(t[~ends], v0, v1)
        return out
    if math.isfinite(v0) and math.isfinite(v1):
        return v0 + t * (v1 - v0)
    if math.isfinite(v0):
        tail = np.log1p(-t)
        return v0 - tail if v1 > 0 else v0 + tail
    if math.isfinite(v1):
        tail = np.log(t)
        return v1 - tail if v0 > 0 else v1 + tail
    core = np.log(t / (1.0 - t))
    return core if v1 > 0 else -core


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


def is_identity_profile(profile) -> bool:
    """Whether the profile is s -> s exactly: the affine identity, a
    piecewise-linear profile with every node on the diagonal, or an
    iterate's radial profile whose base one is such."""
    if isinstance(profile, AffineProfile):
        return profile.a == 1.0 and profile.b == 0.0
    if isinstance(profile, PiecewiseLinearProfile):
        return all(s == v for s, v in profile.nodes)
    if isinstance(profile, _Iterated):
        return not profile.angle and is_identity_profile(profile.base.radial)
    return False


def _affine_form(profile):
    """A ``PolyProfile`` of degree <= 1 as the ``AffineProfile`` it is."""
    if isinstance(profile, PolyProfile) and len(profile.coeffs) <= 2:
        b, a = (profile.coeffs + (0.0,))[:2]
        return AffineProfile(a, b)
    return profile


def _shifted(profile):
    """profile(s) - s, so radial fixed latitudes are level-set zeros; an
    affine profile (``_affine_form``) stays affine: a closed-form root."""
    profile = _affine_form(profile)
    if isinstance(profile, AffineProfile):
        return AffineProfile(profile.a - 1.0, profile.b)
    return _Shifted(profile)


@dataclass(frozen=True)
class _Shifted:
    """profile(s) - s for a profile that is not affine."""

    profile: object

    def __call__(self, s: float) -> float:
        v = self.profile(s)
        return v if math.isinf(v) else v - s

    def many(self, s: np.ndarray) -> np.ndarray:
        v = self.profile.many(s)
        finite = ~np.isinf(v)
        v[finite] -= np.asarray(s)[finite]
        return v

    def pole_crossings(self):
        return self.profile.pole_crossings()


LEVEL_S_CAP = 18.0


def solve_profile_level(profile, level: float, grid: int = 4096) -> list[float]:
    """All finite s with profile(s) == level: (level - b) / a for an affine
    profile (``_affine_form``) with a != 0, else those with |s| < LEVEL_S_CAP
    by per-branch bisection.  Branches are the intervals between consecutive
    pole crossings (profile values are finite and continuous inside each).
    """
    profile = _affine_form(profile)
    if isinstance(profile, AffineProfile) and profile.a != 0:
        return [(level - profile.b) / profile.a]
    cuts = [-LEVEL_S_CAP] + sorted(s for s, _ in profile.pole_crossings()) + [LEVEL_S_CAP]
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
    """z -> z**2 + c, which every layer reads as a rational map; only its
    anchor, its degree and its ``quad:`` grammar are its own.

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
        raise AnchorNotAttracting(f"z^2+{self.c} has no attracting finite fixed point")


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
        if p == (0j,) and len(q) > 1:
            raise ValueError("zero numerator over a non-constant denominator; "
                             "the constant map 0 is P=0;Q=1")
        if len(p) > 1 and len(q) > 1:
            rp, rq = (_companion_roots(np.array([cs], dtype=complex)) for cs in (p, q))
            if np.abs(rp[:, None] - rq[None, :]).min() < 1e-10:
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
        for lim, tw in zip(self.radial.end_limits(), self.twist.end_limits()):
            # a finite end limit leaves the pole image angle-dependent
            # unless the angular action collapses
            if not math.isinf(lim) and (self.angular_degree != 0 or math.isinf(tw)):
                raise ValueError(
                    "radial profile must send each end to a pole "
                    "(finite end limits only allowed for angular degree 0)"
                )

    @property
    def declared_degree(self) -> int:
        # +1 where the radial profile keeps the poles, -1 where it swaps them
        sign = {(-INF, INF): 1, (INF, -INF): -1}.get(self.radial.end_limits(), 0)
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
    """Apply the map; total on the sphere, exact on poles.  A power keeps its
    own evaluator, several times faster than Horner's rule on |d| + 1 terms."""
    p = p.normalized()
    if isinstance(spec, Power):
        return _eval_power(spec.d, p)
    if isinstance(spec, ProductMap):
        return _eval_product(spec, p)
    if isinstance(spec, Iterate):
        out = p
        for _ in range(spec.n):
            out = evaluate(spec.inner, out)
        return out
    rows = as_rational(spec)
    if rows is None:
        raise TypeError(f"not a map spec: {spec!r}")
    return _eval_rational(rows, p)


def _eval_power(d: int, p: SpherePoint) -> SpherePoint:
    v = p.value
    if d == 0:
        return SpherePoint(1 + 0j, p.chart)
    if p.chart is Chart.NORTH:
        return SpherePoint(v ** d, Chart.NORTH) if d > 0 else SpherePoint(v ** (-d), Chart.SOUTH)
    return SpherePoint(v ** d, Chart.SOUTH) if d > 0 else SpherePoint(v ** (-d), Chart.NORTH)


def _eval_rational(rows: np.ndarray, p: SpherePoint) -> SpherePoint:
    """f = P/Q at p on Python complexes; in the south chart z = 1/w, and
    w^D P(1/w), w^D Q(1/w) are the rows reversed."""
    p_coeffs, q_coeffs = (rows if p.chart is Chart.NORTH else rows[:, ::-1]).tolist()
    a = _horner(p_coeffs, p.value)
    b = _horner(q_coeffs, p.value)
    if a == 0 and b == 0:
        raise OverflowAtChartBoundary("0/0 in rational evaluation")
    if abs(a) > abs(b):
        return SpherePoint(b / a, Chart.SOUTH)
    return SpherePoint(a / b, Chart.NORTH)


def _horner(coeffs, x):
    """Ascending coefficients at one point or an array of points, in numpy
    ``polyval``'s order."""
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


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
# is True where the coordinate is in the north chart.  Every step is numpy's
# own elementwise arithmetic: its complex products and quotients, and its
# ufuncs for the transcendental functions.  The scalar ``evaluate`` stays as
# a reference; the two agree to rounding, not bit for bit, since numpy's
# complex loops may fuse a multiply-add and its log, exp and tanh may round
# apart from libm in the last bit.


def evaluate_many(spec: MapSpec, values, north) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` on many points: (values, north) -> (values, north).

    ``values`` is a 1-D array of chart coordinates and ``north`` is True
    where a coordinate is in the north chart (one flag, or one per point).
    Each image is ``evaluate`` of that point up to rounding.
    """
    v = np.array(values, dtype=complex).ravel()
    nor = np.broadcast_to(np.asarray(north, dtype=bool), v.shape).copy()
    _check_coordinates(v)
    # an overflow to inf or a nan is not warned about; _check_coordinates
    # then raises as the scalar SpherePoint does
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
        # a value within ~1e-308 of 0 gives inf, silently as in chart_value
        with np.errstate(over="ignore", invalid="ignore"):
            out[flip] = 1.0 / out[flip]
    return out


def latitudes(values: np.ndarray, north: np.ndarray) -> np.ndarray:
    """``SpherePoint.latitude`` of each point."""
    mag = np.hypot(values.real, values.imag)
    out = np.where(north, -INF, INF)
    off = mag != 0
    lat = np.log(mag[off])
    out[off] = np.where(north[off], lat, -lat)
    return out


def _angles(values: np.ndarray, north: np.ndarray) -> np.ndarray:
    """``SpherePoint.angle`` of each point."""
    out = np.zeros(values.shape)
    off = values != 0
    a = np.arctan2(values.imag[off], values.real[off])
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
    elif isinstance(spec, ProductMap):
        v, north = _product_many(spec, v, north)
    else:
        rows = as_rational(spec)
        if rows is None:
            raise TypeError(f"not a map spec: {spec!r}")
        v, north = _rational_many(rows, v, north)
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
        v[big] = 1.0 / v[big]
        north = north ^ big
    return v, north


def _power_many(d: int, v: np.ndarray, north: np.ndarray):
    if d == 0:
        return np.ones_like(v), north
    return v ** abs(d), north if d > 0 else ~north


def _rational_many(rows: np.ndarray, v: np.ndarray, north: np.ndarray):
    a, b = np.empty((2, v.size), dtype=complex)
    south = ~north
    for row, out in zip(rows, (a, b)):
        out[north] = _horner(row, v[north])
        out[south] = _horner(row[::-1], v[south])
    if ((a == 0) & (b == 0)).any():
        raise OverflowAtChartBoundary("0/0 in rational evaluation")
    return from_pairs(a, b)


def from_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The chart point of each projective pair (a : b), as (values, north):
    a/b in the north chart unless |a| > |b|, else b/a in the south chart."""
    north = ~(np.hypot(a.real, a.imag) > np.hypot(b.real, b.imag))
    den = np.where(north, b, a)
    if (den == 0).any():
        raise ZeroDivisionError("complex division by zero")
    return np.where(north, a, b) / den, north


def from_latlon_many(s: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``from_latlon`` of each (s, theta), as (values, north); s = -inf and
    +inf are S = (0, north) and N = (0, south), whatever theta is."""
    north = s <= 0
    out = np.zeros(s.shape, dtype=complex)
    m = ~np.isinf(s)
    x, y = np.where(north, s, -s)[m], np.where(north, theta, -theta)[m]
    mag = np.exp(x)  # exp(x + iy) = exp(x) (cos y + i sin y), x <= 0
    out.real[m], out.imag[m] = mag * np.cos(y), mag * np.sin(y)
    return out, north


def _product_many(spec: ProductMap, v: np.ndarray, north: np.ndarray):
    s = latitudes(v, north)
    s_out = spec.radial.many(s)
    theta = np.zeros_like(s)
    m = ~np.isinf(s_out)     # an infinite radial image is a pole: no angle
    theta[m] = spec.angular_degree * _angles(v, north)[m] + spec.twist.many(s[m])
    return from_latlon_many(s_out, theta)


def curve_image(spec: MapSpec, curve,
                target: Chart) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The image of a sampled curve in the target chart, and its image at an
    array of curve parameters, for refinement: each one ``evaluate_many``
    batch of the points (read in the curve's ``chart``)."""

    def image_of(points: np.ndarray) -> np.ndarray:
        return chart_values(*evaluate_many(spec, points, curve.chart is Chart.NORTH), target)

    return image_of(curve.points), lambda ts: image_of(curve.point_at(ts))


# ---------------------------------------------------------------------------
# Rational and product normal forms (used by degree / annuli / census)
# ---------------------------------------------------------------------------


def iterate_base(spec: MapSpec) -> tuple[MapSpec, int]:
    """(f, n) with spec = f^n and f not an iterate."""
    order = 1
    while isinstance(spec, Iterate):
        spec, order = spec.inner, order * spec.n
    return spec, order


def check_degree_cap(spec: MapSpec, n: int) -> None:
    """Refuse f^n over budget before any view or array of it exists.  With
    spec = g^m and g of degree d (a product map's angular degree, negative
    where its radial profile reverses), |d|^(m n) is multiplied out only
    until it passes ``DEGREE_CAP``; at |d| <= 1 the order m n is held to it."""
    base, order = iterate_base(spec)
    k, product = order * n, isinstance(base, ProductMap)
    name = "angular degree" if product else "degree"
    d = base.angular_degree if product else base.declared_degree
    if abs(d) <= 1 and k > DEGREE_CAP:
        raise DegreeCapExceeded(f"order {k} of a map of {name} {d} exceeds {DEGREE_CAP}")
    size = 1
    for _ in range(k if abs(d) > 1 else 0):  # at most 13 steps
        size *= abs(d)
        if size > DEGREE_CAP:  # a product map's own angular degree is named bare
            power = d if k == 1 and product else f"{d}^{k}"
            raise DegreeCapExceeded(f"{name} {power} exceeds {DEGREE_CAP}")


def as_rational(spec: MapSpec) -> np.ndarray | None:
    """F = (P, Q) with f = P/Q for a quadratic or rational pair, as one
    (2, D + 1) array of ascending rows padded to degree D; None for powers
    and product maps (solved on their product views) and for every iterate
    (never expanded: its callers walk the base n times)."""
    if isinstance(spec, Quadratic):
        p, q = (spec.c, 0j, 1 + 0j), (1 + 0j,)
    elif isinstance(spec, RationalPair):
        p, q = spec.p, spec.q
    else:
        return None
    rows = np.zeros((2, max(len(p), len(q))), dtype=complex)
    rows[0, :len(p)], rows[1, :len(q)] = p, q
    return rows


def as_product_view(spec: MapSpec) -> ProductMap | None:
    """Product normal form for specs that preserve the latitude foliation:
    product maps, powers, z**2 and the monomials c*z**k, and their iterates."""
    if isinstance(spec, ProductMap):
        return spec
    if isinstance(spec, Power):  # a power has no rational form: this is its normal form
        return ProductMap(AffineProfile(float(spec.d), 0.0), spec.d)
    if isinstance(spec, Iterate):
        # at |d| <= 1 the total order of a nested iterate is held to the cap
        # before any level of it is folded; each level is its own view
        root, order = iterate_base(spec)
        view = as_product_view(root)
        if view is not None and abs(view.angular_degree) <= 1 and order > DEGREE_CAP:
            raise DegreeCapExceeded(f"order {order} of a map of angular degree "
                                    f"{view.angular_degree} exceeds {DEGREE_CAP}")
        base = as_product_view(spec.inner)
        return base if base is None or spec.n == 1 else _iterated_view(base, spec.n)
    rows = as_rational(spec)
    if rows is not None:
        terms = [[(i, a) for i, a in enumerate(cs) if a != 0] for cs in rows.tolist()]
        if all(len(t) == 1 for t in terms):
            # c*z**k: (s, theta) -> (k*s + log|c|, k*theta + arg c)
            (i, a), (j, b) = terms[0][0], terms[1][0]
            c, k = a / b, i - j
            return ProductMap(AffineProfile(float(k), math.log(abs(c))), k,
                              AffineProfile(0.0, cmath.phase(c)))
    return None


def _iterated_view(base: ProductMap, n: int) -> ProductMap:
    """The view of f^n from the view ``base`` of f: angular degree d^n, an
    affine radial folded stage by stage, (a_(k+1), b_(k+1)) = (a a_k, a b_k
    + b), else read off (base, n) by ``_Iterated`` as a nonzero twist is.
    Refused: |d|^n past the float range, and a fold to nan or to slope 0;
    ``as_product_view`` has held the order at |d| <= 1 to ``DEGREE_CAP``."""
    d = base.angular_degree
    if abs(d) > 1 and n >= math.log(sys.float_info.max) / math.log(abs(d)):
        raise DegreeCapExceeded(f"angular degree {d}^{n} of an iterate passes the float range")
    radial, lin = _Iterated(base, n), _affine_form(base.radial)
    if isinstance(lin, AffineProfile):
        a, b = lin.a, lin.b
        for _ in range(n - 1):
            a, b = lin.a * a, lin.a * b + lin.b
        if math.isnan(a) or math.isnan(b) or (a == 0) != (lin.a == 0):
            raise ChartError(f"the order-{n} fold of {format_profile(lin)} is nan or has slope 0")
        radial = AffineProfile(a, b)
    twist = ZERO_PROFILE if base.twist == ZERO_PROFILE else _Iterated(base, n, angle=True)
    return ProductMap(radial, d ** n, twist)


@dataclass(frozen=True)
class _Iterated:
    """The radial profile q^n of f^n, f with the view ``base`` (s, theta) ->
    (q(s), d*theta + h(s)), or with ``angle`` its twist H_n, f^n = (q^n(s),
    d^n theta + H_n(s)), read by one loop: theta <- d*theta + h(s), then
    s <- q(s).  ``crossings``, if given, are those of q^n, already solved."""

    base: ProductMap
    n: int
    angle: bool = False
    crossings: tuple | None = field(default=None, compare=False, repr=False)

    def _walk(self, s, read):
        q, d, h = self.base.radial, self.base.angular_degree, self.base.twist
        # an orbit past the float range gives inf or nan, silently as floats do
        with np.errstate(over="ignore", invalid="ignore"):
            theta = read(h, s) if self.angle else None
            for _ in range(self.n - self.angle):
                s = read(q, s)
                if self.angle:
                    theta = d * theta + read(h, s)
        return theta if self.angle else s

    def __call__(self, s: float) -> float:
        return float(self._walk(s, lambda profile, x: profile(x)))

    def many(self, s: np.ndarray) -> np.ndarray:
        return self._walk(s, lambda profile, x: profile.many(x))

    def end_limits(self) -> tuple[float, float]:
        return (self(-INF), self(INF))

    def pole_crossings(self) -> tuple[tuple[float, int], ...]:
        # q^k = q o q^(k-1) crosses where q^(k-1) crosses and q sends that pole
        # on to a pole, and where q^(k-1) meets a crossing of q: solved once each
        q = inner = self.base.radial
        out = q.pole_crossings() if self.crossings is None else self.crossings
        for k in range(2, self.n + 1) if self.crossings is None and out else ():
            ends = [(s, q(sign * INF)) for s, sign in out]
            out = tuple(sorted({(s, 1 if v > 0 else -1) for s, v in ends if math.isinf(v)}
                               | {(s, sign) for c, sign in q.pole_crossings()
                                  for s in solve_profile_level(inner, c)}))
            inner = _Iterated(self.base, k, crossings=out)
        return out


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

    A spec the grammar accepts but a constructor rejects is bad input too:
    its ``ValueError`` is raised again as a ``ParseError``.
    """
    try:
        return _build_map(text)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _build_map(text: str) -> MapSpec:
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
        return Iterate(_build_map(m.group(2)), int(m.group(1)))
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

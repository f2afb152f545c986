"""Lift of an annulus map to the universal-cover strip, the comparison loop
spanning 2m fundamental domains, and the index values that force fixed points.

Strip coordinates: x = theta / 2*pi (unbounded), y = affine rescaling of the
component's latitude window onto [0.25, 0.75].  A lift F of a map whose
annular degree is d satisfies F(x+1, y) = F(x, y) + (d, 0); distinct lift
offsets k pick out distinct fixed-point classes downstairs.  Every lift is
read off the map's product view, so only specs that have one are lifted;
so is each lift's fixed point, which the comparison-loop index certifies.
F is affine in x with slope d, so the loop width is read off one pass of
the lift along x = 0: the least m with |d - 1|*m above every |F(0, y)[0]|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annuli import AnnulusComponent, require_product_view
from .charts import (
    DEGREE_CAP,
    DegreeCapExceeded,
    MapSpec,
    SpherePoint,
    _shifted,
    chordal,
    chordal_many,
    evaluate,
    evaluate_many,
    from_latlon,
    from_latlon_many,
    solve_profile_level,
)
from .lefschetz import Rect, _index_of_images, boundary_curve
from .winding import SampledCurve

Y_LO, Y_HI = 0.25, 0.75
COND_MARGIN = 1e-9
M_CAP = 64
# a closed-form lift fixed point must displace by less than this, relative
# to 1 + |z|: the stopping residual of a Newton polish
FIXED_TOL = 1e-12


class StripError(Exception):
    pass


class LiftDiscontinuity(StripError):
    """The lift does not commute with the covering map or is not equivariant."""


class MNotFound(StripError):
    """No loop width satisfied the displacement conditions within the cap."""


class IndexMismatch(StripError):
    """Computed index contradicts the certified value: self-test failure."""


@dataclass(frozen=True)
class StripMap:
    """A lift F of ``spec`` restricted to one annulus component."""

    spec: MapSpec
    component: AnnulusComponent
    lift_offset: int

    def __post_init__(self):
        object.__setattr__(self, "_view", require_product_view(self.spec, "lift"))

    @property
    def translation_degree(self) -> int:
        return self.component.delta

    @property
    def s_window(self) -> tuple[float, float]:
        return (self.component.win_lo, self.component.win_hi)

    def s_of_y(self, y: float) -> float:
        lo, hi = self.s_window
        return lo + (y - Y_LO) / (Y_HI - Y_LO) * (hi - lo)

    def y_of_s(self, s: float) -> float:
        lo, hi = self.s_window
        return Y_LO + (s - lo) / (hi - lo) * (Y_HI - Y_LO)

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        s = self.s_of_y(y)
        view = self._view
        x_out = view.angular_degree * x + view.twist(s) / (2 * math.pi)
        return (x_out + self.lift_offset, self.y_of_s(view.radial(s)))

    def many(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``__call__`` at each (x, y), through the profiles' ``many`` twins:
        the same formula on arrays."""
        s = self.s_of_y(np.asarray(y, dtype=float))
        view = self._view
        x = np.asarray(x, dtype=float)
        x_out = float(view.angular_degree) * x + view.twist.many(s) / (2 * math.pi)
        return (x_out + float(self.lift_offset), self.y_of_s(view.radial.many(s)))

    def project(self, x: float, y: float) -> SpherePoint:
        return from_latlon(self.s_of_y(y), 2 * math.pi * x)


def lift(spec: MapSpec, component: AnnulusComponent, k: int = 0) -> StripMap:
    """Build the lift F + (k, 0) and validate it against the covering map:
    100 seeded points must commute with the projection, and 10 more must
    move by (d, 0) under x -> x + 1.  Each check is one batch; a failure
    names the first failing point."""
    F = StripMap(spec, component, lift_offset=k)

    def project(x, y):
        return from_latlon_many(F.s_of_y(y), 2 * math.pi * x)

    def first(bad, x, y):
        i = np.flatnonzero(bad)[0]
        return f"(x, y) = ({x[i]:.6g}, {y[i]:.6g})"

    rng = np.random.default_rng(0)
    # row by row the draws of rng.uniform(-2, 2), then rng.uniform(Y_LO, Y_HI)
    x, y = rng.uniform([-2.0, Y_LO], [2.0, Y_HI], size=(100, 2)).T
    xo, yo = F.many(x, y)
    down = evaluate_many(spec, *project(x, y))
    bad = ~(chordal_many(*project(xo - k, yo), *down) <= 1e-9)
    if bad.any():
        raise LiftDiscontinuity(f"projection does not commute at {first(bad, x, y)}")
    x, y = rng.uniform([-2.0, Y_LO], [2.0, Y_HI], size=(10, 2)).T
    a, b = F.many(x + 1.0, y), F.many(x, y)
    d = F.translation_degree
    # a[0] and b[0] round d*(x + 1) and d*x: a few ulps of them on top
    slack = 1e-9 + 4 * np.spacing(abs(d) * (1.0 + np.abs(x)))
    bad = (np.abs(a[0] - b[0] - d) > slack) | (np.abs(a[1] - b[1]) > 1e-9)
    if bad.any():
        raise LiftDiscontinuity(f"equivariance violated at {first(bad, x, y)}")
    return F


# ---------------------------------------------------------------------------
# The comparison loop
# ---------------------------------------------------------------------------


def build_beta(F: StripMap, m: int) -> SampledCurve:
    """Positively oriented loop: lower boundary lifts across 2m fundamental
    domains, the vertical arc at x = m, the upper lifts back, and the
    vertical at x = -m.  Round boundaries lift to the horizontal lines
    y = 0.25 and y = 0.75.  The degenerate m = 0 loop spans one domain.
    """
    if m < 0:
        raise ValueError("loop width must be >= 0")
    x_lo, x_hi = (0.0, 1.0) if m == 0 else (-float(m), float(m))
    return boundary_curve(Rect(x_lo, x_hi, Y_LO, Y_HI), max(16, 8 * (2 * m + 1)))


@dataclass(frozen=True)
class VerifyResult:
    index: int
    m_used: int


def verify_index(F: StripMap) -> VerifyResult:
    """Find the least loop width where the displacement conditions hold and
    check that the index along the loop matches the certified value (+1
    when the translation degree is >= 2, -1 when it is <= 0)."""
    d = F.translation_degree
    if d == 1:
        raise ValueError("translation degree 1 carries no certified index")
    expected = 1 if d >= 2 else -1
    refused = f"conditions never held for m <= {M_CAP}"
    # one pass of the lift along x = 0, at 65 heights from Y_LO to Y_HI
    reach, heights = F.many(np.zeros(65), np.linspace(Y_LO, Y_HI, 65))
    # the image height depends on the height alone: the end points decide,
    # for every width, that each horizontal side maps below or above the loop
    if heights[0] >= Y_LO - COND_MARGIN or heights[-1] <= Y_HI + COND_MARGIN:
        raise MNotFound(refused)
    # F(x, y)[0] = d*x + F(0, y)[0], so the sides x = -m and x = m map beyond
    # themselves (d >= 2) or toward the center (d <= 0) at each of 65 heights
    # exactly when |d - 1|*m > COND_MARGIN + |F(0, y)[0]|
    width = (COND_MARGIN + float(np.abs(reach).max())) / abs(d - 1)
    if not width < M_CAP:  # a non-finite reach is refused as well
        raise MNotFound(refused)
    m = math.floor(width) + 1
    beta = build_beta(F, m)

    def image_of(zs: np.ndarray) -> np.ndarray:
        x, y = F.many(zs.real, zs.imag)
        z = x.astype(complex)
        z.imag = y  # an infinite height stays infinite: x + 1j*y would give nan
        return z

    idx = _index_of_images(image_of(beta.points), lambda t: image_of(beta.point_at(t)), beta)
    if idx != expected:
        raise IndexMismatch(f"loop index {idx} != certified {expected} for degree {d}")
    return VerifyResult(index=idx, m_used=m)


# ---------------------------------------------------------------------------
# Fixed points of lifts and their projections
# ---------------------------------------------------------------------------


def lift_fixed_point(F: StripMap, m: int) -> complex:
    """Fixed point of the lift inside the comparison loop, read off the
    product view.

    A fixed point of (x, y) -> (d*x + h(s)/2pi + k, y(q(s))) sits on a
    radial fixed latitude s* = q(s*); the lowest one whose height lies
    strictly inside the loop is taken, and x solves the linear equation
    x = d*x + h(s*)/2pi + k.  The point is checked on the lift itself: its
    displacement must fall below FIXED_TOL relative to 1 + |z|.
    """
    view = F._view
    for s in solve_profile_level(_shifted(view.radial), 0.0):
        y = F.y_of_s(s)
        if Y_LO < y < Y_HI:
            break
    else:
        raise StripError("no radial fixed latitude inside the comparison loop")
    x = (view.twist(s) / (2 * math.pi) + F.lift_offset) / (1 - F.translation_degree)
    if not -m <= x <= m:
        raise StripError(f"lift fixed point x = {x:.6g} outside the loop of width {m}")
    z = complex(x, y)
    residual = abs(complex(*F(x, y)) - z)
    if residual >= FIXED_TOL * (1 + abs(z)):
        raise StripError(f"lift displacement {residual:.3g} at the closed-form fixed point")
    return z


@dataclass(frozen=True)
class LiftFixedPoint:
    lift_offset: int
    m_used: int
    index: int
    strip_point: complex
    sphere_point: SpherePoint
    residual: float


def nielsen_fixed_points(spec: MapSpec, component: AnnulusComponent,
                         offsets=None) -> list[LiftFixedPoint]:
    """One fixed point per lift offset; projections are pairwise distinct.

    Offsets default to 0 .. |d-1|-1, realizing the full lower bound of a
    repelling degree-d component; past ``DEGREE_CAP`` of them the default is
    refused before any lift is built.
    """
    d = component.delta
    if offsets is None:
        if abs(d - 1) > DEGREE_CAP:
            raise DegreeCapExceeded(f"|d - 1| = {abs(d - 1)} strip lifts exceed {DEGREE_CAP}")
        offsets = range(abs(d - 1))
    offsets = list(offsets)
    if offsets:
        # lift() checks F + (k, 0) against the covering map after
        # subtracting k, so one validation serves every offset
        lift(spec, component)
    out = []
    for k in offsets:
        F = StripMap(spec, component, lift_offset=k)
        res = verify_index(F)
        z = lift_fixed_point(F, res.m_used)
        downstairs = F.project(z.real, z.imag)
        residual = chordal(evaluate(spec, downstairs), downstairs)
        out.append(
            LiftFixedPoint(
                lift_offset=k, m_used=res.m_used, index=res.index,
                strip_point=z, sphere_point=downstairs, residual=residual,
            )
        )
    return out

"""Lefschetz index along closed curves and rectangle-boundary certificates.

The index of a map f along gamma is the winding number of the displacement
field x -> f(gamma(x)) - gamma(x) about the origin; when it is nonzero a
fixed point exists in the region the curve bounds (a field constant on the
sample grid goes through the alias probe of ``winding_about_zero``).  A map
spec's samples, and each refinement round's midpoints, are mapped in one
``charts.curve_image`` batch, the image routine ``degree`` winds too; a plane
function is called per point.  The
four canonical boundary-behavior patterns on an axis-aligned rectangle
certify the index (+1 for fully expanding or fully contracting sides, -1
for the two mixed saddle patterns), and the numeric integrator is checked
against each certificate rather than trusted.  ``fixed_point_in`` finds the fixed point
that carries a rectangle's index by one Newton polish, checked by the index
of a small square about it; the gallery and the tests use it, while strip
lifts read theirs off the product view.  Both take plane functions only.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .charts import MapSpec, curve_image
from .winding import PointOnCurve, SampledCurve, curve_diameter, winding_about_zero

PlaneMap = Callable[[complex], complex]


class FixedPointOnCurve(Exception):
    """The displacement field vanishes (numerically) on the curve."""


class CertificateIndexMismatch(Exception):
    """A certified rectangle disagreed with the numeric index: integrator bug."""


def lefschetz_index(f: Union[MapSpec, PlaneMap], curve: SampledCurve) -> int:
    """Winding of the displacement field of f along the curve, about 0; a
    map spec is read in the curve's chart, its samples mapped in one batch.
    A field constant on the sample grid has index 0, unless it winds between
    the samples: then ValueError asks for a denser curve."""
    if callable(f):
        return _index_of_images(_plane_images(f, curve.points),
                                lambda t: _plane_images(f, curve.point_at(t)), curve)
    return _index_of_images(*curve_image(f, curve, curve.chart), curve)


def _plane_images(f: PlaneMap, zs: np.ndarray) -> np.ndarray:
    """A plane function at each point, called once per point on Python complexes."""
    return np.array([f(z) for z in zs.tolist()], dtype=complex)


def _index_of_images(images: np.ndarray, image_at, curve: SampledCurve) -> int:
    """``lefschetz_index`` from the sample images and the images at an array
    of parameters."""
    diam = curve_diameter(curve.points)
    disp = images - curve.points
    low = np.abs(disp).min()
    if low <= 1e-7 * diam:
        raise FixedPointOnCurve(f"min displacement {low:.3g} on a curve of size {diam:.3g}")
    try:
        return winding_about_zero(disp, lambda t: image_at(t) - curve.point_at(t),
                                  curve.params, 1e-12)
    except PointOnCurve as exc:
        raise FixedPointOnCurve(str(exc)) from exc


# ---------------------------------------------------------------------------
# Rectangle certificates
# ---------------------------------------------------------------------------

BOUNDARY_MARGIN = 1e-9


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("degenerate rectangle")

    def scaled(self, factor: float) -> "Rect":
        cx, cy = 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)
        hx, hy = 0.5 * factor * (self.x1 - self.x0), 0.5 * factor * (self.y1 - self.y0)
        return Rect(cx - hx, cx + hx, cy - hy, cy + hy)

    def contains(self, z: complex) -> bool:
        return self.x0 < z.real < self.x1 and self.y0 < z.imag < self.y1


def boundary_curve(rect: Rect, samples_per_side: int = 64) -> SampledCurve:
    """Positively oriented (counterclockwise) rectangle boundary: at t in
    [0, 1) the point ``frac`` along side ``leg``, where (leg, frac) is
    divmod(4t, 1), rounded as the scalar Python arithmetic rounds."""
    corners = np.array([complex(rect.x0, rect.y0), complex(rect.x1, rect.y0),
                        complex(rect.x1, rect.y1), complex(rect.x0, rect.y1)])

    def at(ts: np.ndarray) -> np.ndarray:
        # divmod of 4t in [0, 4] by 1: fmod is its exact remainder
        frac = np.fmod(ts * 4.0, 1.0)
        leg = (ts * 4.0 - frac).astype(int)
        a, b = corners[leg % 4], corners[(leg + 1) % 4]
        return a + frac * (b - a)

    n = 4 * samples_per_side
    ts = np.arange(n) / n
    return SampledCurve(at(ts), param_fn=at, params=ts)


class RectCertificate(Enum):
    """Boundary-behavior patterns with their certified indices."""

    EXPANDING = "expanding"        # all four sides pushed outwards: +1
    CONTRACTING = "contracting"    # all four sides pulled inwards: +1
    SADDLE_H = "saddle_h"          # x contracted, y expanded: -1
    SADDLE_V = "saddle_v"          # x expanded, y contracted: -1
    NO_CERTIFICATE = "none"

    @property
    def certified_index(self) -> int | None:
        return {
            RectCertificate.EXPANDING: 1,
            RectCertificate.CONTRACTING: 1,
            RectCertificate.SADDLE_H: -1,
            RectCertificate.SADDLE_V: -1,
        }.get(self)


def _side_direction(values: np.ndarray, line: float, outward_positive: bool) -> str:
    """'away', 'toward' or 'none' for one side's image coordinates."""
    sign = 1.0 if outward_positive else -1.0
    excess = sign * (values - line)
    if (excess > BOUNDARY_MARGIN).all():
        return "away"
    if (excess < -BOUNDARY_MARGIN).all():
        return "toward"
    return "none"


def rectangle_certificate(fn: PlaneMap, rect: Rect) -> RectCertificate:
    """Match the rectangle boundary behavior against the four patterns.

    The sides are read off one 64-per-side boundary curve, each with both of
    its corners.  When a pattern holds, the numeric index along that curve is
    computed from the same images and must equal the certified value; a
    mismatch is a fatal self-test failure, never a data condition.
    """
    m = 64  # samples per side
    curve = boundary_curve(rect, m)
    images = _plane_images(fn, curve.points)
    closed = np.append(images, images[0])
    bottom, right, top, left = (closed[k * m:(k + 1) * m + 1] for k in range(4))

    dir_top = _side_direction(top.imag, rect.y1, outward_positive=True)
    dir_bottom = _side_direction(bottom.imag, rect.y0, outward_positive=False)
    dir_right = _side_direction(right.real, rect.x1, outward_positive=True)
    dir_left = _side_direction(left.real, rect.x0, outward_positive=False)

    y_dirs = (dir_top, dir_bottom)
    x_dirs = (dir_right, dir_left)
    if y_dirs == ("away", "away") and x_dirs == ("away", "away"):
        cert = RectCertificate.EXPANDING
    elif y_dirs == ("toward", "toward") and x_dirs == ("toward", "toward"):
        cert = RectCertificate.CONTRACTING
    elif y_dirs == ("away", "away") and x_dirs == ("toward", "toward"):
        cert = RectCertificate.SADDLE_H
    elif y_dirs == ("toward", "toward") and x_dirs == ("away", "away"):
        cert = RectCertificate.SADDLE_V
    else:
        return RectCertificate.NO_CERTIFICATE

    idx = _index_of_images(images, lambda t: _plane_images(fn, curve.point_at(t)), curve)
    if idx != cert.certified_index:
        raise CertificateIndexMismatch(
            f"{cert.value} rectangle certified {cert.certified_index} "
            f"but the integrator returned {idx}"
        )
    return cert


# ---------------------------------------------------------------------------
# Fixed points inside a rectangle: one Newton polish, checked by index
# ---------------------------------------------------------------------------


def fixed_point_in(fn: PlaneMap, rect: Rect) -> complex | None:
    """The fixed point that carries the rectangle's whole nonzero index, or None.

    Newton polishes the rectangle's centre; the result is kept only when it
    lies inside and a square about it, of half-side 1e-3 times the shorter
    side, has the rectangle's index.  So several fixed points sharing the
    index give None, and a fixed point on either boundary raises
    FixedPointOnCurve, as ``lefschetz_index`` does.
    """
    index = lefschetz_index(fn, boundary_curve(rect, 48))
    if index == 0:
        return None
    z = _newton_polish(fn, complex(0.5 * (rect.x0 + rect.x1), 0.5 * (rect.y0 + rect.y1)))
    if not rect.contains(z):
        return None
    h = 1e-3 * min(rect.x1 - rect.x0, rect.y1 - rect.y0)
    square = Rect(z.real - h, z.real + h, z.imag - h, z.imag + h)
    return z if lefschetz_index(fn, boundary_curve(square, 48)) == index else None


def _newton_polish(fn: PlaneMap, z: complex) -> complex:
    """2D Newton on g(z) = f(z) - z with a numeric Jacobian, until
    |g| < 1e-12 or for at most 60 steps."""
    h = 1e-7
    for _ in range(60):
        g = fn(z) - z
        if abs(g) < 1e-12:
            return z
        gx = (fn(z + h) - (z + h) - g) / h
        gy = (fn(z + 1j * h) - (z + 1j * h) - g) / h
        jac = np.array([[gx.real, gy.real], [gx.imag, gy.imag]])
        try:
            step = np.linalg.solve(jac, -np.array([g.real, g.imag]))
        except np.linalg.LinAlgError:
            break
        z = z + complex(step[0], step[1])
    return z

"""Winding numbers of sampled closed curves, out/inn sets, essentiality.

The winding number about p is the total continuous argument change of
gamma(t) - p over one traversal, divided by 2*pi.  Per-edge principal
argument increments are summed after adaptive resampling has driven every
increment below pi/2, so the rounded sum is provably the true integer.
A curve's samples and its parameterization are numpy arrays, built, trimmed
and wound in numpy's arithmetic; each refinement round maps its parameter
midpoints in one batch.
``winding_about_zero`` is the one probe, shared by the Lefschetz index and
the annular degree, that tells a curve constant on its sample grid from one
that winds between its samples.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .charts import Chart

MAX_SAMPLES = 2 ** 20
MAX_REFINE_ROUNDS = 64
SNAP_TOL = 0.05
EDGE_CAP = 0.5 * math.pi


class CurveError(Exception):
    pass


class PointOnCurve(CurveError):
    """Query point is (numerically) on the curve."""


class NonIntegralWinding(CurveError):
    """Argument sum refused to settle on an integer within the sample cap."""


class NonFiniteSamples(CurveError):
    """A sample of the curve is infinite or NaN: it has no winding."""


class InnOut(Enum):
    INN = "inn"
    OUT = "out"


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Closed polyline in a fixed chart; optionally carries its parameterization.

    The kept samples are held once, as the read-only arrays ``points`` and
    ``params``.  ``param_fn`` maps an array of parameters in [0, 1) to the
    curve's points there; adaptive refinement reads parameter midpoints
    through ``point_at``, which without a ``param_fn`` interpolates along
    the polyline's chords.
    """

    points: np.ndarray
    chart: Chart = Chart.NORTH
    param_fn: Callable[[np.ndarray], np.ndarray] | None = None
    params: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        pars = (np.arange(pts.size) / pts.size if self.params is None
                else np.asarray(self.params, dtype=float))
        if pars.size != pts.size:
            raise ValueError("params must match points")
        # the first of each run of equal consecutive samples, and no last
        # sample equal to the first: the closing edge would be empty
        keep = np.ones(pts.size, dtype=bool)
        keep[1:] = pts[1:] != pts[:-1]
        kept = np.flatnonzero(keep)
        if kept.size > 1 and pts[kept[-1]] == pts[0]:
            keep[kept[-1]] = False
        pts, pars = pts[keep], pars[keep]
        if pts.size < 8:
            raise ValueError("a sampled curve needs at least 8 distinct samples")
        pts.flags.writeable = pars.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "params", pars)

    def point_at(self, t: np.ndarray) -> np.ndarray:
        """Curve positions at the parameters t (mod 1)."""
        t = np.asarray(t, dtype=float) % 1.0
        if self.param_fn is not None:
            return self.param_fn(t)
        ts = np.append(self.params, self.params[0] + 1.0)
        zs = np.append(self.points, self.points[0])
        t = np.where(t < ts[0], t + 1.0, t)
        # the first chord whose end reaches t
        i = np.minimum(np.searchsorted(ts[1:], t), ts.size - 2)
        a, b = ts[i], ts[i + 1]
        span = b - a
        lam = np.divide(t - a, span, out=np.zeros_like(t), where=span != 0)
        on = zs[i] + lam * (zs[i + 1] - zs[i])
        return np.where((a <= t) & (t <= b), on, zs[0])

    def reversed(self) -> "SampledCurve":
        return SampledCurve(self.points[::-1], self.chart)


def circle(center: complex, radius: float, samples: int = 64,
           chart: Chart = Chart.NORTH) -> SampledCurve:
    """``samples`` points center + radius*exp(2*pi*i*t) at t = k/samples,
    through one array parameterization: numpy's cos and sin of 2*pi*t."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def at(ts: np.ndarray) -> np.ndarray:
        return center + ring(radius, ts)

    ts = np.arange(samples) / samples
    return SampledCurve(at(ts), chart, param_fn=at, params=ts)


def ring(radius: float, ts: np.ndarray) -> np.ndarray:
    """radius*exp(2*pi*i*t) at each t, through numpy's cos and sin: the
    offsets of ``circle``'s samples from its center."""
    angle = 2 * math.pi * ts
    return radius * (np.cos(angle) + 1j * np.sin(angle))


def latitude_circle(s: float, samples: int = 256) -> SampledCurve:
    """North-chart circle at log-latitude s (|z| = e^s)."""
    return circle(0j, math.exp(s), samples)


def concatenate(a: SampledCurve, b: SampledCurve) -> SampledCurve:
    if a.chart is not b.chart:
        raise ValueError("curves live in different charts")
    return SampledCurve(np.concatenate((a.points, b.points)), a.chart)


def curve_diameter(points: np.ndarray):
    """Twice the largest distance of a sample from the samples' mean, for
    each row of the last axis."""
    return 2.0 * np.abs(points - points.mean(axis=-1)[..., None]).max(axis=-1)


def winding_about_zero(values: np.ndarray, value_at: Callable[[np.ndarray], np.ndarray],
                       params: np.ndarray, rtol: float) -> int:
    """Winding about 0 of the closed curve ``value_at``, sampled as ``values``
    at ``params``.  Samples all within ``rtol * max(1, |first|)`` of the first
    are a constant curve, winding 0, when three off-grid values agree, and
    otherwise a grid that aliases the winding: ValueError."""
    values = _finite(np.asarray(values, dtype=complex))
    first = complex(values[0])
    tol = rtol * max(1.0, abs(first))
    if np.abs(values - first).max() < tol:
        if (np.abs(value_at(np.array([0.1137, 0.4711, 0.7893])) - first) < tol).all():
            return 0
        raise ValueError("the sample grid aliases the winding; resample denser")
    return winding_number(SampledCurve(values, param_fn=value_at, params=params), 0j)


def winding_number(curve: SampledCurve, p: complex) -> int:
    """Integer winding number of the closed curve about p; non-finite
    samples, on the curve or among its refinement midpoints, are refused
    with ``NonFiniteSamples``."""
    z = np.append(_finite(curve.points), curve.points[0])
    t = np.append(curve.params, curve.params[0] + 1.0)
    min_ok = 1e-9 * curve_diameter(curve.points)
    clear, bad, total, integral = settle(z, p, min_ok)
    if not clear:
        raise PointOnCurve(f"query point within {min_ok:.3g} of a sample")
    rounds = 0
    while bad.any():
        rounds += 1
        idx = np.nonzero(bad)[0]
        if z.size + idx.size > MAX_SAMPLES or rounds > MAX_REFINE_ROUNDS:
            # a persistently bad edge after 64 halvings spans a parameter
            # interval below 1e-19: the curve jumps, refuse to guess
            raise NonIntegralWinding(
                f"edge increments still >= pi/2 after {rounds - 1} refinement "
                f"rounds ({z.size} samples)"
            )
        tm = 0.5 * (t[idx] + t[idx + 1])
        zm = _finite(curve.point_at(tm))
        if np.abs(zm - p).min() <= min_ok:
            raise PointOnCurve("refinement landed on the query point")
        z = np.insert(z, idx + 1, zm)
        t = np.insert(t, idx + 1, tm)
        clear, bad, total, integral = settle(z, p, min_ok)
    if not integral:
        raise NonIntegralWinding(f"argument sum {total:.6f} is not near an integer")
    return round(float(total))


def settle(z: np.ndarray, p: complex, min_ok):
    """The checks of ``winding_number`` on each row of closed samples z
    (last axis, the first sample repeated last) about p, without refinement.

    Returns, per row: ``clear``, every sample finite and farther than
    ``min_ok`` from p; the edges whose principal increment reaches
    ``EDGE_CAP``, which refinement must split; the sum of the increments in
    turns; and ``integral``, that sum within ``SNAP_TOL`` of an integer.  A
    row with an infinite sample, or one through p, gives no numpy warning.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = z - p
        inc = np.angle(rel[..., 1:] / rel[..., :-1])
        clear = np.isfinite(z).all(axis=-1) & (np.abs(rel).min(axis=-1) > min_ok)
    bad = np.abs(inc) >= EDGE_CAP
    total = inc.sum(axis=-1) / (2.0 * math.pi)
    return clear, bad, total, np.abs(total - np.rint(total)) <= SNAP_TOL


def _finite(points: np.ndarray) -> np.ndarray:
    """The samples, unless one is infinite or NaN: ``NonFiniteSamples``."""
    bad = np.count_nonzero(~np.isfinite(points))
    if bad:
        raise NonFiniteSamples(f"{bad} of {points.size} curve samples are not finite")
    return points


def classify(curve: SampledCurve, p: complex) -> InnOut:
    """p is Out when the curve does not wind around it."""
    return InnOut.OUT if winding_number(curve, p) == 0 else InnOut.INN


def is_essential(curve: SampledCurve) -> bool:
    """Does the curve separate the poles of the annulus?

    The curve must be given in the north chart (S at the origin); a circle
    is essential exactly when it winds around the S coordinate.
    """
    if curve.chart is not Chart.NORTH:
        raise ValueError("essentiality is checked in north-chart coordinates")
    return winding_number(curve, 0j) != 0


# ---------------------------------------------------------------------------
# Curve fixture format: CSV rows re,im with a '# chart=north' comment header
# ---------------------------------------------------------------------------


def dump_curve_csv(curve: SampledCurve) -> str:
    lines = [f"# chart={curve.chart.value}"]
    lines += [f"{z.real:.12g},{z.imag:.12g}" for z in curve.points.tolist()]
    return "\n".join(lines) + "\n"


def load_curve_csv(text: str) -> SampledCurve:
    chart = Chart.NORTH
    pts: list[complex] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("chart="):
                name = body.split("=", 1)[1].strip()
                try:
                    chart = Chart(name)
                except ValueError as exc:
                    raise ValueError(f"unknown chart {name!r}") from exc
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ValueError(f"curve row {line!r} is not re,im")
        z = complex(float(cells[0]), float(cells[1]))
        if not cmath.isfinite(z):
            raise ValueError(f"curve row {line!r} is not finite")
        pts.append(z)
    return SampledCurve(pts, chart)

"""Structure of the pole preimages: component types, annulus decomposition,
the repelling-annulus test, the fixed-point lower bound, and the loop
hypothesis probe.

A component of the preimage of {N, S} is type I when it contains a pole,
type II when it is an essential circle, and type III when it is inessential.
Maps whose pole preimages are only poles and essential circles are in
straightened form; only those decompose into annulus components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import charts, degree as degree_mod
from .charts import (
    Chart,
    MapSpec,
    SpherePoint,
    anchor_poles,
    as_product_view,
    chart_value,
    chordal,
    evaluate_many,
    latitudes,
    to_chart,
)
from .winding import SampledCurve, circle, latitude_circle, winding_number

INF = math.inf

REPEL_MARGIN = 1e-9
PROBE_RADIUS_CAP = 0.05
WINDOW = 1.0


class AnnuliError(Exception):
    pass


class UnsupportedSpec(AnnuliError):
    """Pole-preimage structure not resolvable for this spec."""


class NotStraightened(AnnuliError):
    """Type III components present; the map is outside the straightened form."""


class NotRepelling(AnnuliError):
    pass


class BoundaryTouchesImage(AnnuliError):
    """Image latitude within margin of the boundary: repelling test inconclusive."""


class ComponentType(Enum):
    TYPE_I = "I"      # contains N or S
    TYPE_II = "II"    # essential circle
    TYPE_III = "III"  # inessential


@dataclass(frozen=True)
class PolePreimage:
    kind: ComponentType
    point: SpherePoint | None = None   # type I / III components
    latitude: float | None = None      # type II circles
    maps_to_north: bool = False


@dataclass(frozen=True)
class AnnulusComponent:
    """One component of the preimage of the annulus, ordered from S to N.

    ``s_lo``/``s_hi`` are the true latitude bounds (infinite next to a
    pole); ``win_lo``/``win_hi`` is the finite working window used for the
    boundary circles, the core, and the repelling test.
    """

    s_lo: float
    s_hi: float
    win_lo: float
    win_hi: float
    delta: int
    d_i: int
    repelling: bool
    core: SampledCurve
    lower_circle: SampledCurve | None   # None marks the S pole
    upper_circle: SampledCurve | None   # None marks the N pole


# ---------------------------------------------------------------------------
# Pole preimages
# ---------------------------------------------------------------------------


def pole_preimages(spec: MapSpec) -> list[PolePreimage]:
    """Components of the preimage of {N, S} with their type tags."""
    view = as_product_view(spec)
    if view is not None:
        return _product_pole_preimages(view)
    return _rational_pole_preimages(spec)


def _product_pole_preimages(view) -> list[PolePreimage]:
    out = []
    lo, hi = view.radial.end_limits()
    if math.isinf(lo):
        out.append(PolePreimage(ComponentType.TYPE_I, point=charts.S_POLE,
                                latitude=-INF, maps_to_north=lo > 0))
    for s, sign in sorted(view.radial.pole_crossings()):
        out.append(PolePreimage(ComponentType.TYPE_II, latitude=s,
                                maps_to_north=sign > 0))
    if math.isinf(hi):
        out.append(PolePreimage(ComponentType.TYPE_I, point=charts.N_POLE,
                                latitude=INF, maps_to_north=hi > 0))
    return out


def _rational_pole_preimages(spec: MapSpec) -> list[PolePreimage]:
    south, north = anchor_poles(spec)
    comps: list[PolePreimage] = []
    for target, to_north in ((south, False), (north, True)):
        try:
            preimages = degree_mod.find_preimages(spec, target)
        except charts.ParseError as exc:
            raise UnsupportedSpec(f"cannot resolve pole preimages of {spec!r}") from exc
        for x in preimages:
            is_anchor = min(chordal(x, south), chordal(x, north)) < 1e-9
            kind = ComponentType.TYPE_I if is_anchor else ComponentType.TYPE_III
            comps.append(PolePreimage(kind, point=x, latitude=x.latitude(),
                                      maps_to_north=to_north))
    comps.sort(key=lambda c: (c.latitude if c.latitude is not None else 0.0))
    return comps


# ---------------------------------------------------------------------------
# Decomposition into annulus components
# ---------------------------------------------------------------------------


def decompose(spec: MapSpec) -> list[AnnulusComponent]:
    """Annulus components between consecutive pole-preimage circles.

    Components reaching a pole are clipped to a finite working window (of
    half-width ``WINDOW`` around the interior structure) for their boundary
    circles and repelling test; the true bounds stay infinite.  Core circles
    are sampled densely enough for the map's angular action (aliasing-free).

    delta_i is the winding of the core's image; the sphere degree is the
    cactus identity d_i = delta_i * (sigma_hi - sigma_lo) / 2, with sigma +1
    (N) or -1 (S) for the pole that each bound's pole preimage maps to: the
    type II circle at a cut, the type I preimage at an end (the point at
    infinity at the north end).  An end without one has a finite end limit,
    sigma 0 and delta_i = 0 beside it.
    """
    comps = pole_preimages(spec)
    if any(c.kind is ComponentType.TYPE_III for c in comps):
        raise NotStraightened("type III components present")
    view = as_product_view(spec)
    bound = abs(view.angular_degree) if view else abs(spec.declared_degree)
    core_samples = max(256, 8 * bound)
    circles = [c for c in comps if c.kind is ComponentType.TYPE_II]
    bounds = [-INF] + [c.latitude for c in circles] + [INF]
    ends = {c.latitude == INF: c for c in comps if c.kind is ComponentType.TYPE_I}
    sigmas = [0 if c is None else 1 if c.maps_to_north else -1
              for c in [ends.get(False)] + circles + [ends.get(True)]]
    out = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        win_lo = lo if math.isfinite(lo) else min(-WINDOW, (hi - 1.0) if math.isfinite(hi) else -WINDOW)
        win_hi = hi if math.isfinite(hi) else max(WINDOW, win_lo + 1.0)
        core_s = 0.5 * (win_lo + win_hi)
        core = latitude_circle(core_s, core_samples)
        delta = degree_mod.annular_degree(spec, core)
        lower = None if lo == -INF else latitude_circle(win_lo, core_samples)
        upper = None if hi == INF else latitude_circle(win_hi, core_samples)
        out.append(
            AnnulusComponent(
                s_lo=lo, s_hi=hi, win_lo=win_lo, win_hi=win_hi,
                delta=delta, d_i=delta * (sigmas[i + 1] - sigmas[i]) // 2,
                repelling=False, core=core, lower_circle=lower, upper_circle=upper,
            )
        )
    return [replace(comp, repelling=is_repelling(spec, comp)) for comp in out]


def is_repelling(spec: MapSpec, component: AnnulusComponent) -> bool:
    """Both boundary circles map strictly outside the component.

    Upper boundary samples must land strictly above its latitude, lower
    samples strictly below; a sample within the margin makes the test
    inconclusive (raised, never silently False).  A pole side is tested on
    the window edge, sampled as densely as the core.
    """
    samples = len(component.core.points)
    lower = component.lower_circle or latitude_circle(component.win_lo, samples)
    upper = component.upper_circle or latitude_circle(component.win_hi, samples)
    ok = True
    for curve, s_ref, outward_up in ((upper, component.win_hi, True),
                                     (lower, component.win_lo, False)):
        s_img = latitudes(*evaluate_many(spec, curve.points, curve.chart is Chart.NORTH))
        if (np.abs(s_img - s_ref) <= REPEL_MARGIN).any():
            raise BoundaryTouchesImage(
                f"boundary latitude {s_ref:.6g} image within margin"
            )
        excess = (s_img - s_ref) if outward_up else (s_ref - s_img)
        if (excess < 0).any():
            ok = False
    return ok


def theorem3_bound(component: AnnulusComponent) -> int:
    """Fixed-point lower bound |delta - 1| of a repelling component."""
    if not component.repelling:
        raise NotRepelling("lower bound applies to repelling components only")
    return abs(component.delta - 1)


# ---------------------------------------------------------------------------
# Loop hypothesis probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    witness: SampledCurve | None = None
    witness_image_winding: int | None = None
    probes: int = 0

    def __bool__(self) -> bool:
        return self.passed


def check_hypothesis_h(spec: MapSpec) -> HypothesisReport:
    """Probe-based test of the loop-triviality hypothesis.

    For every isolated non-pole preimage of a pole, a small circle around it
    is inessential in the annulus; if its image winds around the S anchor,
    the hypothesis fails with that circle as witness.  Sound for the
    closed-form gallery (these probes are exactly the loops that can break
    the hypothesis there); not a general decision procedure.
    """
    comps = pole_preimages(spec)
    south, _ = anchor_poles(spec)
    s_val = chart_value(south, Chart.NORTH)
    isolated = [c for c in comps if c.kind is ComponentType.TYPE_III]
    probes = 0
    for comp in isolated:
        x = to_chart(comp.point.normalized(), Chart.NORTH)
        others = [c.point for c in comps if c.point is not None and c.point != comp.point]
        sep = min(
            (chordal(comp.point, other) for other in others), default=2.0
        )
        radius = min(PROBE_RADIUS_CAP, 0.5 * sep)
        probe = circle(x.value, radius, samples=256)
        if winding_number(probe, s_val) != 0:
            raise UnsupportedSpec("probe circle is not inessential")
        probes += 1
        w = winding_number(degree_mod.image_curve(spec, probe, Chart.NORTH), s_val)
        if w != 0:
            return HypothesisReport(False, witness=probe,
                                    witness_image_winding=w, probes=probes)
    return HypothesisReport(True, probes=probes)

"""Structure of the pole preimages: component types, annulus decomposition,
the repelling-annulus test, the fixed-point lower bound, and the loop
hypothesis probe.

A component of the preimage of {N, S} is type I when it contains a pole,
type II when it is an essential circle, and type III when it is inessential.
Maps whose pole preimages are only poles and essential circles are in
straightened form; only those decompose into annulus components, and only
when they preserve the latitude foliation: every component is read in closed
form off the product view (s, theta) -> (q(s), d*theta + h(s)), with no curve
sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from . import charts, degree as degree_mod
from .charts import (
    AnchorNotAttracting,
    Chart,
    MapSpec,
    SpherePoint,
    anchor_poles,
    as_product_view,
    chart_value,
    chordal,
    to_chart,
)
from .winding import PointOnCurve, SampledCurve, circle, winding_number

INF = math.inf

REPEL_MARGIN = 1e-9
# the core image must stay within 1e-6 < |z| < 1e6, as in degree.annular_degree
POLE_LATITUDE = math.log(1e6)
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
        for x in charts.sphere_points(*degree_mod.find_preimages(spec, target)):
            is_anchor = min(chordal(x, south), chordal(x, north)) < 1e-9
            kind = ComponentType.TYPE_I if is_anchor else ComponentType.TYPE_III
            comps.append(PolePreimage(kind, point=x, latitude=x.latitude(),
                                      maps_to_north=to_north))
    comps.sort(key=lambda c: (c.latitude if c.latitude is not None else 0.0))
    return comps


# ---------------------------------------------------------------------------
# Decomposition into annulus components
# ---------------------------------------------------------------------------


def require_product_view(spec: MapSpec, purpose: str):
    """The spec's product view, or ``UnsupportedSpec`` naming the purpose."""
    view = as_product_view(spec)
    if view is None:
        raise UnsupportedSpec(f"no product view of {spec!r} to {purpose}")
    return view


def decompose(spec: MapSpec) -> list[AnnulusComponent]:
    """Annulus components between consecutive pole-preimage circles, read
    off the product view (s, theta) -> (q(s), d*theta + h(s)).

    Components reaching a pole are clipped to a finite working window (of
    half-width ``WINDOW`` around the interior structure) for the core
    latitude and the repelling test; the true bounds stay infinite.

    delta_i is the view's angular degree d; each core latitude must map
    inside the |z| window of ``degree.annular_degree`` (else
    ``ImageHitsPole``).  The sphere degree is the cactus identity
    d_i = delta_i * (sigma_hi - sigma_lo) / 2, with sigma +1 (N) or -1 (S)
    for the pole that each bound's pole preimage maps to: the type II circle
    at a cut, the type I preimage at an end (the point at infinity at the
    north end).  An end without one has a finite end limit, sigma 0 and
    delta_i = 0 beside it.
    """
    comps = pole_preimages(spec)
    if any(c.kind is ComponentType.TYPE_III for c in comps):
        raise NotStraightened("type III components present")
    view = require_product_view(spec, "decompose")
    circles = [c for c in comps if c.kind is ComponentType.TYPE_II]
    bounds = [-INF] + [c.latitude for c in circles] + [INF]
    ends = {c.latitude == INF: c for c in comps if c.kind is ComponentType.TYPE_I}
    sigmas = [0 if c is None else 1 if c.maps_to_north else -1
              for c in [ends.get(False)] + circles + [ends.get(True)]]
    delta = view.angular_degree
    out = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        win_lo = lo if math.isfinite(lo) else min(-WINDOW, (hi - 1.0) if math.isfinite(hi) else -WINDOW)
        win_hi = hi if math.isfinite(hi) else max(WINDOW, win_lo + 1.0)
        core_s = 0.5 * (win_lo + win_hi)
        if not abs(view.radial(core_s)) < POLE_LATITUDE:
            raise degree_mod.ImageHitsPole(f"core latitude {core_s:.4g} maps near a pole")
        out.append(AnnulusComponent(
            s_lo=lo, s_hi=hi, win_lo=win_lo, win_hi=win_hi,
            delta=delta, d_i=delta * (sigmas[i + 1] - sigmas[i]) // 2, repelling=False,
        ))
    return [replace(comp, repelling=is_repelling(spec, comp)) for comp in out]


def is_repelling(spec: MapSpec, component: AnnulusComponent) -> bool:
    """Both window edges map strictly outside the component: q(win_hi) above
    win_hi and q(win_lo) below win_lo.  An image within the margin of its
    edge makes the test inconclusive (raised, never silently False)."""
    radial = require_product_view(spec, "test").radial
    ok = True
    for s_ref, outward_up in ((component.win_hi, True), (component.win_lo, False)):
        s_img = radial(s_ref)
        if abs(s_img - s_ref) <= REPEL_MARGIN:
            raise BoundaryTouchesImage(
                f"boundary latitude {s_ref:.6g} image within margin"
            )
        if (s_img < s_ref) if outward_up else (s_img > s_ref):
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


# what ``check_hypothesis_h`` raises when no probe can be placed: a quadratic
# with no attracting finite fixed point has no S anchor, and near c = 0 the
# pole preimages crowd the anchor, so the probe runs through S or around it
PROBE_OUT_OF_SCOPE = (AnchorNotAttracting, UnsupportedSpec, PointOnCurve)


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

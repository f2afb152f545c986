"""Built-in example maps and the acceptance checks run over them.

Each check returns (ok, detail); ``run_acceptance`` executes all of them in
order.  The same functions back the test suite and the ``gallery`` CLI
subcommand, so the command exits zero exactly when the suite passes.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import annuli, census, degree as degree_mod, lefschetz, strip_lift
from .charts import (
    AffineProfile,
    Iterate,
    MapSpec,
    PiecewiseLinearProfile,
    Power,
    ProductMap,
    Quadratic,
    RationalPair,
    latitudes,
)
from .lefschetz import Rect, RectCertificate
from .winding import SampledCurve, concatenate, winding_number

INF = math.inf

# the no-rate dilation: multiply the radius by two, double the angle
DILATION = ProductMap(AffineProfile(1.0, math.log(2.0)), 2)

# radial profile covering the sphere three times (branch slopes +, -, +)
THREE_BRANCH = PiecewiseLinearProfile(
    ((-INF, -INF), (-1.0, INF), (1.0, -INF), (INF, INF))
)


def repelling_model(d: int) -> ProductMap:
    """Linear product map, repelling on the window |s| <= 1."""
    return ProductMap(AffineProfile(2.0, 0.0), d)


GALLERY: dict[str, MapSpec] = {
    "power2": Power(2),
    "power3": Power(3),
    "power4": Power(4),
    "power5": Power(5),
    "quad_small": Quadratic(0.1),
    "quad_mid": Quadratic(0.2),
    "quad_complex": Quadratic(0.1 + 0.1j),
    "reciprocal": RationalPair((1,), (0, 1)),
    "dilation": DILATION,
    "repel_d2": repelling_model(2),
    "repel_d3": repelling_model(3),
    "repel_dm1": repelling_model(-1),
    "repel_dm2": repelling_model(-2),
    "repel_d0": repelling_model(0),
    "contracting": ProductMap(AffineProfile(0.5, 0.0), 2),
    "three_branch": ProductMap(THREE_BRANCH, 2),
    "power2_squared": Iterate(Power(2), 2),
}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _interior_count(spec: MapSpec, s_lo: float, s_hi: float) -> int:
    fps = census.fixed_points(spec, 1)
    lat = latitudes(fps.values, fps.north)
    return int(np.count_nonzero((s_lo < lat) & (lat < s_hi)))


def check_counterexample_census() -> tuple[bool, str]:
    """Radius-doubling dilation: two periodic points at every order, no rate."""
    t0 = time.perf_counter()
    report = census.growth_report(DILATION, 8)
    counts = [row.count for row in report.rows]
    elapsed = time.perf_counter() - t0
    ok = counts == [2.0] * 8 and not report.has_rate_numerically and elapsed < 1.0
    return ok, f"counts={[int(c) for c in counts]} has_rate={report.has_rate_numerically} t={elapsed:.2f}s"


def check_power_rate() -> tuple[bool, str]:
    """Squaring map: 2^n + 1 fixed points of the n-th iterate, rate ~ ln 2."""
    t0 = time.perf_counter()
    report = census.growth_report(Power(2), 8)
    counts = [int(row.count) for row in report.rows]
    expected = [2 ** n + 1 for n in range(1, 9)]
    final_rate = report.rows[-1].rate
    elapsed = time.perf_counter() - t0
    ok = (
        counts == expected
        and final_rate is not None
        and final_rate >= math.log(2) - 0.05
        and report.has_rate_numerically
        and elapsed < 5.0
    )
    return ok, f"counts={counts} final_rate={final_rate:.4f} t={elapsed:.2f}s"


def check_theorem3_bound() -> tuple[bool, str]:
    """Repelling linear models: exactly |d-1| fixed points in the annulus."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for d in (2, 3, -1, -2):
        spec = repelling_model(d)
        comps = annuli.decompose(spec)
        comp = comps[0]
        if not comp.repelling:
            ok = False
            details.append(f"d={d}: not repelling")
            continue
        bound = annuli.theorem3_bound(comp)
        inside = _interior_count(spec, -1.0, 1.0)
        ok = ok and bound == abs(d - 1) and inside == bound
        details.append(f"d={d}: bound={bound} found={inside}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    return ok, "; ".join(details) + f" t={elapsed:.2f}s"


def check_rectangle_certificates() -> tuple[bool, str]:
    """The four canonical linear models produce their certified indices."""
    unit = Rect(-1.0, 1.0, -1.0, 1.0)
    cases = [
        (lambda z: 2 * z, RectCertificate.EXPANDING),
        (lambda z: 0.5 * z, RectCertificate.CONTRACTING),
        (lambda z: complex(0.5 * z.real, 2 * z.imag), RectCertificate.SADDLE_H),
        (lambda z: complex(2 * z.real, 0.5 * z.imag), RectCertificate.SADDLE_V),
    ]
    got = [lefschetz.rectangle_certificate(fn, unit) for fn, _ in cases]
    ok = got == [want for _, want in cases]
    return ok, " ".join(f"{c.value}:{c.certified_index}" for c in got)


def check_strip_indices() -> tuple[bool, str]:
    """Lift indices +1 / -1 / -1 for degrees 2 / -1 / 0, each with a fixed
    point projecting onto a fixed point downstairs."""
    details = []
    ok = True
    for d, want in ((2, 1), (-1, -1), (0, -1)):
        spec = repelling_model(d)
        comp = annuli.decompose(spec)[0]
        (fp,) = strip_lift.nielsen_fixed_points(spec, comp, offsets=(0,))
        ok = ok and fp.index == want and fp.residual < 1e-10
        details.append(f"d={d}: index={fp.index} m={fp.m_used} residual={fp.residual:.1e}")
    return ok, "; ".join(details)


def check_cactus_identities() -> tuple[bool, str]:
    """Three-component product map: degrees sum to the declared degree and
    |delta_i| = |d_i| componentwise."""
    spec = GALLERY["three_branch"]
    comps = annuli.decompose(spec)
    report = degree_mod.cactus_check(spec, comps)
    pairs = [(r.sphere_degree, r.annular_degree) for r in report.rows]
    ok = report.passed and len(comps) == 3
    return ok, f"(d_i, delta_i)={pairs} sum={report.degree_sum} declared={report.declared}"


def check_hypothesis_discrimination() -> tuple[bool, str]:
    """Loop hypothesis passes for powers 2..5, fails with an essential-image
    witness for the three quadratic parameters."""
    details = []
    ok = True
    for d in range(2, 6):
        rep = annuli.check_hypothesis_h(Power(d))
        ok = ok and rep.passed
        details.append(f"power{d}:{'pass' if rep.passed else 'FAIL'}")
    for c in (0.1, 0.2, 0.1 + 0.1j):
        rep = annuli.check_hypothesis_h(Quadratic(c))
        good = (not rep.passed) and rep.witness_image_winding not in (None, 0)
        ok = ok and good
        details.append(f"quad(c={c}):winding={rep.witness_image_winding}")
    return ok, " ".join(details)


def check_property_suites() -> tuple[bool, str]:
    """Randomized property sweeps: winding additivity and stability,
    certified rectangles force fixed points, degree independent of the
    regular value."""
    rng = np.random.default_rng(0)
    violations = []

    for trial in range(100):
        base = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        loop_a = _random_loop(rng, base)
        loop_b = _random_loop(rng, base)
        both = concatenate(loop_a, loop_b)
        p = _query_point(rng, both)
        wa = winding_number(loop_a, p)
        wb = winding_number(loop_b, p)
        if winding_number(both, p) != wa + wb:
            violations.append(f"additivity trial {trial}")

    for trial in range(100):
        curve = _random_loop(rng, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        p = _query_point(rng, curve)
        dist = float(np.abs(curve.points - p).min())
        w0 = winding_number(curve, p)
        jitter = [
            z + 0.007 * dist * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for z in curve.points.tolist()
        ]
        if winding_number(SampledCurve(jitter), p) != w0:
            violations.append(f"stability trial {trial}")

    fixed_failures = 0
    for trial in range(50):
        a = rng.choice([-1, 1]) * rng.uniform(1.3, 3.0)
        b = rng.choice([-1, 1]) * rng.uniform(1.3, 3.0)
        if rng.uniform() < 0.5:
            a = 1.0 / a
        if rng.uniform() < 0.5:
            b = 1.0 / b
        shift = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fn = lambda z, a=a, b=b, shift=shift: complex(
            a * z.real + shift.real, b * z.imag + shift.imag
        )
        star = complex(shift.real / (1 - a), shift.imag / (1 - b))
        half = rng.uniform(0.8, 1.6)
        rect = Rect(star.real - half, star.real + half, star.imag - half, star.imag + half)
        cert = lefschetz.rectangle_certificate(fn, rect)
        if cert is RectCertificate.NO_CERTIFICATE:
            violations.append(f"rectangle trial {trial}: no certificate")
            continue
        found = lefschetz.fixed_point_in(fn, rect)
        if found is None or abs(found - star) > 1e-6 or not rect.contains(found):
            fixed_failures += 1
    if fixed_failures:
        violations.append(f"{fixed_failures} certified rectangles without fixed point")

    for name, spec in GALLERY.items():
        if spec.declared_degree == 0:
            continue
        r1 = degree_mod.global_degree(spec, seed=11)
        r2 = degree_mod.global_degree(spec, seed=12)
        if r1.total != r2.total or r1.total != spec.declared_degree:
            violations.append(f"degree mismatch on {name}")

    return (not violations), (violations[0] if violations else "no violations")


def _random_loop(rng, base: complex) -> SampledCurve:
    n = int(rng.integers(12, 24))
    center = base + complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    radius = rng.uniform(0.4, 1.2)
    wobble = rng.uniform(0.0, 0.25)
    pts = [base]
    for i in range(1, n):
        ang = 2 * math.pi * i / n
        r = radius * (1 + wobble * math.sin(3 * ang + float(rng.uniform(0, 6))))
        pts.append(center + r * complex(math.cos(ang), math.sin(ang)))
    return SampledCurve(pts)


def _query_point(rng, curve) -> complex:
    for _ in range(100):
        p = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if np.abs(curve.points - p).min() > 0.05:
            return p
    raise RuntimeError("could not place a query point")


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("counterexample census", check_counterexample_census),
    ("squaring-map rate", check_power_rate),
    ("repelling lower bound", check_theorem3_bound),
    ("rectangle certificates", check_rectangle_certificates),
    ("strip-lift indices", check_strip_indices),
    ("cactus identities", check_cactus_identities),
    ("hypothesis discrimination", check_hypothesis_discrimination),
    ("property suites", check_property_suites),
]


def run_acceptance() -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(name, ok, detail, time.perf_counter() - t0))
    return results

"""Command-line front-end.

Subcommands: census, degree, index, annuli, strip-index, check-h, gallery.
Structured reports are JSON (CSV for the census table); identical
invocations produce byte-identical output.  Exit codes: 0 success, 1
analysis failure, 2 parse/usage error (a usage error, a map spec, an
--n-max below 1, a --value past the chart cap, a missing, malformed or
non-finite curve fixture, or one with a row past the chart cap); errors go
to stderr as JSON.  The parser is built once per process.
"""
from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from pathlib import Path

from . import annuli, census, degree as degree_mod, gallery, strip_lift
from .charts import (CHART_OVERFLOW, Chart, ParseError, SpherePoint, anchor_poles,
                     format_map, parse_map)
from .lefschetz import lefschetz_index
from .winding import dump_curve_csv, load_curve_csv


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _json_out(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _fail(exc: Exception, code: int = 1) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


def _point_json(p) -> dict:
    z = p.normalized()
    return {
        "chart": z.chart.value,
        "re": _round12(z.value.real),
        "im": _round12(z.value.imag),
    }


def _lat_json(s: float):
    if s == math.inf:
        return "inf"
    if s == -math.inf:
        return "-inf"
    return _round12(s)


def cmd_census(args) -> int:
    spec = parse_map(args.map)
    if args.n_max < 1:
        raise ParseError(f"--n-max {args.n_max} is not a positive order")
    text = census.census_csv(spec, args.n_max)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_value(text: str) -> complex:
    """A finite north-chart value re,im of modulus at most ``CHART_OVERFLOW``."""
    try:
        re_s, im_s = text.split(",")
        value = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ParseError(f"value {text!r} is not re,im") from exc
    if not cmath.isfinite(value):
        raise ParseError(f"value {text!r} is not finite")
    if abs(value) > CHART_OVERFLOW:
        raise ParseError(f"value {text!r} is past the chart cap |z| <= {CHART_OVERFLOW:g}")
    return value


def cmd_degree(args) -> int:
    spec = parse_map(args.map)
    y = None
    if args.value:
        y = SpherePoint(_parse_value(args.value), Chart.NORTH)
    report = degree_mod.global_degree(spec, y=y)
    _json_out({
        "global": report.total,
        "map": format_map(spec),
        "regular_value": _point_json(report.regular_value),
        "witnesses": [
            {"point": _point_json(p), "local_degree": d}
            for p, d in report.witnesses
        ],
    })
    return 0


def cmd_index(args) -> int:
    spec = parse_map(args.map)
    try:
        curve = load_curve_csv(Path(args.curve).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"curve {args.curve!r}: {exc}") from exc
    for z in curve.points.tolist():
        if abs(z) > CHART_OVERFLOW:
            raise ParseError(f"curve {args.curve!r}: row {z.real:.12g},{z.imag:.12g} "
                             f"is past the chart cap |z| <= {CHART_OVERFLOW:g}")
    idx = lefschetz_index(spec, curve)
    _json_out({"index": idx, "map": format_map(spec), "samples": len(curve.points)})
    return 0


def cmd_annuli(args) -> int:
    spec = parse_map(args.map)
    comps = annuli.decompose(spec)
    rows = []
    for c in comps:
        rows.append({
            "lower_s": _lat_json(c.s_lo),
            "upper_s": _lat_json(c.s_hi),
            "delta": c.delta,
            "d_i": c.d_i,
            "repelling": c.repelling,
            "theorem3_bound": annuli.theorem3_bound(c) if c.repelling else None,
        })
    _json_out(rows)
    return 0


def cmd_strip_index(args) -> int:
    spec = parse_map(args.map)
    comps = [c for c in annuli.decompose(spec) if c.repelling]
    if not comps:
        raise annuli.NotRepelling("no repelling component")
    for comp in comps:
        offsets = [args.lift] if args.lift is not None else None
        for fp in strip_lift.nielsen_fixed_points(spec, comp, offsets=offsets):
            _json_out({
                "d": comp.delta,
                "k": fp.lift_offset,
                "m_used": fp.m_used,
                "index": fp.index,
                "fixed_point_projection": _point_json(fp.sphere_point),
            })
    return 0


def cmd_check_h(args) -> int:
    spec = parse_map(args.map)
    try:
        anchor_poles(spec)
    except ValueError as exc:  # a quadratic without an attracting finite fixed point
        _json_out({"status": "scope_unavailable", "detail": str(exc)})
        return 1
    report = annuli.check_hypothesis_h(spec)
    if report.passed:
        _json_out({"status": "pass", "probes": report.probes})
        return 0
    _json_out({
        "status": "fail",
        "witness_image_winding": report.witness_image_winding,
        "witness": [[_round12(z.real), _round12(z.imag)] for z in report.witness.points.tolist()],
    })
    if args.witness_out:
        Path(args.witness_out).write_text(dump_curve_csv(report.witness))
    return 1


def cmd_gallery(args) -> int:
    results = gallery.run_acceptance()
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{mark} {r.name}: {r.detail} ({r.seconds:.2f}s)")
    return 0 if all(r.ok for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ParseError``, which ``main`` prints as JSON."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphere-census",
        description="Fixed-point counting machinery for closed-form sphere maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="growth report CSV")
    p.add_argument("--map", required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("degree", help="global degree report")
    p.add_argument("--map", required=True)
    p.add_argument("--value", help="regular value as re,im in the north chart")
    p.set_defaults(fn=cmd_degree)

    p = sub.add_parser("index", help="Lefschetz index along a curve fixture")
    p.add_argument("--map", required=True)
    p.add_argument("--curve", required=True)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("annuli", help="annulus decomposition JSON")
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_annuli)

    p = sub.add_parser("strip-index", help="per-lift strip indices")
    p.add_argument("--map", required=True)
    p.add_argument("--lift", type=int)
    p.set_defaults(fn=cmd_strip_index)

    p = sub.add_parser("check-h", help="loop hypothesis probe")
    p.add_argument("--map", required=True)
    p.add_argument("--witness-out")
    p.set_defaults(fn=cmd_check_h)

    p = sub.add_parser("gallery", help="run the acceptance checks")
    p.set_defaults(fn=cmd_gallery)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        return _fail(exc, code=2)
    except Exception as exc:
        return _fail(exc, code=1)


if __name__ == "__main__":
    sys.exit(main())

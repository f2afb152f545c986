"""Closed-form expected outputs for every benchmark query.

Nothing here imports the program: each expectation comes from the map's
drawn parameters.  An operation is one census row or one non-census query;
``check`` returns one ``Op`` per operation, failed or not.

- census row n: the distinct fixed points of f^n number ``D^n + 1`` for a
  degree-D rational map with no parabolic cycle (Milnor, *Dynamics in One
  Complex Variable*), so ``|d|^n + 1`` for ``power:d``, ``2^n + 1`` for
  hyperbolic quadratics and ``3^n + 1`` for the degree-3 rational map; a
  product map ``affine(a,b);d=k`` with a != 1, k != 1 has one radial fixed
  circle carrying ``|k^n - 1|`` points, plus both poles.
- ``degree``: the global degree equals the declared one.
- ``check-h``: the loop hypothesis holds for power and product maps (exit 0,
  ``pass``) and fails for quadratics and the rational map (exit 1, ``fail``).
- ``strip-index``: ``|k - 1|`` lifts, index +1 for k >= 2 and -1 for k <= 0,
  pairwise distinct projections, each a fixed point of the closed-form map.
- ``annuli``: the components between consecutive pole preimages, with
  angular degree k and ``d_i = k * sign(radial slope)``.
- ``index``: zeros minus poles of ``z^d - z`` inside the fixture circle.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from workloads import Map, Query, power_fixed_data

CENSUS_HEADER = "n,count,rate,bound_dn,theorem3_sum"
FIXED_RESIDUAL = 1e-8     # projections print 12 significant digits
DISTINCT_RADIUS = 1e-6


@dataclass(frozen=True)
class Op:
    query: str
    n: int | None
    ok: bool
    expected: str
    got: str


def census_count(m: Map, n: int) -> int:
    if m.family == "power":
        return abs(m.params["d"]) ** n + 1
    if m.family == "product":
        return abs(m.params["k"] ** n - 1) + 2
    if m.family == "quad":
        return 2 ** n + 1
    if m.family == "rational":
        return 3 ** n + 1
    raise ValueError(f"no census oracle for {m.family}")


def declared_degree(m: Map) -> int:
    if m.family == "power":
        return abs(m.params["d"])
    if m.family == "product":
        return m.params["k"]          # a > 0: the radial map keeps orientation
    if m.family == "quad":
        return 2
    if m.family == "rational":
        return max(len(m.params["p"]), len(m.params["q"])) - 1
    raise ValueError(f"no degree oracle for {m.family}")


def _exit_note(rc: int, stderr: str) -> str:
    try:
        return f"exit {rc} {json.loads(stderr)['error']}"
    except (ValueError, KeyError, TypeError):
        return f"exit {rc}"


def check(q: Query, rc: int, stdout: str, stderr: str) -> list[Op]:
    if q.kind == "census":
        return _check_census(q, rc, stdout, stderr)
    expect, observe = _CHECKS[q.kind]
    expected = expect(q)
    try:
        got = observe(q, rc, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        got = _exit_note(rc, stderr) if rc else f"unparseable output ({exc!r})"
    return [Op(q.label, None, expected == got, expected, got)]


def _check_census(q: Query, rc: int, stdout: str, stderr: str) -> list[Op]:
    lines = stdout.splitlines()
    rows: dict[int, list[str]] = {}
    if rc == 0 and lines and lines[0] == CENSUS_HEADER:
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) == 5 and cells[0].isdigit():
                rows[int(cells[0])] = cells
    missing = _exit_note(rc, stderr) if rc != 0 else "row missing"
    ops = []
    deg = declared_degree(q.map)
    for n in range(1, q.n_max + 1):
        want = census_count(q.map, n)
        expected = f"count {want}, bound_dn {deg ** n}, rate {math.log(want) / n:.12g}"
        cells = rows.get(n)
        got = missing if cells is None else (
            f"count {cells[1]}, bound_dn {cells[3]}, rate {cells[2]}")
        ops.append(Op(q.label, n, expected == got, expected, got))
    return ops


def _expect_degree(q: Query) -> str:
    return f"exit 0, global {declared_degree(q.map)}"


def _observe_degree(q: Query, rc: int, stdout: str) -> str:
    return f"exit {rc}, global {json.loads(stdout)['global']}"


def _expect_h(q: Query) -> str:
    holds = q.map.family in ("power", "product")
    return "exit 0, status pass" if holds else "exit 1, status fail"


def _observe_h(q: Query, rc: int, stdout: str) -> str:
    return f"exit {rc}, status {json.loads(stdout)['status']}"


def _sphere_xyz(s: float, theta: float) -> tuple[float, float, float]:
    """Unit-sphere point at log-latitude s: height tanh(s), radius sech(s)."""
    if math.isinf(s):
        return (0.0, 0.0, math.copysign(1.0, s))
    r = 1.0 / math.cosh(s)
    return (r * math.cos(theta), r * math.sin(theta), math.tanh(s))


def _chordal(p, q) -> float:
    return math.dist(_sphere_xyz(*p), _sphere_xyz(*q))


def _latlon(point: dict) -> tuple[float, float]:
    z = complex(point["re"], point["im"])
    if z == 0:
        return (-math.inf if point["chart"] == "north" else math.inf, 0.0)
    s, theta = math.log(abs(z)), math.atan2(z.imag, z.real)
    return (s, theta) if point["chart"] == "north" else (-s, -theta)


def _expect_strip(q: Query) -> str:
    k = q.map.params["k"]
    return (f"exit 0, {abs(k - 1)} lifts, d {k}, index {1 if k >= 2 else -1}, "
            "distinct fixed projections")


def _one(values):
    values = sorted(set(values))
    return values[0] if len(values) == 1 else values


def _observe_strip(q: Query, rc: int, stdout: str) -> str:
    a, b, k = (q.map.params[key] for key in ("a", "b", "k"))
    rows = [json.loads(line) for line in stdout.splitlines()]
    pts = [_latlon(r["fixed_point_projection"]) for r in rows]
    fixed = all(_chordal(p, (a * p[0] + b, k * p[1])) < FIXED_RESIDUAL for p in pts)
    distinct = all(_chordal(p, o) > DISTINCT_RADIUS
                   for i, p in enumerate(pts) for o in pts[:i])
    offsets = "" if [r["k"] for r in rows] == list(range(len(rows))) else " (offsets)"
    return (f"exit {rc}, {len(rows)} lifts{offsets}, d {_one(r['d'] for r in rows)}, "
            f"index {_one(r['index'] for r in rows)}, "
            f"{'distinct' if distinct else 'repeated'} "
            f"{'fixed' if fixed else 'non-fixed'} projections")


def _expected_components(m: Map) -> list[dict]:
    k = m.params["k"]
    if m.family == "product":
        bounds, slopes = ((-math.inf, math.inf),), (1 if m.params["a"] > 0 else -1,)
    else:
        nodes = (-math.inf, *m.params["nodes"], math.inf)
        bounds, slopes = tuple(zip(nodes, nodes[1:])), m.params["slopes"]
    return [{"lower_s": lo, "upper_s": hi, "delta": k, "d_i": k * sgn}
            for (lo, hi), sgn in zip(bounds, slopes)]


def _lat(v) -> float:
    return {"inf": math.inf, "-inf": -math.inf}.get(v, v)


def _expect_annuli(q: Query) -> str:
    return f"exit 0, components {_expected_components(q.map)}, bounds consistent"


def _observe_annuli(q: Query, rc: int, stdout: str) -> str:
    comps = json.loads(stdout)
    got = [{"lower_s": _lat(c["lower_s"]), "upper_s": _lat(c["upper_s"]),
            "delta": c["delta"], "d_i": c["d_i"]} for c in comps]
    # theorem3_bound is |delta - 1| exactly on the repelling components, and
    # the affine product models are repelling
    consistent = all(
        c["theorem3_bound"] == (abs(c["delta"] - 1) if c["repelling"] else None)
        for c in comps
    ) and (q.map.family != "product" or all(c["repelling"] for c in comps))
    return (f"exit {rc}, components {got}, "
            f"bounds {'consistent' if consistent else 'inconsistent'}")


def index_oracle(m: Map) -> int:
    center, radius = m.params["center"], m.params["radius"]
    zeros, pole_order = power_fixed_data(m.params["d"])
    inside = sum(1 for z in zeros if abs(z - center) < radius)
    return inside - (pole_order if abs(center) < radius else 0)


def _fixture_samples(q: Query) -> int:
    return len(q.files[0][1].splitlines()) - 1


def _expect_index(q: Query) -> str:
    return f"exit 0, index {index_oracle(q.map)}, samples {_fixture_samples(q)}"


def _observe_index(q: Query, rc: int, stdout: str) -> str:
    report = json.loads(stdout)
    return f"exit {rc}, index {report['index']}, samples {report['samples']}"


_CHECKS = {
    "degree": (_expect_degree, _observe_degree),
    "check-h": (_expect_h, _observe_h),
    "strip-index": (_expect_strip, _observe_strip),
    "annuli": (_expect_annuli, _observe_annuli),
    "index": (_expect_index, _observe_index),
}

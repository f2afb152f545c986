"""Seeded workload generator.

Every workload is a list of CLI queries built from one ``random.Random``
seeded by ``--seed``; the program only ever sees the map specs and curve
fixtures these functions produce.  All map families of one seed are drawn
together by ``draw_maps``, so the certify workload probes the very maps the
census workloads count.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("census", "certify")

CENSUS_NMAX = 8
# both power signs run on every seed (d = -2 costs a quarter more than
# d = 2), so a lower order keeps the pass short
POWER_NMAX = 7
RATIONAL_NMAX = 5
PRODUCT_DEGREE_CAP = 128          # |k|^n_max stays at or below this
# The CLI refuses a core-circle image outside |z| in (1e-6, 1e6), that is
# |s| > ln(1e6) = 13.8.  For q(s) = a*s + b the core s = 0 lands at
# b * (a^n - 1) / (a - 1) under q^n; an off-centre map puts it at
# OFFCENTRE_EXIT[0..1] at order n_max, which for every a in [1.5, 3] first
# leaves the window at n_max itself, so each pass pays the same share of the
# ImageHitsPole crash whatever the seed.
OFFCENTRE_EXIT = (15.0, 20.0)
THREE_BRANCH_NODES = (-1.0, 1.0)
CIRCLE_SAMPLES = 256
CIRCLE_MARGIN = 0.15              # no fixed point or pole this close to the fixture
# one repelling model per lift count |k - 1| = 4, 3, 2, 1, so every certify
# pass certifies the same number of lifts whatever the seed.  The quadtree
# of a d = -3 model, the slowest certify query, costs anywhere from 0.36 to
# 0.50 s depending on a and b; three draws make the slowest of them steady.
CERTIFY_K_STRATA = ((-3,), (-3,), (-3,), (-2, 4), (-1, 3), (0, 2))


@dataclass(frozen=True)
class Map:
    """One drawn map: its CLI spec plus the parameters the oracle needs."""

    family: str       # power | product | quad | rational | three_branch
    spec: str
    params: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Query:
    """One CLI invocation; ``files`` are fixtures written before it runs."""

    kind: str         # CLI subcommand
    map: Map
    argv: tuple[str, ...]
    n_max: int = 0
    files: tuple[tuple[str, str], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.kind} {self.map.spec}"


def _num(x: float) -> str:
    x = round(x, 4)
    return "0" if x == 0 else f"{x:.4f}".rstrip("0").rstrip(".")


def power_map(d: int) -> Map:
    return Map("power", f"power:d={d}", {"d": d})


def product_map(a: float, b: float, k: int) -> Map:
    a, b = float(_num(a)), float(_num(b))
    return Map("product", f"product:q=affine({_num(a)},{_num(b)});d={k}",
               {"a": a, "b": b, "k": k})


def quad_map(c: complex) -> Map:
    c = complex(round(c.real, 6), round(c.imag, 6))
    return Map("quad", f"quad:c={c.real:.6f}{c.imag:+.6f}i", {"c": c})


RATIONAL = Map("rational", "rational:P=0,2,0,1;Q=1,0,3",
               {"p": (0, 2, 0, 1), "q": (1, 0, 3)})
THREE_BRANCH = Map(
    "three_branch",
    "product:q=pwl(-inf:-inf,{}:inf,{}:-inf,inf:inf);d=2".format(
        *(_num(s) for s in THREE_BRANCH_NODES)),
    {"nodes": THREE_BRANCH_NODES, "k": 2, "slopes": (1, -1, 1)},
)


def product_nmax(k: int) -> int:
    n = 1
    while abs(k) ** (n + 1) <= PRODUCT_DEGREE_CAP:
        n += 1
    return n


def draw_maps(seed: int) -> dict[str, Map]:
    """All map families of one seed; the draw order is fixed."""
    rng = random.Random(seed)
    sign = (1, -1)
    maps = {"power": power_map(2 * rng.choice(sign))}
    # one centred map with |k| = 3 and one off-centre map with |k| = 2
    maps["product"] = product_map(rng.uniform(1.5, 3.0), 0.0, 3 * rng.choice(sign))
    k, a = 2 * rng.choice(sign), rng.uniform(1.5, 3.0)
    exit_s = rng.uniform(*OFFCENTRE_EXIT) * rng.choice(sign)
    maps["offcentre"] = product_map(a, exit_s * (a - 1) / (a ** product_nmax(k) - 1), k)
    mu = rng.uniform(0.2, 0.8) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    maps["cardioid"] = quad_map(mu / 2 * (1 - mu / 2))
    rho = rng.uniform(0.02, 0.2) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    maps["period2"] = quad_map(-1 + rho)
    maps["rational"] = RATIONAL
    for i, stratum in enumerate(CERTIFY_K_STRATA):
        maps[f"model{i}"] = product_map(
            rng.uniform(1.5, 3.0), rng.uniform(-0.3, 0.3), rng.choice(stratum))
    maps["circle"] = _circle_params(rng, maps["power"].params["d"])
    return maps


def power_fixed_data(d: int) -> tuple[list[complex], int]:
    """Finite zeros of z^d - z, plus the order of its pole at 0 (d < 0)."""
    roots = [cmath.exp(2j * math.pi * j / abs(d - 1)) for j in range(abs(d - 1))]
    if d >= 2:
        return roots + [0j], 0
    return roots, -d


def _circle_params(rng: random.Random, d: int) -> Map:
    zeros, pole_order = power_fixed_data(d)
    marks = zeros + ([0j] if pole_order else [])
    while True:
        center = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        radius = rng.uniform(0.3, 1.5)
        if all(abs(abs(z - center) - radius) > CIRCLE_MARGIN for z in marks):
            break
    center = complex(round(center.real, 4), round(center.imag, 4))
    radius = round(radius, 4)
    return Map("power", f"power:d={d}",
               {"d": d, "center": center, "radius": radius})


def circle_csv(center: complex, radius: float, samples: int = CIRCLE_SAMPLES) -> str:
    lines = ["# chart=north"]
    for j in range(samples):
        z = center + radius * cmath.exp(2j * math.pi * j / samples)
        lines.append(f"{z.real:.12g},{z.imag:.12g}")
    return "\n".join(lines) + "\n"


def _census(m: Map, n_max: int) -> Query:
    return Query("census", m, ("census", "--map", m.spec, "--n-max", str(n_max)),
                 n_max=n_max)


def _simple(kind: str, m: Map) -> Query:
    return Query(kind, m, (kind, "--map", m.spec))


def build(workload: str, seed: int, workdir: str) -> list[Query]:
    """The queries of one pass; ``workdir`` holds generated fixtures."""
    maps = draw_maps(seed)
    if workload == "census":
        # maps that pass the loop hypothesis, so the crosscheck decomposes
        # every iterate, then maps that fail it, so nearly all the time is
        # the fixed-point solve
        return [_census(power_map(d), POWER_NMAX) for d in (2, -2)] + [
            _census(m, product_nmax(m.params["k"]))
            for m in (maps["product"], maps["offcentre"])] + [
            _census(maps["cardioid"], CENSUS_NMAX),
            _census(maps["period2"], CENSUS_NMAX),
            _census(maps["rational"], RATIONAL_NMAX)]
    if workload == "certify":
        out = []
        for i in range(len(CERTIFY_K_STRATA)):
            m = maps[f"model{i}"]
            out += [_simple("strip-index", m), _simple("annuli", m)]
            if m.params["k"] != 0:
                out.append(_simple("degree", m))
        for name in ("power", "product", "offcentre", "cardioid", "period2",
                     "rational"):
            out += [_simple("check-h", maps[name]), _simple("degree", maps[name])]
        out.append(_simple("annuli", THREE_BRANCH))
        circ = maps["circle"]
        path = f"{workdir}/circle.csv"
        csv = circle_csv(circ.params["center"], circ.params["radius"])
        out.append(Query("index", circ, ("index", "--map", circ.spec, "--curve", path),
                         files=((path, csv),)))
        return out
    raise ValueError(f"unknown workload {workload!r}")

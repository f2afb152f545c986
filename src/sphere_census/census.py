"""Fixed points of iterates, growth-rate estimates, and the inequality
cross-checks tying the annulus machinery to the periodic-point counts.

Counts are of distinct fixed points (no multiplicity).  A map with a product
view (powers, z^2, the monomials c*z^k, product maps, and their iterates) is
solved from it, any other quadratic or rational map by Aberth-Ehrlich on
f^n(z) - z through the n-fold recursion of the base map, one elementwise
homogeneous Horner pass per level, for every order of a census at once, in
a fixed unitary frame (a constant: a census draws no random numbers).  The
multiplier of f^n is computed only where two approximations merge.
On either route every point must pass the residual filter; a failure raises
``CensusIncomplete`` where it is found, never a short count: a batch of
orders is checked in ascending order and raises the error of the first that
fails, as a solve of that order alone would.  A fixed-point set is carried
from start to end as the (values, north) arrays of ``evaluate_many``: the
residual walk, the pole filter, the sort by (latitude, angle) and the dedup
all work on them, through ``chordal_many`` and ``dedup_many``, and
``FixedPointSet.points`` builds ``SpherePoint``s only for a caller that
reads them.
"""
from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import annuli, degree as degree_mod
from .charts import (  # DEGREE_CAP and DegreeCapExceeded are census API too
    Chart,
    DEGREE_CAP,
    DegreeCapExceeded,
    Iterate,
    LEVEL_S_CAP,
    MapSpec,
    N_POLE,
    S_POLE,
    SpherePoint,
    _Iterated,
    _angles,
    _companion_roots,
    _shifted,
    anchor_poles,
    as_product_view,
    as_rational,
    check_degree_cap,
    chordal,
    chordal_many,
    dedup_many,
    evaluate,
    evaluate_many,
    format_map,
    from_latlon,
    from_latlon_many,
    from_pairs,
    is_identity_profile,
    iterate_base,
    latitudes,
    solve_profile_level,
    sphere_points,
    wrap_angle,
)

INF = math.inf

DEDUP_RADIUS = 1e-6
RESIDUAL_CAP = 1e-10
RATE_TOL = 0.05

# Aberth-Ehrlich: a root is converged once its correction is below ABERTH_TOL
# relative to 1 + |w|, or once the correction stops shrinking below
# ABERTH_STALL (rounding noise at a multiple root); pairwise sums are formed
# PAIR_BLOCK differences at a time.
ABERTH_MAX_ITERS = 500
ABERTH_TOL = 1e-13
ABERTH_STALL = 1e-6
PAIR_BLOCK = 1 << 14
# approximations within DEDUP_RADIUS of one another count as one fixed point
# only where f^n has multiplier within MULTIPLE_TOL of 1 (a multiple root)
MULTIPLE_TOL = 1e-3
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class CensusError(Exception):
    pass


class CensusIncomplete(CensusError):
    """A fixed point fails the residual filter, or the D^n + 1
    approximations of the fixed points of a rational iterate did not all
    converge or merge only at multiple fixed points; no count is given."""


@dataclass(frozen=True, eq=False)
class FixedPointSet:
    """Distinct fixed points of one iterate, sorted by (latitude, angle), as
    the arrays ``evaluate_many`` takes: chart coordinates ``values``, and
    ``north`` True where a coordinate is in the north chart.  Circles of
    fixed points are flagged as continua rather than counted.  ``points``
    builds the ``SpherePoint``s only when it is first read."""

    values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex))
    north: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    continuum_latitudes: tuple[float, ...] = ()

    @cached_property
    def points(self) -> tuple[SpherePoint, ...]:
        return sphere_points(self.values, self.north)

    @property
    def is_continuum(self) -> bool:
        return bool(self.continuum_latitudes)

    @property
    def count(self) -> float:
        return INF if self.is_continuum else float(self.values.size)


# The fixed-point sets of the ``census_csv`` call in progress, keyed by
# (spec, n); None outside it, so no set outlives the census that solved it.
_SOLVED: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "census_solved", default=None)


def fixed_points(spec: MapSpec, n: int = 1) -> FixedPointSet:
    """All distinct solutions of f^n(p) = p, poles included.

    A map with a product view is solved from that view, any other quadratic
    or rational map by Aberth-Ehrlich.  Raises ``CensusIncomplete`` rather
    than return a point that fails the residual filter, or fewer fixed
    points of a rational iterate than the multiplicity sum certifies.
    Inside ``census_csv`` every order was solved before either report, and
    its set is read from that table.
    """
    solved = _SOLVED.get()
    if solved is None or (spec, n) not in solved:
        return _solve(spec, n, n)[n]
    return solved[spec, n]


def _solve(spec: MapSpec, first: int, last: int) -> dict:
    """Keyed by n: the fixed points of f^n for every n in first..last, each
    order from its product view in turn, or all by Aberth-Ehrlich in one
    batch.  The degree cap is checked at ``last``, and the lowest order that
    fails raises its error."""
    if first < 1:
        raise ValueError("iterate order must be >= 1")
    check_degree_cap(spec, last)
    base, order = iterate_base(spec)
    if as_product_view(base) is not None:
        iterates = {order * n: base if order * n == 1 else Iterate(base, order * n)
                    for n in range(first, last + 1)}
        found, error = {}, None
        for k, iterate in iterates.items():
            try:
                found[k] = _product_fixed_points(iterate)
            except Exception as exc:  # raised once the orders below it pass
                error = exc
                break
        failed = _residual_failures(base, {k: (fps.values, fps.north) for k, fps in found.items()})
        for k, fps in found.items():
            _check_residuals(iterates[k], failed[k], fps.values.size)
        if error is not None:
            raise error
        return {k // order: fps for k, fps in found.items()}
    orders = [order * n for n in range(first, last + 1)]
    try:
        found = _rational_fixed_points(base, orders)
    except CensusError:
        raise
    except Exception:  # solved one at a time, so each order raises as it would alone
        if len(orders) == 1:
            raise
        found = {n: _rational_fixed_points(base, [n])[n] for n in orders}
    return {n: found[order * n] for n in range(first, last + 1)}


def _residual_failures(base: MapSpec, points: dict) -> dict:
    """For each order n, how many of the points (values, north) = points[n]
    f^n fails to send within ``RESIDUAL_CAP`` of itself.

    One walk through ``evaluate_many(base, ...)`` takes the points of every
    order, each leaving at its own order, so each image has the bits that
    ``evaluate_many`` of f^n gives it.
    """
    if not points:
        return {}
    orders = sorted(points)
    images, image_north = (np.concatenate([points[n][i] for n in orders]) for i in (0, 1))
    failed, level = {}, 0
    for n in orders:
        for _ in range(level, n):
            images, image_north = evaluate_many(base, images, image_north)
        level, k = n, points[n][0].size
        failed[n] = int(np.count_nonzero(
            ~(chordal_many(images[:k], image_north[:k], *points[n]) < RESIDUAL_CAP)))
        images, image_north = images[k:], image_north[k:]
    return failed


def _check_residuals(spec: MapSpec, failed: int, total: int) -> None:
    if failed:
        raise CensusIncomplete(f"{format_map(spec)}: {failed} of {total} "
                               f"fixed points fail the residual filter")


def _rational_fixed_points(base: MapSpec, orders: list[int]) -> dict:
    """Fixed points of f^n for each n in ``orders`` (ascending), f a
    quadratic or rational map, keyed by n.  One orbit of each pole, one
    Aberth run and one residual walk serve every order; the orders are then
    checked in ascending order, and the first left unconverged, failing the
    residual filter or merging raises its ``CensusIncomplete``."""
    coeffs = as_rational(base)
    deg = base.declared_degree
    continua = {}
    if deg == 1:
        # a Moebius iterate other than the identity fixes what f fixes (the
        # eigenvectors of its matrix), and f^n itself may be too expanding
        # for the residual filter
        continua = {n: FixedPointSet(continuum_latitudes=(0.0,))
                    for n in orders if _mobius_identity(coeffs, n)}
    solve = sorted({1 if deg == 1 else n for n in orders if n not in continua})
    poles = {n: [] for n in solve}
    for pole in (S_POLE, N_POLE):
        image = pole
        for n in range(1, max(solve, default=0) + 1):
            image = evaluate(base, image)
            if n in poles and image == pole:
                poles[n].append(pole)
    approx, left = _aberth_fixed_points(coeffs, deg, poles)
    failed = _residual_failures(base, {n: got[:2] for n, got in approx.items()})
    found = {}
    for n in solve:
        iterate, total = base if n == 1 else Iterate(base, n), deg ** n + 1
        if left[n]:
            raise CensusIncomplete(
                f"Aberth iteration for {total - len(poles[n])} fixed points of an "
                f"iterate of order {n} left {left[n]} unconverged after "
                f"{ABERTH_MAX_ITERS} steps")
        _check_residuals(iterate, failed[n], total)
        found[n] = _merged(iterate, *approx[n], poles[n], total)
    return {n: continua[n] if n in continua else found[1 if deg == 1 else n]
            for n in orders}


def _merged(iterate: MapSpec, values, north, roots, poles, total: int) -> FixedPointSet:
    """The fixed points of ``iterate`` from its exact poles and the Aberth
    approximations (values, north), whose w-chart coordinates are ``roots``;
    two approximations may merge only where the multiplier of f^n is within
    MULTIPLE_TOL of 1, or ``CensusIncomplete`` is raised.  The multiplier is
    computed only at the approximations that merge into another."""
    # the exact poles (0 in the chart of each) go first, so that an
    # approximation of a multiple fixed point at a pole merges into the pole;
    # the others by (latitude, angle)
    order = np.lexsort((_angles(values, north), latitudes(values, north)))
    ends = np.array([pole.chart is Chart.NORTH for pole in poles], dtype=bool)
    values = np.concatenate([np.zeros(ends.size, dtype=complex), values[order]])
    north = np.concatenate([ends, north[order]])
    kept = dedup_many(values, north, DEDUP_RADIUS)
    merged = np.ones(values.size, dtype=bool)
    merged[kept] = False
    dropped = roots[order[merged[ends.size:]]]
    simple = 0
    if dropped.size:
        base, n = iterate_base(iterate)
        shift = _multipliers(as_rational(base), base.declared_degree, n, _frame(), dropped) - 1.0
        simple = np.count_nonzero(np.hypot(shift.real, shift.imag) > MULTIPLE_TOL)
    if simple:
        raise CensusIncomplete(
            f"{format_map(iterate)}: {simple} of {total} approximations merge "
            f"into another at a fixed point of multiplier away from 1"
        )
    return _sorted_set(values[kept], north[kept])


def _mobius_identity(coeffs, n: int) -> bool:
    """Whether the n-th iterate of (p1 z + p0)/(q1 z + q0), with rows
    ``coeffs`` = ((p0, p1), (q0, q1)), is the identity, i.e. the n-th power
    of its matrix ((p1, p0), (q1, q0)) is scalar up to rounding."""
    m = coeffs[:, ::-1]
    # a loxodromic power may overflow: not scalar
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.linalg.matrix_power(m / np.sqrt(np.linalg.det(m)), n)
        off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1]))
        return bool(np.isfinite(m).all() and off <= 1e-12 * abs(m).max())


def _aberth_fixed_points(coeffs, deg: int, poles: dict) -> tuple[dict, dict]:
    """Keyed by n, for each order n of ``poles``: the D^n + 1 - len(poles[n])
    fixed points of f^n other than poles[n], f with the rows ``coeffs`` of
    ``as_rational``, as (values, north, roots) with ``roots`` their w-chart
    coordinates, for the orders whose approximations all converged; and the
    number each order left unconverged.  No multiplier is computed here:
    ``_merged`` computes it only where two approximations merge.

    Aberth-Ehrlich on G(w) = y1 - w y2, where (y1 : y2) is f^n at w after a
    fixed unitary change of coordinates U, so no root sits at w = infinity.
    Up to the constant det U, G = det[F^n(x), x] with x = U (w, 1) and F the
    homogeneous form of f; G and G' come from the n-fold recursion of F,
    one homogeneous Horner pass per level with the chain rule, and the
    coefficients of G are never formed.  The exact poles take part in the
    pairwise sums as fixed roots.  Each order is one block of a single
    array, started by ``_starts``, and one ``_aberth`` run serves every
    block.  U is the fixed frame of ``_frame``, so no random draw is made.
    """
    if not poles:
        return {}, {}
    u = _frame()
    # (w : 1) = U^H (z : 1): S = (0 : 1) and N = (1 : 0)
    fixed = {n: np.array([u[1, 0].conjugate() / u[1, 1].conjugate() if pole == S_POLE
                          else u[0, 0].conjugate() / u[0, 1].conjugate() for pole in ps],
                         dtype=complex) for n, ps in poles.items()}
    starts = _starts(coeffs, deg, u, fixed)
    blocks = [(n, deg ** n + 1, deg ** n + 1 - fixed[n].size) for n in sorted(fixed)]
    w = np.concatenate([np.concatenate([starts[n], fixed[n]]) for n, _, _ in blocks])
    left = dict(zip([n for n, _, _ in blocks], _aberth(coeffs, deg, u, w, blocks)))
    found, roots = {}, {}
    lo = 0
    for n, size, m in blocks:
        if not left[n]:
            roots[n] = w[lo:lo + m]
        lo += size
    if roots:
        rows = np.concatenate(list(roots.values()))
        values, north = from_pairs(u[0, 0] * rows + u[0, 1], u[1, 0] * rows + u[1, 1])
        lo = 0
        for n, r in roots.items():
            found[n] = values[lo:lo + r.size], north[lo:lo + r.size], r
            lo += r.size
    return found, left


# The unitary change of coordinates U of the w chart: the Q factor of the QR
# decomposition of the complex Gaussian 2 x 2 matrix drawn by
# np.random.default_rng(2017), frozen to its bits (each repr round-trips), so
# that a census draws nothing and its roots do not move with the LAPACK
# build's rounding.
_FRAME = np.array([
    [-0.5757739511651692 + 0.25766144546910985j, 0.58609526389178 - 0.5085147768964465j],
    [-0.48571970369037964 - 0.6051209020727578j, -0.5204207627671453 - 0.35646499547984245j],
])
_FRAME.flags.writeable = False


def _frame() -> np.ndarray:
    """The fixed unitary change of coordinates U of the w chart, read-only."""
    return _FRAME


def _aberth(coeffs, deg: int, u, w: np.ndarray, blocks) -> list[int]:
    """Aberth-Ehrlich steps on the blocks of w, in place; the number each
    block leaves unconverged.

    ``blocks`` lists (n, size, m) by ascending order n: the next ``size``
    entries of w approximate the fixed points of f^n, of which the first m
    move and the rest are held as fixed roots.  A step reads G'/G of every
    moving entry off one jet, each at its own order, and sums the pairs
    within each block alone, skipping a block with no moving entry, so an
    entry moves as it would in a run of its order by itself.
    """
    bounds = np.cumsum([0] + [size for _, size, _ in blocks])
    active = np.concatenate([np.arange(lo, lo + m) for (_, _, m), lo in zip(blocks, bounds)])
    orders = np.repeat([n for n, _, _ in blocks], [size for _, size, _ in blocks])
    last = np.full(w.size, INF)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ABERTH_MAX_ITERS):
            if active.size == 0:
                break
            cut = np.searchsorted(active, bounds)
            pairs = np.concatenate([
                _pair_sums(w[lo:hi], active[i:j] - lo)
                for lo, hi, i, j in zip(bounds, bounds[1:], cut, cut[1:]) if j > i])
            ratio = _log_derivative(coeffs, deg, orders[active], u, w[active])
            step = 1.0 / (ratio - pairs)
            step[~np.isfinite(step)] = 0.0
            w[active] -= step
            size = np.abs(step)
            scale = 1.0 + np.abs(w[active])
            done = (size <= ABERTH_TOL * scale) | (
                (size >= last[active]) & (size <= ABERTH_STALL * scale))
            last[active] = size
            active = active[~done]
    return np.diff(np.searchsorted(active, bounds)).tolist()


def _starts(coeffs, deg: int, u, fixed: dict) -> dict:
    """For each order n of ``fixed``, keyed by n: D^n + 1 - len(fixed[n])
    distinct finite Aberth starts for the fixed points of f^n in the w
    chart, none on a fixed root of fixed[n].

    For D >= 2 the fixed points of f come first (``_base_fixed_points``).
    Order 1 starts from them, less the one nearest each fixed root.  From
    order 2 on, the starts are the D^n preimages under f^n of y0, the fixed
    point of f of largest |multiplier|, moved off by a relative 1e-3: y0 is
    repelling or parabolic, so it lies on the Julia set, where the iterated
    preimages of a point equidistribute (Brolin) as the repelling periodic
    points do.  The nudge keeps a critical orbit through y0 from doubling a
    start.  One preimage tree, grown a level at a time by
    ``degree._preimages`` on the targets (a, b) = U (t, 1), serves every
    order.  At either order the start nearest each fixed root gives way to
    it; the golden spiral pads the set up to its size, and starts a Moebius
    map.
    """
    tree = {}
    if deg >= 2:
        forms = _forms(coeffs, deg, u)
        roots = _base_fixed_points(coeffs, deg, u, forms)
        tree[1] = roots
        top = max(fixed)
        if top >= 2:
            lam = np.abs(_multipliers(coeffs, deg, 1, u, roots))
            y0 = roots[np.argmax(np.where(np.isfinite(lam), lam, -1.0))]
            level = np.array([y0 + 1e-3 * (1.0 + abs(y0))])
            for n in range(1, top + 1):  # level n: the D^n preimages under f^n
                level = degree_mod._preimages(forms, u[0, 0] * level + u[0, 1],
                                              u[1, 0] * level + u[1, 1])
                if n >= 2 and n in fixed:
                    tree[n] = level
    found = {}
    for n, held in fixed.items():
        # a repeated start makes its pair sums non-finite: the zeroed step
        # then reads as converged
        starts = tree.get(n, np.empty(0, dtype=complex))
        starts = np.sort(starts[np.isfinite(starts)])
        keep = np.ones(starts.size, dtype=bool)
        keep[1:] = starts[1:] != starts[:-1]
        starts = starts[keep]
        for root in held.tolist():
            if starts.size:
                starts = np.delete(starts, np.argmin(np.abs(starts - root)))
        found[n] = np.concatenate([starts, _spiral(deg ** n + 1 - held.size - starts.size)])
    return found


def _forms(coeffs, deg: int, u) -> np.ndarray:
    """F(U (w, 1)) as two rows of ascending w-coefficients."""
    # row i of basis holds the w-coefficients of
    # (u00 w + u01)^i (u10 w + u11)^(D-i)
    basis = np.zeros((deg + 1, deg + 1), dtype=complex)
    for i in range(deg + 1):
        row = np.ones(1, dtype=complex)
        for _ in range(i):
            row = np.convolve(row, u[0, ::-1])
        for _ in range(deg - i):
            row = np.convolve(row, u[1, ::-1])
        basis[i] = row
    return coeffs @ basis


def _base_fixed_points(coeffs, deg: int, u, forms: np.ndarray) -> np.ndarray:
    """The fixed points of f in the w chart: the roots of the degree D + 1
    polynomial G(w) = det[F(x), x] with x = U (w, 1), whose coefficients are
    forms[0] * (u10 w + u11) - forms[1] * (u00 w + u01), from one companion
    eigensolve, polished by Aberth-Ehrlich at order 1.  If G drops degree
    its roots at infinity go, and the caller pads from the spiral."""
    poly = np.convolve(forms[0], u[1, ::-1]) - np.convolve(forms[1], u[0, ::-1])
    roots = _companion_roots(poly[None, :])
    roots = roots[np.isfinite(roots)]
    _aberth(coeffs, deg, u, roots, [(1, roots.size, roots.size)])
    return roots


def _spiral(m: int) -> np.ndarray:
    """m starting points spread evenly over the sphere (a golden spiral)."""
    k = np.arange(m)
    height = (2 * k + 1) / m - 1
    return np.sqrt((1 + height) / (1 - height)) * np.exp(1j * GOLDEN_ANGLE * k)


def _iterate_jet(coeffs, deg: int, n, u, w: np.ndarray):
    """The start x0 = U (w, 1) and x = F^n(x0), each with its w-derivative.

    ``n`` is one order, or one per w in ascending order: the rows of order
    n leave the walk after level n.  Each level is one homogeneous Horner
    recursion on both rows of F, F(a, b) = (..(c_D a + c_(D-1) b) a + ..) a
    + c_0 b^D, with its w-derivative by the product rule; the arithmetic is
    elementwise, so a row's jet does not depend on the other rows.  Each
    pair (x, dx) is scaled by one factor per point after every step; ratios
    that are homogeneous of degree 0 in it, such as G'/G or the derivative
    of x1/x2 over that of x01/x02, are unchanged by that.  The coefficient
    columns and the level at which each row leaves are found once, before
    the walk, and the jet is written only at the levels where rows leave.
    """
    a0, b0 = u[0, 0] * w + u[0, 1], u[1, 0] * w + u[1, 1]
    scale = 1.0 / np.maximum(np.abs(a0), np.abs(b0))
    a0, b0 = a0 * scale, b0 * scale
    da0, db0 = u[0, 0] * scale, u[1, 0] * scale
    orders = np.broadcast_to(n, w.shape)
    # ends[k - 1]: the number of rows of order k or less, for k = 1 .. max(n)
    ends = np.searchsorted(orders, np.arange(1, int(orders.max(initial=0)) + 1),
                           side="right").tolist()
    jet = np.empty((4, w.size), dtype=complex)
    c = [coeffs[:, i, None] for i in range(deg + 1)]  # c[i] multiplies a^i b^(D-i)
    a, b, da, db = a0, b0, da0, db0
    lo = 0                                            # the rows before lo have left
    for hi in ends:
        x, dx = c[deg] * a, c[deg] * da
        bp, dbp = b, db                               # b^(D-i) and its derivative
        for i in range(deg - 1, -1, -1):
            x += c[i] * bp
            dx += c[i] * dbp
            if i:
                dx *= a
                dx += x * da
                x *= a
                bp, dbp = bp * b, dbp * b + bp * db
        scale = 1.0 / np.maximum(*np.abs(x))
        x *= scale
        dx *= scale
        (a, b), (da, db) = x, dx
        if hi > lo:                                   # the rows of this order leave
            jet[:2, lo:hi], jet[2:, lo:hi] = x[:, :hi - lo], dx[:, :hi - lo]
            a, b, da, db = a[hi - lo:], b[hi - lo:], da[hi - lo:], db[hi - lo:]
            lo = hi
    return (a0, b0, da0, db0), tuple(jet)


def _log_derivative(coeffs, deg: int, n, u, w: np.ndarray) -> np.ndarray:
    """G'/G at each w, through the homogeneous recursion of f^n."""
    (a0, b0, da0, db0), (a, b, da, db) = _iterate_jet(coeffs, deg, n, u, w)
    g = a * b0 - b * a0
    dg = da * b0 + a * db0 - db * a0 - b * da0
    return dg / g


def _multipliers(coeffs, deg: int, n, u, w: np.ndarray) -> np.ndarray:
    """The multiplier of f^n at each w, read as a fixed point.

    With z = a0/b0 and f^n(z) = a/b, (f^n)'(z) is
    (da b - a db) / (da0 b0 - a0 db0) * (b0/b)^2, and at a fixed point
    b0/b = c where (a0, b0) = c (a, b), which holds in either chart.
    """
    (a0, b0, da0, db0), (a, b, da, db) = _iterate_jet(coeffs, deg, n, u, w)
    c = (a0 * a.conjugate() + b0 * b.conjugate()) / (abs(a) ** 2 + abs(b) ** 2)
    return (da * b - a * db) * c * c / (da0 * b0 - a0 * db0)


def _pair_sums(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum over j != i of 1 / (w_i - w_j) for each i in ``rows``, in blocks
    of at most PAIR_BLOCK differences."""
    out = np.empty(rows.size, dtype=complex)
    step = max(1, PAIR_BLOCK // w.size)
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step]
        dx = np.subtract.outer(w.real[block], w.real)
        dy = np.subtract.outer(w.imag[block], w.imag)
        inv = dx * dx
        inv += dy * dy
        inv[np.arange(block.size), block] = INF
        np.reciprocal(inv, out=inv)
        # 1 / (dx + i dy) = (dx - i dy) / (dx^2 + dy^2)
        out.real[lo:lo + step] = np.einsum("ij,ij->i", dx, inv)
        out.imag[lo:lo + step] = -np.einsum("ij,ij->i", dy, inv)
    return out


def _product_fixed_points(spec: MapSpec) -> FixedPointSet:
    """Fixed points of the spec's product view (s, theta) -> (q(s),
    d*theta + h(s)): the poles the radial ends fix, and on each fixed
    latitude s* the |d - 1| points theta = (2 pi k - h(s*)) / (d - 1),
    distinct by construction.  The caller checks their residuals."""
    view = as_product_view(spec)
    d = view.angular_degree
    lo, hi = view.radial.end_limits()
    # the latitude and angle of every point, the poles the radial ends fix first
    lats = [np.array([-INF] * (lo == -INF) + [INF] * (hi == INF))]
    angles = [np.zeros(lats[0].size)]
    continua: list[float] = []
    shifted = _shifted(view.radial)
    if is_identity_profile(view.radial) or _is_plateau(shifted):
        # the radial coordinate is fixed at every latitude: fixed points form
        # circles (d = 1, vanishing twist) or meridian-type curves (d != 1)
        if d == 1:
            # the wrapped twist also changes sign where it jumps from pi to
            # -pi: those roots, told apart in one batch, are not fixed circles
            roots = np.array(solve_profile_level(_mod_twist(view.twist), 0.0))
            continua = (roots[np.abs(wrap_angle(view.twist.many(roots))) <= math.pi / 2].tolist()
                        or ([0.0] if abs(wrap_angle(view.twist(0.0))) < 1e-9 else []))
        else:
            continua = [0.0]
        return _sorted_set(*from_latlon_many(lats[0], angles[0]), continua)
    for s in solve_profile_level(shifted, 0.0, grid=10000):
        h = view.twist(s)
        if not math.isfinite(h):  # a deep iterate's orbit of s left the float range
            raise CensusIncomplete(f"{format_map(spec)}: the twist at s* = {s:.6g} is not finite")
        if d == 1:
            if abs(wrap_angle(h)) < 1e-9:
                continua.append(s)
            continue
        lats.append(np.full(abs(d - 1), s))
        angles.append((2 * math.pi * np.arange(abs(d - 1)) - h) / (d - 1))
    return _sorted_set(*from_latlon_many(np.concatenate(lats), np.concatenate(angles)),
                       continua)


def _is_plateau(shifted) -> bool:
    """Whether profile(s) - s vanishes to rounding on a sampled grid."""
    plateau = shifted.many(np.linspace(-LEVEL_S_CAP, LEVEL_S_CAP, 2001))
    plateau = np.abs(plateau[np.isfinite(plateau)])
    return bool(plateau.size and plateau.max() < 1e-12)


@dataclass(frozen=True)
class _mod_twist:
    """Twist offset wrapped to [-pi, pi): zeros are whole fixed circles."""

    twist: object

    def __call__(self, s: float) -> float:
        return wrap_angle(self.twist(s))

    def many(self, s: np.ndarray) -> np.ndarray:
        # an infinite twist wraps to nan, silently as in float arithmetic
        with np.errstate(invalid="ignore"):
            return wrap_angle(self.twist.many(s))

    def pole_crossings(self):
        return ()


def _sorted_set(values: np.ndarray, north: np.ndarray, continua=()) -> FixedPointSet:
    """The set of the points (values, north), sorted by (latitude, angle)."""
    order = np.lexsort((_angles(values, north), latitudes(values, north)))
    return FixedPointSet(values[order], north[order], tuple(continua))


# ---------------------------------------------------------------------------
# Growth reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    n: int
    count: float              # math.inf flags a continuum of fixed points
    rate: float | None        # ln(count)/n; None at zero or infinite count


@dataclass(frozen=True)
class CensusReport:
    map_id: str
    degree: int
    rows: tuple[CensusRow, ...]
    has_rate_numerically: bool


def growth_report(spec: MapSpec, n_max: int) -> CensusReport:
    """Counts and per-iterate growth estimates for n = 1 .. n_max.

    The final row's rate is compared against ln|degree| minus the rate
    tolerance; continuum rows are flagged and excluded from the estimate.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_degree_cap(spec, n_max)
    rows = []
    for n in range(1, n_max + 1):
        count = fixed_points(spec, n).count
        rate = None if math.isinf(count) or count == 0 else math.log(count) / n
        rows.append(CensusRow(n=n, count=count, rate=rate))
    deg = spec.declared_degree
    final_rate = rows[-1].rate
    has_rate = (abs(deg) > 1 and final_rate is not None
                and final_rate >= math.log(abs(deg)) - RATE_TOL)
    return CensusReport(map_id=format_map(spec), degree=deg, rows=tuple(rows),
                        has_rate_numerically=has_rate)


# ---------------------------------------------------------------------------
# Theorem-level cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckRow:
    n: int
    degree_power: int           # d^n
    theorem3_sum: int | None    # sum of |delta_i - 1| over repelling components
    count: float
    bounds_hold: bool | None


@dataclass(frozen=True)
class CrosscheckReport:
    map_id: str
    status: str                 # ok | hypothesis_failed | attractors_not_verified
                                # | scope_unavailable
    detail: str
    rows: tuple[CrosscheckRow, ...]
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.status == "ok" and all(
            r.bounds_hold for r in self.rows if r.bounds_hold is not None
        )


def poles_attracting(spec: MapSpec) -> bool:
    """Orbits from |z| = 0.05 in the chart of each anchor pole must end within
    1e-3 of it after 100 steps.

    With a product view the distance to S or N depends on the latitude alone,
    which the view moves by its radial profile: one orbit of s = ln 0.05 (S)
    or -ln 0.05 (N) under the radial profile of f^100, read by its loop,
    decides.  Other specs send 20 random points per pole through f^100.
    """
    view = as_product_view(spec)
    if view is not None:
        start = math.log(0.05)
        for pole in anchor_poles(spec):
            # a polynomial profile overflows to an infinite latitude, which
            # is a pole
            s = _Iterated(view, 100)(start if pole.chart is Chart.NORTH else -start)
            if math.isnan(s) or chordal(from_latlon(s, 0.0), pole) > 1e-3:
                return False
        return True
    rng = np.random.default_rng(7)
    orbit = Iterate(spec, 100)
    for pole in anchor_poles(spec):
        starts = [pole.value + 0.05 * math.e ** complex(0, rng.uniform(0, 2 * math.pi))
                  for _ in range(20)]
        ends, north = evaluate_many(orbit, starts, pole.chart is Chart.NORTH)
        if (chordal_many(ends, north, pole.value, pole.chart is Chart.NORTH) > 1e-3).any():
            return False
    return True


def theorem_a_crosscheck(spec: MapSpec, n_max: int) -> CrosscheckReport:
    """Per-iterate check that sum |delta_i - 1| <= #Fix(f^n) and d^n <= #Fix(f^n).

    Scope failures (broken loop hypothesis, non-attracting poles, a loop
    probe that cannot be placed) are reported, not raised; the count
    columns are still produced.
    """
    check_degree_cap(spec, n_max)
    map_id = format_map(spec)
    status, detail, witness = "ok", "", None
    try:
        hyp = annuli.check_hypothesis_h(spec)
    except annuli.PROBE_OUT_OF_SCOPE as exc:
        status, detail = "scope_unavailable", str(exc)
    else:
        if not hyp.passed:
            status = "hypothesis_failed"
            detail = (
                "an inessential loop has an essential image "
                f"(image winding {hyp.witness_image_winding})"
            )
            witness = hyp.witness
        elif not poles_attracting(spec):
            status = "attractors_not_verified"
            detail = "orbits near at least one pole do not converge to it"
    rows = []
    d = spec.declared_degree
    for n in range(1, n_max + 1):
        count = fixed_points(spec, n).count
        t3_sum: int | None = None
        bounds: bool | None = None
        if status == "ok":
            try:
                comps = annuli.decompose(spec if n == 1 else Iterate(spec, n))
                t3_sum = sum(abs(c.delta - 1) for c in comps if c.repelling)
                bounds = t3_sum <= count and d ** n <= count
            except (annuli.AnnuliError, degree_mod.ImageHitsPole):
                t3_sum, bounds = None, None
        rows.append(CrosscheckRow(n=n, degree_power=d ** n, theorem3_sum=t3_sum,
                                  count=count, bounds_hold=bounds))
    return CrosscheckReport(map_id=map_id, status=status, detail=detail,
                            rows=tuple(rows), witness=witness)


def census_csv(spec: MapSpec, n_max: int) -> str:
    """CSV rows ``n,count,rate,bound_dn,theorem3_sum`` for n = 1 .. n_max.

    Orders 1..n_max are solved once, in one ``_solve`` call, before either
    report: the product view order by order, Aberth orders in one batch
    sharing one orbit walk per step.  The reports read those sets, which are
    dropped when the call returns or raises; the census stops at the first
    order that fails, with its message.
    """
    solved = _solve(spec, 1, n_max)
    token = _SOLVED.set({(spec, n): fps for n, fps in solved.items()})
    try:
        report = growth_report(spec, n_max)
        cross = theorem_a_crosscheck(spec, n_max)
    finally:
        _SOLVED.reset(token)
    lines = ["n,count,rate,bound_dn,theorem3_sum"]
    for row, xrow in zip(report.rows, cross.rows):
        count = "inf" if math.isinf(row.count) else str(int(row.count))
        rate = "" if row.rate is None else f"{row.rate:.12g}"
        t3 = "" if xrow.theorem3_sum is None else str(xrow.theorem3_sum)
        lines.append(f"{row.n},{count},{rate},{xrow.degree_power},{t3}")
    return "\n".join(lines) + "\n"

"""Grid certification engine.

The region scan and the structural checks walk TensorGrid (module grid),
so each of their decisions is exact and each reported value the exact
one at an exact grid point, correctly rounded.  What is estimated is the
sampling (inf and sup over a finite grid, labelled empirical); the
structural reconstruction floor is a proof on the whole slow box.

certify_region is the one region scan: one fused pass over t >= 0 for
the nonneg, c and kappa minima, and one pass over the mirrored t < 0
grid on a alone, each over the axes its polynomials depend on (b2 has no
x_2).  A c or kappa set with no grid point (no nonzero denominator resp.
no a > 0) is reported as such (n_included == 0, no value, no witness);
the caller decides what it means.

check_structural is a stage of its own, in exact arithmetic only: the
springs-in-series floor L of ExtendedQ.floor on the slow box, one integer
scan of the t = 0 boundary L gate^2 + remainder over the slow axes, and
one of both branch floors over the pinned cone.  The damped Newton of
the minimize verb is module minimize; certify reads none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

import numpy as np

from hypcert.grid import ScanTooLarge, TensorGrid, check_exact
from hypcert.normal_forms import (
    CUTOFF_DELTA,
    ExtendedQ,
    NormalFormSpec,
    build_extended_Q,
)
from hypcert.symbolfile import Region
from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    phase_variables,
    poisson_bracket,
)
from hypcert.time_functions import TimeFunctionCert

# The structural plan, printed in the structural report's grid: the
# cutoff's scale (CUTOFF_DELTA), N_AXIS points per slow axis, and the
# spring floor rounded down to FLOOR_BITS significant bits (a smaller
# floor is a floor, and a short one keeps the boundary scan's integers
# small).
N_AXIS = 5
FLOOR_BITS = 16


# ------------------------------------------------------------------ region


def region_axes(region: Region, d: int, negative_t: bool = False,
                pin_last_xi: bool = False):
    """TensorGrid spans (slot, (lo, hi, n)) in slot order; tau stays out
    (fixed 0)."""
    n, t, x, xi = region.grid, region.t_max, region.x_half, region.xi_half
    zero, one = Fraction(0), Fraction(1)
    spans = ([(-t, -t / (n - 1), n - 1) if negative_t else (zero, t, n)]
             + [(-x, x, n)] * d + [(-xi, xi, n)] * (d - 1)
             + [(one, one, 1) if pin_last_xi else (one - xi, one + xi, n)])
    return list(zip([i for i in range(2 * d + 2) if i != d + 1], spans))


# ------------------------------------------------- nonnegativity, c, kappa


class SideWitness(NamedTuple):
    found_negative: bool
    witness: Optional[PhasePoint]
    value: Optional[float]


class NonnegReport(NamedTuple):
    passed: bool
    min_value: float
    witness: PhasePoint
    negative_side: SideWitness
    n_points: int


class RatioEstimate(NamedTuple):
    """value and witness are None when the ratio's set has no grid
    point."""

    value: Optional[float]
    witness: Optional[PhasePoint]
    n_excluded: int
    n_included: int
    n_total: int


# numpy's warnings for the zero denominators of _quotient, off for a scan
_QUIET = dict(divide="ignore", invalid="ignore")


def _quotient(num, den, k: Fraction):
    """k num / den, k folded into the exact float integers num and den (the
    caller bounds them): one correctly rounded division, inf or nan at a
    zero den, which the pair's mask excludes (the caller's scan runs under
    _QUIET)."""
    num = num if k.numerator == 1 else k.numerator * num
    den = den if k.denominator == 1 else k.denominator * den
    return np.divide(num, den)


def _ratio_estimate(grid: TensorGrid, res, value: float) -> RatioEstimate:
    empty = res.n_included == 0
    return RatioEstimate(value=None if empty else value,
                         witness=None if empty else grid.point(res.min_flat),
                         n_excluded=res.n_total - res.n_included,
                         n_included=res.n_included, n_total=res.n_total)


# --------------------------------------------------------------- structural


class StructuralCheck(NamedTuple):
    name: str
    passed: bool
    value: Optional[float]  # None when the branch has no admissible points
    worst: Optional[tuple]
    n_points: int


class StructuralReport(NamedTuple):
    passed: bool
    checks: Tuple[StructuralCheck, ...]
    grid: dict


def _theta_spans(eq: ExtendedQ, region: Region):
    """Spans (lo, hi, N_AXIS) of the slow vector (t, z_x, z_xi[, x_p]),
    each by its entry's slot (t, an x or a xi), budgeted so that every
    point of their box satisfies |t| + |z| (+|x_p|) <= delta/4."""
    h = CUTOFF_DELTA / 4 / eq.theta_dim
    hx, hxi = min(region.x_half, h), min(region.xi_half, h)
    return [(Fraction(0), min(region.t_max, h), N_AXIS) if slot == 0
            else (-hx, hx, N_AXIS) if slot <= eq.spec.d
            else (-hxi, hxi, N_AXIS) for slot in eq._slots]


def check_structural(spec: NormalFormSpec, cert: TimeFunctionCert,
                     region: Region) -> StructuralReport:
    """The reconstruction chain's structural checks, exact throughout.

    In the normalized frame (divide by the remainder factor): (i) Q(w,
    theta) >= L for every w and every theta of the slow box, the spring
    floor of ExtendedQ.floor; (ii) the t = 0 boundary L gate^2 +
    remainder >= 0 on the slow grid, where eps = -gate and psi resp. g
    read only the slow slots; (iii) branch floors a >= c1 t^2 on the
    negative side of the gate and a >= c' (t - phi)^2 on the nonnegative
    side (best measured constants, on the cone with the last covector
    slot pinned to 1).  (ii) and (iii) are integer scans; (i) counts the
    thetas of the slow grid, which its box holds.
    """
    eq = build_extended_Q(spec, mode="normalized")
    d = spec.d
    spans = _theta_spans(eq, region)
    hull = [(lo, hi) for lo, hi, _ in spans]
    floor, bounds = eq.floor(hull)
    scale = Fraction(2) ** (FLOOR_BITS - floor.numerator.bit_length()
                            + floor.denominator.bit_length())
    floor = math.floor(floor * scale) / scale
    recon = StructuralCheck(name="reconstruction-lower-bound", passed=True,
                            value=float(floor), worst=(floor, bounds),
                            n_points=N_AXIS ** len(spans))

    # (ii) over the slow axes but t, in slot order, xi_d about 1
    box = eq._box(hull)
    axes = [(slot, (*box[slot], N_AXIS)) for slot in sorted(eq._slots[1:])]
    edge = TensorGrid(d, axes)
    bnd_poly = spec.gate ** 2 * floor + spec.remainder
    try:
        bnd_int, bnd_den = edge.integer(bnd_poly)
    except ScanTooLarge:
        # a steep gate: each point of the axes it reads in Fractions,
        # the first least in C order, as a scan reports it
        read = TensorGrid(d, [(slot, span if bnd_poly.depends_on(slot)
                               else (span[0], span[0], 1))
                              for slot, span in axes])
        worst = read.point(min(range(read.total),
                               key=lambda k: bnd_poly.eval(read.point(k))))
        bnd_min = bnd_poly.eval(worst)
    else:
        bnd, = edge.scan(lambda v: [(v, None)], bnd_int)
        worst, bnd_min = edge.point(bnd.min_flat), Fraction(
            int(bnd.min_value), bnd_den)
    boundary = StructuralCheck(name="zero-time-boundary",
                               passed=bnd_min >= 0, value=float(bnd_min),
                               worst=(worst,), n_points=edge.total)

    # (iii) branch floors on the pinned cone: a / t^2 and a / (t - phi)^2
    # are k A / T^2 and k A / E^2 in the cone's integers
    a = spec.a
    cone = TensorGrid(d, region_axes(region, d, pin_last_xi=True))
    a_int, a_den = cone.integer(a)
    gate, _ = cone.integer(spec.gate)
    t = PolySymbol.coordinate(d, "t")
    t_int, e_int, t_den = cone.integer(t, t - cert.phi)
    k = Fraction(t_den ** 2, a_den)
    check_exact(k.numerator * cone.bound(a_int), k.denominator
                * max(cone.bound(t_int), cone.bound(e_int)) ** 2)

    def fn(av, gv, tv, ev):
        return [(_quotient(av, tv * tv, k), (gv < 0) & (tv != 0)),
                (_quotient(av, ev * ev, k), (gv >= 0) & (ev != 0))]

    with np.errstate(**_QUIET):
        floors = cone.scan(fn, a_int, gate, t_int, e_int)
    # an empty branch (min_value inf) is vacuously true
    floors = [StructuralCheck(
        name=name, passed=res.min_value > 0,
        value=res.min_value if res.n_included else None,
        worst=(cone.point(res.min_flat),) if res.n_included else None,
        n_points=res.n_included) for name, res in zip(
            ("negative-branch-floor", "graph-branch-floor"), floors)]

    checks = (recon, boundary, floors[0], floors[1])
    meta = dict(region.metadata())
    meta.update({"n_axis": N_AXIS, "floor_bits": FLOOR_BITS,
                 "cutoff_delta": str(CUTOFF_DELTA),
                 "theta_budget": str(CUTOFF_DELTA / 4),
                 "label": "empirical"})
    return StructuralReport(passed=all(c.passed for c in checks),
                            checks=checks, grid=meta)


# ------------------------------------------------------------- full report


class CertificateReport(NamedTuple):
    nonneg: NonnegReport
    c: RatioEstimate
    kappa: RatioEstimate
    grid: dict

    @property
    def c_est(self) -> Optional[float]:
        return self.c.value

    @property
    def kappa_est(self) -> Optional[float]:
        return self.kappa.value


def certify_region(a: PolySymbol, phi: PolySymbol,
                   region: Region) -> CertificateReport:
    """nonneg, c and kappa from one fused pass over t >= 0, and one pass
    over the mirrored t < 0 grid on a alone.

    c is the inf of a / (min{t^2, (t - phi)^2} |xi|^2) where that
    denominator is nonzero, and kappa the sup of {phi, a}^2 / (4a) where
    a > 0.  In the grid's integers they are kc A / (min{T^2, E^2} X) and
    kk B^2 / A, one correctly rounded division each (kappa as the minimum
    of -kk B^2 / A); kc's denominator is folded into X once per grid."""
    if phi.d != a.d:
        raise DimensionMismatch("phi has d=%d, a has d=%d" % (phi.d, a.d))
    for p, name in ((a, "a"), (phi, "phi")):
        if p.depends_on(p.d + 1):
            raise ValueError("%s must not depend on tau" % name)
    d = a.d
    t, _, _, xis = phase_variables(d)
    grid = TensorGrid(d, region_axes(region, d))
    a_int, a_den = grid.integer(a)
    b_int, b_den = grid.integer(poisson_bracket(phi, a))
    t_int, e_int, t_den = grid.integer(t, t - phi)
    x_int, x_den = grid.integer(sum((xi * xi for xi in xis),
                                    PolySymbol.zero(d)))
    kc = Fraction(t_den ** 2 * x_den, a_den)
    x_int, kc = kc.denominator * x_int, Fraction(kc.numerator)
    kk = Fraction(a_den, 4 * b_den ** 2)
    a_max, den_max = grid.bound(a_int), grid.bound(x_int) * max(
        grid.bound(t_int), grid.bound(e_int)) ** 2
    check_exact(kc.numerator * a_max, den_max,
                kk.numerator * grid.bound(b_int) ** 2, kk.denominator * a_max)

    def fn(av, tv, ev, bv, xv):
        den = np.minimum(tv * tv, ev * ev) * xv
        return [(av, None), (_quotient(av, den, kc), den > 0),
                (_quotient(-(bv * bv), av, kk), av > 0)]

    with np.errstate(**_QUIET):
        pos, c, kappa = grid.scan(fn, a_int, t_int, e_int, b_int, x_int)
    grid_neg = TensorGrid(d, region_axes(region, d, negative_t=True))
    a_neg, neg_den = grid_neg.integer(a)
    neg, = grid_neg.scan(lambda av: [(av, None)], a_neg)
    found = neg.min_value < 0
    side = SideWitness(found, grid_neg.point(neg.min_flat) if found else None,
                       neg.min_value / neg_den if found else None)
    nonneg = NonnegReport(passed=pos.min_value >= 0,
                          min_value=pos.min_value / a_den,
                          witness=grid.point(pos.min_flat),
                          negative_side=side, n_points=pos.n_total)
    return CertificateReport(
        nonneg=nonneg, c=_ratio_estimate(grid, c, c.min_value),
        kappa=_ratio_estimate(grid, kappa, -kappa.min_value),
        grid=region.metadata())

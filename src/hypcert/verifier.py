"""Grid certification engine.

The region scan and the structural branch floors walk TensorGrid (module
grid), so each of their decisions is exact and each reported value the
exact one at an exact grid point, correctly rounded.  What is estimated
is the sampling (inf and sup over a finite grid, labelled empirical):
the structural reconstruction and boundary checks are float evaluations
of the exact data against -1e-9 gates, and the Lipschitz check passes
when its measured constant is finite.

certify_region is the one region scan: one fused pass over t >= 0 for
the nonneg, c and kappa minima, and one pass over the mirrored t < 0
grid on a alone, each over the axes its polynomials depend on (b2 has no
x_2).  A c or kappa set with no grid point (no nonzero denominator resp.
no a > 0) is reported as such (n_included == 0, no value, no witness);
the caller decides what it means.

check_structural is a stage of its own.  It treats its slow grid of
thetas as one batch, refused past MAX_THETAS before any is built: exact
values per axis, broadcast over the grid, rounded to floats once for
the Newton, the reconstruction and the boundary, and read exactly again
only for the two witnesses they report.  One damped Newton (_newton)
serves that batch and a single theta (minimize_Q, the batch of one):
every theta starts at the closed-form theta = 0 minimizer, one that
meets the stop test is frozen, and only the others take a step.  Its
operations are elementwise or per theta, so each batch entry is
minimize_Q on its theta alone, bit for bit.  The reconstruction samples
are evaluated as arrays over blocks of the slow grid (grid.blocks) of at
most _BLOCK samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Optional, Sequence, Tuple

import numpy as np

from hypcert.grid import (
    _BLOCK,
    ScanTooLarge,
    TensorGrid,
    blocks,
    check_exact,
    uniform_axis,
)
from hypcert.normal_forms import (
    ExtendedQ,
    NormalFormSpec,
    Theta,
    build_cutoff,
    build_extended_Q,
    build_normal_form,
)
from hypcert.spectral import NoConvergence
from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    as_fraction,
    phase_variables,
    poisson_bracket,
)
from hypcert.time_functions import TimeFunctionCert

DEFAULT_GRID = 33
MAX_THETAS = 1 << 21  # structural slow grid; b1 lifted to d = 4 has 5^9
MAX_NEWTON_ITER = 80
_EPS = float(np.finfo(float).eps)

# The structural sampling plan, printed in the structural report's grid:
# N_AXIS points per slow axis, and N_W random w samples (drawn with SEED)
# besides the minimizer at each theta.
STRUCTURAL_CUTOFF = build_cutoff(Fraction(1, 2))
N_AXIS = 5
N_W = 16
SEED = 0


class HessianDegenerate(RuntimeError):
    """Newton model unusable: singular or ill-conditioned Hessian."""


# ------------------------------------------------------------------ region


@dataclass(frozen=True)
class Region:
    """t in [0, t_max], |x_j| <= x_half, |xi - e_d| <= xi_half per axis,
    and uniform grid points per axis."""

    t_max: Fraction = Fraction(1, 10)
    x_half: Fraction = Fraction(1, 10)
    xi_half: Fraction = Fraction(1, 10)
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        for name in ("t_max", "x_half", "xi_half"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if min(self.t_max, self.x_half, self.xi_half) <= 0:
            raise ValueError("region extents must be positive")
        if self.grid < 3:
            raise ValueError("grid counts must be >= 3")

    def metadata(self) -> dict:
        return {"t_max": str(self.t_max), "x_half": str(self.x_half),
                "xi_half": str(self.xi_half), "grid": self.grid}


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


@dataclass(frozen=True)
class SideWitness:
    found_negative: bool
    witness: Optional[PhasePoint]
    value: Optional[float]


@dataclass(frozen=True)
class NonnegReport:
    passed: bool
    min_value: float
    witness: PhasePoint
    negative_side: SideWitness
    n_points: int


@dataclass(frozen=True)
class RatioEstimate:
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


# -------------------------------------------------------------- minimize Q


@dataclass(frozen=True)
class MinimizeResult:
    m: float
    w_bar: Tuple[float, ...]
    hessian_cond: float
    grad_norm: float
    iterations: int


def minimize_Q(eq: ExtendedQ, theta: Theta,
               w0: Optional[Sequence[float]] = None) -> MinimizeResult:
    """_newton for one theta; hessian_cond is the condition number of the
    final Hessian (1 for no w)."""
    m, w_bar, hess, gn, its = _newton(eq, theta, w0)
    return MinimizeResult(
        m=float(m[0]), w_bar=tuple(float(v) for v in w_bar[0]),
        hessian_cond=float(np.linalg.cond(hess[0])) if eq.w_dim else 1.0,
        grad_norm=float(gn[0]), iterations=int(its[0]))


def _newton(eq: ExtendedQ, thetas, w0=None):
    """Safeguarded damped Newton on grad_w Q = 0 for each theta of a batch
    (shape () for one theta), from the closed-form theta = 0 minimizer (or
    w0), accepting only Q-decreasing steps.  A theta is frozen when it
    meets the stop test, or when no step decreases Q and its Newton
    decrement is below the rounding floor of Q.  An ill-conditioned
    Hessian, a failed line search or the iteration limit names the first
    failing theta (C order) of the first iteration that has one.  The
    thetas (a Theta, or its rounding by ExtendedQ._rounded) are rounded
    to floats once.  Returns m, w_bar (n, w_dim), the final Hessians (n,
    w_dim, w_dim), gradient norms and steps taken, for the thetas in C
    order."""
    thetas = eq._rounded(thetas)
    shape, nw = thetas.shape, eq.w_dim
    n = math.prod(shape)
    w0 = [float(v) for v in (eq.theta0_minimizer()[0] if w0 is None else w0)]
    w = np.repeat(np.array(w0, dtype=float)[:, None], n, axis=1)
    m, gn_out, its = np.empty(n), np.empty(n), np.zeros(n, dtype=int)
    hess_out = np.empty((n, nw, nw))
    live, sub, w_live = np.arange(n), thetas, w0

    def fail(exc, i, message):
        raise exc(message + (" at theta %d" % live[i] if shape else ""))

    def freeze(done, it):
        at = live[done]
        m[at], gn_out[at], its[at] = val[done], gn[done], it - 1
        hess_out[at] = np.moveaxis(hess[..., done], -1, 0)

    for it in range(1, MAX_NEWTON_ITER + 1):
        k = live.size
        val, grad, hess = (_flat(v, lead, sub.shape, k)
                           for v, lead in zip(eq.value_grad_hess(w_live, sub),
                                              ((), (nw,), (nw, nw))))
        # sums over w run in w order, so an entry rounds as its theta
        # alone does; the stop test is |grad_w Q| <= 1e-10 (1 + |Q|)
        gn = np.broadcast_to(np.sqrt(reduce(add, grad * grad, 0.0)), (k,))
        done = gn <= 1e-10 * (1 + abs(val))
        freeze(done, it)
        live, val, grad, hess, gn = (live[~done], val[~done], grad[:, ~done],
                                     hess[..., ~done], gn[~done])
        if not live.size:
            break
        cond = np.linalg.cond(np.moveaxis(hess, -1, 0))
        ok = np.isfinite(cond) & (cond <= 1e12)
        step = -grad
        try:
            step[:, ok] = np.linalg.solve(np.moveaxis(hess[..., ok], -1, 0),
                                          -grad[:, ok].T[..., None])[..., 0].T
        except np.linalg.LinAlgError as exc:  # names no theta
            raise HessianDegenerate(str(exc)) from exc
        uphill = reduce(add, grad * step, 0.0) >= 0
        step[:, uphill] = -grad[:, uphill]
        t = np.ones(live.size)
        moved = np.zeros(live.size, dtype=bool)
        for _ in range(40):
            todo = np.flatnonzero(ok & ~moved)
            if not todo.size:
                break
            cand = w[:, live[todo]] + t[todo] * step[:, todo]
            lower = eq.value(cand, thetas.entry(live[todo])) < val[todo]
            w[:, live[todo[lower]]] = cand[:, lower]
            moved[todo[lower]] = True
            t[todo[~lower]] *= 0.5
        floor = -reduce(add, grad * step, 0.0) <= 4 * _EPS * (1 + abs(val))
        failed = np.flatnonzero(~ok | (~moved & ~floor))
        if failed.size:
            i = failed[0]
            if not ok[i]:
                fail(HessianDegenerate, i, "condition number %.3e" % cond[i])
            fail(NoConvergence, i, "no decreasing step at grad norm %.3e"
                 % gn[i])
        freeze(~moved, it)
        live = live[moved]
        if not live.size:
            break
        sub, w_live = thetas.entry(live), w[:, live]
    else:
        fail(NoConvergence, 0, "no convergence in %d iterations"
             % MAX_NEWTON_ITER)
    return m, w.T, hess_out, gn_out, its


def _flat(v, lead, shape, k: int):
    """v over lead + the batch shape, the batch flattened to its k
    entries in C order: a copy only where v broadcasts to it."""
    v = np.asarray(v)
    if v.shape != lead + shape:
        v = np.broadcast_to(v, lead + shape)
    return v.reshape(lead + (k,))


# --------------------------------------------------------------- structural


@dataclass(frozen=True)
class StructuralCheck:
    name: str
    passed: bool
    value: Optional[float]  # None when the branch has no admissible points
    worst: Optional[tuple]
    n_points: int


@dataclass(frozen=True)
class StructuralReport:
    passed: bool
    checks: Tuple[StructuralCheck, ...]
    grid: dict


def _theta_axes(eq: ExtendedQ, region: Region):
    """Axes of the slow vector (t, z_x, z_xi[, x_p]), budgeted so that
    every tensor point satisfies |t| + |z| (+|x_p|) <= delta/4."""
    k = eq.spec.d - eq.spec.p
    h = eq.cutoff.delta / 4 / eq.theta_dim
    hx, hxi = min(region.x_half, h), min(region.xi_half, h)
    zx_axis = uniform_axis(-hx, hx, N_AXIS)
    axes = ([uniform_axis(Fraction(0), min(region.t_max, h), N_AXIS)]
            + [zx_axis] * k + [uniform_axis(-hxi, hxi, N_AXIS)] * k)
    return axes + [zx_axis] * (eq.theta_dim - len(axes))  # x_p shares z_x


def _random_draws(rng: random.Random, k: int) -> np.ndarray:
    """The next k rng.random() values, bit for bit, from one getrandbits
    call per _BLOCK draws: CPython's random() is ((w0 >> 5) * 2^26 +
    (w1 >> 6)) / 2^53 of its next two 32-bit outputs, which getrandbits(64
    m) returns least significant first, so rng ends in the same state.
    (Chunks of 1024 draws measured 0.2 MB more peak RSS in perfbench's
    region-grid33 run on 2-core x86_64.)"""
    out = np.empty(k)
    for lo in range(0, k, _BLOCK):
        m = min(_BLOCK, k - lo)
        w = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"),
                          "<u4").reshape(m, 2)
        part = out[lo:lo + m]  # decoded in place, for the peak RSS
        np.multiply(w[:, 0] >> 5, 67108864.0, out=part)
        part += w[:, 1] >> 6
        part *= 2.0 ** -53
    return out


def _fix(v, slices):
    """v at a block (slices) of the grid it broadcasts over, every axis
    kept and a trailing one added."""
    return v[tuple(s if n > 1 else slice(None)
                   for s, n in zip(slices, v.shape))][..., None]


def check_structural(spec: NormalFormSpec, cert: TimeFunctionCert,
                     region: Region) -> StructuralReport:
    """Sampled verification of the reconstruction chain.

    In the normalized frame (divide by the remainder-square factor):
    (i) a-hat at substituted points dominates m1(theta) eps^2 plus the
    branch remainder, (ii) the t = 0 boundary combination is nonnegative,
    (iii) branch floors a >= c1 t^2 on the negative side of the gate and
    a >= c' (t - phi)^2 on the nonnegative side (best measured constants,
    on the cone with the last covector slot pinned to 1), (iv) a measured
    Lipschitz constant for m1 in t.  (i), (ii) and (iv) read one
    batched Newton sweep of m1 over the slow axes.

    The slow grid is one batch of thetas, exact per axis value and
    broadcast over the grid; its samples are evaluated as float arrays,
    and minima are taken with the lowest number winning ties.
    """
    eq = build_extended_Q(spec, STRUCTURAL_CUTOFF, mode="normalized")
    d = spec.d
    delta = float(STRUCTURAL_CUTOFF.delta)
    a = build_normal_form(spec)

    axes = _theta_axes(eq, region)
    n_thetas = math.prod(map(len, axes))
    if n_thetas > MAX_THETAS:
        raise ScanTooLarge("a structural check at %d thetas exceeds the "
                           "budget of %d" % (n_thetas, MAX_THETAS))
    thetas = eq.theta_at([
        np.array(ax, dtype=object).reshape(
            [-1 if i == j else 1 for i in range(len(axes))])
        for j, ax in enumerate(axes)])
    # the batch as floats, once, for the Newton, (i) and (ii); the exact
    # thetas are read only for the two witnesses
    rounded = eq._rounded(thetas)
    shape = rounded.shape
    m1, w_bar = _newton(eq, rounded)[:2]
    # eps^2 once per distinct eps, as Python's float ** 2 (libm pow), which
    # numpy's square can differ from in the last bit
    eps2 = np.frompyfunc(lambda e: float(e) ** 2, 1, 1)(
        rounded.eps).astype(float)

    # (i) reconstruction floor at the minimizer and N_W seeded w draws per
    # theta, in theta order; blocks of thetas keep their samples within
    # _BLOCK
    rng = random.Random(SEED)
    n, nw = w_bar.shape
    # random.uniform(-delta, delta)'s own formula on the same draws, so
    # the values are bit-identical to drawing them one uniform at a time
    # (in place: float * and + are commutative, bit for bit)
    draws = _random_draws(rng, n * N_W * nw)
    draws *= delta - -delta
    draws += -delta
    samples = w_bar[:, None]
    if nw:
        samples = np.concatenate(
            [samples, draws.reshape(n, N_W, nw)], axis=1)
    per = samples.shape[1]
    recon_min, recon_at = math.inf, None
    for first, slices, sub in blocks(shape, _BLOCK // per):
        rows = slice(first, first + math.prod(sub))
        pt = eq.substituted_point(
            [samples[rows, :, j].reshape(sub + (per,)) for j in range(nw)],
            rounded.map(lambda v: _fix(v, slices)))
        ahat = a.eval(pt) / eq.divisor(pt)
        margin = (ahat - m1[rows].reshape(sub + (1,)) * _fix(eps2, slices)
                  - spec.remainder.eval(pt))
        ratio = np.broadcast_to(margin / (1 + abs(ahat)), sub + (per,))
        k = int(np.argmin(ratio))
        if ratio.flat[k] < recon_min:
            recon_min, recon_at = float(ratio.flat[k]), first * per + k
    recon_worst = None if recon_at is None else (
        tuple(float(v) for v in samples[divmod(recon_at, per)]),
        thetas.entry(recon_at // per))
    recon = StructuralCheck(name="reconstruction-lower-bound",
                            passed=recon_min >= -1e-9,
                            value=recon_min, worst=recon_worst,
                            n_points=n * per)

    # (ii) t = 0 boundary: m1(0, z) shift^2 + remainder >= 0, with
    # shift = -eps = phi(z) resp. x_p; the t = 0 thetas come first
    edge = rounded.map(lambda v: v[:1])
    rem = spec.remainder.eval(eq.substituted_point((0.0,) * nw, edge))
    bnd = np.broadcast_to(m1.reshape(shape)[:1] * eps2[:1] + rem,
                          edge.shape).ravel()
    k = int(np.argmin(bnd))
    bnd_min, th = float(bnd[k]), thetas.entry(k)
    boundary = StructuralCheck(name="zero-time-boundary",
                               passed=bnd_min >= -1e-9, value=bnd_min,
                               worst=(th.z_x, th.z_xi, th.x_p),
                               n_points=bnd.size)

    # (iii) branch floors on the pinned cone: a / t^2 and a / (t - phi)^2
    # are k A / T^2 and k A / E^2 in the cone's integers
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

    # (iv) Lipschitz constant of m1 in t over the theta sweep
    by_t = m1.reshape(len(axes[0]), -1)
    t_pos = np.array([float(v) for v in axes[0][1:]])[:, None]
    slopes = np.abs(by_t[1:] - by_t[0]) / t_pos
    lip = max(0.0, float(slopes.max()))
    lipschitz = StructuralCheck(name="minimum-lipschitz",
                                passed=math.isfinite(lip), value=lip,
                                worst=None, n_points=slopes.size)

    checks = (recon, boundary, floors[0], floors[1], lipschitz)
    meta = dict(region.metadata())
    meta.update({"n_axis": N_AXIS, "n_w": N_W, "seed": SEED,
                 "cutoff_delta": str(STRUCTURAL_CUTOFF.delta),
                 "theta_budget": str(STRUCTURAL_CUTOFF.delta / 4),
                 "label": "empirical"})
    return StructuralReport(passed=all(c.passed for c in checks),
                            checks=checks, grid=meta)


# ------------------------------------------------------------- full report


@dataclass(frozen=True)
class CertificateReport:
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

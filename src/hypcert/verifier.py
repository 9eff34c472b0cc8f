"""Grid certification engine.

Everything here is an empirical estimate: inf/sup of exact polynomial
data evaluated in floats over uniform tensor grids.  Grid points are
exact rationals, so every witness can be re-evaluated exactly.

Determinism contract: scans are chunked, each chunk is reduced
independently (argmin/argmax with the lowest flat index winning ties),
and the per-chunk results are folded in chunk order.  Worker count
(HYPCERT_THREADS) therefore never changes a single output bit.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from hypcert.normal_forms import (
    Cutoff,
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
    poisson_bracket,
)
from hypcert.time_functions import TimeFunctionCert

Number = Union[int, float, Fraction]

DEFAULT_GRID = 33
_CHUNK = 1 << 18
MAX_SCAN_POINTS = 1 << 30  # d = 2 at grid 33 is 39.1M points; d = 3 is 4.3e10


class ScanTooLarge(ValueError):
    """A tensor scan would visit more than MAX_SCAN_POINTS grid points."""


class AllPointsDegenerate(ValueError):
    """Every grid point fell below the denominator threshold."""


class NegativeInput(ValueError):
    """The function must be nonnegative on the enlarged interval."""


class HessianDegenerate(RuntimeError):
    """Newton model unusable: singular or ill-conditioned Hessian."""


def _workers() -> int:
    raw = os.environ.get("HYPCERT_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 1
        return max(1, n)
    return os.cpu_count() or 1


# ------------------------------------------------------------------ region


@dataclass(frozen=True)
class Region:
    """t in [0, t_max], |x_j| <= x_half, |xi - e_d| <= xi_half per axis,
    uniform grid points per axis, and the denominator exclusion level."""

    t_max: Fraction = Fraction(1, 10)
    x_half: Fraction = Fraction(1, 10)
    xi_half: Fraction = Fraction(1, 10)
    grid: int = DEFAULT_GRID
    eta_den: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "t_max", as_fraction(self.t_max))
        object.__setattr__(self, "x_half", as_fraction(self.x_half))
        object.__setattr__(self, "xi_half", as_fraction(self.xi_half))
        if self.t_max <= 0 or self.x_half < 0 or self.xi_half < 0:
            raise ValueError("region extents must be positive")
        if self.grid < 3:
            raise ValueError("grid counts must be >= 3")
        if self.eta_den is not None and not self.eta_den > 0:
            raise ValueError("eta_den must be positive")

    @property
    def scale(self) -> float:
        return float(max(self.t_max, self.x_half, 1 + self.xi_half))

    def denominator_floor(self) -> float:
        if self.eta_den is not None:
            return float(self.eta_den)
        return 1e-10 * self.scale ** 2

    def metadata(self) -> dict:
        return {
            "t_max": str(self.t_max), "x_half": str(self.x_half),
            "xi_half": str(self.xi_half), "grid": self.grid,
            "eta_den": self.denominator_floor(),
        }


def _axis(lo: Fraction, hi: Fraction, n: int) -> Tuple[Fraction, ...]:
    step = (hi - lo) / (n - 1)
    return tuple(lo + k * step for k in range(n))


def region_axes(region: Region, d: int, negative_t: bool = False,
                pin_last_xi: bool = False):
    """(slot, exact axis) pairs in slot order; tau stays out (fixed 0)."""
    n = region.grid
    if negative_t:
        pos = _axis(Fraction(0), region.t_max, n)
        t_axis = tuple(-v for v in reversed(pos[1:]))
    else:
        t_axis = _axis(Fraction(0), region.t_max, n)
    axes = [(0, t_axis)]
    for j in range(1, d + 1):
        axes.append((j, _axis(-region.x_half, region.x_half, n)))
    for j in range(1, d + 1):
        center = Fraction(1) if j == d else Fraction(0)
        if pin_last_xi and j == d:
            axes.append((d + 1 + j, (Fraction(1),)))
        else:
            axes.append((d + 1 + j,
                         _axis(center - region.xi_half,
                               center + region.xi_half, n)))
    return axes


# ----------------------------------------------------------- tensor engine


@dataclass(frozen=True)
class ScanResult:
    min_value: float
    min_flat: int
    max_value: float
    max_flat: int
    n_included: int
    n_total: int


class TensorGrid:
    """Uniform tensor grid over selected phase-space slots (tau fixed 0)."""

    def __init__(self, d: int, axes, chunk: int = _CHUNK):
        self.d = d
        self.slots = tuple(slot for slot, _ in axes)
        self.axes = tuple(tuple(ax) for _, ax in axes)
        self.chunk = chunk
        self._lens = tuple(len(ax) for ax in self.axes)
        strides = []
        acc = 1
        for n in reversed(self._lens):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))
        self.total = acc
        if acc > MAX_SCAN_POINTS:
            raise ScanTooLarge("a scan of %d grid points exceeds the budget "
                               "of %d" % (acc, MAX_SCAN_POINTS))
        self._float_axes = [np.array([float(v) for v in ax]) for ax in self.axes]

    def point(self, flat: int) -> PhasePoint:
        vals = [Fraction(0)] * (2 * (self.d + 1))
        for slot, ax, stride, n in zip(self.slots, self.axes,
                                       self._strides, self._lens):
            vals[slot] = ax[(flat // stride) % n]
        return PhasePoint.from_sequence(self.d, vals)

    def _coords(self, start: int, stop: int):
        flat = np.arange(start, stop, dtype=np.int64)
        coords = [None] * (2 * (self.d + 1))
        for slot, fax, stride, n in zip(self.slots, self._float_axes,
                                        self._strides, self._lens):
            coords[slot] = fax[(flat // stride) % n]
        zero = np.zeros(stop - start)
        for i, c in enumerate(coords):
            if c is None:
                coords[i] = zero
        return coords

    def scan(self, fn) -> ScanResult:
        """fn(coords) -> (values, include_mask or None); reduce min/max.

        Chunk partials are combined in chunk order with strict
        comparisons, so the earliest (lowest flat index) extremum wins
        ties and thread count cannot affect the result.
        """
        ranges = [(s, min(s + self.chunk, self.total))
                  for s in range(0, self.total, self.chunk)]

        def part(rng):
            start, stop = rng
            vals, mask = fn(self._coords(start, stop))
            if mask is None:
                i = int(np.argmin(vals))
                j = int(np.argmax(vals))
                return (float(vals[i]), start + i, float(vals[j]), start + j,
                        stop - start)
            sel = np.nonzero(mask)[0]
            if sel.size == 0:
                return (math.inf, -1, -math.inf, -1, 0)
            sub = vals[sel]
            i = int(np.argmin(sub))
            j = int(np.argmax(sub))
            return (float(sub[i]), start + int(sel[i]),
                    float(sub[j]), start + int(sel[j]), int(sel.size))

        workers = _workers()
        if workers > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(part, ranges))
        else:
            parts = [part(r) for r in ranges]

        best_min, min_flat = math.inf, -1
        best_max, max_flat = -math.inf, -1
        included = 0
        for mn, mni, mx, mxi, inc in parts:
            included += inc
            if mn < best_min:
                best_min, min_flat = mn, mni
            if mx > best_max:
                best_max, max_flat = mx, mxi
        return ScanResult(best_min, min_flat, best_max, max_flat,
                          included, self.total)


def compile_poly(p: PolySymbol):
    return tuple((float(c), tuple((i, e) for i, e in enumerate(exps) if e))
                 for exps, c in p.sorted_terms())


def eval_compiled(compiled, coords, powers: Optional[dict] = None):
    if powers is None:
        powers = {}
    total = None
    for c, facs in compiled:
        term = None
        for slot, e in facs:
            key = (slot, e)
            arr = powers.get(key)
            if arr is None:
                arr = coords[slot] if e == 1 else coords[slot] ** e
                powers[key] = arr
            term = arr if term is None else term * arr
        term = c if term is None else c * term
        total = term if total is None else total + term
    if total is None:
        return np.zeros_like(coords[0])
    if np.ndim(total) == 0:
        return np.full_like(coords[0], float(total))
    return total


def _require_tau_free(p: PolySymbol, name: str):
    if p.depends_on(p.d + 1):
        raise ValueError("%s must not depend on tau" % name)


# ------------------------------------------------------------ nonnegativity


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
    grid: dict


def verify_nonnegativity(a: PolySymbol, region: Region) -> NonnegReport:
    """Grid minimum of a on t >= 0, plus a mirrored t < 0 scan reporting
    whether a attains negative values there (one-sidedness)."""
    _require_tau_free(a, "a")
    comp = compile_poly(a)

    def fn(coords):
        return eval_compiled(comp, coords), None

    grid_pos = TensorGrid(a.d, region_axes(region, a.d))
    pos = grid_pos.scan(fn)
    scale = max(1.0, abs(pos.min_value), abs(pos.max_value))
    passed = pos.min_value >= -1e-12 * scale

    grid_neg = TensorGrid(a.d, region_axes(region, a.d, negative_t=True))
    neg = grid_neg.scan(fn)
    neg_scale = max(1.0, abs(neg.min_value), abs(neg.max_value))
    found = neg.min_value < -1e-12 * neg_scale
    side = SideWitness(
        found_negative=found,
        witness=grid_neg.point(neg.min_flat) if found else None,
        value=neg.min_value if found else None)
    return NonnegReport(passed=passed, min_value=pos.min_value,
                        witness=grid_pos.point(pos.min_flat),
                        negative_side=side, n_points=pos.n_total,
                        grid=region.metadata())


# ------------------------------------------------------------- c and kappa


@dataclass(frozen=True)
class RatioEstimate:
    value: float
    witness: PhasePoint
    n_excluded: int
    n_included: int
    n_total: int
    eta_den: float
    grid: dict


def estimate_c(a: PolySymbol, phi: PolySymbol, region: Region) -> RatioEstimate:
    """inf over the grid of a / (min{t^2, (t-phi)^2} |xi|^2), excluding
    points where the denominator is below the region floor."""
    if phi.d != a.d:
        raise DimensionMismatch("phi has d=%d, a has d=%d" % (phi.d, a.d))
    _require_tau_free(a, "a")
    _require_tau_free(phi, "phi")
    eta = region.denominator_floor()
    comp_a = compile_poly(a)
    comp_phi = compile_poly(phi)
    d = a.d

    def fn(coords):
        pw = {}
        av = eval_compiled(comp_a, coords, pw)
        pv = eval_compiled(comp_phi, coords, pw)
        t = coords[0]
        xi2 = None
        for j in range(1, d + 1):
            s = coords[d + 1 + j] ** 2
            xi2 = s if xi2 is None else xi2 + s
        den = np.minimum(t ** 2, (t - pv) ** 2) * xi2
        mask = den >= eta
        vals = av / np.where(mask, den, 1.0)
        return vals, mask

    grid = TensorGrid(d, region_axes(region, d))
    res = grid.scan(fn)
    if res.n_included == 0:
        raise AllPointsDegenerate("all %d grid points fell below eta_den"
                                  % res.n_total)
    return RatioEstimate(value=res.min_value, witness=grid.point(res.min_flat),
                         n_excluded=res.n_total - res.n_included,
                         n_included=res.n_included, n_total=res.n_total,
                         eta_den=eta, grid=region.metadata())


def estimate_kappa(a: PolySymbol, phi: PolySymbol,
                   region: Region) -> RatioEstimate:
    """sup over the grid of {phi, a}^2 / (4a) where a clears the floor.
    The bracket is computed exactly; only evaluation is in floats."""
    if phi.d != a.d:
        raise DimensionMismatch("phi has d=%d, a has d=%d" % (phi.d, a.d))
    _require_tau_free(a, "a")
    _require_tau_free(phi, "phi")
    eta = region.denominator_floor()
    br = poisson_bracket(phi, a)
    comp_a = compile_poly(a)
    comp_br = compile_poly(br)

    def fn(coords):
        pw = {}
        av = eval_compiled(comp_a, coords, pw)
        bv = eval_compiled(comp_br, coords, pw)
        mask = av >= eta
        vals = bv ** 2 / np.where(mask, 4.0 * av, 1.0)
        return vals, mask

    grid = TensorGrid(a.d, region_axes(region, a.d))
    res = grid.scan(fn)
    if res.n_included == 0:
        raise AllPointsDegenerate("all %d grid points fell below eta_den"
                                  % res.n_total)
    return RatioEstimate(value=res.max_value, witness=grid.point(res.max_flat),
                         n_excluded=res.n_total - res.n_included,
                         n_included=res.n_included, n_total=res.n_total,
                         eta_den=eta, grid=region.metadata())


# ----------------------------------------------------------------- glaeser


@dataclass(frozen=True)
class GlaeserReport:
    passed: bool
    worst_ratio: Union[Fraction, float]
    worst_point: Optional[Fraction]
    sup_second: Fraction
    n_points: int


def _poly_derivative(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs) if k)


def _poly_eval(coeffs, s):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * s + c
    return out


def glaeser_check(coeffs: Sequence[Number], interval, margin: Number = 0,
                  points: int = 257) -> GlaeserReport:
    """For nonnegative f, check f'(s)^2 <= 2 sup|f''| f(s) on the core
    interval; sup|f''| is taken over the margin-enlarged interval."""
    cs = tuple(as_fraction(c) for c in coeffs)
    lo, hi = (as_fraction(interval[0]), as_fraction(interval[1]))
    margin = as_fraction(margin)
    if margin < 0 or hi <= lo:
        raise ValueError("need lo < hi and margin >= 0")
    d1 = _poly_derivative(cs)
    d2 = _poly_derivative(d1)
    wide = _axis(lo - margin, hi + margin, points)
    for s in wide:
        if _poly_eval(cs, s) < 0:
            raise NegativeInput("f(%s) < 0 on the enlarged interval" % s)
    sup2 = max(abs(_poly_eval(d2, s)) for s in wide)
    core = _axis(lo, hi, points)
    worst = Fraction(0)
    worst_point = None
    for s in core:
        num = _poly_eval(d1, s) ** 2
        den = 2 * sup2 * _poly_eval(cs, s)
        if den == 0:
            if num == 0:
                continue
            return GlaeserReport(passed=False, worst_ratio=math.inf,
                                 worst_point=s, sup_second=sup2,
                                 n_points=points)
        ratio = num / den
        if ratio > worst:
            worst, worst_point = ratio, s
    passed = worst <= 1
    return GlaeserReport(passed=passed, worst_ratio=worst,
                         worst_point=worst_point, sup_second=sup2,
                         n_points=points)


# -------------------------------------------------------------- minimize Q


@dataclass(frozen=True)
class MinimizeResult:
    m: float
    w_bar: Tuple[float, ...]
    hessian_cond: float
    grad_norm: float
    iterations: int


def minimize_Q(eq: ExtendedQ, theta: Theta,
               w0: Optional[Sequence[float]] = None,
               max_iter: int = 80) -> MinimizeResult:
    """Safeguarded damped Newton on grad_w Q = 0, started from the
    closed-form theta = 0 minimizer (or a warm start), accepting only
    Q-decreasing steps."""
    nw = eq.w_dim
    if nw == 0:
        return MinimizeResult(m=float(eq.value((), theta)), w_bar=(),
                              hessian_cond=1.0, grad_norm=0.0, iterations=0)
    if w0 is None:
        w0 = [float(v) for v in eq.theta0_minimizer()[0]]
    w = np.array([float(v) for v in w0], dtype=float)
    cond = 1.0
    for it in range(1, max_iter + 1):
        val, grad, hess = eq.value_grad_hess(tuple(w), theta)
        gn = float(np.linalg.norm(grad))
        if gn <= 1e-10 * (1 + abs(val)):
            cond = float(np.linalg.cond(hess))
            return MinimizeResult(m=float(val), w_bar=tuple(float(v) for v in w),
                                  hessian_cond=cond, grad_norm=gn,
                                  iterations=it - 1)
        cond = float(np.linalg.cond(hess))
        if not math.isfinite(cond) or cond > 1e12:
            raise HessianDegenerate("condition number %.3e" % cond)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise HessianDegenerate(str(exc)) from exc
        if float(grad @ step) >= 0:
            step = -grad
        t = 1.0
        moved = False
        for _ in range(40):
            cand = w + t * step
            if float(eq.value(tuple(float(v) for v in cand), theta)) < val:
                w = cand
                moved = True
                break
            t *= 0.5
        if not moved:
            raise NoConvergence("no decreasing step at grad norm %.3e" % gn)
    raise NoConvergence("no convergence in %d iterations" % max_iter)


def minimize_Q_path(eq: ExtendedQ, thetas: Sequence[Theta]):
    """Continuation: process thetas sorted by magnitude, warm-starting
    each from the previous minimizer; results in input order."""
    order = sorted(range(len(thetas)),
                   key=lambda i: (thetas[i].magnitude(), i))
    out: List[Optional[MinimizeResult]] = [None] * len(thetas)
    w_prev = None
    for i in order:
        res = minimize_Q(eq, thetas[i], w0=w_prev)
        out[i] = res
        w_prev = res.w_bar
    return out


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


def _theta_axes(eq: ExtendedQ, region: Region, n_axis: int):
    """Coordinate axes for the slow variables, budgeted so that every
    tensor point satisfies |t| + |z| (+|x_p|) <= delta/4."""
    spec = eq.spec
    k = spec.d - spec.p
    slots = 1 + 2 * k + (1 if spec.variant == "form2" else 0)
    budget = eq.cutoff.delta / 4
    h = budget / slots
    t_axis = _axis(Fraction(0), min(region.t_max, h), n_axis)
    zx_axis = _axis(-min(region.x_half, h), min(region.x_half, h), n_axis)
    zxi_axis = _axis(-min(region.xi_half, h), min(region.xi_half, h), n_axis)
    xp_axis = zx_axis if spec.variant == "form2" else None
    return t_axis, zx_axis, zxi_axis, xp_axis


def check_structural(spec: NormalFormSpec, cert: TimeFunctionCert,
                     region: Region, cutoff: Optional[Cutoff] = None,
                     n_axis: int = 5, n_w: int = 16,
                     seed: int = 0) -> StructuralReport:
    """Sampled verification of the reconstruction chain.

    In the normalized frame (divide by the remainder-square factor):
    (i) a-hat at substituted points dominates m1(theta) eps^2 plus the
    branch remainder, (ii) the t = 0 boundary combination is nonnegative,
    (iii) branch floors a >= c1 t^2 on the negative side of the gate and
    a >= c' (t - phi)^2 on the nonnegative side (best measured constants,
    on the cone with the last covector slot pinned to 1), (iv) a measured
    Lipschitz constant for m1 in t.
    """
    cutoff = cutoff or build_cutoff(Fraction(1, 2))
    eq = build_extended_Q(spec, cutoff, mode="normalized")
    d, p = spec.d, spec.p
    k = d - p
    rng = random.Random(seed)
    delta = float(cutoff.delta)
    remfac, remainder_sym = spec.remainder_factor, spec.remainder
    a = build_normal_form(spec)

    t_axis, zx_axis, zxi_axis, xp_axis = _theta_axes(eq, region, n_axis)
    axes = [t_axis] + [zx_axis] * k + [zxi_axis] * k
    if xp_axis is not None:
        axes.append(xp_axis)

    thetas = []
    keys = []
    for combo in itertools.product(*axes):
        t = combo[0]
        z_x = combo[1:1 + k]
        z_xi = combo[1 + k:1 + 2 * k]
        x_p = combo[-1] if xp_axis is not None else None
        thetas.append(eq.pinned_theta(t, z_x, z_xi, x_p=x_p))
        keys.append((z_x, z_xi, x_p))
    results = minimize_Q_path(eq, thetas)

    # (i) reconstruction floor at sampled (w, theta)
    recon_min = math.inf
    recon_worst = None
    n_recon = 0
    for theta, res in zip(thetas, results):
        samples = [tuple(res.w_bar)]
        if eq.w_dim:
            for _ in range(n_w):
                samples.append(tuple(rng.uniform(-delta, delta)
                                     for _ in range(eq.w_dim)))
        eps = float(theta.eps)
        for w in samples:
            pt = [float(v) for v in eq.substituted_point(w, theta)]
            fac = float(remfac.eval(pt))
            ahat = float(a.eval(pt)) / fac
            rem = float(remainder_sym.eval(pt))
            margin = ahat - res.m * eps ** 2 - rem
            scale = 1 + abs(ahat)
            n_recon += 1
            if margin / scale < recon_min:
                recon_min = margin / scale
                recon_worst = (tuple(w), theta)
    recon = StructuralCheck(name="reconstruction-lower-bound",
                            passed=recon_min >= -1e-9,
                            value=recon_min, worst=recon_worst,
                            n_points=n_recon)

    # (ii) t = 0 boundary: m1(0, z) shift^2 + remainder >= 0
    bnd_min = math.inf
    bnd_worst = None
    n_bnd = 0
    zero_axes = [zx_axis] * k + [zxi_axis] * k
    if xp_axis is not None:
        zero_axes.append(xp_axis)
    for combo in itertools.product(*zero_axes):
        z_x = combo[:k]
        z_xi = combo[k:2 * k]
        x_p = combo[-1] if xp_axis is not None else None
        theta = eq.pinned_theta(Fraction(0), z_x, z_xi, x_p=x_p)
        res = minimize_Q(eq, theta)
        pt = [float(v) for v in eq.substituted_point((0.0,) * eq.w_dim, theta)]
        rem = float(remainder_sym.eval(pt))
        shift = -float(theta.eps)  # phi(z) resp. x_p at t = 0
        val = res.m * shift ** 2 + rem
        n_bnd += 1
        if val < bnd_min:
            bnd_min = val
            bnd_worst = (z_x, z_xi, x_p)
    boundary = StructuralCheck(name="zero-time-boundary",
                               passed=bnd_min >= -1e-9,
                               value=bnd_min, worst=bnd_worst,
                               n_points=n_bnd)

    # (iii) branch floors on the pinned cone
    eta = region.denominator_floor()
    comp_a = compile_poly(a)
    comp_gate = compile_poly(spec.gate)
    comp_phi = compile_poly(cert.phi)
    cone = TensorGrid(d, region_axes(region, d, pin_last_xi=True))

    def fn_c1(coords):
        pw = {}
        av = eval_compiled(comp_a, coords, pw)
        gv = eval_compiled(comp_gate, coords, pw)
        t2 = coords[0] ** 2
        mask = (gv < 0) & (t2 >= eta)
        return av / np.where(mask, t2, 1.0), mask

    def fn_cprime(coords):
        pw = {}
        av = eval_compiled(comp_a, coords, pw)
        gv = eval_compiled(comp_gate, coords, pw)
        sv = (coords[0] - eval_compiled(comp_phi, coords, pw)) ** 2
        mask = (gv >= 0) & (sv >= eta)
        return av / np.where(mask, sv, 1.0), mask

    floors = []
    for name, fn in (("negative-branch-floor", fn_c1),
                     ("graph-branch-floor", fn_cprime)):
        res = cone.scan(fn)
        if res.n_included == 0:
            # branch is empty on this region: vacuously true
            floors.append(StructuralCheck(name=name, passed=True,
                                          value=None, worst=None,
                                          n_points=0))
        else:
            floors.append(StructuralCheck(
                name=name, passed=res.min_value > 0, value=res.min_value,
                worst=(cone.point(res.min_flat),), n_points=res.n_included))

    # (iv) Lipschitz constant of m1 in t over the theta sweep
    m_at = {}
    for theta, key, res in zip(thetas, keys, results):
        m_at.setdefault(key, {})[theta.t] = res.m
    lip = 0.0
    n_lip = 0
    for key, by_t in m_at.items():
        base = by_t.get(Fraction(0))
        if base is None:
            continue
        for t, m in by_t.items():
            if t > 0:
                lip = max(lip, abs(m - base) / float(t))
                n_lip += 1
    lipschitz = StructuralCheck(name="minimum-lipschitz",
                                passed=math.isfinite(lip), value=lip,
                                worst=None, n_points=n_lip)

    checks = (recon, boundary, floors[0], floors[1], lipschitz)
    meta = dict(region.metadata())
    meta.update({"n_axis": n_axis, "n_w": n_w, "seed": seed,
                 "cutoff_delta": str(cutoff.delta),
                 "theta_budget": str(cutoff.delta / 4),
                 "label": "empirical"})
    return StructuralReport(passed=all(c.passed for c in checks),
                            checks=checks, grid=meta)


# ------------------------------------------------------------- full report


@dataclass(frozen=True)
class CertificateReport:
    nonneg: NonnegReport
    c: RatioEstimate
    kappa: RatioEstimate
    structural: Optional[StructuralReport]
    grid: dict
    label: str = "empirical"

    @property
    def c_est(self) -> float:
        return self.c.value

    @property
    def kappa_est(self) -> float:
        return self.kappa.value


def certify_region(a: PolySymbol, phi: PolySymbol, region: Region,
                   spec: Optional[NormalFormSpec] = None,
                   cert: Optional[TimeFunctionCert] = None,
                   structural_kwargs: Optional[dict] = None) -> CertificateReport:
    nonneg = verify_nonnegativity(a, region)
    c = estimate_c(a, phi, region)
    kappa = estimate_kappa(a, phi, region)
    structural = None
    if spec is not None and cert is not None:
        structural = check_structural(spec, cert, region,
                                      **(structural_kwargs or {}))
    return CertificateReport(nonneg=nonneg, c=c, kappa=kappa,
                             structural=structural, grid=region.metadata())

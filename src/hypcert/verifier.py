"""Grid certification engine.

Everything here is an empirical estimate: inf/sup of exact polynomial
data evaluated in floats over uniform tensor grids.  Grid points are
exact rationals, so every witness can be re-evaluated exactly.  The one
polynomial evaluator is PolySymbol.eval, called on a block's coordinates
and on the structural check's sample arrays.

One walker, TensorGrid.scan, visits a grid in C order as contiguous
flat blocks: one t value and a run of consecutive x_1 values, at most
_BLOCK points (split on further axes when one x_1 value alone is over).
Each axis is a float array shaped for numpy broadcasting, so a block's
coordinates are views, never rebuilt from flat indices.

certify_region is the one region scan: one fused pass over t >= 0,
evaluating a, phi and {phi, a} once per block for the nonneg, c and
kappa reductions, and one pass over the mirrored t < 0 grid evaluating a
only.  A c or kappa set with no point above the denominator floor is
reported as such (n_included == 0, no value, no witness); the caller
decides what it means.

check_structural is a stage of its own.  It treats its slow grid of
thetas as one batch, refused past MAX_THETAS before any is built: exact
values per axis, broadcast over the grid.  minimize_Q_path takes the
Newton stop test for the whole batch as one array at the theta = 0
minimizer and runs Newton, one theta at a time, only from the first
theta in continuation order that fails it; the reconstruction samples
are evaluated as arrays over sub-grids of at most _BLOCK samples.

Determinism contract: the scan is serial.  Each block is reduced on its
own (argmin/argmax with the lowest flat index winning ties), over the
values' own shape rather than their broadcast to the block, and the
per-block results are folded in block order with strict comparisons, so
the block budget never changes a single output bit.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from hypcert.normal_forms import (
    ExtendedQ,
    NormalFormSpec,
    Theta,
    build_cutoff,
    build_extended_Q,
    build_normal_form,
    horner,
    poly_derivative,
    uniform_axis,
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

Number = Union[int, float, Fraction]

DEFAULT_GRID = 33
_BLOCK = 1 << 18  # points per scan block
MAX_SCAN_POINTS = 1 << 30  # d = 2 at grid 33 is 39.1M points; d = 3 is 4.3e10
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


class ScanTooLarge(ValueError):
    """A tensor scan would visit more than MAX_SCAN_POINTS grid points, or
    a structural check would solve at more than MAX_THETAS thetas."""


class NegativeInput(ValueError):
    """The function must be nonnegative on the enlarged interval."""


class HessianDegenerate(RuntimeError):
    """Newton model unusable: singular or ill-conditioned Hessian."""


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
        if self.eta_den is not None and not (self.eta_den > 0
                                             and math.isfinite(self.eta_den)):
            raise ValueError("eta_den must be positive and finite")

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


def region_axes(region: Region, d: int, negative_t: bool = False,
                pin_last_xi: bool = False):
    """(slot, exact axis) pairs in slot order; tau stays out (fixed 0)."""
    n = region.grid
    if negative_t:
        pos = uniform_axis(Fraction(0), region.t_max, n)
        t_axis = tuple(-v for v in reversed(pos[1:]))
    else:
        t_axis = uniform_axis(Fraction(0), region.t_max, n)
    axes = [(0, t_axis)]
    for j in range(1, d + 1):
        axes.append((j, uniform_axis(-region.x_half, region.x_half, n)))
    for j in range(1, d + 1):
        center = Fraction(1) if j == d else Fraction(0)
        if pin_last_xi and j == d:
            axes.append((d + 1 + j, (Fraction(1),)))
        else:
            axes.append((d + 1 + j,
                         uniform_axis(center - region.xi_half,
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

    def __init__(self, d: int, axes):
        self.d = d
        self.slots = tuple(slot for slot, _ in axes)
        self.axes = tuple(tuple(ax) for _, ax in axes)
        self._lens = tuple(len(ax) for ax in self.axes)
        self.total = math.prod(self._lens)
        if self.total > MAX_SCAN_POINTS:
            raise ScanTooLarge("a scan of %d grid points exceeds the budget "
                               "of %d" % (self.total, MAX_SCAN_POINTS))
        self._strides = tuple(math.prod(self._lens[i + 1:])
                              for i in range(len(self._lens)))
        # Blocks fix the axes before `split` and run along it: the first
        # axis after t whose trailing axes fit in one block.
        split = min(1, len(self._lens) - 1)
        while (split < len(self._lens) - 1
               and self._strides[split] > _BLOCK):
            split += 1
        self._split = split
        self._run = max(1, _BLOCK // self._strides[split])
        ndim = len(self._lens) - split
        self._float_axes = []
        for i, ax in enumerate(self.axes):
            fax = np.array([float(v) for v in ax])
            if i >= split:
                shape = [1] * ndim
                shape[i - split] = -1
                fax = fax.reshape(shape)
            self._float_axes.append(fax)

    def point(self, flat: int) -> PhasePoint:
        vals = [Fraction(0)] * (2 * (self.d + 1))
        for slot, ax, stride, n in zip(self.slots, self.axes,
                                       self._strides, self._lens):
            vals[slot] = ax[(flat // stride) % n]
        return PhasePoint.from_sequence(self.d, vals)

    def _blocks(self):
        """(first flat index, block shape, coordinates by slot) in C order;
        the coordinates broadcast against the block shape."""
        split, run = self._split, self._run
        lead = (1,) * (len(self._lens) - split)
        zero = np.zeros(lead)
        n = self._lens[split]
        tail = self._lens[split + 1:]
        for prefix in itertools.product(*map(range, self._lens[:split])):
            base = sum(i * s for i, s in zip(prefix, self._strides))
            fixed = [fax[i:i + 1].reshape(lead)
                     for fax, i in zip(self._float_axes, prefix)]
            for lo in range(0, n, run):
                hi = min(lo + run, n)
                arrays = (fixed + [self._float_axes[split][lo:hi]]
                          + self._float_axes[split + 1:])
                coords = [zero] * (2 * (self.d + 1))
                for slot, arr in zip(self.slots, arrays):
                    coords[slot] = arr
                yield (base + lo * self._strides[split], (hi - lo,) + tail,
                       coords)

    def scan(self, fn) -> Tuple[ScanResult, ...]:
        """fn(coords) -> [(values, include_mask or None), ...] per block;
        one min/max reduction per pair.

        Block partials are combined in block order with strict
        comparisons, so the earliest (lowest flat index) extremum wins
        ties.
        """
        parts = [[_reduce(vals, mask, start, shape)
                  for vals, mask in fn(coords)]
                 for start, shape, coords in self._blocks()]
        return tuple(_fold(column, self.total) for column in zip(*parts))


def _reduce(vals, mask, start: int, shape):
    """(min, its flat index, max, its flat index, included) of the values
    broadcast to the block shape, reduced over the pair's own shape: the
    first C-order extremum of a broadcast array has index 0 on every
    broadcast axis, and each entry stands for that many block points."""
    own = np.broadcast_shapes(np.shape(vals),
                              () if mask is None else np.shape(mask))
    own = (1,) * (len(shape) - len(own)) + own
    vals = np.broadcast_to(vals, own)
    if mask is None:
        i, j = int(np.argmin(vals)), int(np.argmax(vals))
        mn, mx, n = vals.flat[i], vals.flat[j], vals.size
    else:
        mask = np.broadcast_to(mask, own)
        sel = np.flatnonzero(mask)
        if sel.size == 0:
            return (math.inf, -1, -math.inf, -1, 0)
        sub = vals[mask]
        i, j = int(np.argmin(sub)), int(np.argmax(sub))
        mn, mx, n = sub[i], sub[j], sel.size
        i, j = int(sel[i]), int(sel[j])
    if own != shape:
        i, j = (int(np.ravel_multi_index(np.unravel_index(k, own), shape))
                for k in (i, j))
    return (float(mn), start + i, float(mx), start + j,
            n * (math.prod(shape) // math.prod(own)))


def _fold(parts, total: int) -> ScanResult:
    best_min, min_flat = math.inf, -1
    best_max, max_flat = -math.inf, -1
    included = 0
    for mn, mni, mx, mxi, inc in parts:
        included += inc
        if mn < best_min:
            best_min, min_flat = mn, mni
        if mx > best_max:
            best_max, max_flat = mx, mxi
    return ScanResult(best_min, min_flat, best_max, max_flat, included, total)


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
    grid: dict


@dataclass(frozen=True)
class RatioEstimate:
    """value and witness are None when no grid point cleared the floor."""

    value: Optional[float]
    witness: Optional[PhasePoint]
    n_excluded: int
    n_included: int
    n_total: int
    eta_den: float
    grid: dict


def _nonneg_report(a: PolySymbol, region: Region, grid: TensorGrid,
                   pos: ScanResult) -> NonnegReport:
    """The t >= 0 minimum, plus the mirrored t < 0 scan of a."""
    scale = max(1.0, abs(pos.min_value), abs(pos.max_value))
    passed = pos.min_value >= -1e-12 * scale

    grid_neg = TensorGrid(a.d, region_axes(region, a.d, negative_t=True))
    neg, = grid_neg.scan(lambda coords: [(a.eval(coords), None)])
    neg_scale = max(1.0, abs(neg.min_value), abs(neg.max_value))
    found = neg.min_value < -1e-12 * neg_scale
    side = SideWitness(
        found_negative=found,
        witness=grid_neg.point(neg.min_flat) if found else None,
        value=neg.min_value if found else None)
    return NonnegReport(passed=passed, min_value=pos.min_value,
                        witness=grid.point(pos.min_flat),
                        negative_side=side, n_points=pos.n_total,
                        grid=region.metadata())


def _ratio_estimate(region: Region, grid: TensorGrid, res: ScanResult,
                    use_max: bool) -> RatioEstimate:
    if res.n_included == 0:
        value, witness = None, None
    elif use_max:
        value, witness = res.max_value, grid.point(res.max_flat)
    else:
        value, witness = res.min_value, grid.point(res.min_flat)
    return RatioEstimate(value=value, witness=witness,
                         n_excluded=res.n_total - res.n_included,
                         n_included=res.n_included, n_total=res.n_total,
                         eta_den=region.denominator_floor(),
                         grid=region.metadata())


# ----------------------------------------------------------------- glaeser


@dataclass(frozen=True)
class GlaeserReport:
    passed: bool
    worst_ratio: Union[Fraction, float]
    worst_point: Optional[Fraction]
    sup_second: Fraction
    n_points: int


def glaeser_check(coeffs: Sequence[Number], interval, margin: Number = 0,
                  points: int = 257) -> GlaeserReport:
    """For nonnegative f, check f'(s)^2 <= 2 sup|f''| f(s) on the core
    interval; sup|f''| is taken over the margin-enlarged interval."""
    cs = tuple(as_fraction(c) for c in coeffs)
    lo, hi = (as_fraction(interval[0]), as_fraction(interval[1]))
    margin = as_fraction(margin)
    if margin < 0 or hi <= lo:
        raise ValueError("need lo < hi and margin >= 0")
    if points < 3:
        raise ValueError("points must be >= 3, got %d" % points)
    d1 = poly_derivative(cs)
    d2 = poly_derivative(d1)
    wide = uniform_axis(lo - margin, hi + margin, points)
    for s in wide:
        if horner(cs, s) < 0:
            raise NegativeInput("f(%s) < 0 on the enlarged interval" % s)
    sup2 = max(abs(horner(d2, s)) for s in wide)
    core = uniform_axis(lo, hi, points)
    worst = Fraction(0)
    worst_point = None
    for s in core:
        num = horner(d1, s) ** 2
        den = 2 * sup2 * horner(cs, s)
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
               w0: Optional[Sequence[float]] = None) -> MinimizeResult:
    """Safeguarded damped Newton on grad_w Q = 0, started from the
    closed-form theta = 0 minimizer (or a warm start), accepting only
    Q-decreasing steps.  An iterate from which no step decreases Q is
    converged when the Newton decrement is below the rounding floor of Q."""
    nw = eq.w_dim
    if nw == 0:
        return MinimizeResult(m=float(eq.value((), theta)), w_bar=(),
                              hessian_cond=1.0, grad_norm=0.0, iterations=0)
    if w0 is None:
        w0 = [float(v) for v in eq.theta0_minimizer()[0]]
    w = np.array([float(v) for v in w0], dtype=float)
    for it in range(1, MAX_NEWTON_ITER + 1):
        val, grad, hess = eq.value_grad_hess(tuple(w), theta)
        gn, converged = _stationary(val, grad)
        cond = float(np.linalg.cond(hess))
        if converged:
            break
        if not math.isfinite(cond) or cond > 1e12:
            raise HessianDegenerate("condition number %.3e" % cond)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise HessianDegenerate(str(exc)) from exc
        if float(grad @ step) >= 0:
            step = -grad
        t = 1.0
        for _ in range(40):
            cand = w + t * step
            if float(eq.value(tuple(float(v) for v in cand), theta)) < val:
                w = cand
                break
            t *= 0.5
        else:
            if -float(grad @ step) <= 4 * _EPS * (1 + abs(val)):
                break
            raise NoConvergence("no decreasing step at grad norm %.3e" % gn)
    else:
        raise NoConvergence("no convergence in %d iterations"
                            % MAX_NEWTON_ITER)
    return MinimizeResult(m=float(val), w_bar=tuple(float(v) for v in w),
                          hessian_cond=cond, grad_norm=float(gn),
                          iterations=it - 1)


def _stationary(val, grad):
    """minimize_Q's stop test: (|grad_w Q|, |grad_w Q| <= 1e-10 (1 + |Q|)),
    elementwise over a batch of thetas.  The squares are summed in w
    order, so a batch entry rounds as its theta alone does."""
    sq = 0.0
    for g in grad:
        sq = sq + g * g
    gn = np.sqrt(sq)
    return gn, gn <= 1e-10 * (1 + abs(val))


@dataclass(frozen=True)
class PathMinima:
    """Minima along a continuation path over a batch of thetas, numbered
    as the batch is: m[i], and w_bar[i] with one entry per w coordinate.
    The thetas order[:newton_from] met minimize_Q's stop test at the warm
    start; Newton solved the rest in order, each warm-started from the
    one before."""

    m: np.ndarray
    w_bar: np.ndarray
    order: np.ndarray
    newton_from: int


def minimize_Q_path(eq: ExtendedQ, thetas: Theta) -> PathMinima:
    """Continuation over a batch of thetas, sorted by (magnitude, number).

    The stop test is taken for the whole batch as one array at the
    closed-form theta = 0 minimizer, which warm-starts the path.  Up to
    the first theta that fails it, each minimum is Q there (iteration 0).
    From that theta on minimize_Q runs in order, warm-started from the
    previous minimizer, so every result is the sequential path's."""
    w0 = tuple(float(v) for v in eq.theta0_minimizer()[0])
    val, grad, _ = eq.value_grad_hess(w0, thetas)
    shape = thetas.shape
    converged = np.broadcast_to(_stationary(val, grad)[1], shape).ravel()
    m = np.broadcast_to(val, shape).flatten()
    w_bar = np.tile(np.asarray(w0, dtype=float), (m.size, 1))
    order = np.argsort(np.broadcast_to(thetas.magnitude(), shape).ravel(),
                       kind="stable")
    failed = np.flatnonzero(~converged[order])
    start = int(failed[0]) if failed.size else m.size
    w_prev = w0
    for i in order[start:]:
        res = minimize_Q(eq, thetas.entry(i), w0=w_prev)
        m[i], w_bar[i], w_prev = res.m, res.w_bar, res.w_bar
    return PathMinima(m=m, w_bar=w_bar, order=order, newton_from=start)


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


def _subgrids(shape, per_point: int):
    """(first number, index prefix) of the sub-grids that fix the leading
    axes of a grid numbered in C order, each of at most _BLOCK //
    per_point points (a single point at the least)."""
    lead = 0
    while lead < len(shape) and per_point * math.prod(shape[lead:]) > _BLOCK:
        lead += 1
    size = math.prod(shape[lead:])
    for k, prefix in enumerate(itertools.product(*map(range, shape[:lead]))):
        yield k * size, prefix


def _fix(v, prefix):
    """v at an index prefix of the grid it broadcasts over, every axis kept
    and a trailing one added."""
    return v[tuple(slice(i, i + 1) if n > 1 else slice(None)
                   for i, n in zip(prefix, v.shape))][..., None]


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
    warm-started sweep of m1 over the slow axes.

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
    shape = thetas.shape
    path = minimize_Q_path(eq, thetas)
    # eps^2 once per distinct eps, as Python's float ** 2 (libm pow), which
    # numpy's square can differ from in the last bit
    eps2 = np.frompyfunc(lambda e: float(e) ** 2, 1, 1)(
        thetas.eps).astype(float)

    # (i) reconstruction floor at the minimizer and N_W seeded w draws per
    # theta, in theta order; sub-grids of thetas keep a block's samples
    # within _BLOCK
    rng = random.Random(SEED)
    n, nw = path.w_bar.shape
    # random.uniform(-delta, delta)'s own formula on the same draws, so
    # the values are bit-identical to drawing them one uniform at a time
    draws = -delta + (delta - -delta) * np.fromiter(
        (rng.random() for _ in range(n * N_W * nw)), float, n * N_W * nw)
    samples = path.w_bar[:, None]
    if nw:
        samples = np.concatenate(
            [samples, draws.reshape(n, N_W, nw)], axis=1)
    per = samples.shape[1]
    recon_min, recon_at = math.inf, None
    for first, prefix in _subgrids(shape, per):
        sub = (1,) * len(prefix) + shape[len(prefix):]
        rows = slice(first, first + math.prod(sub))
        pt = eq.substituted_point(
            [samples[rows, :, j].reshape(sub + (per,)) for j in range(nw)],
            thetas.map(lambda v: _fix(v, prefix)))
        ahat = a.eval(pt) / eq.divisor(pt)
        margin = (ahat - path.m[rows].reshape(sub + (1,)) * _fix(eps2, prefix)
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
    edge = thetas.map(lambda v: v[:1])
    rem = spec.remainder.eval(
        eq.substituted_point((0.0,) * nw, edge))
    bnd = np.broadcast_to(path.m.reshape(shape)[:1] * eps2[:1] + rem,
                          edge.shape).ravel()
    k = int(np.argmin(bnd))
    bnd_min, bnd_worst = math.inf, None
    if bnd[k] < bnd_min:
        th = thetas.entry(k)
        bnd_min, bnd_worst = float(bnd[k]), (th.z_x, th.z_xi, th.x_p)
    boundary = StructuralCheck(name="zero-time-boundary",
                               passed=bnd_min >= -1e-9,
                               value=bnd_min, worst=bnd_worst,
                               n_points=bnd.size)

    # (iii) branch floors on the pinned cone
    eta = region.denominator_floor()
    cone = TensorGrid(d, region_axes(region, d, pin_last_xi=True))

    def fn(coords):
        av = a.eval(coords)
        gv = spec.gate.eval(coords)
        t2 = coords[0] ** 2
        neg = (gv < 0) & (t2 >= eta)
        sv = (coords[0] - cert.phi.eval(coords)) ** 2
        graph = (gv >= 0) & (sv >= eta)
        return [(av / np.where(neg, t2, 1.0), neg),
                (av / np.where(graph, sv, 1.0), graph)]

    floors = []
    for name, res in zip(("negative-branch-floor", "graph-branch-floor"),
                         cone.scan(fn)):
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
    by_t = path.m.reshape(len(axes[0]), -1)
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
    label: str = "empirical"

    @property
    def c_est(self) -> Optional[float]:
        return self.c.value

    @property
    def kappa_est(self) -> Optional[float]:
        return self.kappa.value


def certify_region(a: PolySymbol, phi: PolySymbol,
                   region: Region) -> CertificateReport:
    """nonneg, c and kappa from one fused pass over t >= 0, evaluating a,
    phi and {phi, a} once per block, and one pass over the mirrored t < 0
    grid evaluating a only.

    c is the inf of a / (min{t^2, (t - phi)^2} |xi|^2) where that
    denominator clears the region floor, and kappa the sup of
    {phi, a}^2 / (4a) where a clears it; the bracket is exact, only the
    evaluation is in floats."""
    if phi.d != a.d:
        raise DimensionMismatch("phi has d=%d, a has d=%d" % (phi.d, a.d))
    for p, name in ((a, "a"), (phi, "phi")):
        if p.depends_on(p.d + 1):
            raise ValueError("%s must not depend on tau" % name)
    d = a.d
    eta = region.denominator_floor()
    bracket = poisson_bracket(phi, a)
    xi_sq = sum((xi * xi for xi in phase_variables(d)[3]), PolySymbol.zero(d))

    def fn(coords):
        av = a.eval(coords)
        t = coords[0]
        den = (np.minimum(t ** 2, (t - phi.eval(coords)) ** 2)
               * xi_sq.eval(coords))
        c_in, kappa_in = den >= eta, av >= eta
        return [(av, None),
                (av / np.where(c_in, den, 1.0), c_in),
                (bracket.eval(coords) ** 2 / np.where(kappa_in, 4.0 * av, 1.0),
                 kappa_in)]

    grid = TensorGrid(d, region_axes(region, d))
    pos, c, kappa = grid.scan(fn)
    return CertificateReport(
        c=_ratio_estimate(region, grid, c, use_max=False),
        kappa=_ratio_estimate(region, grid, kappa, use_max=True),
        nonneg=_nonneg_report(a, region, grid, pos), grid=region.metadata())

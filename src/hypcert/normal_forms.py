"""The two admissible branch shapes of a near a double characteristic,
their side conditions, and the cutoff-extended functional minimized in
the certification argument.

Branch "form1" (remainder square):

    a = sum_{i=1}^p (x_{i-1} - x_i)^2 q_i + sum_{i=1}^p xi_i^2 r_i
        + ((x_p - phi)^2 + psi) q_{p+1},          x_0 = t,  0 <= p <= d-1

with phi, psi functions of the transverse block (x_{p+1}.., xi_{p+1}..)
vanishing at the base point.

Branch "form2" (elliptic remainder):

    a = sum_{i=1}^p (x_{i-1} - x_i)^2 q_i + sum_{i=1}^p xi_i^2 r_i
        + g r_p,                                   1 <= p <= d-1

with g of xi-degree 2, free of (t, x_1..x_{p-1}, xi_1..xi_p), vanishing
at the base point.  The q_i are xi-degree-2 factors positive at the base
point; the r_i are xi-degree-0 factors positive there.

The extended functional Q(w, theta) substitutes scaled, cutoff-bounded
chain coordinates into the factors:

    form1:  x_a = t + eps * dchi(y_a),   xi_a = eps * dchi(eta_a)
    form2:  x_a = x_p - eps * dchi(y_a), xi_a = eps * dchi(eta_a)

(dchi(s) = delta * chi(s / delta), the identity on |s| <= delta), while
the quadratic prefactors use the raw w = (y, eta).  Wherever the cutoff
acts as the identity the exact algebra

    a(P(w, theta)) = eps^2 Q(w, theta) + remainder(w, theta)

holds, with remainder psi * q_{p+1}(P) resp. g * r_p(P).  The division
of Q by the remainder factor (mode "normalized") is what the structural
reconstruction inequality is stated for.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    as_fraction,
    homogeneity_check,
    poisson_bracket,
)

Number = Union[int, float, Fraction]


class InvariantViolation(ValueError):
    """A branch ingredient breaks a declared invariant; names the field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.field = fieldname


@dataclass(frozen=True)
class NormalFormSpec:
    """Data for one of the two branch shapes, validated on construction
    (InvariantViolation names the first field that breaks an invariant).

    q has length p+1 for form1 (the last entry multiplies the remainder
    square) and length p for form2; r always has length p.  phi/psi are
    form1 data, g is form2 data.
    """

    variant: str
    d: int
    p: int
    q: Tuple[PolySymbol, ...]
    r: Tuple[PolySymbol, ...]
    phi: Optional[PolySymbol] = None
    psi: Optional[PolySymbol] = None
    g: Optional[PolySymbol] = None

    def __post_init__(self):
        validate_spec(self)

    def base_point(self) -> PhasePoint:
        return PhasePoint.base(self.d)

    def q_bars(self) -> Tuple[Fraction, ...]:
        b = self.base_point()
        return tuple(qi.eval(b) for qi in self.q)

    def r_bars(self) -> Tuple[Fraction, ...]:
        b = self.base_point()
        return tuple(ri.eval(b) for ri in self.r)


def _require(cond, fieldname, message):
    if not cond:
        raise InvariantViolation(fieldname, message)


def _check_free_of(poly: PolySymbol, slots, fieldname):
    for i in slots:
        _require(not poly.depends_on(i), fieldname,
                 "must not depend on variable slot %d" % i)


def validate_spec(spec: NormalFormSpec) -> None:
    """Raise InvariantViolation on the first failed branch invariant."""
    d, p = spec.d, spec.p
    _require(spec.variant in ("form1", "form2"), "variant",
             "must be 'form1' or 'form2'")
    _require(d >= 1, "d", "spatial dimension must be >= 1")
    if spec.variant == "form1":
        _require(0 <= p <= d - 1, "p", "form1 needs 0 <= p <= d-1")
        _require(len(spec.q) == p + 1, "q", "form1 needs p+1 factors q")
        _require(spec.phi is not None and spec.psi is not None, "phi",
                 "form1 needs phi and psi")
        _require(spec.g is None, "g", "form1 takes no g")
    else:
        _require(1 <= p <= d - 1, "p", "form2 needs 1 <= p <= d-1")
        _require(len(spec.q) == p, "q", "form2 needs p factors q")
        _require(spec.g is not None, "g", "form2 needs g")
        _require(spec.phi is None and spec.psi is None, "phi",
                 "form2 takes no phi/psi")
    _require(len(spec.r) == p, "r", "needs p factors r")

    base = spec.base_point()
    tau_slot = d + 1
    for name, polys, deg in (("q", spec.q, 2), ("r", spec.r, 0)):
        for i, poly in enumerate(polys, start=1):
            fieldname = "%s%d" % (name, i)
            _require(poly.d == d, fieldname, "wrong dimension")
            _check_free_of(poly, [tau_slot], fieldname)
            ok, _ = homogeneity_check(poly, deg)
            _require(ok, fieldname, "must be xi-homogeneous of degree %d" % deg)
            _require(poly.eval(base) > 0, fieldname,
                     "must be positive at the base point")

    chain_x = list(range(1, p + 1))
    chain_xi = list(range(d + 2, d + 2 + p))
    if spec.variant == "form1":
        for stem, poly in (("phi", spec.phi), ("psi", spec.psi)):
            fieldname = "%s_%d" % (stem, p)
            _require(poly.d == d, fieldname, "wrong dimension")
            _check_free_of(poly, [0, tau_slot] + chain_x + chain_xi, fieldname)
            ok, _ = homogeneity_check(poly, 0)
            _require(ok, fieldname, "must be xi-homogeneous of degree 0")
            _require(poly.eval(base) == 0, fieldname,
                     "must vanish at the base point")
    else:
        g = spec.g
        fieldname = "g_%d" % p
        _require(g.d == d, fieldname, "wrong dimension")
        _check_free_of(g, [0, tau_slot] + chain_x[:-1] + chain_xi, fieldname)
        ok, _ = homogeneity_check(g, 2)
        _require(ok, fieldname, "must be xi-homogeneous of degree 2")
        _require(g.eval(base) == 0, fieldname, "must vanish at the base point")


def build_normal_form(spec: NormalFormSpec) -> PolySymbol:
    """Assemble the composite a for a validated spec (exact)."""
    d, p = spec.d, spec.p
    t = PolySymbol.coordinate(d, "t")
    xs = [PolySymbol.coordinate(d, "x%d" % i) for i in range(1, d + 1)]
    xis = [PolySymbol.coordinate(d, "xi%d" % i) for i in range(1, d + 1)]
    chain = [t] + xs
    a = PolySymbol.zero(d)
    for i in range(1, p + 1):
        a = a + (chain[i - 1] - chain[i]) ** 2 * spec.q[i - 1]
        a = a + xis[i - 1] ** 2 * spec.r[i - 1]
    if spec.variant == "form1":
        xp = chain[p]  # x_0 = t when p = 0
        a = a + ((xp - spec.phi) ** 2 + spec.psi) * spec.q[p]
    else:
        a = a + spec.g * spec.r[p - 1]
    return a


# ------------------------------------------------------------- side checks


@dataclass(frozen=True)
class SideConditionReport:
    ok: bool
    double_bracket: Fraction
    bbis_sum: Optional[Fraction]
    bbis_ok: Optional[bool]
    one_sided_ok: bool
    one_sided_witness: Optional[Tuple]
    grid: dict
    notes: Tuple[str, ...]


def _sample_axis(half: Fraction, n: int):
    if n <= 1:
        return [Fraction(0)]
    step = 2 * half / (n - 1)
    return [-half + k * step for k in range(n)]


def check_side_conditions(spec: NormalFormSpec,
                          half_width: Number = Fraction(1, 2),
                          points: int = 11,
                          xi_half_width: Number = Fraction(1, 4),
                          xi_points: int = 3) -> SideConditionReport:
    """Exact side conditions plus sampled one-sided sign checks.

    form1: {phi, {phi, psi}} vanishes at the base point (trivially exact
    for xi-free polynomial data) and psi >= 0 wherever phi >= 0 on the
    transverse sample grid.
    form2: the second x_p-derivative of g vanishes at the base point,
    the elliptic weights satisfy sum_i 1/r_i(base) > 1 strictly, and
    g >= 0 wherever x_p >= 0 on the sample grid.
    """
    d, p = spec.d, spec.p
    base = spec.base_point()
    notes = []
    half = as_fraction(half_width)
    xi_half = as_fraction(xi_half_width)

    if spec.variant == "form1":
        br = poisson_bracket(spec.phi, poisson_bracket(spec.phi, spec.psi))
        double_bracket = br.eval(base)
        bbis_sum = None
        bbis_ok = None
        sign_poly, gate_poly = spec.psi, spec.phi
    else:
        xi_p = PolySymbol.coordinate(d, "xi%d" % p)
        br = poisson_bracket(xi_p, poisson_bracket(xi_p, spec.g))
        double_bracket = br.eval(base)
        bbis_sum = sum(Fraction(1) / v for v in spec.r_bars())
        bbis_ok = bbis_sum > 1
        if not bbis_ok:
            notes.append("elliptic weights give no real eigenvalue pair "
                         "(sum of inverse r at the base point is %s <= 1); "
                         "not effectively hyperbolic" % bbis_sum)
        sign_poly, gate_poly = spec.g, PolySymbol.coordinate(d, "x%d" % p)

    # one-sided sign scan over the variables the sign polynomial uses
    moving = [i for i in range(2 * (d + 1))
              if sign_poly.depends_on(i) or gate_poly.depends_on(i)]
    xi_base = base.as_tuple()
    axes = []
    for i in moving:
        if i >= d + 2:  # xi slot: box around the base covector
            axes.append([xi_base[i] + v for v in _sample_axis(xi_half, xi_points)])
        else:
            axes.append(_sample_axis(half, points))
    one_sided_ok = True
    witness = None
    pt = list(xi_base)
    for combo in itertools.product(*axes):
        for i, v in zip(moving, combo):
            pt[i] = v
        if gate_poly.eval(pt) >= 0 and sign_poly.eval(pt) < 0:
            one_sided_ok = False
            witness = tuple(pt)
            break

    ok = (double_bracket == 0) and (bbis_ok is not False) and one_sided_ok
    grid = {"half_width": str(half), "points": points,
            "xi_half_width": str(xi_half), "xi_points": xi_points,
            "moving_slots": moving}
    return SideConditionReport(ok=ok, double_bracket=double_bracket,
                               bbis_sum=bbis_sum, bbis_ok=bbis_ok,
                               one_sided_ok=one_sided_ok,
                               one_sided_witness=witness,
                               grid=grid, notes=tuple(notes))


# ----------------------------------------------------------------- cutoff


_H = (Fraction(1), Fraction(1), Fraction(0), Fraction(4), Fraction(-7), Fraction(3))
_H1 = (Fraction(1), Fraction(0), Fraction(12), Fraction(-28), Fraction(15))
_H2 = (Fraction(0), Fraction(24), Fraction(-84), Fraction(60))


def _horner(coeffs, v):
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * v + c
    return out


@dataclass(frozen=True)
class Cutoff:
    """Odd C^2 cutoff: chi(s) = s on |s| <= 1, |chi| = 2 on |s| >= 2,
    chi' >= 0, with a quintic transition (integer coefficients, so chi
    is exact at rational arguments).

    scaled(s) = delta * chi(s / delta) is the identity on |s| <= delta
    and bounded by 2 delta; its j-th derivative is chi^(j)(s/delta) *
    delta^(1-j), so one factor of 1/delta is paid per derivative.
    """

    delta: Fraction

    def chi(self, s: Number) -> Number:
        neg = s < 0
        u = -s if neg else s
        if u <= 1:
            out = u
        elif u >= 2:
            out = u - u + 2  # keeps the numeric type of s
        else:
            out = _horner(_H, u - 1)
        return -out if neg else out

    def chi_prime(self, s: Number) -> Number:
        u = -s if s < 0 else s
        if u <= 1:
            return u - u + 1
        if u >= 2:
            return u - u
        return _horner(_H1, u - 1)

    def chi_second(self, s: Number) -> Number:
        neg = s < 0
        u = -s if neg else s
        if u <= 1 or u >= 2:
            out = u - u
        else:
            out = _horner(_H2, u - 1)
        return -out if neg else out

    def scaled(self, s: Number) -> Number:
        return self.delta * self.chi(s / self.delta)

    def scaled_prime(self, s: Number) -> Number:
        return self.chi_prime(s / self.delta)

    def scaled_second(self, s: Number) -> Number:
        return self.chi_second(s / self.delta) / self.delta


def build_cutoff(delta: Number) -> Cutoff:
    if isinstance(delta, float):
        delta = Fraction(delta)
    else:
        delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("cutoff scale must be positive")
    return Cutoff(delta=delta)


# --------------------------------------------------------------- extended Q


@dataclass(frozen=True)
class Theta:
    """Slow coordinates of the extended functional: time t, transverse
    block z = (z_x, z_xi) relative to the base covector, the scale eps,
    and (form2 only) the raw x_p slot."""

    t: Number
    z_x: Tuple[Number, ...]
    z_xi: Tuple[Number, ...]
    eps: Number
    x_p: Optional[Number] = None

    def magnitude(self) -> float:
        m = abs(self.t) + sum(abs(v) for v in self.z_x) \
            + sum(abs(v) for v in self.z_xi)
        if self.x_p is not None:
            m += abs(self.x_p)
        return float(m)


@dataclass(frozen=True)
class ExtendedQ:
    """Evaluator for Q(w, theta) plus exact theta = 0 bookkeeping.

    w = (y_1..y_p, eta_1..eta_p) for form1 and (y_1..y_{p-1},
    eta_1..eta_p) for form2 (y_p is pinned to 0 there).  mode "raw"
    carries the remainder-square factor q_{p+1} (resp. r_p) on the
    anchor; mode "normalized" divides the whole functional by that
    factor at the substituted point.
    """

    spec: NormalFormSpec
    cutoff: Cutoff
    mode: str = "raw"

    def __post_init__(self):
        if self.mode not in ("raw", "normalized"):
            raise ValueError("mode must be 'raw' or 'normalized'")

    # -- shape helpers -------------------------------------------------

    @property
    def w_dim(self) -> int:
        p = self.spec.p
        return 2 * p if self.spec.variant == "form1" else 2 * p - 1

    def _split(self, w):
        p = self.spec.p
        if len(w) != self.w_dim:
            raise DimensionMismatch("w must have length %d" % self.w_dim)
        if self.spec.variant == "form1":
            ys = list(w[:p])
            etas = list(w[p:])
        else:
            ys = list(w[:p - 1]) + [0]
            etas = list(w[p - 1:])
        return ys, etas

    def theta_zero(self) -> Theta:
        k = self.spec.d - self.spec.p
        return Theta(t=0, z_x=(0,) * k, z_xi=(0,) * k, eps=0,
                     x_p=0 if self.spec.variant == "form2" else None)

    def pinned_theta(self, t: Number, z_x: Sequence, z_xi: Sequence,
                     x_p: Optional[Number] = None) -> Theta:
        """Theta with eps = t - phi(z) (form1) resp. t - x_p (form2)."""
        z_x, z_xi = tuple(z_x), tuple(z_xi)
        if self.spec.variant == "form1":
            pt = self._transverse_point(t, z_x, z_xi)
            eps = t - self.spec.phi.eval(pt)
            return Theta(t=t, z_x=z_x, z_xi=z_xi, eps=eps)
        if x_p is None:
            raise ValueError("form2 needs the raw x_p slot")
        return Theta(t=t, z_x=z_x, z_xi=z_xi, eps=t - x_p, x_p=x_p)

    def _transverse_point(self, t, z_x, z_xi):
        d, p = self.spec.d, self.spec.p
        pt = [0] * (2 * (d + 1))
        pt[0] = t
        for k, v in enumerate(z_x):
            pt[p + 1 + k] = v
        for k, v in enumerate(z_xi):
            pt[d + 2 + p + k] = v
        pt[2 * d + 1] = pt[2 * d + 1] + 1  # base covector offset on xi_d
        return pt

    def substituted_point(self, w, theta: Theta):
        """Full phase point fed to every factor (tau slot stays 0)."""
        d, p = self.spec.d, self.spec.p
        ys, etas = self._split(w)
        k = d - p
        if len(theta.z_x) != k or len(theta.z_xi) != k:
            raise DimensionMismatch("transverse block must have length %d" % k)
        pt = self._transverse_point(theta.t, theta.z_x, theta.z_xi)
        eps = theta.eps
        if self.spec.variant == "form1":
            for a in range(1, p + 1):
                pt[a] = theta.t + eps * self.cutoff.scaled(ys[a - 1])
        else:
            if theta.x_p is None:
                raise ValueError("form2 theta needs x_p")
            for a in range(1, p):
                pt[a] = theta.x_p - eps * self.cutoff.scaled(ys[a - 1])
            pt[p] = theta.x_p
        for a in range(1, p + 1):
            pt[d + 1 + a] = eps * self.cutoff.scaled(etas[a - 1])
        return pt

    # -- prefactor table ------------------------------------------------

    def _terms(self, ys, etas):
        """(prefactor value, factor symbol) pairs at raw w."""
        spec = self.spec
        p = spec.p
        out = []
        if spec.variant == "form1":
            prev = 0
            for j in range(1, p + 1):
                out.append(((prev - ys[j - 1]) ** 2, spec.q[j - 1]))
                prev = ys[j - 1]
            out.append(((prev + 1) ** 2, spec.q[p]))
        else:
            out.append(((ys[0] + 1) ** 2 if p > 1 else 1, spec.q[0]))
            for j in range(2, p + 1):
                out.append(((ys[j - 2] - ys[j - 1]) ** 2, spec.q[j - 1]))
        for a in range(1, p + 1):
            out.append((etas[a - 1] ** 2, spec.r[a - 1]))
        return out

    def _remainder_factor_symbol(self) -> PolySymbol:
        if self.spec.variant == "form1":
            return self.spec.q[self.spec.p]
        return self.spec.r[self.spec.p - 1]

    # -- evaluation ------------------------------------------------------

    def value(self, w, theta: Theta):
        """Q(w, theta); exact when w and theta are rational."""
        ys, etas = self._split(w)
        pt = self.substituted_point(w, theta)
        total = 0
        for pref, sym in self._terms(ys, etas):
            if pref != 0:
                total = total + pref * sym.eval(pt)
        if self.mode == "normalized":
            total = total / self._remainder_factor_symbol().eval(pt)
        return total

    def remainder(self, w, theta: Theta):
        """psi * q_{p+1}(P) (form1) resp. g * r_p(P) (form2) at the
        substituted point; this completes a(P) = eps^2 Q + remainder."""
        pt = self.substituted_point(w, theta)
        fac = self._remainder_factor_symbol().eval(pt)
        if self.spec.variant == "form1":
            return self.spec.psi.eval(pt) * fac
        return self.spec.g.eval(pt) * fac

    def theta0_value(self, w):
        """Closed quadratic Q(w, 0) from the cached base values."""
        ys, etas = self._split(w)
        qb, rb = self.spec.q_bars(), self.spec.r_bars()
        spec = self.spec
        p = spec.p
        total = Fraction(0)
        if spec.variant == "form1":
            prev = 0
            for j in range(1, p + 1):
                total += (prev - ys[j - 1]) ** 2 * qb[j - 1]
                prev = ys[j - 1]
            total += (prev + 1) ** 2 * qb[p]
        else:
            total += ((ys[0] + 1) ** 2 if p > 1 else 1) * qb[0]
            for j in range(2, p + 1):
                total += (ys[j - 2] - ys[j - 1]) ** 2 * qb[j - 1]
        for a in range(1, p + 1):
            total += etas[a - 1] ** 2 * rb[a - 1]
        if self.mode == "normalized":
            total = total / (qb[p] if spec.variant == "form1" else rb[p - 1])
        return total

    def theta0_minimizer(self):
        """Exact minimizer and minimum of Q(., 0): the chain terms form
        springs in series between the anchored endpoints, so the partial
        resistances 1/q_bar accumulate."""
        spec = self.spec
        qb, rb = spec.q_bars(), spec.r_bars()
        p = spec.p
        if spec.variant == "form1":
            inv = [Fraction(1) / v for v in qb]
            s = sum(inv)
            m0 = 1 / s
            ys = []
            acc = Fraction(0)
            for k in range(p):
                acc += inv[k]
                ys.append(-acc / s)
            w = tuple(ys) + (Fraction(0),) * p
        else:
            inv = [Fraction(1) / v for v in qb]
            s = sum(inv)
            m0 = 1 / s
            ys = []
            acc = Fraction(0)
            for k in range(p - 1):
                acc += inv[k]
                ys.append(-1 + acc / s)
            w = tuple(ys) + (Fraction(0),) * p
        if self.mode == "normalized":
            m0 = m0 / (qb[p] if spec.variant == "form1" else rb[p - 1])
        return w, m0

    # -- analytic derivatives in w ----------------------------------------

    def _moving_slots(self, ys, etas, eps):
        """w index -> (phase slot, dP/dw, d2P/dw2)."""
        d, p = self.spec.d, self.spec.p
        cut = self.cutoff
        slots = []
        sign = 1 if self.spec.variant == "form1" else -1
        ny = p if self.spec.variant == "form1" else p - 1
        for a in range(1, ny + 1):
            y = ys[a - 1]
            slots.append((a, sign * eps * cut.scaled_prime(y),
                          sign * eps * cut.scaled_second(y)))
        for a in range(1, p + 1):
            e = etas[a - 1]
            slots.append((d + 1 + a, eps * cut.scaled_prime(e),
                          eps * cut.scaled_second(e)))
        return slots

    def _pref_derivatives(self, ys, etas):
        """Prefactor values with gradients/Hessians in w per term."""
        spec = self.spec
        p = spec.p
        nw = self.w_dim
        terms = []

        def quad(val, grad_pairs, hess_pairs):
            grad = [0] * nw
            for idx, v in grad_pairs:
                grad[idx] += v
            hess = [[0] * nw for _ in range(nw)]
            for i, j, v in hess_pairs:
                hess[i][j] += v
                if i != j:
                    hess[j][i] += v
            return val, grad, hess

        if spec.variant == "form1":
            prev_idx = None
            for j in range(1, p + 1):
                cur = j - 1
                diff = (ys[j - 2] if j > 1 else 0) - ys[j - 1]
                gp = [(cur, -2 * diff)]
                hp = [(cur, cur, 2)]
                if prev_idx is not None:
                    gp.append((prev_idx, 2 * diff))
                    hp.append((prev_idx, prev_idx, 2))
                    hp.append((prev_idx, cur, -2))
                terms.append(quad(diff ** 2, gp, hp))
                prev_idx = cur
            anchor = ys[p - 1] + 1 if p else 1
            gp = [(p - 1, 2 * anchor)] if p else []
            hp = [(p - 1, p - 1, 2)] if p else []
            terms.append(quad(anchor ** 2, gp, hp))
            eta_off = p
        else:
            if p > 1:
                anchor = ys[0] + 1
                terms.append(quad(anchor ** 2, [(0, 2 * anchor)], [(0, 0, 2)]))
            else:
                terms.append(quad(1, [], []))
            for j in range(2, p + 1):
                iy, jy = j - 2, j - 1
                diff = ys[j - 2] - ys[j - 1]
                gp = [(iy, 2 * diff)]
                hp = [(iy, iy, 2)]
                if jy < p - 1:  # y_p is pinned, carries no w index
                    gp.append((jy, -2 * diff))
                    hp.append((jy, jy, 2))
                    hp.append((iy, jy, -2))
                terms.append(quad(diff ** 2, gp, hp))
            eta_off = p - 1
        for a in range(1, p + 1):
            idx = eta_off + a - 1
            e = etas[a - 1]
            terms.append(quad(e ** 2, [(idx, 2 * e)], [(idx, idx, 2)]))
        return terms

    def value_grad_hess(self, w, theta: Theta):
        """(Q, grad_w Q, hess_w Q) as floats, analytic chain rule."""
        ys, etas = self._split(w)
        pt = [float(v) for v in self.substituted_point(w, theta)]
        eps = float(theta.eps)
        nw = self.w_dim
        slots = self._moving_slots([float(y) for y in ys],
                                   [float(e) for e in etas], eps)
        slot_of = {i: (s, d1, d2) for i, (s, d1, d2) in enumerate(slots)}
        prefs = self._pref_derivatives([float(y) for y in ys],
                                       [float(e) for e in etas])
        syms = [sym for _, sym in self._terms(ys, etas)]
        if self.mode == "normalized":
            syms = syms + [self._remainder_factor_symbol()]
            prefs = prefs + [(1.0, [0.0] * nw, [[0.0] * nw for _ in range(nw)])]

        val = 0.0
        grad = np.zeros(nw)
        hess = np.zeros((nw, nw))
        parts = []
        for sym, (pv, pg, ph) in zip(syms, prefs):
            f = float(sym.eval(pt))
            f1 = {}
            f2 = {}
            for i in range(nw):
                s_i, d1_i, _ = slot_of[i]
                f1[i] = float(sym.diff(s_i).eval(pt))
            for i in range(nw):
                s_i, d1_i, d2_i = slot_of[i]
                for j in range(i, nw):
                    s_j, d1_j, _ = slot_of[j]
                    f2[(i, j)] = float(sym.diff(s_i).diff(s_j).eval(pt))
            tv = pv * f
            tg = np.array([pg[i] * f + pv * f1[i] * slot_of[i][1]
                           for i in range(nw)])
            th = np.zeros((nw, nw))
            for i in range(nw):
                s_i, d1_i, d2_i = slot_of[i]
                for j in range(i, nw):
                    s_j, d1_j, _ = slot_of[j]
                    v = (ph[i][j] * f
                         + pg[i] * f1[j] * d1_j + pg[j] * f1[i] * d1_i
                         + pv * f2[(i, j)] * d1_i * d1_j)
                    if i == j:
                        v += pv * f1[i] * d2_i
                    th[i, j] = v
                    th[j, i] = v
            parts.append((tv, tg, th))
        if self.mode == "normalized":
            rv, rg, rh = parts.pop()
            for tv, tg, th in parts:
                val += tv
                grad += tg
                hess += th
            q = val / rv
            qg = (grad - q * rg) / rv
            qh = (hess - q * rh - np.outer(qg, rg) - np.outer(rg, qg)) / rv
            return q, qg, qh
        for tv, tg, th in parts:
            val += tv
            grad += tg
            hess += th
        return val, grad, hess

    def theta_directional_derivative(self, w, theta: Theta, dtheta: Theta):
        """d/ds Q(w, theta + s dtheta) at s = 0, w held fixed."""
        ys, etas = self._split(w)
        pt = [float(v) for v in self.substituted_point(w, theta)]
        d, p = self.spec.d, self.spec.p
        cut = self.cutoff
        vel = [0.0] * (2 * (d + 1))
        vel[0] = float(dtheta.t)
        for k in range(d - p):
            vel[p + 1 + k] = float(dtheta.z_x[k])
            vel[d + 2 + p + k] = float(dtheta.z_xi[k])
        deps = float(dtheta.eps)
        if self.spec.variant == "form1":
            for a in range(1, p + 1):
                vel[a] = float(dtheta.t) + deps * float(cut.scaled(ys[a - 1]))
        else:
            dxp = float(dtheta.x_p or 0)
            for a in range(1, p):
                vel[a] = dxp - deps * float(cut.scaled(ys[a - 1]))
            vel[p] = dxp
        for a in range(1, p + 1):
            vel[d + 1 + a] = deps * float(cut.scaled(etas[a - 1]))

        def directional(sym):
            return sum(float(sym.diff(i).eval(pt)) * vel[i]
                       for i in range(2 * (d + 1)) if vel[i] != 0.0)

        num = 0.0
        numdot = 0.0
        for pref, sym in self._terms(ys, etas):
            pv = float(pref)
            if pv == 0.0:
                continue
            num += pv * float(sym.eval(pt))
            numdot += pv * directional(sym)
        if self.mode == "raw":
            return numdot
        rsym = self._remainder_factor_symbol()
        rv = float(rsym.eval(pt))
        return (numdot - (num / rv) * directional(rsym)) / rv

    # -- stability --------------------------------------------------------

    def stability_ratio(self, n_samples: int = 200, w_inf: float = 10.0,
                        seed: int = 0) -> float:
        """max |Q(w, theta) - Q(w, 0)| / Q(w, 0) over random samples with
        ||w||_inf <= w_inf and |t| + |z| (+ |x_p|) <= delta / 4."""
        rng = random.Random(seed)
        budget = float(self.cutoff.delta) / 4
        k = self.spec.d - self.spec.p
        worst = 0.0
        for _ in range(n_samples):
            w = [rng.uniform(-w_inf, w_inf) for _ in range(self.w_dim)]
            raw = [rng.uniform(-1, 1) for _ in range(1 + 2 * k +
                   (1 if self.spec.variant == "form2" else 0))]
            scale = rng.uniform(0, budget) / max(sum(abs(v) for v in raw), 1e-12)
            raw = [v * scale for v in raw]
            t = raw[0]
            z_x = tuple(raw[1:1 + k])
            z_xi = tuple(raw[1 + k:1 + 2 * k])
            x_p = raw[-1] if self.spec.variant == "form2" else None
            theta = self.pinned_theta(t, z_x, z_xi, x_p=x_p)
            q0 = float(self.theta0_value(w))
            q = float(self.value(w, theta))
            worst = max(worst, abs(q - q0) / q0)
        return worst


def build_extended_Q(spec: NormalFormSpec, cutoff: Cutoff,
                     mode: str = "raw") -> ExtendedQ:
    return ExtendedQ(spec=spec, cutoff=cutoff, mode=mode)

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

Both shapes are a chain of springs between anchored ends, then the
remainder (psi resp. g) times its factor (q_{p+1} resp. r_p), gated by
phi resp. x_p.  In the extended functional below the chain nodes are

    form1:  (0, y_1, .., y_p, -1)
    form2:  (-1, y_1, .., y_{p-1}, 0)        (y_p pinned to 0)

and spring j joins nodes j-1 and j and carries q_j.  At theta = 0 the
springs act in series between the anchored ends, so the partial
resistances 1/q_bar accumulate: node k sits at
n_0 + (n_last - n_0) * (1/q_bar_1 + .. + 1/q_bar_k) / S with
S = sum_j 1/q_bar_j, and the minimum of the chain is 1/S.

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
from functools import cached_property
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


def uniform_axis(lo: Fraction, hi: Fraction, n: int) -> Tuple[Fraction, ...]:
    """n >= 2 equally spaced exact points from lo to hi."""
    step = (hi - lo) / (n - 1)
    return tuple(lo + k * step for k in range(n))


def horner(coeffs, v):
    """sum_k coeffs[k] v^k; Fraction(0) for no coefficients."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * v + c
    return out


def poly_derivative(coeffs):
    """Coefficients of the derivative of sum_k coeffs[k] v^k."""
    return tuple(k * c for k, c in enumerate(coeffs) if k)


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

    @property
    def remainder(self) -> PolySymbol:
        """psi (form1) resp. g (form2)."""
        return self.psi if self.variant == "form1" else self.g

    @property
    def remainder_factor(self) -> PolySymbol:
        """The factor multiplying the remainder: q_{p+1} resp. r_p."""
        if self.variant == "form1":
            return self.q[self.p]
        return self.r[self.p - 1]

    @property
    def gate(self) -> PolySymbol:
        """phi (form1) resp. the x_p coordinate (form2): the remainder
        must be nonnegative where the gate is."""
        if self.variant == "form1":
            return self.phi
        return PolySymbol.coordinate(self.d, "x%d" % self.p)


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


# The one-sided sign scan of check_side_conditions: POINTS per x axis on
# [-HALF_WIDTH, HALF_WIDTH], XI_POINTS per xi axis within XI_HALF_WIDTH of
# the base covector.  The report's side-condition grid prints them.
HALF_WIDTH = Fraction(1, 2)
POINTS = 11
XI_HALF_WIDTH = Fraction(1, 4)
XI_POINTS = 3


def check_side_conditions(spec: NormalFormSpec) -> SideConditionReport:
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

    if spec.variant == "form1":
        br = poisson_bracket(spec.phi, poisson_bracket(spec.phi, spec.psi))
        double_bracket = br.eval(base)
        bbis_sum = None
        bbis_ok = None
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

    # one-sided sign scan over the variables the remainder and gate use
    sign_poly, gate_poly = spec.remainder, spec.gate
    moving = [i for i in range(2 * (d + 1))
              if sign_poly.depends_on(i) or gate_poly.depends_on(i)]
    xi_base = base.as_tuple()
    x_axis = uniform_axis(-HALF_WIDTH, HALF_WIDTH, POINTS)
    xi_axis = uniform_axis(-XI_HALF_WIDTH, XI_HALF_WIDTH, XI_POINTS)
    axes = []
    for i in moving:
        if i >= d + 2:  # xi slot: box around the base covector
            axes.append([xi_base[i] + v for v in xi_axis])
        else:
            axes.append(x_axis)
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
    grid = {"half_width": str(HALF_WIDTH), "points": POINTS,
            "xi_half_width": str(XI_HALF_WIDTH), "xi_points": XI_POINTS,
            "moving_slots": moving}
    return SideConditionReport(ok=ok, double_bracket=double_bracket,
                               bbis_sum=bbis_sum, bbis_ok=bbis_ok,
                               one_sided_ok=one_sided_ok,
                               one_sided_witness=witness,
                               grid=grid, notes=tuple(notes))


# ----------------------------------------------------------------- cutoff


_H = (Fraction(1), Fraction(1), Fraction(0), Fraction(4), Fraction(-7), Fraction(3))
_H1 = poly_derivative(_H)
_H2 = poly_derivative(_H1)


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
            out = horner(_H, u - 1)
        return -out if neg else out

    def chi_prime(self, s: Number) -> Number:
        u = -s if s < 0 else s
        if u <= 1:
            return u - u + 1
        if u >= 2:
            return u - u
        return horner(_H1, u - 1)

    def chi_second(self, s: Number) -> Number:
        neg = s < 0
        u = -s if neg else s
        if u <= 1 or u >= 2:
            out = u - u
        else:
            out = horner(_H2, u - 1)
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

    @cached_property
    def _w_slots(self):
        """w index -> (phase slot, sign): y_a moves x_a away from the
        chain anchor (t for form1, x_p with sign -1 for form2), eta_a
        moves xi_a away from 0."""
        d, p = self.spec.d, self.spec.p
        sign, ny = (1, p) if self.spec.variant == "form1" else (-1, p - 1)
        return tuple([(a, sign) for a in range(1, ny + 1)]
                     + [(d + 1 + a, 1) for a in range(1, p + 1)])

    @cached_property
    def w_dim(self) -> int:
        return len(self._w_slots)

    def _split(self, w):
        """(free ys, etas) of w."""
        nw = self.w_dim
        if len(w) != nw:
            raise DimensionMismatch("w must have length %d" % nw)
        ny = nw - self.spec.p
        return list(w[:ny]), list(w[ny:])

    def _nodes(self, ys):
        """Spring-chain nodes with the anchored ends (module docstring)."""
        if self.spec.variant == "form1":
            return [0] + list(ys) + [-1]
        return [-1] + list(ys) + [0]

    def _move(self, out, w, anchor, eps, dchi):
        """Write the slots w moves: x_a = anchor + sign * eps * dchi(y_a),
        xi_a = eps * dchi(eta_a)."""
        for (slot, sign), v in zip(self._w_slots, w):
            step = eps * dchi(v)
            out[slot] = anchor + sign * step if slot <= self.spec.d else step

    @cached_property
    def theta_dim(self) -> int:
        """Length of the flat slow vector (t, z_x, z_xi[, x_p])."""
        k = self.spec.d - self.spec.p
        return 1 + 2 * k + (1 if self.spec.variant == "form2" else 0)

    def theta_at(self, v: Sequence) -> Theta:
        """pinned_theta of the flat slow vector (t, z_x, z_xi[, x_p])."""
        k = self.spec.d - self.spec.p
        x_p = v[1 + 2 * k] if self.spec.variant == "form2" else None
        return self.pinned_theta(v[0], v[1:1 + k], v[1 + k:1 + 2 * k], x_p=x_p)

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
        self._split(w)  # checks the length of w
        k = self.spec.d - self.spec.p
        if len(theta.z_x) != k or len(theta.z_xi) != k:
            raise DimensionMismatch("transverse block must have length %d" % k)
        pt = self._transverse_point(theta.t, theta.z_x, theta.z_xi)
        anchor = theta.t
        if self.spec.variant == "form2":
            if theta.x_p is None:
                raise ValueError("form2 theta needs x_p")
            anchor = pt[self.spec.p] = theta.x_p
        self._move(pt, w, anchor, theta.eps, self.cutoff.scaled)
        return pt

    # -- prefactor table ------------------------------------------------

    def _terms(self, ys, etas):
        """(prefactor value, factor symbol) pairs at raw w."""
        n = self._nodes(ys)
        springs = [((n[j] - n[j + 1]) ** 2, q)
                   for j, q in enumerate(self.spec.q)]
        return springs + [(e ** 2, r) for e, r in zip(etas, self.spec.r)]

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
            total = total / self.spec.remainder_factor.eval(pt)
        return total

    def remainder(self, w, theta: Theta):
        """psi * q_{p+1}(P) (form1) resp. g * r_p(P) (form2) at the
        substituted point; this completes a(P) = eps^2 Q + remainder."""
        pt = self.substituted_point(w, theta)
        spec = self.spec
        return spec.remainder.eval(pt) * spec.remainder_factor.eval(pt)

    def theta0_value(self, w):
        """Q(w, 0), the quadratic in w with the base values as weights."""
        return self.value(w, self.theta_zero())

    def theta0_minimizer(self):
        """Exact minimizer and minimum of Q(., 0): the springs in series
        of the module docstring."""
        spec = self.spec
        inv = [Fraction(1) / v for v in spec.q_bars()]
        s = sum(inv)
        first, last = self._nodes([])
        partial = itertools.accumulate(inv[:self.w_dim - spec.p])
        ys = tuple(first + (last - first) * acc / s for acc in partial)
        m0 = 1 / s
        if self.mode == "normalized":
            m0 = m0 / spec.remainder_factor.eval(spec.base_point())
        return ys + (Fraction(0),) * spec.p, m0

    # -- analytic derivatives in w ----------------------------------------

    def _moving_slots(self, w, eps):
        """w index -> (phase slot, dP/dw, d2P/dw2)."""
        cut = self.cutoff
        return [(slot, sign * eps * cut.scaled_prime(v),
                 sign * eps * cut.scaled_second(v))
                for (slot, sign), v in zip(self._w_slots, w)]

    def _pref_derivatives(self, ys, etas):
        """Prefactor values with gradients/Hessians in w per term; free
        chain node i is w index i - 1."""
        nw = self.w_dim
        n = self._nodes(ys)
        last = len(n) - 1

        def square(diff, moving):
            # diff**2 where diff moves with sign s along each (w index, s)
            grad = [0] * nw
            hess = [[0] * nw for _ in range(nw)]
            for i, s in moving:
                grad[i] += s * 2 * diff
                for j, u in moving:
                    hess[i][j] += s * u * 2
            return diff ** 2, grad, hess

        terms = [square(n[j] - n[j + 1],
                        [(i - 1, s) for i, s in ((j, 1), (j + 1, -1))
                         if 0 < i < last])
                 for j in range(last)]
        return terms + [square(e, [(last - 1 + a, 1)])
                        for a, e in enumerate(etas)]

    def value_grad_hess(self, w, theta: Theta):
        """(Q, grad_w Q, hess_w Q) as floats, analytic chain rule."""
        ys, etas = self._split(w)
        pt = [float(v) for v in self.substituted_point(w, theta)]
        eps = float(theta.eps)
        nw = self.w_dim
        slot_of = dict(enumerate(self._moving_slots([float(v) for v in w],
                                                    eps)))
        prefs = self._pref_derivatives([float(y) for y in ys],
                                       [float(e) for e in etas])
        syms = self.spec.q + self.spec.r
        if self.mode == "normalized":
            syms = syms + (self.spec.remainder_factor,)
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
        vel = [0.0] * (2 * (d + 1))
        vel[0] = anchor = float(dtheta.t)
        for k in range(d - p):
            vel[p + 1 + k] = float(dtheta.z_x[k])
            vel[d + 2 + p + k] = float(dtheta.z_xi[k])
        if self.spec.variant == "form2":
            anchor = vel[p] = float(dtheta.x_p or 0)
        self._move(vel, w, anchor, float(dtheta.eps),
                   lambda v: float(self.cutoff.scaled(v)))

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
        rsym = self.spec.remainder_factor
        rv = float(rsym.eval(pt))
        return (numdot - (num / rv) * directional(rsym)) / rv

    # -- stability --------------------------------------------------------

    def stability_ratio(self, n_samples: int = 200, w_inf: float = 10.0,
                        seed: int = 0) -> float:
        """max |Q(w, theta) - Q(w, 0)| / Q(w, 0) over random samples with
        ||w||_inf <= w_inf and |t| + |z| (+ |x_p|) <= delta / 4."""
        rng = random.Random(seed)
        budget = float(self.cutoff.delta) / 4
        worst = 0.0
        for _ in range(n_samples):
            w = [rng.uniform(-w_inf, w_inf) for _ in range(self.w_dim)]
            raw = [rng.uniform(-1, 1) for _ in range(self.theta_dim)]
            scale = rng.uniform(0, budget) / max(sum(abs(v) for v in raw), 1e-12)
            theta = self.theta_at([v * scale for v in raw])
            q0 = float(self.theta0_value(w))
            q = float(self.value(w, theta))
            worst = max(worst, abs(q - q0) / q0)
        return worst


def build_extended_Q(spec: NormalFormSpec, cutoff: Cutoff,
                     mode: str = "raw") -> ExtendedQ:
    return ExtendedQ(spec=spec, cutoff=cutoff, mode=mode)

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
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from hypcert.grid import TensorGrid
from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    as_fraction,
    homogeneity_check,
    phase_variables,
    poisson_bracket,
)

Number = Union[int, float, Fraction]


def horner(coeffs, v):
    """sum_k coeffs[k] v^k; Fraction(0) for no coefficients."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * v + c
    return out


def poly_derivative(coeffs):
    """Coefficients of the derivative of sum_k coeffs[k] v^k."""
    return tuple(k * c for k, c in enumerate(coeffs) if k)


def _floats(v):
    """float(v), elementwise for an array (of exact values or floats; a
    float array is itself)."""
    return v.astype(float, copy=False) if isinstance(v, np.ndarray) \
        else float(v)


def _stack(values, shape):
    """The values (scalars or arrays that broadcast to shape) as one float
    array, along a new first axis."""
    out = np.empty((len(values),) + shape)
    for i, v in enumerate(values):
        out[i] = v
    return out


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

    @cached_property
    def _a(self) -> PolySymbol:
        """The composite a, assembled once per spec."""
        return _assemble(self)

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
    """The composite a of a validated spec (exact), assembled at the
    first call on the spec and kept with it."""
    return spec._a


def _assemble(spec: NormalFormSpec) -> PolySymbol:
    d, p = spec.d, spec.p
    t, xs, _, xis = phase_variables(d)
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
    sign_poly, gate_poly = spec.remainder, spec.gate
    outer = (spec.phi if spec.variant == "form1"
             else PolySymbol.coordinate(d, "xi%d" % p))
    double_bracket = poisson_bracket(
        outer, poisson_bracket(outer, sign_poly)).eval(base)
    bbis_sum = bbis_ok = None
    if spec.variant == "form2":
        bbis_sum = sum(Fraction(1) / v for v in spec.r_bars())
        bbis_ok = bbis_sum > 1
        if not bbis_ok:
            notes.append("elliptic weights give no real eigenvalue pair "
                         "(sum of inverse r at the base point is %s <= 1); "
                         "not effectively hyperbolic" % bbis_sum)

    # one-sided sign scan over the variables the remainder and gate use
    # (an xi slot in a box around the base covector), the other slots at
    # the base point; the witness is the first failing point in C order
    moving = [i for i in range(2 * (d + 1))
              if sign_poly.depends_on(i) or gate_poly.depends_on(i)]
    cube = TensorGrid(d, [(i, (v, v, 1) if i not in moving else
                           (-HALF_WIDTH, HALF_WIDTH, POINTS) if i < d + 2
                           else (v - XI_HALF_WIDTH, v + XI_HALF_WIDTH,
                                 XI_POINTS))
                          for i, v in enumerate(base.as_tuple())])
    gate, sign, _ = cube.integer(gate_poly, sign_poly)
    res, = cube.scan(lambda g, s: [(0.0, (g >= 0) & (s < 0))], gate, sign)
    one_sided_ok = res.n_included == 0
    witness = None if one_sided_ok else cube.point(res.min_flat).as_tuple()

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


_H = (1, 1, 0, 4, -7, 3)  # integers: exact on rationals, floats on floats
_H1 = poly_derivative(_H)
_H2 = poly_derivative(_H1)


def _piecewise(s, inner, coeffs, outer, odd):
    """The piece on u = |s|, negated at s < 0 when odd: u itself (inner
    None) or the constant inner on u <= 1, the constant outer on u >= 2,
    and the polynomial coeffs in u - 1 between.  Exact on rationals, a
    constant k read as u - u + k to keep the type of u; elementwise on an
    array as for a float s, with |s| and the masks taken once and the
    polynomial evaluated only where 1 < u < 2 (or u is nan), and nan at
    an infinite u on the constant piece, as u - u + k reads there."""
    neg = s < 0
    if not isinstance(s, np.ndarray):
        u = -s if neg else s
        out = ((u if inner is None else u - u + inner) if u <= 1
               else u - u + outer if u >= 2 else horner(coeffs, u - 1))
        return -out if odd and neg else out
    u = np.where(neg, -s, s)
    low, high = u <= 1, u >= 2
    out = np.where(low, u if inner is None else float(inner), float(outer))
    out[u == np.inf] = np.nan
    mid = ~(low | high)
    if mid.any():
        v, poly = u[mid] - 1, 0.0
        for c in reversed(coeffs):
            poly = poly * v + c
        out[mid] = poly
    return np.where(neg, -out, out) if odd else out


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
        return _piecewise(s, None, _H, 2, odd=True)

    def chi_prime(self, s: Number) -> Number:
        return _piecewise(s, 1, _H1, 0, odd=False)

    def chi_second(self, s: Number) -> Number:
        return _piecewise(s, 0, _H2, 0, odd=True)

    def _delta(self, s):
        """delta, as a float for an array s (a float s rounds it alike)."""
        return float(self.delta) if isinstance(s, np.ndarray) else self.delta

    def scaled(self, s: Number) -> Number:
        delta = self._delta(s)
        return delta * self.chi(s / delta)

    def scaled_prime(self, s: Number) -> Number:
        return self.chi_prime(s / self._delta(s))

    def scaled_second(self, s: Number) -> Number:
        delta = self._delta(s)
        return self.chi_second(s / delta) / delta


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
    and (form2 only) the raw x_p slot.

    A batch of thetas is one Theta whose fields are numpy arrays of exact
    values (dtype object) that broadcast together, as ExtendedQ.theta_at
    gives for axes shaped to broadcast; its thetas are numbered in C order
    of the broadcast shape.
    """

    t: Number
    z_x: Tuple[Number, ...]
    z_xi: Tuple[Number, ...]
    eps: Number
    x_p: Optional[Number] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return np.broadcast_shapes(*map(np.shape, (
            self.t, *self.z_x, *self.z_xi, self.eps, self.x_p)))

    def entry(self, i) -> "Theta":
        """Theta number i of a batch; for an array of numbers, the batch of
        those thetas in that order (one axis)."""
        shape = self.shape

        def at(v):
            return np.broadcast_to(v, shape).flat[i]
        return Theta(t=at(self.t), z_x=tuple(map(at, self.z_x)),
                     z_xi=tuple(map(at, self.z_xi)), eps=at(self.eps),
                     x_p=None if self.x_p is None else at(self.x_p))


@dataclass(frozen=True)
class _Rounded:
    """A theta, or a batch of them, as substituted_point reads it: the
    transverse point with the chain anchor in its slot, and eps, each
    rounded once to floats from its exact value (the xi_d offset added
    first).  ExtendedQ._rounded builds it; its thetas are numbered as the
    Theta's."""

    point: Tuple
    eps: Number

    @cached_property
    def shape(self) -> Tuple[int, ...]:
        return np.broadcast_shapes(*map(np.shape, self.point),
                                   np.shape(self.eps))

    def map(self, fn) -> "_Rounded":
        """fn applied to every array."""
        def at(v):
            return fn(v) if isinstance(v, np.ndarray) else v
        return _Rounded(tuple(map(at, self.point)), at(self.eps))

    def entry(self, i) -> "_Rounded":
        """As Theta.entry."""
        shape = self.shape

        def at(v):
            return np.broadcast_to(v, shape).flat[i]
        return _Rounded(tuple(map(at, self.point)), at(self.eps))


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
        """pinned_theta of the flat slow vector (t, z_x, z_xi[, x_p]); its
        entries may be object arrays of exact values that broadcast
        together, which gives a batch (phi is then evaluated once per
        distinct z it reads)."""
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

    def _anchored_point(self, theta: Theta):
        """The exact transverse point of theta with the chain anchor (t
        for form1, x_p for form2) in its slot."""
        k = self.spec.d - self.spec.p
        if len(theta.z_x) != k or len(theta.z_xi) != k:
            raise DimensionMismatch("transverse block must have length %d" % k)
        pt = self._transverse_point(theta.t, theta.z_x, theta.z_xi)
        if self.spec.variant == "form2":
            if theta.x_p is None:
                raise ValueError("form2 theta needs x_p")
            pt[self.spec.p] = theta.x_p
        return pt

    def _rounded(self, theta) -> _Rounded:
        """theta rounded once to floats (a _Rounded is its own)."""
        if isinstance(theta, _Rounded):
            return theta
        return _Rounded(tuple(map(_floats, self._anchored_point(theta))),
                        _floats(theta.eps))

    def substituted_point(self, w, theta):
        """Full phase point fed to every factor (tau slot stays 0).  For a
        batch of thetas, or a _Rounded, it is float arrays, rounded from
        the exact transverse point before w (floats or arrays) moves it."""
        self._split(w)  # checks the length of w
        if isinstance(theta, Theta) and not isinstance(theta.eps, np.ndarray):
            pt, eps = self._anchored_point(theta), theta.eps  # one theta
        else:
            rounded = self._rounded(theta)
            pt, eps = list(rounded.point), rounded.eps
        anchor = pt[0] if self.spec.variant == "form1" else pt[self.spec.p]
        self._move(pt, w, anchor, eps, self.cutoff.scaled)
        return pt

    # -- evaluation ------------------------------------------------------

    def value(self, w, theta):
        """Q(w, theta) (a Theta or a _Rounded); exact when w and theta are
        rational."""
        ys, etas = self._split(w)
        pt = self.substituted_point(w, theta)
        total = 0
        # zip stops before the remainder factor, last in _derivatives
        for (pref, _, _), (sym, _, _) in zip(self._prefactors(ys, etas),
                                             self._derivatives):
            total = total + pref * sym.eval(pt)
        if self.mode == "normalized":
            total = total / self.divisor(pt)
        return total

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

    def _prefactors(self, ys, etas):
        """Prefactor values with gradients/Hessians in w per term, the
        springs then the etas; free chain node i is w index i - 1."""
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

    @cached_property
    def _derivatives(self):
        """(factor, its first derivatives by phase slot, its second
        derivatives by w index pair i <= j) for each q, each r and then
        the remainder factor, differentiated once per ExtendedQ."""
        slots = [slot for slot, _ in self._w_slots]
        table = []
        for sym in self.spec.q + self.spec.r + (self.spec.remainder_factor,):
            first = tuple(sym.diff(i) for i in range(sym.nvars))
            second = {(i, j): first[s_i].diff(slots[j])
                      for i, s_i in enumerate(slots)
                      for j in range(i, len(slots))}
            table.append((sym, first, second))
        return tuple(table)

    def divisor(self, pt):
        """The remainder factor at pt (elementwise over arrays), which the
        normalized functional divides by.  InvariantViolation names it and
        the first point where it is zero: as exact rationals when it
        vanishes there exactly."""
        value = self.spec.remainder_factor.eval(pt)
        if isinstance(value, np.ndarray):
            zero = np.flatnonzero(value == 0)
            if zero.size:
                shape = np.broadcast_shapes(value.shape, *map(np.shape, pt))
                at = np.unravel_index(zero[0], (1,) * (len(shape) - value.ndim)
                                      + value.shape)
                point = [float(np.broadcast_to(v, shape)[at]) for v in pt]
                self.divisor([Fraction(v) for v in point])
                self.divisor(point)
        elif value == 0:
            p = self.spec.p
            raise InvariantViolation(
                "q%d" % (p + 1) if self.spec.variant == "form1" else "r%d" % p,
                "vanishes at (t, x, tau, xi) = (%s), where the normalized "
                "functional divides by it" % ", ".join(map(str, pt)))
        return value

    def value_grad_hess(self, w, theta):
        """(Q, grad_w Q, hess_w Q) as floats, analytic chain rule.  Over a
        batch of thetas (a Theta or a _Rounded), or for w of arrays (one
        per theta), each is an array over the batch's shape, after the w
        axes for the gradient and Hessian."""
        w_f = [_floats(v) for v in w]
        ys, etas = self._split(w_f)
        pt = [_floats(v) for v in self.substituted_point(w, theta)]
        shape = np.broadcast_shapes(*map(np.shape, pt))
        nw, cut, eps = self.w_dim, self.cutoff, _floats(theta.eps)
        prefs = self._prefactors(ys, etas)
        # the remainder factor, last in _derivatives (zip skips it in raw)
        if self.mode == "normalized":
            prefs.append((1.0, [0.0] * nw, [[0.0] * nw for _ in range(nw)]))
        # the chain rule per factor, as arrays over (w index[, w index])
        # and the batch: entry (i, j) of the Hessian is the formula for i
        # <= j, mirrored; zero derivatives are not evaluated.  d1, d2:
        # the derivatives of the phase slot w index i moves
        signs = [sign for _, sign in self._w_slots]
        d1 = _stack([s * eps * cut.scaled_prime(v)
                     for s, v in zip(signs, w_f)], shape)
        d2 = _stack([s * eps * cut.scaled_second(v)
                     for s, v in zip(signs, w_f)], shape)
        lead = (nw, nw) + (1,) * len(shape)
        upper = np.triu(np.ones((nw, nw), dtype=bool)).reshape(lead)
        diag = np.arange(nw)
        parts = []
        for (sym, first, second), (pv, pg, ph) in zip(self._derivatives,
                                                      prefs):
            f = sym.eval(pt)
            f1 = np.zeros((nw,) + shape)
            for i, (slot, _) in enumerate(self._w_slots):
                if first[slot].terms:
                    f1[i] = first[slot].eval(pt)
            f2 = np.zeros((nw, nw) + shape)
            for (i, j), poly in second.items():
                if poly.terms:
                    f2[i, j] = poly.eval(pt)
            pg = _stack(pg, shape)
            tg = pg * f + pv * f1 * d1
            th = (np.array(ph, dtype=float).reshape(lead) * f
                  + pg[:, None] * f1[None] * d1[None]
                  + pg[None] * f1[:, None] * d1[:, None]
                  + pv * f2 * d1[:, None] * d1[None])
            th[diag, diag] += pv * f1 * d2
            parts.append((pv * f, tg, np.where(upper, th, th.swapaxes(0, 1))))
        if self.mode == "normalized":
            _, rg, rh = parts.pop()
        val, grad = 0.0, np.zeros((nw,) + shape)
        hess = np.zeros((nw, nw) + shape)
        for tv, tg, th in parts:
            val = val + tv
            grad += tg
            hess += th
        if self.mode == "raw":
            return val, grad, hess
        rv = self.divisor(pt)
        q = val / rv
        qg = (grad - q * rg) / rv
        qh = (hess - q * rh - qg[:, None] * rg[None]
              - rg[:, None] * qg[None]) / rv
        return q, qg, qh


def build_extended_Q(spec: NormalFormSpec, cutoff: Cutoff,
                     mode: str = "raw") -> ExtendedQ:
    return ExtendedQ(spec=spec, cutoff=cutoff, mode=mode)

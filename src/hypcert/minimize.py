"""The minimize verb: the damped Newton on the extended functional Q(w,
theta) of module normal_forms at one theta, and what it reads, which
certify never does: Q itself, its analytic gradient and Hessian in w,
the closed-form theta = 0 minimizer, and the cutoff's derivatives.

Q is evaluated at the substituted point (module normal_forms): exact for
a Theta and rational w, in floats otherwise.  A _Rounded is one theta
rounded once to floats, which the Newton reads one point at a time; each
point is converted once for all the factors evaluated there.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from hypcert.normal_forms import (
    _H,
    ExtendedQ,
    InvariantViolation,
    Number,
    Theta,
    _delta_for,
    _piecewise,
    scaled,
)
from hypcert.spectral import NoConvergence
from hypcert.symbols import DimensionMismatch, _coordinates

MAX_NEWTON_ITER = 80
_EPS = sys.float_info.epsilon


# ------------------------------------------------------ cutoff derivatives


def poly_derivative(coeffs):
    """Coefficients of the derivative of sum_k coeffs[k] v^k."""
    return tuple(k * c for k, c in enumerate(coeffs) if k)


_H1 = poly_derivative(_H)
_H2 = poly_derivative(_H1)


def chi_prime(s: Number) -> Number:
    """chi' of normal_forms.chi, exact on rationals."""
    return _piecewise(s, 1, _H1, 0, odd=False)


def chi_second(s: Number) -> Number:
    """chi'' of normal_forms.chi, exact on rationals."""
    return _piecewise(s, 0, _H2, 0, odd=True)


def scaled_prime(s: Number) -> Number:
    """The derivative of normal_forms.scaled at s."""
    return chi_prime(s / _delta_for(s))


def scaled_second(s: Number) -> Number:
    """The second derivative of normal_forms.scaled at s."""
    delta = _delta_for(s)
    return chi_second(s / delta) / delta


# ------------------------------------------------------ the substituted point


class _Rounded(NamedTuple):
    """A theta as substituted_point reads it for the Newton: the
    transverse point with the chain anchor in its slot, and eps, each
    rounded once to floats from its exact value (the xi_d offset added
    first)."""

    point: Tuple
    eps: float


def _split(eq: ExtendedQ, w):
    """(free ys, etas) of w."""
    nw = eq.w_dim
    if len(w) != nw:
        raise DimensionMismatch("w must have length %d" % nw)
    ny = nw - eq.spec.p
    return list(w[:ny]), list(w[ny:])


def _nodes(eq: ExtendedQ, ys):
    """Spring-chain nodes with the anchored ends (module normal_forms)."""
    if eq.spec.variant == "form1":
        return [0] + list(ys) + [-1]
    return [-1] + list(ys) + [0]


def _move(eq: ExtendedQ, out, w, anchor, eps):
    """Write the slots w moves: x_a = anchor + sign * eps * scaled(y_a),
    xi_a = eps * scaled(eta_a)."""
    for (slot, sign), v in zip(eq._w_slots, w):
        step = eps * scaled(v)
        out[slot] = anchor + sign * step if slot <= eq.spec.d else step


def _anchored_point(eq: ExtendedQ, theta: Theta):
    """The exact transverse point of theta with the chain anchor (t for
    form1, x_p for form2) in its slot."""
    k = eq.spec.d - eq.spec.p
    if len(theta.z_x) != k or len(theta.z_xi) != k:
        raise DimensionMismatch("transverse block must have length %d" % k)
    if eq.spec.variant == "form2" and theta.x_p is None:
        raise ValueError("form2 theta needs x_p")
    return eq._point((theta.t, *theta.z_x, *theta.z_xi, theta.x_p))


def _rounded(eq: ExtendedQ, theta: Theta) -> _Rounded:
    """theta rounded once to floats."""
    return _Rounded(tuple(map(float, _anchored_point(eq, theta))),
                    float(theta.eps))


def substituted_point(eq: ExtendedQ, w, theta):
    """Full phase point fed to every factor (tau slot stays 0): exact for
    a Theta until w moves it, and for a _Rounded floats, rounded before w
    moves them."""
    _split(eq, w)  # checks the length of w
    pt = (_anchored_point(eq, theta) if isinstance(theta, Theta)
          else list(theta.point))
    anchor = pt[0] if eq.spec.variant == "form1" else pt[eq.spec.p]
    _move(eq, pt, w, anchor, theta.eps)
    return pt


# -------------------------------------------------------------- evaluation


def value(eq: ExtendedQ, w, theta):
    """Q(w, theta) (a Theta or a _Rounded); exact when w and theta are
    rational."""
    ys, etas = _split(eq, w)
    pt = substituted_point(eq, w, theta)
    vals, exact = _coordinates(pt)
    total = 0
    # zip stops before the remainder factor, last in _derivatives
    for (pref, _, _), (sym, _, _) in zip(_prefactors(eq, ys, etas),
                                         _derivatives(eq)):
        total = total + pref * sym._eval(vals, exact)
    if eq.mode == "normalized":
        total = total / divisor(eq, pt)
    return total


def theta0_minimizer(eq: ExtendedQ):
    """Exact minimizer and minimum of Q(., 0): the springs in series of
    module normal_forms."""
    spec = eq.spec
    inv = [Fraction(1) / v for v in spec.q_bars()]
    s = sum(inv)
    first, last = _nodes(eq, [])
    partial = itertools.accumulate(inv[:eq.w_dim - spec.p])
    ys = tuple(first + (last - first) * acc / s for acc in partial)
    m0 = 1 / s
    if eq.mode == "normalized":
        m0 = m0 / spec.remainder_factor.eval(spec.base_point())
    return ys + (Fraction(0),) * spec.p, m0


# --------------------------------------------------- analytic derivatives in w


def _prefactors(eq: ExtendedQ, ys, etas):
    """Prefactor values with gradients/Hessians in w per term, the
    springs then the etas; free chain node i is w index i - 1."""
    nw = eq.w_dim
    n = _nodes(eq, ys)
    last = len(n) - 1

    def square(diff, moving):
        # diff**2 where diff moves with sign s along each (w index, s)
        grad = [0] * nw
        hess = [[0] * nw for _ in range(nw)]
        for i, s in moving:
            grad[i] += s * 2 * diff
            for j, u in moving:
                hess[i][j] += s * u * 2
        return diff * diff, grad, hess

    terms = [square(n[j] - n[j + 1],
                    [(i - 1, s) for i, s in ((j, 1), (j + 1, -1))
                     if 0 < i < last])
             for j in range(last)]
    return terms + [square(e, [(last - 1 + a, 1)])
                    for a, e in enumerate(etas)]


def _derivatives(eq: ExtendedQ):
    """(factor, its first derivatives by phase slot, its second
    derivatives by w index pair i <= j) for each q, each r and then the
    remainder factor, differentiated once per ExtendedQ: the table is
    kept in eq's __dict__, as a cached_property keeps its value."""
    table = eq.__dict__.get("_derivatives")
    if table is not None:
        return table
    slots = [slot for slot, _ in eq._w_slots]
    table = []
    for sym in eq.spec.q + eq.spec.r + (eq.spec.remainder_factor,):
        first = tuple(sym.diff(i) for i in range(sym.nvars))
        second = {(i, j): first[s_i].diff(slots[j])
                  for i, s_i in enumerate(slots)
                  for j in range(i, len(slots))}
        table.append((sym, first, second))
    table = eq.__dict__["_derivatives"] = tuple(table)
    return table


def divisor(eq: ExtendedQ, pt):
    """The remainder factor at pt, which the normalized functional
    divides by.  InvariantViolation names it and pt where it is zero: pt
    as exact rationals when it vanishes there exactly."""
    rf = eq.spec.remainder_factor
    value = rf.eval(pt)
    if value == 0:
        try:
            exact = [Fraction(v) for v in pt]
            pt = exact if rf.eval(exact) == 0 else pt
        except (OverflowError, ValueError):  # an inf or nan in pt
            pass
        raise InvariantViolation(
            eq._rf_name, "vanishes at (t, x, tau, xi) = (%s), where the "
            "normalized functional divides by it"
            % ", ".join(map(str, pt)))
    return value


def value_grad_hess(eq: ExtendedQ, w, theta):
    """(Q, grad_w Q, hess_w Q) as a float, a list and a list of rows, by
    the analytic chain rule one entry at a time: per factor, the Hessian
    entry (i, j) is the formula for i <= j, mirrored."""
    pt = [float(v) for v in substituted_point(eq, w, theta)]
    w, nw, eps = [float(v) for v in w], eq.w_dim, float(theta.eps)
    rows = range(nw)
    prefs = _prefactors(eq, *_split(eq, w))
    # the remainder factor, last in _derivatives (zip skips it in raw)
    if eq.mode == "normalized":
        prefs.append((1.0, [0.0] * nw, [[0.0] * nw] * nw))
    # d1, d2: the derivatives of the phase slot w index i moves
    d1 = [sign * eps * scaled_prime(v)
          for (_, sign), v in zip(eq._w_slots, w)]
    d2 = [sign * eps * scaled_second(v)
          for (_, sign), v in zip(eq._w_slots, w)]

    def at(poly):  # a zero derivative, read as 0.0 unevaluated
        return poly._eval(pt, False) if poly.terms else 0.0

    parts = []
    for (sym, first, second), (pv, pg, ph) in zip(_derivatives(eq), prefs):
        f = sym._eval(pt, False)
        f1 = [at(first[slot]) for slot, _ in eq._w_slots]
        th = [[0.0] * nw for _ in rows]
        for (i, j), poly in second.items():
            v = (ph[i][j] * f + pg[i] * f1[j] * d1[j]
                 + pg[j] * f1[i] * d1[i]
                 + pv * at(poly) * d1[i] * d1[j])
            if i == j:
                v += pv * f1[i] * d2[i]
            th[i][j] = th[j][i] = v
        parts.append((pv * f, [pg[i] * f + pv * f1[i] * d1[i]
                               for i in rows], th))
    if eq.mode == "normalized":
        _, rg, rh = parts.pop()
    val, grad, hess = 0.0, [0.0] * nw, [[0.0] * nw for _ in rows]
    for tv, tg, th in parts:
        val = val + tv
        grad = [a + b for a, b in zip(grad, tg)]
        hess = [[a + b for a, b in zip(r, s)] for r, s in zip(hess, th)]
    if eq.mode == "raw":
        return val, grad, hess
    rv = divisor(eq, pt)
    q = val / rv
    qg = [(g - q * r) / rv for g, r in zip(grad, rg)]
    return q, qg, [[(hess[i][j] - q * rh[i][j] - qg[i] * rg[j]
                     - rg[i] * qg[j]) / rv for j in rows] for i in rows]


# -------------------------------------------------------------- minimize Q


class MinimizeResult(NamedTuple):
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
        m=float(m), w_bar=tuple(float(v) for v in w_bar),
        hessian_cond=float(np.linalg.cond(hess)) if eq.w_dim else 1.0,
        grad_norm=float(gn), iterations=its)


def _dot(u, v) -> float:
    """sum_i u_i v_i, in index order from 0.0."""
    return reduce(add, map(mul, u, v), 0.0)


def _newton(eq: ExtendedQ, theta: Theta, w0=None):
    """Safeguarded damped Newton on grad_w Q = 0, from the closed-form
    theta = 0 minimizer (or w0), accepting only Q-decreasing steps.  It
    stops at the stop test, or when no step decreases Q and its Newton
    decrement is below the rounding floor of Q; an ill-conditioned
    Hessian, a failed line search or the iteration limit raise
    NoConvergence.  theta is rounded to floats once.  Returns m, w_bar,
    the final Hessian, the gradient norm and the steps taken."""
    theta = _rounded(eq, theta)
    w = [float(v) for v in (theta0_minimizer(eq)[0] if w0 is None else w0)]
    for it in range(MAX_NEWTON_ITER):
        val, grad, hess = value_grad_hess(eq, w, theta)
        # the stop test is |grad_w Q| <= 1e-10 (1 + |Q|)
        gn = math.sqrt(_dot(grad, grad))
        if gn <= 1e-10 * (1 + abs(val)):
            return val, w, hess, gn, it
        cond = np.linalg.cond(hess)
        if not (math.isfinite(cond) and cond <= 1e12):
            raise NoConvergence("condition number %.3e" % cond)
        try:
            step = np.linalg.solve(hess, [-g for g in grad]).tolist()
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        if _dot(grad, step) >= 0:  # uphill
            step = [-g for g in grad]
        t, moved = 1.0, False
        for _ in range(40):
            cand = [v + t * s for v, s in zip(w, step)]
            if cand == w:  # rounding is monotone: no smaller t moves w
                break
            if value(eq, cand, theta) < val:
                w, moved = cand, True
                break
            t *= 0.5
        if not moved:
            if not -_dot(grad, step) <= 4 * _EPS * (1 + abs(val)):
                raise NoConvergence("no decreasing step at grad norm %.3e"
                                    % gn)
            return val, w, hess, gn, it
    raise NoConvergence("no convergence in %d iterations" % MAX_NEWTON_ITER)

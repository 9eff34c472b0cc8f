"""Exact symbol calculus on the phase space (t, x, tau, xi).

Polynomials are stored sparsely with Fraction coefficients over the
2*(d+1) variables, ordered

    (t, x1, ..., xd, tau, xi1, ..., xid).

Sign convention
---------------
The Poisson bracket used throughout this package is

    {f, g} = f_tau g_t - f_t g_tau + sum_j (f_{xi_j} g_{x_j} - f_{x_j} g_{xi_j})

so that {xi1, x1} = +1 and {tau, t} = +1.  Equivalently, the Hamilton
field of f is

    H_f = (f_tau, f_xi, -f_t, -f_x)        in coordinate order (t, x, tau, xi)

and {f, g} = H_f . grad(g).  For f = t - phi(x, xi) this gives
H_f = (0, -phi_xi, -1, phi_x).  Note that the opposite convention
({x1, xi1} = +1) is also widespread; every routine here assumes the one
above.

Homogeneity is always measured in the xi variables alone (tau does not
count), so a polynomial is homogeneous of xi-degree m when every term
has total xi-exponent m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, log2
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Coeff = Union[int, Fraction, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live on phase spaces of different dimension."""


class NotSingular(ValueError):
    """A quadratic jet was requested at a point that is not a double
    characteristic (nonzero value or first derivative)."""

    def __init__(self, message: str, derivative: Optional[str] = None,
                 value: Optional[Fraction] = None):
        super().__init__(message)
        self.derivative = derivative
        self.value = value


def as_fraction(v: Coeff) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        raise TypeError("refusing to coerce float %r silently; pass an exact "
                        "rational (int, Fraction, or 'num/den' string)" % (v,))
    raise TypeError("cannot interpret %r as an exact rational" % (v,))


def var_names(d: int) -> Tuple[str, ...]:
    """Canonical variable names: t, x1..xd, tau, xi1..xid."""
    return ("t",) + tuple("x%d" % i for i in range(1, d + 1)) \
        + ("tau",) + tuple("xi%d" % i for i in range(1, d + 1))


def var_index(d: int, name: str) -> int:
    """Index of a named variable in the canonical ordering."""
    if name == "t":
        return 0
    if name == "tau":
        return d + 1
    if name[:1] != "x":
        raise ValueError("unknown variable name %r" % (name,))
    xi = name.startswith("xi")
    i = int(name[2:] if xi else name[1:])
    if not 1 <= i <= d:
        raise DimensionMismatch("variable %s out of range for d=%d" % (name, d))
    return d + 1 + i if xi else i


class PolySymbol:
    """Sparse polynomial in (t, x, tau, xi) with exact rational coefficients.

    Instances are immutable by convention: no method mutates ``terms``.
    Terms map exponent tuples (length 2*(d+1)) to nonzero Fractions (to
    ints in the integer forms that TensorGrid.integer builds).
    Every constructor and arithmetic method builds ``terms`` by one merge
    of (exponents, coefficient) pairs in order (_merge): a pair adds to
    the term with its exponents in place, a zero sum removes the term, and
    a later pair with the same exponents starts a new term at the end.
    Float eval sums in ``terms`` order, so this rule fixes its rounding.
    """

    __slots__ = ("d", "terms", "_table")

    def __init__(self, d: int, terms=None):
        """terms: a mapping or (exponents, coefficient) pairs, validated
        and merged in order."""
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        n = 2 * (d + 1)

        def checked(pairs):
            for exps, c in pairs:
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise DimensionMismatch(
                        "exponent tuple of length %d does not match d=%d"
                        % (len(exps), d))
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                yield exps, as_fraction(c)

        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._set(d, checked(pairs))

    def _set(self, d: int, pairs) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", _merge(pairs))
        object.__setattr__(self, "_table", None)  # built by the first eval

    @classmethod
    def _built(cls, d: int, pairs) -> "PolySymbol":
        """A symbol on d's phase space from pairs the package built."""
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        out = object.__new__(cls)
        out._set(d, pairs)
        return out

    def _new(self, pairs) -> "PolySymbol":
        """A symbol on this phase space from pairs the package built."""
        return PolySymbol._built(self.d, pairs)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("PolySymbol is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked setattr
        return (PolySymbol, (self.d, self.terms))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "PolySymbol":
        return cls(d)

    @classmethod
    def constant(cls, d: int, c: Coeff) -> "PolySymbol":
        return cls._built(d, [((0,) * (2 * (d + 1)), as_fraction(c))])

    @classmethod
    def coordinate(cls, d: int, name: str) -> "PolySymbol":
        i = var_index(d, name)
        exps = [0] * (2 * (d + 1))
        exps[i] = 1
        return cls._built(d, [(tuple(exps), _ONE)])

    # -- basic structure ----------------------------------------------

    @property
    def nvars(self) -> int:
        return 2 * (self.d + 1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def xi_slots(self) -> range:
        return range(self.d + 2, 2 * (self.d + 1))

    def term_xi_degree(self, exps: Tuple[int, ...]) -> int:
        return sum(exps[i] for i in self.xi_slots())

    def depends_on(self, i: int) -> bool:
        return any(e[i] for e in self.terms)

    def sorted_terms(self):
        """Terms in graded lexicographic order (degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolySymbol):
            if other.d != self.d:
                raise DimensionMismatch("mixing d=%d with d=%d" % (self.d, other.d))
            return other
        return PolySymbol.constant(self.d, other)

    def __add__(self, other):
        other = self._coerce(other)
        return self._new(chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new((e, -c) for e, c in self.terms.items())

    def __sub__(self, other):
        other = self._coerce(other)
        return self._new(chain(self.terms.items(),
                               ((e, -c) for e, c in other.terms.items())))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return self._new((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                         for e1, c1 in self.terms.items()
                         for e2, c2 in other.terms.items())

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of a symbol by zero")
        return self._new((e, v / c) for e, v in self.terms.items())

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return PolySymbol.constant(self.d, 1) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, PolySymbol):
            if isinstance(other, (int, Fraction)):
                other = PolySymbol.constant(self.d, other)
            else:
                return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __repr__(self):
        return "PolySymbol(d=%d, %s)" % (self.d, str(self) or "0")

    def __str__(self):
        names = var_names(self.d)
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        return " + ".join(parts).replace("+ -", "- ")

    # -- calculus ------------------------------------------------------

    def _var(self, var: Union[int, str]) -> int:
        if isinstance(var, str):
            return var_index(self.d, var)
        if not 0 <= var < self.nvars:
            raise DimensionMismatch("variable index %d out of range" % var)
        return var

    def diff(self, var: Union[int, str]) -> "PolySymbol":
        i = self._var(var)
        return self._new((exps[:i] + (exps[i] - 1,) + exps[i + 1:],
                          c * exps[i])
                         for exps, c in self.terms.items() if exps[i])

    def collect(self, slots) -> dict:
        """{m: H_m} with self the sum of monomial(m) * H_m: the terms
        grouped by their exponents m on these slots (0 on the others), in
        the order each first appears; H_m, free of the slots, keeps the
        group's terms in order.  A symbol free of the slots is its own
        cofactor."""
        if not any(map(self.depends_on, slots)):
            return {(0,) * self.nvars: self}
        groups = {}
        for exps, c in self.terms.items():
            m = tuple(e if i in slots else 0 for i, e in enumerate(exps))
            groups.setdefault(m, []).append(
                (tuple(0 if i in slots else e for i, e in enumerate(exps)), c))
        return {m: self._new(pairs) for m, pairs in groups.items()}

    def eval(self, point: Sequence):
        """Evaluate at a point (any sequence of length 2*(d+1)).

        Exact when every coordinate is an int, a Fraction or a numpy array
        of them (dtype object), broadcasting over the arrays.  Otherwise in
        floats, after converting every coordinate but numpy arrays (so a
        mixed point too), broadcasting over the arrays: terms in ``terms``
        order, each the float coefficient times its factors x**e left to
        right, summed from 0.0.  x**e is the product x * x * ... * x, so
        an array entry rounds as its point alone does (numpy's array power
        and libm's pow can differ in the last bit).
        """
        vals = point.as_tuple() if isinstance(point, PhasePoint) else tuple(point)
        if len(vals) != self.nvars:
            raise DimensionMismatch("point of length %d for d=%d" % (len(vals), self.d))
        exact = all(isinstance(v, (int, Fraction)) or (
            isinstance(v, np.ndarray) and v.dtype == object) for v in vals)
        if not exact:
            vals = [v if isinstance(v, np.ndarray) else float(v) for v in vals]
        if self._table is None:
            object.__setattr__(self, "_table", tuple(
                (c, float(c), tuple((i, e) for i, e in enumerate(exps) if e))
                for exps, c in self.terms.items()))
        total = _ZERO if exact else 0.0
        for c, float_c, factors in self._table:
            v = c if exact else float_c
            for i, e in factors:
                x = p = vals[i]
                while e > 1:  # x**e as x * x * ... * x, left to right
                    p = p * x
                    e -= 1
                v = v * p
            total = total + v
        return total


def _merge(pairs) -> dict:
    """The terms of (exponents, coefficient) pairs merged in order: a pair
    adds to the term with its exponents in place, a zero sum removes the
    term, and a later pair with the same exponents starts a new term at
    the end."""
    out = {}
    for exps, c in pairs:
        s = out[exps] + c if exps in out else c
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)
    return out


def phase_variables(d: int):
    """Convenience: returns (t, xs, tau, xis) coordinate polynomials."""
    t = PolySymbol.coordinate(d, "t")
    xs = [PolySymbol.coordinate(d, "x%d" % i) for i in range(1, d + 1)]
    tau = PolySymbol.coordinate(d, "tau")
    xis = [PolySymbol.coordinate(d, "xi%d" % i) for i in range(1, d + 1)]
    return t, xs, tau, xis


@dataclass(frozen=True)
class PhasePoint:
    """A point of the phase space with exact rational coordinates."""

    t: Fraction
    x: Tuple[Fraction, ...]
    tau: Fraction
    xi: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", as_fraction(self.t))
        object.__setattr__(self, "tau", as_fraction(self.tau))
        object.__setattr__(self, "x", tuple(as_fraction(v) for v in self.x))
        object.__setattr__(self, "xi", tuple(as_fraction(v) for v in self.xi))
        if len(self.x) != len(self.xi):
            raise DimensionMismatch("x and xi must have equal length")

    @property
    def d(self) -> int:
        return len(self.x)

    @classmethod
    def base(cls, d: int) -> "PhasePoint":
        """The reference double characteristic (t, x, tau, xi) = (0, 0, 0, e_d)."""
        xi = [_ZERO] * d
        if d:
            xi[-1] = _ONE
        return cls(_ZERO, (_ZERO,) * d, _ZERO, tuple(xi))

    @classmethod
    def from_sequence(cls, d: int, vals: Sequence) -> "PhasePoint":
        vals = tuple(vals)
        if len(vals) != 2 * (d + 1):
            raise DimensionMismatch("need %d coordinates" % (2 * (d + 1)))
        return cls(vals[0], vals[1:d + 1], vals[d + 1], vals[d + 2:])

    def as_tuple(self) -> Tuple[Fraction, ...]:
        return (self.t,) + self.x + (self.tau,) + self.xi


# -- Poisson calculus ---------------------------------------------------


def poisson_bracket(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """{f, g} with the module's convention ({xi1, x1} = +1), summed in
    the order f_tau g_t - f_t g_tau + f_xi1 g_x1 - f_x1 g_xi1 + ...; a
    product with a zero factor is skipped, which moves no term."""
    if f.d != g.d:
        raise DimensionMismatch("bracket of symbols with d=%d and d=%d" % (f.d, g.d))
    d = f.d
    out = PolySymbol.zero(d)
    for j in range(d + 1):  # j = 0 pairs tau with t
        for k, (i, m) in enumerate(((d + 1 + j, j), (j, d + 1 + j))):
            fi = f.diff(i)
            gm = g.diff(m) if fi.terms else fi
            if gm.terms:
                out = out - fi * gm if k else out + fi * gm
    return out


def homogeneity_check(f: PolySymbol, m: int) -> Tuple[bool, PolySymbol]:
    """Euler test in xi: is sum_j xi_j f_{xi_j} - m f identically zero?

    Returns (flag, residual).  The residual collects exactly the terms of
    f whose xi-degree differs from m, scaled by (degree - m), so it is the
    zero polynomial precisely when f is xi-homogeneous of degree m.
    """
    out = {}
    for exps, c in f.terms.items():
        k = f.term_xi_degree(exps)
        if k != m:
            out[exps] = c * (k - m)
    return (not out), f._new(out.items())


# -- jets at a double characteristic ------------------------------------


@dataclass(frozen=True)
class QuadraticJet:
    """Quadratic form given by its symmetric coefficient matrix.

    ``matrix`` is a tuple of tuple rows of Fractions of size 2*(d+1); the
    value of the form at v is v^T M v (so M is one half of the Hessian of
    the underlying symbol).
    """

    d: int
    matrix: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = 2 * (self.d + 1)
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be %dx%d" % (n, n))
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")
        object.__setattr__(self, "matrix", rows)

    @property
    def size(self) -> int:
        return 2 * (self.d + 1)


def _shown(c: Fraction) -> str:
    """c exactly, or its sign and size as 2^x where str() refuses it."""
    try:
        return str(c)
    except ValueError:
        return "%s2^%.1f" % ("-" if c < 0 else "", log2(abs(c.numerator))
                             - log2(c.denominator))


def quadratic_jet(p: PolySymbol, at: Union[PhasePoint, Sequence]) -> QuadraticJet:
    """Exact second order Taylor form of p at a double characteristic.

    Requires p(at) = 0 and grad p(at) = 0; otherwise NotSingular is raised
    naming the first offending derivative (None for the value itself).
    The result's v^T M v is the quadratic part of p(at + v), i.e. the
    matrix is one half of the exact Hessian.

    p(at + v) is expanded one slot at a time, each term by the binomial
    theorem, merged in order (_merge), but only as far as the jet reads:
    a slot's exponent is final once it is recentered (or its coordinate
    is 0), so no term is built whose final exponents sum past 2.
    """
    pt = at if isinstance(at, PhasePoint) else PhasePoint.from_sequence(p.d, at)
    if pt.d != p.d:
        raise DimensionMismatch("point dimension %d for symbol with d=%d" % (pt.d, p.d))
    vals = pt.as_tuple()
    final = [not c0 for c0 in vals]

    def room(exps):  # the degree left to the slots still to recenter
        return 2 - sum(e for e, f in zip(exps, final) if f)

    def recentered(terms, i, c0):
        # k from the top down, so one exact power c0^(e - top) is
        # multiplied up by c0 instead of raised afresh for each k
        for exps, co in terms.items():
            e = exps[i]
            top = min(e, room(exps))
            power = c0 ** (e - top)
            for k in range(top, -1, -1):
                yield exps[:i] + (k,) + exps[i + 1:], co * comb(e, k) * power
                power *= c0

    terms = p.terms
    for i, c0 in enumerate(vals):
        if c0:
            terms = _merge(recentered(terms, i, c0))
            final[i] = True
    names = var_names(p.d)
    n = p.nvars
    zero_exps = (0,) * n
    c0 = terms.get(zero_exps)
    if c0:
        raise NotSingular("p does not vanish at the point (value %s)"
                          % _shown(c0), derivative=None, value=c0)
    for i in range(n):
        key = zero_exps[:i] + (1,) + zero_exps[i + 1:]
        c1 = terms.get(key)
        if c1:
            raise NotSingular(
                "first derivative in %s is %s at the point, not a double "
                "characteristic" % (names[i], _shown(c1)),
                derivative=names[i], value=c1)
    rows = [[_ZERO] * n for _ in range(n)]
    for exps, c in terms.items():
        if sum(exps) != 2:
            continue
        nz = [i for i, e in enumerate(exps) if e]
        if len(nz) == 1:
            i = nz[0]
            rows[i][i] = c
        else:
            i, j = nz
            rows[i][j] = c / 2
            rows[j][i] = c / 2
    return QuadraticJet(p.d, tuple(tuple(r) for r in rows))


# -- candidate symplectic frames ----------------------------------------


@dataclass(frozen=True)
class CandidateFrame:
    """User supplied partial frame (X_j, Xi_j), j = j_start..d, to be
    verified against the canonical relations at a base point."""

    d: int
    j_start: int
    pairs: Tuple[Tuple[PolySymbol, PolySymbol], ...]
    base: PhasePoint

    def __post_init__(self):
        if not 1 <= self.j_start <= self.d:
            raise ValueError("j_start must lie in 1..d")
        expected = self.d - self.j_start + 1
        if len(self.pairs) != expected:
            raise DimensionMismatch(
                "expected %d pairs for j = %d..%d, got %d"
                % (expected, self.j_start, self.d, len(self.pairs)))
        for X, Xi in self.pairs:
            if X.d != self.d or Xi.d != self.d:
                raise DimensionMismatch("frame entries must live on d=%d" % self.d)
        if self.base.d != self.d:
            raise DimensionMismatch("base point dimension mismatch")


@dataclass(frozen=True)
class FrameReport:
    ok: bool
    checks: Tuple[Tuple[str, bool], ...]
    failures: Tuple[str, ...]


def check_frame(frame: CandidateFrame) -> FrameReport:
    """Verify canonical bracket relations and base point conditions.

    Exact polynomial identities: {X_i, X_j} = 0, {Xi_i, Xi_j} = 0 and
    {Xi_i, X_j} = delta_ij.  Point conditions: X_j(base) = 0 for all j,
    Xi_j(base) = 0 for j < d and Xi_d(base) != 0.  Homogeneity: X_j of
    xi-degree 0, Xi_j of xi-degree 1.  Every failure is reported; nothing
    raises.
    """
    js = list(range(frame.j_start, frame.d + 1))
    named = {j: frame.pairs[k] for k, j in enumerate(js)}
    checks = []
    failures = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok)))
        if not ok:
            failures.append(name + ("" if not detail else ": " + detail))

    for j in js:
        X, Xi = named[j]
        okx, _ = homogeneity_check(X, 0)
        record("X%d xi-degree 0" % j, okx)
        oki, _ = homogeneity_check(Xi, 1)
        record("Xi%d xi-degree 1" % j, oki)
        tfree = not (X.depends_on(frame.d + 1) or Xi.depends_on(frame.d + 1))
        record("pair %d tau-free" % j, tfree)
    for a_i, i in enumerate(js):
        Xi_i = named[i][1]
        X_i = named[i][0]
        for jdx in js[a_i:]:
            X_j, Xi_j = named[jdx]
            if jdx != i:
                b = poisson_bracket(X_i, X_j)
                record("{X%d, X%d} = 0" % (i, jdx), b.is_zero, str(b))
                b = poisson_bracket(Xi_i, Xi_j)
                record("{Xi%d, Xi%d} = 0" % (i, jdx), b.is_zero, str(b))
            b = poisson_bracket(Xi_i, X_j)
            want = PolySymbol.constant(frame.d, 1 if i == jdx else 0)
            record("{Xi%d, X%d} = %d" % (i, jdx, 1 if i == jdx else 0),
                   b == want, str(b))
            if jdx != i:
                b = poisson_bracket(Xi_j, X_i)
                record("{Xi%d, X%d} = 0" % (jdx, i), b.is_zero, str(b))
    for j in js:
        X, Xi = named[j]
        xv = X.eval(frame.base)
        record("X%d(base) = 0" % j, xv == 0, str(xv))
        iv = Xi.eval(frame.base)
        if j < frame.d:
            record("Xi%d(base) = 0" % j, iv == 0, str(iv))
        else:
            record("Xi%d(base) != 0" % j, iv != 0, str(iv))
    return FrameReport(ok=not failures, checks=tuple(checks), failures=tuple(failures))

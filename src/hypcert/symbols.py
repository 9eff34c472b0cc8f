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
from math import comb
from typing import Mapping, Optional, Sequence, Tuple, Union

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
    if name.startswith("xi"):
        i = int(name[2:])
        if not 1 <= i <= d:
            raise DimensionMismatch("variable %s out of range for d=%d" % (name, d))
        return d + 1 + i
    if name.startswith("x"):
        i = int(name[1:])
        if not 1 <= i <= d:
            raise DimensionMismatch("variable %s out of range for d=%d" % (name, d))
        return i
    raise ValueError("unknown variable name %r" % (name,))


class PolySymbol:
    """Sparse polynomial in (t, x, tau, xi) with exact rational coefficients.

    Instances are immutable by convention: no method mutates ``terms``.
    Terms map exponent tuples (length 2*(d+1)) to nonzero Fractions.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Optional[Mapping[Tuple[int, ...], Coeff]] = None):
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        n = 2 * (d + 1)
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise DimensionMismatch(
                        "exponent tuple of length %d does not match d=%d" % (len(exps), d))
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                c = as_fraction(c)
                if c != 0:
                    prev = clean.get(exps)
                    if prev is None:
                        clean[exps] = c
                    else:
                        s = prev + c
                        if s == 0:
                            del clean[exps]
                        else:
                            clean[exps] = s
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("PolySymbol is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "PolySymbol":
        return cls(d)

    @classmethod
    def constant(cls, d: int, c: Coeff) -> "PolySymbol":
        c = as_fraction(c)
        if c == 0:
            return cls(d)
        return cls(d, {(0,) * (2 * (d + 1)): c})

    @classmethod
    def coordinate(cls, d: int, name: str) -> "PolySymbol":
        i = var_index(d, name)
        exps = [0] * (2 * (d + 1))
        exps[i] = 1
        return cls(d, {tuple(exps): _ONE})

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
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, _ZERO) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return PolySymbol(self.d, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return PolySymbol(self.d, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of a symbol by zero")
        return PolySymbol(self.d, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = PolySymbol.constant(self.d, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                s = out.get(key, _ZERO) + c * e
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return PolySymbol(self.d, out)

    def eval(self, point: Sequence) -> Union[Fraction, float]:
        """Evaluate at a point (any sequence of length 2*(d+1)).

        Exact when all coordinates are Fractions or ints, float otherwise.
        """
        vals = point.as_tuple() if isinstance(point, PhasePoint) else tuple(point)
        if len(vals) != self.nvars:
            raise DimensionMismatch("point of length %d for d=%d" % (len(vals), self.d))
        total = _ZERO
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = v * vals[i] ** e
            total = total + v
        return total

    def shift(self, point: Sequence) -> "PolySymbol":
        """Recenter exactly: returns q with q(v) = self(v + point)."""
        vals = point.as_tuple() if isinstance(point, PhasePoint) else \
            tuple(as_fraction(v) for v in point)
        if len(vals) != self.nvars:
            raise DimensionMismatch("point of length %d for d=%d" % (len(vals), self.d))
        cur = dict(self.terms)
        for i, c0 in enumerate(vals):
            if c0 == 0:
                continue
            nxt = {}
            for exps, co in cur.items():
                e = exps[i]
                if e == 0:
                    nxt[exps] = nxt.get(exps, _ZERO) + co
                    continue
                for k in range(e + 1):
                    key = exps[:i] + (k,) + exps[i + 1:]
                    add = co * comb(e, k) * c0 ** (e - k)
                    s = nxt.get(key, _ZERO) + add
                    if s == 0:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = s
            cur = nxt
        return PolySymbol(self.d, cur)


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
        xi = [Fraction(0)] * d
        if d:
            xi[-1] = Fraction(1)
        return cls(Fraction(0), tuple([Fraction(0)] * d), Fraction(0), tuple(xi))

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
    """{f, g} with the module's convention ({xi1, x1} = +1)."""
    if f.d != g.d:
        raise DimensionMismatch("bracket of symbols with d=%d and d=%d" % (f.d, g.d))
    d = f.d
    tau = d + 1
    out = f.diff(tau) * g.diff(0) - f.diff(0) * g.diff(tau)
    for j in range(1, d + 1):
        out = out + f.diff(d + 1 + j) * g.diff(j) - f.diff(j) * g.diff(d + 1 + j)
    return out


def hamilton_field(f: PolySymbol, at: Union[PhasePoint, Sequence]) -> Tuple[Fraction, ...]:
    """H_f = (f_tau, f_xi, -f_t, -f_x) evaluated at a point.

    The returned tuple follows the coordinate order (t, x, tau, xi):
    slot 0 holds f_tau, slots 1..d hold f_{xi_j}, slot d+1 holds -f_t and
    slots d+2..2d+1 hold -f_{x_j}.
    """
    d = f.d
    pt = at if isinstance(at, PhasePoint) else PhasePoint.from_sequence(d, at)
    if pt.d != d:
        raise DimensionMismatch("point dimension %d for symbol with d=%d" % (pt.d, d))
    vec = [f.diff(d + 1).eval(pt)]
    for j in range(1, d + 1):
        vec.append(f.diff(d + 1 + j).eval(pt))
    vec.append(-f.diff(0).eval(pt))
    for j in range(1, d + 1):
        vec.append(-f.diff(j).eval(pt))
    return tuple(vec)


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
    return (not out), PolySymbol(f.d, out)


# -- jets at a double characteristic ------------------------------------


@dataclass(frozen=True)
class QuadraticJet:
    """Quadratic form given by its symmetric coefficient matrix.

    ``matrix`` is a tuple of tuple rows of Fractions of size 2*(d+1); the
    value of the form at v is v^T M v (so M is one half of the Hessian of
    the underlying symbol).  ``partition`` optionally names a subset of
    the conjugate pairs (0 for (t, tau), i for (x_i, xi_i)) split off as
    an independent block.
    """

    d: int
    matrix: Tuple[Tuple[Fraction, ...], ...]
    partition: Optional[frozenset] = None

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
        if self.partition is not None:
            pairs = frozenset(int(i) for i in self.partition)
            if not pairs or not pairs <= set(range(self.d + 1)):
                raise ValueError("partition must be a nonempty set of pair indices 0..d")
            object.__setattr__(self, "partition", pairs)

    @property
    def size(self) -> int:
        return 2 * (self.d + 1)

    def value_at(self, v: Sequence) -> Union[Fraction, float]:
        vals = v.as_tuple() if isinstance(v, PhasePoint) else tuple(v)
        if len(vals) != self.size:
            raise DimensionMismatch("vector of length %d for size %d" % (len(vals), self.size))
        total = _ZERO
        for i, row in enumerate(self.matrix):
            for j, m in enumerate(row):
                if m != 0:
                    total = total + m * vals[i] * vals[j]
        return total


def gradient_at(f: PolySymbol, at: Union[PhasePoint, Sequence]) -> Tuple[Fraction, ...]:
    """All first partial derivatives of f at a point, in variable order."""
    pt = at if isinstance(at, PhasePoint) else PhasePoint.from_sequence(f.d, at)
    return tuple(f.diff(i).eval(pt) for i in range(f.nvars))


def quadratic_jet(p: PolySymbol, at: Union[PhasePoint, Sequence]) -> QuadraticJet:
    """Exact second order Taylor form of p at a double characteristic.

    Requires p(at) = 0 and grad p(at) = 0; otherwise NotSingular is raised
    naming the first offending derivative (the empty name '' for the value
    itself).  The result satisfies value_at(v) = quadratic part of
    p(at + v), i.e. the matrix is one half of the exact Hessian.
    """
    pt = at if isinstance(at, PhasePoint) else PhasePoint.from_sequence(p.d, at)
    if pt.d != p.d:
        raise DimensionMismatch("point dimension %d for symbol with d=%d" % (pt.d, p.d))
    shifted = p.shift(pt)
    names = var_names(p.d)
    n = p.nvars
    zero_exps = (0,) * n
    c0 = shifted.terms.get(zero_exps)
    if c0:
        raise NotSingular("p does not vanish at the point (value %s)" % c0,
                          derivative=None, value=c0)
    for i in range(n):
        key = zero_exps[:i] + (1,) + zero_exps[i + 1:]
        c1 = shifted.terms.get(key)
        if c1:
            raise NotSingular(
                "first derivative in %s is %s at the point, not a double "
                "characteristic" % (names[i], c1),
                derivative=names[i], value=c1)
    rows = [[_ZERO] * n for _ in range(n)]
    for exps, c in shifted.terms.items():
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

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

(dchi(s) = scaled(s) = delta * chi(s / delta), delta = CUTOFF_DELTA, the
identity on |s| <= delta), while the quadratic prefactors use the raw w =
(y, eta).  Wherever the cutoff acts as the identity the exact algebra

    a(P(w, theta)) = eps^2 Q(w, theta) + remainder(w, theta)

holds, with remainder psi * q_{p+1}(P) resp. g * r_p(P).  The division
of Q by the remainder factor (mode "normalized") is what the structural
reconstruction inequality is stated for.

On a box of slow coordinates the same chain gives a floor for every w
(ExtendedQ.floor).  In the normalized mode

    Q(w, theta) = (sum_j q_j(P) dn_j^2 + sum_a r_a(P) eta_a^2) / rf(P),

with dn_j the differences of the chain's nodes, which sum to +-1, and rf
the remainder factor.  P moves only through dchi, |dchi| <= 2 delta, so
P stays in the box widened by 2 delta max|eps| in the slots w moves.
Where exact interval bounds (_interval) give rf > 0, every r_a >= 0 and
l_j <= q_j / rf there, Cauchy-Schwarz gives Q >= L = 1 / sum_j (1 / l_j):
the springs-in-series minimum 1/S above, with the factors' box minima.

A Theta is one exact theta.  ExtendedQ holds what the structural check
reads (the slots, theta_at and the floor); evaluating Q, its derivatives
in w and its minimum is the minimize verb's, in module minimize.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from hypcert.symbols import (
    LOG2_REFUSED,
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    _Record,
    homogeneity_check,
    phase_variables,
    poisson_bracket,
)

Number = Union[int, float, Fraction]
_ZERO = Fraction(0)


def horner(coeffs, v):
    """sum_k coeffs[k] v^k; Fraction(0) for no coefficients."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * v + c
    return out


def _scaled(box):
    """(ends, den, bits): a box of exact (lo, hi) per slot as int ends
    over their least common denominator den, and the bit length of the
    largest of den and the ends' magnitudes."""
    den = math.lcm(*map(attrgetter("denominator"), chain(*box)))
    ends = [(lo.numerator * (den // lo.denominator),
             hi.numerator * (den // hi.denominator)) for lo, hi in box]
    return ends, den, max(den, *map(abs, chain(*ends))).bit_length()


def _interval(poly, box, den: int, bits: int) -> Tuple[Fraction, Fraction]:
    """Exact (lo, hi) with lo <= poly <= hi on a box given as int ends
    times den > 0, one (lo, hi) per phase slot, bits the bit length of
    the largest of den and the ends' magnitudes: the natural interval
    extension over the monomials (Moore, Kearfott & Cloud 2009), in ints
    over one denominator, each power of a slot taken whole, so an even
    power of a slot about 0 is never negative.  ScanTooLarge refuses a
    polynomial one of whose integers could reach 2^LOG2_REFUSED before
    its powers are formed (grid.check_powers)."""
    scale = math.lcm(*(c.denominator for c in poly.terms.values()))
    top = max(map(sum, poly.terms), default=0)
    # each power formed is at most max(den, |end|)^top
    if top * bits >= LOG2_REFUSED:
        from hypcert.grid import check_powers  # numpy, for certify alone

        mags = [max(map(abs, span)) for span in box]
        check_powers([(scale, 1), (den, top)], *(
            [(c.numerator * (scale // c.denominator), 1),
             (den, top - sum(exps)), *zip(mags, exps)]
            for exps, c in poly.terms.items()))
    lo = hi = 0
    for exps, c in poly.terms.items():
        m_lo = m_hi = (c.numerator * (scale // c.denominator)
                       * den ** (top - sum(exps)))
        for (x_lo, x_hi), k in zip(box, exps):
            if k:
                p_lo, p_hi = x_lo ** k, x_hi ** k
                if k % 2 == 0:
                    p_lo, p_hi = min(p_lo, p_hi), max(p_lo, p_hi)
                    if x_lo < 0 < x_hi:
                        p_lo = 0
                ends = (m_lo * p_lo, m_lo * p_hi, m_hi * p_lo, m_hi * p_hi)
                m_lo, m_hi = min(ends), max(ends)
        lo, hi = lo + m_lo, hi + m_hi
    return Fraction(lo, scale * den ** top), Fraction(hi, scale * den ** top)


class InvariantViolation(ValueError):
    """A branch ingredient breaks a declared invariant; names the field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__("%s: %s" % (fieldname, message))
        self.field = fieldname


class NormalFormSpec(_Record):
    """Data for one of the two branch shapes, validated on construction
    (InvariantViolation names the first field that breaks an invariant).

    q has length p+1 for form1 (the last entry multiplies the remainder
    square) and length p for form2; r always has length p.  phi/psi are
    form1 data, g is form2 data.
    """

    _fields = ("variant", "d", "p", "q", "r", "phi", "psi", "g")

    def __init__(self, variant: str, d: int, p: int,
                 q: Tuple[PolySymbol, ...], r: Tuple[PolySymbol, ...],
                 phi: Optional[PolySymbol] = None,
                 psi: Optional[PolySymbol] = None,
                 g: Optional[PolySymbol] = None):
        self.variant, self.d, self.p, self.q, self.r = variant, d, p, q, r
        self.phi, self.psi, self.g = phi, psi, g
        validate_spec(self)

    @cached_property
    def a(self) -> PolySymbol:
        """The composite a (exact), assembled at the first read and kept
        with the spec."""
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

    @cached_property
    def gate(self) -> PolySymbol:
        """phi (form1) resp. the x_p coordinate (form2), built once per
        spec: the remainder must be nonnegative where the gate is."""
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
            _require(homogeneity_check(poly, deg), fieldname,
                     "must be xi-homogeneous of degree %d" % deg)
            _require(poly.eval(base) > 0, fieldname,
                     "must be positive at the base point")

    chain_x = list(range(1, p + 1))
    chain_xi = list(range(d + 2, d + 2 + p))
    if spec.variant == "form1":
        for stem, poly in (("phi", spec.phi), ("psi", spec.psi)):
            fieldname = "%s_%d" % (stem, p)
            _require(poly.d == d, fieldname, "wrong dimension")
            _check_free_of(poly, [0, tau_slot] + chain_x + chain_xi, fieldname)
            _require(homogeneity_check(poly, 0), fieldname,
                     "must be xi-homogeneous of degree 0")
            _require(poly.eval(base) == 0, fieldname,
                     "must vanish at the base point")
    else:
        g = spec.g
        fieldname = "g_%d" % p
        _require(g.d == d, fieldname, "wrong dimension")
        _check_free_of(g, [0, tau_slot] + chain_x[:-1] + chain_xi, fieldname)
        _require(homogeneity_check(g, 2), fieldname,
                 "must be xi-homogeneous of degree 2")
        _require(g.eval(base) == 0, fieldname, "must vanish at the base point")


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


class SideConditionReport(NamedTuple):
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
    from hypcert.grid import TensorGrid  # numpy, for certify alone

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


def _piecewise(s, inner, coeffs, outer, odd):
    """The piece on u = |s|, negated at s < 0 when odd: u itself (inner
    None) or the constant inner on u <= 1, the constant outer on u >= 2,
    and the polynomial coeffs in u - 1 between.  Exact on rationals, a
    constant k read as type(u)(k), so it stays k at u = inf."""
    neg = s < 0
    u = -s if neg else s
    out = ((u if inner is None else type(u)(inner)) if u <= 1
           else type(u)(outer) if u >= 2 else horner(coeffs, u - 1))
    return -out if odd and neg else out


# The cutoff of the extended functional: chi is odd and C^2, chi(s) = s
# on |s| <= 1, |chi| = 2 on |s| >= 2, chi' >= 0, with a quintic
# transition (integer coefficients, so chi is exact at rational
# arguments).  scaled(s) = delta * chi(s / delta) is the identity on |s|
# <= delta and bounded by 2 delta, with delta = CUTOFF_DELTA, which the
# structural report prints; its j-th derivative (module minimize) is
# chi^(j)(s / delta) * delta^(1-j).
CUTOFF_DELTA = Fraction(1, 2)
_FLOAT_DELTA = float(CUTOFF_DELTA)


def chi(s: Number) -> Number:
    return _piecewise(s, None, _H, 2, odd=True)


def _delta_for(s: Number):
    """delta for the argument s: for a float, float(delta), what
    Fraction's operators compute with, so the float path skips their
    fallbacks."""
    return _FLOAT_DELTA if type(s) is float else CUTOFF_DELTA


def scaled(s: Number) -> Number:
    delta = _delta_for(s)
    return delta * chi(s / delta)


# --------------------------------------------------------------- extended Q


class Theta(NamedTuple):
    """Slow coordinates of the extended functional, exact: time t,
    transverse block z = (z_x, z_xi) relative to the base covector, the
    scale eps, and (form2 only) the raw x_p slot."""

    t: Number
    z_x: Tuple[Number, ...]
    z_xi: Tuple[Number, ...]
    eps: Number
    x_p: Optional[Number] = None


class ExtendedQ(_Record):
    """The extended functional Q(w, theta): its shape, its slow vector
    and its floor on a box (module minimize evaluates and minimizes it).

    w = (y_1..y_p, eta_1..eta_p) for form1 and (y_1..y_{p-1},
    eta_1..eta_p) for form2 (y_p is pinned to 0 there).  mode "raw"
    carries the remainder-square factor q_{p+1} (resp. r_p) on the
    anchor; mode "normalized" divides the whole functional by that
    factor at the substituted point.
    """

    _fields = ("spec", "mode")

    def __init__(self, spec: NormalFormSpec, mode: str = "raw"):
        if mode not in ("raw", "normalized"):
            raise ValueError("mode must be 'raw' or 'normalized'")
        self.spec, self.mode = spec, mode

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

    @cached_property
    def _slots(self) -> Tuple[int, ...]:
        """The phase slot of each entry of the flat slow vector (t, z_x,
        z_xi[, x_p])."""
        d, p = self.spec.d, self.spec.p
        slots = ((0,) + tuple(range(p + 1, d + 1))
                 + tuple(range(d + 2 + p, 2 * d + 2)))
        return slots + ((p,) if self.spec.variant == "form2" else ())

    @cached_property
    def theta_dim(self) -> int:
        """Length of the flat slow vector (t, z_x, z_xi[, x_p])."""
        return len(self._slots)

    def theta_at(self, v: Sequence) -> Theta:
        """The Theta of the flat slow vector v = (t, z_x, z_xi[, x_p]),
        pinned: eps = t - phi(z) (form1) resp. t - x_p (form2)."""
        if len(v) != self.theta_dim:
            raise DimensionMismatch("slow vector must have length %d"
                                    % self.theta_dim)
        k = self.spec.d - self.spec.p
        t, z_x, z_xi = v[0], tuple(v[1:1 + k]), tuple(v[1 + k:1 + 2 * k])
        if self.spec.variant == "form1":
            eps = t - self.spec.phi.eval(self._point(v))
            return Theta(t=t, z_x=z_x, z_xi=z_xi, eps=eps)
        return Theta(t=t, z_x=z_x, z_xi=z_xi, eps=t - v[-1], x_p=v[-1])

    def _box(self, hull):
        """The phase box of hull, one (lo, hi) per entry of the flat slow
        vector (t, z_x, z_xi[, x_p]; later entries unread): each at its
        slot, (0, 0) at the others, the base covector's 1 added on xi_d."""
        box = [(0, 0)] * (2 * (self.spec.d + 1))
        for slot, span in zip(self._slots, hull):
            box[slot] = span
        lo, hi = box[-1]
        box[-1] = (lo + 1, hi + 1)
        return box

    def _point(self, v):
        """The phase point of a flat slow vector (t, z_x, z_xi[, x_p]; later
        entries unread), tau 0, the base covector's 1 added on xi_d."""
        return [x for x, _ in self._box([(x, x) for x in v])]

    def floor(self, hull):
        """(L, bounds): Q(w, theta) >= L for every w and every theta whose
        flat slow vector (t, z_x, z_xi[, x_p]) lies in hull, one exact
        (lo, hi) per entry, in the normalized mode (module docstring).
        bounds holds (q_j, l_j) per spring, l_j <= q_j / rf on the box the
        substituted points fill (1 for a spring that is rf itself), and L
        = 1 / sum_j (1 / l_j).  InvariantViolation names the first factor
        whose bound does not close (rf > 0, r_a >= 0, l_j > 0) and the
        box."""
        if self.mode != "normalized":
            raise ValueError("the spring floor is for the normalized mode")
        if len(hull) != self.theta_dim:
            raise DimensionMismatch("hull must have length %d"
                                    % self.theta_dim)
        spec, d = self.spec, self.spec.d
        box = self._box(hull)
        (t_lo, t_hi), rf = hull[0], spec.remainder_factor
        g_lo, g_hi = _interval(spec.gate, *_scaled(box))
        reach = 2 * CUTOFF_DELTA * max(abs(t_lo - g_hi), abs(t_hi - g_lo))
        a_lo, a_hi = box[0] if spec.variant == "form1" else box[spec.p]
        for slot, _ in self._w_slots:
            lo, hi = (a_lo, a_hi) if slot <= d else (_ZERO, _ZERO)
            box[slot] = (lo - reach, hi + reach)
        scaled = _scaled(box)

        def bound(poly):
            return _interval(poly, *scaled)

        def refuse(name, lo, sign):
            raise InvariantViolation(name, "interval lower bound %s is %s on "
                                     "the structural box (t, x, tau, xi) in "
                                     "%s" % (lo, sign, " x ".join(
                                         "[%s, %s]" % b for b in box)))
        rf_lo, rf_hi = bound(rf)
        if rf_lo <= 0:
            refuse(self._rf_name, rf_lo, "not positive")
        for a, r in enumerate(spec.r, start=1):
            lo = bound(r)[0]
            if lo < 0:
                refuse("r%d" % a, lo, "negative")
        bounds = []
        for j, q in enumerate(spec.q, start=1):
            lo = rf_hi if q == rf else bound(q)[0]  # q / rf = 1 when q is rf
            if lo <= 0:
                refuse("q%d" % j, lo, "not positive")
            bounds.append(("q%d" % j, lo / rf_hi))
        return 1 / sum(1 / lo for _, lo in bounds), tuple(bounds)

    @property
    def _rf_name(self) -> str:
        """The field of the remainder factor: q_{p+1} resp. r_p."""
        p = self.spec.p
        return "q%d" % (p + 1) if self.spec.variant == "form1" else "r%d" % p


def build_extended_Q(spec: NormalFormSpec, mode: str = "raw") -> ExtendedQ:
    return ExtendedQ(spec=spec, mode=mode)

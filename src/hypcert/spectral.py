"""Hamilton maps of quadratic jets, spectra, and effective hyperbolicity.

The Hamilton map of a quadratic form Q(v) = v^T M v on phase coordinates
(t, x, tau, xi) is F = J M where J = [[0, I], [-I, 0]] splits positions
u = (t, x) from momenta v = (tau, xi).  Because J M is similar to its
negative transpose, the characteristic polynomial of F is even.  It is
computed exactly in Python ints: F is scaled by the lcm of its entry
denominators to an integer matrix, and the Faddeev-LeVerrier recursion
runs over that matrix's nonzero entries only (a Hamilton map of a jet
has few).  A symbol is effectively hyperbolic at a double characteristic
when F has a real nonzero eigenvalue there, that is, when the polynomial
in mu = lambda^2, its exact zero roots deflated, has a root mu > 0.  One
Sturm sequence of that polynomial in Python ints counts its distinct
negative and positive roots, so the verdict and the spectrum's tag are
exact.

Floats only display the eigenvalues: +-sqrt of each mu root, plus the
exact zeros, computed in pure Python from the same polynomial.  The same
Sturm sequence isolates each distinct real mu root by bisection on its
sign-change counts (Collins & Akritas 1976), and exact sign tests at
dyadic points refine it to its correctly rounded float.  The non-real mu
roots, whose number the counts give exactly, come from a deterministic
Aberth-Ehrlich iteration (Bini 1996) in Python complex, in conjugate
pairs.  Multiplicities come from a square-free decomposition in ints.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    QuadraticJet,
    quadratic_jet,
)

MAX_SIZE = 64  # matrices are 2(d+1) x 2(d+1); d <= 31
MAX_ABERTH = 200  # sweeps of the Aberth-Ehrlich iteration
_EPS = sys.float_info.epsilon


class NoConvergence(RuntimeError):
    """An iteration (root-finding, Newton) failed to converge."""


def _refuse_size(n: int) -> None:
    if n > MAX_SIZE:
        raise DimensionMismatch(
            "a %d x %d Hamilton map exceeds the supported size %d (d <= %d)"
            % (n, n, MAX_SIZE, MAX_SIZE // 2 - 1))


def hamilton_map(jet: QuadraticJet) -> Tuple[Tuple[Fraction, ...], ...]:
    """The exact rows of F = J M, from the jet's coefficient matrix (half
    Hessian).

    In block form with M = [[M_uu, M_uv], [M_vu, M_vv]] this is
    [[M_vu, M_vv], [-M_uu, -M_uv]]; positions are (t, x), momenta
    (tau, xi), so the -tau^2 term lands in M_vv with entry -1.
    """
    _refuse_size(jet.size)
    m, n_pos = jet.matrix, jet.d + 1
    return m[n_pos:] + tuple(tuple(-v for v in row) for row in m[:n_pos])


def charpoly_exact(rows: Sequence[Sequence[Fraction]]) -> Tuple[Fraction, ...]:
    """Monic characteristic polynomial det(lambda I - A), exact rationals.

    Faddeev-LeVerrier recursion in Python ints: A is scaled by D, the lcm
    of its entry denominators, to the integer matrix B = D A, and the
    recursion runs over each row's nonzero entries of B only.  Every
    c_k(B) is an integer, so the trace division by k is exact, and
    c_k(A) = c_k(B) / D^k.
    """
    n = len(rows)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    sparse = [[(j, v.numerator * (scale // v.denominator))
               for j, v in enumerate(row) if v]
              for row in rows]
    coeffs = [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # mk <- B (mk + c_{k-1} I), with c_0 folded in at k = 1
        prev = mk
        mk = []
        for row in sparse:
            acc = [0] * n
            for l, b in row:
                acc = [x + b * y for x, y in zip(acc, prev[l])]
            mk.append(acc)
        trace = sum(mk[i][i] for i in range(n))
        ck, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("step %d: trace %d is not divisible by %d"
                                  % (k, trace, k))
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return tuple(Fraction(c, scale ** k) for k, c in enumerate(coeffs))


def _deflated_mu(coeffs: Sequence[Fraction]) -> Tuple[Tuple[Fraction, ...], int]:
    """An even monic charpoly as a polynomial in mu = lambda^2, leading
    coefficient first, with its exact zero roots deflated, and the number
    of zero pairs deflated.

    coeffs[i] multiplies lambda^(n-i).  Each trailing zero of the
    mu-polynomial is an exact zero eigenvalue of multiplicity 2, so
    defective zero blocks can never shed spurious real pairs.
    """
    n = len(coeffs) - 1
    for i in range(1, n + 1, 2):
        if coeffs[i] != 0:
            raise NoConvergence(
                "characteristic polynomial of a Hamilton map must be even; "
                "odd coefficient %s found" % (coeffs[i],))
    mu = [coeffs[2 * j] for j in range(n // 2 + 1)]
    nz = len(mu)
    while nz > 1 and mu[nz - 1] == 0:
        nz -= 1
    return tuple(mu[:nz]), len(mu) - nz


# --------------------------------------------------- integer polynomials
#
# Integer coefficient lists, leading coefficient first; the zero
# polynomial is [].


def _integer(coeffs: Sequence[Fraction]) -> List[int]:
    """A rational polynomial scaled to integers by the lcm of its
    denominators."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs]


def _derivative(p: Sequence[int]) -> List[int]:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _primitive(p: Sequence[int]) -> List[int]:
    """p divided by its content, with a positive leading coefficient."""
    g = math.gcd(*p) if p[0] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _difference(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a - b, leading zeros stripped."""
    n = max(len(a), len(b))
    out = ([0] * (n - len(a)) + list(a))
    for i, c in enumerate(b, n - len(b)):
        out[i] -= c
    k = 0
    while k < n and out[k] == 0:
        k += 1
    return out[k:]


def _quotient(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a / b, where the primitive b divides a in Q[x], hence in Z[x]
    (Gauss's lemma), so every step of the long division is exact."""
    a, lead = list(a), b[0]
    out = []
    for i in range(len(a) - len(b) + 1):
        c, rem = divmod(a[i], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out.append(c)
        for j in range(1, len(b)):
            a[i + j] -= c * b[j]
    if any(a[len(out):]):
        raise ArithmeticError("inexact polynomial division")
    return out


def _signed_remainder(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """A positive multiple of the remainder of a by b.

    b[0] != 0.  Each division step scales a by |b[0]| > 0 before
    cancelling its leading term, so the result is |b[0]|^k times the true
    remainder and keeps its sign everywhere.
    """
    lead, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    a = list(a)
    while len(a) >= len(b):
        f = sign * a[0]
        a = ([lead * x - f * y for x, y in zip(a, b)]
             + [lead * x for x in a[len(b):]])
        k = 1
        while k < len(a) and a[k] == 0:
            k += 1
        a = a[k:]
    return a


def _gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The primitive gcd of a != 0 and b, with a positive leading
    coefficient (a primitive remainder sequence)."""
    while b:
        a, b = b, _signed_remainder(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _value(p: Sequence[int], n: int, k: int) -> int:
    """2^(k deg p) p(n / 2^k), an integer with the sign of p there."""
    acc, shift = 0, 0
    for c in p:
        acc = acc * n + (c << shift)
        shift += k
    return acc


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _sturm_sequence(p: List[int]) -> List[List[int]]:
    """p, p', then minus each positive multiple of a remainder divided by
    its content; the last member is gcd(p, p') up to a constant."""
    if len(p) == 1:
        return [p]
    seq = [p, _derivative(p)]
    while True:
        r = _signed_remainder(seq[-2], seq[-1])
        if not r:
            return seq
        g = math.gcd(*r)
        seq.append([-c // g for c in r])


def _root_counts(seq: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """(negative, positive, distinct) of seq[0] from its Sturm sequence:
    sign changes at -inf, 0 and +inf count the distinct real roots on
    each side of 0, and deg p minus the degree of the last member counts
    the distinct roots."""
    at_minus = _sign_changes(s[0] if len(s) % 2 else -s[0] for s in seq)
    at_zero = _sign_changes(s[-1] for s in seq)
    at_plus = _sign_changes(s[0] for s in seq)
    return (at_minus - at_zero, at_zero - at_plus,
            len(seq[0]) - len(seq[-1]))


# ------------------------------------------------------------- the roots


def _square_free_factors(seq: Sequence[Sequence[int]]) -> List[Tuple[List[int], int]]:
    """[(f, m)]: p = seq[0] is c * prod f^m with each f square-free and
    the f pairwise coprime (Yun's algorithm in Z[x]), from the gcd(p, p')
    that ends p's Sturm sequence."""
    p, g = seq[0], _primitive(seq[-1])
    if len(g) == 1:
        return [(p, 1)]
    b, d = _quotient(p, g), _quotient(seq[1], g)
    out, m = [], 1
    while len(b) > 1:
        d = _difference(d, _derivative(b))
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, m))
        b, d, m = _quotient(b, a), _quotient(d, a) if d else [], m + 1
    return out


def _isolate(seq: Sequence[Sequence[int]], negative: int,
             positive: int) -> List[Tuple[int, int, int]]:
    """(lo, hi, k) for each distinct real root of p = seq[0]: the root is
    the only one of p in (lo / 2^k, hi / 2^k), and neither end is a root.

    Every root lies in (-2^e, 2^e) (Cauchy's bound), and 0 is not a root,
    so V(-2^e) = V(0) + negative and V(2^e) = V(0) - positive, with V the
    sign changes of the sequence.  An interval holding more than one root
    is halved; a midpoint that is a root of p moves towards lo.
    """
    p = seq[0]
    e = max(1, max(abs(c) for c in p[1:]).bit_length()
            - abs(p[0]).bit_length() + 2)
    v0 = _sign_changes(s[-1] for s in seq)
    stack = [(0, 1 << e, 0, v0, v0 - positive),
             (-(1 << e), 0, 0, v0 + negative, v0)]
    out = []
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi, k))
        elif v_lo - v_hi > 1:
            lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
            while not _value(p, mid, k):
                lo, mid, hi, k = 2 * lo, lo + mid, 2 * hi, k + 1
            v_mid = _sign_changes(_value(s, mid, k) for s in seq)
            stack += [(mid, hi, k, v_mid, v_hi), (lo, mid, k, v_lo, v_mid)]
    return out


def _to_float(n: int, d: int) -> float:
    """n / d correctly rounded (as Fraction.__float__ rounds), +-inf
    past float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _exact(x: float) -> Tuple[int, int]:
    """(n, k) with x = n / 2^k, reading +-inf as +-2^1024 (the first
    value past the largest float's binade)."""
    if not math.isfinite(x):
        return (1 << 1024 if x > 0 else -1 << 1024), 0
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _midpoint(a: float, b: float) -> Tuple[int, int]:
    """(n, k) with (a + b) / 2 = n / 2^k exactly."""
    (na, ka), (nb, kb) = _exact(a), _exact(b)
    k = max(ka, kb)
    return (na << (k - ka)) + (nb << (k - kb)), k + 1


def _floats(f: Sequence[int]) -> List[float]:
    """f's coefficients divided by a power of 2 that brings the largest
    below 1 in magnitude, each correctly rounded."""
    top = max(abs(c).bit_length() for c in f)
    return [c / (1 << top) for c in f]


def _newton_guess(f: Sequence[int], a: float, b: float,
                  rising: bool) -> Optional[float]:
    """A float near the one root of f in (a, b), where f rises when
    `rising`: safeguarded Newton in floats (a step that leaves the
    bracket halves it instead), or None for an infinite end."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    cs = _floats(f)
    x = a / 2 + b / 2
    for _ in range(128):
        value = slope = 0.0
        for c in cs:
            slope = slope * x + value
            value = value * x + c
        if not value:
            break
        if (value > 0) == rising:
            b = x
        else:
            a = x
        y = x - value / slope if slope else a
        if not a < y < b:  # a nan step fails the test too
            y = a / 2 + b / 2
        if y == x:
            break
        x = y
    return x


def _nearest_float(f: Sequence[int], lo: int, hi: int, k: int) -> float:
    """The float nearest to the one root of f in (lo / 2^k, hi / 2^k)
    where f changes sign (ties to even), by exact sign tests at dyadic
    points until both ends round to the same float, or to adjacent ones,
    which the sign at their midpoint tells apart.

    The first two tests are 4 floats either side of a float Newton
    guess, so a good guess leaves a few halvings; the guess only picks
    where to test, so every decision is exact.
    """
    s_lo = _value(f, lo, k) > 0
    x = _newton_guess(f, _to_float(lo, 1 << k), _to_float(hi, 1 << k),
                      not s_lo)
    splits = []
    if x is not None:
        below = above = x
        for _ in range(4):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
        splits = [_exact(above), _exact(below)]
    while True:
        a, b = _to_float(lo, 1 << k), _to_float(hi, 1 << k)
        if a == b:
            return a
        if math.nextafter(a, math.inf) == b:
            tie, kt = _midpoint(a, b)
            v = _value(f, tie, kt)
            if not v:
                return _to_float(tie, 1 << kt)
            return b if (v > 0) == s_lo else a
        if splits:
            mid, km = splits.pop()
            if km < k:
                mid, km = mid << (k - km), k
            lo, hi, k = lo << (km - k), hi << (km - k), km
            if not lo < mid < hi:
                continue
        else:
            lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
        v = _value(f, mid, k)
        if not v:
            return _to_float(mid, 1 << k)
        if (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid


def _correction(cs: Sequence[float], z: complex) -> Tuple[complex, bool]:
    """(f(z) / f'(z), whether |f(z)| is within its rounding error of 0)
    for the float coefficients cs.  Past |z| = 1 it reads the reversed
    polynomial at w = 1/z, f = z^n r(w) and f' = z^(n-1) (n r - w r'), so
    no power of z overflows."""
    n = len(cs) - 1
    outside = abs(z) > 1
    w = 1 / z if outside else z
    aw = abs(w)
    r = dr = 0j
    bound = 0.0
    for c in (reversed(cs) if outside else cs):
        dr = dr * w + r
        r = r * w + c
        bound = bound * aw + abs(c)
    small = abs(r) <= 8 * n * _EPS * bound
    den = n * r - w * dr if outside else dr
    if not den:
        return 0j, small
    return (z * r if outside else r) / den, small


def _aberth(f: Sequence[int], real: Sequence[float],
            pairs: int) -> List[complex]:
    """The roots with Im > 0 of the square-free f whose real roots are the
    floats real and whose other roots are `pairs` conjugate pairs.

    Aberth-Ehrlich (Bini 1996) on those pairs alone: a root's correction
    sums over the real roots, the other pairs and its own conjugate, so
    the pairs stay exact conjugates.  The start points are fixed, on the
    circle whose radius is the pairs' geometric mean modulus, and the
    iteration stops a root when its step is below one ulp or |f| is
    within its rounding error of 0.  NoConvergence after MAX_ABERTH
    sweeps; OverflowError when the radius is past float range.
    """
    cs = _floats(f)
    log_r = (math.log(abs(f[-1])) - math.log(abs(f[0]))
             - sum(math.log(abs(x)) for x in real if x)) / (2 * pairs)
    radius = math.exp(log_r)
    zs = [cmath.rect(radius, math.pi * (j + 0.4) / pairs)
          for j in range(pairs)]
    done = [False] * pairs
    for _ in range(MAX_ABERTH):
        if all(done):
            return zs
        for i, z in enumerate(zs):
            if done[i]:
                continue
            ratio, small = _correction(cs, z)
            others = list(real) + [z.conjugate()]
            others += [y for j, x in enumerate(zs) if j != i
                       for y in (x, x.conjugate())]
            s = sum(1 / (z - x) for x in others if z != x)
            step = ratio / (1 - ratio * s)
            zs[i] = z - step
            done[i] = small or abs(step) <= _EPS * abs(z)
            if not (math.isfinite(zs[i].real) and math.isfinite(zs[i].imag)):
                raise NoConvergence("Aberth iteration left float range")
    if all(done):
        return zs
    raise NoConvergence("Aberth iteration did not converge in %d sweeps"
                        % MAX_ABERTH)


def _mu_roots(seq: Sequence[Sequence[int]], negative: int,
              positive: int) -> List[Tuple[complex, int]]:
    """(root, multiplicity) for each distinct root of p = seq[0], its
    Sturm sequence, which has `negative` and `positive` distinct real
    roots: a real root as its correctly rounded float, a non-real one
    beside its conjugate.  A root past float range is +-inf."""
    p = seq[0]
    if len(p) == 2:
        return [(complex(_to_float(-p[1], p[0])), 1)]
    factors = _square_free_factors(seq)
    real = [[] for _ in factors]
    for lo, hi, k in _isolate(seq, negative, positive):
        i = next(i for i, (f, _) in enumerate(factors)
                 if (_value(f, lo, k) > 0) != (_value(f, hi, k) > 0))
        real[i].append(_nearest_float(factors[i][0], lo, hi, k))
    out = []
    for (f, m), xs in zip(factors, real):
        out += [(complex(x), m) for x in xs]
        if len(f) - 1 > len(xs):
            for z in _aberth(f, xs, (len(f) - 1 - len(xs)) // 2):
                z = complex(z.real, abs(z.imag))
                out += [(z, m), (z.conjugate(), m)]
    return out


def _eigenvalues(mu: Sequence[Fraction], zero_pairs: int,
                 seq: Sequence[Sequence[int]], negative: int,
                 positive: int) -> Tuple[complex, ...]:
    """Float eigenvalues for display: the deflated zero pairs exactly, and
    +-sqrt of each root of the deflated mu-polynomial (_mu_roots, from
    its integer Sturm sequence seq), repeated by multiplicity; none at all
    when one of its coefficients or roots is past float range."""
    eigs = [0j] * (2 * zero_pairs)
    if len(mu) > 1:
        try:
            for c in mu:
                float(c)  # raises past float range
            roots = _mu_roots(seq, negative, positive)
        except OverflowError:
            return ()
        for r, m in roots:
            if not (math.isfinite(r.real) and math.isfinite(r.imag)):
                return ()
            s = cmath.sqrt(r)
            eigs += [s, -s] * m
    eigs.sort(key=lambda z: (z.real, z.imag))
    return tuple(eigs)


class Spectrum(NamedTuple):
    """Eigenvalues of a Hamilton map and its exact classification tag.

    eigenvalues are floats for display, sorted by (Re, Im), and carry
    multiplicity by repetition; the list is closed under negation and
    conjugation by construction.  tag is decided exactly from the
    deflated mu-polynomial: real-pair-present when it has a root mu > 0,
    zero-only when no nonzero root is left, pure-imaginary-only when every
    distinct root is < 0, and mixed otherwise ("mixed" covers genuinely
    complex quartets that the classified theory never produces but
    arbitrary input can).
    """

    eigenvalues: Tuple[complex, ...]
    tag: str

    @property
    def has_real_pair(self) -> bool:
        return self.tag == "real-pair-present"


def spectrum(F: Sequence[Sequence[Fraction]]) -> Spectrum:
    """Spectrum of the Hamilton map with rows F, its tag decided exactly
    by a Sturm count; the same Sturm sequence locates the displayed
    roots."""
    mu, zero_pairs = _deflated_mu(charpoly_exact(F))
    seq = _sturm_sequence(_integer(mu))
    negative, positive, distinct = _root_counts(seq)
    if positive:
        tag = "real-pair-present"
    elif not distinct:
        tag = "zero-only"
    elif negative == distinct:
        tag = "pure-imaginary-only"
    else:
        tag = "mixed"
    return Spectrum(eigenvalues=_eigenvalues(mu, zero_pairs, seq, negative,
                                             positive),
                    tag=tag)


class Classification(NamedTuple):
    effective: bool
    witness: Optional[complex]
    spectrum: Spectrum


def classify_effective_hyperbolicity(p: PolySymbol,
                                     at: Union[PhasePoint, Sequence]) -> Classification:
    """Is p effectively hyperbolic at the double characteristic `at`?

    Effective iff the Hamilton map of the quadratic jet has a real
    nonzero eigenvalue, decided exactly (spectrum's tag).  The witness is
    then the displayed eigenvalue with Re > 0 closest to the real axis,
    ties going to the larger Re; otherwise, or when none is displayed,
    None.  NotSingular propagates from the jet when `at` is not a double
    characteristic, and DimensionMismatch, before the jet is built, when
    the map would exceed MAX_SIZE.
    """
    _refuse_size(p.nvars)
    spec = spectrum(hamilton_map(quadratic_jet(p, at)))
    witness = None
    if spec.has_real_pair:
        witness = min((z for z in spec.eigenvalues if z.real > 0),
                      key=lambda z: (abs(z.imag), -z.real), default=None)
    return Classification(effective=spec.has_real_pair, witness=witness,
                          spectrum=spec)

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
exact.  Floats only display the eigenvalues: +-sqrt of the
companion-matrix roots of the deflated polynomial, plus the exact zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    QuadraticJet,
    quadratic_jet,
)

MAX_SIZE = 64  # matrices are 2(d+1) x 2(d+1); d <= 31


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


def _eigenvalues(mu: Sequence[Fraction], zero_pairs: int) -> Tuple[complex, ...]:
    """Float eigenvalues for display: the deflated zero pairs exactly, and
    +-sqrt of each companion-matrix root of the deflated mu-polynomial;
    none at all when one of its coefficients is past float range."""
    eigs = [0j] * (2 * zero_pairs)
    if len(mu) > 1:
        try:
            roots = np.roots([float(c) for c in mu])
        except OverflowError:
            return ()
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("companion-matrix iteration failed") from exc
        for r in roots:
            s = cmath.sqrt(complex(r))
            eigs.append(s)
            eigs.append(-s)
    eigs.sort(key=lambda z: (z.real, z.imag))
    return tuple(eigs)


def _signed_remainder(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """A positive multiple of the remainder of a by b.

    Polynomials are integer coefficient lists, leading coefficient first,
    with b[0] != 0; the zero polynomial is [].  Each division step scales
    a by |b[0]| > 0 before cancelling its leading term, so the result is
    |b[0]|^k times the true remainder and keeps its sign everywhere.
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


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def sturm_root_counts(coeffs: Sequence[Fraction]) -> Tuple[int, int, int]:
    """(negative, positive, distinct): the numbers of distinct real roots
    < 0 and > 0, and of distinct complex roots, of a rational polynomial.

    coeffs is leading coefficient first; the leading and constant
    coefficients must be nonzero (0 is not a root).  The polynomial is
    scaled to integers by the lcm of its denominators, and its Sturm
    sequence p, p', then minus each positive multiple of a remainder
    divided by its content, is built in Python ints.  Sign changes at
    -inf, 0 and +inf count the distinct real roots on each side of 0; the
    last member is gcd(p, p') up to a constant, so deg p minus its degree
    counts the distinct roots.
    """
    if len(coeffs) == 1:
        return 0, 0, 0
    scale = math.lcm(*(c.denominator for c in coeffs))
    p = [c.numerator * (scale // c.denominator) for c in coeffs]
    deg = len(p) - 1
    seq = [p, [c * (deg - i) for i, c in enumerate(p[:-1])]]
    while True:
        r = _signed_remainder(seq[-2], seq[-1])
        if not r:
            break
        g = math.gcd(*r)
        seq.append([-c // g for c in r])
    at_minus = _sign_changes(s[0] if len(s) % 2 else -s[0] for s in seq)
    at_zero = _sign_changes(s[-1] for s in seq)
    at_plus = _sign_changes(s[0] for s in seq)
    return at_minus - at_zero, at_zero - at_plus, deg - (len(seq[-1]) - 1)


@dataclass(frozen=True)
class Spectrum:
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
    by a Sturm count."""
    mu, zero_pairs = _deflated_mu(charpoly_exact(F))
    negative, positive, distinct = sturm_root_counts(mu)
    if positive:
        tag = "real-pair-present"
    elif not distinct:
        tag = "zero-only"
    elif negative == distinct:
        tag = "pure-imaginary-only"
    else:
        tag = "mixed"
    return Spectrum(eigenvalues=_eigenvalues(mu, zero_pairs), tag=tag)


@dataclass(frozen=True)
class Classification:
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


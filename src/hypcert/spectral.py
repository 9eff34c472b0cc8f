"""Hamilton maps of quadratic jets, spectra, and effective hyperbolicity.

The Hamilton map of a quadratic form Q(v) = v^T M v on phase coordinates
(t, x, tau, xi) is F = J M where J = [[0, I], [-I, 0]] splits positions
u = (t, x) from momenta v = (tau, xi).  Because J M is similar to its
negative transpose, the characteristic polynomial of F is even.  It is
computed exactly in Python ints: F is scaled by the lcm of its entry
denominators to an integer matrix, and the Faddeev-LeVerrier recursion
runs over that matrix's nonzero entries only (a Hamilton map of a jet
has few).  The spectrum comes from that exact polynomial: zero roots are
deflated exactly (no spurious eigenvalues from defective zero blocks)
and the nonzero ones come from companion-matrix root-finding on the
polynomial in mu = lambda^2.  A symbol is effectively hyperbolic at a
double characteristic when F has a real nonzero eigenvalue there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    QuadraticJet,
    as_fraction,
    quadratic_jet,
)

MAX_SIZE = 64  # matrices are 2(d+1) x 2(d+1); d <= 31


class NoConvergence(RuntimeError):
    """Eigenvalue extraction failed or exceeded its residual budget."""


class CrossTermsPresent(ValueError):
    """Block factorization requested across coupled variable blocks."""


class NonPositiveInput(ValueError):
    """Chain / elliptic coefficients must be strictly positive."""


class InexactTrace(ArithmeticError):
    """An integer Faddeev-LeVerrier trace was not divisible by its step."""


@dataclass(frozen=True)
class HamiltonMap:
    """F = J M with exact rational entries plus a float view."""

    jet: QuadraticJet
    exact: Tuple[Tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.exact)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.exact])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def _jm(rows: Sequence[Sequence[Fraction]], n_pos: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """J M for a symmetric matrix over n_pos positions + n_pos momenta."""
    out = []
    for i in range(n_pos):
        out.append(tuple(rows[n_pos + i]))
    for i in range(n_pos):
        out.append(tuple(-v for v in rows[i]))
    return tuple(out)


def hamilton_map(jet: QuadraticJet) -> HamiltonMap:
    """Build F = J M from the jet's coefficient matrix (half Hessian).

    In block form with M = [[M_uu, M_uv], [M_vu, M_vv]] this is
    [[M_vu, M_vv], [-M_uu, -M_uv]]; positions are (t, x), momenta
    (tau, xi), so the -tau^2 term lands in M_vv with entry -1.
    """
    n = jet.size
    if n > MAX_SIZE:
        raise DimensionMismatch("matrix size %d exceeds supported %d" % (n, MAX_SIZE))
    return HamiltonMap(jet=jet, exact=_jm(jet.matrix, n // 2))


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
            raise InexactTrace("step %d: trace %d is not divisible by %d"
                               % (k, trace, k))
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return tuple(Fraction(c, scale ** k) for k, c in enumerate(coeffs))


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _eigenvalues_from_even_charpoly(coeffs: Sequence[Fraction]) -> Tuple[complex, ...]:
    """Roots of an even monic charpoly, zero roots deflated exactly.

    coeffs[i] multiplies lambda^(n-i).  Substituting mu = lambda^2 halves
    the degree; exact trailing zeros of the mu-polynomial become exact
    zero eigenvalues (multiplicity 2 each), so defective zero blocks can
    never shed spurious real pairs.
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
    zero_pairs = len(mu) - nz
    eigs = [0j] * (2 * zero_pairs)
    if nz > 1:
        try:
            roots = np.roots([float(c) for c in mu[:nz]])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("companion-matrix iteration failed") from exc
        for r in roots:
            s = cmath.sqrt(complex(r))
            eigs.append(s)
            eigs.append(-s)
    eigs.sort(key=lambda z: (z.real, z.imag))
    return tuple(eigs)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a Hamilton map with classification bookkeeping.

    eigenvalues are sorted by (Re, Im) and carry multiplicity by
    repetition; the list is closed under negation and conjugation by
    construction.  tag is one of real-pair-present / pure-imaginary-only
    / zero-only / mixed ("mixed" covers genuinely complex quartets that
    the classified theory never produces but arbitrary input can).
    """

    eigenvalues: Tuple[complex, ...]
    tol: float
    tag: str
    marginal: Tuple[complex, ...]
    norm: float
    max_residual: float

    def real_nonzero(self) -> Tuple[complex, ...]:
        return tuple(z for z in self.eigenvalues
                     if abs(z.imag) <= self.tol < abs(z.real))

    @property
    def has_real_pair(self) -> bool:
        return self.tag == "real-pair-present"


def default_tol(norm: float) -> float:
    return 1e-9 * (1.0 + norm)


def spectrum(F: HamiltonMap, tol: Optional[float] = None) -> Spectrum:
    """Residual-checked spectrum of F, symmetrized under +/- and conj.

    Every returned eigenvalue satisfies min_v ||Fv - lambda v|| / ||v||
    <= tol * ||F|| (smallest singular value of F - lambda I).  An
    eigenvalue is real-nonzero when |Im| <= tol < |Re|; verdicts within a
    factor 10 of the tolerance boundary are collected in `marginal`.
    """
    norm = F.norm
    if tol is None:
        tol = default_tol(norm)
    if tol <= 0:
        raise ValueError("tol must be positive")
    eigs = _eigenvalues_from_even_charpoly(charpoly_exact(F.exact))
    fm = F.matrix.astype(complex)
    eye = np.eye(F.size)
    max_res = 0.0
    for z in sorted(set(eigs), key=lambda z: (z.real, z.imag)):
        sigma = np.linalg.svd(fm - z * eye, compute_uv=False)[-1]
        max_res = max(max_res, float(sigma))
    if max_res > tol * norm and norm > 0:
        raise NoConvergence(
            "eigenvalue residual %.3e exceeds tol*|F| = %.3e" % (max_res, tol * norm))
    reals = [z for z in eigs if abs(z.imag) <= tol < abs(z.real)]
    zeros = [z for z in eigs if abs(z.imag) <= tol and abs(z.real) <= tol]
    imags = [z for z in eigs if abs(z.real) <= tol < abs(z.imag)]
    if reals:
        tag = "real-pair-present"
    elif len(zeros) == len(eigs):
        tag = "zero-only"
    elif len(zeros) + len(imags) == len(eigs):
        tag = "pure-imaginary-only"
    else:
        tag = "mixed"
    marginal = tuple(
        z for z in eigs
        if (abs(z.imag) <= tol and tol < abs(z.real) <= 10 * tol)
        or (abs(z.real) > tol and tol < abs(z.imag) <= 10 * tol))
    return Spectrum(eigenvalues=eigs, tol=tol, tag=tag, marginal=marginal,
                    norm=norm, max_residual=max_res)


@dataclass(frozen=True)
class Classification:
    effective: bool
    witness: Optional[complex]
    spectrum: Spectrum
    map: HamiltonMap
    jet: QuadraticJet


def classify_effective_hyperbolicity(p: PolySymbol, at: Union[PhasePoint, Sequence],
                                     tol: Optional[float] = None) -> Classification:
    """Is p effectively hyperbolic at the double characteristic `at`?

    Effective iff the Hamilton map of the quadratic jet has a real
    nonzero eigenvalue; the witness is the largest such (positive branch).
    NotSingular propagates from the jet when `at` is not a double
    characteristic.
    """
    jet = quadratic_jet(p, at)
    F = hamilton_map(jet)
    spec = spectrum(F, tol)
    reals = spec.real_nonzero()
    witness = max(reals, key=lambda z: z.real) if reals else None
    return Classification(effective=bool(reals), witness=witness,
                          spectrum=spec, map=F, jet=jet)


@dataclass(frozen=True)
class BlockFactorization:
    full: Tuple[Fraction, ...]
    product: Tuple[Fraction, ...]
    factors: Tuple[Tuple[Fraction, ...], ...]
    blocks: Tuple[Tuple[int, ...], ...]
    max_coeff_dev: float


def block_char_factorization(jet: QuadraticJet) -> BlockFactorization:
    """char(F) versus the product of per-block char polynomials.

    The jet's partition names conjugate-pair indices forming block A; the
    complement is block B.  Requires the coefficient matrix to have no
    coupling between the blocks (CrossTermsPresent otherwise).  For valid
    partitions the coefficient deviation is exactly zero; it is returned
    as a float for reporting.
    """
    if jet.partition is None:
        raise ValueError("jet carries no block partition")
    d = jet.d
    a_pairs = tuple(sorted(jet.partition))
    b_pairs = tuple(sorted(set(range(d + 1)) - jet.partition))
    m = jet.matrix

    def slots(pairs):
        return [i for i in pairs] + [d + 1 + i for i in pairs]

    sa, sb = slots(a_pairs), slots(b_pairs)
    for i in sa:
        for j in sb:
            if m[i][j] != 0:
                raise CrossTermsPresent(
                    "coefficient matrix couples blocks at entry (%d, %d)" % (i, j))
    full = charpoly_exact(_jm(m, d + 1))
    factors = []
    for pairs in (a_pairs, b_pairs):
        if not pairs:
            factors.append((Fraction(1),))
            continue
        s = slots(pairs)
        sub = [[m[i][j] for j in s] for i in s]
        factors.append(charpoly_exact(_jm(sub, len(pairs))))
    product = _poly_mul(factors[0], factors[1])
    dev = max(abs(float(x - y)) for x, y in zip(full, product))
    return BlockFactorization(full=full, product=product,
                              factors=tuple(factors),
                              blocks=(a_pairs, b_pairs),
                              max_coeff_dev=dev)


def _positive_list(vals, name) -> Tuple[Fraction, ...]:
    out = tuple(as_fraction(v) for v in vals)
    if not out:
        raise NonPositiveInput("%s must be nonempty" % name)
    for v in out:
        if v <= 0:
            raise NonPositiveInput("%s entries must be > 0, got %s" % (name, v))
    return out


def psi_zero(qbar: Sequence, rbar: Sequence) -> Fraction:
    """Constant term (up to positive normalization) of the reduced
    characteristic polynomial of the chain model:

        -(prod_j 4 qbar_j)(prod_j rbar_j)(sum_j 1/rbar_j - 1).

    Negative exactly when sum_j 1/rbar_j > 1; only the sign is ever used
    for classification.
    """
    q = _positive_list(qbar, "qbar")
    r = _positive_list(rbar, "rbar")
    if len(q) != len(r):
        raise DimensionMismatch("qbar and rbar must have equal length")
    prod = Fraction(1)
    for v in q:
        prod *= 4 * v
    for v in r:
        prod *= v
    return -prod * (sum(Fraction(1) / v for v in r) - 1)


def chain_quadratic_jet(qbar: Sequence, rbar: Sequence) -> QuadraticJet:
    """Jet of -tau^2 + sum qbar_i (x_{i-1} - x_i)^2 + sum rbar_i xi_i^2
    with x_0 = t, on the p + 1 conjugate pairs (t, tau), (x_i, xi_i)."""
    q = _positive_list(qbar, "qbar")
    r = _positive_list(rbar, "rbar")
    if len(q) != len(r):
        raise DimensionMismatch("qbar and rbar must have equal length")
    p = len(q)
    n = 2 * (p + 1)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, qi in enumerate(q, start=1):
        a, b = i - 1, i
        rows[a][a] += qi
        rows[b][b] += qi
        rows[a][b] -= qi
        rows[b][a] -= qi
    rows[p + 1][p + 1] = Fraction(-1)
    for i, ri in enumerate(r, start=1):
        rows[p + 1 + i][p + 1 + i] = ri
    return QuadraticJet(p, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class SignEquivalence:
    sign_psi: int
    has_real_eig: bool
    agree: bool
    psi: Fraction
    spectrum: Spectrum


def psi_zero_sign_equivalence(qbar: Sequence, rbar: Sequence,
                              tol: float = 1e-7) -> SignEquivalence:
    """Check sign(psi_zero) < 0 against real-eigenvalue presence for the
    chain model built from (qbar, rbar).  The boundary sign 0 agrees with
    the no-real-pair verdict."""
    if len(tuple(qbar)) > 8:
        raise ValueError("chain length p <= 8 supported")
    psi = psi_zero(qbar, rbar)
    spec = spectrum(hamilton_map(chain_quadratic_jet(qbar, rbar)), tol)
    sign = (psi > 0) - (psi < 0)
    has_real = spec.has_real_pair
    return SignEquivalence(sign_psi=sign, has_real_eig=has_real,
                           agree=(sign < 0) == has_real, psi=psi, spectrum=spec)

"""Exact oracles of the paper's two identities, for the tests.

The chain model's sign test: psi_zero < 0 exactly when the Hamilton map
of the chain model has a real pair.  The package decides that on the
symbol's own jet (spectral's Sturm count), and for a form2 normal form
the side conditions read the same sign as bbis_sum > 1.

The time-function criterion: the localized form is negative on
-H_{t - phi}.  For every normal form the package admits it is -1 (form1)
or rho - 1 (form2), so the pipeline does not evaluate it
(time_functions' module docstring).
"""

from fractions import Fraction

from hypcert.spectral import hamilton_map, spectrum
from hypcert.symbols import DimensionMismatch, PhasePoint, QuadraticJet


def psi_zero(qbar, rbar):
    """Constant term (up to positive normalization) of the reduced
    characteristic polynomial of the chain model:

        -(prod_j 4 qbar_j)(prod_j rbar_j)(sum_j 1/rbar_j - 1).
    """
    prod = Fraction(1)
    for v in qbar:
        prod *= 4 * Fraction(v)
    for v in rbar:
        prod *= Fraction(v)
    return -prod * (sum(1 / Fraction(v) for v in rbar) - 1)


def chain_quadratic_jet(qbar, rbar):
    """Jet of -tau^2 + sum qbar_i (x_{i-1} - x_i)^2 + sum rbar_i xi_i^2
    with x_0 = t, on the p + 1 conjugate pairs (t, tau), (x_i, xi_i)."""
    p = len(qbar)
    n = 2 * (p + 1)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, qi in enumerate(qbar, start=1):
        a, b = i - 1, i
        rows[a][a] += qi
        rows[b][b] += qi
        rows[a][b] -= qi
        rows[b][a] -= qi
    rows[p + 1][p + 1] = Fraction(-1)
    for i, ri in enumerate(rbar, start=1):
        rows[p + 1 + i][p + 1 + i] = Fraction(ri)
    return QuadraticJet(p, rows)


def psi_zero_sign_equivalence(qbar, rbar):
    """(psi_zero, the spectrum of the chain model's Hamilton map): the
    sign test holds when psi < 0 exactly when the spectrum has a real
    pair; psi = 0 goes with no real pair."""
    return (psi_zero(qbar, rbar),
            spectrum(hamilton_map(chain_quadratic_jet(qbar, rbar))))


def hamilton_field(f, at):
    """H_f = (f_tau, f_xi, -f_t, -f_x) evaluated at a point, in the
    coordinate order (t, x, tau, xi)."""
    d = f.d
    pt = at if isinstance(at, PhasePoint) else PhasePoint.from_sequence(d, at)
    if pt.d != d:
        raise DimensionMismatch("point dimension %d for symbol with d=%d"
                                % (pt.d, d))
    return tuple([f.diff(d + 1).eval(pt)]
                 + [f.diff(d + 1 + j).eval(pt) for j in range(1, d + 1)]
                 + [-f.diff(0).eval(pt)]
                 + [-f.diff(j).eval(pt) for j in range(1, d + 1)])


def value_at(jet, v):
    """v^T M v for the jet's coefficient matrix M."""
    if len(v) != jet.size:
        raise DimensionMismatch("vector of length %d for size %d"
                                % (len(v), jet.size))
    return sum((m * v[i] * v[j] for i, row in enumerate(jet.matrix)
                for j, m in enumerate(row) if m), Fraction(0))


def time_function_condition(jet, f, at):
    """The localized form on -H_f(at); negative means f is a time
    function for the localization."""
    return value_at(jet, [-v for v in hamilton_field(f, at)])

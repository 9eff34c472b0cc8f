"""Exact oracles of the paper's two identities, for the tests.

The chain model's sign test: psi_zero < 0 exactly when the Hamilton map
of the chain model has a real pair.  The package decides that on the
symbol's own jet (spectral's Sturm count), and for a form2 normal form
the side conditions read the same sign as bbis_sum > 1.

The time-function criterion: the localized form is negative on
-H_{t - phi}.  For every normal form the package admits it is -1 (form1)
or rho - 1 (form2), so the pipeline does not evaluate it
(time_functions' module docstring).

The normalized extended functional Q(w, theta), written from its
definition (normal_forms' module docstring) rather than from ExtendedQ,
to test the structural spring floor against.

The nodes of a TensorGrid span, from their formula in Fractions, apart
from the integer arithmetic of grid._span.
"""

from fractions import Fraction

from hypcert.normal_forms import scaled
from hypcert.spectral import hamilton_map, spectrum
from hypcert.symbols import DimensionMismatch, PhasePoint, QuadraticJet


def uniform_nodes(lo, hi, n):
    """The n >= 1 nodes lo + k (hi - lo) / (n - 1), k = 0..n-1, of the
    span (lo, hi, n); lo alone at n = 1."""
    if n == 1:
        return (Fraction(lo),)
    return tuple(lo + k * Fraction(hi - lo) / (n - 1) for k in range(n))


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


def normalized_q(spec, w, slow):
    """The normalized Q(w, theta), exact: slow is the flat slow
    vector (t, z_x, z_xi[, x_p]) with z_xi about the base covector, eps =
    t - phi(z) resp. t - x_p; w = (y, eta) with y_p pinned to 0 for
    form2.  The chain coordinates go through the cutoff, the prefactors
    take w raw."""
    d, p, form1 = spec.d, spec.p, spec.variant == "form1"
    k = d - p
    pt = [Fraction(0)] * (2 * d + 2)
    pt[0] = slow[0]
    pt[p + 1:d + 1] = slow[1:1 + k]
    pt[d + 2 + p:] = slow[1 + k:1 + 2 * k]
    pt[-1] += 1
    if not form1:
        pt[p] = slow[1 + 2 * k]
    eps = pt[0] - (spec.phi.eval(pt) if form1 else pt[p])
    ny = p if form1 else p - 1
    ys, etas = w[:ny], w[ny:]
    for a, y in enumerate(ys, start=1):
        step = eps * scaled(y)
        pt[a] = pt[0] + step if form1 else pt[p] - step
    for a, eta in enumerate(etas, start=1):
        pt[d + 1 + a] = eps * scaled(eta)
    nodes = [0, *ys, -1] if form1 else [-1, *ys, 0]
    total = sum(q.eval(pt) * (nodes[j] - nodes[j + 1]) ** 2
                for j, q in enumerate(spec.q))
    total += sum(r.eval(pt) * eta ** 2 for r, eta in zip(spec.r, etas))
    return total / spec.remainder_factor.eval(pt)

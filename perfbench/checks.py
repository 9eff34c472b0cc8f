"""Checks made apart from hypcert: exact arithmetic on the symbol files
and on the emitted JSON reports, using nothing from the package.

A symbol file's ``terms`` describe ``a``; the symbol is ``-tau^2 + a``.
Variables are ordered ``t, x1..xd, tau, xi1..xid`` as in the file format.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Poly = List[Tuple[Fraction, Tuple[int, ...]]]


def var_names(d: int) -> Tuple[str, ...]:
    return (("t",) + tuple("x%d" % i for i in range(1, d + 1)) + ("tau",)
            + tuple("xi%d" % i for i in range(1, d + 1)))


def terms_poly(terms: Sequence[dict], d: int) -> Poly:
    """A symbol file's term list as (coefficient, exponent tuple) pairs."""
    index = {name: i for i, name in enumerate(var_names(d))}
    out = []
    for term in terms:
        exps = [0] * (2 * d + 2)
        for name, e in term["exponents"].items():
            exps[index[name]] = int(e)
        out.append((Fraction(term["coeff"]), tuple(exps)))
    return out


def point_values(point: dict) -> Tuple[Fraction, ...]:
    """A report's witness point {"t", "x", "tau", "xi"} as exact values."""
    return tuple(Fraction(v) for v in
                 [point["t"], *point["x"], point["tau"], *point["xi"]])


def evaluate(poly: Poly, values: Sequence[Fraction]) -> Fraction:
    """Exact value of the polynomial at a point."""
    total = Fraction(0)
    for c, exps in poly:
        v = c
        for x, e in zip(values, exps):
            if e:
                v *= x ** e
        total += v
    return total


def diff(poly: Poly, i: int) -> Poly:
    out = []
    for c, exps in poly:
        if exps[i]:
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out.append((c * exps[i], lowered))
    return out


def bracket(f: Poly, g: Poly, d: int) -> Poly:
    """Poisson bracket sum_j df/dxi_j dg/dx_j - df/dx_j dg/dxi_j over the
    pairs (t, tau), (x_j, xi_j); only its square is used, so the sign
    convention does not matter."""
    out = []
    for j in range(d + 1):
        pos, mom = j, d + 1 + j
        for sign, (u, v) in ((1, (diff(f, mom), diff(g, pos))),
                             (-1, (diff(f, pos), diff(g, mom)))):
            for cu, eu in u:
                for cv, ev in v:
                    out.append((sign * cu * cv,
                                tuple(a + b for a, b in zip(eu, ev))))
    return out


# ------------------------------------------------------------ classification


def base_point(d: int) -> Tuple[Fraction, ...]:
    """(t, x, tau, xi) = (0, 0, 0, e_d)."""
    vals = [Fraction(0)] * (2 * d + 2)
    vals[-1] = Fraction(1)
    return tuple(vals)


def hamilton_map(a: Poly, d: int) -> List[List[Fraction]]:
    """F = J M for the half Hessian M of -tau^2 + a at the base point,
    J = [[0, I], [-I, 0]] on (positions t, x; momenta tau, xi).

    Raises ValueError when the base point is not a double characteristic.
    """
    n = 2 * d + 2
    at = base_point(d)
    p = a + [(Fraction(-1), tuple(2 if i == d + 1 else 0 for i in range(n)))]
    if evaluate(p, at) != 0 or any(evaluate(diff(p, i), at) for i in range(n)):
        raise ValueError("base point is not a double characteristic")
    half = [[evaluate(diff(diff(p, i), j), at) / 2 for j in range(n)]
            for i in range(n)]
    m = d + 1
    return [list(half[m + i]) for i in range(m)] + \
        [[-v for v in half[i]] for i in range(m)]


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact Gaussian elimination with row pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return det


def charpoly(rows: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Coefficients of det(lambda I - F), constant term first, from its
    values at lambda = 0..n by Newton interpolation."""
    n = len(rows)
    nodes = list(range(n + 1))
    vals = [determinant([[(Fraction(k) if i == j else 0) - rows[i][j]
                          for j in range(n)] for i in range(n)])
            for k in nodes]
    coef = list(vals)  # divided differences, in place
    for lvl in range(1, n + 1):
        for i in range(n, lvl - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - lvl])
    out = [Fraction(0)] * (n + 1)  # Horner on the Newton form
    for i in range(n, -1, -1):
        shifted = [Fraction(0)] + out[:-1]  # (lambda - nodes[i]) * out
        out = [s - nodes[i] * o for s, o in zip(shifted, out)]
        out[0] += coef[i]
    return out


def _trim(p: List[Fraction]) -> List[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _rem(num: List[Fraction], den: List[Fraction]) -> List[Fraction]:
    num = list(num)
    while len(num) >= len(den) and any(num):
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        num = _trim(num[:-1]) if len(num) > 1 else num
    return _trim(num)


def _sign_changes(values: Sequence[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def positive_roots(p: Sequence[Fraction]) -> int:
    """Distinct roots in (0, inf) of a polynomial (constant term first),
    by a Sturm sequence."""
    p = _trim(list(p))
    while len(p) > 1 and p[0] == 0:  # divide out roots at 0
        p = p[1:]
    if len(p) == 1:
        return 0
    seq = [p, _trim([k * c for k, c in enumerate(p)][1:])]
    while len(seq[-1]) > 1 or seq[-1][0] != 0:
        r = _rem(seq[-2], seq[-1])
        if not any(r):
            break
        seq.append([-c for c in r])
    return _sign_changes([s[0] for s in seq]) - \
        _sign_changes([s[-1] for s in seq])


def real_pair_count(terms: Sequence[dict], d: int) -> int:
    """Number of distinct positive roots mu = lambda^2 of the Hamilton
    map's characteristic polynomial: real pairs +/- lambda.  The symbol is
    effectively hyperbolic at the base point exactly when this is > 0."""
    cp = charpoly(hamilton_map(terms_poly(terms, d), d))
    if any(cp[1::2]):
        raise ValueError("characteristic polynomial is not even")
    return positive_roots(cp[0::2])


# ----------------------------------------------------------------- witnesses


def close(reported: Optional[float], exact: Fraction, scale: float) -> bool:
    """Reported float equals the exact value up to evaluation rounding."""
    if reported is None:
        return False
    return abs(reported - float(exact)) <= 1e-12 * (1.0 + scale) + \
        1e-12 * abs(float(exact))


def on_grid(values: Sequence[Fraction], grid: dict, d: int,
            negative_t: bool = False) -> bool:
    """The point is a node of the report's region grid (tau = 0)."""
    n = grid["grid"]
    t_max, x_half, xi_half = (Fraction(grid[k]) for k in
                              ("t_max", "x_half", "xi_half"))

    def node(v, lo, hi):
        k = (v - lo) * (n - 1) / (hi - lo)
        return k.denominator == 1 and 0 <= k <= n - 1

    t = -values[0] if negative_t else values[0]
    if not (node(t, Fraction(0), t_max) and (t > 0 or not negative_t)):
        return False
    if values[d + 1] != 0:
        return False
    xs = values[1:d + 1]
    xis = values[d + 2:]
    centers = [Fraction(0)] * (d - 1) + [Fraction(1)]
    return all(node(x, -x_half, x_half) for x in xs) and \
        all(node(v, c - xi_half, c + xi_half) for v, c in zip(xis, centers))


def witness_problems(symbol: dict, report: dict) -> List[str]:
    """Re-evaluate every witness of a certify report exactly.

    Returns a list of disagreements, empty when every reported nonneg,
    negative-side, c and kappa value matches its witness point.
    """
    d = symbol["d"]
    a = terms_poly(symbol["terms"], d)
    absa = [(abs(c), e) for c, e in a]
    cert = report["certificate"]
    grid = cert["grid"]
    problems = []

    def mag(values):
        return float(evaluate(absa, [abs(v) for v in values]))

    nn = point_values(cert["nonneg"]["witness"])
    if not on_grid(nn, grid, d):
        problems.append("nonneg witness is not a grid node")
    if not close(cert["nonneg"]["min_value"], evaluate(a, nn), mag(nn)):
        problems.append("nonneg min_value disagrees with a(witness)")

    neg = cert["negative_side"]
    if neg["found_negative"]:
        w = point_values(neg["witness"])
        exact = evaluate(a, w)
        if not on_grid(w, grid, d, negative_t=True):
            problems.append("negative-side witness is not a grid node")
        if exact >= 0 or not close(neg["value"], exact, mag(w)):
            problems.append("negative-side value disagrees with a(witness)")

    phi = terms_poly(report["time_function"]["phi_terms"], d)
    w = point_values(cert["c_witness"])
    t = w[0]
    den = min(t * t, (t - evaluate(phi, w)) ** 2) * \
        sum(v * v for v in w[d + 2:])
    if not on_grid(w, grid, d) or den == 0:
        problems.append("c witness is not an admissible grid node")
    elif not close(cert["c_est"], evaluate(a, w) / den,
                   mag(w) / float(den)):
        problems.append("c_est disagrees with its witness")

    br = bracket(phi, a, d)
    w = point_values(cert["kappa_witness"])
    av = evaluate(a, w)
    if not on_grid(w, grid, d) or av <= 0:
        problems.append("kappa witness is not an admissible grid node")
    else:
        exact = evaluate(br, w) ** 2 / (4 * av)
        scale = float(evaluate([(abs(c), e) for c, e in br],
                               [abs(v) for v in w])) ** 2 / float(4 * av) \
            * (1.0 + mag(w) / float(av))
        if not close(cert["kappa_est"], exact, scale):
            problems.append("kappa_est disagrees with its witness")
    return problems


def region_monotone(fine: dict, coarse: dict) -> List[str]:
    """A finer grid that contains the coarse one cannot report a higher
    nonneg minimum or c_est, nor a lower kappa_est."""
    f, c = fine["certificate"], coarse["certificate"]
    gf, gc = f["grid"]["grid"], c["grid"]["grid"]
    if (gf - 1) % (gc - 1):
        return ["grid %d does not contain grid %d" % (gf, gc)]
    problems = []
    if not f["nonneg"]["min_value"] <= c["nonneg"]["min_value"]:
        problems.append("nonneg minimum rose from grid %d to %d" % (gc, gf))
    if not f["c_est"] <= c["c_est"]:
        problems.append("c_est rose from grid %d to %d" % (gc, gf))
    if not f["kappa_est"] >= c["kappa_est"]:
        problems.append("kappa_est fell from grid %d to %d" % (gc, gf))
    return problems

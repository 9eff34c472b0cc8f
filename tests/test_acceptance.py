"""Acceptance gate: one test per criterion, one printed verdict line each.

Closed-form expectations were derived with independent oracles (sympy
Hessians, hand telescoping, exact rational arithmetic) before being frozen
here; grid estimates are checked against pinned bounds, never recomputed
expectations.
"""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
import sympy

from hypcert import (
    NormalFormSpec,
    PhasePoint,
    PolySymbol,
    Region,
    alpha_coefficients,
    build_extended_Q,
    certify_region,
    check_structural,
    classify_effective_hyperbolicity,
    construct_time_function,
    epsilon_weights,
    hamilton_map,
    minimize_Q,
    poisson_bracket,
    quadratic_jet,
    spectrum,
)
from hypcert import minimize
from hypcert.symbols import phase_variables
from hypcert.symbolfile import parse_symbol_file
from oracles import psi_zero_sign_equivalence, time_function_condition

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)


def verdict(num, label, ok, detail=""):
    line = "criterion %02d %s: %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    return ok


def fixture_symbol(name):
    return parse_symbol_file(FIXTURES / ("%s.json" % name))


def minus_tau_sq(a):
    return a - tau ** 2


@pytest.fixture(scope="module")
def grid33():
    # the documented region: t in [0, 1/10], |x| <= 1/10, |xi - e2| <= 1/10
    region = Region()
    assert region.grid == 33
    out = {}
    for name in ("b1", "b2", "classical"):
        sf = fixture_symbol(name)
        cert = construct_time_function(sf.normal_form, slack=sf.slack)
        start = time.perf_counter()
        rep = certify_region(sf.a, cert.phi, region)
        elapsed = time.perf_counter() - start
        out[name] = {"sf": sf, "cert": cert, "c": rep.c,
                     "kappa": rep.kappa, "nonneg": rep.nonneg,
                     "elapsed": elapsed}
    return out


def node(t, x1, x2, xi1, xi2):
    return PhasePoint.from_sequence(2, [F(t), F(x1), F(x2), 0,
                                        F(xi1), F(xi2)])


# Recorded at the documented region with the flat-index scans the fused
# walker replaced: (value, witness[, n_included, n_excluded]).  The values
# are the exact ones at the witnesses, correctly rounded, since the scans
# decide in exact integers (b1's negative side is -121/100000 and its c
# 81/82; the float scans read -0.0012100000000000006, 0.9878048780487804
# and b2's negative side -0.0006050000000000003).  classical's a reads
# t, xi1 and xi2 only, so its walk skips both x axes; it has no negative
# side on the grid (value and witness None).  Grid 33 is many blocks, so
# these pin the fold across blocks.
GRID33_BITS = {
    "b1": {
        "nonneg": (0.0, node(0, 0, "-1/10", "-1/10", "9/10")),
        "negative_side": (-0.00121,
                          node("-1/10", "-1/10", "-1/10", "-1/10", "11/10")),
        "c": (0.9878048780487805, node("1/320", 0, "-1/10", "-1/10", "9/10"),
              37374480, 1760913),
        "kappa": (0.0, node(0, "-1/10", "-1/10", "-1/10", "9/10"),
                  39099456, 35937),
    },
    "b2": {
        "nonneg": (0.0, node(0, 0, "-1/10", 0, "9/10")),
        "negative_side": (-0.000605,
                          node("-1/10", "-1/10", "-1/10", 0, "11/10")),
        "c": (1.0, node("1/320", 0, "-1/10", 0, "9/10"), 37374480, 1760913),
        "kappa": (0.5, node(0, 0, "-1/10", "-1/10", "9/10"), 39134304, 1089),
    },
    "classical": {
        "nonneg": (0.0, node(0, "-1/10", "-1/10", "-1/10", "9/10")),
        "negative_side": (None, None),
        "c": (1.0, node("1/320", "-1/10", "-1/10", "-1/10", "9/10"),
              37949472, 1185921),
        "kappa": (0.0, node("1/320", "-1/10", "-1/10", "-1/10", "9/10"),
                  37949472, 1185921),
    },
}


@pytest.mark.parametrize("name", sorted(GRID33_BITS))
def test_grid33_bits_frozen(grid33, name):
    # reprs, to the bit: == would pass a -0.0 for a 0.0, and a report
    # prints the sign of a zero
    bits, got = GRID33_BITS[name], grid33[name]
    nonneg, side = got["nonneg"], got["nonneg"].negative_side
    assert repr((nonneg.min_value, nonneg.witness)) == repr(bits["nonneg"])
    assert nonneg.n_points == 33**5
    assert side.found_negative == (bits["negative_side"][0] is not None)
    assert repr((side.value, side.witness)) == repr(bits["negative_side"])
    for key in ("c", "kappa"):
        est = got[key]
        assert repr((est.value, est.witness, est.n_included,
                     est.n_excluded)) == repr(bits[key])


# The structural branch floors at the documented region, recorded the same
# way: (value, witness, n_points) on the cone with xi2 pinned to 1, 33^4
# points in many blocks.
BRANCH_FLOORS33 = {
    "b1": {
        "negative-branch-floor": (
            1.1288818359375, node("1/10", "-1/160", "-1/10", "-1/10", 1),
            557568),
        "graph-branch-floor": (
            1.0, node("1/320", 0, "-1/10", "-1/10", 1), 592416),
    },
    "b2": {
        "negative-branch-floor": (
            1.12889404296875, node("1/10", "-1/160", "-1/10", 0, 1), 557568),
        "graph-branch-floor": (
            1.0, node("1/320", 0, "-1/10", 0, 1), 592416),
    },
}


@pytest.mark.parametrize("name", sorted(BRANCH_FLOORS33))
def test_grid33_branch_floors_frozen(grid33, name):
    got = grid33[name]
    checks = check_structural(got["sf"].normal_form, got["cert"],
                              Region()).checks
    floors = {ch.name: (ch.value, ch.worst[0], ch.n_points)
              for ch in checks if ch.name.endswith("branch-floor")}
    assert repr(sorted(floors.items())) == repr(
        sorted(BRANCH_FLOORS33[name].items()))


def test_criterion_01_model_spectrum():
    def eigs(name):
        sf = fixture_symbol(name)
        return classify_effective_hyperbolicity(minus_tau_sq(sf.a),
                                                PhasePoint.base(2))

    half = eigs("b2")  # rbar = 1/2
    root = math.sqrt(0.5)
    near = lambda zs, w: min(abs(z - w) for z in zs)
    ok_half = (half.effective
               and abs(half.witness.real - root) <= 1e-8
               and near(half.spectrum.eigenvalues, root) <= 1e-8
               and near(half.spectrum.eigenvalues, -root) <= 1e-8)

    two = eigs("b2_bbis2")  # rbar = 2
    ok_two = (not two.effective
              and near(two.spectrum.eigenvalues, 1j) <= 1e-8
              and near(two.spectrum.eigenvalues, -1j) <= 1e-8)

    ok = ok_half and ok_two
    assert verdict(1, "model spectrum +-sqrt(1-rbar)", ok,
                   "witness %.10f, non-effective at rbar=2: %s"
                   % (half.witness.real, not two.effective))


def test_criterion_02_sign_equivalence_500():
    rng = random.Random(42)
    start = time.perf_counter()
    agree = 0
    total = 500
    for i in range(total):
        p = 1 + i % 3
        while True:
            rbar = [F(rng.randint(11, 999), 100) for _ in range(p)]
            if abs(sum(F(1) / v for v in rbar) - 1) >= F(1, 100):
                break
        qbar = [F(rng.randint(11, 999), 100) for _ in range(p)]
        psi, spec = psi_zero_sign_equivalence(qbar, rbar)
        agree += (psi < 0) == spec.has_real_pair
    elapsed = time.perf_counter() - start
    ok = agree == total and elapsed <= 30.0
    assert verdict(2, "sign test vs real eigenvalues", ok,
                   "%d/%d agree, %.1fs" % (agree, total, elapsed))


def random_poly(rng, coords, max_terms=4, max_deg=3):
    d = coords[0].d
    poly = PolySymbol.zero(d)
    for _ in range(rng.randint(1, max_terms)):
        term = PolySymbol.constant(d, F(rng.randint(-9, 9) or 1,
                                        rng.randint(1, 9)))
        for _ in range(rng.randint(0, max_deg)):
            term = term * rng.choice(coords)
        poly = poly + term
    return poly


def test_criterion_03_poisson_algebra_exact():
    tt, xs, tt2, xis = phase_variables(3)
    coords = [tt, tt2] + list(xs) + list(xis)
    rng = random.Random(5)
    start = time.perf_counter()
    zero = PolySymbol.zero(3)
    checked = 0
    for _ in range(100):
        f, g, h = (random_poly(rng, coords) for _ in range(3))
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)
        assert poisson_bracket(f, g * h) == \
            poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        jac = poisson_bracket(f, poisson_bracket(g, h)) \
            + poisson_bracket(g, poisson_bracket(h, f)) \
            + poisson_bracket(h, poisson_bracket(f, g))
        assert jac == zero
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed <= 10.0
    assert verdict(3, "Poisson algebra exact on 100 triples", ok,
                   "%.1fs" % elapsed)


def test_criterion_04_psd_pure_imaginary():
    rng = random.Random(7)
    worst = 0.0
    for i in range(200):
        d = 1 + i % 3
        tt, xs, tt2, xis = phase_variables(d)
        coords = [tt] + list(xs) + [tt2] + list(xis)
        n = len(coords)
        poly = PolySymbol.zero(d)
        for _ in range(rng.randint(1, n)):
            form = PolySymbol.zero(d)
            for c in coords:
                form = form + PolySymbol.constant(
                    d, F(rng.randint(-5, 5), rng.randint(1, 4))) * c
            poly = poly + form * form
        origin = PhasePoint.from_sequence(d, [0] * (2 * d + 2))
        jet = quadratic_jet(poly, origin)
        sp = spectrum(hamilton_map(jet))
        worst = max(worst, max(abs(z.real) for z in sp.eigenvalues))
    ok = worst <= 1e-7
    assert verdict(4, "PSD quadratics have imaginary spectrum", ok,
                   "max |Re| = %.2e over 200 draws" % worst)


def test_criterion_05_fixture_certificates(grid33):
    b1, b2 = grid33["b1"], grid33["b2"]
    elapsed = b1["elapsed"] + b2["elapsed"]
    ok = (b1["kappa"].value == 0.0
          and b1["c"].value >= 0.9
          and 0.4 < b2["kappa"].value <= 0.5 + 1e-6
          and b2["c"].value >= 0.9
          and elapsed <= 60.0)
    assert verdict(5, "fixture grid certificates", ok,
                   "B1 c=%.4f kappa=%.4f; B2 c=%.4f kappa=%.6f; %.1fs"
                   % (b1["c"].value, b1["kappa"].value,
                      b2["c"].value, b2["kappa"].value, elapsed))


def test_criterion_06_one_sidedness(grid33):
    b1, b2 = grid33["b1"], grid33["b2"]
    # documented negative probe for B1: a(-0.05, x1=-0.05, xi=e2)
    probe = b1["sf"].a.eval([F(-1, 20), F(-1, 20), 0, 0, 0, 1])
    ok = (b1["nonneg"].passed and b2["nonneg"].passed
          and b1["nonneg"].negative_side.found_negative
          and b2["nonneg"].negative_side.found_negative
          and probe == F(-1, 8000)
          and float(probe) == -1.25e-4)
    assert verdict(6, "nonnegative for t >= 0, negative witness for t < 0",
                   ok, "B1 probe value %s = %.3e" % (probe, float(probe)))


def chain_spec(qbar):
    return NormalFormSpec(
        variant="form1", d=2, p=1,
        q=(PolySymbol.constant(2, qbar) * xi2 ** 2, xi2 ** 2),
        r=(PolySymbol.constant(2, 1),), phi=x2, psi=x2 ** 2)


def test_criterion_07_minimizer_closed_form_and_envelope():
    closed_ok = True
    details = []
    for qbar in (F(1, 2), F(1), F(2)):
        eq = build_extended_Q(chain_spec(qbar))
        res = minimize_Q(eq, eq.theta_at((0,) * eq.theta_dim))
        expect = float(qbar / (1 + qbar))
        closed_ok &= abs(res.m - expect) <= 1e-8
        details.append("m(%s)=%.8f" % (qbar, res.m))

    eq = build_extended_Q(chain_spec(F(1)))
    h = F(1, 100000)
    e = F(1, 10 ** 12)  # exact difference of the polynomial Q(w_bar, .)
    envelope_ok = True
    worst = 0.0
    for j in range(10):
        s = F(j - 4, 200)  # ten offsets straddling zero

        def theta_at(v, s0=s):
            return eq.theta_at((F(1, 100), F(1, 50), s0 + v))

        res = minimize_Q(eq, theta_at(F(0)))
        w = [F(v) for v in res.w_bar]
        env = float((minimize.value(eq, w, theta_at(e))
                     - minimize.value(eq, w, theta_at(-e)))
                    / (2 * e))
        fd = (minimize_Q(eq, theta_at(h), w0=res.w_bar).m
              - minimize_Q(eq, theta_at(-h), w0=res.w_bar).m) / (2 * float(h))
        rel = abs(env - fd) / abs(fd)
        worst = max(worst, rel)
        envelope_ok &= rel <= 1e-4
    ok = closed_ok and envelope_ok
    assert verdict(7, "minimizer closed form and envelope gradient", ok,
                   "%s; max rel err %.2e" % (", ".join(details), worst))


def random_rbar(rng):
    p = 1 + rng.randint(0, 3)
    rbar = [F(rng.randint(11, 999), 100) for _ in range(p)]
    rbar[rng.randrange(p)] = F(rng.randint(11, 99), 100)  # one entry < 1
    assert sum(F(1) / v for v in rbar) > 1
    return rbar


def test_criterion_08_weight_exactness():
    rng = random.Random(11)
    for _ in range(100):
        rbar = random_rbar(rng)
        sel = epsilon_weights(rbar, slack=F(1, 100))
        assert sum(sel.eps) == 1
        inv_sum = sum(F(1) / v for v in rbar)
        assert sum(e * e * r for e, r in zip(sel.eps, rbar)) == 1 / inv_sum
        assert sel.kappa < 1
        # first-order minimality: zero-sum perturbations are orthogonal
        delta = [F(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in rbar]
        mean = sum(delta) / len(delta)
        delta = [v - mean for v in delta]
        assert sum(delta) == 0
        assert sum(2 * e * r * dv
                   for e, r, dv in zip(sel.eps, rbar, delta)) == 0
        objective = lambda eps: sum(e * e * r for e, r in zip(eps, rbar))
        probe = [e + dv for e, dv in zip(sel.eps, delta)]
        assert objective(probe) >= objective(sel.eps)
    assert verdict(8, "weights exact, kappa < 1, first-order minimal", True,
                   "100 random rbar")


def telescopes(eps):
    alpha = alpha_coefficients(eps)
    p = len(eps)
    tt, xs, _, _ = phase_variables(p)
    chain = [tt] + list(xs)
    lhs = tt - sum((e * x for e, x in zip(eps, xs)), PolySymbol.zero(p))
    rhs = sum((a * (chain[j] - chain[j + 1]) for j, a in enumerate(alpha)),
              PolySymbol.zero(p))
    return lhs == rhs


def test_criterion_09_alpha_identity():
    rng = random.Random(11)
    count = 0
    for _ in range(100):
        sel = epsilon_weights(random_rbar(rng), slack=F(1, 100))
        assert telescopes(sel.eps)
        count += 1
    b2 = fixture_symbol("b2")
    cert = construct_time_function(b2.normal_form, slack=b2.slack)
    assert cert.eps and telescopes(cert.eps)
    assert verdict(9, "alpha telescoping identity exact", True,
                   "%d random certificates + fixture B2" % count)


def sympy_condition_oracle(a, f_coeffs):
    """Independent route: sympy Hessian of -tau^2 + a at the base point,
    evaluated on -H_f for the linear function f."""
    syms = sympy.symbols("t x1 x2 tau xi1 xi2")
    expr = -syms[3] ** 2
    for exps, coeff in a.terms.items():
        term = sympy.Rational(coeff)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    base = {syms[0]: 0, syms[1]: 0, syms[2]: 0,
            syms[3]: 0, syms[4]: 0, syms[5]: 1}
    hess = sympy.hessian(expr, syms).subs(base)
    f = sum(c * s for c, s in zip(f_coeffs, syms))
    # flow direction (f_tau, f_xi1, f_xi2, -f_t, -f_x1, -f_x2), negated
    flow = [sympy.diff(f, syms[3]), sympy.diff(f, syms[4]),
            sympy.diff(f, syms[5]), -sympy.diff(f, syms[0]),
            -sympy.diff(f, syms[1]), -sympy.diff(f, syms[2])]
    v = sympy.Matrix([-c for c in flow])
    return F(str((v.T * hess * v)[0, 0] / 2))


def test_criterion_10_time_function_condition():
    sf = fixture_symbol("b2")
    jet = quadratic_jet(minus_tau_sq(sf.a), PhasePoint.base(2))
    base = PhasePoint.base(2)

    graph = time_function_condition(jet, t - x1, base)
    flat = time_function_condition(jet, t, base)
    oracle_graph = sympy_condition_oracle(sf.a, (1, -1, 0, 0, 0, 0))
    oracle_flat = sympy_condition_oracle(sf.a, (1, 0, 0, 0, 0, 0))

    ok = (graph == F(-1, 2) == oracle_graph
          and flat == F(-1) == oracle_flat
          and graph < 0 and flat < 0)
    assert verdict(10, "time function condition vs sympy oracle", ok,
                   "t - x1 -> %s, t -> %s" % (graph, flat))


def test_criterion_11_report_does_not_depend_on_environment_or_process(
        tmp_path):
    # two fresh processes under different settings of a variable the
    # package once read: the report bytes are the same
    outputs = []
    codes = []
    # the subprocess imports this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    for threads in ("1", "8"):
        env = dict(os.environ, HYPCERT_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / ("report_%s.json" % threads)
        proc = subprocess.run(
            [sys.executable, "-m", "hypcert", "certify",
             str(FIXTURES / "b2.json"), "--out", str(out)],
            env=env, capture_output=True, timeout=300)
        codes.append(proc.returncode)
        outputs.append(out.read_bytes())
    ok = codes == [0, 0] and outputs[0] == outputs[1]
    assert verdict(11, "byte-identical reports across environments and "
                   "processes", ok,
                   "%d bytes" % len(outputs[0]))
    assert json.loads(outputs[0])["status"] == "CERTIFIED"

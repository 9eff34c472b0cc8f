"""Weight selection, the telescoping rewrite, and the pointwise criterion."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hypcert import (
    DimensionMismatch,
    NormalFormSpec,
    PhasePoint,
    PolySymbol,
    TimeFunctionCert,
    alpha_coefficients,
    construct_time_function,
    epsilon_weights,
    phase_variables,
    parse_symbol_file,
    poisson_bracket,
    quadratic_jet,
)
from hypcert import normal_forms, time_functions
from hypcert.cli import run_pipeline
from oracles import time_function_condition
from test_normal_forms import deep_chain_specs

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def form2_spec(rbars, d=None):
    p = len(rbars)
    d = d or p + 1
    t, xs, tau, xis = phase_variables(d)
    return NormalFormSpec(
        variant="form2", d=d, p=p,
        q=tuple(xis[d - 1] ** 2 for _ in range(p)),
        r=tuple(PolySymbol.constant(d, F(v)) for v in rbars),
        g=xs[p - 1] ** 3 * xis[d - 1] ** 2)


# ---------------------------------------------------------------- weights


def test_weights_two_entry_example():
    sel = epsilon_weights([F(1, 2), F(3)], F(1, 100))
    assert sel.eps == (F(6, 7), F(1, 7))
    assert sel.rho_weight == F(3, 7)
    # plug the weights back in: (36/49)(1/2) + (1/49)(3) = 3/7
    assert F(36, 49) * F(1, 2) + F(1, 49) * 3 == F(3, 7)
    assert sel.kappa == F(3, 7) + F(1, 200)


def test_weights_single_entry():
    sel = epsilon_weights([F(1, 2)], F(1, 10))
    assert sel.eps == (F(1),)
    assert sel.rho_weight == F(1, 2)


def test_weights_boundary_violation():
    with pytest.raises(ValueError, match=r"^sum of inverse weights is 1 <= 1$"):
        epsilon_weights([F(2), F(2)], F(1, 100))  # inverse sum exactly 1
    with pytest.raises(ValueError, match=r"^sum of inverse weights is 2/3 <= 1$"):
        epsilon_weights([F(3), F(3)], F(1, 100))


def test_weights_slack_guards():
    epsilon_weights([F(1, 2)], F(99, 100))  # kappa = 0.995, still legal
    with pytest.raises(ValueError, match=r"^kappa = 1 >= 1$"):
        epsilon_weights([F(1, 2)], F(1))
    with pytest.raises(ValueError):
        epsilon_weights([F(1, 2)], 0)
    with pytest.raises(ValueError):
        epsilon_weights([], F(1, 10))
    with pytest.raises(ValueError):
        epsilon_weights([F(-1)], F(1, 10))


def test_weights_exactness_and_minimality_random():
    rng = random.Random(19)
    for _ in range(100):
        p = rng.randint(1, 4)
        # keep the inverse sum safely above 1
        rb = [F(rng.randint(100, 900), 1000) for _ in range(p)]
        sel = epsilon_weights(rb, F(1, 1000))
        assert sum(sel.eps) == 1
        assert sum(e ** 2 * r for e, r in zip(sel.eps, rb)) == sel.rho_weight
        assert sel.rho_weight == 1 / sum(1 / r for r in rb)
        assert sel.kappa < 1
        # stationarity: any zero-sum rational perturbation can only raise
        # the weighted square sum, exactly
        for _ in range(5):
            v = [F(rng.randint(-5, 5), 8) for _ in range(p)]
            v[-1] = v[-1] - sum(v)
            delta = F(1, 1000)
            ep = [e + delta * vi for e, vi in zip(sel.eps, v)]
            assert sum(x ** 2 * r for x, r in zip(ep, rb)) >= sel.rho_weight


# ------------------------------------------------------------------ alpha


@pytest.mark.parametrize("eps,want", [
    ((F(6, 7), F(1, 7)), (F(1), F(1, 7))),
    ((F(1),), (F(1),)),
    ((F(1, 2), F(1, 2)), (F(1), F(1, 2))),
])
def test_alpha_examples(eps, want):
    assert alpha_coefficients(eps) == want


def test_alpha_rejects_unnormalized():
    with pytest.raises(ValueError, match=r"^weights sum to 3/4, not 1$"):
        alpha_coefficients((F(1, 2), F(1, 4)))


def test_alpha_identity_random():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.randint(1, 5)
        raw = [F(rng.randint(1, 20)) for _ in range(p)]
        eps = [v / sum(raw) for v in raw]
        alpha = alpha_coefficients(eps)
        assert alpha[0] == 1
        assert all(a > b for a, b in zip(alpha, alpha[1:]))
        # independent expansion of both sides
        d = p
        t, xs, tau, xis = phase_variables(d)
        chain = [t] + list(xs)
        lhs = t - sum((e * x for e, x in zip(eps, xs)), PolySymbol.zero(d))
        rhs = sum((a * (chain[j] - chain[j + 1])
                   for j, a in enumerate(alpha)), PolySymbol.zero(d))
        assert lhs == rhs


# ------------------------------------------------------------ construction


def test_construct_b1(b1_a):
    t, xs, tau, xis = phase_variables(2)
    spec = NormalFormSpec(variant="form1", d=2, p=0, q=(xis[1] ** 2,),
                          r=(), phi=xs[0], psi=xs[0] ** 3)
    cert = construct_time_function(spec, F(1, 100))
    assert cert.branch == "form1-lift"
    assert cert.phi == xs[0]
    assert cert.kappa_target == F(1, 200)
    assert cert.eps == () and cert.rho_weight is None


def test_construct_b2():
    t, xs, tau, xis = phase_variables(2)
    spec = form2_spec([F(1, 2)], d=2)
    cert = construct_time_function(spec, F(1, 100))
    assert cert.branch == "form2-weights"
    assert cert.phi == xs[0]          # single weight forced to 1
    assert cert.rho_weight == F(1, 2)
    assert cert.kappa_target == F(101, 200)
    assert float(cert.kappa_target) == 0.505
    assert cert.eps == (F(1),) and cert.alpha == (F(1),)


# eps = (1/2, 1/2) needs alpha = (1, 1/2); (1, 1/3) does not telescope
BAD_ALPHA = """
from fractions import Fraction as F
from hypcert import TimeFunctionCert, phase_variables
t, (x1, x2), tau, xis = phase_variables(2)
try:
    TimeFunctionCert(phi=F(1, 2) * x1 + F(1, 2) * x2, branch="form2-weights",
                     kappa_target=F(1, 2), slack=F(1, 100),
                     eps=(F(1, 2), F(1, 2)), alpha=(F(1), F(1, 3)))
except ValueError as exc:
    print("%s: %s" % (type(exc).__name__, exc))
else:
    print("accepted")
"""


def test_cert_rejects_alpha_that_does_not_telescope():
    t, xs, tau, xis = phase_variables(2)
    phi = F(1, 2) * xs[0] + F(1, 2) * xs[1]
    with pytest.raises(ValueError, match="does not rewrite t - phi"):
        TimeFunctionCert(phi=phi, branch="form2-weights",
                         kappa_target=F(1, 2), slack=F(1, 100),
                         eps=(F(1, 2), F(1, 2)), alpha=(F(1), F(1, 3)))
    cert = TimeFunctionCert(phi=phi, branch="form2-weights",
                            kappa_target=F(1, 2), slack=F(1, 100),
                            eps=(F(1, 2), F(1, 2)), alpha=(F(1), F(1, 2)))
    assert cert.alpha == alpha_coefficients(cert.eps)


def test_cert_alpha_check_survives_optimize_flag():
    # python -O strips assert statements; the subprocess imports this
    # checkout, installed or not
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", BAD_ALPHA],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == ("ValueError: alpha (1, 1/3) does not "
                                  "rewrite t - phi = -1/2*x2 - 1/2*x1 + t")


def test_certify_checks_the_telescope_once(monkeypatch):
    # form2 builds phi once and TimeFunctionCert checks its rewrite; form1
    # has no weights to rewrite
    seen = []
    check = time_functions._check_telescope
    monkeypatch.setattr(time_functions, "_check_telescope",
                        lambda phi, alpha: seen.append(phi) or check(phi, alpha))
    for name, calls in (("b1", 0), ("b2", 1)):
        seen.clear()
        rep = run_pipeline(parse_symbol_file(FIXTURES / ("%s.json" % name)),
                           "certify")
        assert rep.status == "CERTIFIED" and len(seen) == calls, name


def test_certify_assembles_a_once(monkeypatch):
    # the spec assembles a at its first read of spec.a and keeps it:
    # run_pipeline's assembly check and check_structural read the same a
    seen = []
    assemble = normal_forms._assemble
    monkeypatch.setattr(normal_forms, "_assemble",
                        lambda spec: seen.append(spec) or assemble(spec))
    for name in ("b1", "b2", "classical"):
        seen.clear()
        rep = run_pipeline(parse_symbol_file(FIXTURES / ("%s.json" % name)),
                           "certify")
        assert rep.status == "CERTIFIED" and len(seen) == 1, name


def test_construct_propagates_weight_violation():
    with pytest.raises(ValueError, match=r"^sum of inverse weights is 1 <= 1$"):
        construct_time_function(form2_spec([F(2), F(2)]), F(1, 100))


def test_construct_rejects_bad_slack():
    spec = form2_spec([F(1, 2)], d=2)
    with pytest.raises(ValueError):
        construct_time_function(spec, 0)
    with pytest.raises(ValueError, match=r"^kappa = 3/2 >= 1$"):
        construct_time_function(spec, F(2))


def test_double_hamilton_identity_random():
    # applying the bracket with phi twice to a and evaluating at the base
    # point gives exactly twice the weighted square sum
    rng = random.Random(37)
    for _ in range(20):
        p = rng.randint(1, 3)
        rb = [F(rng.randint(100, 900), 1000) for _ in range(p)]
        spec = form2_spec(rb)
        cert = construct_time_function(spec, F(1, 1000))
        a = spec.a
        twice = poisson_bracket(cert.phi, poisson_bracket(cert.phi, a))
        assert twice.eval(PhasePoint.base(spec.d)) == 2 * cert.rho_weight


# ------------------------------------------------------------- pointwise


def oracle_value(rows, direction):
    # plain quadratic form evaluation, independent of the jet machinery
    n = len(rows)
    return sum(rows[i][j] * direction[i] * direction[j]
               for i in range(n) for j in range(n))


def test_condition_b2_jet(b2_p, base2):
    t, xs, tau, xis = phase_variables(2)
    jet = quadratic_jet(b2_p, base2)
    assert time_function_condition(jet, t - xs[0], base2) == F(-1, 2)
    # frozen oracle: direction -H_(t-x1) = (0, 0, 0, +1, -1, 0) in the
    # order (t, x1, x2, tau, xi1, xi2); matrix of -tau^2+(t-x1)^2+(1/2)xi1^2
    rows = [[0] * 6 for _ in range(6)]
    rows[0][0] = F(1); rows[1][1] = F(1)
    rows[0][1] = rows[1][0] = F(-1)
    rows[3][3] = F(-1)
    rows[4][4] = F(1, 2)
    assert oracle_value(rows, [0, 0, 0, 1, -1, 0]) == F(-1, 2)


def test_condition_f_equals_t(b2_p, base2):
    t, xs, tau, xis = phase_variables(2)
    jet = quadratic_jet(b2_p, base2)
    assert time_function_condition(jet, t, base2) == -1


def test_condition_boundary_case(base2):
    t, xs, tau, xis = phase_variables(2)
    jet = quadratic_jet(-tau ** 2 + xis[0] ** 2, base2)
    assert time_function_condition(jet, t - xs[0], base2) == 0


def test_condition_dimension_mismatch(b2_p, base2):
    jet = quadratic_jet(b2_p, base2)
    t3 = PolySymbol.coordinate(3, "t")
    with pytest.raises(DimensionMismatch):
        time_function_condition(jet, t3, base2)
    with pytest.raises(DimensionMismatch):
        time_function_condition(jet, PolySymbol.coordinate(2, "t"),
                                PhasePoint.base(3))


def certified_specs():
    """b1, b2 and classical as shipped, and the three deep chains."""
    specs = {name: parse_symbol_file(FIXTURES / ("%s.json" % name)).normal_form
             for name in ("b1", "b2", "classical")}
    specs.update(deep_chain_specs())
    return specs


@pytest.mark.parametrize("name", sorted(certified_specs()))
def test_condition_is_fixed_by_the_branch(name):
    # phi is free of xi, so -H_(t - phi) = (0, 0, 1, -grad_x phi) has no x
    # component: the form reads -tau^2 = -1 on it, plus sum r_i eps_i^2 =
    # rho on the chain xi for form2.  Both are negative for every spec
    # that construct_time_function accepts (rho < 1), which is why
    # run_pipeline has no gate on the condition
    spec = certified_specs()[name]
    cert = construct_time_function(spec, F(1, 100))
    t, _, tau, _ = phase_variables(spec.d)
    base = spec.base_point()
    jet = quadratic_jet(spec.a - tau ** 2, base)
    value = time_function_condition(jet, t - cert.phi, base)
    assert value == (-1 if spec.variant == "form1" else cert.rho_weight - 1)
    assert value < 0

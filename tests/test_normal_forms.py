"""Branch assembly, side conditions, cutoff, and the extended functional.

Derivative formulas are checked against central finite differences; the
substitution identity and minimizers are checked exactly over Fractions.
"""

import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import (
    DimensionMismatch,
    InvariantViolation,
    MinimizeResult,
    NormalFormSpec,
    PhasePoint,
    PolySymbol,
    Region,
    Theta,
    build_cutoff,
    build_extended_Q,
    build_normal_form,
    check_side_conditions,
    check_structural,
    classify_effective_hyperbolicity,
    construct_time_function,
    minimize_Q,
    phase_variables,
)

F = Fraction


def b1_spec(d=2):
    t, xs, tau, xis = phase_variables(d)
    return NormalFormSpec(variant="form1", d=d, p=0, q=(xis[1] ** 2,),
                          r=(), phi=xs[0], psi=xs[0] ** 3)


def b2_spec(d=2, r1=F(1, 2), g_scale=1):
    t, xs, tau, xis = phase_variables(d)
    return NormalFormSpec(variant="form2", d=d, p=1, q=(xis[1] ** 2,),
                          r=(PolySymbol.constant(d, r1),),
                          g=g_scale * xs[0] ** 3 * xis[1] ** 2)


def crit7_spec(qbar):
    # chain of length one plus anchor, d = 2
    t, xs, tau, xis = phase_variables(2)
    return NormalFormSpec(variant="form1", d=2, p=1,
                          q=(qbar * xis[1] ** 2, xis[1] ** 2),
                          r=(PolySymbol.constant(2, 1),),
                          phi=xs[1], psi=xs[1] ** 2)


def wavy_spec():
    """Form1 with factors that genuinely depend on the moving slots."""
    t, xs, tau, xis = phase_variables(2)
    q1 = (1 + xs[0]) * xis[1] ** 2
    q2 = xis[1] ** 2
    r1 = PolySymbol.constant(2, 1) + xs[0] ** 2
    return NormalFormSpec(variant="form1", d=2, p=1, q=(q1, q2), r=(r1,),
                          phi=xs[1], psi=xs[1] ** 2)


# ---------------------------------------------------------------- assembly


def test_b1_assembly_matches_fixture(b1_a):
    assert build_normal_form(b1_spec()) == b1_a


def test_b2_assembly_matches_fixture(b2_a):
    assert build_normal_form(b2_spec()) == b2_a


def test_assembly_round_trip_hand_built():
    t, xs, tau, xis = phase_variables(2)
    spec = crit7_spec(F(3))
    want = 3 * (t - xs[0]) ** 2 * xis[1] ** 2 + xis[0] ** 2 \
        + ((xs[0] - xs[1]) ** 2 + xs[1] ** 2) * xis[1] ** 2
    assert build_normal_form(spec) == want


def test_nonvanishing_psi_rejected():
    t, xs, tau, xis = phase_variables(2)
    with pytest.raises(InvariantViolation) as ei:
        NormalFormSpec(variant="form1", d=2, p=0, q=(xis[1] ** 2,),
                       r=(), phi=xs[0], psi=1 + xs[0] ** 3)
    assert ei.value.field == "psi_0"
    assert "vanish" in str(ei.value)


@pytest.mark.parametrize("mangle,field", [
    ("q_negative", "q1"),
    ("q_inhomogeneous", "q1"),
    ("r_tau", "r1"),
    ("g_uses_xi1", "g_1"),
    ("g_nonvanishing", "g_1"),
    ("q_short", "q"),
    ("p_zero_form2", "p"),
    ("bad_variant", "variant"),
])
def test_invariant_violations(mangle, field):
    t, xs, tau, xis = phase_variables(2)
    good = b2_spec()
    with pytest.raises(InvariantViolation) as ei:
        if mangle == "q_negative":
            NormalFormSpec(variant="form2", d=2, p=1, q=(-xis[1] ** 2,),
                           r=good.r, g=good.g)
        elif mangle == "q_inhomogeneous":
            NormalFormSpec(variant="form2", d=2, p=1,
                           q=(xis[1] ** 2 + xis[1],), r=good.r, g=good.g)
        elif mangle == "r_tau":
            NormalFormSpec(variant="form2", d=2, p=1, q=good.q,
                           r=(PolySymbol.constant(2, 1) + tau,), g=good.g)
        elif mangle == "g_uses_xi1":
            NormalFormSpec(variant="form2", d=2, p=1, q=good.q, r=good.r,
                           g=xs[0] * xis[0] * xis[1])
        elif mangle == "g_nonvanishing":
            NormalFormSpec(variant="form2", d=2, p=1, q=good.q, r=good.r,
                           g=good.g + xis[1] ** 2)
        elif mangle == "q_short":
            NormalFormSpec(variant="form1", d=2, p=1, q=(xis[1] ** 2,),
                           r=good.r, phi=xs[1], psi=xs[1] ** 2)
        elif mangle == "p_zero_form2":
            NormalFormSpec(variant="form2", d=2, p=0, q=(), r=(), g=good.g)
        else:
            NormalFormSpec(variant="form3", d=2, p=1, q=good.q,
                           r=good.r, g=good.g)
    assert ei.value.field == field


def test_base_values():
    spec = b2_spec()
    assert spec.q_bars() == (F(1),)
    assert spec.r_bars() == (F(1, 2),)
    assert spec.base_point() == PhasePoint.base(2)


def test_spec_copies_and_pickles():
    t = PolySymbol.coordinate(1, "t")
    for copied in (copy.copy(t), copy.deepcopy(t),
                   pickle.loads(pickle.dumps(t))):
        assert copied == t

    def symbols(spec):
        return spec.q + spec.r + (spec.g, spec.remainder)

    spec = b2_spec()
    exact = [F(1, 20), F(-1, 30), F(1, 40), 0, F(1, 10), F(9, 10)]
    points = (exact, [float(v) for v in exact])
    for sym in symbols(spec):
        sym.eval(points[1])  # the copies must not depend on the term table
    for other in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert other == spec
        for mine, theirs in zip(symbols(spec), symbols(other)):
            for pt in points:
                assert repr(theirs.eval(pt)) == repr(mine.eval(pt))


# ----------------------------------------------------------- side conditions


def test_side_conditions_b1():
    rep = check_side_conditions(b1_spec())
    assert rep.ok
    assert rep.double_bracket == 0
    assert rep.bbis_sum is None and rep.bbis_ok is None
    assert rep.one_sided_ok and rep.one_sided_witness is None
    assert rep.notes == ()


def test_side_conditions_b2():
    rep = check_side_conditions(b2_spec())
    assert rep.ok
    # second x1-derivative of g at the base point: 6*x1*xi2^2 -> 0
    assert rep.double_bracket == 0
    assert rep.bbis_sum == 2 and rep.bbis_ok
    assert rep.grid["points"] == 11


def test_side_conditions_elliptic_weight_failure():
    rep = check_side_conditions(b2_spec(r1=F(2)))
    assert not rep.ok
    assert rep.bbis_sum == F(1, 2)
    assert rep.bbis_ok is False
    assert any("not effectively hyperbolic" in n for n in rep.notes)
    # the spectral route agrees: no real eigenvalue pair for this symbol
    t, xs, tau, xis = phase_variables(2)
    a = build_normal_form(b2_spec(r1=F(2)))
    cl = classify_effective_hyperbolicity(-tau ** 2 + a, PhasePoint.base(2))
    assert not cl.effective


def test_one_sided_failure_reports_witness():
    t, xs, tau, xis = phase_variables(2)
    spec = NormalFormSpec(variant="form1", d=2, p=0, q=(xis[1] ** 2,),
                          r=(), phi=xs[0], psi=xs[0] ** 3 - xs[0] ** 2)
    rep = check_side_conditions(spec)
    # psi = x1^2 (x1 - 1) < 0 on 0 < x1 <= 1/2 where the gate phi = x1 >= 0
    assert not rep.one_sided_ok and not rep.ok
    w = rep.one_sided_witness
    assert w is not None and w[1] ** 3 - w[1] ** 2 < 0 and w[1] >= 0


# ----------------------------------------------------------------- cutoff


def test_cutoff_defining_values():
    chi = build_cutoff(1).chi
    assert chi(F(1, 2)) == F(1, 2)
    assert chi(3) == 2
    assert chi(-3) == -2
    assert chi(0.5) == 0.5


def test_cutoff_hermite_data():
    cut = build_cutoff(1)
    assert (cut.chi(F(1)), cut.chi_prime(F(1)), cut.chi_second(F(1))) == (1, 1, 0)
    assert (cut.chi(F(2)), cut.chi_prime(F(2)), cut.chi_second(F(2))) == (2, 0, 0)
    # approach from inside the transition: same limits, C^2 matching
    for h in (F(1, 10 ** 6), F(1, 10 ** 9)):
        assert abs(cut.chi(1 + h) - 1 - h) <= 10 * h ** 2
        assert abs(cut.chi(2 - h) - 2) <= 10 * h ** 2


def test_cutoff_monotone_and_bounded():
    cut = build_cutoff(1)
    samples = [F(i, 100) for i in range(-500, 501)]
    assert len(samples) > 1000
    assert all(cut.chi_prime(s) >= 0 for s in samples)
    vals = [cut.chi(s) for s in samples]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    for delta in (F(1, 2), F(1), F(5, 4)):
        c = build_cutoff(delta)
        assert all(abs(c.scaled(s)) <= 2 * delta for s in samples)


def test_cutoff_odd():
    cut = build_cutoff(1)
    for i in range(0, 60):
        s = F(i, 13)
        assert cut.chi(-s) == -cut.chi(s)
        assert cut.chi_second(-s) == -cut.chi_second(s)
        assert cut.chi_prime(-s) == cut.chi_prime(s)


def test_cutoff_derivatives_match_finite_differences():
    cut = build_cutoff(1)
    h = 1e-6
    rng = random.Random(7)
    for _ in range(40):
        s = rng.uniform(-2.5, 2.5)
        if min(abs(abs(s) - 1), abs(abs(s) - 2)) < 1e-3:
            continue  # FD stencils straddling a knot are only C^2 accurate
        d1 = (cut.chi(s + h) - cut.chi(s - h)) / (2 * h)
        d2 = (cut.chi(s + h) - 2 * cut.chi(s) + cut.chi(s - h)) / h ** 2
        assert abs(d1 - cut.chi_prime(s)) < 1e-8
        assert abs(d2 - cut.chi_second(s)) < 1e-3


def test_cutoff_scaled_chain_rule():
    cut = build_cutoff(F(1, 2))
    s = F(3, 4)
    assert cut.scaled(s) == F(1, 2) * cut.chi(F(3, 2))
    assert cut.scaled_prime(s) == cut.chi_prime(F(3, 2))
    assert cut.scaled_second(s) == 2 * cut.chi_second(F(3, 2))
    with pytest.raises(ValueError):
        build_cutoff(0)


CUTOFF_FUNCTIONS = ("chi", "chi_prime", "chi_second", "scaled",
                    "scaled_prime", "scaled_second")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-3, 3) | st.sampled_from(
           [1.0, -1.0, 2.0, -2.0, 0.0, -0.0, 0.5, -1.5]), min_size=1,
           max_size=12),
       st.sampled_from([F(1, 2), F(1), F(5, 4)]),
       st.builds(F, st.integers(-300, 300), st.integers(1, 100)))
def test_cutoff_arrays_equal_scalar_calls(values, delta, s):
    # one piecewise helper serves arrays (elementwise, as floats) and
    # scalars (exact on rationals); the knots +-1, +-2 (scaled by delta
    # for the scaled forms) and both zeros are in every example
    cut = build_cutoff(delta)
    for scale in (1.0, float(delta)):
        xs = np.array([v * scale for v in values]
                      + [1.0 * scale, -1.0 * scale, 2.0 * scale,
                         -2.0 * scale, 0.0, -0.0])
        for name in CUTOFF_FUNCTIONS:
            fn = getattr(cut, name)
            got = fn(xs)
            assert isinstance(got, np.ndarray) and got.dtype == float
            # repr tells -0.0 from 0.0
            assert [repr(v) for v in got.tolist()] == [
                repr(fn(float(x))) for x in xs.tolist()], name
    for name in CUTOFF_FUNCTIONS:
        assert type(getattr(cut, name)(s)) is F, name


# ------------------------------------------------------------- extended Q


def qext(spec, mode="raw", delta=F(1, 2)):
    return build_extended_Q(spec, build_cutoff(delta), mode=mode)


def test_b2_theta0_profile():
    Q = qext(b2_spec())
    assert Q.w_dim == 1
    for eta in (F(0), F(1, 3), F(-2), F(7)):
        want = 1 + F(1, 2) * eta ** 2
        assert Q.value((eta,), Q.theta_zero()) == want


def test_theta0_value_matches_displayed_quadratic():
    Q = qext(crit7_spec(F(5, 2)))
    rng = random.Random(3)
    for _ in range(20):
        y1 = F(rng.randint(-8, 8), 4)
        e1 = F(rng.randint(-8, 8), 4)
        want = F(5, 2) * y1 ** 2 + (y1 + 1) ** 2 + e1 ** 2
        assert Q.value((y1, e1), Q.theta_zero()) == want


def rand_theta(rng, Q, den=64, span=4):
    k = Q.spec.d - Q.spec.p
    t = F(rng.randint(-span, span), den)
    z_x = tuple(F(rng.randint(-span, span), den) for _ in range(k))
    z_xi = tuple(F(rng.randint(-span, span), den) for _ in range(k))
    x_p = F(rng.randint(-span, span), den) if Q.spec.variant == "form2" else None
    return Q.pinned_theta(t, z_x, z_xi, x_p=x_p)


@pytest.mark.parametrize("make", [b1_spec, b2_spec, wavy_spec,
                                  lambda: crit7_spec(F(1, 2))])
def test_substitution_identity_exact(make):
    spec = make()
    Q = qext(spec)
    a = build_normal_form(spec)
    rng = random.Random(11)
    delta = Q.cutoff.delta
    for _ in range(20):
        w = tuple(F(rng.randint(-8, 8), 16) for _ in range(Q.w_dim))
        assert all(abs(v) <= delta for v in w)  # inside the identity region
        theta = rand_theta(rng, Q)
        pt = Q.substituted_point(w, theta)
        lhs = a.eval(pt)
        rhs = theta.eps ** 2 * Q.value(w, theta) \
            + spec.remainder.eval(pt) * spec.remainder_factor.eval(pt)
        assert lhs - rhs == 0
        assert abs(float(lhs - rhs)) <= 1e-12 * max(1.0, abs(float(lhs)))


def test_identity_degenerates_at_eps_zero():
    spec = b2_spec()
    Q = qext(spec)
    a = build_normal_form(spec)
    # eps = t - x_p vanishes on the diagonal
    theta = Q.pinned_theta(F(1, 16), (F(1, 32),), (F(-1, 64),), x_p=F(1, 16))
    assert theta.eps == 0
    w = (F(1, 4),)
    pt = Q.substituted_point(w, theta)
    assert a.eval(pt) == \
        spec.remainder.eval(pt) * spec.remainder_factor.eval(pt)
    # form1 branch: eps = t - phi(z) = 0 when t equals the graph value
    spec1 = b1_spec()
    Q1 = qext(spec1)
    a1 = build_normal_form(spec1)
    th1 = Q1.pinned_theta(F(1, 32), (F(1, 32), F(0)), (F(0), F(1, 64)))
    assert th1.eps == 0
    pt1 = Q1.substituted_point((), th1)
    assert a1.eval(pt1) == \
        spec1.remainder.eval(pt1) * spec1.remainder_factor.eval(pt1)


def test_b1_normalized_profile_is_constant():
    Q = qext(b1_spec(), mode="normalized")
    rng = random.Random(5)
    for _ in range(10):
        theta = rand_theta(rng, Q)
        assert Q.value((), theta) == 1
    w, m0 = Q.theta0_minimizer()
    assert w == () and m0 == 1


def test_pinned_theta_values():
    Q1 = qext(b1_spec())
    th = Q1.pinned_theta(F(1, 8), (F(1, 16), F(0)), (F(0), F(0)))
    assert th.eps == F(1, 8) - F(1, 16)  # t - phi(z) with phi = x1
    Q2 = qext(b2_spec())
    th = Q2.pinned_theta(F(1, 8), (F(1, 32),), (F(0),), x_p=F(1, 16))
    assert th.eps == F(1, 16) and th.x_p == F(1, 16)
    with pytest.raises(ValueError):
        Q2.pinned_theta(F(1, 8), (F(0),), (F(0),))


def test_shape_errors():
    Q = qext(b2_spec())
    with pytest.raises(DimensionMismatch):
        Q.value((F(1), F(2)), Q.theta_zero())
    with pytest.raises(DimensionMismatch):
        Q.value((F(1),), Theta(t=0, z_x=(0, 0), z_xi=(0,), eps=0, x_p=0))
    with pytest.raises(ValueError):
        qext(b2_spec(), mode="bogus")


# ------------------------------------------------------------- minimizers


@pytest.mark.parametrize("qbar", [F(1, 2), F(1), F(2)])
def test_chain_minimum_closed_form(qbar):
    Q = qext(crit7_spec(qbar))
    w, m0 = Q.theta0_minimizer()
    assert m0 == qbar / (1 + qbar)
    assert w == (F(-1) / (1 + qbar), F(0))
    assert Q.value(w, Q.theta_zero()) == m0


def test_b2_minimum_raw_and_normalized():
    w, m0 = qext(b2_spec()).theta0_minimizer()
    assert w == (F(0),) and m0 == 1
    w, m0 = qext(b2_spec(), mode="normalized").theta0_minimizer()
    assert w == (F(0),) and m0 == 2


def test_minimizer_random_chains():
    rng = random.Random(23)
    for _ in range(30):
        variant = rng.choice(["form1", "form2"])
        p = rng.randint(1, 3)
        d = p + 1
        t, xs, tau, xis = phase_variables(d)
        nq = p + 1 if variant == "form1" else p
        qs = tuple(F(rng.randint(1, 40), 10) * xis[d - 1] ** 2
                   for _ in range(nq))
        rs = tuple(PolySymbol.constant(d, F(rng.randint(1, 30), 10))
                   for _ in range(p))
        if variant == "form1":
            spec = NormalFormSpec(variant=variant, d=d, p=p, q=qs, r=rs,
                                  phi=xs[d - 1], psi=xs[d - 1] ** 2)
        else:
            spec = NormalFormSpec(variant=variant, d=d, p=p, q=qs, r=rs,
                                  g=xs[p - 1] ** 3 * xis[d - 1] ** 2)
        Q = qext(spec)
        w, m0 = Q.theta0_minimizer()
        assert m0 == 1 / sum(1 / v for v in spec.q_bars())
        assert Q.value(w, Q.theta_zero()) == m0
        assert m0 > 0
        for _ in range(5):  # strict quadratic growth off the minimizer
            v = tuple(F(rng.randint(-6, 6), 8) for _ in range(Q.w_dim))
            if any(v):
                probe = tuple(a + b for a, b in zip(w, v))
                assert Q.value(probe, Q.theta_zero()) > m0


# ----------------------------------------------- deep chains, frozen bits


def deep_chain_specs():
    """Chains of length two and three whose factors move with the chain,
    eta and transverse slots."""
    t, (x1, x2, x3), tau, (xi1, xi2, xi3) = phase_variables(3)
    one3 = PolySymbol.constant(3, 1)
    form1_p2 = NormalFormSpec(
        variant="form1", d=3, p=2,
        q=((1 + x1) * xi3 ** 2,
           (F(3, 2) + x2 - t) * xi3 ** 2 + xi1 * xi3,
           xi3 ** 2 + x1 * xi2 * xi3),
        r=(one3 + x2 ** 2, F(5, 4) * one3 + x1 * x3),
        phi=x3, psi=x3 ** 2)
    form2_p2 = NormalFormSpec(
        variant="form2", d=3, p=2,
        q=((2 + x1) * xi3 ** 2, xi3 ** 2 + xi2 * xi3),
        r=(F(1, 2) * one3 + x1 * x2, F(3, 4) * one3 + x2 ** 2),
        g=x2 ** 3 * xi3 ** 2 + x3 ** 2 * xi3 ** 2)
    t, (y1, y2, y3, y4), tau, (e1, e2, e3, e4) = phase_variables(4)
    one4 = PolySymbol.constant(4, 1)
    form2_p3 = NormalFormSpec(
        variant="form2", d=4, p=3,
        q=((1 + y2) * e4 ** 2, 2 * e4 ** 2 + e1 * e4,
           (F(1, 2) + y1 * y3) * e4 ** 2),
        r=(one4 + y1 ** 2, F(2, 3) * one4, F(1, 2) * one4 + y3),
        g=y3 ** 3 * e4 ** 2 + y4 ** 2 * e4 ** 2)
    return {"form1-p2-d3": form1_p2, "form2-p2-d3": form2_p2,
            "form2-p3-d4": form2_p3}


DEEP_W = (0.3, -0.7, 0.15, -1.3, 0.45)  # -0.7 and -1.3 reach the quintic

# theta0_minimizer(), value_grad_hess (value, gradient, Hessian),
# substituted_point and minimize_Q(...).m, recorded bit for bit
DEEP_FROZEN = {
    ('form1-p2-d3', 'raw'): (
        ((F(-3, 8), F(-5, 8), F(0), F(0)), F(3, 8)),
        3.769547511299222,
        [3.5387743947601313, -2.23931189482998, 0.346730210979375,
         -3.2531103515625],
        [[5.072683934936524, -2.7594598214721677, 0.093017578125,
          -0.0019042968750000002],
         [-2.7594598214721677, 4.580584412736815, -0.0918622801875, 0.0],
         [0.093017578125, -0.0918622801875, 2.0014761461125, 0.0],
         [-0.0019042968750000002, 0.0, 0.0, 2.502392578125]],
        [F(1, 16), 0.0765625, 0.027167499999999997, F(1, 64), 0,
         0.007031249999999999, -0.046875, F(127, 128)],
        0.37334085838430614),
    ('form1-p2-d3', 'normalized'): (
        ((F(-3, 8), F(-5, 8), F(0), F(0)), F(3, 8)),
        3.8430449544094363,
        [3.616313872977929, -2.28297328869833, 0.3534906467822563,
         -3.3165384665493853],
        [[5.187664803722521, -2.8183370458099635, 0.09561687595906462,
          -0.009312785795515055],
         [-2.8183370458099635, 4.669895196399183, -0.09365338182286004, 0.0],
         [0.09561687595906462, -0.09365338182286004, 2.0405002939032926, 0.0],
         [-0.009312785795515055, 0.0, 0.0, 2.551183435807219]],
        [F(1, 16), 0.0765625, 0.027167499999999997, F(1, 64), 0,
         0.007031249999999999, -0.046875, F(127, 128)],
        0.3792433564761009),
    ('form2-p2-d3', 'raw'): (
        ((F(-2, 3), F(0), F(0)), F(2, 3)),
        3.715036924362183,
        [5.716040287017823, -0.70095703125, 0.22808349609374998],
        [[5.799016189575196, 0.0013671875, 0.018603515625],
         [0.0013671875, 1.0013671875, 0.0],
         [0.018603515625, 0.0, 1.501953125]],
        [F(1, 16), 0.021875, F(1, 32), F(1, 64), 0, -0.023555, 0.0046875,
         F(127, 128)],
        0.6619741747264525),
    ('form2-p2-d3', 'normalized'): (
        ((F(-2, 3), F(0), F(0)), F(8, 9)),
        4.946941236081762,
        [7.611476272960014, -0.9333940182054616, 0.3037158647594278],
        [[7.721966941644995, 0.0018205461638491547, 0.024772431729518856],
         [0.0018205461638491547, 1.3334200260078024, 0.0],
         [0.024772431729518856, 0.0, 2.0]],
        [F(1, 16), 0.021875, F(1, 32), F(1, 64), 0, -0.023555, 0.0046875,
         F(127, 128)],
        0.8814844667358743),
    ('form2-p3-d4', 'raw'): (
        ((F(-5, 7), F(-4, 7), F(0), F(0), F(0)), F(2, 7)),
        5.2266708917039555,
        [6.646353004057884, -4.71570293759346, 0.3311494140625,
         -1.7333333333333334, 0.478125],
        [[6.023865947875977, -4.06663795671463, 0.0616015625, 0.0, 0.0],
         [-4.06663795671463, 4.932827842235565, -0.06201171875, 0.0, 0.0],
         [0.0616015625, -0.06201171875, 2.00095703125, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.3333333333333333, 0.0],
         [0.0, 0.0, 0.0, 0.0, 1.0625]],
        [F(1, 16), 0.021875, 0.054805, F(1, 32), F(1, 64), 0, 0.0046875,
         -0.03125, 0.0140625, F(127, 128)],
        0.28568380423524503),
    ('form2-p3-d4', 'normalized'): (
        ((F(-5, 7), F(-4, 7), F(0), F(0), F(0)), F(4, 7)),
        9.838439325560387,
        [12.510782125285429, -8.876617294293572, 0.6233400735294117,
         -3.2627450980392156, 0.9],
        [[11.339041784237132, -7.654847918521657, 0.11595588235294117, 0.0,
          0.0],
         [-7.654847918521657, 9.285322997149299, -0.11672794117647059, 0.0,
          0.0],
         [0.11595588235294117, -0.11672794117647059, 3.7665073529411766, 0.0,
          0.0],
         [0.0, 0.0, 0.0, 2.5098039215686274, 0.0],
         [0.0, 0.0, 0.0, 0.0, 2.0]],
        [F(1, 16), 0.021875, 0.054805, F(1, 32), F(1, 64), 0, 0.0046875,
         -0.03125, 0.0140625, F(127, 128)],
        0.5377577491486966),
}


@pytest.mark.parametrize("name,mode", sorted(DEEP_FROZEN))
def test_deep_chain_bits_frozen(name, mode):
    spec = deep_chain_specs()[name]
    Q = qext(spec, mode=mode)
    k = spec.d - spec.p
    theta = Q.pinned_theta(
        F(1, 16), [F(j + 1, 64) for j in range(k)],
        [F(-j - 1, 128) for j in range(k)],
        x_p=F(1, 32) if spec.variant == "form2" else None)
    w = DEEP_W[:Q.w_dim]
    val, grad, hess = Q.value_grad_hess(w, theta)
    got = (Q.theta0_minimizer(), float(val), grad.tolist(), hess.tolist(),
           Q.substituted_point(w, theta), float(minimize_Q(Q, theta).m))
    # repr tells -0.0 from 0.0 and a Fraction from an equal float
    assert repr(got) == repr(DEEP_FROZEN[(name, mode)])


# minimize_Q at theta = (s/64, ((j+s)/128)_j, (-(j+s)/256)_j[, s/64]), where
# Newton takes one or two steps from the theta = 0 minimizer, recorded bit
# for bit
DEEP_MINIMA = {
    ('form1-p2-d3', 'raw', 1): MinimizeResult(
        m=0.373521715965863, w_bar=(-0.3721907835013239, -0.623955692958551,
        -0.0002466049618309142, -5.597412188447739e-06),
        hessian_cond=3.9756349988382564, grad_norm=3.1324147095980043e-16,
        iterations=2),
    ('form1-p2-d3', 'raw', 3): MinimizeResult(
        m=0.3704518688949661, w_bar=(-0.36664363443787, -0.6219350792902567,
        -0.0007540380279222219, -5.066000336836933e-05),
        hessian_cond=3.927368607460216, grad_norm=2.226620124166883e-13,
        iterations=2),
    ('form1-p2-d3', 'raw', 7): MinimizeResult(
        m=0.36388741373405004, w_bar=(-0.3558343202218465, -0.6181679266360249,
        -0.0018201664863458412, -0.00027783108140504197),
        hessian_cond=3.832994859417224, grad_norm=7.303371677840086e-11,
        iterations=2),
    ('form1-p2-d3', 'normalized', 1): MinimizeResult(
        m=0.3764570422608821, w_bar=(-0.3721907836832591, -0.6239556932922186,
        -0.00024660496212817806, 9.303905668438252e-06),
        hessian_cond=3.9756349886484372, grad_norm=2.4085396342878534e-16,
        iterations=2),
    ('form1-p2-d3', 'normalized', 3): MinimizeResult(
        m=0.37928937047892136, w_bar=(-0.3666436493260442, -0.6219351069170892,
        -0.0007540381032152561, 8.377214600536493e-05),
        hessian_cond=3.927367801174904, grad_norm=2.281668202429265e-13,
        iterations=2),
    ('form1-p2-d3', 'normalized', 7): MinimizeResult(
        m=0.38463435845157606, w_bar=(-0.3558347685148581, -0.6181687792196768,
        -0.0018201721135614735, 0.00045513648174806643),
        hessian_cond=3.8329721465336237, grad_norm=7.737124617885484e-11,
        iterations=2),
    ('form2-p2-d3', 'raw', 1): MinimizeResult(
        m=0.6631821548382854, w_bar=(-0.6683937823834197, 0.0, 0.0),
        hessian_cond=5.981302331167643, grad_norm=2.220446049250313e-16,
        iterations=1),
    ('form2-p2-d3', 'raw', 3): MinimizeResult(
        m=0.6561419364733574, w_bar=(-0.6717948717948719, 0.0, 0.0),
        hessian_cond=5.925723805147059, grad_norm=2.220446049250313e-16,
        iterations=1),
    ('form2-p2-d3', 'raw', 7): MinimizeResult(
        m=0.6417996200484847, w_bar=(-0.678391959798995, 0.0, 0.0),
        hessian_cond=5.745838083422747, grad_norm=4.440892098500626e-16,
        iterations=1),
    ('form2-p2-d3', 'normalized', 1): MinimizeResult(
        m=0.8839551273080433, w_bar=(-0.6683937823834197, 0.0, 0.0),
        hessian_cond=5.981302331167643, grad_norm=2.9596313106831376e-16,
        iterations=1),
    ('form2-p2-d3', 'normalized', 3): MinimizeResult(
        m=0.8723003478724024, w_bar=(-0.6717948717948719, 0.0, 0.0),
        hessian_cond=5.92572380514706, grad_norm=2.9519464517134963e-16,
        iterations=1),
    ('form2-p2-d3', 'normalized', 7): MinimizeResult(
        m=0.8422977390959927, w_bar=(-0.678391959798995, 0.0, 0.0),
        hessian_cond=5.745838083422747, grad_norm=5.828226220909505e-16,
        iterations=1),
    ('form2-p3-d4', 'raw', 1): MinimizeResult(
        m=0.2848178797252858, w_bar=(-0.7173601225083168, -0.5738320597195714,
        0.0, 0.0, 0.0), hessian_cond=9.187373873051722,
        grad_norm=4.002966042486721e-16, iterations=1),
    ('form2-p3-d4', 'raw', 3): MinimizeResult(
        m=0.28339109337563934, w_bar=(-0.7228401890989169, -0.5777643505803812,
        0.0, 0.0, 0.0), hessian_cond=8.560119816714533,
        grad_norm=1.1102230246251565e-16, iterations=1),
    ('form2-p3-d4', 'raw', 7): MinimizeResult(
        m=0.282012467514964, w_bar=(-0.7312978321912837, -0.5822520984848865,
        0.0, 0.0, 0.0), hessian_cond=7.503046679411682,
        grad_norm=1.1102230246251565e-16, iterations=1),
    ('form2-p3-d4', 'normalized', 1): MinimizeResult(
        m=0.5523740697702513, w_bar=(-0.7173601225083168, -0.5738320597195714,
        0.0, 0.0, 0.0), hessian_cond=9.187373873051724,
        grad_norm=7.76332808239849e-16, iterations=1),
    ('form2-p3-d4', 'normalized', 3): MinimizeResult(
        m=0.5182008564583119, w_bar=(-0.7228401890989169, -0.5777643505803812,
        0.0, 0.0, 0.0), hessian_cond=8.560119816714533,
        grad_norm=2.0301221021717148e-16, iterations=1),
    ('form2-p3-d4', 'normalized', 7): MinimizeResult(
        m=0.46278969028096656, w_bar=(-0.7312978321912837, -0.5822520984848865,
        0.0, 0.0, 0.0), hessian_cond=7.503046679411683,
        grad_norm=1.8219044506669235e-16, iterations=1),
}


@pytest.mark.parametrize("name,mode,s", sorted(DEEP_MINIMA))
def test_deep_chain_minima_frozen(name, mode, s):
    spec = deep_chain_specs()[name]
    Q = qext(spec, mode=mode)
    k = spec.d - spec.p
    theta = Q.pinned_theta(
        F(s, 64), [F(j + s, 128) for j in range(k)],
        [F(-j - s, 256) for j in range(k)],
        x_p=F(s, 64) if spec.variant == "form2" else None)
    assert repr(minimize_Q(Q, theta)) == repr(DEEP_MINIMA[(name, mode, s)])


@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_derivatives_taken_once(monkeypatch, mode):
    spec = deep_chain_specs()["form1-p2-d3"]
    Q = qext(spec, mode=mode)
    theta = Q.pinned_theta(F(1, 16), [F(1, 64)], [F(-1, 128)])
    w = DEEP_W[:Q.w_dim]

    def evaluate():
        val, grad, hess = Q.value_grad_hess(w, theta)
        return repr((val, grad.tolist(), hess.tolist()))

    first = evaluate()
    calls = []
    diff = PolySymbol.diff

    def counted(self, var):
        calls.append(var)
        return diff(self, var)

    monkeypatch.setattr(PolySymbol, "diff", counted)
    for _ in range(3):
        assert evaluate() == first
    assert calls == []


def test_deep_chain_structural_passes():
    # the Newton solves of this sweep end at the rounding floor of Q,
    # where no step decreases Q any more; they count as converged
    spec = deep_chain_specs()["form1-p2-d3"]
    cert = construct_time_function(spec, slack=F(1, 100))
    assert check_structural(spec, cert, Region(grid=5)).passed


@pytest.mark.parametrize("slope,x2,named", [
    (4, 0.25, "(0, 0, 1/4, 0, 0, 1)"),
    # 3 * float(1/3) rounds to 1: zero in floats, not exactly
    (3, 1 / 3, "(0.0, 0.0, 0.3333333333333333, 0.0, 0.0, 1.0)"),
])
def test_divisor_names_first_zero_of_an_array(slope, x2, named):
    t, xs, tau, xis = phase_variables(2)
    spec = NormalFormSpec(variant="form2", d=2, p=1, q=(xis[1] ** 2,),
                          r=(1 - slope * xs[1],), g=xs[0] ** 3 * xis[1] ** 2)
    Q = qext(spec, mode="normalized")
    column = np.array([0.0, x2, x2])[:, None]
    with pytest.raises(InvariantViolation) as ei:
        Q.divisor([0.0, np.zeros((1, 2)), column, 0.0, 0.0, 1.0])
    assert ei.value.field == "r1"
    assert str(ei.value).startswith("r1: vanishes at (t, x, tau, xi) = %s,"
                                    % named)


# ----------------------------------------------------- derivatives (floats)


def fd_check(Q, w, theta, tol=2e-5):
    import numpy as np
    val, grad, hess = Q.value_grad_hess(w, theta)
    assert abs(val - float(Q.value(w, theta))) <= 1e-10 * (1 + abs(val))
    h = 1e-5
    n = Q.w_dim
    for i in range(n):
        wp = list(map(float, w)); wp[i] += h
        wm = list(map(float, w)); wm[i] -= h
        d1 = (Q.value(wp, theta) - Q.value(wm, theta)) / (2 * h)
        assert abs(d1 - grad[i]) <= tol * (1 + abs(d1))
        _, gp, _ = Q.value_grad_hess(wp, theta)
        _, gm, _ = Q.value_grad_hess(wm, theta)
        col = (gp - gm) / (2 * h)
        assert np.allclose(col, hess[:, i], rtol=1e-4, atol=1e-6)


def _chain_rule_reference(Q, w, theta):
    """value_grad_hess at one theta, written one gradient and Hessian
    entry at a time: the formula for i <= j, mirrored."""
    pt = [float(v) for v in Q.substituted_point(w, theta)]
    w, nw, eps = [float(v) for v in w], Q.w_dim, float(theta.eps)
    prefs = Q._prefactors(w[:nw - Q.spec.p], w[nw - Q.spec.p:])
    if Q.mode == "normalized":
        prefs.append((1.0, [0.0] * nw, [[0.0] * nw] * nw))
    d1 = [sign * eps * Q.cutoff.scaled_prime(v)
          for (_, sign), v in zip(Q._w_slots, w)]
    d2 = [sign * eps * Q.cutoff.scaled_second(v)
          for (_, sign), v in zip(Q._w_slots, w)]
    parts = []
    for (sym, first, second), (pv, pg, ph) in zip(Q._derivatives, prefs):
        f = sym.eval(pt)
        f1 = [first[slot].eval(pt) for slot, _ in Q._w_slots]
        tg = np.array([pg[i] * f + pv * f1[i] * d1[i] for i in range(nw)])
        th = np.zeros((nw, nw))
        for (i, j), poly in second.items():
            v = (ph[i][j] * f + pg[i] * f1[j] * d1[j]
                 + pg[j] * f1[i] * d1[i] + pv * poly.eval(pt) * d1[i] * d1[j])
            if i == j:
                v += pv * f1[i] * d2[i]
            th[i, j] = th[j, i] = v
        parts.append((pv * f, tg, th))
    if Q.mode == "normalized":
        _, rg, rh = parts.pop()
    val, grad, hess = 0.0, np.zeros(nw), np.zeros((nw, nw))
    for tv, tg, th in parts:
        val, grad, hess = val + tv, grad + tg, hess + th
    if Q.mode == "raw":
        return val, grad, hess
    rv = Q.divisor(pt)
    q = val / rv
    qg = (grad - q * rg) / rv
    return q, qg, (hess - q * rh - qg[:, None] * rg[None]
                   - rg[:, None] * qg[None]) / rv


@pytest.mark.parametrize("name", sorted(deep_chain_specs()))
@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_grad_hess_equal_the_entrywise_chain_rule(name, mode):
    # the arrays over (w index, w index) are the per-entry formula, bit
    # for bit, zero signs too (w draws include both zeros and the knots)
    Q = qext(deep_chain_specs()[name], mode=mode)
    rng = random.Random(17)
    for _ in range(60):
        w = tuple(rng.choice([rng.uniform(-1.6, 1.6), 0.0, -0.0, 0.5, -1.0])
                  for _ in range(Q.w_dim))
        theta = rand_theta(rng, Q, den=16, span=5)
        val, grad, hess = Q.value_grad_hess(w, theta)
        want = _chain_rule_reference(Q, w, theta)
        assert repr((float(val), grad.tolist(), hess.tolist())) == repr(
            (float(want[0]), want[1].tolist(), want[2].tolist()))


@pytest.mark.parametrize("mode", ["raw", "normalized"])
def test_grad_hess_against_finite_differences(mode):
    for make in (wavy_spec, b2_spec, lambda: crit7_spec(F(2))):
        spec = make()
        Q = qext(spec, mode=mode)
        rng = random.Random(31)
        for _ in range(4):
            w = tuple(rng.uniform(-0.4, 0.4) for _ in range(Q.w_dim))
            theta = rand_theta(rng, Q)
            if theta.eps == 0:
                continue
            fd_check(Q, w, theta)


def test_grad_vanishes_at_chain_minimizer():
    Q = qext(crit7_spec(F(3, 2)))
    w, _ = Q.theta0_minimizer()
    _, grad, hess = Q.value_grad_hess(w, Q.theta_zero())
    assert max(abs(g) for g in grad) <= 1e-12
    import numpy as np
    assert np.all(np.linalg.eigvalsh(hess) > 0)


# ------------------------------------------------- stability and positivity


@pytest.mark.parametrize("make", [b1_spec, b2_spec])
def test_relative_stability_half(make):
    # |Q(w, theta) - Q(w, 0)| <= Q(w, 0) / 2 on random samples with
    # ||w||_inf <= 10 and |t| + |z| (+ |x_p|) <= delta / 4
    Q = qext(make())
    rng = random.Random(2)
    budget = float(Q.cutoff.delta) / 4
    for _ in range(300):
        w = [rng.uniform(-10.0, 10.0) for _ in range(Q.w_dim)]
        raw = [rng.uniform(-1, 1) for _ in range(Q.theta_dim)]
        scale = rng.uniform(0, budget) / (sum(map(abs, raw)) or 1.0)
        theta = Q.theta_at([v * scale for v in raw])
        q0 = float(Q.value(w, Q.theta_zero()))
        q = float(Q.value(w, theta))
        assert abs(q - q0) / q0 <= 0.5


def test_q_nonnegative_sampled():
    rng = random.Random(17)
    for make in (b1_spec, b2_spec, wavy_spec):
        Q = qext(make())
        for _ in range(40):
            w = tuple(rng.uniform(-3, 3) for _ in range(Q.w_dim))
            theta = rand_theta(rng, Q, den=128)
            assert Q.value(w, theta) >= 0


# ------------------------------------------- cross-module: weights vs spectrum


def test_elliptic_weight_criterion_matches_classification():
    rng = random.Random(101)
    done = 0
    while done < 50:
        p = rng.randint(1, 2)
        d = p + 1
        t, xs, tau, xis = phase_variables(d)
        rbars = [F(rng.randint(100, 3000), 1000) for _ in range(p)]
        s = sum(F(1) / v for v in rbars)
        if abs(s - 1) < F(1, 100):
            continue  # keep clear of the degenerate boundary
        qs = tuple(F(rng.randint(100, 10000), 1000) * xis[d - 1] ** 2
                   for _ in range(p))
        rs = tuple(PolySymbol.constant(d, v) for v in rbars)
        spec = NormalFormSpec(variant="form2", d=d, p=p, q=qs, r=rs,
                              g=xs[p - 1] ** 3 * xis[d - 1] ** 2)
        rep = check_side_conditions(spec)
        a = build_normal_form(spec)
        cl = classify_effective_hyperbolicity(-tau ** 2 + a,
                                              PhasePoint.base(d))
        assert rep.bbis_ok == cl.effective
        done += 1

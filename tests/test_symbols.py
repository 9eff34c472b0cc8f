import random
from fractions import Fraction

import pytest
import sympy as sp

from hypcert import symbols
from hypcert.symbols import (
    CandidateFrame,
    DimensionMismatch,
    NotSingular,
    PhasePoint,
    PolySymbol,
    QuadraticJet,
    check_frame,
    homogeneity_check,
    phase_variables,
    poisson_bracket,
    quadratic_jet,
    var_names,
)
from oracles import hamilton_field, value_at


def to_sympy(p):
    syms = sp.symbols(" ".join(var_names(p.d)))
    expr = sp.Integer(0)
    for exps, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            if e:
                term *= s ** e
        expr += term
    return expr, syms


def rand_poly(rng, d, max_deg=3, max_terms=6, tau_free=False):
    n = 2 * (d + 1)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        exps = [0] * n
        for _ in range(deg):
            i = rng.randrange(n)
            while tau_free and i == d + 1:
                i = rng.randrange(n)
            exps[i] += 1
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return PolySymbol(d, terms)


def rand_point(rng, d):
    return PhasePoint.from_sequence(
        d, [Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            for _ in range(2 * (d + 1))])


# ---------------------------------------------------------------- arithmetic


def test_zero_coefficients_are_dropped():
    t = PolySymbol.coordinate(2, "t")
    assert (t - t).is_zero
    assert PolySymbol(2, {(0,) * 6: 0}).is_zero


def test_arithmetic_matches_sympy():
    rng = random.Random(11)
    for _ in range(20):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        sf, syms = to_sympy(f)
        sg, _ = to_sympy(g)
        sh, _ = to_sympy(f * g - f + 3 * g)
        assert sp.expand(sf * sg - sf + 3 * sg - sh) == 0


def test_pow_and_division():
    x1 = PolySymbol.coordinate(1, "x1")
    assert (x1 + 1) ** 3 == x1 ** 3 + 3 * x1 ** 2 + 3 * x1 + 1
    assert (2 * x1) / 2 == x1
    with pytest.raises(ZeroDivisionError):
        x1 / 0


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        PolySymbol.coordinate(1, "x1") + PolySymbol.coordinate(2, "x1")
    with pytest.raises(DimensionMismatch):
        PolySymbol.coordinate(2, "x3")


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        PolySymbol(1, {(0, 0, 0, 0): 0.5})


def test_eval_exact_and_float(b2_a):
    pt = PhasePoint.from_sequence(2, [1, Fraction(1, 2), 0, 0, 1, 2])
    v = b2_a.eval(pt)
    # (1 - 1/2)^2*4 + 1/2 + (1/2)(1/8)(4) = 1 + 1/2 + 1/4
    assert v == Fraction(7, 4)
    assert isinstance(v, Fraction)
    vf = b2_a.eval([1.0, 0.5, 0.0, 0.0, 1.0, 2.0])
    assert abs(vf - 1.75) < 1e-12


def test_collect_splits_into_monomials_times_cofactors():
    # self = sum_m monomial(m) * H_m, each H_m free of the slots, the
    # monomials in the order their terms first appear
    rng = random.Random(21)
    for _ in range(30):
        p = rand_poly(rng, 2)
        slots = set(rng.sample(range(6), rng.randint(0, 3)))
        groups = p.collect(slots)
        assert sum((PolySymbol(2, {m: 1}) * h for m, h in groups.items()),
                   PolySymbol.zero(2)) == p
        assert all(not h.depends_on(i) for h in groups.values()
                   for i in slots)
        assert all(not m[i] for m in groups for i in range(6)
                   if i not in slots)
        firsts = [tuple(e if i in slots else 0 for i, e in enumerate(exps))
                  for exps in p.terms]
        assert list(groups) == list(dict.fromkeys(firsts)) or (
            not any(map(p.depends_on, slots)))


def test_str_is_deterministic(b1_a):
    assert str(b1_a) == str(b1_a)
    assert "xi2^2" in str(b1_a)


# ------------------------------------------------------------------ brackets


def test_bracket_canonical_pairs():
    d = 2
    t, xs, tau, xis = phase_variables(d)
    one = PolySymbol.constant(d, 1)
    assert poisson_bracket(xis[0], xs[0]) == one
    assert poisson_bracket(tau, t) == one
    assert poisson_bracket(xis[0], xs[1]).is_zero
    assert poisson_bracket(xis[1], xs[0]).is_zero


def test_bracket_worked_example():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    assert poisson_bracket(x1 ** 2 * xi2, xi1) == -2 * x1 * xi2


def test_bracket_finite_difference_oracle():
    # central-difference bracket at 5 random points
    rng = random.Random(23)
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    f = x1 ** 2 * xi2
    g = xi1
    exact = poisson_bracket(f, g)
    h = 1e-6
    d = 2

    def dnum(p, pt, i):
        up = list(pt)
        dn = list(pt)
        up[i] += h
        dn[i] -= h
        return (p.eval(up) - p.eval(dn)) / (2 * h)

    for _ in range(5):
        pt = [rng.uniform(-1, 1) for _ in range(6)]
        fd = dnum(f, pt, d + 1) * dnum(g, pt, 0) - dnum(f, pt, 0) * dnum(g, pt, d + 1)
        for j in range(1, d + 1):
            fd += dnum(f, pt, d + 1 + j) * dnum(g, pt, j)
            fd -= dnum(f, pt, j) * dnum(g, pt, d + 1 + j)
        assert abs(fd - exact.eval(pt)) < 1e-6


def test_bracket_antisymmetry_leibniz_jacobi():
    rng = random.Random(101)
    for _ in range(100):
        f = rand_poly(rng, 3)
        g = rand_poly(rng, 3)
        h = rand_poly(rng, 3)
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)
        assert poisson_bracket(f, g * h) == g * poisson_bracket(f, h) + h * poisson_bracket(f, g)
        jac = poisson_bracket(f, poisson_bracket(g, h)) \
            + poisson_bracket(g, poisson_bracket(h, f)) \
            + poisson_bracket(h, poisson_bracket(f, g))
        assert jac.is_zero


def test_bracket_equals_field_dotted_into_gradient():
    rng = random.Random(31)
    for _ in range(25):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        pt = rand_point(rng, 2)
        lhs = poisson_bracket(f, g).eval(pt)
        hf = hamilton_field(f, pt)
        grad = [g.diff(i).eval(pt) for i in range(g.nvars)]
        assert lhs == sum(a * b for a, b in zip(hf, grad))


# ------------------------------------------------------------ hamilton field


def test_field_of_t_minus_x1():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    rng = random.Random(5)
    f = t - x1
    for _ in range(3):
        pt = rand_point(rng, 2)
        assert hamilton_field(f, pt) == (0, 0, 0, -1, 1, 0)


def test_field_of_constant_is_zero():
    f = PolySymbol.constant(2, 7)
    assert hamilton_field(f, PhasePoint.base(2)) == (0,) * 6


def test_field_of_xi1_squared():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    pt = PhasePoint.from_sequence(2, [0, 0, 0, 0, 3, 0])
    got = hamilton_field(xi1 ** 2, pt)
    assert got == (0, 6, 0, 0, 0, 0)
    # independent derivative oracle
    expr, syms = to_sympy(xi1 ** 2)
    assert sp.diff(expr, syms[4]).subs(syms[4], 3) == 6


# -------------------------------------------------------------- homogeneity


def test_homogeneity_examples(b1_a):
    x1 = PolySymbol.coordinate(2, "x1")
    xi1 = PolySymbol.coordinate(2, "xi1")
    xi2 = PolySymbol.coordinate(2, "xi2")
    ok, res = homogeneity_check(b1_a, 2)
    assert ok and res.is_zero
    ok, _ = homogeneity_check(x1, 0)
    assert ok
    ok, res = homogeneity_check(xi1 + xi2 ** 2, 1)
    assert not ok
    assert res == xi2 ** 2


def test_homogeneity_residual_is_euler_defect():
    # residual must equal sum_j xi_j d/dxi_j f - m f exactly
    rng = random.Random(13)
    for _ in range(20):
        f = rand_poly(rng, 2)
        m = rng.randint(0, 3)
        _, res = homogeneity_check(f, m)
        t, xs, tau, xis = phase_variables(2)
        euler = PolySymbol.zero(2)
        for j, xi in enumerate(xis, start=1):
            euler = euler + xi * f.diff("xi%d" % j)
        assert res == euler - m * f


def test_bracket_of_homogeneous_is_homogeneous():
    rng = random.Random(43)
    cases = 0
    while cases < 30:
        m1 = rng.randint(0, 2)
        m2 = rng.randint(1, 2)
        f = rand_xi_homogeneous(rng, 2, m1)
        g = rand_xi_homogeneous(rng, 2, m2)
        br = poisson_bracket(f, g)
        ok, _ = homogeneity_check(br, m1 + m2 - 1)
        assert ok
        cases += 1


def rand_xi_homogeneous(rng, d, m):
    # tau-free, each term of exact xi-degree m
    n = 2 * (d + 1)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(m):
            exps[d + 2 + rng.randrange(d)] += 1
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(d + 1)] += 1  # t or x only
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    p = PolySymbol(d, terms)
    return p if not p.is_zero else rand_xi_homogeneous(rng, d, m)


# ----------------------------------------------------------------- jets


def test_jet_of_b1_is_wave_plus_square(b1_p, base2):
    jet = quadratic_jet(b1_p, base2)
    # -tau^2 + (t - x1)^2
    want = {
        (0, 0): Fraction(1), (1, 1): Fraction(1), (3, 3): Fraction(-1),
        (0, 1): Fraction(-1), (1, 0): Fraction(-1),
    }
    for i in range(6):
        for j in range(6):
            assert jet.matrix[i][j] == want.get((i, j), 0)


def test_jet_matches_sympy_taylor(b1_p, base2):
    jet = quadratic_jet(b1_p, base2)
    expr, syms = to_sympy(b1_p)
    vs = sp.symbols("v0:6")
    shifted = expr.subs(dict(zip(syms, [v + c for v, c in
                                        zip(vs, map(sp.Rational, base2.as_tuple()))])),
                        simultaneous=True)
    poly = sp.Poly(sp.expand(shifted), vs)
    for i in range(6):
        for j in range(6):
            mono = [0] * 6
            mono[i] += 1
            mono[j] += 1
            coeff = poly.coeff_monomial(sp.prod([v ** e for v, e in zip(vs, mono)]))
            want = jet.matrix[i][j] if i == j else jet.matrix[i][j] * 2
            assert coeff == sp.Rational(want.numerator, want.denominator)


def test_jet_of_classical_two_sided_symbol():
    d = 2
    t, xs, tau, xis = phase_variables(d)
    p = -(tau ** 2) + t ** 2 * (xis[0] ** 2 + xis[1] ** 2)
    jet = quadratic_jet(p, PhasePoint.base(d))
    # -tau^2 + t^2 at xi = e_2
    assert jet.matrix[0][0] == 1
    assert jet.matrix[3][3] == -1
    nonzero = {(i, j) for i in range(6) for j in range(6) if jet.matrix[i][j] != 0}
    assert nonzero == {(0, 0), (3, 3)}


def test_jet_rejects_nonsingular_point():
    t, xs, tau, xis = phase_variables(2)
    p = -(tau ** 2) + t * xis[1] ** 2
    with pytest.raises(NotSingular) as exc:
        quadratic_jet(p, PhasePoint.base(2))
    assert exc.value.derivative == "t"
    assert exc.value.value == 1


def test_jet_rejects_nonzero_value():
    p = PolySymbol.constant(2, 1) + PolySymbol.coordinate(2, "t") ** 2
    with pytest.raises(NotSingular) as exc:
        quadratic_jet(p, PhasePoint.base(2))
    assert exc.value.derivative is None
    assert exc.value.value == 1


def test_jet_refusal_prints_a_huge_value_by_its_size():
    # -(3/2)^1000000 has more digits than str() prints: the message gives
    # its sign and size, and the exception keeps the exact value
    t, (x1,), tau, (xi1,) = phase_variables(1)
    at = PhasePoint(0, (Fraction(3, 2),), 0, (0,))
    with pytest.raises(NotSingular) as exc:
        quadratic_jet(t ** 2 - x1 ** 1000000 * xi1, at)
    assert exc.value.derivative == "xi1"
    assert exc.value.value == -Fraction(3, 2) ** 1000000
    assert str(exc.value) == ("first derivative in xi1 is -2^584962.5 at "
                              "the point, not a double characteristic")


def test_jet_value_at_agrees_with_shifted_symbol(b2_p, base2):
    # v^T M v is the quadratic part of b2_p(base2 + v), from sympy
    jet = quadratic_jet(b2_p, base2)
    expr, syms = to_sympy(b2_p)
    vs = sp.symbols("v0:6")
    shifted = sp.Poly(sp.expand(expr.subs(
        {s: v + sp.Rational(c.numerator, c.denominator)
         for s, v, c in zip(syms, vs, base2.as_tuple())},
        simultaneous=True)), vs)
    quad = sum((c * sp.prod([v ** e for v, e in zip(vs, m)])
                for m, c in shifted.terms() if sum(m) == 2), sp.Integer(0))
    rng = random.Random(3)
    for _ in range(10):
        v = [Fraction(rng.randint(-3, 3), 4) for _ in range(6)]
        want = quad.subs({s: sp.Rational(x.numerator, x.denominator)
                          for s, x in zip(vs, v)})
        got = value_at(jet, v)
        assert sp.Rational(got.numerator, got.denominator) == want


def test_jet_recentering_builds_only_terms_that_reach_it(monkeypatch):
    # prod of v_i^2 over the 8 slots at the all-ones point: expanded in
    # full, 3^8 terms; the recentering keeps only terms whose recentered
    # slots sum to at most 2, so at most 1 + 8 + 36 at any step
    sizes = []
    merge = symbols._merge

    def spy(pairs):
        out = merge(pairs)
        sizes.append(len(out))
        return out

    p = PolySymbol(3, {(2,) * 8: 1})
    monkeypatch.setattr(symbols, "_merge", spy)
    with pytest.raises(NotSingular) as exc:
        quadratic_jet(p, [1] * 8)
    assert exc.value.value == 1
    assert 0 < max(sizes) <= 45


def test_quadratic_jet_requires_symmetry():
    with pytest.raises(ValueError):
        QuadraticJet(0, ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))


# ----------------------------------------------------------------- frames


def _identity_frame(d=2):
    t, xs, tau, xis = phase_variables(d)
    return CandidateFrame(
        d=d, j_start=1,
        pairs=tuple((xs[j], xis[j]) for j in range(d)),
        base=PhasePoint.base(d))


def test_identity_frame_passes():
    rep = check_frame(_identity_frame())
    assert rep.ok
    assert not rep.failures


def test_shear_frame_passes():
    # Xi1 = xi1 - x1 xi2 needs the compensating X2 = x2 + x1^2/2
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    frame = CandidateFrame(
        d=2, j_start=1,
        pairs=((x1, xi1 - x1 * xi2),
               (x2 + x1 ** 2 / 2, xi2)),
        base=PhasePoint.base(2))
    rep = check_frame(frame)
    assert rep.ok, rep.failures


def test_duplicate_position_fails_canonicity():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    frame = CandidateFrame(
        d=2, j_start=1,
        pairs=((x1, xi1), (x1, xi2)),
        base=PhasePoint.base(2))
    rep = check_frame(frame)
    assert not rep.ok
    assert any("{Xi1, X2} = 0" in f for f in rep.failures)


def test_frame_flags_wrong_homogeneity_and_base():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    frame = CandidateFrame(
        d=2, j_start=2,
        pairs=((x2 + 1, xi2 + xi1 ** 2),),
        base=PhasePoint.base(2))
    rep = check_frame(frame)
    assert not rep.ok
    names = [f.split(":")[0] for f in rep.failures]
    assert "Xi2 xi-degree 1" in names
    assert "X2(base) = 0" in names


def test_frame_requires_nonvanishing_last_momentum():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    frame = CandidateFrame(
        d=2, j_start=2,
        pairs=((x2, xi1),),
        base=PhasePoint(Fraction(0), (Fraction(0), Fraction(0)),
                        Fraction(0), (Fraction(0), Fraction(1))))
    rep = check_frame(frame)
    assert any(f.startswith("Xi2(base) != 0") for f in rep.failures)

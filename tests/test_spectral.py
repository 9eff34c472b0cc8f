import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypcert import spectral
from hypcert.spectral import (
    MAX_SIZE,
    charpoly_exact,
    classify_effective_hyperbolicity,
    hamilton_map,
    spectrum,
)
from hypcert.symbolfile import parse_symbol_file
from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    QuadraticJet,
    phase_variables,
    quadratic_jet,
)
from oracles import chain_quadratic_jet, psi_zero, psi_zero_sign_equivalence

F0 = Fraction(0)
F1 = Fraction(1)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def jet_from(rows, d):
    return QuadraticJet(d, tuple(tuple(Fraction(v) for v in row)
                                 for row in rows))


def sorted_eigs(spec):
    return sorted(spec.eigenvalues, key=lambda z: (z.real, z.imag))


# -------------------------------------------------------------- hamilton map


def test_map_of_wave_form_d0():
    tau = PolySymbol.coordinate(0, "tau")
    t = PolySymbol.coordinate(0, "t")
    jet = quadratic_jet(-(tau ** 2) + t ** 2, PhasePoint.base(0))
    assert hamilton_map(jet) == ((F0, Fraction(-1)), (Fraction(-1), F0))


def test_map_of_harmonic_block():
    # x1^2 + xi1^2 in d = 1: the (x1, xi1) sub-block is [[0, 1], [-1, 0]]
    jet = jet_from([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], d=1)
    F = hamilton_map(jet)
    assert F[1][3] == 1
    assert F[3][1] == -1
    others = [(i, j) for i in range(4) for j in range(4)
              if F[i][j] != 0 and (i, j) not in {(1, 3), (3, 1)}]
    assert not others


def test_map_of_zero_form():
    jet = jet_from([[0] * 4 for _ in range(4)], d=1)
    assert all(v == 0 for row in hamilton_map(jet) for v in row)


def test_charpoly_faddeev_leverrier():
    # companion-style cross-check on a known matrix
    rows = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    assert charpoly_exact(rows) == (F1, Fraction(-5), Fraction(6))


# ----------------------------------------- integer recursion vs. Fractions


def reference_charpoly(rows):
    """Faddeev-LeVerrier in Fractions over the dense matrix, the reference
    for the integer recursion of charpoly_exact."""
    n = len(rows)
    coeffs = [F1]
    mk = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prev = mk
        mk = [[sum((rows[i][l] * prev[l][j] for l in range(n)), F0)
               for j in range(n)] for i in range(n)]
        ck = -sum((mk[i][i] for i in range(n)), F0) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return tuple(coeffs)


def assert_same_charpoly(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is Fraction
        assert g == w


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

entries = st.one_of(
    st.just(F0),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 6)))


@st.composite
def rational_matrices(draw):
    """n = 1..8, sparse, negative entries, denominators up to 10^6, with
    some whole rows and columns zeroed."""
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        rows[i] = [F0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = F0
    return rows


@st.composite
def symmetric_jets(draw, split=False):
    """Random symmetric jet in d = 0..3; when split, (jet, partition) with
    a random block partition of the conjugate pairs (0 for (t, tau), i
    for (x_i, xi_i)) and no entry coupling the partition to the rest."""
    d = draw(st.integers(1 if split else 0, 3))
    n = 2 * (d + 1)
    partition = (draw(st.frozensets(st.integers(0, d), min_size=1, max_size=d))
                 if split else None)
    rows = [[F0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if split and (i % (d + 1) in partition) != (j % (d + 1) in partition):
                continue
            rows[i][j] = rows[j][i] = draw(entries)
    jet = jet_from(rows, d)
    return (jet, partition) if split else jet


@PROPERTY
@given(rational_matrices())
def test_charpoly_matches_fraction_reference(rows):
    assert_same_charpoly(charpoly_exact(rows), reference_charpoly(rows))


@PROPERTY
@given(symmetric_jets())
def test_charpoly_of_hamilton_map_matches_reference_and_is_even(jet):
    rows = hamilton_map(jet)
    got = charpoly_exact(rows)
    assert_same_charpoly(got, reference_charpoly(rows))
    assert all(c == 0 for c in got[1::2])


def block_charpolys(jet, partition):
    """charpoly_exact of the Hamilton maps of the two blocks: the pairs in
    partition, then the rest."""
    d = jet.d
    out = []
    for pairs in (sorted(partition), sorted(set(range(d + 1)) - set(partition))):
        slots = pairs + [d + 1 + i for i in pairs]
        block = jet_from([[jet.matrix[i][j] for j in slots] for i in slots],
                         len(pairs) - 1)
        out.append(charpoly_exact(hamilton_map(block)))
    return out


def poly_mul(a, b):
    out = [F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def assert_charpoly_splits(jet, partition):
    """The charpoly of the whole map is the product of its blocks'."""
    full = charpoly_exact(hamilton_map(jet))
    assert_same_charpoly(full, reference_charpoly(hamilton_map(jet)))
    assert full == poly_mul(*block_charpolys(jet, partition))


@PROPERTY
@given(symmetric_jets(split=True))
def test_block_factorization_exact_on_random_split_jets(case):
    assert_charpoly_splits(*case)


# ------------------------------------------------------------------ spectrum


def test_spectrum_wave_form_is_real_pair():
    tau = PolySymbol.coordinate(0, "tau")
    t = PolySymbol.coordinate(0, "t")
    spec = spectrum(hamilton_map(quadratic_jet(-(tau ** 2) + t ** 2,
                                               PhasePoint.base(0))))
    assert sorted_eigs(spec) == [(-1 + 0j), (1 + 0j)]
    assert spec.tag == "real-pair-present"


def test_spectrum_harmonic_is_imaginary_pair():
    jet = jet_from([[1, 0], [0, 1]], d=0)  # t^2 + tau^2 as a plain form
    spec = spectrum(hamilton_map(jet))
    assert sorted_eigs(spec) == [complex(0, -1), complex(0, 1)]
    assert spec.tag == "pure-imaginary-only"


def test_spectrum_zero_matrix():
    spec = spectrum(hamilton_map(jet_from([[0] * 4 for _ in range(4)], d=1)))
    assert spec.eigenvalues == (0j, 0j, 0j, 0j)
    assert spec.tag == "zero-only"


def test_spectrum_complex_quartet_is_mixed():
    # t tau + x xi + t xi - x tau: eigenvalues (+-1 +-i) / 2, mu^2 + 1/4;
    # with the harmonic pair x2^2 + xi2^2 beside it, one root mu = -1 too
    h = Fraction(1, 2)
    for d, extra in ((1, []), (2, [(2, 2, 1), (5, 5, 1)])):
        t, x, tau, xi = 0, 1, d + 1, d + 2
        rows = [[F0] * (2 * d + 2) for _ in range(2 * d + 2)]
        for i, j, v in [(t, tau, h), (x, xi, h), (t, xi, h), (x, tau, -h)] + extra:
            rows[i][j] = rows[j][i] = Fraction(v)
        spec = spectrum(hamilton_map(jet_from(rows, d)))
        assert spec.tag == "mixed"
        assert sum(abs(abs(z.real) - h) <= 1e-12 and abs(abs(z.imag) - h)
                   <= 1e-12 for z in spec.eigenvalues) == 4


def test_defective_zero_block_yields_exact_zeros(b2_p, base2):
    # four zero eigenvalues of the fixture map come out exactly 0
    spec = spectrum(hamilton_map(quadratic_jet(b2_p, base2)))
    zeros = [z for z in spec.eigenvalues if z == 0]
    assert len(zeros) == 4


def classified_fixture_maps():
    tau = PolySymbol.coordinate(2, "tau")
    for name in ("b1", "b2", "b2_bbis2", "classical"):
        sf = parse_symbol_file(FIXTURES / ("%s.json" % name))
        yield hamilton_map(quadratic_jet(-(tau ** 2) + sf.a, sf.base_point))


def long_chain_map(p):
    """The Hamilton map of the chain model q_i = 1/(i+2), r_i = (i+3)/7
    of length p, whose mu roots are all real."""
    q = [Fraction(1, i + 2) for i in range(p)]
    r = [Fraction(i + 3, 7) for i in range(p)]
    return hamilton_map(chain_quadratic_jet(q, r))


LONG_CHAINS = (16, 24, 31)


def test_spectrum_residuals_within_tolerance():
    # the displayed eigenvalues are eigenvalues of F: the smallest
    # singular value of F - z I is within 1e-9 (1 + |F|) for each z.  The
    # long chains' mu roots are all real, so each displayed value is real
    # or purely imaginary there (a companion-matrix display showed 8
    # complex values at p = 24 and 40 at p = 31)
    chains = [long_chain_map(p) for p in LONG_CHAINS]
    for F in chains:
        assert not [z for z in spectrum(F).eigenvalues if z.real and z.imag]
    for F in list(classified_fixture_maps()) + chains + [
            hamilton_map(j) for j in random_jets()]:
        fm = np.array([[float(v) for v in row] for row in F])
        bound = 1e-9 * (1 + np.linalg.norm(fm))
        eye = np.eye(len(F))
        for z in set(spectrum(F).eigenvalues):
            sigma = np.linalg.svd(fm - z * eye, compute_uv=False)[-1]
            assert sigma <= bound, (z, sigma, bound)


# ------------------------------------------------------------ classification


def test_classify_b2_fixture_effective(b2_p, base2):
    res = classify_effective_hyperbolicity(b2_p, base2)
    assert res.effective
    mu = math.sqrt(1 - 0.5)
    assert abs(res.witness - mu) <= 1e-8
    eigs = sorted_eigs(res.spectrum)
    assert abs(eigs[0] - (-mu)) <= 1e-8
    assert abs(eigs[-1] - mu) <= 1e-8


def test_classify_elliptic_variant_not_effective():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    p = -(tau ** 2) + ((t - x1) ** 2) * xi2 ** 2 + 2 * xi1 ** 2
    res = classify_effective_hyperbolicity(p, PhasePoint.base(2))
    assert not res.effective
    assert res.witness is None
    assert res.spectrum.tag == "pure-imaginary-only"
    imag = sorted(z.imag for z in res.spectrum.eigenvalues)
    assert abs(imag[0] + 1) <= 1e-8 and abs(imag[-1] - 1) <= 1e-8


def test_classify_psd_symbol_not_effective():
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    p = -(tau ** 2) + (x1 ** 2 + xi1 ** 2) * xi2 ** 2
    res = classify_effective_hyperbolicity(p, PhasePoint.base(2))
    assert not res.effective
    assert res.spectrum.tag == "pure-imaginary-only"


def test_classify_scaling_of_full_symbol(b1_p, b2_p, base2):
    # p -> c p multiplies the map, hence every eigenvalue, by c
    for p in (b1_p, b2_p):
        base_res = classify_effective_hyperbolicity(p, base2)
        for c in (Fraction(1, 4), 9):
            res = classify_effective_hyperbolicity(c * p, base2)
            assert res.effective == base_res.effective
            got = sorted_eigs(res.spectrum)
            want = sorted((c * z for z in base_res.spectrum.eigenvalues),
                          key=lambda z: (z.real, z.imag))
            assert all(abs(a - b) <= 1e-10 * (1 + abs(b)) for a, b in zip(got, want))


def test_classify_scaling_of_a_when_jet_has_no_momentum_part(base2):
    # a -> c a scales eigenvalues by sqrt(c) when the jet involves
    # positions only (no xi^2 terms survive at the base point)
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    for a in (((t - x1) ** 2 + x1 ** 3) * xi2 ** 2,
              t ** 2 * (xi1 ** 2 + xi2 ** 2)):
        p = -(tau ** 2) + a
        base_res = classify_effective_hyperbolicity(p, base2)
        res = classify_effective_hyperbolicity(-(tau ** 2) + 4 * a, base2)
        assert res.effective == base_res.effective
        got = sorted_eigs(res.spectrum)
        want = sorted((2 * z for z in base_res.spectrum.eigenvalues),
                      key=lambda z: (z.real, z.imag))
        assert all(abs(x - y) <= 1e-10 * (1 + abs(y)) for x, y in zip(got, want))


def test_high_power_classifies_from_its_jet():
    # -tau^2 + t^2 + x1^2 xi1^N at (0, 0, 0, 1): x1^2 (1 + v)^N adds x1^2
    # to the jet, and the recentering builds no power of v past v^2
    p = PolySymbol(1, {(0, 0, 2, 0): -1, (2, 0, 0, 0): 1,
                       (0, 2, 0, 10 ** 6): 1})
    jet = jet_from([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]],
                   d=1)
    assert quadratic_jet(p, PhasePoint.base(1)) == jet
    assert hamilton_map(jet) == ((0, 0, -1, 0), (0, 0, 0, 0),
                                 (-1, 0, 0, 0), (0, -1, 0, 0))
    res = classify_effective_hyperbolicity(p, PhasePoint.base(1))
    assert res.effective and res.witness == 1
    assert res.spectrum.tag == "real-pair-present"


def test_oversized_map_is_refused_before_the_jet(monkeypatch):
    def unreachable(p, at):
        raise AssertionError("jet built for an oversized map")

    monkeypatch.setattr(spectral, "quadratic_jet", unreachable)
    d = MAX_SIZE // 2  # a map of size MAX_SIZE + 2
    with pytest.raises(DimensionMismatch, match="66 x 66"):
        classify_effective_hyperbolicity(PolySymbol.coordinate(d, "t") ** 2,
                                         PhasePoint.base(d))


def test_effective_fixtures_have_nonzero_tt_entry(b1_p, b2_p, base2):
    t, xs, tau, xis = phase_variables(2)
    classical = -(tau ** 2) + t ** 2 * (xis[0] ** 2 + xis[1] ** 2)
    for p in (b1_p, b2_p, classical):
        assert classify_effective_hyperbolicity(p, base2).effective
        assert quadratic_jet(p, base2).matrix[0][0] != 0


# --------------------------------------------------------- block char factor


def _coupled_blocks_jet():
    # [-tau^2 + (t-x1)^2 + (1/2) xi1^2] + [x2^2 + xi2^2] in d = 2
    h = Fraction(1, 2)
    rows = [[F0] * 6 for _ in range(6)]
    rows[0][0] = F1
    rows[1][1] = F1
    rows[0][1] = rows[1][0] = -F1
    rows[3][3] = -F1
    rows[4][4] = h
    rows[2][2] = F1
    rows[5][5] = F1
    return jet_from(rows, d=2)


def test_block_factorization_exact_on_split_form():
    jet = _coupled_blocks_jet()
    assert_charpoly_splits(jet, {0, 1})
    # harmonic B block contributes lambda^2 + 1
    assert block_charpolys(jet, {0, 1})[1] == (F1, F0, F1)


def test_block_factorization_zero_block_gives_pure_power():
    rows = [[F0] * 6 for _ in range(6)]
    rows[0][0] = F1
    rows[1][1] = F1
    rows[0][1] = rows[1][0] = -F1
    rows[3][3] = -F1
    rows[4][4] = Fraction(1, 2)
    jet = jet_from(rows, d=2)
    assert_charpoly_splits(jet, {0, 1})
    # lambda^(2|B|), one pair in B
    assert block_charpolys(jet, {0, 1})[1] == (F1, F0, F0)


# ------------------------------------------------------------------ psi zero


def test_psi_zero_closed_form_values():
    assert psi_zero([1], [Fraction(1, 2)]) == -2
    assert psi_zero([1], [1]) == 0
    assert psi_zero([1, 1], [2, 2]) == 0
    assert psi_zero([1], [2]) == 4


def test_sign_equivalence_examples():
    psi, spec = psi_zero_sign_equivalence([1], [Fraction(1, 2)])
    assert (psi, spec.has_real_pair) == (-2, True)
    psi, spec = psi_zero_sign_equivalence([1], [2])
    assert (psi, spec.has_real_pair) == (4, False)
    psi, spec = psi_zero_sign_equivalence([1], [1])
    assert (psi, spec.has_real_pair) == (0, False)
    assert spec.tag == "zero-only"


def test_sign_equivalence_random_smoke():
    rng = random.Random(77)
    for _ in range(50):
        p = rng.choice([1, 2, 3])
        q = [Fraction(rng.randint(100, 10000), 1000) for _ in range(p)]
        r = [Fraction(rng.randint(100, 10000), 1000) for _ in range(p)]
        psi, spec = psi_zero_sign_equivalence(q, r)
        assert (psi < 0) == spec.has_real_pair


@pytest.mark.parametrize("p", [16, 24, 31])
def test_long_chain_classifies_exactly(p):
    # p = 31 is a 64 x 64 map, MAX_SIZE; the verdict is exact, and the
    # witness, the chain's one real pair, is +-sqrt of the correctly
    # rounded mu root
    q = [Fraction(1, i + 2) for i in range(p)]
    r = [Fraction(i + 3, 7) for i in range(p)]
    psi, spec = psi_zero_sign_equivalence(q, r)
    assert spec.tag == "real-pair-present" and psi < 0
    jet = chain_quadratic_jet(q, r)
    cl = classify_effective_hyperbolicity(jet_polynomial(jet), [0] * jet.size)
    assert cl.spectrum == spec
    fm = np.array([[float(v) for v in row] for row in hamilton_map(jet)])
    largest = max(z.real for z in np.linalg.eigvals(fm) if z.imag == 0)
    assert abs(cl.witness - largest) <= 1e-12


def jet_polynomial(jet):
    """The quadratic form v^T M v of a jet as a PolySymbol, whose own jet
    at the origin is the given one."""
    t, xs, tau, xis = phase_variables(jet.d)
    v = [t, *xs, tau, *xis]
    out = PolySymbol.zero(jet.d)
    for i, row in enumerate(jet.matrix):
        for j, m in enumerate(row):
            if m:
                out = out + m * v[i] * v[j]
    return out


CHAINS = settings(max_examples=40, deadline=None, derandomize=True,
                  database=None, suppress_health_check=[HealthCheck.too_slow])
positive = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


@CHAINS
@given(st.integers(1, 8).flatmap(
    lambda p: st.tuples(st.lists(positive, min_size=p, max_size=p),
                        st.lists(positive, min_size=p, max_size=p))),
    st.booleans())
def test_exact_verdict_is_psi_zero_negative(qr, on_boundary):
    q, r = qr
    if on_boundary:  # rescale r so that sum 1/r_i == 1 exactly
        s = sum(1 / v for v in r)
        r = [v * s for v in r]
    psi, spec = psi_zero_sign_equivalence(q, r)
    assert spec.has_real_pair == (psi < 0)
    if on_boundary:
        assert psi == 0 and not spec.has_real_pair


@st.composite
def rational_polynomials(draw):
    """Leading coefficient first: c * prod (x - r)^m * prod (x^2 + b x + e),
    roots nonzero (e != 0), with repeated and complex roots."""
    x = sympy.Symbol("x")
    ratio = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.integers(1, 9))
    poly = sympy.Poly(draw(st.integers(-5, 5).filter(bool)), x)
    for r in draw(st.lists(ratio, max_size=4)):
        m = draw(st.integers(1, 3))
        poly *= sympy.Poly((x - sympy.Rational(r.numerator, r.denominator)) ** m, x)
    for b, e in draw(st.lists(st.tuples(ratio, ratio), max_size=2)):
        quad = x ** 2 + sympy.Rational(b.numerator, b.denominator) * x \
            + sympy.Rational(e.numerator, e.denominator)
        poly *= sympy.Poly(quad ** draw(st.integers(1, 2)), x)
    return poly


@CHAINS
@given(rational_polynomials())
def test_sturm_counts_match_sympy(poly):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]
    seq = spectral._sturm_sequence(spectral._integer(coeffs))
    assert spectral._root_counts(seq) == (poly.count_roots(None, 0),
                                          poly.count_roots(0, None),
                                          poly.sqf_part().degree())


small = st.integers(-9, 9).filter(bool)


@st.composite
def factored_integer_polynomials(draw):
    """(integer coefficients, leading first; [(root, multiplicity)]) for a
    product of linear factors a x - b and irreducible quadratics
    a x^2 + b x + c, degree <= 6, no root at 0, factors repeated; each
    root as a sympy number."""
    x = sympy.Symbol("x")
    poly, roots, degree = sympy.Poly(draw(small), x), {}, 0
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            a, b = draw(st.integers(1, 9)), draw(small)
            factor, found = sympy.Poly(a * x - b, x), [sympy.Rational(b, a)]
        else:
            a, b, c = draw(st.integers(1, 9)), draw(st.integers(-9, 9)), draw(small)
            factor = sympy.Poly(a * x ** 2 + b * x + c, x)
            if not factor.is_irreducible:
                continue
            disc = sympy.sqrt(b * b - 4 * a * c)
            found = [(-b - disc) / (2 * a), (-b + disc) / (2 * a)]
        m = draw(st.integers(1, 3))
        if degree + m * factor.degree() > 6:
            break
        poly, degree = poly * factor ** m, degree + m * factor.degree()
        for root in found:
            key = sympy.nsimplify(root)
            roots[key] = roots.get(key, 0) + m
    return [int(c) for c in poly.all_coeffs()], sorted(roots.items(), key=str)


@CHAINS
@given(factored_integer_polynomials())
def test_mu_roots_match_sympy(case):
    # each real root is the float nearest sympy's 40-digit value, each
    # non-real one is within 1e-12 relative, with its multiplicity
    p, want = case
    seq = spectral._sturm_sequence(p)
    negative, positive, _ = spectral._root_counts(seq)
    got = spectral._mu_roots(seq, negative, positive)
    assert sorted(m for _, m in got) == sorted(m for _, m in want)
    left = list(got)
    for root, m in want:
        value = complex(sympy.N(root, 40))
        if root.is_real:
            exact = sympy.Rational(sympy.N(root, 40))
            near = complex(float(Fraction(int(exact.p), int(exact.q))))
            assert (near, m) in left, (root, near, got)
            left.remove((near, m))
        else:
            z, k = min(left, key=lambda zm: abs(zm[0] - value))
            assert abs(z - value) <= 1e-12 * abs(value), (root, z)
            assert k == m, (root, got)
            left.remove((z, k))
    assert left == []


def test_nearest_float_decides_between_adjacent_floats():
    # the root of 2^60 x - n in (1, 1 + 2^-52), whose ends are adjacent
    # floats: the sign at their midpoint 1 + 2^-53 picks the nearer one,
    # and a root on a midpoint rounds to even
    one = 1 << 60
    for n, want in ((one + 2 ** 7 + 1, 1 + 2 ** -52),
                    (one + 2 ** 7 - 1, 1.0),
                    (one + 2 ** 7, 1.0),
                    (one + 3 * 2 ** 7, 1 + 2 ** -51)):
        hi = 2 if n > one + 2 ** 8 else 1
        got = spectral._nearest_float([one, -n], 1 << 52, (1 << 52) + hi, 52)
        assert got == want == float(Fraction(n, one)), hex(n)


def test_chain_jet_matches_symbol_route():
    # same matrix as the quadratic jet of the d = 2 fixture without its cubic
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    p = -(tau ** 2) + ((t - x1) ** 2) * xi2 ** 2 + Fraction(1, 2) * xi1 ** 2
    big = quadratic_jet(p, PhasePoint.base(2))
    small = chain_quadratic_jet([1], [Fraction(1, 2)])
    idx = [0, 1, 3, 4]  # (t, x1, tau, xi1) inside the d = 2 layout
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            assert small.matrix[a][b] == big.matrix[i][j]


# ---------------------------------------------------------------- properties


def rand_sym_rows(rng, n):
    rows = [[F0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            rows[i][j] = rows[j][i] = v
    return rows


def random_jets():
    rng = random.Random(9)
    for _ in range(200):
        d = rng.choice([0, 1, 2])
        yield jet_from(rand_sym_rows(rng, 2 * (d + 1)), d)


def test_spectrum_closed_under_negation_and_conjugation():
    for jet in random_jets():
        n = jet.size
        spec = spectrum(hamilton_map(jet))
        eigs = list(spec.eigenvalues)
        assert len(eigs) == n
        for z in eigs:
            assert min(abs(z + w) for w in eigs) <= 1e-12 * (1 + abs(z))
            assert min(abs(z.conjugate() - w) for w in eigs) <= 1e-12 * (1 + abs(z))


def test_psd_gram_forms_have_imaginary_spectrum():
    rng = random.Random(29)
    for _ in range(60):
        d = rng.choice([1, 2])
        n = 2 * (d + 1)
        g = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        gram = [[sum(g[k][i] * g[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        spec = spectrum(hamilton_map(jet_from(gram, d)))
        assert max(abs(z.real) for z in spec.eigenvalues) <= 1e-7
        assert spec.tag in ("pure-imaginary-only", "zero-only")


def _sym_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def rand_symplectic(rng, n_pos):
    n = 2 * n_pos
    ident = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    s = ident
    for _ in range(3):
        kind = rng.choice(["shear", "diag", "swap"])
        m = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
        if kind == "shear":
            for i in range(n_pos):
                for j in range(i, n_pos):
                    v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    m[i][n_pos + j] = v
                    m[j][n_pos + i] = v
        elif kind == "diag":
            a = [[F1 if i == j else F0 for j in range(n_pos)] for i in range(n_pos)]
            for i in range(n_pos):
                for j in range(i + 1, n_pos):
                    a[i][j] = Fraction(rng.randint(-2, 2))
            ainv_t = _transpose(_unit_upper_inverse(a))
            for i in range(n_pos):
                for j in range(n_pos):
                    m[i][j] = a[i][j]
                    m[n_pos + i][n_pos + j] = ainv_t[i][j]
        else:
            for i in range(n_pos):
                m[i][i] = F0
                m[n_pos + i][n_pos + i] = F0
                m[i][n_pos + i] = F1
                m[n_pos + i][i] = -F1
        s = _sym_matmul(s, m)
    return s


def _unit_upper_inverse(a):
    n = len(a)
    inv = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    for col in range(n):
        for row in range(n - 2, -1, -1):
            acc = sum(a[row][k] * inv[k][col] for k in range(row + 1, n))
            inv[row][col] = (F1 if row == col else F0) - acc
    return inv


def test_symplectic_conjugation_preserves_charpoly():
    rng = random.Random(41)
    for _ in range(40):
        d = rng.choice([0, 1, 2])
        n = 2 * (d + 1)
        rows = rand_sym_rows(rng, n)
        s = rand_symplectic(rng, d + 1)
        ms = _sym_matmul(_sym_matmul(_transpose(s), rows), s)
        lhs = charpoly_exact(hamilton_map(jet_from(rows, d)))
        rhs = charpoly_exact(hamilton_map(jet_from(ms, d)))
        assert lhs == rhs

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypcert.spectral import (
    BlockFactorization,
    CrossTermsPresent,
    NonPositiveInput,
    chain_quadratic_jet,
    charpoly_exact,
    classify_effective_hyperbolicity,
    block_char_factorization,
    hamilton_map,
    psi_zero,
    psi_zero_sign_equivalence,
    spectrum,
)
from hypcert.symbols import (
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    QuadraticJet,
    phase_variables,
    quadratic_jet,
)

F0 = Fraction(0)
F1 = Fraction(1)


def jet_from(rows, d, partition=None):
    m = tuple(tuple(Fraction(v) for v in row) for row in rows)
    return QuadraticJet(d, m, frozenset(partition) if partition else None)


def sorted_eigs(spec):
    return sorted(spec.eigenvalues, key=lambda z: (z.real, z.imag))


# -------------------------------------------------------------- hamilton map


def test_map_of_wave_form_d0():
    tau = PolySymbol.coordinate(0, "tau")
    t = PolySymbol.coordinate(0, "t")
    jet = quadratic_jet(-(tau ** 2) + t ** 2, PhasePoint.base(0))
    F = hamilton_map(jet)
    assert F.exact == ((F0, Fraction(-1)), (Fraction(-1), F0))


def test_map_of_harmonic_block():
    # x1^2 + xi1^2 in d = 1: the (x1, xi1) sub-block is [[0, 1], [-1, 0]]
    jet = jet_from([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], d=1)
    F = hamilton_map(jet)
    assert F.exact[1][3] == 1
    assert F.exact[3][1] == -1
    others = [(i, j) for i in range(4) for j in range(4)
              if F.exact[i][j] != 0 and (i, j) not in {(1, 3), (3, 1)}]
    assert not others


def test_map_of_zero_form():
    jet = jet_from([[0] * 4 for _ in range(4)], d=1)
    assert all(v == 0 for row in hamilton_map(jet).exact for row_v in [row] for v in row_v)


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
    """Random symmetric jet in d = 0..3; when split, with a random block
    partition and no entry coupling its conjugate pairs to the rest."""
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
    return jet_from(rows, d, partition)


@PROPERTY
@given(rational_matrices())
def test_charpoly_matches_fraction_reference(rows):
    assert_same_charpoly(charpoly_exact(rows), reference_charpoly(rows))


@PROPERTY
@given(symmetric_jets())
def test_charpoly_of_hamilton_map_matches_reference_and_is_even(jet):
    rows = hamilton_map(jet).exact
    got = charpoly_exact(rows)
    assert_same_charpoly(got, reference_charpoly(rows))
    assert all(c == 0 for c in got[1::2])


@PROPERTY
@given(symmetric_jets(split=True))
def test_block_factorization_exact_on_random_split_jets(jet):
    fac = block_char_factorization(jet)
    assert fac.max_coeff_dev == 0
    assert_same_charpoly(fac.full, reference_charpoly(hamilton_map(jet).exact))


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
    spec = spectrum(hamilton_map(jet_from([[0] * 4 for _ in range(4)], d=1)),
                    tol=1e-12)
    assert spec.eigenvalues == (0j, 0j, 0j, 0j)
    assert spec.tag == "zero-only"
    assert spec.max_residual == 0.0


def test_defective_zero_block_yields_exact_zeros(b2_p, base2):
    # four zero eigenvalues of the fixture map come out exactly 0
    spec = spectrum(hamilton_map(quadratic_jet(b2_p, base2)))
    zeros = [z for z in spec.eigenvalues if z == 0]
    assert len(zeros) == 4


def test_spectrum_residuals_within_tolerance(b2_p, base2):
    F = hamilton_map(quadratic_jet(b2_p, base2))
    spec = spectrum(F)
    assert spec.max_residual <= spec.tol * F.norm


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


def test_effective_fixtures_have_nonzero_tt_entry(b1_p, b2_p, base2):
    t, xs, tau, xis = phase_variables(2)
    classical = -(tau ** 2) + t ** 2 * (xis[0] ** 2 + xis[1] ** 2)
    for p in (b1_p, b2_p, classical):
        res = classify_effective_hyperbolicity(p, base2)
        assert res.effective
        assert res.jet.matrix[0][0] != 0


# --------------------------------------------------------- block char factor


def _coupled_blocks_jet(partition=None):
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
    return jet_from(rows, d=2, partition=partition)


def test_block_factorization_exact_on_split_form():
    jet = _coupled_blocks_jet({0, 1})
    fac = block_char_factorization(jet)
    assert fac.max_coeff_dev == 0.0
    assert_same_charpoly(fac.full, reference_charpoly(hamilton_map(jet).exact))
    assert fac.full == fac.product
    # harmonic B block contributes lambda^2 + 1
    assert fac.factors[1] == (F1, F0, F1)


def test_block_factorization_zero_block_gives_pure_power():
    rows = [[F0] * 6 for _ in range(6)]
    rows[0][0] = F1
    rows[1][1] = F1
    rows[0][1] = rows[1][0] = -F1
    rows[3][3] = -F1
    rows[4][4] = Fraction(1, 2)
    jet = jet_from(rows, d=2, partition={0, 1})
    fac = block_char_factorization(jet)
    assert fac.factors[1] == (F1, F0, F0)  # lambda^(2|B|), one pair in B
    assert fac.max_coeff_dev == 0.0
    assert_same_charpoly(fac.full, reference_charpoly(hamilton_map(jet).exact))


def test_block_factorization_rejects_cross_terms():
    rows = [[F0] * 6 for _ in range(6)]
    rows[0][0] = F1
    rows[3][3] = -F1
    rows[0][2] = rows[2][0] = Fraction(1, 2)  # t * x2 coupling
    with pytest.raises(CrossTermsPresent):
        block_char_factorization(jet_from(rows, d=2, partition={0, 1}))


# ------------------------------------------------------------------ psi zero


def test_psi_zero_closed_form_values():
    assert psi_zero([1], [Fraction(1, 2)]) == -2
    assert psi_zero([1], [1]) == 0
    assert psi_zero([1, 1], [2, 2]) == 0
    assert psi_zero([1], [2]) == 4


def test_psi_zero_input_validation():
    with pytest.raises(NonPositiveInput):
        psi_zero([1, -1], [1, 1])
    with pytest.raises(NonPositiveInput):
        psi_zero([], [])
    with pytest.raises(DimensionMismatch):
        psi_zero([1, 1], [1])


def test_sign_equivalence_examples():
    res = psi_zero_sign_equivalence([1], [Fraction(1, 2)])
    assert (res.sign_psi, res.has_real_eig, res.agree) == (-1, True, True)
    res = psi_zero_sign_equivalence([1], [2])
    assert (res.sign_psi, res.has_real_eig, res.agree) == (1, False, True)
    res = psi_zero_sign_equivalence([1], [1])
    assert (res.sign_psi, res.has_real_eig, res.agree) == (0, False, True)
    assert res.spectrum.tag == "zero-only"


def test_sign_equivalence_random_smoke():
    rng = random.Random(77)
    done = 0
    while done < 50:
        p = rng.choice([1, 2, 3])
        q = [Fraction(rng.randint(100, 10000), 1000) for _ in range(p)]
        r = [Fraction(rng.randint(100, 10000), 1000) for _ in range(p)]
        if abs(sum(Fraction(1) / v for v in r) - 1) < Fraction(1, 100):
            continue
        assert psi_zero_sign_equivalence(q, r, tol=1e-7).agree
        done += 1


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


def test_spectrum_closed_under_negation_and_conjugation():
    rng = random.Random(9)
    for _ in range(200):
        d = rng.choice([0, 1, 2])
        n = 2 * (d + 1)
        spec = spectrum(hamilton_map(jet_from(rand_sym_rows(rng, n), d)),
                        tol=1e-7)
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
        lhs = charpoly_exact(hamilton_map(jet_from(rows, d)).exact)
        rhs = charpoly_exact(hamilton_map(jet_from(ms, d)).exact)
        assert lhs == rhs

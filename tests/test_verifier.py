"""Grid certification: scans, ratio estimates, minimizer, structural checks."""

import inspect
import itertools
import math
import random
import threading
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from hypcert import (
    ExtendedQ,
    NoConvergence,
    NormalFormSpec,
    PolySymbol,
    Region,
    ScanTooLarge,
    Theta,
    build_cutoff,
    build_extended_Q,
    build_normal_form,
    certify_region,
    check_side_conditions,
    check_structural,
    construct_time_function,
    minimize_Q,
)
from hypcert.symbolfile import parse_symbol_file
from hypcert.symbols import DimensionMismatch, phase_variables
from hypcert import grid as walker
from hypcert import verifier
from hypcert.grid import MAX_SCAN_POINTS, TensorGrid
from hypcert.verifier import region_axes
from test_normal_forms import deep_chain_specs

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)


def b1_spec():
    return NormalFormSpec(variant="form1", d=2, p=0, q=(xi2**2,), r=(),
                          phi=x1, psi=x1**3)


def b2_spec():
    return NormalFormSpec(variant="form2", d=2, p=1, q=(xi2**2,),
                          r=(PolySymbol.constant(2, F(1, 2)),),
                          g=x1**3 * xi2**2)


def crit7_spec(qbar):
    return NormalFormSpec(
        variant="form1", d=2, p=1,
        q=(PolySymbol.constant(2, qbar) * xi2**2, xi2**2),
        r=(PolySymbol.constant(2, 1),), phi=x2, psi=x2**2)


@pytest.fixture
def small_region():
    return Region(grid=9)


# ----------------------------------------------------------------- region


def test_region_defaults():
    reg = Region()
    assert reg.grid == 33
    meta = reg.metadata()
    assert meta == {"t_max": "1/10", "x_half": "1/10", "xi_half": "1/10",
                    "grid": 33}


@pytest.mark.parametrize("kwargs", [
    {"t_max": 0}, {"t_max": -1}, {"grid": 2},
    {"xi_half": -1}, {"grid": 0}, {"x_half": -1},
    {"x_half": 0}, {"xi_half": 0},
])
def test_region_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        Region(**kwargs)


def coordinates(*names):
    """Coordinate polynomials: the walker hands fn their index coordinates."""
    return [PolySymbol.coordinate(2, name) for name in names]


AXES = ("t", "x1", "x2", "xi1", "xi2")


def test_grid_points_are_exact_and_ties_resolve_low(small_region):
    grid = TensorGrid(2, region_axes(small_region, 2))
    pt = grid.point(0)
    assert pt.t == 0 and pt.x == (F(-1, 10), F(-1, 10))
    assert pt.xi == (F(-1, 10), F(9, 10))
    # a pass on t alone walks the 9 t values; one on no axis, one point
    for polys in (coordinates("t"), []):
        res = grid.scan(lambda *u: [(7.0, None), (-7.0, None)], *polys)
        assert [r.min_flat for r in res] == [0, 0]
        assert all(r.n_included == r.n_total == 9**5 for r in res)
    res, = grid.scan(lambda tv: [(tv * 0.0 + 7.0, None)], *coordinates("t"))
    assert res.min_flat == 0 and res.n_included == res.n_total == 9**5


def test_ties_resolve_low_across_blocks(monkeypatch):
    # at grid 33 a block of the five axes is one t, one x_1 and a run of 15,
    # 15 or 3 x_2 values, the most whole x_2 rows within _BLOCK = 2^14
    # points; a budget of 50 points splits a grid-5 scan below one x_1
    # value, onto the x_2 axis
    assert walker._BLOCK == 1 << 14
    polys = coordinates(*AXES)
    grid = TensorGrid(2, region_axes(Region(), 2))
    plan = [(start, shape) for start, shape, _ in grid._blocks(range(5))]
    assert len(plan) == 33 * 33 * 3
    assert plan[:4] == [(0, (1, 1, 15, 33, 33)),
                        (15 * 33**2, (1, 1, 15, 33, 33)),
                        (30 * 33**2, (1, 1, 3, 33, 33)),
                        (33**3, (1, 1, 15, 33, 33))]
    res = grid.scan(lambda *u: [(7.0, None), (-7.0, None)], *polys)
    assert [r.min_flat for r in res] == [0, 0]
    assert all(r.n_included == r.n_total == 33**5 for r in res)
    monkeypatch.setattr(walker, "_BLOCK", 50)
    grid = TensorGrid(2, region_axes(Region(grid=5), 2))
    assert len(list(grid._blocks(range(5)))) == 5 * 5 * 3
    res = grid.scan(lambda tv, *u: [(tv * 0.0 + 7.0, None),
                                    (tv * 0.0 - 7.0, None)], *polys)
    assert [r.min_flat for r in res] == [0, 0]
    assert all(r.n_included == r.n_total == 5**5 for r in res)


@pytest.mark.parametrize("budget", [7, 50, 125, 1 << 18, walker._BLOCK])
def test_block_budget_does_not_change_results(budget, monkeypatch):
    # every reduction of the walker, flat indices included, is the same
    # whatever the block boundaries; the seventh pair has its values and
    # its mask on different axes, and a maximum is read as the minimum of
    # the negated pair (the last seven).  fn sees index coordinates: t in
    # 0..4, x_1, x_2 and xi_1 in -2..2, xi_2 in 18..22 (units 1/40, 1/20)
    def fn(t, xa, xb, ya, yb):
        v = (t - xa) * yb + xb * ya ** 2
        mask = v > 0
        pairs = [(v, None), (v, mask), (xa * 0.0, mask), (1.0, t > 4.0),
                 (math.inf, xb > 0), (-math.inf, xb > 0), (xa, yb > 0)]
        return pairs + [(-vals, m) for vals, m in pairs]

    polys = coordinates(*AXES)
    reference = TensorGrid(2, region_axes(Region(grid=5), 2)).scan(fn, *polys)
    # so is the structural check, whose samples (5^5 of b1, 5^4 x 17 of
    # b2) are split into sub-grids of thetas below _BLOCK
    certs = [(spec, construct_time_function(spec, slack=F(1, 100)))
             for spec in (b1_spec(), b2_spec())]
    structural = [repr(check_structural(spec, cert, Region(grid=5)))
                  for spec, cert in certs]
    monkeypatch.setattr(walker, "_BLOCK", budget)
    monkeypatch.setattr(verifier, "_BLOCK", budget)  # structural sub-grids
    grid = TensorGrid(2, region_axes(Region(grid=5), 2))
    assert grid.scan(fn, *polys) == reference
    assert [repr(check_structural(spec, cert, Region(grid=5)))
            for spec, cert in certs] == structural
    assert reference[3].n_included == 0 and reference[3].min_flat == -1
    # +inf never beats the fold's start for a minimum, so -inf never beats
    # it for a maximum; the other extremum is the first included node,
    # x_2 = 1/20
    pos, neg = reference[4:6]
    assert (pos.min_flat, neg.min_flat) == (-1, 3 * 5**2)
    assert (reference[12].min_flat, reference[11].min_flat) == (
        pos.min_flat, neg.min_flat)
    assert pos.n_included == neg.n_included == 2 * 5**4
    # xi_2 > 0 everywhere (centre 1); x_1 is least first and greatest at
    # the first point of its last value
    both, most = reference[6], reference[13]
    assert both.n_included == most.n_included == both.n_total == 5**5
    assert (both.min_value, both.min_flat) == (-2.0, 0)
    assert (-most.min_value, most.min_flat) == (2.0, 4 * 5**3)


def test_scan_budget():
    # the documented region at d = 2 fits; at d = 3 one scan would be
    # 33**7 points and the grid refuses it on construction
    assert TensorGrid(2, region_axes(Region(), 2)).total == 33**5
    assert 33**5 < MAX_SCAN_POINTS < 33**7
    with pytest.raises(ScanTooLarge, match="42618442977"):
        TensorGrid(3, region_axes(Region(), 3))


# ---------------------------------------------------------- nonnegativity


def test_nonneg_b1_passes_forward_fails_backward(b1_a, small_region):
    rep = certify_region(b1_a, PolySymbol.zero(2), small_region).nonneg
    assert rep.passed
    assert rep.min_value == 0.0
    assert rep.negative_side.found_negative
    wit = rep.negative_side.witness
    assert wit.t < 0
    exact = b1_a.eval(list(wit.as_tuple()))
    assert exact < 0
    assert abs(float(exact) - rep.negative_side.value) <= 1e-12
    # the documented backward witness evaluates negative exactly
    probe = [F(-1, 20), F(-1, 20), 0, 0, 0, 1]
    assert b1_a.eval(probe) == F(-1, 8000)
    assert float(b1_a.eval(probe)) == -1.25e-4


def test_nonneg_two_sided_and_failing_examples(small_region):
    rep = certify_region(xi1**2, PolySymbol.zero(2), small_region).nonneg
    assert rep.passed and not rep.negative_side.found_negative

    rep = certify_region(-t**2, PolySymbol.zero(2), small_region).nonneg
    assert not rep.passed
    assert rep.min_value < 0
    assert rep.witness.t > 0


def test_nonneg_b2_passes(b2_a, small_region):
    rep = certify_region(b2_a, PolySymbol.zero(2), small_region).nonneg
    assert rep.passed
    assert rep.negative_side.found_negative
    assert rep.negative_side.value < -1e-6


def test_nonneg_rejects_tau_dependence(small_region):
    with pytest.raises(ValueError):
        certify_region(tau**2, PolySymbol.zero(2), small_region)


# ------------------------------------------------------------- c estimate


def test_c_exact_ratio_one(small_region):
    a = t**2 * (xi1**2 + xi2**2)
    est = certify_region(a, PolySymbol.zero(2), small_region).c
    assert abs(est.value - 1.0) <= 1e-12
    # only the t = 0 slice is excluded
    assert est.n_excluded == 9**4
    assert est.n_excluded + est.n_included == est.n_total


def test_c_fixtures_clear_point_nine(b1_a, b2_a, small_region):
    assert certify_region(b1_a, x1, small_region).c.value >= 0.9
    assert certify_region(b2_a, x1, small_region).c.value >= 0.9


def test_c_degenerate_direction_is_zero(small_region):
    a = (t - x1)**2 * xi2**2
    est = certify_region(a, PolySymbol.zero(2), small_region).c
    assert abs(est.value) <= 1e-12


def test_c_all_points_degenerate(b2_a):
    # with phi = t the c denominator min{t^2, (t - phi)^2} |xi|^2 is 0 at
    # every grid point, and a = 0 is positive at none: an empty ratio set
    # is data, no value, no witness, every point counted as excluded
    rep = certify_region(b2_a, t, Region(grid=5))
    zero = certify_region(PolySymbol.zero(2), x1, Region(grid=5))
    for est in (rep.c, zero.kappa):
        assert est.n_included == 0 and est.witness is None
        assert est.value is None and est.n_excluded == est.n_total == 5**5
    assert rep.nonneg.passed and rep.kappa.n_included > 0


def test_c_dimension_mismatch(b2_a, small_region):
    phi3 = PolySymbol.coordinate(3, "x1")
    with pytest.raises(DimensionMismatch):
        certify_region(b2_a, phi3, small_region)


# --------------------------------------------------------- kappa estimate


def test_kappa_b1_vanishes(b1_a, small_region):
    est = certify_region(b1_a, x1, small_region).kappa
    assert est.value == 0.0
    assert est.n_excluded + est.n_included == est.n_total


def test_kappa_b2_half(b2_a, small_region):
    est = certify_region(b2_a, x1, small_region).kappa
    assert 0.4 < est.value <= 0.5 + 1e-6
    assert abs(est.value - 0.5) <= 1e-12
    # witness sits on the t = x1 = 0 face where the bound is tight
    assert est.witness.t == 0 and est.witness.x[0] == 0


def test_kappa_boundary_case_reaches_one(small_region):
    est = certify_region(xi1**2, x1, small_region).kappa
    assert est.value == 1.0
    assert not est.value < 1  # a pipeline gate on kappa < 1 must fail here


def test_kappa_witness_reevaluates_exactly(b2_a, small_region):
    from hypcert.symbols import poisson_bracket
    est = certify_region(b2_a, x1, small_region).kappa
    pt = list(est.witness.as_tuple())
    br = poisson_bracket(x1, b2_a).eval(pt)
    exact = br * br / (4 * b2_a.eval(pt))
    assert abs(float(exact) - est.value) <= 1e-12


# -------------------------------------------------------------- minimizer


@pytest.mark.parametrize("qbar", [F(1, 2), F(1), F(2)])
def test_minimize_chain_closed_form(qbar):
    eq = build_extended_Q(crit7_spec(qbar), build_cutoff(F(1, 2)))
    res = minimize_Q(eq, eq.theta_zero())
    expect = float(qbar / (1 + qbar))
    assert abs(res.m - expect) <= 1e-8
    assert abs(res.w_bar[0] + float(1 / (1 + qbar))) <= 1e-8
    assert abs(res.w_bar[1]) <= 1e-8
    assert res.grad_norm <= 1e-10 * (1 + abs(res.m))
    assert math.isfinite(res.hessian_cond) and res.hessian_cond >= 1


def test_minimize_trivial_w_dimension():
    eq = build_extended_Q(b1_spec(), build_cutoff(F(1, 2)), mode="normalized")
    res = minimize_Q(eq, eq.pinned_theta(F(1, 100), (F(1, 50), 0), (0, 0)))
    assert res.m == 1.0 and res.w_bar == ()


def test_minimize_b2_raw_and_normalized():
    cut = build_cutoff(F(1, 2))
    raw = minimize_Q(build_extended_Q(b2_spec(), cut), Theta(
        t=0, z_x=(0,), z_xi=(0,), eps=0, x_p=0))
    assert abs(raw.m - 1.0) <= 1e-12 and abs(raw.w_bar[0]) <= 1e-10
    norm = minimize_Q(build_extended_Q(b2_spec(), cut, mode="normalized"),
                      Theta(t=0, z_x=(0,), z_xi=(0,), eps=0, x_p=0))
    assert abs(norm.m - 2.0) <= 1e-12


def test_minimize_theta_invariance_when_factors_fixed():
    # B2 factors depend only on the xi_2 offset; freezing it freezes m
    eq = build_extended_Q(b2_spec(), build_cutoff(F(1, 2)))
    m0 = minimize_Q(eq, eq.theta_zero()).m
    for tt, zx, xp in [(F(1, 100), F(1, 100), F(1, 64)),
                       (F(1, 50), F(-1, 40), F(-1, 32)),
                       (F(1, 10), F(1, 10), 0)]:
        th = eq.pinned_theta(tt, (zx,), (0,), x_p=xp)
        assert abs(minimize_Q(eq, th).m - m0) <= 1e-12


def test_minimize_dominates_probes():
    import random
    rng = random.Random(3)
    eq = build_extended_Q(crit7_spec(F(2)), build_cutoff(F(1, 2)))
    thetas = [eq.theta_zero(),
              eq.pinned_theta(F(1, 50), (F(1, 64),), (F(1, 32),)),
              eq.pinned_theta(F(1, 20), (F(-1, 100),), (F(-1, 64),))]
    for th in thetas:
        m = minimize_Q(eq, th).m
        for _ in range(1000):
            w = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            assert m <= float(eq.value(w, th)) + 1e-12


def _entry(result, i):
    """Entry i of verifier._newton's result, as minimize_Q reports it."""
    m, w_bar, hess, gn, its = result
    return (float(m[i]), tuple(float(v) for v in w_bar[i]),
            float(np.linalg.cond(hess[i])) if hess.shape[1] else 1.0,
            float(gn[i]), int(its[i]))


def _single(res):
    return (res.m, res.w_bar, res.hessian_cond, res.grad_norm,
            res.iterations)


def test_newton_batch_entries_are_single_theta_runs():
    eq = build_extended_Q(deep_chain_specs()["form1-p2-d3"],
                          build_cutoff(F(1, 2)))
    slow = [(F(1, 20), F(1, 40), F(-1, 50)), (0, 0, 0),
            (F(1, 100), F(-1, 80), F(1, 100))]
    # one batch of the three thetas: (t, z_x, z_xi) as parallel arrays
    thetas = eq.theta_at([np.array(col, dtype=object) for col in zip(*slow)])
    result = verifier._newton(eq, thetas)
    assert [int(i) for i in result[4]] == [2, 0, 2]
    for i, v in enumerate(slow):
        # repr tells -0.0 from 0.0
        assert repr(_entry(result, i)) == repr(
            _single(minimize_Q(eq, eq.theta_at(v))))


def test_newton_errors_name_the_first_failing_theta(monkeypatch):
    eq = build_extended_Q(deep_chain_specs()["form1-p2-d3"],
                          build_cutoff(F(1, 2)))
    slow = [(0, 0, 0), (F(1, 100), F(-1, 80), F(1, 100)),
            (F(1, 20), F(1, 40), F(-1, 50))]
    thetas = eq.theta_at([np.array(col, dtype=object) for col in zip(*slow)])
    monkeypatch.setattr(verifier, "MAX_NEWTON_ITER", 1)
    with pytest.raises(NoConvergence,
                       match=r"^no convergence in 1 iterations at theta 1$"):
        verifier._newton(eq, thetas)
    # one theta: the message names none
    with pytest.raises(NoConvergence,
                       match=r"^no convergence in 1 iterations$"):
        minimize_Q(eq, eq.theta_at(slow[2]))
    assert minimize_Q(eq, eq.theta_at(slow[0])).iterations == 0


def test_envelope_derivative_matches_fd():
    eq = build_extended_Q(crit7_spec(F(1)), build_cutoff(F(1, 2)))

    def theta_at(s):  # xi_2 offset direction; phi = x_2 so eps is fixed
        return eq.pinned_theta(F(1, 100), (F(1, 50),), (s,))

    base = F(1, 100)
    res = minimize_Q(eq, theta_at(base))
    # dQ/ds at w_bar, w held fixed: Q is a polynomial in s, evaluated
    # exactly at the rational w_bar, so this difference is exact to
    # within e^2 times its third derivative
    w, e = [F(v) for v in res.w_bar], F(1, 10 ** 12)
    env = float((eq.value(w, theta_at(base + e))
                 - eq.value(w, theta_at(base - e))) / (2 * e))
    h = F(1, 100000)
    m_plus = minimize_Q(eq, theta_at(base + h), w0=res.w_bar).m
    m_minus = minimize_Q(eq, theta_at(base - h), w0=res.w_bar).m
    fd = (m_plus - m_minus) / (2 * float(h))
    assert abs(env - fd) <= 1e-4 * abs(fd)


# -------------------------------------------------------------- structural


def _by_name(report):
    return {c.name: c for c in report.checks}


def test_structural_b1(small_region):
    spec = b1_spec()
    cert = construct_time_function(spec, slack=F(1, 100))
    rep = check_structural(spec, cert, small_region)
    assert rep.passed
    checks = _by_name(rep)
    assert checks["reconstruction-lower-bound"].value >= -1e-9
    assert checks["zero-time-boundary"].value >= -1e-12
    assert checks["negative-branch-floor"].value >= 0.98
    assert checks["graph-branch-floor"].value >= 0.98
    assert math.isfinite(checks["minimum-lipschitz"].value)
    assert rep.grid["label"] == "empirical"


def test_structural_b2_boundary_margin_is_zero(small_region):
    spec = b2_spec()
    cert = construct_time_function(spec, slack=F(1, 100))
    rep = check_structural(spec, cert, small_region)
    assert rep.passed
    checks = _by_name(rep)
    assert checks["zero-time-boundary"].value == 0.0
    assert checks["negative-branch-floor"].value >= 0.9
    assert checks["graph-branch-floor"].value >= 0.9
    assert checks["reconstruction-lower-bound"].value >= -1e-9


def _sweep(spec, region, monkeypatch):
    """check_structural's report, the batch of thetas its Newton ran over
    with the results, and the thetas minimize_Q was called for."""
    runs, solved = [], []
    newton, solve = verifier._newton, verifier.minimize_Q

    def newton_spy(eq, thetas, w0=None):
        runs.append((eq, thetas, newton(eq, thetas, w0)))
        return runs[-1][2]

    def solve_spy(eq, theta, w0=None):
        solved.append(theta)
        return solve(eq, theta, w0)

    monkeypatch.setattr(verifier, "_newton", newton_spy)
    monkeypatch.setattr(verifier, "minimize_Q", solve_spy)
    cert = construct_time_function(spec, slack=F(1, 100))
    rep = check_structural(spec, cert, region)
    monkeypatch.undo()
    (eq, thetas, result), = runs
    return rep, eq, thetas, result, solved


@pytest.mark.parametrize("name", ["b2", "classical", "form1-p2-d3",
                                  "form2-p2-d3", "form2-p3-d4"])
def test_structural_newton_entries_are_single_theta_runs(name, monkeypatch):
    # check_structural runs the batched Newton once over the slow grid
    # (N_AXIS points per slow axis; the t = 0 boundary reads the first
    # t level) and never minimize_Q; each entry is minimize_Q on its
    # theta alone
    if name in deep_chain_specs():
        spec = deep_chain_specs()[name]
    else:
        spec = parse_symbol_file(FIXTURES / ("%s.json" % name)).normal_form
    rep, eq, thetas, result, solved = _sweep(spec, Region(grid=5),
                                             monkeypatch)
    n = math.prod(thetas.shape)
    assert rep.passed and solved == [] and result[0].shape == (n,)
    assert thetas.shape == (verifier.N_AXIS,) * eq.theta_dim
    assert _by_name(rep)["zero-time-boundary"].n_points == n // 5
    for i in range(n):
        assert repr(_entry(result, i)) == repr(
            _single(minimize_Q(eq, thetas.entry(i)))), i
    iterations = result[4]
    if name in deep_chain_specs():
        # theta = 0 meets the stop test at the closed-form minimizer;
        # Newton steps elsewhere
        assert iterations.min() == 0 and 0 < iterations.max() <= 2
    else:
        assert not iterations.any()


def _structural_reference(spec, region):
    """Checks (i), (ii) and (iv) of check_structural written per theta:
    minimize_Q on every Theta alone, then one scalar evaluation per
    sample, folded with strict comparisons."""
    eq = build_extended_Q(spec, verifier.STRUCTURAL_CUTOFF, mode="normalized")
    a = build_normal_form(spec)
    rng = random.Random(verifier.SEED)
    delta = float(verifier.STRUCTURAL_CUTOFF.delta)
    slow = list(itertools.product(*verifier._theta_axes(eq, region)))
    thetas = [eq.theta_at(v) for v in slow]
    results = [minimize_Q(eq, theta) for theta in thetas]

    recon_min, recon_worst, n_recon = math.inf, None, 0
    for theta, res in zip(thetas, results):
        samples = [tuple(res.w_bar)]
        if eq.w_dim:
            for _ in range(verifier.N_W):
                samples.append(tuple(rng.uniform(-delta, delta)
                                     for _ in range(eq.w_dim)))
        for w in samples:
            pt = [float(v) for v in eq.substituted_point(w, theta)]
            ahat = a.eval(pt) / eq.divisor(pt)
            margin = (ahat - res.m * float(theta.eps) ** 2
                      - spec.remainder.eval(pt))
            n_recon += 1
            if margin / (1 + abs(ahat)) < recon_min:
                recon_min = margin / (1 + abs(ahat))
                recon_worst = (tuple(w), theta)

    bnd_min, bnd_worst, n_bnd = math.inf, None, 0
    for v, theta, res in zip(slow, thetas, results):
        if v[0] == 0:
            rem = spec.remainder.eval(
                eq.substituted_point((0.0,) * eq.w_dim, theta))
            val = res.m * (-float(theta.eps)) ** 2 + rem
            n_bnd += 1
            if val < bnd_min:
                bnd_min, bnd_worst = val, (theta.z_x, theta.z_xi, theta.x_p)

    base = {v[1:]: res.m for v, res in zip(slow, results) if v[0] == 0}
    lip, n_lip = 0.0, 0
    for v, res in zip(slow, results):
        if v[0] > 0:
            lip = max(lip, abs(res.m - base[v[1:]]) / float(v[0]))
            n_lip += 1
    return {"reconstruction-lower-bound": (recon_min, recon_min >= -1e-9,
                                           n_recon, recon_worst),
            "zero-time-boundary": (bnd_min, bnd_min >= -1e-9, n_bnd,
                                   bnd_worst),
            "minimum-lipschitz": (lip, math.isfinite(lip), n_lip, None)}


@pytest.mark.parametrize("name,region", [
    ("b1", Region(grid=5)), ("b2", Region(grid=5)),
    ("classical", Region(grid=5)), ("form1-p2-d3", Region(grid=5)),
    # the worst sample here has an eps whose pow(eps, 2) is not eps * eps
    ("b1", Region(grid=5, t_max=F(1, 217), x_half=F(2, 217),
                  xi_half=F(2, 217))),
], ids=["b1", "b2", "classical", "form1-p2-d3", "b1-eps-squared"])
def test_structural_matches_per_theta_reference(name, region):
    if name in deep_chain_specs():
        spec = deep_chain_specs()[name]
    else:
        spec = parse_symbol_file(FIXTURES / ("%s.json" % name)).normal_form
    cert = construct_time_function(spec, slack=F(1, 100))
    checks = _by_name(check_structural(spec, cert, region))
    for check, want in _structural_reference(spec, region).items():
        got = checks[check]
        # repr tells -0.0 from 0.0 and a Fraction from an equal float
        assert repr((got.value, got.passed, got.n_points, got.worst)) \
            == repr(want), check


@pytest.mark.parametrize("spec,w_dim", [(b2_spec(), 1),
                                        (crit7_spec(F(1, 2)), 2)],
                         ids=["b2", "crit7"])
def test_structural_w_draws_are_seeded_uniforms(spec, w_dim, monkeypatch):
    # the worst reconstruction sample of every tested spec is a minimizer,
    # so the reports alone cannot tell the draws apart: read the samples
    # handed to substituted_point, the minimizer then N_W draws per theta,
    # and compare the draws with random.uniform in theta, sample, w order
    seen = []
    original = ExtendedQ.substituted_point
    per = (verifier.N_W + 1,)

    def spy(self, w, theta):
        # the reconstruction sub-grids, in order: a list of arrays with a
        # trailing sample axis (Newton hands over floats or a 2-d array)
        if isinstance(w, list) and np.shape(w[0])[-1:] == per:
            seen.append(np.stack([np.reshape(wj, (-1, np.shape(wj)[-1]))
                                  for wj in w], axis=-1))
        return original(self, w, theta)

    monkeypatch.setattr(ExtendedQ, "substituted_point", spy)
    cert = construct_time_function(spec, slack=F(1, 100))
    check_structural(spec, cert, Region(grid=9))
    draws = np.concatenate(seen)[:, 1:]
    assert draws.shape[1:] == (verifier.N_W, w_dim)
    rng = random.Random(verifier.SEED)
    delta = float(verifier.STRUCTURAL_CUTOFF.delta)
    assert draws.ravel().tolist() == [rng.uniform(-delta, delta)
                                      for _ in range(draws.size)]


@pytest.mark.parametrize("k", [0, 1, 17, 10000, 2 * walker._BLOCK + 17])
def test_random_draws_are_random_bit_for_bit(k):
    # the draws decoded from getrandbits are rng.random()'s doubles, and
    # leave the generator where k calls of random() would, across chunks
    rng, reference = (random.Random(verifier.SEED) for _ in range(2))
    assert (verifier._random_draws(rng, k).tolist()
            == [reference.random() for _ in range(k)])
    assert rng.random() == reference.random()


def test_structural_d3_passes():
    # b1 lifted to d = 3: 5^7 slow points, one sample each (w_dim = 0)
    t, (x1, x2, x3), tau, (xi1, xi2, xi3) = phase_variables(3)
    spec = NormalFormSpec(variant="form1", d=3, p=0, q=(xi3 ** 2,), r=(),
                          phi=x1, psi=x1 ** 3)
    cert = construct_time_function(spec, slack=F(1, 100))
    rep = check_structural(spec, cert, Region(grid=9))
    assert rep.passed
    checks = _by_name(rep)
    assert checks["reconstruction-lower-bound"].n_points == 5 ** 7
    assert checks["zero-time-boundary"].n_points == 5 ** 6


@pytest.mark.parametrize("fn,params", [
    (check_structural, ["spec", "cert", "region"]),
    (check_side_conditions, ["spec"]),
    (certify_region, ["a", "phi", "region"]),
    (minimize_Q, ["eq", "theta", "w0"]),
    (TensorGrid, ["d", "axes"]),
])
def test_sampling_plans_are_constants(fn, params):
    assert list(inspect.signature(fn).parameters) == params


# -------------------------------------------------- refinement, threading


def test_refinement_monotonicity(b2_a):
    coarse = Region(grid=5)
    fine = Region(grid=9)  # 9 = 2*5 - 1: strict superset of grid points
    rep5 = certify_region(b2_a, x1, coarse)
    rep9 = certify_region(b2_a, x1, fine)
    assert rep9.c.value <= rep5.c.value + 1e-15
    assert rep9.kappa.value >= rep5.kappa.value - 1e-15


def _forbid_threads(monkeypatch):
    def start(self):
        raise RuntimeError("a scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)


def _count_scans(monkeypatch):
    scans = []
    original = TensorGrid.scan

    def counted(self, fn, *polys):
        scans.append(self.total)
        return original(self, fn, *polys)

    monkeypatch.setattr(TensorGrid, "scan", counted)
    return scans


def test_scans_have_more_than_one_block(b2_a, small_region):
    # b2's passes walk (t, x_1, xi_1, xi_2); at the documented grid 33 a
    # block is one t and a run of 15, 15 or 3 x_1 values (the cone, with
    # xi_2 pinned, a run of t values), so the fold combines blocks; the
    # walked points of grid 9 fit in one
    walk = [0, 1, 3, 4]  # the axes of t, x_1, xi_1, xi_2
    plans = {(): [(1, 15, 33, 33)] * 2 + [(1, 3, 33, 33)],
             ("negative_t",): [(1, 15, 33, 33)] * 2 + [(1, 3, 33, 33)],
             ("pin_last_xi",): [(15, 33, 33, 1)] * 2 + [(3, 33, 33, 1)]}
    for options, head in plans.items():
        options = dict.fromkeys(options, True)
        grid = TensorGrid(2, region_axes(Region(), 2, **options))
        assert [i for i, slot in enumerate(grid.slots)
                if b2_a.depends_on(slot)] == walk
        plan = [shape for _, shape, _ in grid._blocks(walk)]
        assert plan[:3] == head
        assert len(plan) == (3 if options.get("pin_last_xi") else
                             (32 if options else 33) * 3)
        grid = TensorGrid(2, region_axes(small_region, 2, **options))
        assert len(list(grid._blocks(walk))) == 1


def test_certify_region_starts_no_thread(b2_a, small_region, monkeypatch):
    # the structural cone scan is covered end to end by criterion 11
    phi = construct_time_function(b2_spec(), slack=F(1, 100)).phi
    one = certify_region(b2_a, phi, small_region)
    _forbid_threads(monkeypatch)
    scans = _count_scans(monkeypatch)
    assert certify_region(b2_a, phi, small_region) == one
    assert len(scans) == 2  # the t >= 0 and t < 0 passes


def test_b2_reduces_values_smaller_than_their_block(b2_a, small_region,
                                                    monkeypatch):
    # b2's a, phi and {phi, a} have no x_2, so the walker skips that axis:
    # its blocks are (t, x_1, xi_1, xi_2), and a value on fewer of them is
    # reduced over its own shape, index 0 and each entry counted for the
    # block points along the others
    seen = []
    original = walker._reduce

    def spy(vals, mask, start, shape):
        seen.append((np.broadcast_shapes(np.shape(vals), np.shape(mask)),
                     shape))
        return original(vals, mask, start, shape)

    monkeypatch.setattr(walker, "_reduce", spy)
    phi = construct_time_function(b2_spec(), slack=F(1, 100)).phi
    certify_region(b2_a, phi, small_region)
    assert {shape for _, shape in seen} == {(9, 9, 9, 9), (8, 9, 9, 9)}
    seen.clear()
    grid = TensorGrid(2, region_axes(small_region, 2))
    a_int, _ = grid.integer(b2_a)
    res = grid.scan(lambda av, tv: [(tv, None), (-tv, av >= 0)],
                    a_int, *coordinates("t"))
    assert seen == [((9, 1, 1, 1), (9, 9, 9, 9)),
                    ((9, 9, 9, 9), (9, 9, 9, 9))]
    assert (res[0].min_value, res[0].min_flat) == (0.0, 0)
    assert (res[1].min_value, res[1].min_flat) == (-8.0, 8 * 9**4)
    assert res[0].n_included == res[1].n_included == 9**5


def test_certify_region_scans_twice_outside_structural(
        b2_a, small_region, monkeypatch):
    scans = _count_scans(monkeypatch)
    cert = construct_time_function(b2_spec(), slack=F(1, 100))
    rep = certify_region(b2_a, cert.phi, small_region)
    assert scans == [9**5, 8 * 9**4]
    # nonneg reads a alone
    assert rep.nonneg == certify_region(b2_a, PolySymbol.zero(2),
                                        small_region).nonneg

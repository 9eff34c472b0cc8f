"""Grid certification: scans, ratio estimates, minimizer, structural checks."""

import inspect
import math
from fractions import Fraction as F

import pytest

from hypcert import (
    AllPointsDegenerate,
    NegativeInput,
    NormalFormSpec,
    PolySymbol,
    Region,
    ScanTooLarge,
    Theta,
    build_cutoff,
    build_extended_Q,
    certify_region,
    check_side_conditions,
    check_structural,
    construct_time_function,
    estimate_c,
    estimate_kappa,
    glaeser_check,
    minimize_Q,
    minimize_Q_path,
    verify_nonnegativity,
)
from hypcert.symbols import DimensionMismatch, phase_variables
from hypcert import verifier
from hypcert.verifier import MAX_SCAN_POINTS, TensorGrid, region_axes

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
    assert reg.scale == 1.1
    assert reg.denominator_floor() == pytest.approx(1.21e-10, rel=1e-12)
    meta = reg.metadata()
    assert meta["t_max"] == "1/10" and meta["grid"] == 33


@pytest.mark.parametrize("kwargs", [
    {"t_max": 0}, {"t_max": -1}, {"grid": 2},
    {"eta_den": 0.0}, {"eta_den": -1.0}, {"x_half": -1},
])
def test_region_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        Region(**kwargs)


def test_grid_points_are_exact_and_ties_resolve_low(small_region):
    grid = TensorGrid(2, region_axes(small_region, 2))
    pt = grid.point(0)
    assert pt.t == 0 and pt.x == (F(-1, 10), F(-1, 10))
    assert pt.xi == (F(-1, 10), F(9, 10))
    res, = grid.scan(lambda coords: [(coords[0] * 0.0 + 7.0, None)])
    assert res.min_flat == 0 and res.max_flat == 0
    assert res.n_included == res.n_total == 9**5


def test_ties_resolve_low_across_blocks(monkeypatch):
    # grid 33 walks 33 t values x 5 runs of x_1; a budget of 50 points
    # splits a grid-5 scan below one x_1 value, onto the x_2 axis
    grid = TensorGrid(2, region_axes(Region(), 2))
    assert grid.n_blocks == 33 * 5
    res, = grid.scan(lambda coords: [(7.0, None)])
    assert res.min_flat == res.max_flat == 0
    assert res.n_included == res.n_total == 33**5
    monkeypatch.setattr(verifier, "_BLOCK", 50)
    grid = TensorGrid(2, region_axes(Region(grid=5), 2))
    assert grid.n_blocks == 5 * 5 * 3
    res, = grid.scan(lambda coords: [(coords[0] * 0.0 + 7.0, None)])
    assert res.min_flat == res.max_flat == 0
    assert res.n_included == res.n_total == 5**5


@pytest.mark.parametrize("budget", [7, 50, 125, 1 << 18])
def test_block_budget_does_not_change_results(budget, monkeypatch):
    # every reduction of the walker, flat indices included, is the same
    # whatever the block boundaries, with and without the worker pool
    def fn(coords):
        t, xa, xb, _, ya, yb = coords
        v = (t - xa) * yb + xb * ya ** 2
        mask = v > 0
        return [(v, None), (v, mask), (xa * 0.0, mask), (1.0, t > 1.0),
                (math.inf, xb > 0), (-math.inf, xb > 0)]

    reference = TensorGrid(2, region_axes(Region(grid=5), 2)).scan(fn)
    monkeypatch.setattr(verifier, "_BLOCK", budget)
    for threads in ("1", "3"):
        monkeypatch.setenv("HYPCERT_THREADS", threads)
        grid = TensorGrid(2, region_axes(Region(grid=5), 2))
        assert grid.scan(fn) == reference
    assert reference[3].n_included == 0 and reference[3].min_flat == -1
    # +inf never beats the fold's start for a minimum, nor -inf for a
    # maximum; the other extremum is the first included node, x_2 = 1/20
    pos, neg = reference[4:]
    assert (pos.min_flat, pos.max_flat) == (-1, 3 * 5**2)
    assert (neg.min_flat, neg.max_flat) == (3 * 5**2, -1)
    assert pos.n_included == neg.n_included == 2 * 5**4


def test_scan_budget():
    # the documented region at d = 2 fits; at d = 3 one scan would be
    # 33**7 points and the grid refuses it on construction
    assert TensorGrid(2, region_axes(Region(), 2)).total == 33**5
    assert 33**5 < MAX_SCAN_POINTS < 33**7
    with pytest.raises(ScanTooLarge, match="42618442977"):
        TensorGrid(3, region_axes(Region(), 3))


# ---------------------------------------------------------- nonnegativity


def test_nonneg_b1_passes_forward_fails_backward(b1_a, small_region):
    rep = verify_nonnegativity(b1_a, small_region)
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
    rep = verify_nonnegativity(xi1**2, small_region)
    assert rep.passed and not rep.negative_side.found_negative

    rep = verify_nonnegativity(-t**2, small_region)
    assert not rep.passed
    assert rep.min_value < 0
    assert rep.witness.t > 0


def test_nonneg_b2_passes(b2_a, small_region):
    rep = verify_nonnegativity(b2_a, small_region)
    assert rep.passed
    assert rep.negative_side.found_negative
    assert rep.negative_side.value < -1e-6


def test_nonneg_rejects_tau_dependence(small_region):
    with pytest.raises(ValueError):
        verify_nonnegativity(tau**2, small_region)


# ------------------------------------------------------------- c estimate


def test_c_exact_ratio_one(small_region):
    a = t**2 * (xi1**2 + xi2**2)
    est = estimate_c(a, PolySymbol.zero(2), small_region)
    assert abs(est.value - 1.0) <= 1e-12
    # only the t = 0 slice is excluded
    assert est.n_excluded == 9**4
    assert est.n_excluded + est.n_included == est.n_total


def test_c_fixtures_clear_point_nine(b1_a, b2_a, small_region):
    assert estimate_c(b1_a, x1, small_region).value >= 0.9
    assert estimate_c(b2_a, x1, small_region).value >= 0.9


def test_c_degenerate_direction_is_zero(small_region):
    a = (t - x1)**2 * xi2**2
    est = estimate_c(a, PolySymbol.zero(2), small_region)
    assert abs(est.value) <= 1e-12


def test_c_all_points_degenerate(b2_a):
    reg = Region(grid=5, eta_den=1e6)
    with pytest.raises(AllPointsDegenerate):
        estimate_c(b2_a, x1, reg)
    with pytest.raises(AllPointsDegenerate):
        estimate_kappa(b2_a, x1, reg)


def test_c_dimension_mismatch(b2_a, small_region):
    phi3 = PolySymbol.coordinate(3, "x1")
    with pytest.raises(DimensionMismatch):
        estimate_c(b2_a, phi3, small_region)


# --------------------------------------------------------- kappa estimate


def test_kappa_b1_vanishes(b1_a, small_region):
    est = estimate_kappa(b1_a, x1, small_region)
    assert est.value == 0.0
    assert est.n_excluded + est.n_included == est.n_total


def test_kappa_b2_half(b2_a, small_region):
    est = estimate_kappa(b2_a, x1, small_region)
    assert 0.4 < est.value <= 0.5 + 1e-6
    assert abs(est.value - 0.5) <= 1e-12
    # witness sits on the t = x1 = 0 face where the bound is tight
    assert est.witness.t == 0 and est.witness.x[0] == 0


def test_kappa_boundary_case_reaches_one(small_region):
    est = estimate_kappa(xi1**2, x1, small_region)
    assert est.value == 1.0
    assert not est.value < 1  # a pipeline gate on kappa < 1 must fail here


def test_kappa_witness_reevaluates_exactly(b2_a, small_region):
    from hypcert.symbols import poisson_bracket
    est = estimate_kappa(b2_a, x1, small_region)
    pt = list(est.witness.as_tuple())
    br = poisson_bracket(x1, b2_a).eval(pt)
    exact = br * br / (4 * b2_a.eval(pt))
    assert abs(float(exact) - est.value) <= 1e-12


# ----------------------------------------------------------------- glaeser


def test_glaeser_square_is_tight():
    rep = glaeser_check([0, 0, 1], (-1, 1))
    assert rep.passed
    assert rep.worst_ratio == 1
    assert rep.sup_second == 2


def test_glaeser_quartic_passes_with_slack():
    rep = glaeser_check([0, 0, 0, 0, 1], (-1, 1), margin=0)
    assert rep.passed
    assert rep.worst_ratio == F(2, 3)
    assert rep.sup_second == 12


def test_glaeser_linear_fails():
    rep = glaeser_check([0, 1], (0, 1))
    assert not rep.passed
    assert rep.worst_ratio == math.inf


def test_glaeser_negative_input():
    with pytest.raises(NegativeInput):
        glaeser_check([0, 0, 0, 1], (-1, 1))  # s^3
    with pytest.raises(NegativeInput):
        glaeser_check([0, 2, -1], (0, 1), margin=F(1, 2))  # 2s - s^2


def test_glaeser_margin_enlarges_sup_domain():
    # f'' = 12 s^2: with margin the sup is taken out to |s| = 2
    tight = glaeser_check([0, 0, 0, 0, 1], (-1, 1))
    wide = glaeser_check([0, 0, 0, 0, 1], (-1, 1), margin=1)
    assert wide.sup_second == 48 and tight.sup_second == 12
    assert wide.worst_ratio < tight.worst_ratio


@pytest.mark.parametrize("points", [0, 1, 2])
def test_glaeser_rejects_too_few_points(points):
    with pytest.raises(ValueError, match="points"):
        glaeser_check([0, 0, 1], (-1, 1), points=points)


def test_glaeser_rejects_bad_interval():
    with pytest.raises(ValueError):
        glaeser_check([0, 0, 1], (1, -1))
    with pytest.raises(ValueError):
        glaeser_check([0, 0, 1], (-1, 1), margin=-1)


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


def test_minimize_path_matches_cold_starts():
    eq = build_extended_Q(crit7_spec(F(1, 2)), build_cutoff(F(1, 2)))
    thetas = [eq.pinned_theta(tt, (zx,), (zxi,))
              for tt, zx, zxi in [(F(1, 20), F(1, 40), F(-1, 50)),
                                  (0, 0, 0),
                                  (F(1, 100), F(-1, 80), F(1, 100))]]
    path = minimize_Q_path(eq, thetas)
    cold = [minimize_Q(eq, th) for th in thetas]
    for a, b in zip(path, cold):
        assert abs(a.m - b.m) <= 1e-10


def test_envelope_derivative_matches_fd():
    eq = build_extended_Q(crit7_spec(F(1)), build_cutoff(F(1, 2)))

    def theta_at(s):  # xi_2 offset direction; phi = x_2 so eps is fixed
        return eq.pinned_theta(F(1, 100), (F(1, 50),), (s,))

    base = F(1, 100)
    res = minimize_Q(eq, theta_at(base))
    dth = Theta(t=0, z_x=(0,), z_xi=(1,), eps=0)
    env = eq.theta_directional_derivative(res.w_bar, theta_at(base), dth)
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


def test_structural_solves_each_theta_once(small_region, monkeypatch):
    # b2 has 5^4 slow points (t, z_x, z_xi, x_p); the t = 0 boundary
    # reads its 5^3 minima from the same sweep
    calls = []
    original = verifier.minimize_Q

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier, "minimize_Q", counted)
    spec = b2_spec()
    cert = construct_time_function(spec, slack=F(1, 100))
    rep = check_structural(spec, cert, small_region)
    assert rep.passed and len(calls) == 5 ** 4 == len(set(calls))
    assert _by_name(rep)["zero-time-boundary"].n_points == 5 ** 3


@pytest.mark.parametrize("fn,params", [
    (check_structural, ["spec", "cert", "region"]),
    (check_side_conditions, ["spec"]),
    (certify_region, ["a", "phi", "region", "spec", "cert"]),
    (minimize_Q, ["eq", "theta", "w0"]),
    (TensorGrid, ["d", "axes"]),
])
def test_sampling_plans_are_constants(fn, params):
    assert list(inspect.signature(fn).parameters) == params


# -------------------------------------------------- refinement, threading


def test_refinement_monotonicity(b2_a):
    coarse = Region(grid=5)
    fine = Region(grid=9)  # 9 = 2*5 - 1: strict superset of grid points
    c5 = estimate_c(b2_a, x1, coarse).value
    c9 = estimate_c(b2_a, x1, fine).value
    assert c9 <= c5 + 1e-15
    k5 = estimate_kappa(b2_a, x1, coarse).value
    k9 = estimate_kappa(b2_a, x1, fine).value
    assert k9 >= k5 - 1e-15


def _count_pools(monkeypatch):
    pools = []
    original = verifier.ThreadPoolExecutor

    def counted(*args, **kwargs):
        pools.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier, "ThreadPoolExecutor", counted)
    return pools


def test_scans_have_more_than_one_block(small_region):
    # one block per t value at grid 9, so a multi-worker scan uses the pool
    for axes in (region_axes(small_region, 2),
                 region_axes(small_region, 2, negative_t=True),
                 region_axes(small_region, 2, pin_last_xi=True)):
        assert TensorGrid(2, axes).n_blocks > 1


def test_thread_count_does_not_change_results(b2_a, small_region, monkeypatch):
    pools = _count_pools(monkeypatch)
    monkeypatch.setenv("HYPCERT_THREADS", "1")
    one_c = estimate_c(b2_a, x1, small_region)
    one_k = estimate_kappa(b2_a, x1, small_region)
    one_n = verify_nonnegativity(b2_a, small_region)
    monkeypatch.setenv("HYPCERT_THREADS", "4")
    assert estimate_c(b2_a, x1, small_region) == one_c
    assert estimate_kappa(b2_a, x1, small_region) == one_k
    assert verify_nonnegativity(b2_a, small_region) == one_n
    assert len(pools) == 4  # t >= 0 and t < 0 for nonneg, t >= 0 for c, kappa


def test_certify_region_thread_count_does_not_change_results(
        b2_a, small_region, monkeypatch):
    # the structural cone scan is covered end to end by criterion 11
    phi = construct_time_function(b2_spec(), slack=F(1, 100)).phi
    pools = _count_pools(monkeypatch)
    monkeypatch.setenv("HYPCERT_THREADS", "1")
    one = certify_region(b2_a, phi, small_region)
    assert pools == []
    monkeypatch.setenv("HYPCERT_THREADS", "4")
    assert certify_region(b2_a, phi, small_region) == one
    assert len(pools) == 2  # the t >= 0 and t < 0 passes


def test_certify_region_scans_twice_outside_structural(
        b2_a, small_region, monkeypatch):
    scans = []
    original = TensorGrid.scan

    def counted(self, fn):
        scans.append(self.total)
        return original(self, fn)

    monkeypatch.setattr(TensorGrid, "scan", counted)
    cert = construct_time_function(b2_spec(), slack=F(1, 100))
    rep = certify_region(b2_a, cert.phi, small_region)
    assert scans == [9**5, 8 * 9**4]
    assert rep.nonneg == verify_nonnegativity(b2_a, small_region)
    assert rep.c == estimate_c(b2_a, cert.phi, small_region)
    assert rep.kappa == estimate_kappa(b2_a, cert.phi, small_region)

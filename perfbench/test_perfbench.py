"""Tests for the benchmark's own checks and a reduced run of each workload.

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jets  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

sympy = pytest.importorskip("sympy")

FIXTURES = HERE.parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / ("%s.json" % name)).read_bytes())


def sympy_expr(terms, d):
    syms = sympy.symbols(" ".join(checks.var_names(d)))
    expr = sum(sympy.Rational(t["coeff"]) *
               sympy.Mul(*[syms[checks.var_names(d).index(v)] ** e
                           for v, e in t["exponents"].items()])
               for t in terms)
    return syms, expr


def sympy_positive_roots(terms, d):
    """Oracle: sympy Hessian, charpoly and real roots."""
    syms, expr = sympy_expr(terms, d)
    p = expr - syms[d + 1] ** 2
    base = {s: 0 for s in syms}
    base[syms[-1]] = 1
    m = sympy.hessian(p, syms).subs(base) / 2
    n = d + 1
    fmat = sympy.Matrix.vstack(m[n:, :], -m[:n, :])
    lam, mu = sympy.symbols("lam mu")
    cp = sympy.Poly(fmat.charpoly(lam).as_expr().subs(lam ** 2, mu)
                    .subs(lam, sympy.sqrt(mu)), mu)
    return len({r for r in sympy.real_roots(cp) if r > 0})


def test_evaluate_matches_golden_negative_side_value():
    # b2 at grid 9 reports a(-1/10, -1/10, -1/10, 0, 0, 11/10) < 0
    b2 = load("b2")
    a = checks.terms_poly(b2["terms"], 2)
    pt = [F(-1, 10), F(-1, 10), F(-1, 10), 0, 0, F(11, 10)]
    assert checks.evaluate(a, pt) == F(-121, 200000)


def test_evaluate_matches_sympy_at_random_rational_points():
    rng = random.Random(5)
    for name in ("b1", "b2", "classical"):
        sym = load(name)
        d = sym["d"]
        syms, expr = sympy_expr(sym["terms"], d)
        a = checks.terms_poly(sym["terms"], d)
        for _ in range(5):
            pt = [F(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(2 * d + 2)]
            want = expr.subs({s: sympy.Rational(v.numerator, v.denominator)
                              for s, v in zip(syms, pt)})
            assert checks.evaluate(a, pt) == F(str(want))


def test_known_spectra():
    # b2: mu = 1/2 (lambda = +-sqrt(1/2)); b2_bbis2: mu = -1 (lambda = +-i)
    for name, cp_mu, count in (("b2", [0, 0, F(-1, 2), 1], 1),
                               ("b2_bbis2", [0, 0, 1, 1], 0)):
        sym = load(name)
        cp = checks.charpoly(checks.hamilton_map(
            checks.terms_poly(sym["terms"], 2), 2))
        assert cp[0::2] == cp_mu and not any(cp[1::2])
        assert checks.real_pair_count(sym["terms"], 2) == count


def test_nonsingular_is_refused():
    sym = load("nonsingular")
    with pytest.raises(ValueError):
        checks.real_pair_count(sym["terms"], sym["d"])


def test_positive_roots_sturm():
    # (mu - 1)(mu - 2)(mu + 3) mu^2, (mu - 1)^2 (mu^2 + 1), mu^2 + 1
    assert checks.positive_roots([0, 0, 6, -7, 0, 1]) == 2
    assert checks.positive_roots([1, -2, 2, -2, 1]) == 1
    assert checks.positive_roots([1, 0, 1]) == 0


def test_root_count_agrees_with_sympy_on_draws():
    for d, data in jets.draw_batch(11, 9):
        terms = json.loads(data)["terms"]
        assert checks.real_pair_count(terms, d) == \
            sympy_positive_roots(terms, d)


def test_witness_problems_flags_a_wrong_value():
    sym = load("b2")
    rep = json.loads((FIXTURES / "golden" / "b2.certify.json").read_bytes())
    assert checks.witness_problems(sym, rep) == []
    rep["certificate"]["c_est"] *= 1 + 1e-9
    rep["certificate"]["nonneg"]["witness"]["t"] = "1/7"
    assert checks.witness_problems(sym, rep) == [
        "nonneg witness is not a grid node",
        "nonneg min_value disagrees with a(witness)",
        "c_est disagrees with its witness"]


def test_draws_depend_only_on_seed():
    assert jets.draw_batch(7, 6) == jets.draw_batch(7, 6)
    assert jets.draw_batch(7, 6) != jets.draw_batch(8, 6)
    assert [d for d, _ in jets.draw_batch(7, 6)] == [1, 2, 3, 1, 2, 3]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reduced_run_has_no_failed_operation(workload, monkeypatch):
    # the run sets these for its process; restore them for later tests
    for var in ("HYPCERT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    args = run.parse_args(["--workload", workload, "--seed", "3",
                           "--reduced", "--trace", "1"])
    res = run.run(args)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["end_to_end"]) == {"round_s_best", "op_s_best_p50", "setup_s",
                                      "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["end_to_end"].values())
    names = [m for m, *_ in tracing.METRICS] + ["verifier.scan_points_per_s"]
    assert list(res["per_layer"]) == names
    assert res["per_layer"]["symbolfile.parse_calls"]["value"] > 0
    assert math.isfinite(res["per_layer"]["cli.emit_s"]["value"])

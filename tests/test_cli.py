"""Pipeline statuses, report emission, exit codes, CLI entry point."""

import argparse
import dataclasses
import errno
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from hypcert import (
    NormalFormSpec,
    PhasePoint,
    Region,
    cli,
    minimize,
    normal_forms,
    phase_variables,
    time_functions,
    verifier,
)
from hypcert import grid as walker
from hypcert.cli import (
    Report,
    build_parser,
    emit_report,
    exit_code,
    main,
    run_pipeline,
)
from hypcert.symbolfile import (
    SymbolFile,
    parse_symbol_data,
    parse_symbol_file,
    serialize_symbol_file,
)
from test_normal_forms import deep_chain_specs

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
NAMES = ("b1", "b2", "b2_bbis2", "nonsingular", "classical")

# a real pair at +-5e-8: small, but decided exactly like any other
SMALL_PAIR_DOC = {
    "schema": 1, "d": 2,
    "terms": [{"coeff": "25/10000000000000000", "exponents": {"t": 2}}],
    "options": {"slack": "1/100"},
}


def parse_doc(doc):
    return parse_symbol_data(json.dumps(doc).encode("utf-8"))


def fixture_doc(name):
    return json.loads((FIXTURES / ("%s.json" % name)).read_bytes())


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in NAMES:
        sf = parse_symbol_file(FIXTURES / ("%s.json" % name))
        out[name] = run_pipeline(sf, "certify")
    return out


# ----------------------------------------------------------- run_pipeline


def test_b1_certified(reports):
    rep = reports["b1"]
    assert rep.status == "CERTIFIED"
    cert = rep.certificate
    assert cert["kappa_est"] == 0.0
    assert cert["c_est"] >= 0.9
    assert cert["one_sided"] is True
    assert cert["nonneg"]["passed"] is True
    assert cert["structural"]["passed"] is True


def test_b2_certified(reports):
    rep = reports["b2"]
    assert rep.status == "CERTIFIED"
    wit = rep.classification["witness"]
    assert abs(wit["re"] - 0.7071067811865476) <= 1e-12
    cert = rep.certificate
    assert 0.4 < cert["kappa_est"] <= 0.5 + 1e-6
    assert cert["c_est"] >= 0.9
    assert cert["one_sided"] is True
    assert rep.time_function["branch"] == "form2-weights"


def test_b2_bbis2_fails_classification(reports):
    rep = reports["b2_bbis2"]
    assert rep.status == "FAILED"
    assert rep.stage == "classify"
    assert rep.classification["tag"] == "pure-imaginary-only"
    assert rep.certificate is None and rep.time_function is None


def test_nonsingular_rejected(reports):
    rep = reports["nonsingular"]
    assert rep.status == "FAILED"
    assert rep.stage == "singular-check"
    assert "first derivative in t" in rep.reason


def test_classical_two_sided(reports):
    rep = reports["classical"]
    assert rep.status == "CERTIFIED"
    assert rep.certificate["one_sided"] is False
    assert rep.certificate["negative_side"]["value"] is None
    assert rep.time_function["phi"] == "0"


def test_report_hash_matches_input(reports):
    sf = parse_symbol_file(FIXTURES / "b2.json")
    assert reports["b2"].input_hash == sf.sha256


def test_custom_base_point_not_certified():
    # the normal form, time function and scans are centred on e_d, so a
    # certificate there says nothing about the point the file names
    doc = fixture_doc("b1")
    doc["base_point"]["xi"] = ["5", "1"]
    doc["region"]["grid"] = 5
    sf = parse_doc(doc)
    rep = run_pipeline(sf, "certify")
    assert rep.status == "FAILED" and exit_code(rep) == 1
    assert rep.stage == "normal-form"
    assert "(0, 0, 0, e_d)" in rep.reason
    assert rep.certificate is None

    cls = run_pipeline(sf, "classify")
    assert cls.status == "NOT_APPLICABLE" and exit_code(cls) == 0
    assert cls.classification["effective"] is True


def lifted_b1(d, region):
    """b1 = ((t - x1)^2 + x1^3) xi_d^2 in d dimensions."""
    t, xs, tau, xis = phase_variables(d)
    spec = NormalFormSpec(variant="form1", d=d, p=0, q=(xis[-1] ** 2,),
                          r=(), phi=xs[0], psi=xs[0] ** 3)
    return SymbolFile(base_point=PhasePoint.base(d), a=spec.a, region=region,
                      normal_form=spec)


def test_dimension_mismatch_lands_in_the_report():
    # a library-built b2 whose a has d = 3 and whose base point has d = 2:
    # the file's dimension is a's, and classify reports the mismatch
    sf = parse_symbol_file(ROOT / "fixtures" / "b2.json")
    t, xs, tau, xis = phase_variables(3)
    sf = dataclasses.replace(sf, a=(t - xs[0]) ** 2 * xis[2] ** 2 + xis[0] ** 2)
    for verb in ("classify", "certify"):
        rep = run_pipeline(sf, verb)
        assert (rep.status, rep.stage) == ("FAILED", "classify")
        assert rep.reason == "point dimension 2 for symbol with d=3"
        assert exit_code(rep) == 1


def test_dimension_mismatch_is_not_serialized():
    # the record admits the mismatched file above, and the serializer
    # refuses it rather than write bytes the parser refuses; it names
    # the part whose dimension is not a's
    sf = parse_symbol_file(ROOT / "fixtures" / "b2.json")
    t, xs, tau, xis = phase_variables(3)
    a3 = (t - xs[0]) ** 2 * xis[2] ** 2 + xis[0] ** 2
    with pytest.raises(ValueError, match=r"^base_point: dimension 2 "
                       r"differs from the terms' d=3$"):
        serialize_symbol_file(dataclasses.replace(sf, a=a3))
    with pytest.raises(ValueError, match=r"^normal_form: dimension 2 "
                       r"differs from the terms' d=3$"):
        serialize_symbol_file(dataclasses.replace(
            sf, a=a3, base_point=PhasePoint.base(3)))


@pytest.mark.parametrize("d,degree,grid", [(2, 12, 3), (3, 9, 5)])
def test_steep_phi_certifies(d, degree, grid):
    # phi = 10^6 x1^degree: eps = t - phi over the structural slow axes
    # would need integers past 2^53 in TensorGrid's integer form, and the
    # structural check takes it exactly per node instead
    t, xs, tau, xis = phase_variables(d)
    spec = NormalFormSpec(variant="form1", d=d, p=0, q=(xis[-1] ** 2,),
                          r=(), phi=10 ** 6 * xs[0] ** degree,
                          psi=xs[0] ** 2)
    sf = SymbolFile(base_point=PhasePoint.base(d), a=spec.a,
                    region=Region(grid=grid), normal_form=spec)
    rep = run_pipeline(sf, "certify")
    assert rep.status == "CERTIFIED" and exit_code(rep) == 0


def test_oversized_scan_fails_at_verify():
    # b1 lifted to d = 3 at the default region: 33**7 points per scan
    rep = run_pipeline(lifted_b1(3, Region()), "certify")
    assert rep.status == "FAILED" and exit_code(rep) == 1
    assert rep.stage == "verify"
    assert "42618442977" in rep.reason
    assert rep.time_function is not None and rep.certificate is None


def test_oversized_structural_grid_fails_at_verify(monkeypatch):
    # b1 lifted to d = 7: its scans at grid 3 pass (3**15 points), but the
    # structural boundary's slow grid would hold 5**14 points; TensorGrid
    # refuses it from the span lengths, before it builds an axis
    span = walker._span

    def build(lo, hi, n):
        if n == 5:  # a slow axis: N_AXIS nodes
            raise AssertionError("a slow axis was built")
        return span(lo, hi, n)

    monkeypatch.setattr(walker, "_span", build)
    rep = run_pipeline(lifted_b1(7, Region(grid=3)), "certify")
    assert rep.status == "FAILED" and exit_code(rep) == 1
    assert rep.stage == "verify"
    assert rep.reason == ("a scan of %d grid points exceeds the budget of %d"
                          % (5 ** 14, walker.MAX_SCAN_POINTS))
    assert rep.time_function is not None and rep.certificate is None


def test_oversized_region_fails_before_its_axes_are_built(monkeypatch):
    # b2 at grid 10^7 is 10^35 points per scan; TensorGrid takes the count
    # from the span lengths and refuses before it builds an axis (the side
    # conditions' small grid builds its own)
    span = walker._span

    def build(lo, hi, n):
        if n >= 10 ** 7 - 1:  # a region axis: grid or grid - 1 nodes
            raise AssertionError("an axis of the region was built")
        return span(lo, hi, n)

    monkeypatch.setattr(walker, "_span", build)
    doc = fixture_doc("b2")
    doc["region"]["grid"] = 10 ** 7
    rep = run_pipeline(parse_doc(doc), "certify")
    assert rep.status == "FAILED" and exit_code(rep) == 1
    assert rep.stage == "verify"
    assert rep.reason == ("a scan of %d grid points exceeds the budget of "
                          "%d" % (10 ** 35, 1 << 30))
    assert rep.time_function is not None and rep.certificate is None


def test_structural_grid_within_budget_certifies():
    # b1 lifted to d = 6: a boundary of 5**12 slow points, the largest of
    # the lifts within the point budget; its scan walks x_1 alone
    assert 5 ** 12 <= walker.MAX_SCAN_POINTS < 5 ** 14
    rep = run_pipeline(lifted_b1(6, Region(grid=3)), "certify")
    assert rep.status == "CERTIFIED" and exit_code(rep) == 0
    recon, boundary = rep.certificate["structural"]["checks"][:2]
    assert recon["name"] == "reconstruction-lower-bound"
    assert (recon["n_points"], boundary["n_points"]) == (5 ** 13, 5 ** 12)


def test_empty_ratio_set_fails_at_verify(monkeypatch):
    # scanned with phi = t, no grid point of b2 has a nonzero c
    # denominator: FAILED at verify with the sections of the shipped
    # report, and the structural check never runs
    ran, certify_region = [], verifier.certify_region
    monkeypatch.setattr(verifier, "check_structural",
                        lambda *args: ran.append(1))
    t = phase_variables(2)[0]
    monkeypatch.setattr(verifier, "certify_region", lambda a, phi, region:
                        certify_region(a, t, region))
    rep = run_pipeline(parse_symbol_file(FIXTURES / "b2.json"), "certify")
    assert ran == [] and exit_code(rep) == 1
    want = json.loads((GOLDEN / "b2.certify.json").read_bytes())
    del want["certificate"]
    want.update(status="FAILED", stage="verify",
                reason="c is empty: none of the 59049 grid points has a "
                       "nonzero denominator")
    assert emit_report(rep) == (json.dumps(want, sort_keys=True, indent=2)
                                + "\n").encode("utf-8")


def test_scans_past_exact_integers_fail():
    # b1 with 1/3^40 in a factor: the integers of its scans over a common
    # denominator would pass 2^53, and no scan decides on rounded floats
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    small = Fraction(1, 3 ** 40)
    for stage, q, psi in (("verify", xi2 ** 2 + small * xi1 ** 2, x1 ** 3),
                          ("side-conditions", xi2 ** 2, small * x1 ** 3)):
        spec = NormalFormSpec(variant="form1", d=2, p=0, q=(q,), r=(),
                              phi=x1, psi=psi)
        sf = SymbolFile(base_point=PhasePoint.base(2), a=spec.a,
                        region=Region(grid=5), normal_form=spec)
        rep = run_pipeline(sf, "certify")
        assert (rep.status, rep.stage) == ("FAILED", stage)
        assert "past the 2^53" in rep.reason and rep.certificate is None


def test_vanishing_remainder_factor_fails_at_verify(tmp_path):
    # b2 with r1 = 1/2 - 16 x2: positive at the base point, but zero at
    # x2 = 1/32, the end of the structural z_x axis, so the spring floor
    # of the normalized functional, which divides by it, does not close
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    spec = NormalFormSpec(variant="form2", d=2, p=1, q=(xi2 ** 2,),
                          r=(Fraction(1, 2) - 16 * x2,), g=x1 ** 3 * xi2 ** 2)
    sf = SymbolFile(base_point=PhasePoint.base(2), a=spec.a,
                    region=Region(grid=9), normal_form=spec)
    rep = run_pipeline(sf, "certify")
    assert rep.status == "FAILED" and exit_code(rep) == 1
    assert rep.stage == "verify"
    assert rep.reason == (
        "r1: interval lower bound 0 is not positive on the structural box "
        "(t, x, tau, xi) in [0, 1/32] x [-1/32, 1/32] x [-1/32, 1/32] x "
        "[0, 0] x [-1/16, 1/16] x [31/32, 33/32]")
    path = tmp_path / "r1.json"
    path.write_bytes(serialize_symbol_file(sf))
    out = tmp_path / "rep.json"
    assert main(["certify", str(path), "--out", str(out)]) == 1
    assert json.loads(out.read_bytes())["reason"] == rep.reason


def _deep_chain_file(name):
    spec = deep_chain_specs()[name]
    return SymbolFile(base_point=PhasePoint.base(spec.d), a=spec.a,
                      region=Region(grid=5), normal_form=spec)


def test_vanishing_spring_fails_at_verify():
    # form1-p2-d3 with q1 = (1 - 30 x3) xi3^2: positive at the base point,
    # zero at x3 = 1/30, inside the structural box (|x3| <= 1/24)
    t, (x1, x2, x3), tau, (xi1, xi2, xi3) = phase_variables(3)
    spec = deep_chain_specs()["form1-p2-d3"]
    spec = NormalFormSpec(variant=spec.variant, d=spec.d, p=spec.p,
                          q=((1 - 30 * x3) * xi3 ** 2,) + spec.q[1:],
                          r=spec.r, phi=spec.phi, psi=spec.psi)
    sf = dataclasses.replace(_deep_chain_file("form1-p2-d3"), normal_form=spec,
                             a=spec.a)
    rep = run_pipeline(sf, "certify")
    assert (rep.status, rep.stage, exit_code(rep)) == ("FAILED", "verify", 1)
    assert rep.reason == (
        "q1: interval lower bound -1009/2304 is not positive on the "
        "structural box (t, x, tau, xi) in [0, 1/24] x [-1/12, 1/8] x "
        "[-1/12, 1/8] x [-1/24, 1/24] x [0, 0] x [-1/12, 1/12] x "
        "[-1/12, 1/12] x [23/24, 25/24]")


CERTIFY_INPUTS = NAMES + tuple(sorted(deep_chain_specs()))


@pytest.fixture(scope="module")
def certify_bytes():
    """The certify report bytes of the fixtures and the deep chains."""
    return {name: emit_report(run_pipeline(_certify_input(name), "certify"))
            for name in CERTIFY_INPUTS}


def _certify_input(name):
    if name in NAMES:
        return parse_symbol_file(FIXTURES / ("%s.json" % name))
    return _deep_chain_file(name)


@pytest.mark.parametrize("name", CERTIFY_INPUTS)
def test_certify_reads_no_newton(name, certify_bytes, monkeypatch):
    # no structural verdict reads the Newton or LAPACK: with them raising,
    # each report is the same bytes, and the deep chains certify
    def broken(*args, **kwargs):
        raise AssertionError("certify ran the Newton or LAPACK")

    monkeypatch.setattr(minimize, "_newton", broken)
    monkeypatch.setattr(np.linalg, "cond", broken)
    monkeypatch.setattr(np.linalg, "solve", broken)
    rep = run_pipeline(_certify_input(name), "certify")
    assert emit_report(rep) == certify_bytes[name]
    if name not in NAMES:
        assert rep.status == "CERTIFIED"


def _huge_exponent_doc(name):
    """b1 with phi = x1^(2^70), and b2 with x1^(2^40) xi2^2 added to g and
    half of it to the terms."""
    doc = fixture_doc(name)
    if name == "b1":
        doc["normal_form"]["phi"][0]["exponents"]["x1"] = 2 ** 70
    else:
        doc["normal_form"]["g"].append(_term("1", x1=2 ** 40, xi2=2))
        doc["terms"].append(_term("1/2", x1=2 ** 40, xi2=2))
    return doc


@pytest.mark.parametrize("name,verb,code,reason", [
    ("b1", "classify", 0, "classification only; nothing certified"),
    ("b1", "certify", 1, "normal_form does not assemble to the given terms"),
    ("b2", "classify", 0, "classification only; nothing certified"),
    ("b2", "certify", 1, "a scan integer could reach 2^3652498566968.4, past "
     "the 2^53 below which float64 integers are exact"),
], ids=["b1-classify", "b1-certify", "b2-classify", "b2-certify"])
def test_huge_exponent_ends_at_once(name, verb, code, reason, tmp_path):
    # no exponent's value sets the running time: the exact evaluator
    # raises 0 to 2^70 by squaring, and the scan grid refuses a term from
    # its logarithms before it forms 10^(2^40)
    path, out = tmp_path / "in.json", tmp_path / "rep.json"
    path.write_text(json.dumps(_huge_exponent_doc(name)))

    def stop(signum, frame):
        raise TimeoutError("%s %s took 5 s" % (verb, name))

    handler = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        got = main([verb, str(path), "--out", str(out)])
        seconds = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert (got, json.loads(out.read_bytes())["reason"]) == (code, reason)
    assert seconds < 1


def test_each_stage_runs_once(monkeypatch):
    sf = parse_symbol_file(FIXTURES / "b2.json")
    calls = {"check_side_conditions": 0, "validate_spec": 0,
             "check_structural": 0}
    for name in calls:
        original = getattr(normal_forms, name, None) \
            or getattr(verifier, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (cli, normal_forms, time_functions, verifier):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    assert run_pipeline(sf, "certify").status == "CERTIFIED"
    assert calls == {"check_side_conditions": 1, "validate_spec": 0,
                     "check_structural": 1}


def test_regen_script_matches_fixtures():
    path = ROOT / "scripts" / "regen_fixtures.py"
    spec = importlib.util.spec_from_file_location("regen_fixtures", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    files = regen.fixture_files()
    assert sorted(files) == sorted(NAMES)
    for name, sf in files.items():
        expected = (FIXTURES / ("%s.json" % name)).read_bytes()
        assert serialize_symbol_file(sf) == expected, name


def test_regen_script_runs_without_pythonpath(tmp_path):
    # the README runs the script from a plain checkout, nothing installed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = ("import runpy, sys; "
            "ns = runpy.run_path(sys.argv[1], run_name='regen'); "
            "print(' '.join(sorted(ns['fixture_files']())))")
    script = ROOT / "scripts" / "regen_fixtures.py"
    done = subprocess.run(
        [sys.executable, "-c", code, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(NAMES)


# ----------------------------------------------------- classify and exits


def test_classify_verb_stops_early():
    sf = parse_symbol_file(FIXTURES / "b2.json")
    rep = run_pipeline(sf, "classify")
    assert rep.status == "NOT_APPLICABLE"
    assert rep.certificate is None
    assert exit_code(rep) == 0  # classification succeeded, nothing certified


def test_classify_non_effective_exit():
    sf = parse_symbol_file(FIXTURES / "b2_bbis2.json")
    rep = run_pipeline(sf, "classify")
    assert rep.status == "FAILED"
    assert exit_code(rep) == 1


def test_small_real_pair_classifies_exactly():
    rep = run_pipeline(parse_doc(SMALL_PAIR_DOC), "classify")
    assert rep.status == "NOT_APPLICABLE"
    assert exit_code(rep) == 0
    assert rep.classification["tag"] == "real-pair-present"
    assert rep.classification["witness"] == {"re": 5e-08, "im": 0.0}


@pytest.mark.parametrize("verb", ["classify", "certify"])
def test_oversized_dimension_fails_at_classify(verb, tmp_path, capsys):
    # d = 32 needs a 66 x 66 Hamilton map, past the supported 64 x 64
    path = tmp_path / "d32.json"
    path.write_text(json.dumps({"schema": 1, "d": 32, "terms": [
        {"coeff": "1", "exponents": {"t": 2}}]}))
    out = tmp_path / "rep.json"
    assert main([verb, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_bytes())
    assert (rep["status"], rep["stage"]) == ("FAILED", "classify")
    assert "66 x 66" in rep["reason"]


def _term(coeff, **exponents):
    return {"coeff": coeff, "exponents": exponents}


@pytest.mark.parametrize("verb", ["classify", "certify"])
def test_huge_jet_value_fails_at_singular_check(verb, tmp_path, capsys):
    # (3/2)^1000000 has more digits than str() prints: the reason gives
    # its size instead of a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "schema": 1, "d": 1, "terms": [_term("1", t=2),
                                       _term("1", x1=1000000)],
        "base_point": {"t": "0", "x": ["3/2"], "tau": "0", "xi": ["1"]}}))
    out = tmp_path / "rep.json"
    assert main([verb, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_bytes())
    assert (rep["status"], rep["stage"]) == ("FAILED", "singular-check")
    assert rep["reason"] == ("base point is not a double characteristic: p "
                             "does not vanish at the point (value "
                             "2^584962.5)")


@pytest.mark.parametrize("verb", ["classify", "certify"])
def test_coefficient_past_float_range_gives_a_report(verb, tmp_path, capsys):
    # b2 with r1 = 10^400: the exact evaluations of validation and the
    # pipeline read no float coefficient, so the file parses and the
    # verdict is exact (sum of inverse r below 1: not effective)
    doc = fixture_doc("b2")
    doc["normal_form"]["r"][0][0]["coeff"] = "1" + "0" * 400
    doc["terms"][0]["coeff"] = "1" + "0" * 400
    path, out = tmp_path / "in.json", tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert main([verb, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_bytes())
    assert (rep["stage"], rep["reason"]) == (
        "classify", "not effectively hyperbolic (tag pure-imaginary-only)")


def test_mu_past_float_range_displays_no_eigenvalues(tmp_path, capsys):
    # a = t^2 + x1^3000 (x1 - 3/2)^2 - xi1^2 at x1 = 3/2: the mu roots are
    # 1 and (3/2)^3000, about 10^528, past float range; the verdict and
    # the tag stay exact, and no eigenvalue is displayed
    path = tmp_path / "huge_mu.json"
    path.write_text(json.dumps({
        "schema": 1, "d": 1,
        "terms": [_term("1", t=2), _term("1", x1=3002),
                  _term("-3", x1=3001), _term("9/4", x1=3000),
                  _term("-1", xi1=2)],
        "base_point": {"t": "0", "x": ["3/2"], "tau": "0", "xi": ["0"]}}))
    out = tmp_path / "rep.json"
    assert main(["classify", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_bytes())
    assert rep["status"] == "NOT_APPLICABLE"
    assert rep["classification"] == {"effective": True, "witness": None,
                                     "tag": "real-pair-present",
                                     "eigenvalues": []}


def _spec_file(spec, grid):
    """The symbol file of a normal form at its base point, at grid."""
    return serialize_symbol_file(SymbolFile(
        base_point=PhasePoint.base(spec.d), a=spec.a,
        region=Region(grid=grid), normal_form=spec))


def exit_inputs():
    """(verb, symbol file bytes, flags) for each way out of run_pipeline
    that a symbol file or a flag reaches."""
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)

    def fixture(name):
        return (FIXTURES / ("%s.json" % name)).read_bytes()

    def doc(d):
        return json.dumps(d).encode("utf-8")

    other_base = fixture_doc("b1")
    other_base["base_point"]["xi"] = ["5", "1"]
    unassembled = fixture_doc("b2")
    unassembled["terms"].append(_term("1", x1=4, xi2=2))
    return {
        "singular-check": ("certify", fixture("nonsingular"), []),
        "classify-refused": ("classify", doc(
            {"schema": 1, "d": 32, "terms": [_term("1", t=2)]}), []),
        "classify-effective": ("classify", fixture("b2"), []),
        "classify-not-effective": ("classify", fixture("b2_bbis2"), []),
        "not-effective": ("certify", fixture("b2_bbis2"), []),
        "no-normal-form": ("certify", doc(SMALL_PAIR_DOC), []),
        "other-base-point": ("certify", doc(other_base), ["--grid", "5"]),
        "unassembled": ("certify", doc(unassembled), ["--grid", "5"]),
        "side-conditions-refused": ("certify", _spec_file(NormalFormSpec(
            variant="form1", d=2, p=0, q=(xi2 ** 2,), r=(), phi=x1,
            psi=Fraction(1, 3 ** 40) * x1 ** 3), 5), []),
        "side-conditions": ("certify", _spec_file(NormalFormSpec(
            variant="form1", d=2, p=0, q=(xi2 ** 2,), r=(), phi=x1,
            psi=-x1 ** 3), 5), []),
        "time-function": ("certify", fixture("b2"), ["--slack", "2"]),
        "verify-refused": ("certify", fixture("b2"), ["--grid", "10000000"]),
        "verify-vanishing-factor": ("certify", _spec_file(NormalFormSpec(
            variant="form2", d=2, p=1, q=(xi2 ** 2,),
            r=(Fraction(1, 2) - 16 * x2,), g=x1 ** 3 * xi2 ** 2), 9), []),
        "gates": ("certify", fixture("b1"),
                  ["--region", "1,2,1", "--grid", "5"]),
        "certified": ("certify", fixture("b2"), ["--grid", "5"]),
    }


# (exit code, sha256 of the JSON report) of each input of exit_inputs()
EXIT_DIGESTS = {
    "certified":
        (0, "b16a0bf1f5ecfe8c0326f0a037511628b57cf0a3d9fae95026fc93f2b6ea262d"),
    "classify-effective":
        (0, "eb539db03991cc6ad4b68b1c1de1f6a09934a114107f756a77064fbcc7e68cf2"),
    "classify-not-effective":
        (1, "a1136e38a2aed5a5567e5397809e9d5baebe89c9898c7be67b1d3a8c29160326"),
    "classify-refused":
        (1, "8d14212104fbdab2c862057f2fa58b09b62f08698e4cb1aea54d363874d6b309"),
    "gates":
        (1, "8fb9999a4f49f967d223b98276a8dd4c1c0c649ea586eea182b1ea989bef6b69"),
    "no-normal-form":
        (1, "9e6edeb53d1af02f2082a2bef340577a08ee4ce08d5083c1ac7ced03702bc8fd"),
    "not-effective":
        (1, "3e4c85fcd4dbeb816fb17aea8b8dc5052e49baee3c6a4ce2f7c9ce254a8be043"),
    "other-base-point":
        (1, "900083bb740b2fa7069ae0dcc0a18b09646135330f3cc7d62286b315066dc3b2"),
    "side-conditions":
        (1, "c76b02e18588e8c07341c7e03a109b75463e7ec71eb913e00df503c4ee6eecb8"),
    "side-conditions-refused":
        (1, "a38f010db5a95308a1aac9dcac9fbcb5bac94ea0822fcb350ea81ad090d462fd"),
    "singular-check":
        (1, "a028414d99f7b9e4d73a8ee679e9ba2a3fd7d538a29f5b83e62275784aa3458f"),
    "time-function":
        (1, "c42a958f50a01a9e9b1d8520fd575c8543e026cea2abed373ece73679a0d8239"),
    "unassembled":
        (1, "73179715ec3c526fc2b505259e06ebf084e7c307460d299c4cc99af082cc0dd8"),
    "verify-refused":
        (1, "bcaec062e43989ccf925c2fe3c67d91eb3405dab8db5724e6b05f318abb8e4c2"),
    "verify-vanishing-factor":
        (1, "4e280ec76862c09d0f3bb371da57622b9582b5c4fe4612a3e6c23babcf955ae4"),
}


@pytest.mark.parametrize("name", sorted(EXIT_DIGESTS))
def test_pipeline_exit_bytes_frozen(name, tmp_path, capsys):
    verb, data, flags = exit_inputs()[name]
    path, out = tmp_path / "in.json", tmp_path / "rep.json"
    path.write_bytes(data)
    code = main([verb, str(path), *flags, "--out", str(out)])
    assert capsys.readouterr().err == ""
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == EXIT_DIGESTS[name]


# (exit code, sha256 of the JSON report) of classify on each fixture
CLASSIFY_DIGESTS = {
    "b1":
        (0, "53be2184cbbd2bb245ba575b5c740e8523a0ca3289fb3f518e6d2dbff071ef9c"),
    "b2":
        (0, "eb539db03991cc6ad4b68b1c1de1f6a09934a114107f756a77064fbcc7e68cf2"),
    "b2_bbis2":
        (1, "a1136e38a2aed5a5567e5397809e9d5baebe89c9898c7be67b1d3a8c29160326"),
    "classical":
        (0, "f046741d482674c48f19d90458e0e9d3065c2e304fae312ba2585a6edffa0045"),
    "nonsingular":
        (1, "343bb8f9b3c2f833fe77935c3f50e0370cd3f9ba283fb9fbd2e40849f71c2b13"),
}


def test_classify_and_certify_run_no_lapack(monkeypatch, tmp_path, capsys):
    # the displayed eigenvalues are found in pure Python and certify runs
    # no Newton: with numpy's root finder and the LAPACK entry points
    # raising, classify and certify of every fixture and every pipeline
    # exit give their frozen exit codes and bytes
    def broken(*args, **kwargs):
        raise AssertionError("LAPACK ran")

    monkeypatch.setattr(np, "roots", broken)
    for name in ("eig", "eigvals", "solve", "cond", "svd"):
        monkeypatch.setattr(np.linalg, name, broken)
    runs = [(verb, (FIXTURES / ("%s.json" % name)).read_bytes(), [])
            for verb in ("classify", "certify") for name in NAMES]
    want = [CLASSIFY_DIGESTS[name] for name in NAMES]
    for name in NAMES:
        golden = (GOLDEN / ("%s.certify.json" % name)).read_bytes()
        want.append((0 if json.loads(golden)["status"] == "CERTIFIED" else 1,
                     hashlib.sha256(golden).hexdigest()))
    for name, run in sorted(exit_inputs().items()):
        runs.append(run)
        want.append(EXIT_DIGESTS[name])
    path, out = tmp_path / "in.json", tmp_path / "rep.json"
    for (verb, data, flags), expected in zip(runs, want):
        path.write_bytes(data)
        code = main([verb, str(path), *flags, "--out", str(out)])
        assert capsys.readouterr().err == ""
        assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) \
            == expected, (verb, flags)


def test_every_pipeline_exit_is_frozen():
    assert sorted(exit_inputs()) == sorted(EXIT_DIGESTS)


def test_statuses_and_exit_codes_have_no_band():
    assert cli.STATUSES == ("CERTIFIED", "FAILED", "NOT_APPLICABLE")
    assert {exit_code(Report(status=st, verb=verb, version="0",
                             input_hash=""))
            for st in cli.STATUSES for verb in ("classify", "certify")} \
        == {0, 1}


def test_certify_exit_codes(reports):
    assert exit_code(reports["b1"]) == 0
    assert exit_code(reports["b2_bbis2"]) == 1
    # NOT_APPLICABLE counts as failure under certify
    sf = parse_symbol_file(FIXTURES / "nonsingular.json")
    na = Report(status="NOT_APPLICABLE", verb="certify", version="0",
                input_hash=sf.sha256)
    assert exit_code(na) == 1


# ----------------------------------------------------------------- output


def test_json_emission_deterministic(reports):
    first = emit_report(reports["b2"], "json")
    second = emit_report(reports["b2"], "json")
    assert first == second
    assert first.endswith(b"\n")
    doc = json.loads(first)
    assert doc["status"] == "CERTIFIED"
    assert doc["certificate"]["label"] == "empirical"
    assert "reason" in doc  # kept even when null


@pytest.mark.parametrize("name", NAMES)
def test_golden_reports(name, reports):
    golden = (GOLDEN / ("%s.certify.json" % name)).read_bytes()
    assert emit_report(reports[name], "json") == golden


def test_text_emission(reports):
    text = emit_report(reports["b2"], "text").decode("utf-8")
    assert "input sha256: %s" % reports["b2"].input_hash in text
    assert "status: CERTIFIED" in text
    assert "gate kappa < 1: pass" in text
    assert "grid points excluded" in text
    b1 = emit_report(reports["b1"], "text").decode("utf-8")
    assert "negative for t < 0" in b1 or "one-sided" in b1


def test_small_real_pair_text_names_witness():
    rep = run_pipeline(parse_doc(SMALL_PAIR_DOC), "classify")
    text = emit_report(rep, "text").decode("utf-8")
    assert "classification: effective; witness eigenvalue 5e-08; " \
        "tag real-pair-present" in text


# --------------------------------------------------------------- main()


def test_main_certify_writes_report(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["certify", str(FIXTURES / "b2.json"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_bytes())
    assert doc["status"] == "CERTIFIED"


def test_main_failure_exit(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["certify", str(FIXTURES / "b2_bbis2.json"), "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_bytes())["status"] == "FAILED"


def test_main_usage_errors(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert main(["certify", str(absent)]) == 3
    assert capsys.readouterr().err == "hypcert: cannot read %s: %s\n" % (
        absent, os.strerror(errno.ENOENT))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{nope")
    assert main(["certify", str(bad)]) == 3
    assert main(["frobnicate", str(FIXTURES / "b2.json")]) == 3
    assert main(["certify", str(FIXTURES / "b2.json"),
                 "--region", "1/10,1/10"]) == 3
    capsys.readouterr()
    for flag, value in (("--grid", "2"), ("--region", "0,1/10,1/10"),
                        ("--region", "1/10,0,1/10"),
                        ("--region", "1/10,1/10,0"), ("--slack", "-1")):
        assert main(["certify", str(FIXTURES / "b2.json"), flag, value]) == 3
        assert flag in capsys.readouterr().err
    # the classification is exact: there is no tolerance flag or key
    for verb in ("classify", "certify"):
        assert main([verb, str(FIXTURES / "b2.json"), "--tol", "1e-8"]) == 3
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
    for value in (1e-8, math.inf):
        doc = fixture_doc("b2")
        doc["options"]["tol"] = value
        path = tmp_path / "tol.json"
        path.write_bytes(json.dumps(doc).encode("utf-8"))
        assert main(["classify", str(path)]) == 3
        assert "$.options: unknown key 'tol'" in capsys.readouterr().err
    # the scans decide exactly: there is no denominator floor key either
    doc = fixture_doc("b2")
    doc["region"]["eta_den"] = 1e-10
    path = tmp_path / "eta_den.json"
    path.write_bytes(json.dumps(doc).encode("utf-8"))
    assert main(["certify", str(path)]) == 3
    assert "$.region: unknown key 'eta_den'" in capsys.readouterr().err


def test_invalid_normal_form_is_a_usage_error(tmp_path, capsys):
    doc = fixture_doc("b2")
    doc["normal_form"]["r"] = [[{"coeff": "-1/2", "exponents": {}}]]
    path = tmp_path / "bad_r.json"
    path.write_bytes(json.dumps(doc).encode("utf-8"))
    for verb in ("certify", "classify"):
        assert main([verb, str(path)]) == 3
        assert "r1" in capsys.readouterr().err


def test_main_version(capsys):
    assert main(["--version"]) == 0
    assert "hypcert" in capsys.readouterr().out


def test_main_grid_override(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["certify", str(FIXTURES / "b2.json"), "--grid", "5",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_bytes())
    assert doc["certificate"]["grid"]["grid"] == 5


def test_main_minimize(tmp_path):
    out = tmp_path / "min.json"
    rc = main(["minimize", str(FIXTURES / "b2.json"), "--mode", "normalized",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_bytes())
    for key in ("m", "w_bar", "hessian_cond", "grad_norm", "iterations",
                "mode", "theta", "version", "input_hash"):
        assert key in doc
    assert doc["mode"] == "normalized"
    assert doc["m"] > 0


# sha256 of `hypcert minimize FILE --theta-t 1/50 --mode MODE` output
MINIMIZE_DIGESTS = {
    ("b1", "raw"):
        "4b93bbcacf8b52fa0951cb56b371c8e6cdc0caf3e6376037705afaa3045c2f55",
    ("b1", "normalized"):
        "a7fb433820b6f9d892315a866f29f81c4232e3ecbda0b3103bc52829c5559694",
    ("b2", "raw"):
        "9d755a7e94deafb0f571011fc1765549db3eb6b56b4292e7feef7e5ebeca5f97",
    ("b2", "normalized"):
        "840c2333330c5bfa83866cb05679a9b5f0e5e4072b8cc9aac6c1030f5261ed14",
    ("classical", "raw"):
        "eb4e26898adf731f7252168f954b275e315b8134bc8660a50f909fcf04e36c31",
    ("classical", "normalized"):
        "6b3265a6d3f2b6d375593679ef1a1fae9ee67dbf77abfac6e271f73d1966f716",
    ("b2_bbis2", "raw"):
        "9e60a064bdf4e7378be5b9d5032a5fa2e0f73a6a5a419ec567306da8b988b909",
    ("b2_bbis2", "normalized"):
        "cd86baddf5b6baa1756cd48a786f81867d8d357000d140e5155bae514c9f74f7",
}


@pytest.mark.parametrize("name,mode", sorted(MINIMIZE_DIGESTS))
def test_main_minimize_bytes_frozen(name, mode, tmp_path):
    out = tmp_path / "min.json"
    assert main(["minimize", str(FIXTURES / ("%s.json" % name)),
                 "--theta-t", "1/50", "--mode", mode, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == MINIMIZE_DIGESTS[(name, mode)]


def test_main_minimize_refuses_an_x_p_for_form1(capsys):
    # b1 is form1: its theta has no x_p slot to set
    assert main(["minimize", str(FIXTURES / "b1.json"),
                 "--theta-xp", "1/2"]) == 3
    captured = capsys.readouterr()
    assert "--theta-xp" in captured.err and captured.out == ""


@pytest.mark.parametrize("name,flag,value,k", [
    ("b1", "--theta-zx", "1,2,3", 2), ("b1", "--theta-zxi", "1", 2),
    ("b2", "--theta-zx", "", 1), ("b2", "--theta-zxi", "1/2,1/3", 1)])
def test_main_minimize_refuses_a_transverse_block_of_wrong_length(
        name, flag, value, k, capsys):
    assert main(["minimize", str(FIXTURES / ("%s.json" % name)),
                 flag, value]) == 3
    captured = capsys.readouterr()
    assert "%s: expected %d values" % (flag, k) in captured.err
    assert captured.out == ""


def test_main_minimize_requires_normal_form(capsys):
    assert main(["minimize", str(FIXTURES / "nonsingular.json")]) == 3
    capsys.readouterr()


def _run_long_power(tmp_path, *args):
    """(completed process, seconds with process start) of a fresh
    `python -m hypcert` on b1 with q1 = (1 + x1^(2^40)) xi2^2."""
    t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)
    spec = NormalFormSpec(variant="form1", d=2, p=0,
                          q=((1 + x1 ** 2 ** 40) * xi2 ** 2,), r=(),
                          phi=x1, psi=x1 ** 3)
    path = tmp_path / "long.json"
    path.write_bytes(serialize_symbol_file(SymbolFile(
        base_point=PhasePoint.base(2), a=spec.a, region=Region(grid=9),
        normal_form=spec)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "hypcert", args[0], str(path), *args[1:],
         "--out", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=60)
    return done, time.monotonic() - start


def test_minimize_of_a_long_power_ends(tmp_path):
    # the float path evaluates x1^(2^40) at x1 = 0, and stops once its
    # partial product is 0
    done, elapsed = _run_long_power(tmp_path, "minimize")
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "out.json").read_bytes())["m"] == 1.0
    assert elapsed < 1.0


def test_certify_of_a_long_power_ends(tmp_path):
    # the region's x nodes are -1, 0 and 1, so the scans' integers stay
    # small, and the structural floor's interval bounds refuse the power
    # den^(2^40) before they form it
    done, elapsed = _run_long_power(tmp_path, "certify", "--region",
                                    "1,1,1/10", "--grid", "3")
    assert done.returncode == 1, done.stderr
    rep = json.loads((tmp_path / "out.json").read_bytes())
    assert (rep["status"], rep["stage"]) == ("FAILED", "verify")
    assert re.fullmatch(r"a scan integer could reach 2\^\d+\.\d, past the "
                        r"2\^53 below which float64 integers are exact",
                        rep["reason"])
    assert elapsed < 1.0


def _option_dests(verb):
    """The settable values of a verb's sub-parser, as dest names."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(a.dest for a in sub.choices[verb]._actions
                  if a.dest != "help")


def test_each_verb_takes_only_the_options_it_reads():
    assert _option_dests("classify") == ["file", "format", "out"]
    assert _option_dests("certify") == [
        "file", "format", "grid", "out", "region", "slack"]
    assert _option_dests("minimize") == [
        "file", "mode", "out", "theta_t", "theta_xp", "theta_zx",
        "theta_zxi"]


@pytest.mark.parametrize("argv,message", [
    (["check-frame", "F"], "invalid choice: 'check-frame'"),
    (["classify", "F", "--grid", "5"], "unrecognized arguments: --grid 5"),
    (["classify", "F", "--region", "1,1,1"], "unrecognized arguments"),
    (["classify", "F", "--slack", "1/2"], "unrecognized arguments"),
    (["minimize", "F", "--grid", "5"], "unrecognized arguments: --grid 5"),
    (["minimize", "F", "--format", "text"],
     "unrecognized arguments: --format text"),
])
def test_an_option_a_verb_does_not_read_is_a_usage_error(argv, message,
                                                         capsys):
    argv = [str(FIXTURES / "b2.json") if a == "F" else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hypcert")
    assert message in captured.err and "Traceback" not in captured.err


def test_a_frame_key_is_an_unknown_key(tmp_path, capsys):
    doc = fixture_doc("b2")
    doc["frame"] = {"j_start": 2, "pairs": []}
    path = tmp_path / "frame.json"
    path.write_bytes(json.dumps(doc).encode("utf-8"))
    for verb in ("classify", "certify", "minimize"):
        assert main([verb, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hypcert: $: unknown key 'frame'\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("verb", ["classify", "certify", "minimize"])
def test_main_unwritable_out_is_a_usage_error(verb, where, tmp_path, capsys):
    # each writer: one line on stderr and exit 3, not a traceback and the
    # exit code of a failed verdict
    path = FIXTURES / "b2.json"
    if where == "missing-directory":
        out, code = tmp_path / "absent" / "rep.json", errno.ENOENT
    else:
        out, code = tmp_path, errno.EISDIR
    assert main([verb, str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the reason alone, not the OSError that repeats the path
    assert captured.err == "hypcert: cannot write %s: %s\n" % (
        out, os.strerror(code))


@pytest.mark.parametrize("flag,value", [("--slack", "1/0"),
                                        ("--region", "1/10,1/0,1/10")])
def test_main_zero_denominator_is_named(flag, value, capsys):
    assert main(["certify", str(FIXTURES / "b2.json"), flag, value]) == 3
    err = capsys.readouterr().err
    assert "argument %s: zero denominator" % flag in err
    assert "Fraction(" not in err


def test_main_report_does_not_depend_on_environment(tmp_path, monkeypatch):
    # two certify runs in one process, under different settings of a
    # variable the package once read: the report bytes are the same
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("HYPCERT_THREADS", threads)
        out = tmp_path / ("rep_%s.json" % threads)
        rc = main(["certify", str(FIXTURES / "b2.json"), "--grid", "5",
                   "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

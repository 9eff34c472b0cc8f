"""Pipeline statuses, report emission, exit codes, CLI entry point."""

import importlib.util
import json
import pathlib

import pytest

from hypcert import cli, normal_forms, time_functions
from hypcert.cli import Report, emit_report, exit_code, main, run_pipeline
from hypcert.symbolfile import (
    parse_symbol_data,
    parse_symbol_file,
    serialize_symbol_file,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
NAMES = ("b1", "b2", "b2_bbis2", "nonsingular", "classical")

# real pair at +-5e-8 sits inside the (tol, 10*tol] band for tol = 1e-8
MARGINAL_DOC = {
    "schema": 1, "d": 2,
    "terms": [{"coeff": "25/10000000000000000", "exponents": {"t": 2}}],
    "options": {"slack": "1/100", "tol": 1e-8},
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


def test_each_stage_runs_once(monkeypatch):
    sf = parse_symbol_file(FIXTURES / "b2.json")
    calls = {"check_side_conditions": 0, "validate_spec": 0}
    for name in calls:
        original = getattr(normal_forms, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (cli, normal_forms, time_functions):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    assert run_pipeline(sf, "certify").status == "CERTIFIED"
    assert calls == {"check_side_conditions": 1, "validate_spec": 0}


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


def test_marginal_classification_exit_2():
    rep = run_pipeline(parse_doc(MARGINAL_DOC), "classify")
    assert rep.status == "MARGINAL"
    assert exit_code(rep) == 2
    assert rep.classification["marginal"]  # nonempty band


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


def test_marginal_text_names_eigenvalue():
    rep = run_pipeline(parse_doc(MARGINAL_DOC), "classify")
    text = emit_report(rep, "text").decode("utf-8")
    assert "marginal eigenvalues" in text
    assert "5e-08" in text


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
    assert main(["certify", str(tmp_path / "absent.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{nope")
    assert main(["certify", str(bad)]) == 3
    assert main(["frobnicate", str(FIXTURES / "b2.json")]) == 3
    assert main(["certify", str(FIXTURES / "b2.json"),
                 "--region", "1/10,1/10"]) == 3
    capsys.readouterr()
    for flag, value in (("--grid", "2"), ("--region", "0,1/10,1/10"),
                        ("--slack", "-1"), ("--tol", "-1")):
        assert main(["certify", str(FIXTURES / "b2.json"), flag, value]) == 3
        assert flag in capsys.readouterr().err


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


def test_main_minimize_requires_normal_form(capsys):
    assert main(["minimize", str(FIXTURES / "nonsingular.json")]) == 3
    capsys.readouterr()


def frame_doc(shift="0"):
    x2 = [{"coeff": "1", "exponents": {"x2": 1}}]
    if shift != "0":
        x2 = x2 + [{"coeff": shift, "exponents": {}}]
    return {
        "schema": 1, "d": 2,
        "terms": [{"coeff": "1", "exponents": {"t": 2, "xi2": 2}}],
        "frame": {"j_start": 2,
                  "pairs": [{"X": x2,
                             "Xi": [{"coeff": "1", "exponents": {"xi2": 1}}]}]},
    }


def test_main_check_frame(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_bytes(json.dumps(frame_doc()).encode())
    out = tmp_path / "frame.json"
    assert main(["check-frame", str(good), "--out", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    assert doc["ok"] is True and doc["failures"] == []

    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(frame_doc(shift="1")).encode())
    assert main(["check-frame", str(bad), "--out", str(out)]) == 1
    doc = json.loads(out.read_bytes())
    assert doc["ok"] is False and doc["failures"]

    plain = tmp_path / "plain.json"
    plain.write_bytes(json.dumps({"schema": 1, "d": 2, "terms": [
        {"coeff": "1", "exponents": {"t": 2}}]}).encode())
    assert main(["check-frame", str(plain)]) == 3
    capsys.readouterr()


def test_main_thread_count_invariance(tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("HYPCERT_THREADS", threads)
        out = tmp_path / ("rep_%s.json" % threads)
        rc = main(["certify", str(FIXTURES / "b2.json"), "--grid", "5",
                   "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

"""Pipeline orchestration and report emission.

certify runs: singular-point check -> classification -> side conditions
-> time function -> region scan -> structural check, short-circuiting on
the first failing stage.  Reports are deterministic: identical input
bytes and options produce identical output bytes.

Exit codes: 0 CERTIFIED, 1 FAILED (and NOT_APPLICABLE under certify),
3 usage or unreadable input.  `classify` exits 0 when the point is
effectively hyperbolic even though nothing was certified.

Each verb imports only the modules it runs: the scans (time_functions,
verifier, grid and numpy) where certify first needs them, and module
minimize in the minimize verb alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from hypcert import __version__
from hypcert.spectral import NoConvergence, classify_effective_hyperbolicity
from hypcert.symbols import DimensionMismatch, NotSingular, PolySymbol, _Record
from hypcert.symbolfile import (
    ParseError,
    SchemaError,
    SymbolFile,
    dumps,
    parse_symbol_file,
    point_obj,
    poly_terms,
)

STATUSES = ("CERTIFIED", "FAILED", "NOT_APPLICABLE")


class Report(_Record):
    _fields = ("status", "verb", "version", "input_hash", "reason", "stage",
               "classification", "side_conditions", "time_function",
               "certificate")

    def __init__(self, status: str, verb: str, version: str,
                 input_hash: str, reason: Optional[str] = None,
                 stage: Optional[str] = None,
                 classification: Optional[dict] = None,
                 side_conditions: Optional[dict] = None,
                 time_function: Optional[dict] = None,
                 certificate: Optional[dict] = None):
        if status not in STATUSES:
            raise ValueError("unknown status %r" % status)
        self.status, self.verb, self.version = status, verb, version
        self.input_hash, self.reason, self.stage = input_hash, reason, stage
        self.classification = classification
        self.side_conditions = side_conditions
        self.time_function = time_function
        self.certificate = certificate


# ------------------------------------------------------- json conversion


def _num(x):
    """Floats must be finite for strict JSON; None marks non-finite."""
    return float(x) if x is not None and math.isfinite(x) else None


def _complex_obj(z):
    return None if z is None else {"re": _num(z.real), "im": _num(z.imag)}


def _frac(v):
    return None if v is None else str(v)


def _classification_obj(cl) -> dict:
    sp = cl.spectrum
    return {
        "effective": cl.effective,
        "witness": _complex_obj(cl.witness),
        "tag": sp.tag,
        "eigenvalues": [_complex_obj(z) for z in sp.eigenvalues],
    }


def _side_obj(rep) -> dict:
    return {
        "ok": rep.ok,
        "double_bracket": _frac(rep.double_bracket),
        "bbis_sum": _frac(rep.bbis_sum),
        "bbis_ok": rep.bbis_ok,
        "one_sided_ok": rep.one_sided_ok,
        "one_sided_witness": point_obj(rep.one_sided_witness),
        "grid": rep.grid,
        "notes": list(rep.notes),
    }


def _timefn_obj(cert) -> dict:
    return {
        "branch": cert.branch,
        "phi": str(cert.phi) or "0",
        "phi_terms": poly_terms(cert.phi),
        "kappa_target": _frac(cert.kappa_target),
        "slack": _frac(cert.slack),
        "eps": [str(v) for v in cert.eps],
        "rho_weight": _frac(cert.rho_weight),
        "alpha": [str(v) for v in cert.alpha],
    }


def _theta_obj(theta) -> dict:
    return {"t": str(theta.t), "z_x": [str(v) for v in theta.z_x],
            "z_xi": [str(v) for v in theta.z_xi], "eps": str(theta.eps),
            "x_p": _frac(theta.x_p)}


def _worst_obj(worst):
    """A structural check's worst: (grid point,) of a scan, or (L,
    ((factor, bound), ..)) of the reconstruction's spring floor."""
    if worst is None or len(worst) == 1:
        return point_obj(worst and worst[0])
    floor, bounds = worst
    return {"floor": str(floor),
            "factors": {name: str(v) for name, v in bounds}}


def _certificate_obj(report, structural) -> dict:
    nonneg, c, kappa = report.nonneg, report.c, report.kappa
    return {
        "label": "empirical",
        "nonneg": {
            "passed": nonneg.passed,
            "min_value": _num(nonneg.min_value),
            "witness": point_obj(nonneg.witness),
            "n_points": nonneg.n_points,
        },
        "one_sided": nonneg.negative_side.found_negative,
        "negative_side": {
            "found_negative": nonneg.negative_side.found_negative,
            "witness": point_obj(nonneg.negative_side.witness),
            "value": _num(nonneg.negative_side.value),
        },
        "c_est": _num(c.value),
        "c_witness": point_obj(c.witness),
        "c_excluded": c.n_excluded,
        "c_total": c.n_total,
        "kappa_est": _num(kappa.value),
        "kappa_witness": point_obj(kappa.witness),
        "kappa_excluded": kappa.n_excluded,
        "kappa_total": kappa.n_total,
        "grid": report.grid,
        "structural": {
            "passed": structural.passed,
            "checks": [{"name": ch.name, "passed": ch.passed,
                        "value": _num(ch.value),
                        "worst": _worst_obj(ch.worst),
                        "n_points": ch.n_points}
                       for ch in structural.checks],
            "grid": structural.grid,
        },
    }


# ---------------------------------------------------------------- pipeline


def run_pipeline(sf: SymbolFile, verb: str = "certify") -> Report:
    """classify or certify a parsed symbol file; never raises for
    mathematical failures, which land in the report instead."""
    fields = dict(verb=verb, version=__version__, input_hash=sf.sha256)

    def report(status, stage, reason=None):
        return Report(status=status, stage=stage, reason=reason, **fields)

    p = sf.a - PolySymbol.coordinate(sf.d, "tau") ** 2
    try:
        cl = classify_effective_hyperbolicity(p, sf.base_point)
    except NotSingular as exc:
        return report("FAILED", "singular-check",
                      "base point is not a double characteristic: %s" % exc)
    except (NoConvergence, DimensionMismatch) as exc:
        return report("FAILED", "classify", str(exc))
    fields["classification"] = _classification_obj(cl)
    if not cl.effective:
        return report("FAILED", "classify",
                      "not effectively hyperbolic (tag %s)" % cl.spectrum.tag)
    if verb == "classify":
        return report("NOT_APPLICABLE", "classify",
                      "classification only; nothing certified")

    from hypcert.normal_forms import InvariantViolation, check_side_conditions
    from hypcert.time_functions import construct_time_function
    from hypcert.verifier import ScanTooLarge, certify_region, check_structural

    spec = sf.normal_form
    if spec is None:
        return report("NOT_APPLICABLE", "normal-form",
                      "no normal_form block; nothing to certify")
    if sf.base_point != spec.base_point():
        return report("FAILED", "normal-form",
                      "the normal form, time function and scans are centred "
                      "on (0, 0, 0, e_d); certify needs that base point")
    if spec.a != sf.a:
        return report("FAILED", "normal-form",
                      "normal_form does not assemble to the given terms")

    try:
        side = check_side_conditions(spec)
    except ScanTooLarge as exc:
        return report("FAILED", "side-conditions", str(exc))
    fields["side_conditions"] = _side_obj(side)
    if not side.ok:
        return report("FAILED", "side-conditions",
                      "; ".join(side.notes) or "side conditions failed")

    try:
        cert = construct_time_function(spec, slack=sf.slack)
    except ValueError as exc:
        return report("FAILED", "time-function", str(exc))
    fields["time_function"] = _timefn_obj(cert)

    try:
        cr = certify_region(sf.a, cert.phi, sf.region)
        for est, name, cond in ((cr.c, "c", "a nonzero denominator"),
                                (cr.kappa, "kappa", "a > 0")):
            if est.n_included == 0:
                return report("FAILED", "verify",
                              "%s is empty: none of the %d grid points has "
                              "%s" % (name, est.n_total, cond))
        structural = check_structural(spec, cert, sf.region)
    except (DimensionMismatch, ScanTooLarge, InvariantViolation) as exc:
        return report("FAILED", "verify", str(exc))
    fields["certificate"] = _certificate_obj(cr, structural)

    gates = (
        ("nonnegativity on t >= 0", cr.nonneg.passed),
        ("c_est > 0", cr.c_est > 0),
        ("kappa_est < 1", cr.kappa_est < 1),
        ("structural checks", structural.passed),
    )
    failing = [name for name, ok in gates if not ok]
    if failing:
        return report("FAILED", "done", "failed: " + "; ".join(failing))
    return report("CERTIFIED", "done")


def exit_code(report: Report) -> int:
    if report.status == "CERTIFIED":
        return 0
    if report.status == "NOT_APPLICABLE" and report.verb == "classify":
        return 0
    return 1


# ------------------------------------------------------------------- emit


def _fmt_complex(z: dict) -> str:
    re, im = z["re"], z["im"]
    if im is None or re is None:
        return "non-finite"
    if im == 0:
        return repr(re)
    return "%r%s%rj" % (re, "+" if im >= 0 else "-", abs(im))


def _report_dict(report: Report) -> dict:
    """The report's fields, read as they are (no deep copy), None ones
    dropped except reason."""
    return {k: v for k, v in vars(report).items()
            if v is not None or k == "reason"}


def _text_lines(report: Report):
    lines = ["hypcert %s" % report.version,
             "input sha256: %s" % report.input_hash,
             "verb: %s" % report.verb,
             "status: %s" % report.status]
    if report.reason:
        lines.append("reason: %s" % report.reason)
    cl = report.classification
    if cl is not None:
        wit = "none" if cl["witness"] is None else _fmt_complex(cl["witness"])
        lines.append("classification: %s; witness eigenvalue %s; tag %s"
                     % ("effective" if cl["effective"] else "not effective",
                        wit, cl["tag"]))
    sc = report.side_conditions
    if sc is not None:
        extra = "" if sc["bbis_sum"] is None \
            else "; inverse-r sum %s" % sc["bbis_sum"]
        lines.append("side conditions: %s%s"
                     % ("pass" if sc["ok"] else "fail", extra))
    tf = report.time_function
    if tf is not None:
        lines.append("time function: phi = %s; branch %s; kappa target %s"
                     % (tf["phi"], tf["branch"], tf["kappa_target"]))
    ct = report.certificate
    if ct is not None:
        nn = ct["nonneg"]
        neg = ct["negative_side"]
        lines.append("nonnegativity: %s on t >= 0 (grid min %r over %d points)"
                     % ("pass" if nn["passed"] else "FAIL",
                        nn["min_value"], nn["n_points"]))
        lines.append("one-sided: %s%s"
                     % ("yes" if ct["one_sided"] else "no",
                        "" if neg["value"] is None
                        else " (negative value %r for t < 0)" % neg["value"]))
        lines.append("c estimate: %r (empirical; %d of %d grid points "
                     "excluded)" % (ct["c_est"], ct["c_excluded"],
                                    ct["c_total"]))
        lines.append("kappa estimate: %r (empirical; gate kappa < 1: %s)"
                     % (ct["kappa_est"],
                        "pass" if ct["kappa_est"] < 1 else "FAIL"))
        st = ct["structural"]
        parts = ", ".join("%s=%s" % (c["name"], "n/a" if c["value"] is None
                                     else "%r" % c["value"])
                          for c in st["checks"])
        lines.append("structural: %s (%s)"
                     % ("pass" if st["passed"] else "FAIL", parts))
        g = ct["grid"]
        lines.append("grid: %d per axis; t_max %s; x_half %s; xi_half %s"
                     % (g["grid"], g["t_max"], g["x_half"], g["xi_half"]))
    return lines


def emit_report(report: Report, format: str = "json") -> bytes:
    if format == "json":
        return dumps(_report_dict(report))
    if format == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    raise ValueError("unknown format %r" % format)


# -------------------------------------------------------------------- cli


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(3)


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("zero denominator")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("not a rational: %s" % exc)


def _rational_list(text: str) -> Tuple[Fraction, ...]:
    if not text.strip():
        return ()
    return tuple(_rational_arg(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypcert",
                     description="classification and grid certification of "
                                 "double characteristics of -tau^2 + a")
    parser.add_argument("--version", action="version",
                        version="hypcert %s" % __version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="symbol JSON file")
    common.add_argument("--out", default=None, help="write report to PATH")
    reporting = argparse.ArgumentParser(add_help=False, parents=[common])
    reporting.add_argument("--format", choices=("json", "text"),
                           default="json")

    sub.add_parser("classify", parents=[reporting],
                   help="singular-point check and spectrum classification")
    cert = sub.add_parser("certify", parents=[reporting],
                          help="full pipeline: classify, side conditions, "
                               "time function, grid certificates")
    cert.add_argument("--grid", type=int, default=None,
                      help="override grid points per axis")
    cert.add_argument("--slack", type=_rational_arg, default=None,
                      help="override kappa slack (exact rational)")
    cert.add_argument("--region", type=_rational_list, default=None,
                      metavar="T,X,XI",
                      help="override region extents t_max,x_half,xi_half")

    mini = sub.add_parser("minimize", parents=[common],
                          help="minimize the extended quadratic functional")
    mini.add_argument("--mode", choices=("raw", "normalized"), default="raw")
    mini.add_argument("--theta-t", type=_rational_arg, default=Fraction(0))
    mini.add_argument("--theta-zx", type=_rational_list, default=None)
    mini.add_argument("--theta-zxi", type=_rational_list, default=None)
    mini.add_argument("--theta-xp", type=_rational_arg, default=None)
    return parser


def _replace(flag: str, obj, **changes):
    try:
        return dataclasses.replace(obj, **changes)
    except ValueError as exc:
        raise SchemaError(flag, str(exc)) from exc


def _apply_overrides(sf: SymbolFile, args) -> SymbolFile:
    region = sf.region
    if args.region is not None:
        if len(args.region) != 3:
            raise SchemaError("--region", "expected t_max,x_half,xi_half")
        t_max, x_half, xi_half = args.region
        region = _replace("--region", region, t_max=t_max, x_half=x_half,
                          xi_half=xi_half)
    if args.grid is not None:
        region = _replace("--grid", region, grid=args.grid)
    if args.slack is not None:
        sf = _replace("--slack", sf, slack=args.slack)
    return dataclasses.replace(sf, region=region)


def _why(exc: OSError) -> str:
    """The reason of an OSError without the path it repeats."""
    return exc.strerror or str(exc)


def _write(data: bytes, out: Optional[str], code: int) -> int:
    """data to the file out (stdout when None); code, or 3 when out cannot
    be written."""
    if not out:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return code
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        sys.stderr.write("hypcert: cannot write %s: %s\n" % (out, _why(exc)))
        return 3
    return code


def _run_minimize(sf: SymbolFile, args) -> int:
    if sf.normal_form is None:
        sys.stderr.write("minimize requires a normal_form block\n")
        return 3
    k = sf.normal_form.d - sf.normal_form.p
    usage = ["%s: expected %d values, got %d" % (flag, k, len(values))
             for flag, values in (("--theta-zx", args.theta_zx),
                                  ("--theta-zxi", args.theta_zxi))
             if values is not None and len(values) != k]
    if sf.normal_form.variant == "form1" and args.theta_xp is not None:
        usage.append("--theta-xp: form1 has no x_p slot")
    if usage:
        sys.stderr.write("hypcert: %s\n" % usage[0])
        return 3
    from hypcert.minimize import minimize_Q
    from hypcert.normal_forms import build_extended_Q

    eq = build_extended_Q(sf.normal_form, mode=args.mode)
    zero = (Fraction(0),) * k
    slow = (args.theta_t, *(args.theta_zx or zero), *(args.theta_zxi or zero))
    if sf.normal_form.variant == "form2":
        slow += (args.theta_xp or Fraction(0),)
    try:
        theta = eq.theta_at(slow)
        res = minimize_Q(eq, theta)
    except (ValueError, NoConvergence) as exc:
        sys.stderr.write("minimize failed: %s\n" % exc)
        return 1
    return _write(dumps({
        "m": _num(res.m),
        "w_bar": [_num(v) for v in res.w_bar],
        "hessian_cond": _num(res.hessian_cond),
        "grad_norm": _num(res.grad_norm),
        "iterations": res.iterations,
        "mode": args.mode,
        "theta": _theta_obj(theta),
        "version": __version__,
        "input_hash": sf.sha256,
    }), args.out, 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sf = parse_symbol_file(args.file)
        if args.verb == "certify":
            sf = _apply_overrides(sf, args)
    except (ParseError, SchemaError) as exc:
        sys.stderr.write("hypcert: %s\n" % exc)
        return 3
    except OSError as exc:
        sys.stderr.write("hypcert: cannot read %s: %s\n"
                         % (args.file, _why(exc)))
        return 3

    if args.verb == "minimize":
        return _run_minimize(sf, args)

    report = run_pipeline(sf, verb=args.verb)
    return _write(emit_report(report, format=args.format), args.out,
                  exit_code(report))

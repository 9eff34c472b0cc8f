"""Pipeline orchestration and report emission.

certify runs: singular-point check -> classification -> side conditions
-> time function -> grid certificates, short-circuiting on the first
failing stage.  Reports are deterministic: identical input bytes and
options produce identical output bytes, independent of worker count.

Exit codes: 0 CERTIFIED, 1 FAILED (and NOT_APPLICABLE under certify),
2 MARGINAL, 3 usage or unreadable input.  `classify` exits 0 when the
point is effectively hyperbolic even though nothing was certified.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from hypcert import __version__
from hypcert.normal_forms import (
    build_extended_Q,
    build_normal_form,
    check_side_conditions,
)
from hypcert.spectral import NoConvergence, classify_effective_hyperbolicity
from hypcert.symbols import (
    DimensionMismatch,
    NotSingular,
    PhasePoint,
    PolySymbol,
    check_frame,
)
from hypcert.symbolfile import (
    ParseError,
    SchemaError,
    SymbolFile,
    parse_symbol_file,
    poly_terms,
)
from hypcert.time_functions import construct_time_function
from hypcert.verifier import (
    AllPointsDegenerate,
    HessianDegenerate,
    STRUCTURAL_CUTOFF,
    ScanTooLarge,
    certify_region,
    minimize_Q,
)

STATUSES = ("CERTIFIED", "FAILED", "MARGINAL", "NOT_APPLICABLE")


@dataclass(frozen=True)
class Report:
    status: str
    verb: str
    version: str
    input_hash: str
    reason: Optional[str] = None
    stage: Optional[str] = None
    classification: Optional[dict] = None
    side_conditions: Optional[dict] = None
    time_function: Optional[dict] = None
    certificate: Optional[dict] = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError("unknown status %r" % self.status)


# ------------------------------------------------------- json conversion


def _num(x):
    """Floats must be finite for strict JSON; None marks non-finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _complex_obj(z):
    return None if z is None else {"re": _num(z.real), "im": _num(z.imag)}


def _point_obj(pt):
    if pt is None:
        return None
    if isinstance(pt, PhasePoint):
        return {"t": str(pt.t), "x": [str(v) for v in pt.x],
                "tau": str(pt.tau), "xi": [str(v) for v in pt.xi]}
    return [str(v) for v in pt]


def _frac(v):
    return None if v is None else str(v)


def _classification_obj(cl) -> dict:
    sp = cl.spectrum
    return {
        "effective": cl.effective,
        "witness": _complex_obj(cl.witness),
        "tag": sp.tag,
        "tol": _num(sp.tol),
        "eigenvalues": [_complex_obj(z) for z in sp.eigenvalues],
        "marginal": [_complex_obj(z) for z in sp.marginal],
    }


def _side_obj(rep) -> dict:
    return {
        "ok": rep.ok,
        "double_bracket": _frac(rep.double_bracket),
        "bbis_sum": _frac(rep.bbis_sum),
        "bbis_ok": rep.bbis_ok,
        # NormalFormSpec enforces q, r > 0 at the base point on construction
        "positivity_ok": True,
        "one_sided_ok": rep.one_sided_ok,
        "one_sided_witness": _point_obj(rep.one_sided_witness),
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
        "notes": list(cert.notes),
    }


def _certificate_obj(report) -> dict:
    nonneg, c, kappa = report.nonneg, report.c, report.kappa
    obj = {
        "label": "empirical",
        "nonneg": {
            "passed": nonneg.passed,
            "min_value": _num(nonneg.min_value),
            "witness": _point_obj(nonneg.witness),
            "n_points": nonneg.n_points,
        },
        "one_sided": nonneg.negative_side.found_negative,
        "negative_side": {
            "found_negative": nonneg.negative_side.found_negative,
            "witness": _point_obj(nonneg.negative_side.witness),
            "value": None if nonneg.negative_side.value is None
            else _num(nonneg.negative_side.value),
        },
        "c_est": _num(c.value),
        "c_witness": _point_obj(c.witness),
        "c_excluded": c.n_excluded,
        "c_total": c.n_total,
        "kappa_est": _num(kappa.value),
        "kappa_witness": _point_obj(kappa.witness),
        "kappa_excluded": kappa.n_excluded,
        "kappa_total": kappa.n_total,
        "eta_den": _num(c.eta_den),
        "grid": c.grid,
    }
    structural = report.structural
    if structural is not None:
        obj["structural"] = {
            "passed": structural.passed,
            "checks": [{"name": ch.name, "passed": ch.passed,
                        "value": None if ch.value is None else _num(ch.value),
                        "n_points": ch.n_points}
                       for ch in structural.checks],
            "grid": structural.grid,
        }
    return obj


# ---------------------------------------------------------------- pipeline


def _minus_tau_squared(d: int) -> PolySymbol:
    tau = PolySymbol.coordinate(d, "tau")
    return PolySymbol.zero(d) - tau * tau


def run_pipeline(sf: SymbolFile, verb: str = "certify") -> Report:
    """classify or certify a parsed symbol file; never raises for
    mathematical failures, which land in the report instead."""
    base = dict(verb=verb, version=__version__, input_hash=sf.sha256)
    p = _minus_tau_squared(sf.d) + sf.a

    try:
        cl = classify_effective_hyperbolicity(p, sf.base_point,
                                              tol=sf.options.tol)
    except NotSingular as exc:
        reason = "base point is not a double characteristic: %s" % exc
        return Report(status="FAILED", reason=reason, stage="singular-check",
                      **base)
    except NoConvergence as exc:
        return Report(status="FAILED", reason=str(exc), stage="classify",
                      **base)
    cls_obj = _classification_obj(cl)
    marginal = bool(cl.spectrum.marginal)

    if verb == "classify":
        if marginal:
            status, reason = "MARGINAL", "eigenvalues within the tolerance band"
        elif cl.effective:
            status, reason = "NOT_APPLICABLE", "classification only; nothing certified"
        else:
            status, reason = "FAILED", "not effectively hyperbolic (tag %s)" % cl.spectrum.tag
        return Report(status=status, reason=reason, stage="classify",
                      classification=cls_obj, **base)

    if not cl.effective:
        status = "MARGINAL" if marginal else "FAILED"
        return Report(status=status, stage="classify",
                      reason="not effectively hyperbolic (tag %s)" % cl.spectrum.tag,
                      classification=cls_obj, **base)

    if sf.normal_form is None:
        return Report(status="NOT_APPLICABLE", stage="normal-form",
                      reason="no normal_form block; nothing to certify",
                      classification=cls_obj, **base)

    spec = sf.normal_form
    if sf.base_point != spec.base_point():
        return Report(status="FAILED", stage="normal-form",
                      reason="the normal form, time function and scans are "
                             "centred on (0, 0, 0, e_d); certify needs that "
                             "base point",
                      classification=cls_obj, **base)
    if build_normal_form(spec) != sf.a:
        return Report(status="FAILED", stage="normal-form",
                      reason="normal_form does not assemble to the given terms",
                      classification=cls_obj, **base)

    side = check_side_conditions(spec)
    side_obj = _side_obj(side)
    if not side.ok:
        return Report(status="FAILED", stage="side-conditions",
                      reason="; ".join(side.notes) or "side conditions failed",
                      classification=cls_obj, side_conditions=side_obj, **base)

    try:
        cert = construct_time_function(spec, slack=sf.options.slack)
    except ValueError as exc:
        return Report(status="FAILED", stage="time-function", reason=str(exc),
                      classification=cls_obj, side_conditions=side_obj, **base)
    tf_obj = _timefn_obj(cert)

    try:
        cr = certify_region(sf.a, cert.phi, sf.region, spec=spec, cert=cert)
    except (AllPointsDegenerate, HessianDegenerate, NoConvergence,
            DimensionMismatch, ScanTooLarge) as exc:
        return Report(status="FAILED", stage="verify", reason=str(exc),
                      classification=cls_obj, side_conditions=side_obj,
                      time_function=tf_obj, **base)
    cert_obj = _certificate_obj(cr)

    gates = (
        ("nonnegativity on t >= 0", cr.nonneg.passed),
        ("c_est > 0", cr.c_est > 0),
        ("kappa_est < 1", cr.kappa_est < 1),
        ("structural checks", cr.structural.passed),
    )
    failing = [name for name, ok in gates if not ok]
    if failing:
        status, reason = "FAILED", "failed: " + "; ".join(failing)
    elif marginal:
        status, reason = "MARGINAL", "eigenvalues within the tolerance band"
    else:
        status, reason = "CERTIFIED", None
    return Report(status=status, reason=reason, stage="done",
                  classification=cls_obj, side_conditions=side_obj,
                  time_function=tf_obj, certificate=cert_obj, **base)


def exit_code(report: Report) -> int:
    if report.status == "CERTIFIED":
        return 0
    if report.status == "MARGINAL":
        return 2
    if report.status == "NOT_APPLICABLE" and report.verb == "classify":
        return 0
    return 1


# ------------------------------------------------------------------- emit


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def _fmt_complex(z: dict) -> str:
    re, im = z["re"], z["im"]
    if im is None or re is None:
        return "non-finite"
    if im == 0:
        return repr(re)
    return "%r%s%rj" % (re, "+" if im >= 0 else "-", abs(im))


def _report_dict(report: Report) -> dict:
    doc = dataclasses.asdict(report)
    return {k: v for k, v in doc.items() if v is not None or
            k in ("reason",)}


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
        if cl["marginal"]:
            eigs = ", ".join(_fmt_complex(z) for z in cl["marginal"])
            lines.append("marginal eigenvalues (within 10*tol of the real "
                         "axis): %s" % eigs)
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
        st = ct.get("structural")
        if st is not None:
            parts = ", ".join("%s=%s" % (c["name"],
                                         "n/a" if c["value"] is None
                                         else "%r" % c["value"])
                              for c in st["checks"])
            lines.append("structural: %s (%s)"
                         % ("pass" if st["passed"] else "FAIL", parts))
        g = ct["grid"]
        lines.append("grid: %d per axis; t_max %s; x_half %s; xi_half %s; "
                     "eta_den %r" % (g["grid"], g["t_max"], g["x_half"],
                                     g["xi_half"], g["eta_den"]))
    return lines


def emit_report(report: Report, format: str = "json") -> bytes:
    if format == "json":
        return _dumps(_report_dict(report))
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
    except (ValueError, ZeroDivisionError) as exc:
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
    common.add_argument("--grid", type=int, default=None,
                        help="override grid points per axis")
    common.add_argument("--tol", type=float, default=None,
                        help="override classification tolerance")
    common.add_argument("--slack", type=_rational_arg, default=None,
                        help="override kappa slack (exact rational)")
    common.add_argument("--region", type=_rational_list, default=None,
                        metavar="T,X,XI",
                        help="override region extents t_max,x_half,xi_half")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write report to PATH")

    sub.add_parser("classify", parents=[common],
                   help="singular-point check and spectrum classification")
    sub.add_parser("certify", parents=[common],
                   help="full pipeline: classify, side conditions, time "
                        "function, grid certificates")

    mini = sub.add_parser("minimize", parents=[common],
                          help="minimize the extended quadratic functional")
    mini.add_argument("--mode", choices=("raw", "normalized"), default="raw")
    mini.add_argument("--theta-t", type=_rational_arg, default=Fraction(0))
    mini.add_argument("--theta-zx", type=_rational_list, default=None)
    mini.add_argument("--theta-zxi", type=_rational_list, default=None)
    mini.add_argument("--theta-xp", type=_rational_arg, default=None)

    sub.add_parser("check-frame", parents=[common],
                   help="verify a candidate symplectic frame block")
    return parser


def _replace(flag: str, obj, **changes):
    try:
        return dataclasses.replace(obj, **changes)
    except ValueError as exc:
        raise SchemaError(flag, str(exc)) from exc


def _apply_overrides(sf: SymbolFile, args) -> SymbolFile:
    region, options = sf.region, sf.options
    if args.region is not None:
        if len(args.region) != 3:
            raise SchemaError("--region", "expected t_max,x_half,xi_half")
        t_max, x_half, xi_half = args.region
        region = _replace("--region", region, t_max=t_max, x_half=x_half,
                          xi_half=xi_half)
    if args.grid is not None:
        region = _replace("--grid", region, grid=args.grid)
    if args.slack is not None:
        options = _replace("--slack", options, slack=args.slack)
    if args.tol is not None:
        options = _replace("--tol", options, tol=args.tol)
    return dataclasses.replace(sf, region=region, options=options)


def _write(data: bytes, out: Optional[str]):
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _run_minimize(sf: SymbolFile, args) -> int:
    if sf.normal_form is None:
        sys.stderr.write("minimize requires a normal_form block\n")
        return 3
    eq = build_extended_Q(sf.normal_form, STRUCTURAL_CUTOFF, mode=args.mode)
    k = sf.normal_form.d - sf.normal_form.p
    zx = args.theta_zx if args.theta_zx is not None else (Fraction(0),) * k
    zxi = args.theta_zxi if args.theta_zxi is not None else (Fraction(0),) * k
    xp = args.theta_xp
    if sf.normal_form.variant == "form2" and xp is None:
        xp = Fraction(0)
    try:
        theta = eq.pinned_theta(args.theta_t, zx, zxi, x_p=xp)
        res = minimize_Q(eq, theta)
    except (DimensionMismatch, ValueError, HessianDegenerate,
            NoConvergence) as exc:
        sys.stderr.write("minimize failed: %s\n" % exc)
        return 1
    _write(_dumps({
        "m": _num(res.m),
        "w_bar": [_num(v) for v in res.w_bar],
        "hessian_cond": _num(res.hessian_cond),
        "grad_norm": _num(res.grad_norm),
        "iterations": res.iterations,
        "mode": args.mode,
        "theta": {"t": str(theta.t), "z_x": [str(v) for v in theta.z_x],
                  "z_xi": [str(v) for v in theta.z_xi],
                  "eps": str(theta.eps),
                  "x_p": None if theta.x_p is None else str(theta.x_p)},
        "version": __version__,
        "input_hash": sf.sha256,
    }), args.out)
    return 0


def _run_check_frame(sf: SymbolFile, args) -> int:
    if sf.frame is None:
        sys.stderr.write("check-frame requires a frame block\n")
        return 3
    rep = check_frame(sf.frame)
    _write(_dumps({
        "ok": rep.ok,
        "checks": [{"name": name, "ok": ok} for name, ok in rep.checks],
        "failures": list(rep.failures),
        "version": __version__,
        "input_hash": sf.sha256,
    }), args.out)
    return 0 if rep.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sf = parse_symbol_file(args.file)
        sf = _apply_overrides(sf, args)
    except (ParseError, SchemaError) as exc:
        sys.stderr.write("hypcert: %s\n" % exc)
        return 3
    except OSError as exc:
        sys.stderr.write("hypcert: cannot read %s: %s\n" % (args.file, exc))
        return 3

    if args.verb == "minimize":
        return _run_minimize(sf, args)
    if args.verb == "check-frame":
        return _run_check_frame(sf, args)

    report = run_pipeline(sf, verb=args.verb)
    _write(emit_report(report, format=args.format), args.out)
    return exit_code(report)

"""JSON symbol files.

All numeric data in a symbol file is exact: coefficients, base point
coordinates and region extents are "num/den" strings, never floats.
Serialization is canonical (sorted keys, graded-lex term order, two
space indent, trailing newline), so serialize(parse(x)) == x holds
byte-for-byte whenever x was produced by the serializer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from hypcert.normal_forms import InvariantViolation, NormalFormSpec
from hypcert.symbols import (
    CandidateFrame,
    DimensionMismatch,
    PhasePoint,
    PolySymbol,
    var_index,
    var_names,
)
from hypcert.verifier import Region

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed JSON; carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class SchemaError(ValueError):
    """Structurally invalid symbol file; message names the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


class DimensionError(SchemaError):
    """An index or length is inconsistent with the declared dimension."""


@dataclass(frozen=True)
class Options:
    slack: Fraction = Fraction(1, 100)
    tol: Optional[float] = None

    def __post_init__(self):
        if self.slack <= 0:
            raise ValueError("slack must be positive")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SymbolFile:
    schema: int
    d: int
    base_point: PhasePoint
    a: PolySymbol
    region: Region
    options: Options
    normal_form: Optional[NormalFormSpec] = None
    frame: Optional[CandidateFrame] = None
    sha256: str = ""  # of the source bytes; not serialized


# ------------------------------------------------------------------ parse


def _dict(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in required:
        if key not in obj:
            raise SchemaError(path, "missing required key %r" % key)
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(path, "unknown key %r" % key)
    return obj


def _rational(v, path) -> Fraction:
    if not isinstance(v, str):
        raise SchemaError(path, "exact rationals must be strings, got %r" % (v,))
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, "not a rational: %s" % exc) from exc


def _int(v, path, minimum=None):
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(path, "expected an integer, got %r" % (v,))
    if minimum is not None and v < minimum:
        raise SchemaError(path, "must be >= %d" % minimum)
    return v


def _poly(lst, d, path, allow_zero=False) -> PolySymbol:
    if not isinstance(lst, list):
        raise SchemaError(path, "expected a term list")
    if not lst and not allow_zero:
        raise SchemaError(path, "term list must be nonempty")
    total = PolySymbol.zero(d)
    names = set(var_names(d))
    for i, item in enumerate(lst):
        tp = "%s[%d]" % (path, i)
        term = _dict(item, tp, required=("coeff", "exponents"))
        coeff = _rational(term["coeff"], tp + ".coeff")
        exps = term["exponents"]
        if not isinstance(exps, dict):
            raise SchemaError(tp + ".exponents", "expected an object")
        exponents = [0] * (2 * (d + 1))
        for name, e in exps.items():
            ep = "%s.exponents.%s" % (tp, name)
            if name not in names:
                if name == "t" or name == "tau" or \
                        (name[:1] == "x" and name[1:].isdigit()) or \
                        (name[:2] == "xi" and name[2:].isdigit()):
                    raise DimensionError(ep, "variable out of range for d=%d" % d)
                raise SchemaError(ep, "unknown variable name")
            exponents[var_index(d, name)] = _int(e, ep, minimum=0)
        mono = PolySymbol(d, {tuple(exponents): coeff}) if coeff else PolySymbol.zero(d)
        total = total + mono
    if total.is_zero and not allow_zero:
        raise SchemaError(path, "terms cancel to zero")
    return total


def _point(obj, d, path) -> PhasePoint:
    pt = _dict(obj, path, required=("t", "x", "tau", "xi"))
    for key in ("x", "xi"):
        if not isinstance(pt[key], list) or len(pt[key]) != d:
            raise DimensionError("%s.%s" % (path, key),
                                 "expected a list of %d rationals" % d)
    return PhasePoint(
        _rational(pt["t"], path + ".t"),
        tuple(_rational(v, "%s.x[%d]" % (path, i)) for i, v in enumerate(pt["x"])),
        _rational(pt["tau"], path + ".tau"),
        tuple(_rational(v, "%s.xi[%d]" % (path, i)) for i, v in enumerate(pt["xi"])))


def _normal_form(obj, d, path) -> NormalFormSpec:
    nf = _dict(obj, path, required=("variant", "p", "q", "r"),
               optional=("phi", "psi", "g"))
    variant = nf["variant"]
    if variant not in ("form1", "form2"):
        raise SchemaError(path + ".variant", "must be 'form1' or 'form2'")
    p = _int(nf["p"], path + ".p", minimum=0)
    for key in ("q", "r"):
        if not isinstance(nf[key], list):
            raise SchemaError("%s.%s" % (path, key), "expected a list of term lists")
    q = tuple(_poly(tl, d, "%s.q[%d]" % (path, i)) for i, tl in enumerate(nf["q"]))
    r = tuple(_poly(tl, d, "%s.r[%d]" % (path, i)) for i, tl in enumerate(nf["r"]))
    branch = {"form1": ("phi", "psi"), "form2": ("g",)}[variant]
    for key in branch:
        if key not in nf:
            raise SchemaError(path, "variant %s requires key %r" % (variant, key))
    for key in ("phi", "psi", "g"):
        if key not in branch and key in nf:
            raise SchemaError(path + "." + key,
                              "not allowed for variant %s" % variant)
    kwargs = {}
    if variant == "form1":
        kwargs["phi"] = _poly(nf["phi"], d, path + ".phi", allow_zero=True)
        kwargs["psi"] = _poly(nf["psi"], d, path + ".psi", allow_zero=True)
    else:
        kwargs["g"] = _poly(nf["g"], d, path + ".g", allow_zero=True)
    try:
        return NormalFormSpec(variant=variant, d=d, p=p, q=q, r=r, **kwargs)
    except (InvariantViolation, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc


def _region(obj, path) -> Region:
    reg = _dict(obj, path, required=("t_max", "x_half", "xi_half", "grid"),
                optional=("eta_den",))
    eta = reg.get("eta_den")
    if eta is not None and not isinstance(eta, (int, float)):
        raise SchemaError(path + ".eta_den", "expected a number")
    try:
        return Region(t_max=_rational(reg["t_max"], path + ".t_max"),
                      x_half=_rational(reg["x_half"], path + ".x_half"),
                      xi_half=_rational(reg["xi_half"], path + ".xi_half"),
                      grid=_int(reg["grid"], path + ".grid"),
                      eta_den=None if eta is None else float(eta))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _options(obj, path) -> Options:
    opt = _dict(obj, path, required=(), optional=("slack", "tol"))
    slack = Fraction(1, 100)
    if "slack" in opt:
        slack = _rational(opt["slack"], path + ".slack")
    tol = opt.get("tol")
    if tol is not None and not isinstance(tol, (int, float)):
        raise SchemaError(path + ".tol", "expected a number")
    try:
        return Options(slack=slack, tol=None if tol is None else float(tol))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _frame(obj, d, base, path) -> CandidateFrame:
    fr = _dict(obj, path, required=("j_start", "pairs"))
    j_start = _int(fr["j_start"], path + ".j_start", minimum=1)
    if not isinstance(fr["pairs"], list):
        raise SchemaError(path + ".pairs", "expected a list")
    pairs = []
    for i, item in enumerate(fr["pairs"]):
        pp = "%s.pairs[%d]" % (path, i)
        pair = _dict(item, pp, required=("X", "Xi"))
        pairs.append((_poly(pair["X"], d, pp + ".X", allow_zero=True),
                      _poly(pair["Xi"], d, pp + ".Xi", allow_zero=True)))
    try:
        return CandidateFrame(d=d, j_start=j_start, pairs=tuple(pairs), base=base)
    except (DimensionMismatch, ValueError) as exc:
        raise DimensionError(path, str(exc)) from exc


def parse_symbol_data(data: bytes, name: str = "<data>") -> SymbolFile:
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8 (%s)" % (name, exc))

    def no_duplicates(pairs):
        out = {}
        for k, v in pairs:
            if k in out:
                raise ValueError("duplicate key %r" % k)
            out[k] = v
        return out

    try:
        doc = json.loads(text, object_pairs_hook=no_duplicates)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    top = _dict(doc, "$", required=("schema", "d", "terms"),
                optional=("base_point", "normal_form", "region", "options",
                          "frame"))
    if _int(top["schema"], "$.schema") != SCHEMA_VERSION:
        raise SchemaError("$.schema", "unsupported schema version %r"
                          % top["schema"])
    d = _int(top["d"], "$.d", minimum=1)
    a = _poly(top["terms"], d, "$.terms")
    base = _point(top["base_point"], d, "$.base_point") \
        if "base_point" in top else PhasePoint.base(d)
    normal_form = _normal_form(top["normal_form"], d, "$.normal_form") \
        if "normal_form" in top else None
    region = _region(top["region"], "$.region") if "region" in top else Region()
    options = _options(top["options"], "$.options") \
        if "options" in top else Options()
    frame = _frame(top["frame"], d, base, "$.frame") if "frame" in top else None
    return SymbolFile(schema=SCHEMA_VERSION, d=d, base_point=base, a=a,
                      region=region, options=options, normal_form=normal_form,
                      frame=frame, sha256=digest)


def parse_symbol_file(path) -> SymbolFile:
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_symbol_data(data, name=path)


# -------------------------------------------------------------- serialize


def poly_terms(p: PolySymbol) -> List[dict]:
    names = var_names(p.d)
    out = []
    for exps, c in p.sorted_terms():
        exponents = {names[i]: e for i, e in enumerate(exps) if e}
        out.append({"coeff": str(c), "exponents": exponents})
    return out


def _point_obj(pt: PhasePoint) -> dict:
    return {"t": str(pt.t), "x": [str(v) for v in pt.x],
            "tau": str(pt.tau), "xi": [str(v) for v in pt.xi]}


def _normal_form_obj(spec: NormalFormSpec) -> dict:
    obj = {"variant": spec.variant, "p": spec.p,
           "q": [poly_terms(q) for q in spec.q],
           "r": [poly_terms(r) for r in spec.r]}
    if spec.variant == "form1":
        obj["phi"] = poly_terms(spec.phi)
        obj["psi"] = poly_terms(spec.psi)
    else:
        obj["g"] = poly_terms(spec.g)
    return obj


def _region_obj(region: Region) -> dict:
    obj = {"t_max": str(region.t_max), "x_half": str(region.x_half),
           "xi_half": str(region.xi_half), "grid": region.grid}
    if region.eta_den is not None:
        obj["eta_den"] = region.eta_den
    return obj


def _options_obj(options: Options) -> dict:
    obj = {"slack": str(options.slack)}
    if options.tol is not None:
        obj["tol"] = options.tol
    return obj


def serialize_symbol_file(sf: SymbolFile) -> bytes:
    doc = {"schema": sf.schema, "d": sf.d,
           "base_point": _point_obj(sf.base_point),
           "terms": poly_terms(sf.a),
           "region": _region_obj(sf.region),
           "options": _options_obj(sf.options)}
    if sf.normal_form is not None:
        doc["normal_form"] = _normal_form_obj(sf.normal_form)
    if sf.frame is not None:
        doc["frame"] = {
            "j_start": sf.frame.j_start,
            "pairs": [{"X": poly_terms(X), "Xi": poly_terms(Xi)}
                      for X, Xi in sf.frame.pairs]}
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")

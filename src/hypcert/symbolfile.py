"""JSON symbol files.

All numeric data in a symbol file is exact: coefficients, base point
coordinates and region extents are "num/den" strings, never floats.
Serialization is canonical (sorted keys, graded-lex term order, two
space indent, trailing newline), so serialize(parse(x)) == x holds
byte-for-byte whenever x was produced by the serializer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import List, Optional

# CPython's built-in SHA-256 (_sha2 from 3.12, _sha256 before): hashlib
# maps OpenSSL's libcrypto, about 3.5 MB of resident memory, for one hash
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from hypcert.normal_forms import NormalFormSpec
from hypcert.symbols import (
    PhasePoint,
    PolySymbol,
    as_fraction,
    var_index,
    var_names,
)

SCHEMA_VERSION = 1
DEFAULT_GRID = 33
DEFAULT_SLACK = Fraction(1, 100)


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


@dataclass(frozen=True)
class Region:
    """t in [0, t_max], |x_j| <= x_half, |xi - e_d| <= xi_half per axis,
    and uniform grid points per axis: the region that certify scans."""

    t_max: Fraction = Fraction(1, 10)
    x_half: Fraction = Fraction(1, 10)
    xi_half: Fraction = Fraction(1, 10)
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        for name in ("t_max", "x_half", "xi_half"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if min(self.t_max, self.x_half, self.xi_half) <= 0:
            raise ValueError("region extents must be positive")
        if self.grid < 3:
            raise ValueError("grid counts must be >= 3")

    def metadata(self) -> dict:
        return {"t_max": str(self.t_max), "x_half": str(self.x_half),
                "xi_half": str(self.xi_half), "grid": self.grid}


@dataclass(frozen=True)
class SymbolFile:
    """A symbol file's content: its schema version is SCHEMA_VERSION and
    its dimension is a's; slack is its "options" block."""

    base_point: PhasePoint
    a: PolySymbol
    region: Region
    slack: Fraction = DEFAULT_SLACK
    normal_form: Optional[NormalFormSpec] = None
    sha256: str = ""  # of the source bytes; not serialized

    def __post_init__(self):
        if self.slack <= 0:
            raise ValueError("slack must be positive")

    @property
    def d(self) -> int:
        return self.a.d


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
    except ZeroDivisionError as exc:
        raise SchemaError(path, "zero denominator") from exc
    except ValueError as exc:
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
    pairs = []
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
                    raise SchemaError(ep, "variable out of range for d=%d" % d)
                raise SchemaError(ep, "unknown variable name")
            exponents[var_index(d, name)] = _int(e, ep, minimum=0)
        pairs.append((exponents, coeff))
    total = PolySymbol(d, pairs)
    if total.is_zero and not allow_zero:
        raise SchemaError(path, "terms cancel to zero")
    return total


def _point(obj, d, path) -> PhasePoint:
    pt = _dict(obj, path, required=("t", "x", "tau", "xi"))
    for key in ("x", "xi"):
        if not isinstance(pt[key], list) or len(pt[key]) != d:
            raise SchemaError("%s.%s" % (path, key),
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
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _region(obj, path) -> Region:
    reg = _dict(obj, path, required=("t_max", "x_half", "xi_half", "grid"))
    try:
        return Region(t_max=_rational(reg["t_max"], path + ".t_max"),
                      x_half=_rational(reg["x_half"], path + ".x_half"),
                      xi_half=_rational(reg["xi_half"], path + ".xi_half"),
                      grid=_int(reg["grid"], path + ".grid"))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_symbol_data(data: bytes, name: str = "<data>") -> SymbolFile:
    digest = sha256(data).hexdigest()
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
                optional=("base_point", "normal_form", "region", "options"))
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
    opt = _dict(top.get("options", {}), "$.options", required=(),
                optional=("slack",))
    slack = _rational(opt["slack"], "$.options.slack") if "slack" in opt \
        else DEFAULT_SLACK
    try:
        return SymbolFile(base_point=base, a=a, region=region, slack=slack,
                          normal_form=normal_form, sha256=digest)
    except ValueError as exc:  # the slack
        raise SchemaError("$.options", str(exc)) from exc


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


def point_obj(pt):
    """A PhasePoint as its named coordinates, a plain sequence of exact
    values as a list, None as None."""
    if pt is None:
        return None
    if isinstance(pt, PhasePoint):
        return {"t": str(pt.t), "x": [str(v) for v in pt.x],
                "tau": str(pt.tau), "xi": [str(v) for v in pt.xi]}
    return [str(v) for v in pt]


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


def serialize_symbol_file(sf: SymbolFile) -> bytes:
    """The canonical bytes of sf.  ValueError names a base_point or
    normal_form whose dimension is not a's, which the parser refuses."""
    for name, part in (("base_point", sf.base_point),
                       ("normal_form", sf.normal_form)):
        if part is not None and part.d != sf.d:
            raise ValueError("%s: dimension %d differs from the terms' d=%d"
                             % (name, part.d, sf.d))
    doc = {"schema": SCHEMA_VERSION, "d": sf.d,
           "base_point": point_obj(sf.base_point),
           "terms": poly_terms(sf.a),
           "region": sf.region.metadata(),
           "options": {"slack": str(sf.slack)}}
    if sf.normal_form is not None:
        doc["normal_form"] = _normal_form_obj(sf.normal_form)
    return dumps(doc)


def dumps(obj) -> bytes:
    """The canonical JSON bytes of obj: sorted keys, two-space indent,
    strict (no nan or inf), a trailing newline.

    The bytes of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) plus the newline, for str keys, written by one
    recursive pass: json's C encoder serves no indent, and its Python
    encoder costs a generator per container.
    """
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _emit(obj, newline: str, out: List[str]) -> None:
    """Append obj's JSON text to out, its nested lines indented past
    newline (a newline and the current indent)."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("Out of range float values are not JSON "
                             "compliant")
        out.append(float.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            out += [sep, inner, _string(key), ": "]
            _emit(value, inner, out)
            sep = ","
        out += [newline, "}"]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for value in obj:
            out += [sep, inner]
            _emit(value, inner, out)
            sep = ","
        out += [newline, "]"]
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)

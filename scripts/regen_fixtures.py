#!/usr/bin/env python3
"""Regenerate the fixture corpus and its golden certify reports.

Run from the repository root:

    python3 scripts/regen_fixtures.py

Fixture files are written through the canonical serializer, so they are
byte-stable; golden reports are the certify pipeline output on each
fixture (deterministic for a fixed tool version).  For each golden it
rewrites, the script prints the JSON paths whose values changed, with
the old and the new value ("absent" for a key that is new or gone).
"""

import json
import pathlib
import sys
from fractions import Fraction as F

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs from a checkout, no install

from hypcert import NormalFormSpec, PhasePoint, PolySymbol, Region
from hypcert.cli import emit_report, run_pipeline
from hypcert.symbolfile import (
    SymbolFile,
    parse_symbol_file,
    serialize_symbol_file,
)
from hypcert.symbols import phase_variables

FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"

t, (x1, x2), tau, (xi1, xi2) = phase_variables(2)


def _file(a, normal_form=None, grid=9):
    return SymbolFile(base_point=PhasePoint.base(2), a=a,
                      region=Region(grid=grid), normal_form=normal_form)


def fixture_files():
    b1 = _file(
        ((t - x1) ** 2 + x1 ** 3) * xi2 ** 2,
        NormalFormSpec(variant="form1", d=2, p=0, q=(xi2 ** 2,), r=(),
                       phi=x1, psi=x1 ** 3))
    b2 = _file(
        (t - x1) ** 2 * xi2 ** 2 + F(1, 2) * xi1 ** 2
        + F(1, 2) * x1 ** 3 * xi2 ** 2,
        NormalFormSpec(variant="form2", d=2, p=1, q=(xi2 ** 2,),
                       r=(PolySymbol.constant(2, F(1, 2)),),
                       g=x1 ** 3 * xi2 ** 2))
    # same shape as b2 but with elliptic weight r = 2: weight sum 1/2 <= 1,
    # so the spectrum is purely imaginary and classification fails
    b2_bbis2 = _file(
        (t - x1) ** 2 * xi2 ** 2 + 2 * xi1 ** 2
        + F(1, 2) * x1 ** 3 * xi2 ** 2,
        NormalFormSpec(variant="form2", d=2, p=1, q=(xi2 ** 2,),
                       r=(PolySymbol.constant(2, 2),),
                       g=F(1, 4) * x1 ** 3 * xi2 ** 2))
    # the base point is not a double characteristic (d a / d t = xi2^2 != 0)
    nonsingular = _file(t * xi2 ** 2)
    # classical two-sided example: nonnegative for t < 0 as well
    classical = _file(
        t ** 2 * (xi1 ** 2 + xi2 ** 2),
        NormalFormSpec(variant="form1", d=2, p=0, q=(xi1 ** 2 + xi2 ** 2,),
                       r=(), phi=PolySymbol.zero(2), psi=PolySymbol.zero(2)))
    return {"b1": b1, "b2": b2, "b2_bbis2": b2_bbis2,
            "nonsingular": nonsingular, "classical": classical}


def changed_paths(old, new, path="$"):
    """(path, old value, new value) for each leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from changed_paths(old.get(key, ABSENT),
                                     new.get(key, ABSENT),
                                     "%s.%s" % (path, key))
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from changed_paths(o, n, "%s[%d]" % (path, i))
    elif old != new or type(old) is not type(new):
        yield path, old, new


ABSENT = object()


def _show(value):
    return "absent" if value is ABSENT else json.dumps(value)


def main():
    FIXTURES.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for name, sf in sorted(fixture_files().items()):
        path = FIXTURES / ("%s.json" % name)
        path.write_bytes(serialize_symbol_file(sf))
        parsed = parse_symbol_file(path)
        report = run_pipeline(parsed, verb="certify")
        golden = GOLDEN / ("%s.certify.json" % name)
        old = json.loads(golden.read_bytes()) if golden.exists() else {}
        data = emit_report(report, format="json")
        golden.write_bytes(data)
        print("%-12s -> %s" % (name, report.status))
        for path, was, now in changed_paths(old, json.loads(data)):
            print("  %s: %s -> %s" % (path, _show(was), _show(now)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

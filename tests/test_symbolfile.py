"""Symbol file parsing, schema enforcement, canonical serialization."""

import hashlib
import json
import pathlib
from fractions import Fraction as F

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import NormalFormSpec, PhasePoint, PolySymbol, Region
from hypcert.cli import main
from hypcert.symbolfile import (
    DEFAULT_SLACK,
    SCHEMA_VERSION,
    ParseError,
    SchemaError,
    SymbolFile,
    dumps,
    parse_symbol_data,
    parse_symbol_file,
    poly_terms,
    serialize_symbol_file,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def minimal_doc(terms=None):
    return {"schema": 1, "d": 2,
            "terms": terms if terms is not None
            else [{"coeff": "1", "exponents": {"t": 2, "xi2": 2}}]}


# ---------------------------------------------------------------- parsing


def test_parse_b2_fixture():
    sf = parse_symbol_file(FIXTURES / "b2.json")
    assert sf.d == 2
    assert len(sf.a.terms) == 5  # canonical expanded term count
    assert sf.normal_form is not None
    assert sf.normal_form.variant == "form2"
    assert sf.base_point == PhasePoint.base(2)
    assert sf.region.grid == 9
    assert sf.slack == F(1, 100)
    assert len(sf.sha256) == 64


def test_parse_minimal_defaults():
    sf = parse_symbol_data(doc_bytes(minimal_doc()))
    assert sf.base_point == PhasePoint.base(2)
    assert sf.region == Region()
    assert sf.slack == DEFAULT_SLACK
    assert sf.normal_form is None


def test_exact_rational_coefficients():
    doc = minimal_doc([{"coeff": "1/3", "exponents": {"xi1": 2}}])
    sf = parse_symbol_data(doc_bytes(doc))
    (coeff,) = sf.a.terms.values()
    assert coeff == F(1, 3)  # no float round-trip


def test_terms_accumulate_and_cancel():
    doc = minimal_doc([
        {"coeff": "1/2", "exponents": {"xi1": 2}},
        {"coeff": "1/2", "exponents": {"xi1": 2}},
    ])
    sf = parse_symbol_data(doc_bytes(doc))
    assert list(sf.a.terms.values()) == [F(1)]
    cancel = minimal_doc([
        {"coeff": "1", "exponents": {"xi1": 2}},
        {"coeff": "-1", "exponents": {"xi1": 2}},
    ])
    with pytest.raises(SchemaError, match="cancel"):
        parse_symbol_data(doc_bytes(cancel))


def test_empty_term_list_rejected():
    with pytest.raises(SchemaError, match="nonempty"):
        parse_symbol_data(doc_bytes(minimal_doc([])))


def test_float_coefficient_rejected():
    doc = minimal_doc([{"coeff": 0.5, "exponents": {"xi1": 2}}])
    with pytest.raises(SchemaError, match="string"):
        parse_symbol_data(doc_bytes(doc))


@pytest.mark.parametrize("coeff,message", [
    ("1/0", "$.terms[0].coeff: zero denominator"),
    ("one", "$.terms[0].coeff: not a rational: "),
], ids=["zero-denominator", "not-a-number"])
def test_bad_rational_coefficient_is_named(coeff, message):
    doc = minimal_doc([{"coeff": coeff, "exponents": {"xi1": 2}}])
    with pytest.raises(SchemaError) as info:
        parse_symbol_data(doc_bytes(doc))
    assert str(info.value).startswith(message)
    assert "Fraction(" not in str(info.value)


@pytest.mark.parametrize("name,message", [
    ("x3", "variable out of range for d=2"),
    ("xi9", "variable out of range for d=2"),
    ("y1", "unknown variable name"), ("zeta", "unknown variable name"),
], ids=["x3", "xi9", "y1", "zeta"])
def test_exponent_variable_names(name, message):
    doc = minimal_doc([{"coeff": "1", "exponents": {name: 2}}])
    with pytest.raises(SchemaError) as info:
        parse_symbol_data(doc_bytes(doc))
    assert str(info.value) == "$.terms[0].exponents.%s: %s" % (name, message)


def test_unknown_keys_rejected_everywhere():
    doc = minimal_doc()
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="surprise"):
        parse_symbol_data(doc_bytes(doc))
    doc = minimal_doc([{"coeff": "1", "exponents": {"t": 2}, "note": "x"}])
    with pytest.raises(SchemaError, match="note"):
        parse_symbol_data(doc_bytes(doc))
    doc = minimal_doc()
    doc["region"] = {"t_max": "1/10", "x_half": "1/10", "xi_half": "1/10",
                     "grid": 9, "color": "red"}
    with pytest.raises(SchemaError, match="color"):
        parse_symbol_data(doc_bytes(doc))


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_symbol_data(b'{\n  "schema": 1,\n  broken\n}')
    assert info.value.line == 3
    assert info.value.column >= 1


def test_duplicate_keys_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_symbol_data(b'{"schema": 1, "schema": 1, "d": 2, "terms": []}')


def test_not_utf8_rejected():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_symbol_data(b"\xff\xfe{}")


def test_schema_version_enforced():
    doc = minimal_doc()
    doc["schema"] = 2
    with pytest.raises(SchemaError, match="schema"):
        parse_symbol_data(doc_bytes(doc))


def test_base_point_dimension_checked():
    doc = minimal_doc()
    doc["base_point"] = {"t": "0", "x": ["0"], "tau": "0", "xi": ["0", "1"]}
    with pytest.raises(SchemaError, match=r"^\$\.base_point\.x: expected "
                       r"a list of 2 rationals$"):
        parse_symbol_data(doc_bytes(doc))


def test_normal_form_branch_keys():
    doc = minimal_doc()
    doc["normal_form"] = {"variant": "form2", "p": 1,
                          "q": [[{"coeff": "1", "exponents": {"xi2": 2}}]],
                          "r": [[{"coeff": "1/2", "exponents": {}}]]}
    with pytest.raises(SchemaError, match="requires key 'g'"):
        parse_symbol_data(doc_bytes(doc))
    doc["normal_form"]["g"] = [{"coeff": "1", "exponents": {"x1": 3, "xi2": 2}}]
    doc["normal_form"]["phi"] = []
    with pytest.raises(SchemaError, match="not allowed"):
        parse_symbol_data(doc_bytes(doc))


def test_record_holds_each_fact_once():
    # the dimension is a's and the schema version the module's constant;
    # the file's "options" block is the slack alone
    assert [f.name for f in dataclasses.fields(SymbolFile)] == [
        "base_point", "a", "region", "slack", "normal_form", "sha256"]
    sf = parse_symbol_file(FIXTURES / "b2.json")
    assert sf.d == sf.a.d == 2
    for slack in (F(0), F(-1, 100)):
        with pytest.raises(ValueError, match="^slack must be positive$"):
            dataclasses.replace(sf, slack=slack)


def test_region_and_options_validation():
    doc = minimal_doc()
    doc["region"] = {"t_max": "1/10", "x_half": "1/10", "xi_half": "1/10",
                     "grid": 2}
    with pytest.raises(SchemaError, match="grid"):
        parse_symbol_data(doc_bytes(doc))
    doc = minimal_doc()
    doc["options"] = {"slack": "-1/100"}
    with pytest.raises(SchemaError,
                       match=r"^\$\.options: slack must be positive$"):
        parse_symbol_data(doc_bytes(doc))
    doc = minimal_doc()  # the classification is exact: no tolerance key
    doc["options"] = {"tol": 1e-8}
    with pytest.raises(SchemaError, match=r"\$\.options: unknown key 'tol'"):
        parse_symbol_data(doc_bytes(doc))
    doc = minimal_doc()  # nor do the scans read a denominator floor
    doc["region"] = {"t_max": "1/10", "x_half": "1/10", "xi_half": "1/10",
                     "grid": 9, "eta_den": 1e-10}
    with pytest.raises(SchemaError,
                       match=r"\$\.region: unknown key 'eta_den'"):
        parse_symbol_data(doc_bytes(doc))


# ------------------------------------------------------------ round trips


@pytest.mark.parametrize("name", ["b1", "b2", "b2_bbis2", "nonsingular",
                                  "classical"])
def test_fixture_round_trip_byte_identical(name):
    path = FIXTURES / ("%s.json" % name)
    raw = path.read_bytes()
    assert serialize_symbol_file(parse_symbol_file(path)) == raw


@pytest.mark.parametrize("name", ["b1", "b2", "b2_bbis2", "nonsingular",
                                  "classical"])
def test_fixture_digest_is_sha256_of_its_bytes(name):
    # the report's input_hash, whichever SHA-256 module computed it
    path = FIXTURES / ("%s.json" % name)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert parse_symbol_file(path).sha256 == digest


def test_serialize_reaches_fixed_point():
    first = serialize_symbol_file(parse_symbol_data(doc_bytes(minimal_doc())))
    second = serialize_symbol_file(parse_symbol_data(first))
    assert first == second
    # canonical files state every default block explicitly
    doc = json.loads(first)
    assert set(doc) == {"schema", "d", "base_point", "terms", "region",
                        "options"}


@st.composite
def symbol_files(draw):
    """SymbolFiles with random exact data, half of them with a form1
    normal form (p = 0, phi and psi linear resp. quadratic in x)."""
    d = draw(st.integers(1, 3))
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    positive = st.builds(F, st.integers(1, 9), st.integers(1, 9))
    n = 2 * (d + 1)

    def poly(max_terms, exps=st.lists(st.integers(0, 2), min_size=n,
                                      max_size=n)):
        return PolySymbol(d, dict(draw(st.lists(
            st.tuples(exps.map(tuple), rational), max_size=max_terms))))

    a = poly(5)
    if a.is_zero:
        a = PolySymbol.constant(d, 1)
    normal_form = None
    if draw(st.booleans()):
        x = [PolySymbol.coordinate(d, "x%d" % j) for j in range(1, d + 1)]
        xi_d = PolySymbol.coordinate(d, "xi%d" % d)
        normal_form = NormalFormSpec(
            variant="form1", d=d, p=0, q=(draw(positive) * xi_d ** 2,),
            r=(), phi=sum((draw(rational) * v for v in x),
                          PolySymbol.zero(d)),
            psi=sum((draw(rational) * v * v for v in x), PolySymbol.zero(d)))
    return SymbolFile(
        base_point=PhasePoint.from_sequence(d, draw(st.lists(
            rational, min_size=n, max_size=n))),
        a=a, region=Region(t_max=draw(positive), x_half=draw(positive),
                           xi_half=draw(positive),
                           grid=draw(st.integers(3, 65))),
        slack=draw(positive), normal_form=normal_form)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(symbol_files())
def test_serializer_round_trip(sf):
    data = serialize_symbol_file(sf)
    parsed = parse_symbol_data(data)
    assert parsed.sha256 == hashlib.sha256(data).hexdigest()
    assert dataclasses.replace(parsed, sha256="") == sf
    assert json.loads(data)["schema"] == SCHEMA_VERSION
    assert json.loads(data)["d"] == parsed.d == sf.d
    assert serialize_symbol_file(parsed) == data


def test_canonical_term_order_is_graded_lex():
    sf = parse_symbol_file(FIXTURES / "b2.json")
    terms = poly_terms(sf.a)
    degrees = [sum(t["exponents"].values()) for t in terms]
    assert degrees == sorted(degrees)


# ---------------------------------------------------------- the JSON writer


def reference_dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def written_documents(tmp_path):
    """Every golden and symbol file, and the classify, certify and
    minimize output of each fixture, as bytes."""
    out = [p.read_bytes() for p in sorted(FIXTURES.rglob("*.json"))]
    dest = tmp_path / "out.json"
    for path in sorted(FIXTURES.glob("*.json")):
        for verb in ("classify", "certify", "minimize"):
            main([verb, str(path), "--out", str(dest)])
            out.append(dest.read_bytes())
    return out


def test_dumps_matches_json_module(tmp_path):
    # the recursive writer gives json.dumps' bytes (sort_keys, indent=2,
    # allow_nan=False) on everything the package writes, on empty
    # containers and on escaped and non-ASCII strings
    docs = written_documents(tmp_path)
    assert len(docs) == 10 + 15
    for data in docs:
        doc = json.loads(data)
        assert dumps(doc) == reference_dumps(doc) == data
    odd = {"": [], "empty": {}, "nested": [[], {}, [[{}]]],
           "text": ["na\u00efve \u2603 \U0001f600", "\x00\x1f\"\\/\t\n",
                    "\u00e9"],
           "\u00fcber": {"b": None, "a": True, "c": False},
           "numbers": [0, -1, 2 ** 80, -0.0, 1e-300, 5e-324, 1e16, 0.1,
                       1.7976931348623157e308], "tuple": (1, "2")}
    for obj in (odd, [], {}, "x", None, 3, 2.5, [odd, [odd]]):
        assert dumps(obj) == reference_dumps(obj)


def test_dumps_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for obj in (bad, [bad], {"a": [1, {"b": bad}]}):
            with pytest.raises(ValueError):
                reference_dumps(obj)
            with pytest.raises(ValueError, match="not JSON compliant"):
                dumps(obj)

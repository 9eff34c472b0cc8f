"""PolySymbol.eval, the one polynomial evaluator, on random symbols.

Coordinate arrays against the same points evaluated one at a time (bit
for bit), floats against the exact value within the rounding bound of the
term-by-term evaluation, the ring laws in exact arithmetic, the term
order that float eval sums in, quadratic_jet's order-2 recentering
against the full expansion, and the early stop of long float powers
against the full product (bit for bit).
"""

import itertools
import json
from fractions import Fraction as F
from math import comb

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypcert import PolySymbol
from hypcert.symbolfile import SchemaError, parse_symbol_data
from hypcert.symbols import NotSingular, _long_power, quadratic_jet, var_names

EPS = 2.0 ** -52

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

rationals = st.builds(F, st.integers(-999, 999), st.integers(1, 999))


@st.composite
def symbols(draw, d):
    n = 2 * (d + 1)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return PolySymbol(d, draw(st.dictionaries(exps, rationals, max_size=6)))


@st.composite
def symbol_and_points(draw, count=1):
    d = draw(st.integers(1, 2))
    points = [draw(st.lists(rationals, min_size=2 * (d + 1),
                            max_size=2 * (d + 1))) for _ in range(count)]
    return (d, draw(symbols(d))) + tuple(points)


@st.composite
def block(draw):
    """A symbol and a 2-D block: each coordinate is a scalar or an axis
    shaped for broadcasting along one of the two block axes."""
    d = draw(st.integers(1, 2))
    n = 2 * (d + 1)
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    kinds = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n,
                          max_size=n))
    axes = [draw(st.lists(rationals, min_size=1, max_size=1)) if k is None
            else draw(st.lists(rationals, min_size=shape[k],
                               max_size=shape[k])) for k in kinds]
    return draw(symbols(d)), shape, kinds, axes


@PROPERTY
@given(block())
def test_arrays_equal_points_one_at_a_time(case):
    p, shape, kinds, axes = case
    coords = []
    for kind, ax in zip(kinds, axes):
        if kind is None:
            coords.append(float(ax[0]))
        else:
            arr = np.array([float(v) for v in ax])
            coords.append(arr.reshape((-1, 1) if kind == 0 else (1, -1)))
    got = np.broadcast_to(p.eval(coords), shape)
    for i, j in itertools.product(range(shape[0]), range(shape[1])):
        exact = [ax[0] if k is None else ax[(i, j)[k]]
                 for k, ax in zip(kinds, axes)]
        alone = p.eval([float(v) for v in exact])
        # repr tells -0.0 from 0.0
        assert repr(float(got[i, j])) == repr(alone)
        # a mixed Fraction/float point is evaluated in floats
        mixed = exact[:-1] + [float(exact[-1])]
        assert repr(p.eval(mixed)) == repr(alone)


@PROPERTY
@given(symbol_and_points())
def test_float_within_rounding_of_exact(case):
    d, p, point = case
    exact = p.eval(point)
    assert isinstance(exact, F)
    got = p.eval([float(v) for v in point])
    assert isinstance(got, float)
    if p.is_zero:
        assert repr(got) == "0.0"
        return
    degree = max(sum(exps) for exps in p.terms)
    size = sum(abs(c * PolySymbol(d, {exps: 1}).eval(point))
               for exps, c in p.terms.items())
    assert abs(F(got) - exact) <= size * (len(p.terms) + degree) * F(EPS)


@PROPERTY
@given(symbol_and_points(), st.data())
def test_ring_laws_exact(case, data):
    d, p, point = case
    q = data.draw(symbols(d))
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p - q).eval(point) == p.eval(point) - q.eval(point)


def reference_merge(pairs):
    """The term order rule on a list: a pair adds to the term with its
    exponents in place, a zero sum removes that term, and a pair whose
    exponents are not (or no longer) present is appended."""
    terms = []
    for exps, c in pairs:
        for i, (have, v) in enumerate(terms):
            if have == exps:
                if v + c:
                    terms[i] = (have, v + c)
                else:
                    del terms[i]
                break
        else:
            if c:
                terms.append((exps, c))
    return terms


@st.composite
def term_lists(draw, d):
    """Pairs drawn from a pool of three monomials with small coefficients,
    so that monomials repeat and sums cancel, and zero coefficients
    occur."""
    n = 2 * (d + 1)
    pool = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=3,
                         max_size=3))
    coeff = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1),
                             F(2)])
    return draw(st.lists(st.tuples(st.sampled_from(pool), coeff),
                         max_size=8))


@PROPERTY
@given(st.data())
def test_term_order_follows_the_merge_rule(data):
    d = data.draw(st.integers(1, 2))
    ps, qs = data.draw(term_lists(d)), data.draw(term_lists(d))
    p, q = PolySymbol(d, ps), PolySymbol(d, qs)

    def order(sym):
        return list(sym.terms.items())

    assert order(p) == reference_merge(ps)
    assert order(p + q) == reference_merge(order(p) + order(q))
    assert order(p - q) == reference_merge(
        order(p) + [(e, -c) for e, c in order(q)])
    assert order(p * q) == reference_merge(
        [(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
         for e1, c1 in order(p) for e2, c2 in order(q)])
    for i in range(2 * (d + 1)):
        assert order(p.diff(i)) == reference_merge(
            [(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
             for e, c in order(p) if e[i]])
    # a symbol file's term list is merged in file order
    names = var_names(d)
    doc = {"schema": 1, "d": d, "terms": [
        {"coeff": str(c), "exponents": {names[i]: k for i, k in enumerate(e)
                                        if k}} for e, c in ps]}
    try:
        parsed = parse_symbol_data(json.dumps(doc).encode("utf-8")).a
    except SchemaError:  # an empty or cancelling term list is refused
        assert not reference_merge(ps)
    else:
        assert order(parsed) == reference_merge(ps)


@st.composite
def jet_cases(draw):
    """A symbol whose terms carry exponents up to 12 on at most three
    slots, and a point whose coordinates are often 0."""
    d = draw(st.integers(1, 2))
    n = 2 * (d + 1)
    exps = st.dictionaries(st.integers(0, n - 1), st.integers(1, 12),
                           max_size=3).map(
        lambda m: tuple(m.get(i, 0) for i in range(n)))
    p = PolySymbol(d, draw(st.dictionaries(exps, rationals, max_size=5)))
    point = draw(st.lists(st.one_of(st.just(F(0)), rationals), min_size=n,
                          max_size=n))
    return p, point


def full_expansion(p, point):
    """p(point + v): each term expanded by the binomial theorem, one
    variable at a time, every power of every slot kept."""
    terms = dict(p.terms)
    for i, c0 in enumerate(point):
        if c0:
            out = {}
            for e, c in terms.items():
                for k in range(e[i] + 1):
                    key = e[:i] + (k,) + e[i + 1:]
                    out[key] = out.get(key, 0) + c * comb(e[i], k) * c0 ** (e[i] - k)
            terms = out
    return terms


@PROPERTY
@given(jet_cases())
def test_jet_reads_the_full_expansion(case):
    # quadratic_jet recenters only to order 2; its value, first
    # derivatives and matrix are those of the full expansion
    p, point = case
    full = full_expansion(p, point)
    n = p.nvars
    zero = (0,) * n
    units = [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    c0, c1 = full.get(zero, 0), [full.get(u, 0) for u in units]
    try:
        quadratic_jet(p, point)
    except NotSingular as exc:
        if c0:
            assert (exc.derivative, exc.value) == (None, c0)
        else:
            i = next(i for i, c in enumerate(c1) if c)
            assert (exc.derivative, exc.value) == (var_names(p.d)[i], c1[i])
    else:
        assert not c0 and not any(c1)
    # less its affine part, p is singular at the point with the same jet
    affine = PolySymbol(p.d, [(zero, c0 - sum(c * x for c, x in zip(c1, point)))]
                        + list(zip(units, c1)))
    jet = quadratic_jet(p - affine, point)
    for i in range(n):
        for j in range(n):
            m = tuple(int(k == i) + int(k == j) for k in range(n))
            want = F(full.get(m, 0))
            assert jet.matrix[i][j] == (want if i == j else want / 2)


# --------------------------------------------------- long float powers

SPECIAL = (0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), float("nan"),
           -float("nan"), 5e-324, -5e-324, 2.0 ** -1022, 1.0 + EPS,
           1.0 - EPS / 2, -2.0, 0.5)
any_float = st.floats() | st.sampled_from(SPECIAL)


def full_power(x, e):
    """x ** e as e - 1 products x * x * ... * x, left to right."""
    p = x
    for _ in range(e - 1):
        p = p * x
    return p


def bits(v):
    return np.asarray(v, dtype=np.float64).view(np.uint64).tolist()


@PROPERTY
@given(st.lists(any_float, min_size=1, max_size=5), st.integers(1, 3000),
       st.booleans())
def test_long_power_is_the_full_product(xs, e, array):
    # the early stop gives the full product's bits, nan payloads and
    # zero signs too, for a scalar and for an array
    x = np.array(xs) if array else xs[0]
    with np.errstate(over="ignore", under="ignore"):
        want = full_power(x, e)
        assert bits(_long_power(x, e)) == bits(want)
        x1_e = PolySymbol(1, {(0, e, 0, 0): 1})
        assert bits(x1_e.eval([0.0, x, 0.0, 0.0])) == bits(0.0 + 1.0 * want)

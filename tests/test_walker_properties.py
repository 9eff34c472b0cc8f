"""The scan walker against exact brute force.

Random rational polynomials are scanned by certify_region on small
grids, and random integer polynomials by TensorGrid.scan itself, and
every node is evaluated exactly in Fractions resp. Python ints.  The scans
decide in exact integers, so the included counts are the exact counts,
each reported value is the exact extremum correctly rounded, and each
witness the first node in C order whose exact value rounds to it.
"""

import itertools
import math
import re
import signal
import time
from unittest import mock
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypcert import PolySymbol, Region, ScanTooLarge, certify_region
from hypcert import grid as walker
from hypcert.grid import TensorGrid
from hypcert.symbols import poisson_bracket
from hypcert.verifier import region_axes
from oracles import uniform_nodes

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exact_axes(spans):
    """(slot, exact nodes) of TensorGrid spans, built apart from it."""
    return [(slot, uniform_nodes(*span)) for slot, span in spans]


def grid_nodes(d, spans):
    """Exact grid nodes in flat-index order."""
    slots, axes = zip(*exact_axes(spans))
    out = []
    for values in itertools.product(*axes):
        point = [F(0)] * (2 * d + 2)
        for slot, v in zip(slots, values):
            point[slot] = v
        out.append(point)
    return out


def index_max(axis):
    """max |U| over exact nodes, U = node / gcd(nodes); 0 when every node
    is 0."""
    den = math.lcm(*(v.denominator for v in axis))
    ints = [int(v * den) for v in axis]
    unit = math.gcd(*ints)
    return max(abs(i) // unit for i in ints) if unit else 0


def nodes(region, d, negative_t=False):
    return grid_nodes(d, region_axes(region, d, negative_t=negative_t))


def flat_index(region, d, witness, negative_t=False):
    """The witness's flat index; raises ValueError off the grid."""
    point = witness.as_tuple()
    flat = 0
    for slot, ax in exact_axes(region_axes(region, d, negative_t=negative_t)):
        flat = flat * len(ax) + ax.index(point[slot])
    return flat


def check_extremum(values, reported, flat, largest=False):
    """values maps flat index -> exact value.  The reported float is the
    exact extremum correctly rounded, and flat the first node whose exact
    value rounds to it."""
    best = (max if largest else min)(values.values())
    assert reported == float(best) == float(values[flat])
    assert flat == min(k for k, v in values.items() if float(v) == reported)


def polynomials(d, coeff=st.builds(F, st.integers(-6, 6), st.integers(1, 5))):
    slots = [i for i in range(2 * d + 2) if i != d + 1]  # tau stays out
    monomial = st.lists(st.sampled_from(slots), min_size=0, max_size=3)

    def build(terms):
        out = {}
        for factors, c in terms:
            exps = [0] * (2 * d + 2)
            for s in factors:
                exps[s] += 1
            out[tuple(exps)] = out.get(tuple(exps), F(0)) + c
        return PolySymbol(d, out)

    return st.lists(st.tuples(monomial, coeff), min_size=1,
                    max_size=4).map(build)


@st.composite
def cases(draw):
    d = draw(st.sampled_from([1, 2]))
    extent = st.sampled_from([F(1, 10), F(1, 4), F(1, 2), F(1)])
    region = Region(t_max=draw(extent), x_half=draw(extent),
                    xi_half=draw(extent), grid=draw(st.integers(3, 5)))
    return d, region, draw(polynomials(d)), draw(polynomials(d))


@PROPERTY
@given(cases())
def test_nonneg_witnesses_match_exact_extrema(case):
    d, region, a, _ = case
    rep = certify_region(a, PolySymbol.zero(d), region).nonneg
    pos = dict(enumerate(a.eval(p) for p in nodes(region, d)))
    assert rep.n_points == len(pos)
    assert rep.passed == (min(pos.values()) >= 0)
    check_extremum(pos, rep.min_value, flat_index(region, d, rep.witness))
    neg = dict(enumerate(a.eval(p) for p in nodes(region, d, True)))
    side = rep.negative_side
    assert side.found_negative == (min(neg.values()) < 0)
    if side.found_negative:
        check_extremum(neg, side.value,
                       flat_index(region, d, side.witness, negative_t=True))
        assert side.witness.t < 0 and side.value < 0


def ratio_values(d, region, a, phi, kind):
    """{flat: exact ratio} over the nodes of the ratio's set."""
    bracket = poisson_bracket(phi, a)
    out = {}
    for i, p in enumerate(nodes(region, d)):
        av = a.eval(p)
        if kind == "c":
            t = p[0]
            den = (min(t * t, (t - phi.eval(p)) ** 2)
                   * sum(v * v for v in p[d + 2:]))
            if den != 0:
                out[i] = av / den
        elif av > 0:
            out[i] = bracket.eval(p) ** 2 / (4 * av)
    return out


@pytest.mark.parametrize("kind", ["c", "kappa"])
@PROPERTY
@given(case=cases())
def test_ratio_witnesses_match_exact_extrema(kind, case):
    d, region, a, phi = case
    exact = ratio_values(d, region, a, phi, kind)
    est = getattr(certify_region(a, phi, region), kind)
    assert est.n_included == len(exact)
    assert est.n_included + est.n_excluded == est.n_total
    if not exact:
        assert est.witness is None and est.value is None
        return
    check_extremum(exact, est.value, flat_index(region, d, est.witness),
                   largest=kind == "kappa")


def span(lo, step, n):
    """The span of n nodes lo + k * step; a one-point span's hi is
    arbitrary (here lo + step), as it is for TensorGrid."""
    return lo, lo + max(n - 1, 1) * step, n


RATIONAL = st.builds(F, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def axes_cases(draw):
    """d, two polynomials, and a span per slot but tau: steps of either
    sign or 0, lo = 0 among the draws, one to four points."""
    d = draw(st.sampled_from([1, 2]))
    axes = [(slot, span(draw(RATIONAL), draw(RATIONAL),
                        draw(st.integers(1, 4))))
            for slot in range(2 * d + 2) if slot != d + 1]
    return d, axes, [draw(polynomials(d, coeff=RATIONAL)) for _ in range(2)]


@PROPERTY
@given(axes_cases(), st.integers(1, 40))
def test_integer_form_is_exact(case, budget):
    # each P_i evaluated by the walker on float index coordinates, split
    # over the blocks of any budget, equals D * p_i evaluated in Fractions,
    # at every node, and each witness point is that node; D is the least
    # common denominator, and bound(P_i) is sum |c| max|U|^e over the
    # exact nodes
    d, axes, polys = case
    grid = TensorGrid(d, axes)
    *P, D = grid.integer(*polys)
    coefficients = [c for Pi in P for c in Pi.terms.values()]
    assert all(c.denominator == 1 for c in coefficients) and D > 0
    assert math.gcd(D, *coefficients) == 1
    umax = [0] * (2 * d + 2)  # 0 on a slot off the grid
    for slot, axis in exact_axes(axes):
        umax[slot] = index_max(axis)
    for Pi in P:
        assert grid.bound(Pi) == sum(
            abs(c) * math.prod(m ** k for m, k in zip(umax, e))
            for e, c in Pi.terms.items())
    exact = grid_nodes(d, axes)
    seen = 0
    with mock.patch.object(walker, "_BLOCK", budget):
        plan = list(grid._blocks(range(len(axes)), *P))  # every axis
    for start, shape, values in plan:
        for p, v in zip(polys, values):
            got = np.broadcast_to(v, shape).ravel()
            for k, value in enumerate(got):
                node = exact[start + k]
                assert grid.point(start + k).as_tuple() == tuple(node)
                assert value == D * p.eval(node)
        seen += math.prod(shape)
    assert seen == grid.total == len(exact)


def test_scan_past_exact_integers_is_refused():
    # 1/3^40 beside an integer coefficient at grid 5: the common
    # denominator 1600 * 3^40 passes 2^53, and the other coefficient with it
    t, x1 = (PolySymbol.coordinate(2, v) for v in ("t", "x1"))
    a = t * t + x1 * x1 / 3 ** 40
    with pytest.raises(ScanTooLarge,
                       match=r"could reach 2\^74\.0, past the 2\^53") as exc:
        certify_region(a, PolySymbol.zero(2), Region(grid=5))
    assert not re.search(r"\d{6}", str(exc.value))  # the bound as 2^x only
    grid = TensorGrid(2, region_axes(Region(grid=5), 2))
    P, D = grid.integer(t * t)
    assert grid.bound(P) == 4 ** 2 and D == 40 ** 2


def test_cancelling_units_are_refused_at_once():
    # units 2 and 1/2: the value of x1^e x2^e is 1 at every node, but
    # integer() forms 2^e in a numerator and in a denominator, so each
    # integer's bits are bounded from its own factors, and past
    # 2^LOG2_REFUSED the term is refused before any power is formed
    x1, x2 = (PolySymbol.coordinate(2, v) for v in ("x1", "x2"))
    grid = TensorGrid(2, [(1, (F(-2), F(2), 3)),
                          (2, (F(-1, 2), F(1, 2), 3))])
    P, D = grid.integer(x1 ** 1000 * x2 ** 1000)
    assert (P.terms, D) == ({(0, 1000, 1000, 0, 0, 0): 1}, 1)

    def stop(signum, frame):
        raise TimeoutError("integer() took 5 s")

    handler = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        with pytest.raises(ScanTooLarge,
                           match=r"could reach 2\^1099511627776\.0, past"):
            grid.integer(x1 ** 2 ** 40 * x2 ** 2 ** 40)
        seconds = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert seconds < 1


@st.composite
def walk_cases(draw):
    """Integer spans on the five scanned slots of d = 2 (steps of either
    sign or 0, lo = 0 among the draws, one to four points), integer
    polynomials on a random subset of them (so some axes go unwalked, or
    none is walked), and a block budget."""
    axes = [(slot, span(F(draw(st.integers(-3, 3))), draw(st.integers(-3, 3)),
                        draw(st.integers(1, 4))))
            for slot in (0, 1, 2, 4, 5)]
    used = draw(st.lists(st.sampled_from([0, 1, 2, 4, 5]), max_size=3,
                         unique=True))

    def poly():
        terms = draw(st.lists(st.tuples(
            st.lists(st.sampled_from(used), max_size=3) if used
            else st.just([]), st.integers(-5, 5)), min_size=1, max_size=4))
        out = {}
        for factors, c in terms:
            exps = [0] * 6
            for slot in factors:
                exps[slot] += 1
            out[tuple(exps)] = out.get(tuple(exps), 0) + c
        return PolySymbol(2, out)

    return axes, [poly() for _ in range(3)], draw(st.integers(1, 40))


def brute_force(spans, polys, pairs):
    """Each pair's values in C order (None where excluded), from the
    polynomials evaluated in Python ints at the index coordinates
    U = value / gcd(axis), 0 on an axis whose nodes are all 0."""
    axes = exact_axes(spans)
    units = [math.gcd(*(int(v) for v in ax)) or 1 for _, ax in axes]
    exact = [[] for _ in pairs(0, 0, 0)]
    for values in itertools.product(*(ax for _, ax in axes)):
        point = [0] * 6
        for (slot, _), unit, v in zip(axes, units, values):
            point[slot] = int(v) // unit
        for k, (v, m) in enumerate(pairs(*(p.eval(point) for p in polys))):
            exact[k].append(v if m is None or m else None)
    return exact


def check_scan(results, exact, total):
    """The walker reports each pair's least included value, its first
    node and the count, over the full grid."""
    for res, values in zip(results, exact):
        included = [v for v in values if v is not None]
        assert res.n_total == total == len(values)
        assert res.n_included == len(included)
        if not included:
            assert (res.min_value, res.min_flat) == (math.inf, -1)
            continue
        assert res.min_value == float(min(included))
        assert res.min_flat == values.index(min(included))


def walk_pairs(a, b, c):
    """The pairs under test; each also evaluates on Python ints."""
    return [(a, None), (a, b > 0), (-a, b > 0), (c, b <= 0), (a * c, c >= 0),
            (b, a < -1000)]


@PROPERTY
@given(walk_cases())
def test_walker_matches_brute_force(case):
    # on each grid node in C order, the polynomials are evaluated at the
    # index coordinates U = value / gcd(axis) in Python ints; the walker
    # reports the least included value, its first node and the count, over
    # the full grid, whatever axes it walks and whatever the block budget
    spans, polys, budget = case
    grid = TensorGrid(2, spans)
    with mock.patch.object(walker, "_BLOCK", budget):
        got = grid.scan(walk_pairs, *polys)
        # a pass on polynomials of no axis, and one on no polynomial
        const = grid.scan(lambda v: [(v, None), (v, v > 0)],
                          PolySymbol.constant(2, 3))
        none = grid.scan(lambda: [(-1.0, None)])
    check_scan(got, brute_force(spans, polys, walk_pairs), grid.total)
    for res in const + none:
        assert (res.min_flat, res.n_included) == (0, grid.total)
    assert [r.min_value for r in const + none] == [3.0, 3.0, -1.0]


@st.composite
def near_exact_cases(draw):
    """Integer spans on the five scanned slots of d = 2, some of them with
    every node 0; three integer polynomials of up to five terms whose
    bounds lie in [2^50, 2^53), a term on an all-0 span as large as the
    others; and a block budget of at most 40 points, so the walker splits
    each polynomial and walks many blocks."""
    slots = (0, 1, 2, 4, 5)
    zeros = draw(st.lists(st.sampled_from(slots), max_size=2, unique=True))
    spans = [(slot, span(F(0), 0, draw(st.integers(1, 3))) if slot in zeros
              else span(F(draw(st.integers(-3, 3))),
                        draw(st.integers(-3, 3).filter(bool)),
                        draw(st.integers(2, 4))))
             for slot in slots]
    grid = TensorGrid(2, spans)
    live = [slot for slot in slots if slot not in zeros]

    def poly():
        # the first term on live slots alone, so the bound is not 0
        monomials = [draw(st.lists(st.sampled_from(live), max_size=3))]
        monomials += draw(st.lists(st.lists(st.sampled_from(slots),
                                            max_size=3), max_size=4))
        exps = []
        for factors in monomials:
            e = [0] * 6
            for slot in factors:
                e[slot] += 1
            exps.append(tuple(e))
        exps = list(dict.fromkeys(exps))  # one term per monomial
        size = [grid.bound(PolySymbol(2, {e: 1})) for e in exps]
        weights = [draw(st.integers(1, 100)) for _ in exps]
        top = draw(st.integers(2 ** 50 + 2 ** 20, 2 ** 53 - 1))
        total = sum(w for w, m in zip(weights, size) if m)
        return PolySymbol(2, [(e, draw(st.sampled_from([-1, 1]))
                               * (top * w // (total * (m or 1))))
                              for e, w, m in zip(exps, weights, size)])

    return spans, [poly() for _ in range(3)], draw(st.integers(1, 40))


def near_exact_pairs(a, b, c):
    return [(a, None), (-a, b > 0), (c, a < 0), (b, c >= 0)]


@PROPERTY
@given(near_exact_cases())
def test_split_scan_is_exact_near_2_53(case):
    # every partial product and sum of the split evaluation is a sub-sum of
    # the bound, so values up to 2^53 are exact floats whatever the blocks
    spans, polys, budget = case
    grid = TensorGrid(2, spans)
    assert all(2 ** 50 <= grid.bound(p) < 2 ** 53 for p in polys)
    with mock.patch.object(walker, "_BLOCK", budget):
        got = grid.scan(near_exact_pairs, *polys)
    check_scan(got, brute_force(spans, polys, near_exact_pairs), grid.total)

"""The scan walker against exact brute force.

Random rational polynomials are scanned by certify_region on small
grids, and every node is re-evaluated exactly together with a bound on
the float rounding of the same operations.  A reported witness must sit
within that bound of the exact grid extremum, and the included count must
be exact whenever no node lies within rounding of the threshold.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypcert import PolySymbol, Region, certify_region
from hypcert.symbols import poisson_bracket
from hypcert.verifier import region_axes

EPS = 2.0 ** -52
SLACK = 8  # pow and c * m may each round a few times

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class Rounded:
    """An exact value with a bound on the error of its float evaluation."""

    def __init__(self, value, err=0.0):
        self.value = F(value)
        self.err = err

    def _round(self, value, err):
        return Rounded(value, err + SLACK * EPS * abs(float(value)))

    def __add__(self, other):
        return self._round(self.value + other.value, self.err + other.err)

    def __sub__(self, other):
        return self._round(self.value - other.value, self.err + other.err)

    def __mul__(self, other):
        a, b = abs(float(self.value)), abs(float(other.value))
        return self._round(self.value * other.value,
                           a * other.err + b * self.err + self.err * other.err)

    def over(self, other):
        """self / other for other known to be positive beyond its error."""
        ratio = self.value / other.value
        den = float(other.value) - other.err
        err = (self.err + abs(float(ratio)) * other.err) / den
        return self._round(ratio, err)

    def clears(self, eta):
        """Float and exact agree on `value >= eta`; None when they may not."""
        if abs(float(self.value - F(eta))) <= self.err:
            return None
        return self.value >= F(eta)


def nodes(region, d, negative_t=False):
    """Exact grid nodes in flat-index order."""
    slots, axes = zip(*region_axes(region, d, negative_t=negative_t))
    out = []
    for values in itertools.product(*axes):
        point = [F(0)] * (2 * d + 2)
        for slot, v in zip(slots, values):
            point[slot] = v
        out.append(point)
    return out


def evaluate(poly, points):
    """{flat: poly at that node}, in integers over a common denominator,
    with the rounding bound of its term-by-term float evaluation."""
    terms = poly.sorted_terms()
    if not terms:
        return {i: Rounded(0) for i in range(len(points))}
    den = math.lcm(*(v.denominator for p in points for v in p))
    top = max(sum(exps) for exps, _ in terms)
    scale = math.lcm(*(c.denominator for _, c in terms))
    gamma = SLACK * (len(terms) + top + 1) * EPS
    compiled = [(c.numerator * (scale // c.denominator)
                 * den ** (top - sum(exps)), abs(float(c)),
                 [(i, e) for i, e in enumerate(exps) if e])
                for exps, c in terms]
    out = {}
    for flat, p in enumerate(points):
        nums = [v.numerator * (den // v.denominator) for v in p]
        total, bound = 0, 0.0
        for num, mag, factors in compiled:
            for slot, e in factors:
                num *= nums[slot] ** e
                mag *= abs(float(p[slot])) ** e
            total += num
            bound += mag
        out[flat] = Rounded(F(total, scale * den ** top), gamma * bound)
    return out


def flat_index(region, d, witness, negative_t=False):
    """The witness's flat index; raises ValueError off the grid."""
    point = witness.as_tuple()
    flat = 0
    for slot, ax in region_axes(region, d, negative_t=negative_t):
        flat = flat * len(ax) + ax.index(point[slot])
    return flat


def check_extremum(values, reported, flat, largest=False):
    """The reported float is within rounding of the exact value at its
    node, and that value within rounding of the exact extremum."""
    sign = -1 if largest else 1
    best = min(values.values(), key=lambda r: sign * r.value)
    at = values[flat]
    assert abs(float(at.value) - reported) <= at.err + EPS * abs(reported)
    assert float(sign * (at.value - best.value)) <= at.err + best.err


def polynomials(d):
    slots = [i for i in range(2 * d + 2) if i != d + 1]  # tau stays out
    monomial = st.lists(st.sampled_from(slots), min_size=0, max_size=3)
    coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 5))

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
    pos = evaluate(a, nodes(region, d))
    assert rep.n_points == len(pos)
    check_extremum(pos, rep.min_value, flat_index(region, d, rep.witness))
    side = rep.negative_side
    if side.found_negative:
        neg = evaluate(a, nodes(region, d, negative_t=True))
        check_extremum(neg, side.value,
                       flat_index(region, d, side.witness, negative_t=True))
        assert side.witness.t < 0 and side.value < 0


def ratio_values(d, region, a, phi, kind):
    """{flat: ratio} over the exactly included nodes, or None when some
    node sits within rounding of the threshold."""
    eta = region.denominator_floor()
    points = nodes(region, d)
    av = evaluate(a, points)
    other = evaluate(phi if kind == "c" else poisson_bracket(phi, a), points)
    out = {}
    for i, p in enumerate(points):
        if kind == "c":
            # a / (min{t^2, (t - phi)^2} |xi|^2), denominator >= eta
            t = Rounded(p[0])
            t2, u2 = t * t, (t - other[i]) * (t - other[i])
            xi2 = None
            for j in range(1, d + 1):
                s = Rounded(p[d + 1 + j]) * Rounded(p[d + 1 + j])
                xi2 = s if xi2 is None else xi2 + s
            num = av[i]
            den = Rounded(min(t2.value, u2.value), max(t2.err, u2.err)) * xi2
            ok = den.clears(eta)
        else:
            # {phi, a}^2 / (4 a), a >= eta
            num = other[i] * other[i]
            den = Rounded(4) * av[i]
            ok = av[i].clears(eta)
        if ok is None:
            return None
        if ok:
            out[i] = num.over(den)
    return out


@pytest.mark.parametrize("kind", ["c", "kappa"])
@PROPERTY
@given(case=cases())
def test_ratio_witnesses_match_exact_extrema(kind, case):
    d, region, a, phi = case
    exact = ratio_values(d, region, a, phi, kind)
    est = getattr(certify_region(a, phi, region), kind)
    assert est.n_included + est.n_excluded == est.n_total
    if est.n_included == 0:
        assert est.witness is None and est.value is None
        assert exact is None or exact == {}
        return
    if exact is None:  # a node within rounding of eta: counts may differ
        return
    assert est.n_included == len(exact)
    flat = flat_index(region, d, est.witness)
    assert flat in exact
    check_extremum(exact, est.value, flat, largest=kind == "kappa")

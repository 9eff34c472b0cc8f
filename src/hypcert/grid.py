"""The one grid walker, over exact axes in integer index coordinates.

A TensorGrid axis is a span of exact equally spaced nodes, integer
multiples of its unit (their gcd; 0 when every node is 0, which counts
as off the grid), so a grid point is unit * U with an integer U per
slot; no node is built but a witness.  The set-up is in Python ints:
each unit is a reduced pair of ints, each index axis first + inc * k in
ints, and a witness node is one reduced Fraction.  TensorGrid.integer
rescales a polynomial to integer (int) coefficients, p(unit * U) =
P(U) / D, each term c unit^e reduced once, dropping the terms on slots
off the grid, and refuses one whose integers could reach 2^53
(ScanTooLarge): bound(P) = sum |c| max|U|^e, an exact int.  A term one
of whose integers logarithms put at 2^LOG2_REFUSED or past it is refused
before its powers are formed (check_powers), so no exponent sets the
running time.  Below 2^53 float64 adds and multiplies integers exactly,
in any order, and rounds a quotient of two correctly, hence monotonely:
each scan decision is the sign of an exact integer, each reported
minimum the exact one correctly rounded (a maximum is read as the
minimum of the negated values).

scan(fn, *polys) evaluates the polynomials on each block and fn(*values)
returns (values, mask) pairs.  It walks only the axes they depend on: a
skipped axis holds index 0 in every witness, each walked point counts
for the points along the skipped axes, and total and MAX_SCAN_POINTS
stay the full grid's.  Blocks are contiguous in C order over the walked
axes, at most _BLOCK points: a fixed prefix, a run along one axis, and
the inner axes after it whole.  The values are sum-factorized (Orszag
1980): each polynomial is split once per scan into sum_m m * H_m, its
terms grouped by their monomial m on the inner axes, so m is evaluated
once per scan, its cofactor H_m on the outer axes once per block of
prefixes, and a block costs one multiply and one add per inner monomial
whose cofactor moves along the run.  Every partial product and sum of
that evaluation is a sub-sum of sum |c| |U|^e, because every inner axis
of a kept term has max|U| >= 1, so bound(P) covers it and the values are
exact whatever the split.  A scan of one block evaluates each polynomial
whole, its terms varying over the most points first.

Determinism contract: the scan is serial; each block is reduced on its
own (lowest flat index wins ties), over the values' own shape, and the
partials are folded in block order with strict comparisons, so the
block budget never changes an output bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from hypcert.symbols import LOG2_REFUSED, PhasePoint, PolySymbol

# Walked points per block.  The cap is the cache: a block's float64
# temporaries are 8 bytes a point (128 KiB at 2^14), and a scan is fastest
# while they stay in the core's caches.  Page faults no longer bound it,
# since _blocks raises glibc's mmap and trim thresholds past a block's
# temporaries (0-2 minor faults per call at 2^13 to 2^16).  certify_region
# on b2 at grid 33 (2-core x86_64 with AVX-512, glibc 2.36, best of 15)
# took 12.9 ms at 2^13, 10.3-10.8 ms at 2^14, 9.7-9.9 ms at 2^15 and
# 11.2-11.4 ms at 2^16; a larger cap is for the benchmark to settle.
_BLOCK = 1 << 14
MAX_SCAN_POINTS = 1 << 30  # d = 2 at grid 33 is 39.1M points; d = 3 is 4.3e10
EXACT = 1 << 53  # float64 integers are exact below this
_ZERO = Fraction(0)


class ScanTooLarge(ValueError):
    """A scan past MAX_SCAN_POINTS points or with integers that could reach
    EXACT."""


def _span(lo, hi, n: int):
    """(first, inc, den) of n >= 1 equally spaced rationals from lo to hi
    (lo alone at 1): node k is (first + inc * k) / den, and den > 0 is
    the least common denominator of the nodes (of lo and the step)."""
    if n == 1:
        return lo.numerator, 0, lo.denominator
    m = math.lcm(lo.denominator, hi.denominator)
    first = lo.numerator * (m // lo.denominator)
    inc = hi.numerator * (m // hi.denominator) - first
    first, den = first * (n - 1), m * (n - 1)
    g = math.gcd(first, inc, den)
    return first // g, inc // g, den // g


def check_exact(*bounds: int) -> None:
    """Refuse a scan when a bound on one of its integers reaches EXACT."""
    worst = max(bounds)
    if worst >= EXACT:
        _refuse(math.log2(worst))


def _refuse(log2_bound: float) -> None:
    raise ScanTooLarge("a scan integer could reach 2^%.1f, past the 2^53 "
                       "below which float64 integers are exact" % log2_bound)


def check_powers(*products) -> None:
    """Refuse, before any power is formed, when one of the integers a
    term builds could have 2^LOG2_REFUSED bits or more.  Each product is
    a sequence of (int base, int exponent) pairs, the integer prod
    base^exponent; its bits are summed from each base's logarithm, not
    read from the product's value, so no two factors cancel."""
    if max(sum(k * b.bit_length() for b, k in p)
           for p in products) >= LOG2_REFUSED:  # an upper bound first
        log2_bound = max(sum(k * math.log2(abs(b)) for b, k in p if b)
                         for p in products)
        if log2_bound >= LOG2_REFUSED:
            _refuse(log2_bound)


def _plan(lens, budget: int):
    """(split, run, strides) of the block plan: the axes before split are
    fixed in a block, a run of at most run values of axis split varies,
    and the axes after it are whole: the first axis whose trailing axes
    fit in budget points."""
    strides = [math.prod(lens[i + 1:]) for i in range(len(lens))]
    split = 0
    while split < len(lens) - 1 and strides[split] > budget:
        split += 1
    return split, max(1, budget // strides[split]), strides


def blocks(lens, budget: int):
    """(first flat index, slices, shape) of the contiguous C-order blocks
    of a grid with these axis lengths, of at most budget points (one at
    the least): a run along the first axis whose trailing axes fit, the
    axes before it fixed."""
    split, run, strides = _plan(lens, budget)
    for prefix in itertools.product(*map(range, lens[:split])):
        base = sum(i * s for i, s in zip(prefix, strides))
        for lo in range(0, lens[split], run):
            hi = min(lo + run, lens[split])
            yield (base + lo * strides[split],
                   tuple(slice(i, i + 1) for i in prefix)
                   + (slice(lo, hi),) + (slice(None),) * len(lens[split + 1:]),
                   (1,) * split + (hi - lo,) + tuple(lens[split + 1:]))


class ScanResult(NamedTuple):
    min_value: float
    min_flat: int
    n_included: int
    n_total: int


class TensorGrid:
    """Tensor grid over selected phase-space slots, the other slots 0.
    Each axis is a span (slot, (lo, hi, n)): the n >= 1 exact nodes lo +
    k * step, step = (hi - lo) / (n - 1), for k = 0..n-1 (lo alone at n
    = 1), of which only a witness point is ever built.  Its unit is
    gcd(lo, step), the gcd of its nodes, kept as a reduced pair of ints,
    so its index axis is first + inc * k with the ints first = lo / unit
    and inc = step / unit; on a span whose nodes are all 0 the unit is 0
    and the index axis 0."""

    def __init__(self, d: int, axes):
        self.d = d
        self.slots = tuple(slot for slot, _ in axes)
        self._lens = tuple(n for _, (_, _, n) in axes)
        self.total = math.prod(self._lens)
        if self.total > MAX_SCAN_POINTS:
            raise ScanTooLarge("a scan of %d grid points exceeds the budget "
                               "of %d" % (self.total, MAX_SCAN_POINTS))
        nslots = 2 * (d + 1)
        self._units = [(0, 1)] * nslots  # a slot off the grid
        self._umax = [0] * nslots
        self._size = [1] * nslots  # the points along each slot's axis
        self._index, self._float_axes = [], []
        for slot, (lo, hi, n) in axes:
            first, inc, den = _span(lo, hi, n)
            unit = math.gcd(first, inc)  # 0: every node is 0, as off the grid
            if unit:
                first, inc = first // unit, inc // unit
                g = math.gcd(unit, den)
                self._units[slot] = (unit // g, den // g)
            self._umax[slot] = max(abs(first), abs(first + inc * (n - 1)))
            self._size[slot] = n
            self._index.append((first, inc))
            self._float_axes.append(
                np.array([first + inc * k for k in range(n)], float))
        # below this exponent no unit or max|U| power reaches
        # 2^LOG2_REFUSED, so integer() takes logarithms only above it
        self._max_k = LOG2_REFUSED // max(
            max(un, ud, um).bit_length()
            for (un, ud), um in zip(self._units, self._umax))

    def _check_term(self, e, c) -> None:
        """Refuse the term c U^e before its powers are formed
        (check_powers): integer() builds c's numerator times each unit's
        numerator to its power, c's denominator times each unit's
        denominator to its power, and bound() max|U|^e."""
        factors = [(self._units[i], self._umax[i], k)
                   for i, k in enumerate(e) if k]
        if all(un for (un, _), _, _ in factors):  # else the term drops
            check_powers([(c.numerator, 1)]
                         + [(un, k) for (un, _), _, k in factors],
                         [(c.denominator, 1)]
                         + [(ud, k) for (_, ud), _, k in factors],
                         [(um, k) for _, um, k in factors])

    def point(self, flat: int) -> PhasePoint:
        """The exact grid point of a flat index (C order)."""
        if not 0 <= flat < self.total:
            raise ValueError("flat index %d is not on a grid of %d points"
                             % (flat, self.total))
        vals = [_ZERO] * (2 * (self.d + 1))
        for slot, n, (first, inc) in zip(self.slots[::-1], self._lens[::-1],
                                         self._index[::-1]):
            flat, k = divmod(flat, n)
            un, ud = self._units[slot]
            vals[slot] = Fraction(un * (first + inc * k), ud)
        return PhasePoint.from_sequence(self.d, vals)

    def integer(self, *polys: PolySymbol):
        """(P_1, .., P_k, D): integer polynomials over one integer D > 0
        with p_i = P_i(U) / D at every grid point, U its index coordinates;
        refused when D or the bound of a P_i reaches EXACT.  Terms on a
        slot off the grid, or on a span whose nodes are all 0, drop.  A
        term c U^e is c unit^e reduced once, and the terms of each P_i
        run from those that vary over the most points."""
        scaled = []
        for p in polys:
            terms = []
            for e, c in p.terms.items():
                num, den, size = c.numerator, c.denominator, 1
                for i, k in enumerate(e):
                    if k:
                        un, ud = self._units[i]
                        if not un:
                            break
                        if k > self._max_k:
                            self._check_term(e, c)
                        num, den = num * un ** k, den * ud ** k
                        size *= self._size[i]
                else:
                    g = math.gcd(num, den)
                    terms.append((size, e, num // g, den // g))
            terms.sort(key=lambda term: -term[0])  # stable
            scaled.append((p, terms))
        den = math.lcm(*(term[3] for _, terms in scaled for term in terms))
        out = tuple(p._new((e, num * (den // term_den))
                           for _, e, num, term_den in terms)
                    for p, terms in scaled)
        check_exact(den, *map(self.bound, out))
        return out + (den,)

    def bound(self, poly: PolySymbol) -> int:
        """sum |c| max|U|^e of an integer polynomial, which no partial
        product or sum of its float evaluation on the grid exceeds, whole
        or split (every max|U| on the slots of a term that integer()
        keeps is at least 1)."""
        umax = self._umax
        return int(sum(abs(c) * math.prod(umax[i] ** k for i, k in
                                          enumerate(e) if k)
                       for e, c in poly.terms.items()))

    def _blocks(self, walk, *polys: PolySymbol):
        """(first walked flat index, block shape, values of the polys) of
        each block over the walked axes.  A plan of one block evaluates
        each polynomial whole.  Otherwise each is split once into
        sum_m m * H_m: m a monomial on the inner axes (those after the
        run axis, whole in every block), evaluated once, and H_m its
        cofactor on the outer axes (the fixed prefix and the run axis),
        evaluated once per block of whole prefixes whose cofactors hold at
        most _BLOCK values together.  At each prefix the H_m * m of the
        H_m free of the run axis are summed once, and a block adds the
        products of each other m with its H_m on the run."""
        lens = [self._lens[i] for i in walk] or [1]  # no axis: one point
        split = _plan(lens, _BLOCK)[0]
        rank = len(walk) - split  # the run axis and the inner axes
        coords = [0.0] * (2 * (self.d + 1))
        for k, i in enumerate(walk[split:]):
            coords[self.slots[i]] = self._float_axes[i].reshape(
                (-1,) + (1,) * (rank - k - 1))
        if math.prod(lens) <= _BLOCK:
            yield 0, tuple(lens), [p.eval(coords) for p in polys]
            return
        # glibc hands a freed heap top past its trim threshold (128 KiB at
        # first) back to the kernel, so each block would fault its
        # temporaries in afresh: about 5,300 minor faults per grid-33
        # certify.  Freeing one mmapped buffer, never touched, larger
        # than a block's temporaries raises that threshold to twice its
        # size (mallopt(3), dynamic mmap threshold).
        np.empty(8 * _BLOCK)
        split_polys = [p.collect({self.slots[i] for i in walk[split + 1:]})
                       for p in polys]
        monomials = {m: PolySymbol(self.d, {m: 1}).eval(coords) if any(m)
                     else None for groups in split_polys for m in groups}
        run_slot = self.slots[walk[split]]
        width = lens[split] * max(1, sum(map(len, split_polys)))
        prefixes = (blocks(lens[:split], max(1, _BLOCK // width))
                    if split else iter([(0, (), ())]))
        per_prefix = math.prod(lens[split:])
        end = 0
        for start, slices, shape in blocks(lens, _BLOCK):
            if start >= end:  # the cofactors on the next block of prefixes
                first, ranges, outer = next(prefixes)
                end = (first + math.prod(outer)) * per_prefix
                for k, (i, part) in enumerate(zip(walk, ranges)):
                    coords[self.slots[i]] = self._float_axes[i][part].reshape(
                        (-1,) + (1,) * (split - k - 1 + rank))
                cofactors = [[(_outer(h.eval(coords), outer, rank),
                               h.depends_on(run_slot), monomials[m])
                              for m, h in groups.items()]
                             for groups in split_polys]
                prefix = None
            if slices[:split] != prefix:
                prefix = slices[:split]
                at = tuple(p.start - (r.start or 0)
                           for p, r in zip(prefix, ranges))
                parts = [_at_prefix(c, at) for c in cofactors]
            part = slices[split]
            whole = part == slice(0, lens[split])
            values = []
            for total, varying in parts:
                for h, m in varying:
                    h = h if whole else h[part]
                    h = h if m is None else h * m
                    total = h if total is None else total + h
                values.append(0.0 if total is None else total)
            yield start, shape, values

    def scan(self, fn, *polys: PolySymbol) -> Tuple[ScanResult, ...]:
        """fn(*values of polys on a block) -> [(values, include_mask or
        None), ...]; one minimum per pair, folded over the blocks as the
        determinism contract says.  fn only reads the values: a value
        free of the run axis is one array for all blocks of a prefix."""
        used = [any(e) for e in zip(*(e for p in polys for e in p.terms))]
        walk = [i for i, slot in enumerate(self.slots) if used and used[slot]]
        parts = [[_reduce(vals, mask, start, shape)
                  for vals, mask in fn(*values)]
                 for start, shape, values in self._blocks(walk, *polys)]
        lens = [self._lens[i] for i in walk]
        strides = [math.prod(self._lens[i + 1:]) for i in walk]
        per = self.total // math.prod(lens)
        out = []
        for column in zip(*parts):  # the first least value in block order
            best, flat, _ = min(column, key=lambda part: part[0])
            if best == math.inf:  # nothing beats the fold's start
                flat = -1
            elif flat > 0:  # the walked flat index, index 0 on skipped axes
                flat = int(sum(k * s for k, s in zip(
                    np.unravel_index(flat, lens), strides)))
            out.append(ScanResult(best, flat, per * sum(
                part[2] for part in column), self.total))
        return tuple(out)


def _outer(h, prefixes, rank: int):
    """A cofactor's values on a block of prefixes, broadcast to the shape
    prefixes + (run or 1, 1, ..), so that h[prefix] is its values on the
    run axis; a float stays one."""
    if prefixes and isinstance(h, np.ndarray):
        h = np.broadcast_to(h, prefixes + h.shape[h.ndim - rank:])
    return h


def _at_prefix(cofactors, at):
    """(the sum of H_m * m over the cofactors free of the run axis, or
    None; [(H_m along the run axis, m), ...] of the others) at the prefix
    at; m None is the monomial 1."""
    fixed, varying = [], []
    for h, along, m in cofactors:
        h = h[at] if isinstance(h, np.ndarray) else h
        if along:
            varying.append((h, m))
        else:
            fixed.append(h if m is None else h * m)
    return (sum(fixed[1:], fixed[0]) if fixed else None), varying


def _reduce(vals, mask, start: int, shape):
    """(min, its flat index, included) of the values broadcast to the
    block shape, reduced over the pair's own shape: the first C-order
    minimum of a broadcast array has index 0 on every broadcast axis, and
    each entry stands for that many block points.  Excluded entries read
    +inf, which never beats the fold's start."""
    n = included = math.prod(shape)
    if mask is not None:
        size = np.size(mask)
        k = int(np.count_nonzero(mask))
        if k == 0:
            return math.inf, -1, 0
        if k < size:
            vals = np.where(mask, vals, math.inf)
        included = k * (n // size)
    vals = np.asarray(vals)
    i = int(vals.argmin())
    mn = float(vals.flat[i])
    if vals.size != n:  # broadcast, not only short of the leading 1s
        i = int(np.ravel_multi_index((0,) * (len(shape) - vals.ndim)
                                     + np.unravel_index(i, vals.shape), shape))
    return mn, start + i, included


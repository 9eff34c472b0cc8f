"""The one grid walker, over exact axes in integer index coordinates.

A TensorGrid axis is a span of exact equally spaced nodes, integer
multiples of its unit (their gcd), so a grid point is unit * U with an
integer U per slot; no node is built but a witness.
TensorGrid.integer rescales a polynomial to integer coefficients,
p(unit * U) = P(U) / D, and refuses one whose integers could reach 2^53
(ScanTooLarge).  Below 2^53 float64 adds and multiplies integers exactly,
in any order, and rounds a quotient of two correctly, hence monotonely:
each scan decision is the sign of an exact integer, each reported minimum
the exact one correctly rounded (a maximum is read as the minimum of the
negated values).  scan(fn, *polys) evaluates the polynomials on each
block, their terms varying over the most points first, and fn(*values)
returns (values, mask) pairs.  It walks only the axes they depend on: a
skipped axis holds index 0 in every witness, each walked point counts
for the points along the skipped axes, and total and MAX_SCAN_POINTS
stay the full grid's.  Blocks are contiguous in C order over the walked
axes, at most _BLOCK points.  Determinism contract: the scan is serial;
each block is reduced on its own (lowest flat index wins ties), over the
values' own shape, and the partials are folded in block order with
strict comparisons, so the block budget never changes an output bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from hypcert.symbols import PhasePoint, PolySymbol

# Walked points per block, measured with certify_region on b2 at grid 33
# (2-core x86_64): 2^15-2^18 ran slower, 2^13 about 1.4x as long.
_BLOCK = 1 << 14
MAX_SCAN_POINTS = 1 << 30  # d = 2 at grid 33 is 39.1M points; d = 3 is 4.3e10
EXACT = 1 << 53  # float64 integers are exact below this


class ScanTooLarge(ValueError):
    """A scan past MAX_SCAN_POINTS points or with integers that could reach
    EXACT, or a structural check past MAX_THETAS thetas."""


def uniform_axis(lo: Fraction, hi: Fraction, n: int) -> Tuple[Fraction, ...]:
    """n >= 1 equally spaced exact points from lo to hi (lo alone at 1)."""
    step = (hi - lo) / max(n - 1, 1)
    return tuple(lo + k * step for k in range(n))


def check_exact(*bounds: int) -> None:
    """Refuse a scan when a bound on one of its integers reaches EXACT."""
    worst = max(bounds)
    if worst >= EXACT:
        raise ScanTooLarge("a scan integer could reach %d (2^%.1f), past the "
                           "2^53 below which float64 integers are exact"
                           % (worst, math.log2(worst)))


def blocks(lens, budget: int):
    """(first flat index, slices, shape) of the contiguous C-order blocks
    of a grid with these axis lengths, of at most budget points (one at
    the least): a run along the first axis whose trailing axes fit, the
    axes before it fixed."""
    strides = [math.prod(lens[i + 1:]) for i in range(len(lens))]
    split = 0
    while split < len(lens) - 1 and strides[split] > budget:
        split += 1
    run = max(1, budget // strides[split])
    for prefix in itertools.product(*map(range, lens[:split])):
        base = sum(i * s for i, s in zip(prefix, strides))
        for lo in range(0, lens[split], run):
            hi = min(lo + run, lens[split])
            yield (base + lo * strides[split],
                   tuple(slice(i, i + 1) for i in prefix)
                   + (slice(lo, hi),) + (slice(None),) * len(lens[split + 1:]),
                   (1,) * split + (hi - lo,) + tuple(lens[split + 1:]))


@dataclass(frozen=True)
class ScanResult:
    min_value: float
    min_flat: int
    n_included: int
    n_total: int


class TensorGrid:
    """Tensor grid over selected phase-space slots, the other slots 0.
    Each axis is a span (slot, (lo, hi, n)): the n nodes of
    uniform_axis(lo, hi, n), lo + k * step, of which only a witness
    point is ever built.  Its unit is
    gcd(lo, step), the gcd of its nodes, so its index axis is
    first + inc * k with first = lo / unit and inc = step / unit."""

    def __init__(self, d: int, axes):
        self.d = d
        self.slots = tuple(slot for slot, _ in axes)
        self._lens = tuple(n for _, (_, _, n) in axes)
        self.total = math.prod(self._lens)
        if self.total > MAX_SCAN_POINTS:
            raise ScanTooLarge("a scan of %d grid points exceeds the budget "
                               "of %d" % (self.total, MAX_SCAN_POINTS))
        self._units = [Fraction(0)] * (2 * (d + 1))  # a slot off the grid
        self._umax = [0] * (2 * (d + 1))
        self._steps, self._float_axes = [], []
        for slot, (lo, hi, n) in axes:
            lo = Fraction(lo)
            step = (hi - lo) / (n - 1) if n > 1 else Fraction(0)
            den = math.lcm(lo.denominator, step.denominator)
            first, inc = int(lo * den), int(step * den)
            unit = math.gcd(first, inc) or den
            first, inc = first // unit, inc // unit
            self._units[slot] = Fraction(unit, den)
            self._umax[slot] = max(abs(first), abs(first + inc * (n - 1)))
            self._steps.append((lo, step))
            self._float_axes.append(
                np.array([first + inc * k for k in range(n)], float))

    def point(self, flat: int) -> PhasePoint:
        vals = [Fraction(0)] * (2 * (self.d + 1))
        for slot, (lo, step), k in zip(self.slots, self._steps,
                                       np.unravel_index(flat, self._lens)):
            vals[slot] = lo + int(k) * step
        return PhasePoint.from_sequence(self.d, vals)

    def integer(self, *polys: PolySymbol):
        """(P_1, .., P_k, D): integer polynomials over one integer D > 0
        with p_i = P_i(U) / D at every grid point, U its index coordinates;
        refused when D or the bound of a P_i reaches EXACT.  Terms on a
        slot off the grid (0 there) drop; the rest vary over most points
        first."""
        scaled = [{e: math.prod((u ** k for u, k in zip(self._units, e) if k),
                                start=c)
                   for e, c in p.terms.items()} for p in polys]
        den = math.lcm(*(c.denominator for s in scaled for c in s.values()))
        out = tuple(PolySymbol(self.d, {
            e: s[e].numerator * (den // s[e].denominator)
            for e in sorted(s, reverse=True, key=lambda x: math.prod(
                n for slot, n in zip(self.slots, self._lens) if x[slot]))})
            for s in scaled)
        check_exact(den, *map(self.bound, out))
        return out + (den,)

    def bound(self, poly: PolySymbol) -> int:
        """sum |c| max|U|^e of an integer polynomial, which no partial
        product or sum of its float evaluation on the grid exceeds."""
        return int(sum(abs(c) * math.prod(m ** k for m, k in
                                          zip(self._umax, e))
                       for e, c in poly.terms.items()))

    def _blocks(self, walk):
        """(first walked flat index, block shape, index coordinates by
        slot; 0.0 on slots off the walk) over the walked axes."""
        axes = [self._float_axes[i].reshape((-1,) + (1,) * (len(walk) - k - 1))
                for k, i in enumerate(walk)]
        coords = [0.0] * (2 * (self.d + 1))
        lens = [self._lens[i] for i in walk] or [1]  # no axis: one point
        for start, slices, shape in blocks(lens, _BLOCK):
            for i, ax, part in zip(walk, axes, slices):
                coords[self.slots[i]] = ax[part]
            yield start, shape, tuple(coords)

    def scan(self, fn, *polys: PolySymbol) -> Tuple[ScanResult, ...]:
        """fn(*values of polys on a block) -> [(values, include_mask or
        None), ...]; one minimum per pair, folded over the blocks as the
        determinism contract says."""
        walk = [i for i, slot in enumerate(self.slots)
                if any(p.depends_on(slot) for p in polys)]
        parts = [[_reduce(vals, mask, start, shape)
                  for vals, mask in fn(*(p.eval(coords) for p in polys))]
                 for start, shape, coords in self._blocks(walk)]
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


def _reduce(vals, mask, start: int, shape):
    """(min, its flat index, included) of the values broadcast to the
    block shape, reduced over the pair's own shape: the first C-order
    minimum of a broadcast array has index 0 on every broadcast axis, and
    each entry stands for that many block points.  Excluded entries read
    +inf, which never beats the fold's start."""
    n = math.prod(shape)
    if mask is not None:
        n = int(np.count_nonzero(mask)) * (n // np.size(mask))
        if n == 0:
            return math.inf, -1, 0
        vals = np.where(mask, vals, math.inf)
    vals = np.asarray(vals)
    i = int(np.argmin(vals))
    mn = float(vals.flat[i])
    if vals.shape != shape:
        i = int(np.ravel_multi_index((0,) * (len(shape) - vals.ndim)
                                     + np.unravel_index(i, vals.shape), shape))
    return mn, start + i, n


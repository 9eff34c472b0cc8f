"""The one grid walker, over exact axes in integer index coordinates.

A TensorGrid axis holds exact rationals, integer multiples of its unit
(their gcd), so a grid point is unit * U with an integer U per slot, and
fn sees the U as floats.  TensorGrid.integer rescales a polynomial to
integer coefficients, p(unit * U) = P(U) / D.  Integers below 2^53 add
and multiply exactly in float64 and a quotient of two is correctly
rounded, hence monotone: each scan decision is the sign of an exact
integer, each reported extremum the exact one correctly rounded.  A scan
whose integers could reach 2^53 is refused (ScanTooLarge).

Blocks are contiguous in C order, at most _BLOCK points: a run along the
first axis whose trailing axes fit, the axes before it fixed.  Each axis
is a float array shaped for broadcasting, so a block's coordinates are
views.  Determinism contract: the scan is serial; each block is reduced
on its own (lowest flat index wins ties), over the values' own shape,
and the partials are folded in block order with strict comparisons, so
the block budget never changes an output bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from hypcert.symbols import PhasePoint, PolySymbol

_BLOCK = 1 << 18  # points per scan block
MAX_SCAN_POINTS = 1 << 30  # d = 2 at grid 33 is 39.1M points; d = 3 is 4.3e10
EXACT = 1 << 53  # float64 integers are exact below this


class ScanTooLarge(ValueError):
    """A scan past MAX_SCAN_POINTS points or with integers that could reach
    EXACT, or a structural check past MAX_THETAS thetas."""


def uniform_axis(lo: Fraction, hi: Fraction, n: int) -> Tuple[Fraction, ...]:
    """n >= 2 equally spaced exact points from lo to hi."""
    step = (hi - lo) / (n - 1)
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
    max_value: float
    max_flat: int
    n_included: int
    n_total: int


class TensorGrid:
    """Tensor grid of exact axes over selected phase-space slots; the
    other slots are 0."""

    def __init__(self, d: int, axes):
        self.d = d
        self.slots = tuple(slot for slot, _ in axes)
        self.axes = tuple(tuple(ax) for _, ax in axes)
        self._lens = tuple(len(ax) for ax in self.axes)
        self.total = math.prod(self._lens)
        if self.total > MAX_SCAN_POINTS:
            raise ScanTooLarge("a scan of %d grid points exceeds the budget "
                               "of %d" % (self.total, MAX_SCAN_POINTS))
        self._units = [Fraction(1)] * (2 * (d + 1))
        self._umax = [0] * (2 * (d + 1))
        self._float_axes = []
        for i, (slot, ax) in enumerate(zip(self.slots, self.axes)):
            den = math.lcm(*(v.denominator for v in ax))
            nums = [v.numerator * (den // v.denominator) for v in ax]
            unit = math.gcd(*nums) or den
            self._units[slot] = Fraction(unit, den)
            self._umax[slot] = max(map(abs, nums)) // unit
            self._float_axes.append(np.array(
                [v // unit for v in nums], dtype=float).reshape(
                    [-1 if j == i else 1 for j in range(len(self._lens))]))

    def point(self, flat: int) -> PhasePoint:
        vals = [Fraction(0)] * (2 * (self.d + 1))
        for slot, ax, k in zip(self.slots, self.axes,
                               np.unravel_index(flat, self._lens)):
            vals[slot] = ax[k]
        return PhasePoint.from_sequence(self.d, vals)

    def integer(self, *polys: PolySymbol):
        """(P_1, .., P_k, D): integer polynomials over one integer D > 0
        with p_i = P_i(U) / D at every grid point, U its index coordinates;
        refused when D or the bound of a P_i reaches EXACT."""
        scaled = [{e: math.prod((u ** k for u, k in zip(self._units, e) if k),
                                start=c)
                   for e, c in p.terms.items()} for p in polys]
        den = math.lcm(*(c.denominator for s in scaled for c in s.values()))
        out = tuple(PolySymbol(self.d, {e: c.numerator * (den // c.denominator)
                                        for e, c in s.items()})
                    for s in scaled)
        check_exact(den, *map(self.bound, out))
        return out + (den,)

    def bound(self, poly: PolySymbol) -> int:
        """sum |c| max|U|^e of an integer polynomial, which no partial
        product or sum of its float evaluation on the grid exceeds."""
        return int(sum(abs(c) * math.prod(m ** k for m, k in
                                          zip(self._umax, e))
                       for e, c in poly.terms.items()))

    def _blocks(self):
        """(first flat index, block shape, index coordinates by slot) in C
        order; the coordinates broadcast against the block shape."""
        zero = np.zeros((1,) * len(self._lens))
        for start, slices, shape in blocks(self._lens, _BLOCK):
            coords = [zero] * (2 * (self.d + 1))
            for i, (slot, fax) in enumerate(zip(self.slots, self._float_axes)):
                coords[slot] = fax[(slice(None),) * i + (slices[i],)]
            yield start, shape, coords

    def scan(self, fn) -> Tuple[ScanResult, ...]:
        """fn(index coordinates) -> [(values, include_mask or None), ...]
        per block; one min/max reduction per pair, folded over the blocks
        as the determinism contract says."""
        parts = [[_reduce(vals, mask, start, shape)
                  for vals, mask in fn(coords)]
                 for start, shape, coords in self._blocks()]
        return tuple(_fold(column, self.total) for column in zip(*parts))


def _reduce(vals, mask, start: int, shape):
    """(min, its flat index, max, its flat index, included) of the values
    broadcast to the block shape, reduced over the pair's own shape: the
    first C-order extremum of a broadcast array has index 0 on every
    broadcast axis, and each entry stands for that many block points."""
    own = np.broadcast_shapes(np.shape(vals),
                              () if mask is None else np.shape(mask))
    own = (1,) * (len(shape) - len(own)) + own
    vals = np.broadcast_to(vals, own)
    if mask is None:
        i, j = int(np.argmin(vals)), int(np.argmax(vals))
        mn, mx, n = vals.flat[i], vals.flat[j], vals.size
    else:
        mask = np.broadcast_to(mask, own)
        sel = np.flatnonzero(mask)
        if sel.size == 0:
            return (math.inf, -1, -math.inf, -1, 0)
        sub = vals[mask]
        i, j = int(np.argmin(sub)), int(np.argmax(sub))
        mn, mx, n = sub[i], sub[j], sel.size
        i, j = int(sel[i]), int(sel[j])
    if own != shape:
        i, j = (int(np.ravel_multi_index(np.unravel_index(k, own), shape))
                for k in (i, j))
    return (float(mn), start + i, float(mx), start + j,
            n * (math.prod(shape) // math.prod(own)))


def _fold(parts, total: int) -> ScanResult:
    best_min, min_flat = math.inf, -1
    best_max, max_flat = -math.inf, -1
    included = 0
    for mn, mni, mx, mxi, inc in parts:
        included += inc
        if mn < best_min:
            best_min, min_flat = mn, mni
        if mx > best_max:
            best_max, max_flat = mx, mxi
    return ScanResult(best_min, min_flat, best_max, max_flat, included, total)

"""Seeded symbol files for the classify-sweep workload.

Each draw is ``a = sum_k w_k L_k^2`` with ``L_k`` a linear form in
``u = (t, x1..xd, xi1..xi_{d-1}, xi_d - 1)``, so ``-tau^2 + a`` has a
double characteristic at the base point ``(0, 0, 0, e_d)``.  Dimensions
cycle through ``d = 1, 2, 3``; the number of squares is uniform in
``1..2d+1``; weights are ``i/j`` with ``i, j`` in ``1..4`` and form
coefficients ``i/j`` with ``i`` in ``-3..3`` and ``j`` in ``1..3``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from checks import var_names

DIMENSIONS = (1, 2, 3)


def _sum_of_squares(rng: random.Random, d: int) -> List[List[Fraction]]:
    """Gram matrix A of sum_k w_k L_k^2 over the 2d+1 variables u."""
    m = 2 * d + 1
    gram = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(rng.randint(1, m)):
        coeffs = [Fraction(0)] * m
        while not any(coeffs):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(m)]
        w = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for i in range(m):
            for j in range(m):
                gram[i][j] += w * coeffs[i] * coeffs[j]
    return gram


def symbol_terms(gram: List[List[Fraction]], d: int) -> List[dict]:
    """Terms of u^T A u in the file's variables, with xi_d = 1 + u_last."""
    n = 2 * d + 2
    # u_i as (variable slot or None for the constant, coefficient) pairs
    u = [[(s, 1)] for s in range(d + 1)] + \
        [[(s, 1)] for s in range(d + 2, n - 1)] + [[(n - 1, 1), (None, -1)]]
    poly: Dict[Tuple[int, ...], Fraction] = {}
    for i, row in enumerate(gram):
        for j, c in enumerate(row):
            for vi, ci in u[i]:
                for vj, cj in u[j]:
                    exps = [0] * n
                    for v in (vi, vj):
                        if v is not None:
                            exps[v] += 1
                    key = tuple(exps)
                    poly[key] = poly.get(key, Fraction(0)) + c * ci * cj
    names = var_names(d)
    terms = []
    for exps, c in sorted(poly.items()):
        if c:
            terms.append({"coeff": str(c),
                          "exponents": {names[i]: e for i, e in
                                        enumerate(exps) if e}})
    return terms


def draw_batch(seed: int, size: int) -> List[Tuple[int, bytes]]:
    """``size`` symbol files as (d, JSON bytes); the same seed gives the
    same bytes."""
    rng = random.Random(seed)
    out = []
    for k in range(size):
        d = DIMENSIONS[k % len(DIMENSIONS)]
        doc = {"schema": 1, "d": d,
               "terms": symbol_terms(_sum_of_squares(rng, d), d)}
        out.append((d, json.dumps(doc, sort_keys=True).encode("utf-8")))
    return out

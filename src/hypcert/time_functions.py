"""Time functions adapted to each branch.

For the elliptic-remainder branch the time function is t - sum eps_i x_i
with weights chosen to minimize sum eps_i^2 rbar_i subject to
sum eps_i = 1.  The minimizer puts eps_i proportional to 1/rbar_i, so
the minimum value rho is 1/(sum 1/rbar_i); the strict weight condition
sum 1/rbar_i > 1 is exactly what makes rho < 1.  The target kappa adds
half the user slack on top of rho.

For the remainder-square branch the graph function phi carried by the
spec is already the time function shift; the double-bracket side
condition makes the leading contribution vanish, so kappa is slack/2.

The paper's pointwise criterion, that the localized quadratic form is
negative on -H_{t - phi}, holds by construction and is not evaluated
here: phi is free of xi, so -H_{t - phi} has no x component, and the
form takes the value -1 on it for form1 and rho - 1 < 0 for form2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from hypcert.normal_forms import NormalFormSpec
from hypcert.symbols import (
    PolySymbol,
    _Record,
    as_fraction,
    homogeneity_check,
)

Number = Union[int, float, Fraction]

FORM1_LIFT = "form1-lift"
FORM2_WEIGHTS = "form2-weights"


class WeightSelection(NamedTuple):
    eps: Tuple[Fraction, ...]
    rho_weight: Fraction
    kappa: Fraction


def epsilon_weights(rbar: Sequence[Number], slack: Number) -> WeightSelection:
    """Minimizing weights for sum eps_i^2 rbar_i under sum eps_i = 1.

    All arithmetic exact: eps_i = (1/rbar_i) / S with S = sum 1/rbar_j,
    rho = 1/S, kappa = rho + slack/2.
    """
    rb = [as_fraction(v) for v in rbar]
    if not rb or any(v <= 0 for v in rb):
        raise ValueError("rbar must be a nonempty list of positive rationals")
    slack = as_fraction(slack)
    if slack <= 0:
        raise ValueError("slack must be positive")
    inv = [Fraction(1) / v for v in rb]
    s = sum(inv)
    if s <= 1:
        raise ValueError("sum of inverse weights is %s <= 1" % s)
    eps = tuple(v / s for v in inv)
    rho = 1 / s
    kappa = rho + slack / 2
    if kappa >= 1:
        raise ValueError("kappa = %s >= 1" % kappa)
    return WeightSelection(eps=eps, rho_weight=rho, kappa=kappa)


def _check_telescope(phi: PolySymbol, alpha: Sequence[Fraction]) -> None:
    """Raise ValueError unless t - phi = sum_j alpha_j (x_{j-1} - x_j)
    with x_0 = t, as an exact polynomial identity."""
    d = phi.d
    chain = [PolySymbol.coordinate(d, "t")] + [
        PolySymbol.coordinate(d, "x%d" % i) for i in range(1, d + 1)]
    rhs = sum((a * (chain[j] - chain[j + 1]) for j, a in enumerate(alpha)),
              PolySymbol.zero(d))
    if chain[0] - phi != rhs:
        raise ValueError("alpha (%s) does not rewrite t - phi = %s"
                         % (", ".join(map(str, alpha)), chain[0] - phi))


def alpha_coefficients(eps: Sequence[Number]) -> Tuple[Fraction, ...]:
    """Tail sums alpha_j = sum_{i=j}^p eps_i, rewriting t - sum eps_i x_i
    as sum alpha_j (x_{j-1} - x_j) with x_0 = t; TimeFunctionCert checks
    that identity exactly."""
    ep = [as_fraction(v) for v in eps]
    if sum(ep) != 1:
        raise ValueError("weights sum to %s, not 1" % sum(ep))
    return tuple(sum(ep[j:]) for j in range(len(ep)))


class TimeFunctionCert(_Record):
    __slots__ = _fields = ("phi", "branch", "kappa_target", "slack",
                           "eps", "rho_weight", "alpha")

    def __init__(self, phi: PolySymbol, branch: str, kappa_target: Fraction,
                 slack: Fraction, eps: Tuple[Fraction, ...] = (),
                 rho_weight: Optional[Fraction] = None,
                 alpha: Tuple[Fraction, ...] = ()):
        if not homogeneity_check(phi, 0):
            raise ValueError("phi must be xi-homogeneous of degree 0")
        if not 0 < kappa_target < 1:
            raise ValueError("kappa_target = %s outside (0, 1)"
                             % kappa_target)
        if eps:
            if sum(eps) != 1:
                raise ValueError("weights sum to %s" % sum(eps))
            _check_telescope(phi, alpha)
        self.phi, self.branch, self.kappa_target = phi, branch, kappa_target
        self.slack, self.eps, self.rho_weight = slack, eps, rho_weight
        self.alpha = alpha


def construct_time_function(spec: NormalFormSpec,
                            slack: Number) -> TimeFunctionCert:
    """Build the branch-appropriate certificate for a validated spec."""
    slack = as_fraction(slack)
    if slack <= 0:
        raise ValueError("slack must be positive")
    if spec.variant == "form1":
        kappa = slack / 2
        if kappa >= 1:
            raise ValueError("kappa = %s >= 1" % kappa)
        return TimeFunctionCert(phi=spec.phi, branch=FORM1_LIFT,
                                kappa_target=kappa, slack=slack)
    sel = epsilon_weights(spec.r_bars(), slack)
    d = spec.d
    phi = PolySymbol.zero(d)
    for i, e in enumerate(sel.eps, start=1):
        phi = phi + e * PolySymbol.coordinate(d, "x%d" % i)
    alpha = alpha_coefficients(sel.eps)
    return TimeFunctionCert(phi=phi, branch=FORM2_WEIGHTS,
                            kappa_target=sel.kappa, slack=slack,
                            eps=sel.eps, rho_weight=sel.rho_weight,
                            alpha=alpha)


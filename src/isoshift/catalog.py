"""Undeformed potential families and their superpotential branches.

Two families ship: the radial oscillator V(r) = (1/4) w^2 r^2 + l(l+1)/r^2 on
(0, inf) and the trigonometric Darboux-Poschl-Teller potential
V(x) = A(A+1)csc^2 x + B(B+1)sec^2 x on (0, pi/2).  Each admits four
superpotential branches w(x) solving w^2 - w' = V - E for four factorization
energies; shape invariance pairs branch 1 with branch 4 (and 2 with 3 for
DPT) under a unit shift of the branch parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Function1D",
    "RadialOscillator",
    "TrigDPT",
    "Branch",
    "branches",
    "get_branch",
    "potential",
    "superpotential",
    "partner_potentials",
    "tau",
    "si_pair_check",
]


@dataclass(frozen=True)
class Function1D:
    """A real function on an open interval with analytic derivatives.

    `df` is the first derivative and is always analytic (never a finite
    difference); `d2f` is optional and present whenever a downstream residual
    check needs it.  `singular_points` lists interior points where evaluation
    is not finite.  `jet`, when present, maps x to (f(x), df(x), d2f(x))
    computed in one evaluation; callers that need several of the three use it
    instead of calling f, df and d2f one by one.
    """

    f: Callable
    df: Optional[Callable]
    domain: tuple
    d2f: Optional[Callable] = None
    singular_points: tuple = ()
    jet: Optional[Callable] = None

    def __call__(self, x):
        return self.f(x)

    def deriv(self, x):
        if self.df is None:
            raise ValueError("this Function1D carries no derivative")
        return self.df(x)

    def deriv2(self, x):
        if self.d2f is None:
            raise ValueError("this Function1D carries no second derivative")
        return self.d2f(x)


@dataclass(frozen=True)
class RadialOscillator:
    """Radial oscillator family: V(r) = (1/4) omega^2 r^2 + ell(ell+1)/r^2."""

    omega: float
    ell: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.ell)):
            raise ConfigurationError(
                f"omega and ell must be finite, got omega={self.omega}, ell={self.ell}"
            )
        if self.omega <= 0.0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if self.ell < 0.0:
            raise ConfigurationError(f"ell must be nonnegative, got {self.ell}")

    @property
    def domain(self):
        return (0.0, math.inf)


@dataclass(frozen=True)
class TrigDPT:
    """Trigonometric DPT family: V(x) = A(A+1)csc^2 x + B(B+1)sec^2 x."""

    A: float
    B: float

    def __post_init__(self):
        if not (math.isfinite(self.A) and math.isfinite(self.B)):
            raise ConfigurationError(f"A and B must be finite, got A={self.A}, B={self.B}")
        if self.A <= -0.5 or self.B <= -0.5:
            raise ConfigurationError(
                f"A and B must exceed -1/2, got A={self.A}, B={self.B}"
            )

    @property
    def domain(self):
        return (0.0, math.pi / 2.0)


@dataclass(frozen=True)
class Branch:
    """One superpotential solution w = (b/2)x + a/x (RO) or a cot x - b tan x (DPT)."""

    k: int
    a: float
    b: float
    factorization_energy: float
    susy_kind: str  # "exact" or "broken"


def _ro_branches(fam: RadialOscillator):
    w, l = fam.omega, fam.ell
    # factorization energy E solves w^2 - w' = V - E; the constant
    # w^2 - w' - V equals b(a - 1/2)
    table = [
        (1, -(l + 1.0), +w, "exact"),
        (2, l, +w, "broken"),
        (3, -(l + 1.0), -w, "broken"),
        (4, l, -w, "exact"),
    ]
    return [Branch(k, a, b, -b * (a - 0.5), kind) for k, a, b, kind in table]


def _dpt_branches(fam: TrigDPT):
    A, B = fam.A, fam.B
    # here w^2 - w' - V = -(a+b)^2 and the factorization energies are quoted
    # as E = -(A+B)^2, -(1+A-B)^2, -(1-A+B)^2, -(2+A+B)^2
    table = [
        (1, A, B, "exact"),
        (2, -A - 1.0, B, "broken"),
        (3, A, -B - 1.0, "broken"),
        (4, -A - 1.0, -B - 1.0, "exact"),
    ]
    return [Branch(k, a, b, -((a + b) ** 2), kind) for k, a, b, kind in table]


def branches(family):
    """All four superpotential branches of a family, ordered by index k."""
    if isinstance(family, RadialOscillator):
        return _ro_branches(family)
    if isinstance(family, TrigDPT):
        return _dpt_branches(family)
    raise ConfigurationError(f"unknown family {type(family).__name__}")


def get_branch(family, k):
    """The branch with index k in {1, 2, 3, 4}."""
    if k not in (1, 2, 3, 4):
        raise ConfigurationError(f"branch index must be in 1..4, got {k}")
    return branches(family)[k - 1]


def potential(family) -> Function1D:
    """The undeformed potential V as a Function1D on the family domain."""
    if isinstance(family, RadialOscillator):
        w2, ll = family.omega**2, family.ell * (family.ell + 1.0)

        def f(r):
            return 0.25 * w2 * np.asarray(r) ** 2 + ll / np.asarray(r) ** 2

        def df(r):
            return 0.5 * w2 * np.asarray(r) - 2.0 * ll / np.asarray(r) ** 3

        return Function1D(f=f, df=df, domain=family.domain)
    if isinstance(family, TrigDPT):
        ca, cb = family.A * (family.A + 1.0), family.B * (family.B + 1.0)

        def f(x):
            return ca / np.sin(x) ** 2 + cb / np.cos(x) ** 2

        def df(x):
            return (
                -2.0 * ca * np.cos(x) / np.sin(x) ** 3
                + 2.0 * cb * np.sin(x) / np.cos(x) ** 3
            )

        return Function1D(f=f, df=df, domain=family.domain)
    raise ConfigurationError(f"unknown family {type(family).__name__}")


def _ro_superpotential(fam: RadialOscillator, a, b) -> Function1D:
    def f(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * b * r + a / r

    def df(r):
        r = np.asarray(r, dtype=float)
        return 0.5 * b - a / r**2

    def d2f(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * a / r**3

    return Function1D(f=f, df=df, d2f=d2f, domain=fam.domain)


def _dpt_superpotential(fam: TrigDPT, a, b) -> Function1D:
    def f(x):
        x = np.asarray(x, dtype=float)
        return a / np.tan(x) - b * np.tan(x)

    def df(x):
        x = np.asarray(x, dtype=float)
        return -a / np.sin(x) ** 2 - b / np.cos(x) ** 2

    def d2f(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * a * np.cos(x) / np.sin(x) ** 3 - 2.0 * b * np.sin(x) / np.cos(x) ** 3

    return Function1D(f=f, df=df, d2f=d2f, domain=fam.domain)


def _superpotential_ab(family, a, b) -> Function1D:
    if isinstance(family, RadialOscillator):
        return _ro_superpotential(family, a, b)
    if isinstance(family, TrigDPT):
        return _dpt_superpotential(family, a, b)
    raise ConfigurationError(f"unknown family {type(family).__name__}")


def superpotential(family, branch) -> Function1D:
    """The superpotential of a branch, with analytic first two derivatives."""
    if isinstance(branch, int):
        branch = get_branch(family, branch)
    if not isinstance(branch, Branch):
        raise ConfigurationError(f"expected Branch or index, got {type(branch).__name__}")
    return _superpotential_ab(family, branch.a, branch.b)


def partner_potentials(w: Function1D):
    """SUSY partners (V-, V+) = (w^2 - w', w^2 + w')."""
    if w.df is None:
        raise ConfigurationError("superpotential must carry an analytic derivative")
    has_d2 = w.d2f is not None

    def make(sign):
        def f(x):
            return w.f(x) ** 2 + sign * w.df(x)

        def df(x):
            return 2.0 * w.f(x) * w.df(x) + sign * w.d2f(x)

        return Function1D(
            f=f,
            df=df if has_d2 else None,
            domain=w.domain,
            singular_points=w.singular_points,
        )

    return make(-1.0), make(+1.0)


def tau(family):
    """The shape-invariance parameter map: (omega, ell) -> (omega, ell+1);
    (A, B) -> (A+1, B+1)."""
    if isinstance(family, RadialOscillator):
        return RadialOscillator(family.omega, family.ell + 1.0)
    if isinstance(family, TrigDPT):
        return TrigDPT(family.A + 1.0, family.B + 1.0)
    raise ConfigurationError(f"unknown family {type(family).__name__}")


def si_pair_check(family, branch_i, branch_j, grid):
    """Max over the grid of |w_i(x) + w_j(x; shifted parameters)|.

    The shift applied to branch j's parameters is the unit step induced by
    tau on the branch (a, b): (a+1, b) for the radial oscillator, (a+1, b+1)
    for DPT.  A residual at rounding level certifies the shape-invariance
    pairing; a mismatched pairing returns an O(1) residual.
    """
    bi = get_branch(family, branch_i) if isinstance(branch_i, int) else branch_i
    bj = get_branch(family, branch_j) if isinstance(branch_j, int) else branch_j
    if isinstance(family, RadialOscillator):
        shifted = (bj.a + 1.0, bj.b)
    elif isinstance(family, TrigDPT):
        shifted = (bj.a + 1.0, bj.b + 1.0)
    else:
        raise ConfigurationError(f"unknown family {type(family).__name__}")
    wi = _superpotential_ab(family, bi.a, bi.b)
    wj = _superpotential_ab(family, *shifted)
    pts = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(wi.f(pts) + wj.f(pts))))

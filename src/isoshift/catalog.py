"""Potential families, their superpotential branches and partner potentials.

Two families ship: the radial oscillator V(r) = (1/4) w^2 r^2 + l(l+1)/r^2 on
(0, inf) and the trigonometric Darboux-Poschl-Teller potential
V(x) = A(A+1)csc^2 x + B(B+1)sec^2 x on (0, pi/2).  Each admits four
superpotential branches w(x) solving w^2 - w' = V - E for four factorization
energies; shape invariance pairs branch 1 with branch 4 (and 2 with 3 for
DPT) under a unit shift of the branch parameters.  Everything that differs
between the families lives on the family classes (see Family); the
functions of this module and of deform, spectral and cli are written once
against that protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import polyengine as pe
from .errors import ConfigurationError

__all__ = [
    "Function1D",
    "Family",
    "FAMILIES",
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
    is not finite.  `jet`, when present, maps x to the rows the function
    carries, (f(x), df(x), d2f(x)), or (f(x), df(x)) when d2f is None,
    computed in one evaluation; `jet(x, order)` returns only the first
    order + 1 rows and evaluates no further.  Callers that need several rows
    use it instead of calling f, df and d2f one by one.  The package's jets,
    and the f, df and d2f taken from them, evaluate a 1-D x longer than
    polyengine._BLOCK points one block at a time (see _blockwise), bitwise
    as in one pass.
    """

    f: Callable
    df: Optional[Callable]
    domain: tuple
    d2f: Optional[Callable] = None
    singular_points: tuple = ()
    jet: Optional[Callable] = None

    def __call__(self, x):
        return self.f(x)


def _blockwise(fn):
    """fn(x, *args), a tuple of rows pointwise in x, over blocks of x.

    On a 1-D x longer than polyengine._BLOCK points, fn runs on one block at
    a time and its rows are written into one preallocated (rows, len(x))
    array, so the temporaries of fn stay in cache; any other x goes to fn
    whole.  Each point's arithmetic does not depend on the blocking, so the
    rows equal, bit for bit, those of one call of fn on all of x.
    """

    def run(x, *args):
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1 or arr.size <= pe._BLOCK:
            return fn(x, *args)
        out = None
        for s in pe._blocks(arr.size):
            rows = fn(arr[s], *args)
            if out is None:
                out = np.empty((len(rows), arr.size))
            for j in range(len(rows)):
                out[j, s] = rows[j]
            del rows  # before the next block's temporaries are made
        return tuple(out)

    return run


def _chain(P, y1, y2):
    """Jet in x of P(y(x)), to the order of the jet P = (P, dP/dy, d2P/dy2)
    (at most 2), from y' = y1 and y'' = y2."""
    out = [P[0]]
    if len(P) > 1:
        out.append(y1 * P[1])
    if len(P) > 2:
        out.append(y2 * P[1] + y1 * y1 * P[2])
    return tuple(out)


class Family:
    """Base class of the potential families; one deformation algorithm serves all.

    A family supplies only its data: `name` (the CLI name), `domain`,
    `branches()`, the closed forms `potential()` and `superpotential(a, b)`,
    `tau()` and the step `tau_step` it induces on a branch's (a, b),
    `sign_reversed_branches` (deformed by the second process), the degree-m
    seed of branch (a, b): `seed(a, b, m)` -> (spec, arg sign s, R),
    `seed_jet(spec, s, x, order)` -> (u, u', ...), `seed_zeros(spec, s)` and
    the closed-form `seed_zero_prediction` (or None), the intervals
    `certification_interval()`, `solver_interval(k, m)` with the node count
    `solver_points(k, m)` of certify's FD grid on it, and
    `sample_interval(rmax)`, and `exceptional_series`: branch -> series.
    """

    exceptional_series = {}
    sign_reversed_branches = ()

    @staticmethod
    def check(obj):
        """obj, if it is a family; ConfigurationError otherwise."""
        if not isinstance(obj, Family):
            raise ConfigurationError(f"unknown family {type(obj).__name__}")
        return obj

    def seed_zero_prediction(self, spec, s):
        return None


@dataclass(frozen=True)
class RadialOscillator(Family):
    """Radial oscillator family: V(r) = (1/4) omega^2 r^2 + ell(ell+1)/r^2.

    Branch w = (b/2) r + a/r.  The seed of branch (a, b) is
    L_m^(a-1/2)(s y) at y = omega r^2/2, with s = -1, R = 2 m omega for
    b > 0 and s = +1, R = -2 m omega for b < 0.
    """

    omega: float
    ell: float

    name = "radial_oscillator"
    exceptional_series = {2: "L1", 3: "L2", 1: "L3"}
    sign_reversed_branches = (3,)
    tau_step = (1.0, 0.0)

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

    def branches(self):
        w, l = self.omega, self.ell
        # factorization energy E solves w^2 - w' = V - E; the constant
        # w^2 - w' - V equals b(a - 1/2)
        table = [
            (1, -(l + 1.0), +w, "exact"),
            (2, l, +w, "broken"),
            (3, -(l + 1.0), -w, "broken"),
            (4, l, -w, "exact"),
        ]
        return [Branch(k, a, b, -b * (a - 0.5), kind) for k, a, b, kind in table]

    def potential(self):
        w2, ll = self.omega**2, self.ell * (self.ell + 1.0)

        def f(r):
            return 0.25 * w2 * np.asarray(r) ** 2 + ll / np.asarray(r) ** 2

        def df(r):
            return 0.5 * w2 * np.asarray(r) - 2.0 * ll / np.asarray(r) ** 3

        return Function1D(f=f, df=df, domain=self.domain)

    def superpotential(self, a, b):
        def f(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * b * r + a / r

        def df(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * b - a / r**2

        def d2f(r):
            r = np.asarray(r, dtype=float)
            return 2.0 * a / r**3

        return Function1D(f=f, df=df, d2f=d2f, domain=self.domain)

    def tau(self):
        return RadialOscillator(self.omega, self.ell + 1.0)

    def seed(self, a, b, m):
        return pe.LaguerreSpec(int(m), a - 0.5), (-1 if b > 0 else 1), 2.0 * m * b

    def seed_jet(self, spec, s, r, order):
        w = self.omega
        r = np.asarray(r, dtype=float)
        L = pe.laguerre_jet(spec, s * 0.5 * w * r**2, order)
        # d eta/dr = s w r and d2 eta/dr2 = s w for eta = s y
        return _chain(L, s * w * r, s * w)

    def seed_zeros(self, spec, s):
        if spec.n == 0:
            return []
        y_max = 0.5 * self.omega * (40.0 / math.sqrt(self.omega)) ** 2
        # all real zeros of L_m^alpha lie within |eta| < 4m + 2|alpha| + 20
        hi = min(y_max, 4.0 * spec.n + 2.0 * abs(spec.alpha) + 20.0)
        interval = (1e-12, hi) if s > 0 else (-hi, -1e-12)
        report = pe.real_zeros(spec, interval, samples_per_degree=512)
        ys = [s * eta for eta in report.zeros]
        return sorted(math.sqrt(2.0 * y / self.omega) for y in ys if y > 0.0)

    def seed_zero_prediction(self, spec, s):
        """The classical zero count of seeds at negative argument (Szegő,
        Orthogonal Polynomials, Thm 6.73): for non-integer alpha, L_m^alpha
        has one negative zero iff alpha < -1 and max(floor(alpha), -m - 1)
        is even, and none otherwise.  None at integer alpha."""
        if s != -1 or spec.n == 0 or float(spec.alpha).is_integer():
            return None
        one = spec.alpha < -1 and max(math.floor(spec.alpha), -spec.n - 1) % 2 == 0
        return "singular" if one else "regular"

    def certification_interval(self):
        scale = 1.0 / math.sqrt(self.omega)
        return 0.1 * scale, 12.0 * scale

    def solver_interval(self, k, m):
        # Level k - 1 of V~- lies at most omega (2k + 2m + ell + 1/2) above
        # V-'s constant (ell_eff <= ell + 1, R = 2 m omega), so rho = r / s
        # has its turning point below rho^2 = 4 (2k + 2m + ell + 1/2); the
        # +200 puts the wall e^-50 into the Gaussian tail exp(-rho^2 / 4)
        s = 1.0 / math.sqrt(self.omega)
        return 1e-4 * s, s * math.sqrt(4.0 * (2 * k + 2 * m + self.ell + 0.5) + 200.0)

    def solver_points(self, k, m):
        # nodes at most 48 s / 3001 apart, the spacing of 3000 nodes on
        # (0, 48 s), at every k and m
        lo, hi = self.solver_interval(k, m)
        return math.ceil((hi - lo) * math.sqrt(self.omega) * 3001.0 / 48.0) - 1

    def sample_interval(self, rmax=None):
        if rmax is None:
            rmax = 12.0 / np.sqrt(self.omega)
        return 0.02 * rmax, rmax


@dataclass(frozen=True)
class TrigDPT(Family):
    """Trigonometric DPT family: V(x) = A(A+1)csc^2 x + B(B+1)sec^2 x.

    Branch w = a cot x - b tan x.  The seed of branch (a, b) is
    P_m^(a-1/2, b-1/2)(cos 2x) with R = -4 m (m + a + b).
    """

    A: float
    B: float

    name = "trig_dpt"
    tau_step = (1.0, 1.0)

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

    def branches(self):
        A, B = self.A, self.B
        # here w^2 - w' - V = -(a+b)^2 and the factorization energies are quoted
        # as E = -(A+B)^2, -(1+A-B)^2, -(1-A+B)^2, -(2+A+B)^2
        table = [
            (1, A, B, "exact"),
            (2, -A - 1.0, B, "broken"),
            (3, A, -B - 1.0, "broken"),
            (4, -A - 1.0, -B - 1.0, "exact"),
        ]
        return [Branch(k, a, b, -((a + b) ** 2), kind) for k, a, b, kind in table]

    def potential(self):
        ca, cb = self.A * (self.A + 1.0), self.B * (self.B + 1.0)

        def f(x):
            return ca / np.sin(x) ** 2 + cb / np.cos(x) ** 2

        def df(x):
            return (
                -2.0 * ca * np.cos(x) / np.sin(x) ** 3
                + 2.0 * cb * np.sin(x) / np.cos(x) ** 3
            )

        return Function1D(f=f, df=df, domain=self.domain)

    def superpotential(self, a, b):
        def f(x):
            x = np.asarray(x, dtype=float)
            return a / np.tan(x) - b * np.tan(x)

        def df(x):
            x = np.asarray(x, dtype=float)
            return -a / np.sin(x) ** 2 - b / np.cos(x) ** 2

        def d2f(x):
            x = np.asarray(x, dtype=float)
            return 2.0 * a * np.cos(x) / np.sin(x) ** 3 - 2.0 * b * np.sin(x) / np.cos(x) ** 3

        return Function1D(f=f, df=df, d2f=d2f, domain=self.domain)

    def tau(self):
        return TrigDPT(self.A + 1.0, self.B + 1.0)

    def seed(self, a, b, m):
        return pe.JacobiSpec(int(m), a - 0.5, b - 0.5), 1, -4.0 * m * (m + a + b)

    def seed_jet(self, spec, s, x, order):
        x = np.asarray(x, dtype=float)
        y = np.cos(2.0 * x)
        rows = (pe.jacobi_eval, pe.jacobi_deriv, pe.jacobi_deriv2)[: order + 1]
        return _chain([d(spec, y) for d in rows], -2.0 * np.sin(2.0 * x), -4.0 * y)

    def seed_zeros(self, spec, s):
        if spec.N == 0:
            return []
        report = pe.real_zeros(spec, (-1.0 + 1e-9, 1.0 - 1e-9))
        return sorted(0.5 * math.acos(y) for y in report.zeros)

    def certification_interval(self):
        return 0.02, math.pi / 2.0 - 0.02

    def solver_interval(self, k, m):
        return 1e-6, math.pi / 2.0 - 1e-6

    def solver_points(self, k, m):
        return 3000

    def sample_interval(self, rmax=None):
        return 0.01, np.pi / 2.0 - 0.01


FAMILIES = {cls.name: cls for cls in (RadialOscillator, TrigDPT)}


@dataclass(frozen=True)
class Branch:
    """One superpotential solution w = (b/2)x + a/x (RO) or a cot x - b tan x (DPT)."""

    k: int
    a: float
    b: float
    factorization_energy: float
    susy_kind: str  # "exact" or "broken"


def branches(family):
    """All four superpotential branches of a family, ordered by index k."""
    return Family.check(family).branches()


def get_branch(family, k):
    """The branch with index k in {1, 2, 3, 4}."""
    if k not in (1, 2, 3, 4):
        raise ConfigurationError(f"branch index must be in 1..4, got {k}")
    return branches(family)[k - 1]


def potential(family) -> Function1D:
    """The undeformed potential V as a Function1D on the family domain."""
    return Family.check(family).potential()


def superpotential(family, branch) -> Function1D:
    """The superpotential of a branch, with analytic first two derivatives."""
    if isinstance(branch, int):
        branch = get_branch(family, branch)
    if not isinstance(branch, Branch):
        raise ConfigurationError(f"expected Branch or index, got {type(branch).__name__}")
    return Family.check(family).superpotential(branch.a, branch.b)


def _value_and_slope(w: Function1D, x):
    """(w(x), w'(x)), from one evaluation of w.jet when w carries one."""
    if w.jet is not None:
        return w.jet(x, 1)
    return w.f(x), w.df(x)


def partner_potentials(w: Function1D):
    """SUSY partners (V-, V+) = (w^2 - w', w^2 + w'); their f takes w and w'
    from one evaluation of w.jet when w carries one, block by block (see
    _blockwise)."""
    if w.df is None:
        raise ConfigurationError("superpotential must carry an analytic derivative")
    has_d2 = w.d2f is not None

    def make(sign):
        @_blockwise
        def value(x):
            v, dv = _value_and_slope(w, x)
            return (v**2 + sign * dv,)

        def f(x):
            return value(x)[0]

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
    return Family.check(family).tau()


def si_pair_check(family, branch_i, branch_j, grid):
    """Max over the grid of |w_i(x) + w_j(x; shifted parameters)|.

    The shift applied to branch j's parameters is the unit step induced by
    tau on the branch (a, b): (a+1, b) for the radial oscillator, (a+1, b+1)
    for DPT.  A residual at rounding level certifies the shape-invariance
    pairing; a mismatched pairing returns an O(1) residual.
    """
    bi = get_branch(family, branch_i) if isinstance(branch_i, int) else branch_i
    bj = get_branch(family, branch_j) if isinstance(branch_j, int) else branch_j
    da, db = Family.check(family).tau_step
    wi = family.superpotential(bi.a, bi.b)
    wj = family.superpotential(bj.a + da, bj.b + db)
    pts = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(wi.f(pts) + wj.f(pts))))

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import polyengine as pe
from .errors import ConfigurationError, check_index, check_real

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

# a quantity within this many float spacings of an integer is that integer:
# the terms it is computed from carry no more digits
_SNAP_ULPS = 8


@dataclass(frozen=True)
class Function1D:
    """A real function on an open interval: its jet, of order `order`.

    It is built from jet(x, k), the rows (f(x), f'(x), f''(x))[: k + 1]
    pointwise in x for k <= order, and `jet` then gives those rows from one
    evaluation, evaluating no further than k; `jet(x)` gives all order + 1,
    and a k past `order` raises ConfigurationError naming the first row the
    function does not carry, as does a k that is not a nonnegative integer
    (errors.check_index).  On a 1-D x longer than polyengine._BLOCK
    points, jet runs on one block at a time and its rows are written into
    one preallocated (k + 1, len(x)) array, so the temporaries stay in
    cache; each point's arithmetic does not depend on the blocking, so the
    rows equal, bit for bit, those of one pass (deform.extend_general_R's
    w~ to rounding only, as its series runs as far as the largest point of
    each block needs).  `f`, `df` and `d2f` are rows 0, 1 and 2, each from
    the jet at its own order, and None past `order`: plain attributes, set
    at construction.  `singular_points` lists interior points where
    evaluation is not finite.  from_rows builds one from closed-form rows.
    """

    jet: Callable
    domain: tuple
    singular_points: tuple = ()
    order: int = 1
    f: Optional[Callable] = field(init=False, repr=False, compare=False)
    df: Optional[Callable] = field(init=False, repr=False, compare=False)
    d2f: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, order = self.jet, self.order

        def jet(x, k=order):
            if check_index(k, "jet order") > order:
                name = "df" if order == 0 else f"d{order + 1}f"
                raise ConfigurationError(
                    f"the function carries no {name}, which its rows to order {k} need"
                )
            arr = np.asarray(x, dtype=float)
            if arr.ndim != 1 or arr.size <= pe._BLOCK:
                return rows(x, k)
            out = np.empty((k + 1, arr.size))
            for s in pe._blocks(arr.size):
                block = rows(arr[s], k)
                for j in range(k + 1):
                    out[j, s] = block[j]
                del block  # before the next block's temporaries are made
            return tuple(out)

        object.__setattr__(self, "jet", jet)
        object.__setattr__(self, "singular_points", tuple(self.singular_points))
        for j, name in enumerate(("f", "df", "d2f")):
            object.__setattr__(self, name, (lambda x, j=j: jet(x, j)[j]) if j <= order else None)

    @classmethod
    def from_rows(cls, domain, *rows):
        """The function whose rows f, f', ... are the closed forms rows[j](x)
        at float x, of order len(rows) - 1; its jet evaluates only the rows
        asked for."""

        def jet(x, order):
            x = np.asarray(x, dtype=float)
            return tuple(row(x) for row in rows[: order + 1])

        return cls(jet, domain, order=len(rows) - 1)

    def __call__(self, x):
        return self.f(x)


# The jet rules: a jet is a tuple (f, f', f'')[: order + 1] of arrays, and every
# module combines jets with _chain, _jmul, _jdiv and _log_derivative alone.
def _chain(P, Y):
    """Jet in x of P(y(x)), to the order of the jet P = (P, dP/dy, d2P/dy2)
    (at most 2), from the jet Y = (y, y', y'') of the variable."""
    out = [P[0]]
    if len(P) > 1:
        out.append(Y[1] * P[1])
    if len(P) > 2:
        out.append(Y[2] * P[1] + Y[1] * Y[1] * P[2])
    return tuple(out)


def _jmul(a, b):
    """Leibniz product of two jets of the same order (at most 2)."""
    out = [a[0] * b[0]]
    if len(a) > 1:
        out.append(a[0] * b[1] + a[1] * b[0])
    if len(a) > 2:
        out.append(a[0] * b[2] + 2.0 * a[1] * b[1] + a[2] * b[0])
    return tuple(out)


def _jdiv(a, b):
    """Quotient a/b of two jets of the same order (at most 2)."""
    g0 = a[0] / b[0]
    out = [g0]
    if len(a) > 1:
        g1 = (a[1] - g0 * b[1]) / b[0]
        out.append(g1)
    if len(a) > 2:
        out.append((a[2] - 2.0 * g1 * b[1] - g0 * b[2]) / b[0])
    return tuple(out)


def _log_derivative(u):
    """The jet (g, g') of g = u'/u, one order below the jet u = (u, u', u'')
    (of order 1 or 2): g' = u''/u - g^2 is taken from u itself, not from g."""
    g = u[1] / u[0]
    if len(u) < 3:
        return (g,)
    return g, u[2] / u[0] - g * g


class Family:
    """Base class of the potential families; one deformation algorithm serves all.

    A family supplies only its data: `name` (the CLI name), `domain`,
    its four Branch records (built once, by __post_init__; `branches()`
    lists them), the closed forms `potential()` and `superpotential(a, b)`,
    `tau()` and the step `tau_step` it induces on a branch's (a, b), V's
    lowest levels in closed form, `levels(k)`, and `endpoint_term`, whether
    the FD error of those levels keeps an endpoint term (see
    RadialOscillator.endpoint_term),
    `sign_reversed_branches` (deformed by the second process), the variable
    of its seeds and states: `variable(x, order)` -> (y, y', y'')[: order + 1],
    the degree-m seed of branch (a, b): `seed(a, b, m)` -> (spec, R), the
    spec the whole polynomial in y (its argument's sign too), `seed_zeros(spec)`
    and the closed-form `seed_zero_prediction(spec)` (or None), the intervals
    `certification_interval()`, `solver_interval(k, m)` with the node count
    `solver_points(k, m)` of certify's FD grid on it, and
    `sample_interval(rmax)`, and `exceptional_series`: branch -> series.
    Every module resolves a branch through `effective` and a family through
    `check`.
    """

    exceptional_series = {}
    sign_reversed_branches = ()

    @classmethod
    def check(cls, obj):
        """obj if it is a cls, else ConfigurationError: Family.check admits any
        family, and RadialOscillator.check guards every RO-only entry point."""
        if not isinstance(obj, cls):
            raise ConfigurationError(f"expected a {cls.__name__}, got {type(obj).__name__}")
        return obj

    def branches(self):
        """A new list of the four Branch records, by k, that __post_init__ built
        once, outside the dataclass fields that ==, hash, repr and asdict read."""
        return list(self._branches)

    def effective(self, branch):
        """(a, b, process) a branch deforms with: its own (a, b) by process 1,
        or (-a, -b) by process 2 in sign_reversed_branches (process 1 on -w)."""
        if branch.k in self.sign_reversed_branches:
            return -branch.a, -branch.b, 2
        return branch.a, branch.b, 1

    def seed_jet(self, spec, x, order):
        """(u, u', u'')[: order + 1] in x of the seed u = spec(y(x)), from one
        jet of the spec at the family's variable."""
        Y = self.variable(x, order)
        return _chain(spec.jet(Y[0], order), Y)

    def seed_zero_prediction(self, spec):
        return None


@dataclass(frozen=True)
class RadialOscillator(Family):
    """Radial oscillator family: V(r) = (1/4) omega^2 r^2 + ell(ell+1)/r^2.

    Branch w = (b/2) r + a/r.  The seed of branch (a, b) is
    L_m^(a-1/2)(sign y) at y = omega r^2/2, with R = 2 m b: the spec
    LaguerreSpec(m, a - 1/2, sign) has sign -1 for b > 0 and +1 for b < 0.
    """

    omega: float
    ell: float

    name = "radial_oscillator"
    exceptional_series = {2: "L1", 3: "L2", 1: "L3"}
    sign_reversed_branches = (3,)
    tau_step = (1.0, 0.0)

    def __post_init__(self):
        if check_real(self.omega, "omega") <= 0.0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if check_real(self.ell, "ell") < 0.0:
            raise ConfigurationError(f"ell must be nonnegative, got {self.ell}")
        w, l = self.omega, self.ell
        # factorization energy E solves w^2 - w' = V - E; the constant
        # w^2 - w' - V equals b(a - 1/2), so branch 1's E = omega (ell + 3/2)
        # is V's ground level
        table = [
            (1, -(l + 1.0), +w, "exact"),
            (2, l, +w, "broken"),
            (3, -(l + 1.0), -w, "broken"),
            (4, l, -w, "exact"),
        ]
        object.__setattr__(self, "_branches", tuple(
            Branch(k, a, b, -b * (a - 0.5), kind) for k, a, b, kind in table))

    @property
    def domain(self):
        return (0.0, math.inf)

    def potential(self):
        w2, ll = self.omega**2, self.ell * (self.ell + 1.0)
        return Function1D.from_rows(
            self.domain,
            lambda r: 0.25 * w2 * r**2 + ll / r**2,
            lambda r: 0.5 * w2 * r - 2.0 * ll / r**3,
        )

    def superpotential(self, a, b):
        return Function1D.from_rows(
            self.domain,
            lambda r: 0.5 * b * r + a / r,
            lambda r: 0.5 * b - a / r**2,
            lambda r: 2.0 * a / r**3,
        )

    def tau(self):
        return RadialOscillator(self.omega, self.ell + 1.0)

    def levels(self, k):
        """V's lowest k levels, omega (2n + ell + 3/2) for n = 0..k-1."""
        return self.omega * (2.0 * np.arange(k) + self.ell + 1.5)

    @property
    def endpoint_term(self):
        """Whether ell < 1/2: there a level's FD error on a uniform grid
        from r = 0 has an h^(2 ell + 1) term, which falls more slowly than
        h^2 and which the h^2 Richardson step does not remove."""
        return self.ell < 0.5

    def seed(self, a, b, m):
        return pe.LaguerreSpec(int(m), a - 0.5, -1 if b > 0 else 1), 2.0 * m * b

    def variable(self, r, order):
        """(y, y', y'')[: order + 1] of y = omega r^2/2."""
        w = self.omega
        r = np.asarray(r, dtype=float)
        return (0.5 * w * r**2, w * r, w)[: order + 1]

    def seed_zeros(self, spec):
        """The zeros r of the seed, from _seed_zeros in y on (1e-12, hi):
        classical at alpha > -1 (none at sign -1, with no evaluation), else
        scanned on 512 samples per degree."""
        if spec.n == 0:
            return []
        # all real zeros of L_m^alpha lie within |y| < 4m + 2|alpha| + 20
        hi = 4.0 * spec.n + 2.0 * abs(spec.alpha) + 20.0
        zeros = _seed_zeros(spec, (1e-12, hi), samples_per_degree=512)
        return [math.sqrt(2.0 * y / self.omega) for y in zeros]

    def seed_zero_prediction(self, spec):
        """The classical zero count of seeds at negative argument (Szegő,
        Orthogonal Polynomials, Thm 6.73): for non-integer alpha, L_m^alpha
        has one negative zero iff alpha < -1 and max(floor(alpha), -m - 1)
        is even, and none otherwise.  None at integer alpha."""
        if spec.sign != -1 or spec.n == 0 or float(spec.alpha).is_integer():
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
        # +200 puts the wall e^-50 into the Gaussian tail exp(-rho^2 / 4).
        # The wall at r = 0 puts the first node at h, where V is finite
        s = 1.0 / math.sqrt(self.omega)
        return 0.0, s * math.sqrt(4.0 * (2 * k + 2 * m + self.ell + 0.5) + 200.0)

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
    P_m^(a-1/2, b-1/2)(cos 2x) with R = -4 m (m + a + b).  Where
    m + a + b is 0 (to _SNAP_ULPS spacings of its terms), every term of
    P_m's series in (1 - y)/2 past the constant vanishes (DLMF 18.5.8), so
    the seed is the degree-0 one.
    """

    A: float
    B: float

    name = "trig_dpt"
    tau_step = (1.0, 1.0)

    def __post_init__(self):
        if check_real(self.A, "A") <= -0.5 or check_real(self.B, "B") <= -0.5:
            raise ConfigurationError(
                f"A and B must exceed -1/2, got A={self.A}, B={self.B}"
            )
        A, B = self.A, self.B
        # factorization energy E solves w^2 - w' = V - E; the constant
        # w^2 - w' - V equals -(a + b)^2, so E = (A+B)^2, (1+A-B)^2, (1-A+B)^2,
        # (2+A+B)^2, the last V's ground level
        table = [
            (1, A, B, "exact"),
            (2, -A - 1.0, B, "broken"),
            (3, A, -B - 1.0, "broken"),
            (4, -A - 1.0, -B - 1.0, "exact"),
        ]
        object.__setattr__(self, "_branches", tuple(
            Branch(k, a, b, (a + b) ** 2, kind) for k, a, b, kind in table))

    @property
    def domain(self):
        return (0.0, math.pi / 2.0)

    def potential(self):
        ca, cb = self.A * (self.A + 1.0), self.B * (self.B + 1.0)
        return Function1D.from_rows(
            self.domain,
            lambda x: ca / np.sin(x) ** 2 + cb / np.cos(x) ** 2,
            lambda x: (-2.0 * ca * np.cos(x) / np.sin(x) ** 3
                       + 2.0 * cb * np.sin(x) / np.cos(x) ** 3),
        )

    def superpotential(self, a, b):
        return Function1D.from_rows(
            self.domain,
            lambda x: a / np.tan(x) - b * np.tan(x),
            lambda x: -a / np.sin(x) ** 2 - b / np.cos(x) ** 2,
            lambda x: 2.0 * a * np.cos(x) / np.sin(x) ** 3 - 2.0 * b * np.sin(x) / np.cos(x) ** 3,
        )

    def tau(self):
        return TrigDPT(self.A + 1.0, self.B + 1.0)

    def levels(self, k):
        """V's lowest k levels, (A + B + 2n + 2)^2 for n = 0..k-1."""
        return (self.A + self.B + 2.0 * np.arange(k) + 2.0) ** 2

    @property
    def endpoint_term(self):
        """Whether min(A, B) < 1/2: the FD error's endpoint terms are
        h^(2A + 1) and h^(2B + 1) (see RadialOscillator.endpoint_term)."""
        return min(self.A, self.B) < 0.5

    def seed(self, a, b, m):
        constant = abs(m + a + b) <= _SNAP_ULPS * np.spacing(m + abs(a) + abs(b))
        spec = pe.JacobiSpec(0 if constant else int(m), a - 0.5, b - 0.5)
        return spec, -4.0 * m * (m + a + b)

    def variable(self, x, order):
        """(y, y', y'')[: order + 1] of y = cos 2x."""
        x = np.asarray(x, dtype=float)
        y = np.cos(2.0 * x)
        return (y, -2.0 * np.sin(2.0 * x), -4.0 * y)[: order + 1]

    def seed_zeros(self, spec):
        """The zeros x of the seed, from _seed_zeros in y: classical on
        branch 1 (nu, mu > -1), certified on (-1, 1), where the theorem puts
        all N of them, else scanned on (-1 + 1e-9, 1 - 1e-9)."""
        if spec.N == 0:
            return []
        zeros = _seed_zeros(spec, (-1.0, 1.0), (-1.0 + 1e-9, 1.0 - 1e-9))
        return sorted(0.5 * math.acos(y) for y in zeros)

    def certification_interval(self):
        return 0.02, math.pi / 2.0 - 0.02

    def solver_interval(self, k, m):
        return 1e-6, math.pi / 2.0 - 1e-6

    def solver_points(self, k, m):
        # level k - 1 of V- lies kappa^2 = (A + B + 2k)^2 - (A + B + 1)^2
        # = (2k - 1)(2A + 2B + 2k + 1) above its well floor, so nodes
        # pi / 2 / (109 kappa) apart resolve it at kappa h = 0.0144, at every
        # m.  Where the endpoint error term h^(2A + 1) or h^(2B + 1) falls
        # more slowly than h^2 (endpoint_term), the grid keeps 3000 nodes
        if self.endpoint_term:
            return 3000
        return math.ceil(109.0 * math.sqrt((2 * k - 1) * (2.0 * self.A + 2.0 * self.B + 2 * k + 1)))

    def sample_interval(self, rmax=None):
        return 0.01, np.pi / 2.0 - 0.01


FAMILIES = {cls.name: cls for cls in (RadialOscillator, TrigDPT)}


def _seed_zeros(spec, interval, scan_interval=None, **scan):
    """The zeros of a seed spec: its certified eigenvalues in interval
    (polyengine.classical_zeros) where the spec is classical, else those
    of polyengine.real_zeros(spec, scan_interval, **scan), scan_interval
    defaulting to interval."""
    report = pe.classical_zeros(spec, interval)
    if report is None:
        report = pe.real_zeros(spec, interval if scan_interval is None else scan_interval, **scan)
    return report.zeros


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
    """The branch k of a family: k itself if it is one of family.branches()
    (another family's or parameter set's Branch raises ConfigurationError),
    else the branch with index k, which must pass errors.check_index and lie
    in 1..4."""
    family = Family.check(family)
    if isinstance(k, Branch):
        if k not in family.branches():
            raise ConfigurationError(f"{k} is not a branch of {family}")
        return k
    if not 1 <= check_index(k, "branch index") <= 4:
        raise ConfigurationError(f"branch index must be in 1..4, got {k}")
    return family.branches()[k - 1]


def potential(family) -> Function1D:
    """The undeformed potential V as a Function1D on the family domain."""
    return Family.check(family).potential()


def superpotential(family, branch) -> Function1D:
    """The superpotential of a branch, with analytic first two derivatives."""
    branch = get_branch(family, branch)
    return family.superpotential(branch.a, branch.b)


def partner_potentials(w: Function1D):
    """SUSY partners (V-, V+) = (w^2 - w', w^2 + w'), one order below w:
    the jet _jmul(w, w) -/+ the jet of w', each row from one evaluation of
    w.jet."""
    if w.order < 1:
        raise ConfigurationError("superpotential must carry an analytic derivative")

    def make(sign):
        def jet(x, order):
            v = w.jet(x, order + 1)
            return tuple(s + sign * d for s, d in zip(_jmul(v[:-1], v[:-1]), v[1:]))

        return Function1D(jet, w.domain, w.singular_points, w.order - 1)

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
    pairing; a mismatched pairing returns an O(1) residual.  A grid point
    that is not a finite point of the family's open domain raises
    ConfigurationError.
    """
    bi, bj = get_branch(family, branch_i), get_branch(family, branch_j)
    da, db = family.tau_step
    wi = family.superpotential(bi.a, bi.b)
    wj = family.superpotential(bj.a + da, bj.b + db)
    pts = _samples(grid, family.domain)
    return float(np.max(np.abs(wi.f(pts) + wj.f(pts))))


def _samples(samples, domain=None):
    """The samples as a flat float array; ConfigurationError when there are
    none, or, given a domain, when one is not finite or not inside it (the
    open interval)."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    if not x.size:
        raise ConfigurationError("a residual needs at least one sample")
    if domain is not None:
        lo, hi = domain
        bad = ~(np.isfinite(x) & (lo < x) & (x < hi))
        if np.any(bad):
            raise ConfigurationError(
                f"sample {x[bad][0]!r} is not a finite point of the open domain ({lo}, {hi})"
            )
    return x

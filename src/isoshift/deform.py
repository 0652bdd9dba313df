"""Isospectral shift deformations of the catalog superpotentials.

A deformation adds to a superpotential w0 the logarithmic derivative
phi = u'/u of a polynomial seed u, chosen so that the Riccati identity
phi^2 + 2 w0 phi + phi' = R holds with a constant R.  The deformed partner
V~+ then equals V+ + R exactly, while V~- = V- + R + rational terms is a
rational extension of V- sharing its spectrum up to the shift.

Branch bookkeeping: radial-oscillator branches 1, 2, 4 deform their own
superpotential.  Branch 3 is the second extension process of the hierarchy:
its natural variables are chi = -v'/v and w_bar = w3 + chi, whose minus
partner is trivially shifted and whose plus partner is the rational
extension.  That construction is identical to the first process applied to
the sign-reversed superpotential -w3, so internally every branch is handled
uniformly with effective parameters (a, b) -> (-a, -b) for branch 3; the
process-2 view (chi, w_bar) is exposed on the Deformation for callers who
want it.  All DPT branches deform directly with a Jacobi seed in cos 2x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from . import polyengine as pe
from .catalog import (
    Branch,
    Family,
    Function1D,
    RadialOscillator,
    get_branch,
    partner_potentials,
    superpotential,
)
from .errors import ConfigurationError, InternalInconsistencyError, SingularExtensionError

__all__ = [
    "Deformation",
    "ExtensionPair",
    "seed_polynomial",
    "extend",
    "w0_explicit",
    "w0_partner_constant",
    "w0_from_ground_state",
    "extend_general_R",
    "certification_grid",
]


@dataclass
class Deformation:
    """A polynomial-seeded deformation of one catalog branch.

    `w0` is the effective superpotential entering the Riccati identity
    (the branch superpotential, sign-reversed for RO branch 3), `phi` its
    logarithmic-derivative deformation and `w_tilde = w0 + phi`.  For the
    process-2 branch, `chi = -phi` and `w_bar = branch superpotential + chi`
    recover the second-process variables (`w_bar = -w_tilde`).
    """

    family: Family
    branch: Branch
    m: int
    seed: object  # LaguerreSpec or JacobiSpec
    arg_sign: int  # RO: seed argument is arg_sign * y with y = omega r^2 / 2
    R: float
    process: int  # 1 or 2
    w0: Function1D
    phi: Function1D
    w_tilde: Function1D
    singular_points: list = field(default_factory=list)

    @property
    def chi(self) -> Optional[Function1D]:
        if self.process != 2:
            return None
        return Function1D(
            f=lambda r: -self.phi.f(r),
            df=lambda r: -self.phi.df(r),
            domain=self.phi.domain,
            singular_points=self.phi.singular_points,
        )

    def riccati_residual(self, grid):
        """Max over the grid of |phi^2 + 2 w0 phi + phi' - R|."""
        r = np.asarray(grid, dtype=float)
        p = self.phi.f(r)
        res = p * p + 2.0 * self.w0.f(r) * p + self.phi.df(r) - self.R
        return float(np.max(np.abs(res)))


@dataclass
class ExtensionPair:
    """The deformed partner potentials V~∓ = w~^2 ∓ w~' and the shift R.

    `partner_shift_deviation` is extend's max |V~+ - V+ - R| / (1 + |V+| + |R|)
    over its certification grid; None from extend_general_R.
    """

    V_tilde_minus: Function1D
    V_tilde_plus: Function1D
    shift: float
    singular_points: list
    w_tilde: Function1D
    partner_shift_deviation: Optional[float] = None


def _effective_ab(family, branch: Branch):
    if branch.k in family.sign_reversed_branches:
        return -branch.a, -branch.b, 2
    return branch.a, branch.b, 1


def _log_derivative_pair(ujet):
    """(g, g') for g = u'/u, from the jet of u.

    g' = u''/u - (u'/u)^2 is computed from the seed itself, so that Riccati
    residual checks are non-circular.
    """

    def g(x):
        u, du = ujet(x, 1)
        return du / u

    def dg(x):
        u, du, d2u = ujet(x, 2)
        ratio = du / u
        return d2u / u - ratio * ratio

    return g, dg


def seed_polynomial(family, branch, m) -> Deformation:
    """Construct the degree-m deformation of a branch.

    The seed and R are the family's (see RadialOscillator, TrigDPT) for the
    effective branch parameters (a, b).  Singular points (seed zeros in the
    physical domain) are recorded, never raised.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise ConfigurationError(f"hierarchy index m must be a nonnegative integer, got {m}")
    family = Family.check(family)
    if isinstance(branch, int):
        branch = get_branch(family, branch)
    a, b, process = _effective_ab(family, branch)
    w0 = family.superpotential(a, b)
    seed, s, R = family.seed(a, b, m)
    singular = family.seed_zeros(seed, s)

    if m == 0:
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        phi = Function1D(f=zero, df=zero, domain=w0.domain)
        R = 0.0
    else:
        phi_f, phi_df = _log_derivative_pair(partial(family.seed_jet, seed, s))
        phi = Function1D(
            f=phi_f, df=phi_df, domain=w0.domain, singular_points=tuple(singular)
        )

    w_tilde = Function1D(
        f=lambda x: w0.f(x) + phi.f(x),
        df=lambda x: w0.df(x) + phi.df(x),
        domain=w0.domain,
        singular_points=tuple(singular),
    )
    return Deformation(
        family=family,
        branch=branch,
        m=int(m),
        seed=seed,
        arg_sign=s,
        R=R,
        process=process,
        w0=w0,
        phi=phi,
        w_tilde=w_tilde,
        singular_points=list(singular),
    )


def certification_grid(family, n_points=400, exclude=(), pad=None):
    """A uniform interior grid with a neighborhood of each excluded point removed."""
    lo, hi = Family.check(family).certification_interval()
    pts = np.linspace(lo, hi, n_points)
    if exclude:
        if pad is None:
            pad = 0.03 * (hi - lo)
        mask = np.ones_like(pts, dtype=bool)
        for x0 in exclude:
            mask &= np.abs(pts - x0) > pad
        pts = pts[mask]
    return pts


def extend(d: Deformation) -> ExtensionPair:
    """Partner potentials of w~ = w0 + phi, with the shift identity asserted.

    Verifies V~+ = V+ + R pointwise on a 400-point grid away from singular
    points, to 1e-10 relative to 1 + |V+| + |R|, and returns the largest
    relative deviation as `partner_shift_deviation`; a violation indicates
    a transcription bug and raises InternalInconsistencyError.
    """
    Vm, Vp = partner_potentials(d.w_tilde)
    grid = certification_grid(d.family, 400, exclude=d.singular_points)
    v_plus_ref = partner_potentials(d.w0)[1].f(grid)
    dev = np.abs(Vp.f(grid) - v_plus_ref - d.R)
    scale = 1.0 + np.abs(v_plus_ref) + abs(d.R)
    tol = 1e-10 * scale
    if np.any(dev > tol):
        i = int(np.argmax(dev - tol))
        raise InternalInconsistencyError(
            f"partner-shift identity violated at x={grid[i]:.6g}: "
            f"deviation {dev[i]:.3e} exceeds tolerance {tol[i]:.3e}"
        )
    return ExtensionPair(
        V_tilde_minus=Vm,
        V_tilde_plus=Vp,
        shift=d.R,
        singular_points=list(d.singular_points),
        w_tilde=d.w_tilde,
        partner_shift_deviation=float(np.max(dev / scale, initial=0.0)),
    )


def w0_explicit(family: RadialOscillator, m: int) -> Function1D:
    """Closed-form superpotential linking the two rational extensions.

    W0 = w1 + d/dr log L_m^(l-1/2)(-y) - d/dr log L_m^(l+1/2)(-y) at
    y = omega r^2 / 2.  Its minus/plus partners reproduce the branch-2 and
    branch-3 extended potentials up to the common constant
    w0_partner_constant(family, m), and it equals -d/dr log of the extended
    ground state.
    """
    if not isinstance(family, RadialOscillator):
        raise ConfigurationError("w0_explicit is defined for the radial oscillator only")
    w1 = superpotential(family, 1)
    if m == 0:
        return w1
    gu, dgu = _log_derivative_pair(partial(family.seed_jet, pe.LaguerreSpec(m, family.ell - 0.5), -1))
    gv, dgv = _log_derivative_pair(partial(family.seed_jet, pe.LaguerreSpec(m, family.ell + 0.5), -1))

    def f(r):
        return w1.f(r) + gu(r) - gv(r)

    def df(r):
        return w1.df(r) + dgu(r) - dgv(r)

    return Function1D(f=f, df=df, domain=family.domain)


def w0_partner_constant(family: RadialOscillator, m: int) -> float:
    """The constant c with W0^2 - W0' = V~- - c (branch 2) and
    W0^2 + W0' = V~- - c (branch 3 extension)."""
    return (2.0 * family.ell + 1.0) * family.omega + 2.0 * m * family.omega


def w0_from_ground_state(psi0: Function1D, scan_points=400) -> Function1D:
    """-psi0'/psi0 via the analytic derivative carried by psi0.

    psi0 must be strictly positive on the interior; the first detected sign
    change raises SingularExtensionError with the bisected root in `points`;
    a sample where psi0 is 0 (an underflowed tail) has no sign.
    """
    lo, hi = psi0.domain
    if not math.isfinite(hi):
        hi = 40.0
    lo = max(lo, 1e-6) + 1e-9
    xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), scan_points)
    vals = np.asarray(psi0.f(xs), dtype=float)
    roots = pe.sign_change_zeros(psi0.f, xs, vals, 0.0, 1e-12).crossings
    if roots:
        raise SingularExtensionError(
            f"ground state changes sign at x={roots[0]:.6g}", points=roots[:1]
        )

    def f(x):
        return -psi0.df(x) / psi0.f(x)

    return Function1D(f=f, df=None, domain=psi0.domain)


def extend_general_R(family: RadialOscillator, branch, R: float, r_max=None,
                     n_series=40) -> ExtensionPair:
    """Deform with an arbitrary shift constant R by integrating the seed ODE.

    Solves u'' + 2 w0 u' - R u = 0 for the solution regular at the origin
    (launched by its even power series) with an adaptive 8th-order
    integrator, then builds phi = u'/u and the partner pair exactly as in
    the polynomial case.  Zeros of u on the domain are recorded as
    singular points of the returned pair.
    """
    if not isinstance(family, RadialOscillator):
        raise ConfigurationError("extend_general_R is defined for the radial oscillator only")
    if isinstance(branch, int):
        branch = get_branch(family, branch)
    a, b, _ = _effective_ab(family, branch)
    w0 = family.superpotential(a, b)
    omega = family.omega
    if r_max is None:
        r_max = 16.0 / math.sqrt(omega)

    # regular Frobenius branch u = sum_j c_j r^(2j):
    # 2j(2j - 1 + 2a) c_j = (R - 2b(j-1)) c_{j-1}
    coeffs = [1.0]
    for j in range(1, n_series):
        denom = 2.0 * j * (2.0 * j - 1.0 + 2.0 * a)
        if denom == 0.0:
            raise ConfigurationError(
                f"the regular Frobenius series is resonant at order r^{2 * j} "
                f"(a = {a}); branch {branch.k} at ell = {family.ell} has no "
                "even power-series solution"
            )
        coeffs.append((R - 2.0 * b * (j - 1)) * coeffs[-1] / denom)
    cs = np.array(coeffs)
    dcs = (cs * np.arange(n_series))[1:]

    def series_u(r):
        return np.polynomial.polynomial.polyval(r * r, cs)

    def series_du(r):
        return 2.0 * r * np.polynomial.polynomial.polyval(r * r, dcs)

    r0 = 0.05 / math.sqrt(omega)

    def rhs(r, yv):
        u, du = yv
        return [du, R * u - 2.0 * w0.f(r) * du]

    sol = solve_ivp(
        rhs,
        (r0, r_max),
        [float(series_u(r0)), float(series_du(r0))],
        method="DOP853",
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    if not sol.success:
        raise InternalInconsistencyError(f"seed ODE integration failed: {sol.message}")

    # zeros of u on (r0, r_max): sign changes of the interpolant, bisected to
    # adjacent floats.  u(0) = 1 and the integration is to atol 1e-12, so
    # where |u| <= 1e-10 its sign is noise, not a zero
    scan = np.linspace(r0, r_max, 4000)
    u_at = lambda r: sol.sol(r)[0]
    singular = pe.sign_change_zeros(u_at, scan, u_at(scan), 1e-10, 0.0).crossings

    def u_du(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        u, du = sol.sol(np.maximum(r, r0))
        # below r0, where the integration starts, the series gives u
        near = r < r0
        u[near], du[near] = series_u(r[near]), series_du(r[near])
        return u, du

    def phi_f(r):
        u, du = u_du(r)
        out = du / u
        return out if np.ndim(r) else float(out[0])

    def phi_df(r):
        # phi' = R - 2 w0 phi - phi^2 (exact along the integrated solution)
        p = phi_f(r)
        return R - 2.0 * w0.f(r) * p - p * p

    domain = (0.0, r_max)
    phi = Function1D(f=phi_f, df=phi_df, domain=domain, singular_points=tuple(singular))
    w_tilde = Function1D(
        f=lambda r: w0.f(r) + phi.f(r),
        df=lambda r: w0.df(r) + phi.df(r),
        domain=domain,
        singular_points=tuple(singular),
    )

    Vm, Vp = partner_potentials(w_tilde)
    return ExtensionPair(
        V_tilde_minus=Vm,
        V_tilde_plus=Vp,
        shift=float(R),
        singular_points=list(singular),
        w_tilde=w_tilde,
    )


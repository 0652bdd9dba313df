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
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from . import polyengine as pe
from .catalog import (
    Branch,
    Function1D,
    RadialOscillator,
    TrigDPT,
    get_branch,
    superpotential,
)
from .errors import ConfigurationError, InternalInconsistencyError

__all__ = [
    "Deformation",
    "ExtensionPair",
    "seed_polynomial",
    "phi_from_seed",
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

    family: object
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
    """The deformed partner potentials V~∓ = w~^2 ∓ w~' and the shift R."""

    V_tilde_minus: Function1D
    V_tilde_plus: Function1D
    shift: float
    singular_points: list
    w_tilde: Function1D


def _effective_ab(family, branch: Branch):
    if isinstance(family, RadialOscillator) and branch.k == 3:
        return -branch.a, -branch.b, 2
    return branch.a, branch.b, 1


def _effective_w0(family, a, b) -> Function1D:
    # same closed forms as the catalog superpotentials, with possibly
    # sign-reversed (a, b)
    from .catalog import _superpotential_ab

    return _superpotential_ab(family, a, b)


def _ro_seed_jet(fam: RadialOscillator, seed: pe.LaguerreSpec, s: int):
    """(u, u', u'') in r, up to `order`, of u(r) = L_m^alpha(s * y), y = omega r^2 / 2."""
    w = fam.omega

    def jet(r, order):
        r = np.asarray(r, dtype=float)
        L = pe.laguerre_jet(seed, s * 0.5 * w * r**2, order)
        # chain rule: d eta/dr = s w r and d2 eta/dr2 = s w for eta = s y
        out = [L[0]]
        if order > 0:
            out.append(s * w * r * L[1])
        if order > 1:
            out.append(s * w * L[1] + (w * r) ** 2 * L[2])
        return out

    return jet


def _dpt_seed_jet(seed: pe.JacobiSpec):
    """(u, u', u'') in x, up to `order`, of u(x) = P_N^(nu,mu)(cos 2x)."""

    def jet(x, order):
        x = np.asarray(x, dtype=float)
        y = np.cos(2.0 * x)
        out = [pe.jacobi_eval(seed, y)]
        if order > 0:
            dP = pe.jacobi_deriv(seed, y)
            out.append(-2.0 * np.sin(2.0 * x) * dP)
        if order > 1:
            out.append(-4.0 * y * dP + 4.0 * (1.0 - y**2) * pe.jacobi_deriv2(seed, y))
        return out

    return jet


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


def _ro_seed_singular_points(fam: RadialOscillator, seed: pe.LaguerreSpec, s: int, y_max):
    if seed.n == 0:
        return []
    # all real zeros of L_m^alpha lie within |eta| < 4m + 2|alpha| + 20
    hi = min(y_max, 4.0 * seed.n + 2.0 * abs(seed.alpha) + 20.0)
    interval = (1e-12, hi) if s > 0 else (-hi, -1e-12)
    report = pe.real_zeros(seed, interval, samples_per_degree=512)
    pts = []
    for eta in report.zeros:
        y = s * eta
        if y > 0.0:
            pts.append(math.sqrt(2.0 * y / fam.omega))
    return sorted(pts)


def _dpt_seed_singular_points(seed: pe.JacobiSpec):
    if seed.N == 0:
        return []
    report = pe.real_zeros(seed, (-1.0 + 1e-9, 1.0 - 1e-9))
    return sorted(0.5 * math.acos(y) for y in report.zeros)


def seed_polynomial(family, branch, m) -> Deformation:
    """Construct the degree-m deformation of a branch.

    Radial oscillator: seed L_m^(a-1/2) at argument -y (b > 0, R = 2 m omega)
    or +y (b < 0, R = -2 m omega), with (a, b) the effective branch
    parameters.  DPT: seed P_m^(a-1/2, b-1/2)(cos 2x) with
    R = -4 m (m + a + b).  Singular points (seed zeros in the physical
    domain) are recorded, never raised.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
        raise ConfigurationError(f"hierarchy index m must be a nonnegative integer, got {m}")
    if isinstance(branch, int):
        branch = get_branch(family, branch)
    a, b, process = _effective_ab(family, branch)
    w0 = _effective_w0(family, a, b)

    if isinstance(family, RadialOscillator):
        s = -1 if b > 0 else 1
        seed = pe.LaguerreSpec(int(m), a - 0.5)
        R = 2.0 * m * b
        ujet = _ro_seed_jet(family, seed, s)
        y_max = 0.5 * family.omega * (40.0 / math.sqrt(family.omega)) ** 2
        singular = _ro_seed_singular_points(family, seed, s, y_max)
    elif isinstance(family, TrigDPT):
        s = 1
        seed = pe.JacobiSpec(int(m), a - 0.5, b - 0.5)
        R = -4.0 * m * (m + a + b)
        ujet = _dpt_seed_jet(seed)
        singular = _dpt_seed_singular_points(seed)
    else:
        raise ConfigurationError(f"unknown family {type(family).__name__}")

    if m == 0:
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        phi = Function1D(f=zero, df=zero, domain=w0.domain)
        R = 0.0
    else:
        phi_f, phi_df = _log_derivative_pair(ujet)
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


def phi_from_seed(d: Deformation) -> Function1D:
    """The deformation function phi = d/dx log(seed), as stored on d."""
    return d.phi


def certification_grid(family, n_points=400, exclude=(), pad=None):
    """A uniform interior grid with a neighborhood of each excluded point removed."""
    if isinstance(family, RadialOscillator):
        scale = 1.0 / math.sqrt(family.omega)
        lo, hi = 0.1 * scale, 12.0 * scale
    elif isinstance(family, TrigDPT):
        lo, hi = 0.02, math.pi / 2.0 - 0.02
    else:
        raise ConfigurationError(f"unknown family {type(family).__name__}")
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
    points; a violation indicates a transcription bug and raises
    InternalInconsistencyError.
    """
    w_tilde = d.w_tilde

    def vminus(x):
        wt = w_tilde.f(x)
        return wt * wt - w_tilde.df(x)

    def vplus(x):
        wt = w_tilde.f(x)
        return wt * wt + w_tilde.df(x)

    Vm = Function1D(f=vminus, df=None, domain=w_tilde.domain,
                    singular_points=tuple(d.singular_points))
    Vp = Function1D(f=vplus, df=None, domain=w_tilde.domain,
                    singular_points=tuple(d.singular_points))

    grid = certification_grid(d.family, 400, exclude=d.singular_points)
    w0v = d.w0.f(grid)
    v_plus_ref = w0v * w0v + d.w0.df(grid)
    dev = np.abs(Vp.f(grid) - v_plus_ref - d.R)
    tol = 1e-10 * (1.0 + np.abs(v_plus_ref) + abs(d.R))
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
        w_tilde=w_tilde,
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
    gu, dgu = _log_derivative_pair(_ro_seed_jet(family, pe.LaguerreSpec(m, family.ell - 0.5), -1))
    gv, dgv = _log_derivative_pair(_ro_seed_jet(family, pe.LaguerreSpec(m, family.ell + 0.5), -1))

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
    change raises SingularExtensionError naming the bracketing points.
    """
    from .errors import SingularExtensionError

    lo, hi = psi0.domain
    if not math.isfinite(hi):
        hi = 40.0
    lo = max(lo, 1e-6) + 1e-9
    xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), scan_points)
    vals = np.asarray(psi0.f(xs), dtype=float)
    sign_changes = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    if sign_changes.size:
        i = int(sign_changes[0])
        raise SingularExtensionError(
            f"ground state changes sign between x={xs[i]:.6g} and x={xs[i + 1]:.6g}",
            points=[0.5 * (xs[i] + xs[i + 1])],
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
    w0 = _effective_w0(family, a, b)
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
    powers = 2 * np.arange(n_series)

    def series_u(r):
        r = np.asarray(r, dtype=float)
        return np.polynomial.polynomial.polyval(r, _dense_even(cs))

    def series_du(r):
        r = np.asarray(r, dtype=float)
        dcs = cs * powers
        return np.polynomial.polynomial.polyval(r, _dense_even(dcs, shift=-1))

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

    # locate zeros of u on (r0, r_max) by a dense scan of the interpolant
    scan = np.linspace(r0, r_max, 4000)
    uv = sol.sol(scan)[0]
    singular = []
    idx = np.nonzero(uv[:-1] * uv[1:] < 0.0)[0]
    for i in idx:
        aa, bb = scan[i], scan[i + 1]
        fa = sol.sol(aa)[0]
        for _ in range(80):
            mid = 0.5 * (aa + bb)
            fm = sol.sol(mid)[0]
            if fa * fm <= 0.0:
                bb = mid
            else:
                aa, fa = mid, fm
        singular.append(0.5 * (aa + bb))

    def u_du(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out_u = np.empty_like(r_arr)
        out_du = np.empty_like(r_arr)
        inside = r_arr >= r0
        if np.any(inside):
            vals = sol.sol(r_arr[inside])
            out_u[inside], out_du[inside] = vals[0], vals[1]
        if np.any(~inside):
            out_u[~inside] = series_u(r_arr[~inside])
            out_du[~inside] = series_du(r_arr[~inside])
        return out_u, out_du

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

    def vminus(r):
        wt = w_tilde.f(r)
        return wt * wt - w_tilde.df(r)

    def vplus(r):
        wt = w_tilde.f(r)
        return wt * wt + w_tilde.df(r)

    return ExtensionPair(
        V_tilde_minus=Function1D(f=vminus, df=None, domain=domain,
                                 singular_points=tuple(singular)),
        V_tilde_plus=Function1D(f=vplus, df=None, domain=domain,
                                singular_points=tuple(singular)),
        shift=float(R),
        singular_points=list(singular),
        w_tilde=w_tilde,
    )


def _dense_even(even_coeffs, shift=0):
    """Coefficient vector in r with even coefficients c_j at power 2j+shift."""
    n = len(even_coeffs)
    top = 2 * (n - 1) + shift
    dense = np.zeros(max(top + 1, 1))
    for j, c in enumerate(even_coeffs):
        p = 2 * j + shift
        if p >= 0 and c != 0.0:
            dense[p] = c
    return dense

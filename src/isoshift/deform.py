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
uniformly with effective parameters (a, b) -> (-a, -b) for branch 3.  Of
the process-2 view, the Deformation exposes only chi: w_bar = -w_tilde.
All DPT branches deform directly with a Jacobi seed in cos 2x.

Every function here is a jet built by catalog._jet_function from catalog's
jet rules: phi = u'/u and W0 = -(log psi0)' by _log_derivative, and
V~-/+ = w~^2 -/+ w~' by partner_potentials.  phi, w_tilde = w0 + phi, chi
and w0_explicit's W0 carry the rows (value, slope) from one order-2 jet of
each seed, and extend_general_R's w~ from a single Kummer sum, so the
partner potentials V~-/+, the Riccati residual and W0 with W0' evaluate
each seed once per call.  Like every jet, they evaluate a 1-D x longer
than polyengine._BLOCK points block by block, bitwise as in one pass but
for the Kummer sum's (see catalog.Function1D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import polyengine as pe
from .catalog import (
    _SNAP_ULPS,
    Branch,
    Family,
    Function1D,
    RadialOscillator,
    _jet_function,
    _log_derivative,
    _rows,
    _samples,
    get_branch,
    partner_potentials,
    superpotential,
)
from .errors import (
    ConfigurationError,
    InternalInconsistencyError,
    SingularExtensionError,
    check_index,
    check_real,
)

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
    process-2 branch, `chi = -phi` is the second-process deformation; its
    w_bar = branch superpotential + chi equals -w_tilde and has no attribute.
    """

    family: Family
    branch: Branch
    m: int
    seed: object  # LaguerreSpec (its sign included) or JacobiSpec
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
        phi = self.phi
        return _jet_function(lambda r, order: tuple(-v for v in phi.jet(r, order)),
                             phi.domain, phi.singular_points)

    def riccati_residual(self, grid):
        """Max over the grid of |phi^2 + 2 w0 phi + phi' - R|; a sample that
        is not a finite point of the family's open domain raises
        ConfigurationError."""
        r = _samples(grid, self.family.domain)
        p, dp = self.phi.jet(r, 1)
        res = p * p + 2.0 * self.w0.f(r) * p + dp - self.R
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


def _log_derivative_jet(ujet):
    """The jet of g = u'/u by catalog._log_derivative, from one jet of u to
    order + 1: g' comes from the seed itself, so that Riccati residual
    checks are non-circular.  Order 0 evaluates u only to order 1."""
    return lambda x, order: _log_derivative(ujet(x, order + 1))


def _plus_jet(w0, g):
    """The jet of w0 + g, for a Function1D w0 and the jet g."""

    def jet(x, order):
        return tuple(u + v for u, v in zip(w0.jet(x, order), g(x, order)))

    return jet


def seed_polynomial(family, branch, m) -> Deformation:
    """Construct the degree-m deformation of a branch.

    The seed and R are the family's (see RadialOscillator, TrigDPT) for the
    branch's effective parameters (a, b) (Family.effective).  Singular
    points (seed zeros in the physical domain) are recorded, never raised.
    """
    check_index(m, "hierarchy index m")
    branch = get_branch(family, branch)
    a, b, process = family.effective(branch)
    w0 = family.superpotential(a, b)
    seed, R = family.seed(a, b, m)
    singular = family.seed_zeros(seed)

    if seed.degree == 0:
        # u' = 0 (m = 0, or a DPT seed at m + a + b = 0): phi = 0, w~ = w0,
        # and the Riccati identity leaves R = 0.  Skipping the seed jet keeps
        # an m = 0 certify cell of branch 1 at 0.16 ms, not 0.21 (RO and DPT,
        # shared 2-vCPU machine), and R = 2 m b from printing -0.0 at b < 0
        phi_jet = lambda x, order: (np.zeros_like(np.asarray(x, dtype=float)),) * (order + 1)
        R = 0.0
    else:
        phi_jet = _log_derivative_jet(partial(family.seed_jet, seed))
    # phi and w~ take value and slope from one order-2 seed jet
    phi = _jet_function(phi_jet, w0.domain, singular)
    w_tilde = _jet_function(_plus_jet(w0, phi_jet), w0.domain, singular)
    return Deformation(
        family=family,
        branch=branch,
        m=int(m),
        seed=seed,
        R=R,
        process=process,
        w0=w0,
        phi=phi,
        w_tilde=w_tilde,
        singular_points=list(singular),
    )


def certification_grid(family, n_points=400, exclude=()):
    """A uniform interior grid with a neighborhood of each excluded point removed.

    The neighborhoods are 3 % of the interval wide on each side.  Raises
    ConfigurationError unless n_points is a positive integer, and
    SingularExtensionError when the neighborhoods cover every sample.
    """
    if check_index(n_points, "n_points") < 1:
        raise ConfigurationError(f"a certification grid needs at least one point, got {n_points}")
    lo, hi = Family.check(family).certification_interval()
    pts = np.linspace(lo, hi, n_points)
    if exclude:
        pad = 0.03 * (hi - lo)
        mask = np.ones_like(pts, dtype=bool)
        for x0 in exclude:
            mask &= np.abs(pts - x0) > pad
        pts = pts[mask]
        if pts.size == 0:
            raise SingularExtensionError(
                f"every certification sample lies within {pad:.3g} of a singular point",
                points=exclude,
            )
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
    if not np.all(dev <= tol):  # a NaN deviation fails too
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
    y = omega r^2 / 2, the seeds of branches 2 and 3 (family.seed at their
    effective parameters, as seed_polynomial deforms them).  Its minus/plus
    partners reproduce the branch-2 and branch-3 extended potentials up to
    the common constant w0_partner_constant(family, m), and it equals
    -d/dr log of the extended ground state.  For m > 0 its jet takes W0 and
    W0' from one order-2 jet of each seed; for m = 0, W0 is w1.
    """
    RadialOscillator.check(family)
    check_index(m, "hierarchy index m")
    w1 = superpotential(family, 1)
    if m == 0:
        return w1
    seeds = (family.seed(*family.effective(get_branch(family, k))[:2], m)[0] for k in (2, 3))
    gu, gv = (_log_derivative_jet(partial(family.seed_jet, seed)) for seed in seeds)

    def jet(r, order):
        rows = zip(w1.jet(r, order), gu(r, order), gv(r, order))
        return tuple(w + u - v for w, u, v in rows)

    return _jet_function(jet, family.domain)


def w0_partner_constant(family: RadialOscillator, m: int) -> float:
    """The constant c with W0^2 - W0' = V~- - c (branch 2) and
    W0^2 + W0' = V~- - c (branch 3 extension)."""
    RadialOscillator.check(family)
    check_index(m, "hierarchy index m")
    return (2.0 * family.ell + 1.0) * family.omega + 2.0 * m * family.omega


def w0_from_ground_state(psi0: Function1D) -> Function1D:
    """-psi0'/psi0 (minus catalog._log_derivative), a jet of order 0, via the
    analytic derivative carried by psi0, both from one evaluation of
    psi0.jet when psi0 carries one (catalog._rows).

    psi0 must be strictly positive on the interior; the first sign change
    among 400 samples raises SingularExtensionError with the refined root in
    `points`; a sample where psi0 is 0 (an underflowed tail) has no sign.
    """
    lo, hi = psi0.domain
    if not math.isfinite(hi):
        hi = 40.0
    lo = max(lo, 1e-6) + 1e-9
    xs = np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 400)
    vals = np.asarray(psi0.f(xs), dtype=float)
    roots = pe.sign_change_zeros(psi0.f, xs, vals, 0.0, 1e-12).crossings
    if roots:
        raise SingularExtensionError(
            f"ground state changes sign at x={roots[0]:.6g}", points=roots[:1]
        )

    def jet(x, order):
        return (-_log_derivative(_rows(psi0, x, 1))[0],)

    return _jet_function(jet, psi0.domain, order=0)


def _kummer_series(alpha, gamma, lam, y):
    """(M, M' - lam M) for Kummer's M(alpha, gamma, y) at y >= 0, both up to
    one positive factor per point (DLMF 13.2.2).

    M sums t_k = (alpha)_k / (gamma)_k y^k / k!, and M' - lam M sums
    t_k (alpha + k - lam (gamma + k)) / (gamma + k), so that for lam = 1 the
    near-equal M' and M of large y never cancel.  Every 8 terms, a point whose
    sum of |t_k| passed 1e150 is scaled down, and the sum stops once at every
    point t_k is 0 (alpha = -j), or k is past y + |alpha| + |gamma|, where the
    terms shrink, and t_k is below the float spacing of the sum of |t_k|.  The
    count of terms is capped from max y, so a NaN point ends too.
    """
    y = np.asarray(y, dtype=float)
    t, total, der, size = np.ones_like(y), np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
    reach = abs(alpha) + abs(gamma)
    top = float(np.max(y, initial=0.0, where=np.isfinite(y)))
    for k in range(int(top + 10.0 * math.sqrt(top) + 2.0 * reach) + 64):
        total += t
        der += t * ((alpha + k - lam * (gamma + k)) / (gamma + k))
        size += np.abs(t)
        t *= y * ((alpha + k) / ((gamma + k) * (k + 1.0)))
        if k % 8 == 7:
            big = size > 1e150
            for v in (t, total, der, size):
                v[big] *= 1e-150
            if np.all((t == 0.0) | ((k > y + reach) & (np.abs(t) <= np.spacing(size)))):
                break
    return total, der


def extend_general_R(family: RadialOscillator, branch, R: float, r_max=None) -> ExtensionPair:
    """Deform with an arbitrary shift constant R, from the closed-form seed.

    The seed regular at the origin, u'' + 2 w0 u' - R u = 0 with
    w0 = b r / 2 + a / r, is u = M(-R/2b, a + 1/2, -b r^2 / 2) (DLMF 13.2.1).
    For b > 0 it is summed as e^(-y) M(a + 1/2 + R/2b, a + 1/2, y) at
    y = b r^2 / 2 (Kummer's transformation, DLMF 13.2.39), for b < 0 as
    M(-R/2b, a + 1/2, y) at y = -b r^2 / 2: either way at a positive
    argument, where only the terms before k = -alpha change sign.  Then
    w~ = w0 + u'/u carries a jet whose slope takes phi' = (u'/u)' from the
    Riccati identity, so V~-/+ sum the series once per call, block by block.
    Sign changes of M on (0, r_max) are the singular points of the returned
    pair.
    """
    RadialOscillator.check(family)
    check_real(R, "the shift R")
    branch = get_branch(family, branch)
    a, b, _ = family.effective(branch)
    w0 = family.superpotential(a, b)
    if r_max is None:
        r_max = 16.0 / math.sqrt(family.omega)
    if check_real(r_max, "r_max") <= 0.0:
        raise ConfigurationError(f"r_max must be positive, got {r_max}")
    gamma = a + 0.5
    if gamma <= 0.0 and gamma.is_integer():
        raise ConfigurationError(
            f"the regular power series is resonant (a + 1/2 = {gamma}); branch "
            f"{branch.k} at ell = {family.ell} has no even power-series seed"
        )
    q = R / (2.0 * b)
    lam = 1 if b > 0 else 0
    alpha = gamma + q if lam else -q
    # the terms of alpha are R / 2b and a + 1/2
    j = max(round(-alpha), 0)
    if abs(alpha + j) <= _SNAP_ULPS * np.spacing(abs(gamma) + abs(q)):
        alpha = -float(j)

    # |b| = omega, so the seed's argument is the family's variable y
    def seed(r):
        return _kummer_series(alpha, gamma, lam, family.variable(r, 0)[0])[0]

    def phi_jet(r, order):
        y, dy = family.variable(r, 1)
        M, dM = _kummer_series(alpha, gamma, lam, y)
        p = dy * dM / M  # dy/dr (M' - lam M) / M
        if not order:
            return (p,)
        return p, R - 2.0 * w0.f(r) * p - p * p

    scan = np.linspace(0.0, r_max, 4001)[1:]
    singular = pe.sign_change_zeros(seed, scan, seed(scan), 0.0, 0.0).crossings
    w_tilde = _jet_function(_plus_jet(w0, phi_jet), (0.0, r_max), singular)
    Vm, Vp = partner_potentials(w_tilde)
    return ExtensionPair(V_tilde_minus=Vm, V_tilde_plus=Vp, shift=float(R),
                         singular_points=list(singular), w_tilde=w_tilde)

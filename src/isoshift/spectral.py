"""Numerical certification: bound-state solver, residual checks, regularity.

The solver discretizes -d^2/dx^2 + V on a uniform grid with a 3-point
Laplacian and Dirichlet ends and Richardson-extrapolates each of the lowest
eigenvalues from the (n, 2n+1) grid pair.  The eigenvalues pass along a
chain of three grids over the same interval: bisection (Sturm sequences) on
a small seed grid of max(256, n // 8, k) points gives start shifts for
Rayleigh-quotient iteration on the coarse grid n, and the coarse eigenvalues
give those on the fine grid 2n+1.  On both grids a residual bound and two
Sturm counts certify that the iteration found the lowest eigenpairs; where
that certificate fails, the grid goes back to bisection with
inverse-iteration vectors, and the `isoshift.spectral` logger records it at
DEBUG level.  Everything else in the module is a pointwise residual
evaluator or a classifier built on the polynomial zero scan.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .catalog import Family, Function1D
from .errors import ConfigurationError, SingularPotentialError

_log = logging.getLogger(__name__)

__all__ = [
    "Grid",
    "SpectralReport",
    "RegularityReport",
    "default_grid",
    "solve_bound_states",
    "isospectrality_report",
    "schrodinger_residual",
    "qhj_residual",
    "classify_regularity",
]


@dataclass(frozen=True)
class Grid:
    """Uniform Dirichlet grid: n_points interior nodes on (lo, hi)."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ConfigurationError(f"grid requires lo < hi, got ({self.lo}, {self.hi})")
        if self.n_points < 64:
            raise ConfigurationError(f"grid needs at least 64 points, got {self.n_points}")

    @property
    def spacing(self):
        return (self.hi - self.lo) / (self.n_points + 1)

    @property
    def nodes(self):
        return self.lo + self.spacing * np.arange(1, self.n_points + 1)

    def refined(self):
        """The half-spacing grid used for Richardson extrapolation."""
        return Grid(self.lo, self.hi, 2 * self.n_points + 1)


@dataclass(frozen=True)
class SpectralReport:
    """Extrapolated eigenvalues with convergence and decay diagnostics.

    grid_convergence is |fine - coarse| / 3 per level: the Richardson
    estimate of the error of the fine grid's eigenvalue, not of the
    extrapolated one in `eigenvalues`, which is usually far smaller.
    """

    eigenvalues: tuple
    boundary_decay_ok: tuple
    grid_convergence: tuple


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the regularity scan of one extension."""

    classification: str  # "regular" or "singular"
    points: tuple
    klh_prediction: Optional[str]  # the closed-form criterion, where stated
    finding: Optional[str]  # non-None when scan and criterion disagree

    @property
    def is_regular(self):
        return self.classification == "regular"


def default_grid(family, k=6, m=0, n_points=8000) -> Grid:
    """Solver grid sized so the k-th state's turning point is well inside."""
    return Grid(*Family.check(family).solver_interval(k, m), n_points)


def _fd_hamiltonian(V: Function1D, grid: Grid):
    """Diagonal, off-diagonal and potential samples of the FD Hamiltonian."""
    x = grid.nodes
    v = np.asarray(V.f(x), dtype=float)
    bad = np.nonzero(~np.isfinite(v))[0]
    if bad.size:
        i = int(bad[0])
        raise SingularPotentialError(
            f"potential non-finite at grid node x={x[i]:.8g}", node=float(x[i])
        )
    h2 = grid.spacing**2
    return 2.0 / h2 + v, np.full(grid.n_points - 1, -1.0 / h2), v


def _bisection(diag, off, k, eigvals_only):
    """The lowest k eigenvalues (and vectors) by Sturm bisection."""
    return eigh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1),
        eigvals_only=eigvals_only, lapack_driver="stebz",
    )


def _start_vector(n, j):
    """sin(j pi t) at t = i/(n+1): the j-th discrete Dirichlet mode.

    It has the parity of level j in a symmetric well, which a constant
    vector lacks for every even j.
    """
    return np.sin(j * np.pi * np.arange(1, n + 1) / (n + 1))


def _eigenvalue_count(diag, off, lo, hi):
    """Sturm count of the eigenvalues in (lo, hi]; dstebz stops before bisecting."""
    m, _, _, _, info = lapack.dstebz(diag, off, 1, lo, hi, 1, 1, 1e300, "E")
    return m if info == 0 else -1


# RQI converges cubically, in two or three steps from a coarser grid's
# eigenvalue; a level still moving after this many steps goes to the fallback
_RQI_MAX_STEPS = 30


def _certified_rqi(diag, off, v, guesses):
    """Rayleigh-quotient iteration for the lowest len(guesses) eigenpairs.

    Level j starts at shift guesses[j-1] with the vector _start_vector(n, j)
    and stops when successive Rayleigh quotients agree to 8 eps ||T||.  The
    result is certified or refused (None): with residuals r_j, the intervals
    lambda_j +- r_j each hold an eigenvalue, so if they are increasing and
    disjoint and Sturm counts find no eigenvalue in (lo, lambda_1 - r_1] and
    exactly k in (lo, lambda_k + r_k], they hold the lowest k, one each.
    lo = min V - 1 lies below the Gershgorin bound min V of the spectrum.
    (Parlett, The Symmetric Eigenvalue Problem, sections 4.6 and 10.4.)
    """
    n, k = diag.size, len(guesses)
    tol = 8.0 * np.finfo(float).eps * (4.0 * abs(off[0]) + np.max(np.abs(v)))
    vals, vecs, radii = np.empty(k), np.empty((n, k)), np.empty(k)
    for j, lam in enumerate(guesses):
        x, prev = _start_vector(n, j + 1), np.nan
        for _ in range(_RQI_MAX_STEPS):
            *_, y, info = lapack.dgtsv(off, diag - lam, off, x)
            if info != 0:
                return None
            x = y / np.linalg.norm(y)
            tx = diag * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            prev, lam = lam, float(x @ tx)
            if abs(lam - prev) <= tol:
                break
        else:
            return None
        vals[j], vecs[:, j] = lam, x
        radii[j] = np.linalg.norm(tx - lam * x)
    lower, upper = vals - radii, vals + radii
    lo = float(np.min(v)) - 1.0
    certified = (
        np.all(upper[:-1] < lower[1:])
        and lo < lower[0]  # dstebz refuses an empty (lo, hi] with a printed error
        and _eigenvalue_count(diag, off, lo, lower[0]) == 0
        and _eigenvalue_count(diag, off, lo, upper[-1]) == k
    )
    return (vals, vecs) if certified else None


def _lowest_pairs(diag, off, v, guesses):
    """Certified RQI from guesses, else bisection: the lowest len(guesses) eigenpairs."""
    pairs = _certified_rqi(diag, off, v, guesses)
    if pairs is None:
        _log.debug("RQI certificate failed on %d points, k=%d: bisection",
                   diag.size, len(guesses))
        pairs = _bisection(diag, off, len(guesses), eigvals_only=False)
    return pairs


# the seed grid's floor: with n // 8 points alone, RQI on 1000-point grids
# missed levels of m = 8 radial-oscillator extensions and fell back
_SEED_POINTS = 256


def solve_bound_states(V: Function1D, grid: Grid, k: int) -> SpectralReport:
    """Lowest k eigenvalues, Richardson-extrapolated from grids (n, 2n+1).

    Bisection on a seed grid of max(256, n // 8, k) points gives the start
    shifts of certified Rayleigh-quotient iteration on the coarse grid, whose
    eigenvalues start it on the fine grid; a grid whose certificate fails
    goes back to bisection.
    """
    if not 1 <= k <= grid.n_points:
        raise ConfigurationError(
            f"need between 1 and {grid.n_points} states on this grid, got k={k}"
        )
    # the seed grid is sampled last: a non-finite V is reported at a node
    # of the grids the extrapolation uses
    coarse_h = _fd_hamiltonian(V, grid)
    fine_h = _fd_hamiltonian(V, grid.refined())
    seed = Grid(grid.lo, grid.hi, max(_SEED_POINTS, grid.n_points // 8, k))
    diag, off, _ = _fd_hamiltonian(V, seed)
    coarse, _ = _lowest_pairs(*coarse_h, _bisection(diag, off, k, eigvals_only=True))
    fine, vecs = _lowest_pairs(*fine_h, coarse)
    extrap = (4.0 * fine - coarse) / 3.0
    conv = np.abs(fine - coarse) / 3.0
    decay = []
    for j in range(k):
        vec = vecs[:, j]
        decay.append(bool(abs(vec[-1]) <= 1e-8 * np.max(np.abs(vec))))
    return SpectralReport(
        eigenvalues=tuple(float(e) for e in extrap),
        boundary_decay_ok=tuple(decay),
        grid_convergence=tuple(float(c) for c in conv),
    )


def isospectrality_report(V_a: Function1D, V_b: Function1D, grid: Grid, k: int):
    """(shift, max per-level deviation) between two spectra's lowest k levels.

    The shift is the least-squares constant offset spec(V_a) - spec(V_b).
    """
    return _spectral_offset(solve_bound_states(V_a, grid, k), solve_bound_states(V_b, grid, k))


def _spectral_offset(report_a: SpectralReport, report_b: SpectralReport):
    """isospectrality_report's (shift, deviation) from the two solver reports."""
    diff = np.array(report_a.eigenvalues) - np.array(report_b.eigenvalues)
    shift = float(np.mean(diff))
    return shift, float(np.max(np.abs(diff - shift)))


def _second_derivative(psi: Function1D, x):
    """Analytic psi'' when available, else 5-point differences of psi'."""
    if psi.d2f is not None:
        return np.asarray(psi.d2f(x), dtype=float)
    x = np.asarray(x, dtype=float)
    h = 1e-4 * np.maximum(1.0, np.abs(x))
    d = psi.df
    return (
        -d(x + 2 * h) + 8.0 * d(x + h) - 8.0 * d(x - h) + d(x - 2 * h)
    ) / (12.0 * h)


def schrodinger_residual(psi: Function1D, E: float, V: Function1D, samples):
    """max over samples of |-psi'' + (V - E) psi| / (|E| max|psi| + eps).

    Uses psi.jet, when present, for psi and psi'' in one evaluation.
    """
    x = np.asarray(samples, dtype=float)
    if psi.jet is not None:
        p, _, d2p = psi.jet(x)
    else:
        p, d2p = psi.f(x), _second_derivative(psi, x)
    p = np.asarray(p, dtype=float)
    res = -np.asarray(d2p, dtype=float) + (np.asarray(V.f(x)) - E) * p
    finite = np.isfinite(res)
    if not np.any(finite):
        return 0.0
    # the |E| floor keeps the scale meaningful for zero modes
    scale = max(abs(E), 1.0) * np.max(np.abs(p[finite])) + 1e-300
    return float(np.max(np.abs(res[finite])) / scale)


def qhj_residual(psi: Function1D, E: float, V: Function1D, samples):
    """Residual of Q^2 - Q' - V + E with Q = -psi'/psi, skipping nodes of psi.

    Uses psi.jet, when present, for psi, psi' and psi'' in one evaluation.
    """
    x = np.asarray(samples, dtype=float)
    if psi.jet is not None:
        p, dp, d2p = psi.jet(x)
    else:
        p, dp, d2p = psi.f(x), psi.df(x), _second_derivative(psi, x)
    p, dp, d2p = (np.asarray(v, dtype=float) for v in (p, dp, d2p))
    keep = np.abs(p) > 1e-8 * np.max(np.abs(p))
    x, p, dp, d2p = x[keep], p[keep], dp[keep], d2p[keep]
    q = -dp / p
    dq = -d2p / p + (dp / p) ** 2
    res = q * q - dq - np.asarray(V.f(x)) + E
    scale = abs(E) + 1.0
    return float(np.max(np.abs(res)) / scale)


def classify_regularity(family, branch, m) -> RegularityReport:
    """Numeric-first regularity of the (branch, m) extension.

    The classification comes from scanning the seed polynomial for zeros in
    the physical domain.  Where the family states a closed-form criterion
    (radial-oscillator seeds at negative argument and non-integer alpha, see
    RadialOscillator.seed_zero_prediction) it is evaluated alongside; a
    disagreement is reported as a finding, never as a failure.
    """
    from .deform import seed_polynomial

    return _deformation_regularity(seed_polynomial(family, branch, m))


def _deformation_regularity(d) -> RegularityReport:
    """classify_regularity of a Deformation, from the zero scan it already holds."""
    classification = "singular" if d.singular_points else "regular"
    klh = d.family.seed_zero_prediction(d.seed, d.arg_sign)
    finding = None
    if klh is not None and klh != classification:
        finding = (
            f"zero scan finds {classification} (points={d.singular_points}) but "
            f"the stated criterion for alpha={d.seed.alpha}, m={d.m} predicts {klh}"
        )
    return RegularityReport(
        classification=classification,
        points=tuple(d.singular_points),
        klh_prediction=klh,
        finding=finding,
    )

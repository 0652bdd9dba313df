"""Numerical certification: bound-state solver, residual checks, regularity.

The solver discretizes -d^2/dx^2 + V on a uniform grid with a 3-point
Laplacian and Dirichlet ends, extracts the lowest eigenvalues of the
symmetric tridiagonal matrix by bisection (Sturm sequences) with inverse
iteration for vectors, and Richardson-extrapolates each eigenvalue from the
(n, 2n) grid pair.  Everything else in the module is a pointwise residual
evaluator or a classifier built on the polynomial zero scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .catalog import Family, Function1D
from .errors import ConfigurationError, SingularPotentialError

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
    """Extrapolated eigenvalues with convergence and decay diagnostics."""

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


def _tridiagonal_eigs(V: Function1D, grid: Grid, k: int, want_vectors: bool):
    x = grid.nodes
    v = np.asarray(V.f(x), dtype=float)
    bad = np.nonzero(~np.isfinite(v))[0]
    if bad.size:
        i = int(bad[0])
        raise SingularPotentialError(
            f"potential non-finite at grid node x={x[i]:.8g}", node=float(x[i])
        )
    h2 = grid.spacing**2
    diag = 2.0 / h2 + v
    off = np.full(grid.n_points - 1, -1.0 / h2)
    if want_vectors:
        vals, vecs = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k - 1), lapack_driver="stebz"
        )
        return vals, vecs
    vals = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1),
        eigvals_only=True, lapack_driver="stebz",
    )
    return vals, None


def solve_bound_states(V: Function1D, grid: Grid, k: int) -> SpectralReport:
    """Lowest k eigenvalues, Richardson-extrapolated from grids (n, 2n+1)."""
    if k < 1:
        raise ConfigurationError(f"need at least one state, got k={k}")
    coarse, _ = _tridiagonal_eigs(V, grid, k, want_vectors=False)
    fine_grid = grid.refined()
    fine, vecs = _tridiagonal_eigs(V, fine_grid, k, want_vectors=True)
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
    ea = np.array(solve_bound_states(V_a, grid, k).eigenvalues)
    eb = np.array(solve_bound_states(V_b, grid, k).eigenvalues)
    diff = ea - eb
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
    (radial-oscillator seeds at negative argument: "one negative zero iff m
    is odd and -m - 1/2 < alpha < -m") it is evaluated alongside; a
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

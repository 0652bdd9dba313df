"""Numerical certification: bound-state solver, residual checks, regularity.

The solver discretizes -d^2/dx^2 + V on a uniform grid with a 3-point
Laplacian and Dirichlet ends and Richardson-extrapolates each of the lowest
eigenvalues from the (n, 2n+1) grid pair.  The eigenpairs pass along a
chain of three grids over the same interval: bisection (Sturm sequences)
to a width of 1e-9 ||T|| with inverse iteration on a small seed grid of
max(256, n // 8, k) points starts Rayleigh-quotient iteration (RQI) on the
coarse grid n, and the coarse eigenpairs start it on the fine grid 2n+1.
Each level starts from the grid below's eigenvector, linear between its
nodes and zero at the walls, and on the fine grid from the h^2 prediction
of its eigenvalue, so most levels need one or two linear solves.  V is
sampled once per solve, on the fine grid, whose odd nodes are the coarse
grid's, and on the seed grid, in slices of _POTENTIAL_SLICE points; each
grid's Hamiltonian is built as the grid starts, its off-diagonal a
broadcast of one value.  RQI runs in place in three rows allocated once
per grid, and the fine grid reduces each eigenvector to its
boundary-decay flag, so a solve at n = 3000 (the DPT certify grid where
min(A, B) < 1/2; the other certify grids hold 950-1450 at A, B <= 4 and
ell <= 20) peaks near 0.6 MB and repeated solves fault in almost no
pages.  On both grids a
residual bound and one Sturm count certify that the iteration found the
lowest eigenpairs; where that certificate fails, the grid goes back to
full-precision bisection with inverse-iteration vectors, and the
`isoshift.spectral` logger records it at DEBUG level.  The LAPACK calls
come from scipy's _flapack extension, loaded from its file at the solver's
first call without scipy.linalg (see _lapack), so that importing the package
loads no scipy and an FD solve only that one extension.
Everything else in the module is the closed-form spectrum of a branch's
V-, a pointwise residual evaluator, a classifier built on the polynomial
zero scan, or `certify`, which runs every invariant check of
`isoshift certify` and returns its report.
schrodinger_residual evaluates psi, psi'' and V over blocks of
polyengine._BLOCK samples and carries only its two maxima across blocks,
so its value is bitwise that of one pass.  Both residuals raise
ConfigurationError for an empty sample set or a sample outside psi's open
domain, and SingularPotentialError when no sample is usable, never a pass.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import deform, eop
from . import polyengine as pe
from .catalog import (Family, Function1D, _log_derivative, _samples, get_branch,
                      partner_potentials, superpotential)
from .errors import (ConfigurationError, IsoshiftError, SingularPotentialError, check_index,
                     check_real)

_log = logging.getLogger(__name__)

# glibc raises its mmap threshold to the size of a freed mmapped block of at
# most 32 MiB, and its heap-trim threshold to twice that: this 1 MiB block puts
# both above a solve's 0.6 MB peak, so repeated solves never trim and refault the heap
np.empty(1 << 17)

__all__ = [
    "Grid",
    "SpectralReport",
    "RegularityReport",
    "default_grid",
    "solve_bound_states",
    "closed_form_spectrum",
    "isospectrality_report",
    "schrodinger_residual",
    "qhj_residual",
    "classify_regularity",
    "certify",
]


@dataclass(frozen=True)
class Grid:
    """Uniform Dirichlet grid: n_points interior nodes on finite real (lo, hi)."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        if not check_real(self.lo, "grid end lo") < check_real(self.hi, "grid end hi"):
            raise ConfigurationError(f"grid requires lo < hi, got ({self.lo}, {self.hi})")
        if check_index(self.n_points, "n_points") < 64:
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
    extrapolated one in `eigenvalues`, which is usually far smaller.  A
    closed-form report (closed_form_spectrum) has every decay flag True and
    grid_convergence 0.
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
    """Solver grid on the family's solver_interval(k, m), which holds the
    lowest k states of the rank-m extensions with their tails.

    n_points interior nodes; None gives certify's default,
    family.solver_points(k, m): on the radial oscillator, nodes 48 / 3001
    apart in units of 1 / sqrt(omega), whose interval ends where the k-th
    state has decayed by e^-50; on DPT, ceil(109 kappa) nodes, kappa the
    wavenumber of level k - 1 above the well floor, so kappa h = 0.0144,
    and 3000 where min(A, B) < 1/2.  k (>= 1) and m are checked integers
    (errors.check_index).
    """
    family = Family.check(family)
    if check_index(k, "k") < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    check_index(m, "hierarchy index m")
    if n_points is None:
        n_points = family.solver_points(k, m)
    return Grid(*family.solver_interval(k, m), n_points)


# points per slice of V's samples: an extension's potential holds about 14
# rows of its argument while it evaluates, so a solve's temporaries stay a
# few hundred kilobytes however long its fine grid
_POTENTIAL_SLICE = 2048


def _potential(V: Function1D, x):
    """V at the nodes x, evaluated over slices of _POTENTIAL_SLICE points."""
    v = np.empty_like(x)
    for lo in range(0, x.size, _POTENTIAL_SLICE):
        v[lo : lo + _POTENTIAL_SLICE] = V.f(x[lo : lo + _POTENTIAL_SLICE])
    return v


def _require_finite(x, v):
    """SingularPotentialError at the first node of x where V's sample v is
    not finite."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        node = float(x[bad[0]])
        raise SingularPotentialError(f"potential non-finite at grid node x={node:.8g}", node=node)


def _fd_hamiltonian(grid: Grid, v):
    """Diagonal, off-diagonal and potential samples of the FD Hamiltonian on
    grid, from V's samples v at its nodes.  The off-diagonal is the one
    value -1/h^2, a read-only broadcast that holds no row."""
    h2 = grid.spacing**2
    return 2.0 / h2 + v, np.broadcast_to(-1.0 / h2, grid.n_points - 1), v


def _norm_bound(off, v):
    """4 |off| + max|V|, a bound on ||T|| (Gershgorin)."""
    return 4.0 * abs(off[0]) + max(v.max(), -v.min())


def _decays(x):
    """Whether the vector x has decayed at the wall hi: |x[-1]| <= 1e-8 max|x|."""
    return bool(abs(x[-1]) <= 1e-8 * max(x.max(), -x.min()))


def _flapack_path():
    """The file of scipy's f2py LAPACK extension scipy/linalg/_flapack,
    found without importing scipy; ImportError where there is none."""
    spec = importlib.util.find_spec("scipy")
    for base in getattr(spec, "submodule_search_locations", None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError("no scipy/linalg/_flapack extension")


@functools.cache
def _lapack():
    """The module holding the solver's LAPACK routines dgtsv, dstebz, dstein.

    It is scipy's _flapack extension, loaded from its file without
    scipy.linalg, whose import loads about 85 more modules.  It is loaded
    under scipy's own module name, so a later `import scipy.linalg` reuses
    it and scipy.linalg.lapack's routines are its routines.  Where that load
    fails, scipy.linalg.lapack, which re-exports the same routines.  The
    path taken is logged once, at DEBUG level.
    """
    try:
        path = _flapack_path()
        loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)
    except ImportError as exc:
        from scipy.linalg import lapack as module

        _log.debug("LAPACK from scipy.linalg.lapack: %s", exc)
    else:
        _log.debug("LAPACK from %s", path)
    return module


def _bisection(diag, off, k, abstol=0.0):
    """The lowest k eigenpairs: Sturm bisection (dstebz), inverse iteration
    (dstein).  Bisection stops at intervals of width abstol, or at LAPACK's
    full precision where abstol is 0."""
    lapack = _lapack()
    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, k, abstol, "B")
    if info != 0 or m != k:
        raise np.linalg.LinAlgError(f"dstebz found {m} of the lowest {k} levels, info={info}")
    vecs, info = lapack.dstein(diag, off, w[:k], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein: {info} of {k} eigenvectors did not converge")
    # order "B" lists the levels block by block where T splits
    order = np.argsort(w[:k])
    return w[order], vecs[:, order]


def _start_vectors(vecs, src: Grid, dst: Grid):
    """RQI start vectors on dst, one per column of src's eigenvectors vecs.

    Each is its column interpolated linearly onto dst's nodes, with zeros at
    the walls lo and hi, and is built only when its level starts.
    """
    nodes, walls = dst.nodes, np.concatenate(([src.lo], src.nodes, [src.hi]))
    return (np.interp(nodes, walls, np.concatenate(([0.0], col, [0.0]))) for col in vecs.T)


def _eigenvalue_count(diag, off, lo, hi):
    """Sturm count of the eigenvalues in (lo, hi]; dstebz stops before bisecting."""
    m, _, _, _, info = _lapack().dstebz(diag, off, 1, lo, hi, 1, 1, 1e300, "E")
    return m if info == 0 else -1


# RQI converges cubically, in one or two steps from a coarser grid's
# eigenpair; a level still moving after this many steps goes to the fallback
_RQI_MAX_STEPS = 30


def _certified_rqi(diag, off, v, guesses, starts, vectors=True):
    """Rayleigh-quotient iteration for the lowest len(guesses) eigenpairs.

    Level j starts at shift guesses[j] with the j-th vector of the iterable
    starts, which the iteration overwrites.  It stops when successive
    Rayleigh quotients agree to tol = 8 eps ||T||, or when its residual
    r_j = ||T x - lambda_j x|| is within tol: the residual is needed for the
    certificate anyway, and the vector is then as accurate as tol asks.
    The result is certified or refused (None).  The intervals
    lambda_j +- (r_j + tol) each hold an eigenvalue, tol covering the
    rounding of r_j and of the Sturm count.  If they are increasing, disjoint
    and above lo, one Sturm count suffices: exactly k eigenvalues in
    (lo, lambda_k + r_k + tol] leave exactly one to each interval and none
    below the first, so they are the lowest k.  lo = min V - 1 lies below
    the Gershgorin bound min V of the spectrum.  (Parlett, The Symmetric
    Eigenvalue Problem, sections 4.6 and 10.4.)

    Every step runs in place, in three rows allocated once per call.  Returns
    (eigenvalues, eigenvectors as columns), or with vectors=False
    (eigenvalues, each vector's _decays flag), which keeps no vector past
    its level.
    """
    dgtsv = _lapack().dgtsv
    n, k = diag.size, len(guesses)
    # the shifted diagonal and the off-diagonal copies that dgtsv
    # overwrites; once it has solved, their rows hold T x and the residual.
    # Three arrays, not one block: each stays below the 128 KiB above which
    # glibc maps a block apart, and a mapped block's release would set the
    # heap-trim threshold to only twice its size, below the top a solve
    # frees, so that each later solve would fault that top back in
    d, tx, r = np.empty(n), np.empty(n), np.empty(n)
    dl, du = tx[:-1], r[:-1]
    tol = 8.0 * np.finfo(float).eps * _norm_bound(off, v)
    vals, radii = np.empty(k), np.empty(k)
    kept = np.empty((n, k)) if vectors else [False] * k
    # starts first: after the last level its generator runs out, which
    # frees what it interpolates from before the count
    for j, (x, lam) in enumerate(zip(starts, guesses)):
        for _ in range(_RQI_MAX_STEPS):
            np.subtract(diag, lam, out=d)
            dl[:] = off
            du[:] = off
            x, info = dgtsv(dl, d, du, x, overwrite_dl=True, overwrite_d=True,
                            overwrite_du=True, overwrite_b=True)[3:]
            if info != 0:
                return None
            x /= np.linalg.norm(x)
            # T x and T x - lambda x, with r as the temporary of each product
            np.multiply(diag, x, out=tx)
            np.multiply(off, x[1:], out=r[:-1])
            tx[:-1] += r[:-1]
            np.multiply(off, x[:-1], out=r[1:])
            tx[1:] += r[1:]
            prev, lam = lam, float(x @ tx)
            np.multiply(lam, x, out=r)
            np.subtract(tx, r, out=r)
            radius = np.linalg.norm(r)
            if abs(lam - prev) <= tol or radius <= tol:
                break
        else:
            return None
        # a residual below the rounding of T x, a few eps ||T||, bounds
        # nothing: without tol, a count at lambda_k + r_k can miss level k
        vals[j], radii[j] = lam, radius + tol
        if vectors:
            kept[:, j] = x
        else:
            kept[j] = _decays(x)
    # the last level's x and the rows are dead: free them before the
    # count's workspace
    del x, d, dl, du, tx, r
    lower, upper = vals - radii, vals + radii
    lo = float(np.min(v)) - 1.0
    certified = (
        np.all(upper[:-1] < lower[1:])
        and lo < lower[0]  # dstebz refuses an empty (lo, hi] with a printed error
        and _eigenvalue_count(diag, off, lo, upper[-1]) == k
    )
    return (vals, kept if vectors else tuple(kept)) if certified else None


def _lowest_pairs(diag, off, v, guesses, starts, vectors=True):
    """The lowest len(guesses) eigenpairs: certified RQI, else bisection.

    Returns what _certified_rqi does for the same vectors flag.
    """
    pairs = _certified_rqi(diag, off, v, guesses, starts, vectors)
    if pairs is None:
        _log.debug("RQI certificate failed on %d points, k=%d: bisection",
                   diag.size, len(guesses))
        vals, vecs = _bisection(diag, off, len(guesses))
        pairs = (vals, vecs if vectors else tuple(_decays(x) for x in vecs.T))
    return pairs


# the seed grid's floor: with n // 8 points alone, RQI on 1000-point grids
# missed levels of m = 8 radial-oscillator extensions and fell back
_SEED_POINTS = 256

# The seed eigenvalues only shift the coarse grid's RQI, and differ from its
# eigenvalues by the seed grid's h^2 error, about 1e-3 relative, so the seed
# bisection stops at this width relative to ||T||.  On the certify cells of
# tests/test_spectral.py it leaves the linear solves per solve as full
# precision has them (12.7); 1e-6 adds one.
_SEED_ABSTOL = 1e-9


def solve_bound_states(V: Function1D, grid: Grid, k: int) -> SpectralReport:
    """Lowest k eigenvalues, Richardson-extrapolated from grids (n, 2n+1).

    Bisection to a width of 1e-9 ||T||, with inverse iteration, on a seed
    grid of max(256, n // 8, k) points starts certified Rayleigh-quotient
    iteration on the coarse grid: its eigenvalues are the shifts, its
    eigenvectors, interpolated, the start vectors.  The coarse eigenvectors,
    interpolated, start the fine grid at the h^2 prediction coarse +
    (coarse - seed) (h_f^2 - h_c^2) / (h_c^2 - h_s^2), or at the coarse
    eigenvalues where the seed grid is not coarser than the coarse one
    (n <= 256).  A level stops when its eigenvalue or its residual is within
    tolerance, and one Sturm count per grid completes the certificate (see
    _certified_rqi); a grid whose certificate fails goes back to bisection
    at full precision.  The fine grid keeps of each eigenvector only its
    decay flag.  V is sampled once on the fine grid, whose odd samples are
    the coarse grid's, and once on the seed grid.
    """
    if not 1 <= check_index(k, "k") <= grid.n_points:
        raise ConfigurationError(
            f"need between 1 and {grid.n_points} states on this grid, got k={k}"
        )
    # V is sampled once on the fine grid, whose odd nodes are the coarse
    # grid's bit for bit (h_f = h_c / 2 exactly), and then on the seed grid:
    # a non-finite V is reported at a coarse node, else at a fine one, and
    # only then on the seed grid
    fine_grid = grid.refined()
    x = fine_grid.nodes
    v = _potential(V, x)
    _require_finite(x[1::2], v[1::2])
    _require_finite(x, v)
    seed = Grid(grid.lo, grid.hi, max(_SEED_POINTS, grid.n_points // 8, k))
    x = seed.nodes
    diag, off, vs = _fd_hamiltonian(seed, _potential(V, x))
    _require_finite(x, vs)
    seed_vals, seed_vecs = _bisection(diag, off, k, _SEED_ABSTOL * _norm_bound(off, vs))
    # each grid's arrays are built as it starts and are dead once the next
    # grid starts: freed, they keep the solve's peak lower
    del diag, off, vs, x
    coarse, coarse_vecs = _lowest_pairs(
        *_fd_hamiltonian(grid, v[1::2]), seed_vals, _start_vectors(seed_vecs, seed, grid))
    del seed_vecs
    # from the coarse eigenvalues alone, the fine grid needs about 3 more
    # linear solves per solve on the radial-oscillator certify cells
    if seed.n_points < grid.n_points:
        hs2, hc2, hf2 = seed.spacing**2, grid.spacing**2, fine_grid.spacing**2
        shifts = coarse + (coarse - seed_vals) * ((hf2 - hc2) / (hc2 - hs2))
    else:
        shifts = coarse
    # the coarse eigenvectors live on only in the start vectors' generator
    starts = _start_vectors(coarse_vecs, grid, fine_grid)
    del coarse_vecs
    fine, decay = _lowest_pairs(*_fd_hamiltonian(fine_grid, v), shifts, starts, vectors=False)
    extrap = (4.0 * fine - coarse) / 3.0
    conv = np.abs(fine - coarse) / 3.0
    return SpectralReport(
        eigenvalues=tuple(float(e) for e in extrap),
        boundary_decay_ok=decay,
        grid_convergence=tuple(float(c) for c in conv),
    )


def closed_form_spectrum(family, branch, k) -> Optional[SpectralReport]:
    """The lowest k levels of branch's V- = w^2 - w' = V - E in closed form,
    family.levels(k) - E with E the branch's factorization energy, as a
    SpectralReport; None where family.endpoint_term, where FD levels carry
    an error the closed form does not, so that only another FD spectrum is
    a fair reference.  branch is a Branch of family or its index, and k
    (>= 1) a checked integer.
    """
    branch = get_branch(family, branch)
    if check_index(k, "k") < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    if family.endpoint_term:
        return None
    levels = family.levels(k) - branch.factorization_energy
    return SpectralReport(eigenvalues=tuple(float(e) for e in levels),
                          boundary_decay_ok=(True,) * k, grid_convergence=(0.0,) * k)


def isospectrality_report(report_a: SpectralReport, report_b: SpectralReport):
    """(shift, max per-level deviation) between two solver reports' levels.

    The shift is the least-squares constant offset spec_a - spec_b, and the
    deviation the largest |spec_a - spec_b - shift|.  Raises
    ConfigurationError unless both are SpectralReports with as many levels,
    at least one.
    """
    if not all(isinstance(r, SpectralReport) for r in (report_a, report_b)):
        raise ConfigurationError("expected two SpectralReports, got "
                                 f"{type(report_a).__name__} and {type(report_b).__name__}")
    n_a, n_b = len(report_a.eigenvalues), len(report_b.eigenvalues)
    if n_a != n_b or not n_a:
        raise ConfigurationError(
            f"the reports hold {n_a} and {n_b} levels; a shift needs as many, at least one")
    diff = np.array(report_a.eigenvalues) - np.array(report_b.eigenvalues)
    shift = float(np.mean(diff))
    return shift, float(np.max(np.abs(diff - shift)))


def schrodinger_residual(psi: Function1D, E: float, V: Function1D, samples):
    """max over samples of |-psi'' + (V - E) psi| / (|E| max|psi| + eps).

    Samples where the residual is not finite are skipped, and the max|psi|
    runs over the others.  psi and psi'' come from one evaluation of
    psi.jet to order 2.  psi, V and the residual are evaluated over blocks
    of polyengine._BLOCK samples, and only the two maxima cross blocks, so
    no temporary is longer than a block; the value is bitwise that of one
    pass.  Raises ConfigurationError for an empty sample set, a sample that
    is not a finite point of psi's open domain, an E that is not a finite
    real (errors.check_real) or a psi of order below 2, and
    SingularPotentialError when no sample gives a finite residual.
    """
    check_real(E, "the energy E")
    x = _samples(samples, psi.domain)
    worst = top = 0.0
    finite = 0
    for s in pe._blocks(x.size):
        xb = x[s]
        p, _, d2p = psi.jet(xb, 2)
        p = np.asarray(p, dtype=float)
        res = -np.asarray(d2p, dtype=float) + (np.asarray(V.f(xb)) - E) * p
        ok = np.isfinite(res)
        finite += np.count_nonzero(ok)
        worst = max(worst, np.max(np.abs(res), where=ok, initial=0.0))
        top = max(top, np.max(np.abs(p), where=ok, initial=0.0))
    if not finite:
        raise SingularPotentialError(
            f"no sample of {x.size} gives a finite Schrodinger residual"
        )
    # the |E| floor keeps the scale meaningful for zero modes
    scale = max(abs(E), 1.0) * top + 1e-300
    return float(worst / scale)


def qhj_residual(psi: Function1D, E: float, V: Function1D, samples):
    """Residual of Q^2 - Q' - V + E with Q = -psi'/psi, skipping nodes of psi.

    A node is a sample where |psi| is at most 1e-8 of the largest finite
    |psi|, or is not finite.  psi, psi' and psi'' come from one evaluation
    of psi.jet, and Q and Q' are minus catalog._log_derivative of them.
    Raises ConfigurationError as schrodinger_residual does, and
    SingularPotentialError when every sample is a node.
    """
    check_real(E, "the energy E")
    x = _samples(samples, psi.domain)
    p, dp, d2p = (np.asarray(v, dtype=float) for v in psi.jet(x, 2))
    size = np.abs(p)
    finite = np.isfinite(size)
    keep = finite & (size > 1e-8 * np.max(size, where=finite, initial=0.0))
    if not np.any(keep):
        raise SingularPotentialError(
            f"psi is zero or not finite at all {x.size} samples; Q = -psi'/psi is undefined"
        )
    q, dq = (-g for g in _log_derivative((p[keep], dp[keep], d2p[keep])))
    x = x[keep]
    res = q * q - dq - np.asarray(V.f(x)) + E
    scale = abs(E) + 1.0
    return float(np.max(np.abs(res)) / scale)


def classify_regularity(d: deform.Deformation) -> RegularityReport:
    """Numeric-first regularity of the extension d, a Deformation (any other
    d is a ConfigurationError; from (family, branch, m), pass
    seed_polynomial(family, branch, m)).

    The classification comes from the zero scan of the seed polynomial in
    the physical domain that d holds.  Where the family states a closed-form
    criterion (radial-oscillator seeds at negative argument and non-integer
    alpha, see RadialOscillator.seed_zero_prediction) it is evaluated
    alongside; a disagreement is reported as a finding, never as a failure.
    """
    if not isinstance(d, deform.Deformation):
        raise ConfigurationError(f"expected a Deformation, got {type(d).__name__}")
    classification = "singular" if d.singular_points else "regular"
    klh = d.family.seed_zero_prediction(d.seed)
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


# certify gates: a value above its bound, or NaN, fails the run
_RICCATI_GATE = 1e-9  # relative to 1 + |R|
_GRAM_GATE = 1e-8
_ISOSPECTRAL_GATE = 1e-3
_W0_GATE = 1e-9


def _gate(failures, what, value, bound):
    """Append "what value" to failures unless value <= bound (NaN fails)."""
    if not value <= bound:
        failures.append(f"{what} {value:.3e}")


def certify(family, branches, ms, *, nmax, grid_points, skip_gram, skip_spectral):
    """The report of `isoshift certify`: every (branch, m) cell, branch by
    branch, and the W0 check at each m > 0.

    A regular broken-SUSY cell checks V~-'s FD levels against V-'s
    closed-form levels shifted by R, or where Family.endpoint_term against
    V-'s FD levels, solved once per branch and grid (see _certify_cell).

    It holds family (its name), params, cells, w0, failures (one "branch k
    m=m: <check> <value>" per gate missed; values may be NaN or inf) and
    status, "pass" or "fail".  A cell that raises an IsoshiftError is
    recorded with that error and fails alone; a ConfigurationError
    propagates.  The keywords are the command's flags, without defaults.
    Every input is checked before any cell runs: ConfigurationError refuses
    an empty branches or ms, and a branch, m, nmax or grid_points no cell takes.
    """
    family = Family.check(family)
    branches, ms = list(branches), list(ms)
    if not branches or not ms:
        raise ConfigurationError("certify needs at least one branch and one m")
    for k in branches:
        get_branch(family, k)
    for m in ms:
        check_index(m, "hierarchy index m")
    check_index(nmax, "nmax")
    if grid_points is not None:
        default_grid(family, k=4, n_points=grid_points)
    report = {"family": family.name, "params": asdict(family), "cells": [], "w0": [],
              "failures": []}

    # each input is built once per run: V- of a branch serves every m, and
    # W0 reuses the extensions of branches 2 and 3
    @functools.cache
    def extension(k, m):
        d = deform.seed_polynomial(family, k, m)
        return d, deform.extend(d)

    @functools.cache
    def v_minus_spectrum(k, grid):
        # the lowest four FD levels of branch k's V-, which no m changes: V~-
        # of the identity deformation, and the reference where V-'s closed
        # form is not one
        return solve_bound_states(partner_potentials(superpotential(family, k))[0], grid, 4)

    for k in branches:
        for m in ms:
            try:
                record, failures = _certify_cell(
                    family, k, m, extension, v_minus_spectrum,
                    nmax, grid_points, skip_gram, skip_spectral)
            except ConfigurationError:
                raise
            except IsoshiftError as exc:
                # a cell that cannot be certified fails alone; the report stays
                error = f"{type(exc).__name__}: {exc}"
                record = {"branch": k, "m": m, "error": error}
                failures = [f"branch {k} m={m}: {error}"]
            report["cells"].append(record)
            report["failures"].extend(failures)
    # the linking superpotential W0 joins the L1 and L2 extensions
    if family.exceptional_series:
        for m in ms:
            if m:
                report["w0"].append(_certify_w0(family, m, extension, report["failures"]))
    report["status"] = "pass" if not report["failures"] else "fail"
    return report


def _certify_cell(family, k, m, extension, v_minus_spectrum,
                  nmax, grid_points, skip_gram, skip_spectral):
    """All invariant checks for one (branch, m); returns (record, failures).

    extension(k, m) and v_minus_spectrum(k, grid) are the run's caches of
    branch k's (Deformation, ExtensionPair) and of its V-'s lowest 4 FD
    levels.  On a regular broken-SUSY cell, V~-'s lowest 4 FD levels (V-'s
    for the identity deformation, where V~- is V- bit for bit) are compared
    by isospectrality_report with V-'s closed-form levels
    (closed_form_spectrum), and the deviation and |shift - R| are gated;
    where the family's FD error keeps an endpoint term, with V-'s FD levels
    on the same grid instead, and only the deviation is gated, as the error
    partly cancels between the two solves.
    """
    t0 = time.perf_counter()
    failures = []
    cell = f"branch {k} m={m}:"
    d, pair = extension(k, m)  # extend raises InternalInconsistencyError on violation
    rr = d.riccati_residual(deform.certification_grid(family, 400, exclude=d.singular_points))
    _gate(failures, f"{cell} riccati residual", rr, _RICCATI_GATE * (1.0 + abs(d.R)))
    reg = classify_regularity(d)
    record = {"branch": k, "m": m, "riccati_residual": rr,
              "partner_shift_deviation": pair.partner_shift_deviation, "shift": d.R,
              "regularity": reg.classification, "singular_points": list(reg.points)}
    if reg.finding:
        record["finding"] = reg.finding

    series = family.exceptional_series.get(k)
    if series is not None and m > 0 and reg.is_regular and not skip_gram:
        G, gerr = eop.gram_matrix(series, m, family, nmax, reg.points)
        gmax = eop.gram_offdiag_max(G)
        record["gram_offdiag_max"] = gmax
        record["gram_quadrature_error"] = gerr
        _gate(failures, f"{cell} gram off-diagonal", gmax, _GRAM_GATE)
        inside, outside = eop.zero_census(eop.EOPSpec(series, 2, m, family))
        record["zero_census_n2"] = {"inside": inside, "outside": outside}
    else:
        record["gram_offdiag_max"] = record["gram_quadrature_error"] = "skipped: " + (
            "m=0" if m == 0 else
            "singular extension" if not reg.is_regular else
            "no polynomial series for this branch" if series is None else
            "--skip-gram"
        )

    if not skip_spectral and reg.is_regular and d.branch.susy_kind == "broken":
        gridspec = default_grid(family, k=4, m=m, n_points=grid_points)
        if d.seed.degree == 0 and d.process == 1:
            # the identity deformation: V~- is V- bit for bit
            tilde = v_minus_spectrum(k, gridspec)
        else:
            tilde = solve_bound_states(pair.V_tilde_minus, gridspec, 4)
        reference = closed_form_spectrum(family, k, 4)
        closed = reference is not None
        if not closed:
            reference = v_minus_spectrum(k, gridspec)
        shift, deviation = isospectrality_report(tilde, reference)
        record["isospectrality"] = {"shift": shift, "deviation": deviation,
                                    "reference": "closed form" if closed else "finite difference"}
        _gate(failures, f"{cell} isospectral deviation", deviation, _ISOSPECTRAL_GATE)
        if closed:
            _gate(failures, f"{cell} isospectral shift error", abs(shift - d.R), _ISOSPECTRAL_GATE)
    else:
        record["isospectrality"] = "skipped: " + (
            "singular extension" if not reg.is_regular else
            "--skip-spectral" if skip_spectral else
            "exact-SUSY branch deletes levels; no constant shift expected"
        )

    record["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return record, failures


def _certify_w0(family, m, extension, failures):
    """Consistency residuals of the explicit linking superpotential (RO),
    which joins the extensions of branches 2 and 3; gate failures go to
    failures."""
    W0 = deform.w0_explicit(family, m)
    c = deform.w0_partner_constant(family, m)
    (d2, pair2), (d3, pair3) = extension(2, m), extension(3, m)
    grid = deform.certification_grid(
        family, 400, exclude=list(d2.singular_points) + list(d3.singular_points))
    v2, v3 = pair2.V_tilde_minus.f(grid), pair3.V_tilde_minus.f(grid)
    minus, plus = (V.f(grid) for V in partner_potentials(W0))
    res_minus = float(np.max(np.abs(minus - (v2 - c)) / (1.0 + np.abs(v2))))
    res_plus = float(np.max(np.abs(plus - (v3 - c)) / (1.0 + np.abs(v3))))
    w0v = W0.f(grid)
    psi0 = eop.eigenfunction_closed_form(eop.EOPSpec("L1", 0, m, family))
    gs = deform.w0_from_ground_state(psi0)
    res_gs = float(np.max(np.abs(w0v - gs.f(grid)) / (1.0 + np.abs(w0v))))
    residuals = {
        "minus_partner_residual": res_minus,
        "plus_partner_residual": res_plus,
        "ground_state_residual": res_gs,
    }
    for key, value in residuals.items():
        _gate(failures, f"w0 m={m}: {key} =", value, _W0_GATE)
    return {"m": m, "partner_constant": c, **residuals}

"""Bound-state solver, residual evaluators, and the regularity classifier."""

import logging
import math
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lapack

from isoshift.catalog import (
    Function1D,
    RadialOscillator,
    TrigDPT,
    _rows,
    partner_potentials,
    potential,
    superpotential,
)
from isoshift.deform import certification_grid, extend, seed_polynomial
from isoshift.eop import EOPSpec, classical_ro_eigenfunction, eigenfunction_closed_form, eigenvalue
import isoshift
from isoshift import spectral
from isoshift.spectral import (
    Grid,
    classify_regularity,
    default_grid,
    isospectrality_report,
    qhj_residual,
    schrodinger_residual,
    solve_bound_states,
)
from isoshift.errors import ConfigurationError, SingularPotentialError


def _const_fn(c, domain=(0.0, 1.0)):
    g = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    return Function1D(f=g, df=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                      domain=domain)


def _tridiagonal(V, grid):
    h2 = grid.spacing**2
    return 2.0 / h2 + V.f(grid.nodes), np.full(grid.n_points - 1, -1.0 / h2)


def _stebz(V, grid, k, **kwargs):
    return eigh_tridiagonal(*_tridiagonal(V, grid), select="i", select_range=(0, k - 1),
                            lapack_driver="stebz", **kwargs)


def _bisection_report(V, grid, k):
    """The reference solver: Sturm bisection, with inverse-iteration vectors, on both grids."""
    coarse = _stebz(V, grid, k, eigvals_only=True)
    fine, vecs = _stebz(V, grid.refined(), k)
    return spectral.SpectralReport(
        eigenvalues=tuple(float(e) for e in (4.0 * fine - coarse) / 3.0),
        boundary_decay_ok=tuple(
            bool(abs(vec[-1]) <= 1e-8 * np.max(np.abs(vec))) for vec in vecs.T
        ),
        grid_convergence=tuple(float(c) for c in np.abs(fine - coarse) / 3.0),
    )


def _harmonic_line():
    x2 = lambda x: np.asarray(x, dtype=float) ** 2
    return Function1D(f=x2, df=lambda x: 2.0 * np.asarray(x, dtype=float),
                      domain=(-12.0, 12.0))


def _partner_vminus(fam):
    return partner_potentials(superpotential(fam, 1))[0]


class TestGrid:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Grid(2.0, 1.0, 100)
        with pytest.raises(ConfigurationError):
            Grid(0.0, 1.0, 10)

    def test_refinement_nests(self):
        g = Grid(0.0, 1.0, 100)
        fine = g.refined()
        assert fine.n_points == 201
        # coarse nodes are a subset of fine nodes
        assert np.allclose(fine.nodes[1::2], g.nodes)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Grid(0.0, 1.0, 300.0), id="grid-float-points"),
    pytest.param(lambda: solve_bound_states(_const_fn(0.0), Grid(0.0, 1.0, 100), k=2.5),
                 id="float-k"),
    pytest.param(lambda: solve_bound_states(_const_fn(0.0), Grid(0.0, 1.0, 100), k=True),
                 id="bool-k"),
    pytest.param(lambda: certification_grid(RadialOscillator(1.0, 1.0), 400.0),
                 id="certification-float-points"),
    pytest.param(lambda: certification_grid(RadialOscillator(1.0, 1.0), -3),
                 id="certification-negative-points"),
    pytest.param(lambda: certification_grid(TrigDPT(1.0, 1.0), 0),
                 id="certification-no-points"),
])
def test_sizes_and_counts_are_checked_integers(call):
    with pytest.raises(ConfigurationError):
        call()


@pytest.mark.parametrize("fam", [RadialOscillator(1.0, 1.0), TrigDPT(1.0, 1.0)], ids=repr)
@pytest.mark.parametrize("k, m", [
    (4, -5), (-9, 0), (0, 0), (2.5, 0), (True, 0), (4, 1.5), (4, True), (4, 2.0),
])
def test_default_grid_checks_its_indices(fam, k, m):
    # m = -5 and k = -9 raised a bare ValueError (math domain error) on the
    # radial oscillator; floats and bools passed silently on both families
    for n_points in (3000, None):
        with pytest.raises(ConfigurationError):
            default_grid(fam, k=k, m=m, n_points=n_points)


@pytest.mark.parametrize("k", [1, 4, 6])
def test_dpt_grid_size_is_a_function_of_A_B_and_k(k):
    # nodes resolve level k - 1 at kappa h = 0.0144 where min(A, B) >= 1/2;
    # below, the endpoint term h^(2A + 1) keeps the grid at 3000 nodes
    for A, B in [(0.5, 0.5), (1.5, 3.0), (4.0, 0.5), (30.0, 30.0), (0.3, 2.0), (2.0, -0.2)]:
        fam = TrigDPT(A, B)
        (n_points,) = {default_grid(fam, k=k, m=m, n_points=None).n_points for m in range(7)}
        if min(A, B) < 0.5:
            assert n_points == 3000
        else:
            kappa = math.sqrt((2 * k - 1) * (2.0 * A + 2.0 * B + 2 * k + 1))
            assert n_points == math.ceil(109.0 * kappa)
    assert default_grid(TrigDPT(30.0, 30.0), k=4, n_points=None).n_points == 3276


def test_dpt_default_grid_keeps_the_certified_levels():
    # every regular branch-2/3 cell at A, B in {0.5, 1.5, 2.5, 4} and m 0-3,
    # on certify's grid: V~- is V- shifted to 1e-6 (the gate is 1e-3), and
    # V-'s levels are (A + B + 2 + 2n)^2 - (a + b)^2 to 1e-6 relative
    cells = 0
    for A in (0.5, 1.5, 2.5, 4.0):
        for B in (0.5, 1.5, 2.5, 4.0):
            fam = TrigDPT(A, B)
            grid = default_grid(fam, k=4, n_points=None)
            for branch in (2, 3):
                v_minus = solve_bound_states(
                    partner_potentials(superpotential(fam, branch))[0], grid, 4)
                br = fam.branches()[branch - 1]
                exact = np.array([(A + B + 2.0 + 2.0 * n) ** 2 - (br.a + br.b) ** 2
                                  for n in range(4)])
                assert np.max(np.abs(np.array(v_minus.eigenvalues) / exact - 1.0)) <= 1e-6
                for m in range(4):
                    d = seed_polynomial(fam, branch, m)
                    if d.singular_points:
                        continue
                    cells += 1
                    tilde = solve_bound_states(extend(d).V_tilde_minus, grid, 4)
                    assert spectral._spectral_offset(tilde, v_minus)[1] <= 1e-6
    assert cells == 104


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("m", [0, 2, 6, 12])
@pytest.mark.parametrize("ell", [0.0, 0.5, 5.0, 20.0])
def test_cut_radial_interval_keeps_the_levels(ell, m, k):
    # the radial solver interval ends at s sqrt(4 (2k + 2m + ell + 1/2) + 200),
    # s = 1/sqrt(omega), where the k-th level has decayed by e^-50; on the
    # same nodes out to 16 s (1 + sqrt(k + m)), 3-5 times as far, the levels
    # are the same.  V~- where the extension is regular, V- otherwise
    fam = RadialOscillator(2.0, ell)
    cut = default_grid(fam, k=k, m=m, n_points=None)
    h = cut.spacing
    n_long = math.ceil((16.0 * (1.0 + math.sqrt(k + m)) / math.sqrt(fam.omega) - cut.lo) / h)
    long = Grid(cut.lo, cut.lo + n_long * h, n_long - 1)
    for branch in (1, 2, 3, 4):
        d = seed_polynomial(fam, branch, m)
        V = (partner_potentials(superpotential(fam, branch))[0] if d.singular_points
             else extend(d).V_tilde_minus)
        rep = solve_bound_states(V, cut, k)
        assert all(rep.boundary_decay_ok)
        levels = np.array(rep.eigenvalues)
        reference = np.array(solve_bound_states(V, long, k).eigenvalues)
        assert np.max(np.abs(levels - reference) / np.maximum(1.0, np.abs(reference))) <= 1e-11


class TestSolver:
    def test_harmonic_oscillator_line(self):
        rep = solve_bound_states(_harmonic_line(), Grid(-12.0, 12.0, 3000), k=5)
        for n, E in enumerate(rep.eigenvalues):
            assert E == pytest.approx(2 * n + 1, abs=1e-7)
        assert all(rep.boundary_decay_ok)
        assert all(c < 1e-3 for c in rep.grid_convergence)

    def test_ro_partner_ladder(self):
        fam = RadialOscillator(2.0, 1.0)
        vminus, _ = partner_potentials(superpotential(fam, 1))
        rep = solve_bound_states(vminus, default_grid(fam, k=5), k=5)
        for n, E in enumerate(rep.eigenvalues):
            assert E == pytest.approx(2 * n * fam.omega, abs=1e-5)

    def test_dpt_partner_ladder(self):
        fam = TrigDPT(1.0, 2.0)
        A, B = fam.A, fam.B
        vminus, _ = partner_potentials(superpotential(fam, 1))
        rep = solve_bound_states(vminus, default_grid(fam, k=4), k=4)
        for n, E in enumerate(rep.eigenvalues):
            want = (A + B + 2 * (n + 1)) ** 2 - (A + B) ** 2
            assert E == pytest.approx(want, abs=1e-4)

    def test_extrapolation_beats_raw_grid(self):
        fam = RadialOscillator(1.0, 1.0)
        vminus, _ = partner_potentials(superpotential(fam, 1))
        grid = default_grid(fam, k=2, n_points=2000)
        rep = solve_bound_states(vminus, grid, k=2)
        assert rep.eigenvalues[1] == pytest.approx(2.0, abs=1e-6)

    def test_singular_potential_reports_node(self):
        bad = Function1D(
            f=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
            df=None,
            domain=(0.0, 1.0),
        )
        grid = Grid(0.0, 1.0, 100)
        with pytest.raises(SingularPotentialError) as exc:
            solve_bound_states(bad, grid, k=1)
        assert exc.value.node == pytest.approx(grid.nodes[0])

    def test_k_validation(self):
        for k in (0, -1, 101, 10**6):
            with pytest.raises(ConfigurationError):
                solve_bound_states(_const_fn(0.0), Grid(0.0, 1.0, 100), k=k)

    # the setups of the solver tests above
    @pytest.mark.parametrize("setup", [
        lambda: (_harmonic_line(), Grid(-12.0, 12.0, 3000), 5),
        lambda: (_partner_vminus(RadialOscillator(2.0, 1.0)),
                 default_grid(RadialOscillator(2.0, 1.0), k=5), 5),
        lambda: (_partner_vminus(TrigDPT(1.0, 2.0)), default_grid(TrigDPT(1.0, 2.0), k=4), 4),
        lambda: (_partner_vminus(RadialOscillator(1.0, 1.0)),
                 default_grid(RadialOscillator(1.0, 1.0), k=2, n_points=2000), 2),
        # every level of the grid: the seed grid must still hold k levels
        lambda: (_const_fn(0.0), Grid(0.0, 1.0, 100), 100),
        # the seed grid is the coarse grid, so the fine grid starts at the
        # coarse eigenvalues, not at the h^2 prediction
        lambda: (_partner_vminus(RadialOscillator(2.0, 1.0)),
                 default_grid(RadialOscillator(2.0, 1.0), k=4, n_points=256), 4),
    ])
    def test_boundary_decay_matches_bisection_vectors(self, setup):
        V, grid, k = setup()
        rep = solve_bound_states(V, grid, k)
        expected = _bisection_report(V, grid, k)
        assert rep.boundary_decay_ok == expected.boundary_decay_ok
        # The diagonal 2/h^2 + V rounds V to about eps/h^2, so two solvers of
        # one matrix differ by about eps ||T||: 1.6e-9 relative at 8000 points
        # on the DPT interval, and without bound relative to a zero mode.  The
        # gate is the RQI stopping tolerance on the fine grid.
        fine = grid.refined()
        norm_t = 4.0 / fine.spacing**2 + np.max(np.abs(V.f(fine.nodes)))
        deviation = np.abs(np.array(rep.eigenvalues) - expected.eigenvalues)
        assert np.max(deviation) <= 8.0 * np.finfo(float).eps * norm_t

    def test_bisection_runs_only_on_the_seed_grid(self, monkeypatch):
        sizes, tolerances = [], []
        real_bisection = spectral._bisection

        def counting_bisection(diag, off, k, abstol=0.0):
            sizes.append(diag.size)
            tolerances.append(abstol)
            return real_bisection(diag, off, k, abstol)

        monkeypatch.setattr(spectral, "_bisection", counting_bisection)
        for V, grid, n in _certify_solves():
            sizes.clear()
            tolerances.clear()
            solve_bound_states(V, grid, 4)
            # one bisection per solve, on the seed grid only
            assert sizes == [max(256, n // 8)]
            # and only there loose, to 1e-9 of ||T||
            seed = Grid(grid.lo, grid.hi, sizes[0])
            h2 = seed.spacing**2
            norm_t = 4.0 / h2 + np.max(np.abs(V.f(seed.nodes)))
            assert tolerances == [pytest.approx(1e-9 * norm_t, rel=1e-12)]
        # a grid that falls back bisects to full precision (abstol 0), as in
        # test_bad_start_vector_falls_back_to_bisection
        fam = TrigDPT(1.5, 1.5)
        grid = default_grid(fam, k=4, n_points=3000)
        monkeypatch.setattr(spectral, "_start_vectors",
                            lambda vecs, src, dst: (np.ones(dst.n_points) for _ in vecs.T))
        sizes.clear()
        tolerances.clear()
        solve_bound_states(_partner_vminus(fam), grid, 4)
        assert sizes == [375, 3000, 6001]
        assert tolerances[0] > 0.0
        assert tolerances[1:] == [0.0, 0.0]

    def test_work_per_solve(self, monkeypatch):
        # started from the grid below, most levels need one or two linear
        # solves (about 13 per solve of 8 levels), and each grid one count
        calls = {"dgtsv": 0, "count": 0}
        real_dgtsv, real_count = spectral._lapack().dgtsv, spectral._eigenvalue_count

        def counting_dgtsv(*args, **kwargs):
            calls["dgtsv"] += 1
            return real_dgtsv(*args, **kwargs)

        def counting_count(*args):
            calls["count"] += 1
            return real_count(*args)

        monkeypatch.setattr(spectral._lapack(), "dgtsv", counting_dgtsv)
        monkeypatch.setattr(spectral, "_eigenvalue_count", counting_count)
        per_solve = []
        for V, grid, _ in _certify_solves():
            before = dict(calls)
            solve_bound_states(V, grid, 4)
            per_solve.append({key: calls[key] - before[key] for key in calls})
        assert len(per_solve) == 30
        assert np.mean([c["dgtsv"] for c in per_solve]) <= 15.0
        assert [c["count"] for c in per_solve] == [2] * 30


def _certify_solves():
    """(V, grid, n) of 30 solves: V- and V~- of five regular broken-SUSY
    certify cells on the certify grids of 1000, 3000 and 8000 points."""
    cells = [
        (RadialOscillator(2.0, 1.0), 2, 1),
        (RadialOscillator(0.7, 0.3), 3, 2),
        (RadialOscillator(0.7, 2.5), 2, 8),
        (TrigDPT(1.5, 3.0), 2, 1),
        (TrigDPT(2.5, 0.7), 3, 2),
    ]
    for fam, branch, m in cells:
        d = seed_polynomial(fam, branch, m)
        assert not d.singular_points
        v_minus, _ = partner_potentials(superpotential(fam, branch))
        potentials = (extend(d).V_tilde_minus, v_minus)
        for n in (1000, 3000, 8000):
            grid = default_grid(fam, k=4, m=m, n_points=n)
            for V in potentials:
                yield V, grid, n


# RO (omega, ell) and DPT (A, B) cells of the fine-grid checks; A = B is a
# symmetric well, whose odd levels a start vector without odd part misses
_FINE_GRID_CASES = [
    RadialOscillator(2.0, 1.0),
    RadialOscillator(0.6, 0.2),
    TrigDPT(1.5, 1.5),
    TrigDPT(2.5, 0.7),
]


class TestFineGridRayleighQuotient:
    def _fine_problem(self, fam, k=4, n_points=None):
        """The fine Hamiltonian for V- of branch 1 on the certify grid (the
        family's default, or n_points nodes), the coarse eigenvalues as
        guesses, and a function of a level slice giving their start vectors,
        the coarse eigenvectors interpolated."""
        V = _partner_vminus(fam)
        grid = default_grid(fam, k=k, n_points=n_points)
        fine = grid.refined()
        coarse, vecs = _stebz(V, grid, k)

        def starts(levels=slice(None)):
            return spectral._start_vectors(vecs[:, levels], grid, fine)

        return V, grid, *_tridiagonal(V, fine), V.f(fine.nodes), coarse, starts

    @staticmethod
    def _orthogonality_and_bound(diag, off, vals, vecs):
        """max |V^T V - I| of four RQI vectors, and twice the largest
        r_j / gap_j, the Davis-Kahan sin theta bound on it."""
        tx = diag[:, None] * vecs
        tx[:-1] += off[:, None] * vecs[1:]
        tx[1:] += off[:, None] * vecs[:-1]
        residuals = np.linalg.norm(tx - vecs * vals, axis=0)
        m, ref, *_ = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 5, 1e-300, "E")
        assert m == 5
        gaps = [np.min(np.abs(np.delete(ref[:5], j) - ref[j])) for j in range(4)]
        return np.max(np.abs(vecs.T @ vecs - np.eye(4))), 2.0 * np.max(residuals / gaps)

    @pytest.mark.parametrize("fam", _FINE_GRID_CASES, ids=repr)
    def test_eigenvalues_match_tight_bisection(self, fam):
        _, _, diag, off, v, coarse, starts = self._fine_problem(fam)
        vals, vecs = spectral._certified_rqi(diag, off, v, coarse, starts())
        m, ref, *_ = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 4, 1e-300, "E")
        assert m == 4
        norm_t = 4.0 * abs(off[0]) + np.max(np.abs(v))
        assert np.max(np.abs(vals - ref[:4])) <= 8.0 * np.finfo(float).eps * norm_t
        # on the default grid of DPT (2.5, 0.7) a fixed 1e-10 fails, as in
        # test_orthogonality_within_the_davis_kahan_bound
        orthogonality, bound = self._orthogonality_and_bound(diag, off, vals, vecs)
        assert orthogonality <= bound

    @pytest.mark.parametrize("n", [1000, 3000, 9000])
    @pytest.mark.parametrize("fam", _FINE_GRID_CASES, ids=repr)
    def test_orthogonality_within_the_davis_kahan_bound(self, fam, n):
        # RQI vectors are orthogonal only as far as r_j / gap_j allows (the
        # Davis-Kahan sin theta theorem): a fixed 1e-10 fails at n = 3000
        # for RO (2, 1), 2.3e-10, and at n = 1000 for DPT (2.5, 0.7), 3.0e-10
        _, _, diag, off, v, coarse, starts = self._fine_problem(fam, n_points=n)
        vals, vecs = spectral._certified_rqi(diag, off, v, coarse, starts())
        orthogonality, bound = self._orthogonality_and_bound(diag, off, vals, vecs)
        assert orthogonality <= bound

    @pytest.mark.parametrize("fam", _FINE_GRID_CASES, ids=repr)
    def test_decay_flags_without_vectors(self, fam):
        _, _, diag, off, v, coarse, starts = self._fine_problem(fam)
        vals, vecs = spectral._certified_rqi(diag, off, v, coarse, starts())
        flags = spectral._certified_rqi(diag, off, v, coarse, starts(), vectors=False)
        assert np.array_equal(flags[0], vals)
        assert flags[1] == tuple(
            bool(abs(vec[-1]) <= 1e-8 * np.max(np.abs(vec))) for vec in vecs.T
        )

    def test_certificate_refuses_levels_above_the_lowest(self):
        # shifts at levels 2-5 converge to disjoint intervals that miss level 1
        _, _, diag, off, v, coarse, starts = self._fine_problem(RadialOscillator(2.0, 1.0), k=5)
        assert spectral._certified_rqi(diag, off, v, coarse[:4], starts(slice(4))) is not None
        assert spectral._certified_rqi(diag, off, v, coarse[1:], starts(slice(1, None))) is None

    def test_residual_below_rounding_still_certifies(self, caplog):
        # the coarse levels of this cell reach residuals of a few 1e-15,
        # below the rounding of the Sturm count at lambda_4 + r_4
        fam = RadialOscillator(1.0, 1.0)
        V = extend(seed_polynomial(fam, 2, 1)).V_tilde_minus
        spectral._lapack()  # its one record, the path it loaded, is not a fallback
        caplog.set_level(logging.DEBUG, logger="isoshift")
        solve_bound_states(V, default_grid(fam, k=4, m=1, n_points=200), 4)
        assert not caplog.records

    def test_bad_start_vector_falls_back_to_bisection(self, monkeypatch, caplog):
        V, grid, diag, off, v, coarse, starts = self._fine_problem(TrigDPT(1.5, 1.5))
        expected = _bisection_report(V, grid, 4)
        # a constant vector has no odd component in the symmetric well
        monkeypatch.setattr(spectral, "_start_vectors",
                            lambda vecs, src, dst: (np.ones(dst.n_points) for _ in vecs.T))
        assert spectral._certified_rqi(diag, off, v, coarse, starts()) is None
        handlers = logging.getLogger("isoshift").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
        spectral._lapack()
        caplog.set_level(logging.DEBUG, logger="isoshift")
        assert solve_bound_states(V, grid, 4) == expected
        # one record per grid that fell back: the coarse and the fine one
        records = [(r.name, r.levelno, r.args) for r in caplog.records]
        assert records == [("isoshift.spectral", logging.DEBUG, (grid.n_points, 4)),
                           ("isoshift.spectral", logging.DEBUG, (grid.refined().n_points, 4))]


# the solve of the footprint checks: V~- of RO omega = 2, ell = 1, branch 2,
# m = 1, k = 4 on 3000 points, as in perfbench's certify_ro stream
_FOOTPRINT_SOLVE = (
    "from isoshift.catalog import RadialOscillator\n"
    "from isoshift.deform import extend, seed_polynomial\n"
    "from isoshift.spectral import default_grid, solve_bound_states\n"
    "fam = RadialOscillator(2.0, 1.0)\n"
    "V = extend(seed_polynomial(fam, 2, 1)).V_tilde_minus\n"
    "grid = default_grid(fam, k=4, m=1, n_points=3000)\n"
    "solve = lambda: solve_bound_states(V, grid, 4)\n"
)


def _fresh_interpreter(probe):
    """stdout of `probe` run in a fresh interpreter on this tree's isoshift."""
    src = Path(isoshift.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                          capture_output=True, text=True, timeout=120).stdout


class TestFootprint:
    def test_solve_peak_below_one_megabyte(self):
        # per-step temporaries and a (2n+1, k) block of fine-grid vectors,
        # kept only for their decay flags, took the peak to 1.11 MB
        scope = {}
        exec(_FOOTPRINT_SOLVE, scope)
        scope["solve"]()
        tracemalloc.start()
        try:
            scope["solve"]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap trimming")
    def test_repeated_solves_fault_in_no_pages(self):
        # glibc returns the free top of its heap to the OS above a threshold
        # that freed mmapped blocks raise; a solve whose temporaries exceed
        # it faults them back in, about 190 pages each time.  The probe runs
        # in a fresh interpreter: this module's scipy import raises the
        # threshold and would hide the faults.
        probe = _FOOTPRINT_SOLVE + (
            "import resource\n"
            "solve()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    solve()\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)\n"
        )
        assert float(_fresh_interpreter(probe)) < 1.0


def _random_tridiagonal(seed, n=300):
    """A symmetric tridiagonal (diag, off) with a spread spectrum, and a rhs."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * 4.0 + np.arange(n) / 10.0, rng.normal(size=n - 1), rng.normal(size=n)


def _bitwise_equal(a, b):
    """Equal outputs of two LAPACK calls: every array to the bit, every scalar by ==."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


class TestLapackLoader:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_dgtsv_matches_scipy_linalg(self, seed, overwrite):
        diag, off, b = _random_tridiagonal(seed)
        flags = dict.fromkeys(("overwrite_dl", "overwrite_d", "overwrite_du", "overwrite_b"),
                              overwrite)
        inputs = [[off.copy(), diag.copy(), off.copy(), b.copy()] for _ in range(2)]
        ours = spectral._lapack().dgtsv(*inputs[0], **flags)
        theirs = lapack.dgtsv(*inputs[1], **flags)
        assert all(map(_bitwise_equal, ours, theirs))
        # the overwritten inputs, too, hold the same bits
        assert all(map(_bitwise_equal, *inputs))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dstebz_and_dstein_match_scipy_linalg(self, seed):
        diag, off, _ = _random_tridiagonal(seed)
        ours, theirs = spectral._lapack(), lapack
        # range "I" (2): levels 1-7 by index; "V" (1): those in (-2, 5]
        for args in [(2, 0.0, 0.0, 1, 7, 0.0, "B"), (1, -2.0, 5.0, 1, 1, 1e-12, "E")]:
            a = ours.dstebz(diag, off, *args)
            b = theirs.dstebz(diag, off, *args)
            assert a[0] > 0 and all(map(_bitwise_equal, a, b))
            m, w, iblock, isplit, _ = a
            vectors = [lib.dstein(diag, off, w[:m], iblock, isplit) for lib in (ours, theirs)]
            assert all(map(_bitwise_equal, *vectors))

    def test_forced_fallback_solves_bitwise_alike(self, monkeypatch, caplog):
        fam = RadialOscillator(2.0, 1.0)
        V, grid = _partner_vminus(fam), default_grid(fam, k=4)
        expected = solve_bound_states(V, grid, 4)

        def missing():
            raise ImportError("no _flapack here")

        monkeypatch.setattr(spectral, "_flapack_path", missing)
        spectral._lapack.cache_clear()
        try:
            caplog.set_level(logging.DEBUG, logger="isoshift")
            report = solve_bound_states(V, grid, 4)
            assert spectral._lapack() is lapack
        finally:
            spectral._lapack.cache_clear()
        assert repr(report) == repr(expected)
        records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert records == [("isoshift.spectral", logging.DEBUG,
                            "LAPACK from scipy.linalg.lapack: no _flapack here")]

    def test_scipy_linalg_imports_after_a_solve(self):
        # a fresh interpreter: the solve loads _flapack before any scipy
        # module, and scipy.linalg, imported later, still works
        probe = _FOOTPRINT_SOLVE + (
            "import sys\n"
            "import numpy as np\n"
            "from isoshift import spectral\n"
            "solve()\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "ours = spectral._lapack()\n"
            "rng = np.random.default_rng(7)\n"
            "d, e, b = rng.normal(size=200) + 4.0, rng.normal(size=199), rng.normal(size=200)\n"
            "x = ours.dgtsv(e, d, e, b)[3]\n"
            "from scipy.linalg import lapack\n"
            "y = lapack.dgtsv(e, d, e, b)[3]\n"
            "print(ours.__name__, x.tobytes() == y.tobytes())\n"
        )
        assert _fresh_interpreter(probe).split() == ["scipy.linalg._flapack", "True"]


class TestIsospectrality:
    def test_identical_potentials(self):
        fam = RadialOscillator(1.0, 1.0)
        vminus, _ = partner_potentials(superpotential(fam, 1))
        grid = default_grid(fam, k=4, n_points=2000)
        shift, dev = isospectrality_report(vminus, vminus, grid, k=4)
        assert shift == 0.0
        assert dev == 0.0

    def test_constant_offset(self):
        fam = RadialOscillator(1.0, 1.0)
        vminus, _ = partner_potentials(superpotential(fam, 1))
        c = 3.7
        shifted = Function1D(f=lambda r: vminus.f(r) + c, df=None, domain=vminus.domain)
        grid = default_grid(fam, k=4, n_points=2000)
        shift, dev = isospectrality_report(shifted, vminus, grid, k=4)
        assert shift == pytest.approx(c, abs=1e-10)
        assert dev <= 1e-10


class TestResiduals:
    def test_classical_states_including_zero_mode(self):
        fam = RadialOscillator(2.0, 1.0)
        vminus, _ = partner_potentials(superpotential(fam, 1))
        samples = np.linspace(0.2, 6, 60)
        for n in range(4):
            psi = classical_ro_eigenfunction(fam, n)
            E = 2.0 * n * fam.omega
            assert schrodinger_residual(psi, E, vminus, samples) <= 1e-8

    def test_constant_state_flat_potential(self):
        E = 2.5
        psi = _const_fn(1.0)
        V = _const_fn(E)
        assert schrodinger_residual(psi, E, V, np.linspace(0.1, 0.9, 9)) <= 1e-15

    def test_qhj_classical_ground_state(self):
        fam = RadialOscillator(2.0, 1.0)
        psi = classical_ro_eigenfunction(fam, 0)
        E = fam.omega * (fam.ell + 1.5)
        samples = np.linspace(0.2, 6, 60)
        assert qhj_residual(psi, E, potential(fam), samples) <= 1e-10

    def test_qhj_skips_wavefunction_nodes(self):
        fam = RadialOscillator(2.0, 1.0)
        vminus, _ = partner_potentials(superpotential(fam, 1))
        psi = classical_ro_eigenfunction(fam, 2)  # two interior nodes
        E = 4.0 * fam.omega
        samples = np.linspace(0.2, 6, 200)
        assert qhj_residual(psi, E, vminus, samples) <= 1e-6


    @pytest.mark.parametrize("residual", [schrodinger_residual, qhj_residual])
    def test_empty_samples_rejected(self, residual):
        psi = classical_ro_eigenfunction(RadialOscillator(2.0, 1.0), 0)
        for samples in ([], np.empty((0, 3))):
            with pytest.raises(ConfigurationError):
                residual(psi, 1.0, _const_fn(0.0), samples)

    def test_schrodinger_nothing_finite_is_not_a_pass(self):
        # a residual that is NaN at every sample must not read as 0.0, a pass
        samples = np.linspace(0.1, 0.9, 9)
        nan = _const_fn(math.nan)
        for psi, V in ((nan, _const_fn(1.0)), (_const_fn(1.0), nan)):
            with pytest.raises(SingularPotentialError):
                schrodinger_residual(psi, 1.0, V, samples)

    @pytest.mark.parametrize("residual", [schrodinger_residual, qhj_residual])
    def test_missing_df_is_a_configuration_error(self, residual):
        psi = Function1D(f=_const_fn(1.0).f, df=None, domain=(0.0, 1.0))
        with pytest.raises(ConfigurationError, match="no df"):
            residual(psi, 1.0, _const_fn(1.0), np.linspace(0.1, 0.9, 9))

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_qhj_without_usable_samples_raises(self, value):
        # psi zero or NaN everywhere leaves Q = -psi'/psi undefined at every
        # sample
        with pytest.raises(SingularPotentialError):
            qhj_residual(_const_fn(value), 1.0, _const_fn(1.0), np.linspace(0.1, 0.9, 9))

    def test_qhj_skips_non_finite_psi(self):
        fam = RadialOscillator(2.0, 1.0)
        psi = classical_ro_eigenfunction(fam, 0)
        E = fam.omega * (fam.ell + 1.5)
        samples = np.linspace(0.2, 6, 60)
        holed = Function1D(
            f=lambda x: np.where(np.asarray(x) < 1.0, math.nan, psi.f(x)),
            df=psi.df, d2f=psi.d2f, domain=psi.domain,
        )
        assert qhj_residual(holed, E, potential(fam), samples) <= 1e-10

    @pytest.mark.parametrize("series,branch", [("L1", 2), ("L2", 3), ("L3", 1)])
    def test_blocked_residual_equals_one_pass(self, series, branch):
        # the residual runs over blocks of polyengine._BLOCK samples; the
        # same formula on whole rows must give the same float exactly
        fam, n, m = RadialOscillator(1.3, 1.2), 9, 2
        V = extend(seed_polynomial(fam, branch, m)).V_tilde_minus
        spec = EOPSpec(series, n, m, fam)
        psi, E = eigenfunction_closed_form(spec), eigenvalue(spec)
        x = np.linspace(0.05, 16.0 / math.sqrt(fam.omega), 100_000)
        p, _, d2p = psi.jet(x, 2)
        res = -d2p + (V.f(x) - E) * p
        finite = np.isfinite(res)
        scale = max(abs(E), 1.0) * np.max(np.abs(p[finite])) + 1e-300
        want = float(np.max(np.abs(res[finite])) / scale)
        assert schrodinger_residual(psi, E, V, x) == want
        assert want <= 1e-6

    def test_residual_peak_below_four_rows(self):
        # psi, psi'' and V on full-length rows would take 18-21 MB
        fam = RadialOscillator(1.3, 1.2)
        x = np.linspace(0.05, 14.0, 100_000)
        for series, branch in (("L1", 2), ("L3", 1)):
            V = extend(seed_polynomial(fam, branch, 3)).V_tilde_minus
            spec = EOPSpec(series, 12, 3, fam)
            psi, E = eigenfunction_closed_form(spec), eigenvalue(spec)
            schrodinger_residual(psi, E, V, x)
            tracemalloc.start()
            try:
                schrodinger_residual(psi, E, V, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * x.nbytes

    @pytest.mark.parametrize("series,branch,n,m", [("L1", 2, 3, 2), ("L3", 1, 2, 2)])
    def test_jet_residuals_match_finite_difference_fallback(self, series, branch, n, m):
        fam = RadialOscillator(2.0, 1.0)
        V = extend(seed_polynomial(fam, branch, m)).V_tilde_minus
        psi = eigenfunction_closed_form(EOPSpec(series, n, m, fam))
        assert psi.jet is not None
        # without a jet the residuals read f, df and d2f; without d2f too,
        # they difference psi' numerically
        with_d2 = Function1D(f=psi.f, df=psi.df, d2f=psi.d2f, domain=psi.domain)
        fd = Function1D(f=psi.f, df=psi.df, domain=psi.domain)
        samples = np.linspace(0.2, 5, 300)
        E = eigenvalue(EOPSpec(series, n, m, fam))
        for energy in (E, E + 0.5):
            for residual in (schrodinger_residual, qhj_residual):
                exact = residual(psi, energy, V, samples)
                for jet_free in (with_d2, fd):
                    assert abs(exact - residual(jet_free, energy, V, samples)) <= 1e-6
        # the rows of a jet-free function: d2f, or 5-point differences of df
        h = 1e-4 * np.maximum(1.0, np.abs(samples))
        d = psi.df
        five_point = (-d(samples + 2 * h) + 8.0 * d(samples + h) - 8.0 * d(samples - h)
                      + d(samples - 2 * h)) / (12.0 * h)
        for fn, d2 in ((with_d2, psi.d2f(samples)), (fd, five_point)):
            want = (psi.f(samples), psi.df(samples), d2)
            for order in (0, 1, 2):
                rows = _rows(fn, samples, order)
                assert len(rows) == order + 1
                assert all(np.array_equal(g, w) for g, w in zip(rows, want))
        assert schrodinger_residual(psi, E, V, samples) <= 1e-10
        assert schrodinger_residual(psi, E + 0.5, V, samples) >= 1e-2


class TestRegularity:
    def test_regular_extension(self):
        rep = classify_regularity(RadialOscillator(2.0, 1.0), 2, 2)
        assert rep.is_regular
        assert rep.points == ()
        assert rep.finding is None

    def test_branch1_fractional_ell_pole_is_predicted(self):
        rep = classify_regularity(RadialOscillator(1.0, 0.2), 1, 1)
        assert rep.classification == "singular"
        assert rep.points[0] == pytest.approx(math.sqrt(1.4), abs=1e-8)
        # the seed L_1^(-1.7)(-y) has its one zero at y = 0.7, as the
        # closed-form zero count predicts: no finding
        assert rep.klh_prediction == "singular"
        assert rep.finding is None

    def test_disagreement_is_a_finding(self, monkeypatch):
        fam = RadialOscillator(1.0, 0.2)
        monkeypatch.setattr(RadialOscillator, "seed_zero_prediction",
                            lambda self, spec, s: "regular")
        rep = classify_regularity(fam, 1, 1)
        # scan and closed-form criterion disagree: a finding, never an exception
        assert rep.classification == "singular"
        assert rep.finding is not None

    def test_m0_always_regular(self):
        for k in (1, 2, 3, 4):
            rep = classify_regularity(RadialOscillator(1.0, 1.0), k, 0)
            assert rep.is_regular

    def test_dpt_has_no_klh_prediction(self):
        rep = classify_regularity(TrigDPT(1.0, 2.0), 2, 1)
        assert rep.klh_prediction is None

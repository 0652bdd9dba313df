"""Bound-state solver, residual evaluators, and the regularity classifier."""

import logging
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lapack

from isoshift.catalog import (
    Function1D,
    RadialOscillator,
    TrigDPT,
    partner_potentials,
    potential,
    superpotential,
)
from isoshift.deform import extend, seed_polynomial
from isoshift.eop import EOPSpec, classical_ro_eigenfunction, eigenfunction_closed_form, eigenvalue
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
        sizes = []
        real_bisection = spectral._bisection

        def counting_bisection(diag, off, k, eigvals_only):
            sizes.append(diag.size)
            return real_bisection(diag, off, k, eigvals_only)

        monkeypatch.setattr(spectral, "_bisection", counting_bisection)
        # regular broken-SUSY certify cells: V- and V~- on the certify grid
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
                    sizes.clear()
                    solve_bound_states(V, grid, 4)
                    # one bisection per solve, on the seed grid only
                    assert sizes == [max(256, n // 8)]


# RO (omega, ell) and DPT (A, B) cells of the fine-grid checks; A = B is a
# symmetric well, whose odd levels a start vector without odd part misses
_FINE_GRID_CASES = [
    RadialOscillator(2.0, 1.0),
    RadialOscillator(0.6, 0.2),
    TrigDPT(1.5, 1.5),
    TrigDPT(2.5, 0.7),
]


class TestFineGridRayleighQuotient:
    def _fine_problem(self, fam, k=4):
        """The certify grid's fine Hamiltonian for V- of branch 1, and the coarse guesses."""
        V = _partner_vminus(fam)
        grid = default_grid(fam, k=k, n_points=3000)
        fine = grid.refined()
        coarse = _stebz(V, grid, k, eigvals_only=True)
        return V, grid, *_tridiagonal(V, fine), V.f(fine.nodes), coarse

    @pytest.mark.parametrize("fam", _FINE_GRID_CASES, ids=repr)
    def test_eigenvalues_match_tight_bisection(self, fam):
        _, _, diag, off, v, coarse = self._fine_problem(fam)
        vals, vecs = spectral._certified_rqi(diag, off, v, coarse)
        m, ref, *_ = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 4, 1e-300, "E")
        assert m == 4
        norm_t = 4.0 * abs(off[0]) + np.max(np.abs(v))
        assert np.max(np.abs(vals - ref[:4])) <= 8.0 * np.finfo(float).eps * norm_t
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_certificate_refuses_levels_above_the_lowest(self):
        # shifts at levels 2-5 converge to disjoint intervals that miss level 1
        _, _, diag, off, v, coarse = self._fine_problem(RadialOscillator(2.0, 1.0), k=5)
        assert spectral._certified_rqi(diag, off, v, coarse[:4]) is not None
        assert spectral._certified_rqi(diag, off, v, coarse[1:]) is None

    def test_bad_start_vector_falls_back_to_bisection(self, monkeypatch, caplog):
        V, grid, diag, off, v, coarse = self._fine_problem(TrigDPT(1.5, 1.5))
        expected = _bisection_report(V, grid, 4)
        # a constant vector has no odd component in the symmetric well
        monkeypatch.setattr(spectral, "_start_vector", lambda n, j: np.ones(n))
        assert spectral._certified_rqi(diag, off, v, coarse) is None
        handlers = logging.getLogger("isoshift").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
        caplog.set_level(logging.DEBUG, logger="isoshift")
        assert solve_bound_states(V, grid, 4) == expected
        # one record per grid that fell back: the coarse and the fine one
        records = [(r.name, r.levelno, r.args) for r in caplog.records]
        assert records == [("isoshift.spectral", logging.DEBUG, (3000, 4)),
                           ("isoshift.spectral", logging.DEBUG, (6001, 4))]


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


    @pytest.mark.parametrize("series,branch,n,m", [("L1", 2, 3, 2), ("L3", 1, 2, 2)])
    def test_jet_residuals_match_finite_difference_fallback(self, series, branch, n, m):
        fam = RadialOscillator(2.0, 1.0)
        V = extend(seed_polynomial(fam, branch, m)).V_tilde_minus
        psi = eigenfunction_closed_form(EOPSpec(series, n, m, fam))
        assert psi.jet is not None
        # without jet and d2f the residuals difference psi' numerically
        fd = Function1D(f=psi.f, df=psi.df, domain=psi.domain)
        samples = np.linspace(0.2, 5, 300)
        E = eigenvalue(EOPSpec(series, n, m, fam))
        for energy in (E, E + 0.5):
            for residual in (schrodinger_residual, qhj_residual):
                exact = residual(psi, energy, V, samples)
                assert abs(exact - residual(fd, energy, V, samples)) <= 1e-6
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

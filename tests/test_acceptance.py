"""Acceptance gate: fifteen certified properties of the construction.

Each criterion prints a single pass/fail line (routed past pytest's capture)
and is an ordinary test, so the suite both reports and enforces the gate.
"""

import functools
import math

import numpy as np
import pytest

from isoshift.catalog import (
    RadialOscillator,
    TrigDPT,
    get_branch,
    partner_potentials,
    potential,
    si_pair_check,
    superpotential,
)
from isoshift.deform import (
    certification_grid,
    extend,
    extend_general_R,
    seed_polynomial,
    w0_explicit,
    w0_from_ground_state,
    w0_partner_constant,
)
from isoshift.eop import (
    EOPSpec,
    eigenfunction_closed_form,
    eigenvalue,
    eop_eval,
    gram_matrix,
    gram_offdiag_max,
    series_branch,
    zero_census,
)
from isoshift.polyengine import (
    JacobiSpec,
    LaguerreSpec,
    jacobi_deriv,
    jacobi_deriv2,
    jacobi_eval,
    laguerre_deriv,
    laguerre_deriv2,
    laguerre_eval,
)
from isoshift.spectral import (
    classify_regularity,
    default_grid,
    isospectrality_report,
    schrodinger_residual,
    solve_bound_states,
)

RO_SWEEP = [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)]

_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    # pytest captures at the file-descriptor level; route the per-criterion
    # report lines around it so they always reach the terminal
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"criterion {num:02d} {name}: FAIL")
                raise
            _emit(f"criterion {num:02d} {name}: PASS")
        return wrapper
    return deco


def _ro_cells():
    for omega, ell in RO_SWEEP:
        fam = RadialOscillator(omega, ell)
        for k in (1, 2, 3):
            for m in range(5):
                yield fam, k, m


@criterion(1, "partner-shift identity")
def test_partner_shift_identity():
    for fam, k, m in _ro_cells():
        d = seed_polynomial(fam, k, m)
        pair = extend(d)
        grid = certification_grid(fam, 400, exclude=d.singular_points)
        _, vplus = partner_potentials(d.w0)
        dev = np.max(np.abs(pair.V_tilde_plus.f(grid) - vplus.f(grid) - d.R))
        assert dev <= 1e-10 * (1.0 + abs(d.R)) * (1.0 + np.max(np.abs(vplus.f(grid))))
        if k == 2:
            assert d.R == 2.0 * m * fam.omega


@criterion(2, "Riccati residual")
def test_riccati_residual():
    for fam, k, m in _ro_cells():
        d = seed_polynomial(fam, k, m)
        grid = certification_grid(fam, 400, exclude=d.singular_points)
        assert d.riccati_residual(grid) <= 1e-9 * (1.0 + abs(d.R))


@criterion(3, "Quesne m=1 regression")
def test_quesne_m1_regression():
    fam = RadialOscillator(2.0, 1.0)
    w, ell = fam.omega, fam.ell
    pair = extend(seed_polynomial(fam, 2, 1))
    r = certification_grid(fam, 400)
    den = w * r**2 + 2 * ell + 1
    base = 0.25 * w**2 * r**2 + ell * (ell + 1) / r**2 + w * (ell - 0.5)
    want = base + 2 * w + 4 * w / den - 8 * w * (2 * ell + 1) / den**2
    got = pair.V_tilde_minus.f(r)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@criterion(4, "isospectrality of the L1 extensions")
def test_isospectrality():
    fam = RadialOscillator(1.0, 1.0)
    vminus, _ = partner_potentials(superpotential(fam, 2))
    for m in (1, 2, 3):
        pair = extend(seed_polynomial(fam, 2, m))
        grid = default_grid(fam, k=6, m=m, n_points=8000)
        shift, dev = isospectrality_report(solve_bound_states(pair.V_tilde_minus, grid, 6),
                                           solve_bound_states(vminus, grid, 6))
        assert dev <= 1e-4
        assert abs(shift - 2.0 * m * fam.omega) <= 1e-4


@criterion(5, "classical spectrum anchor")
def test_classical_spectra():
    fam = RadialOscillator(1.5, 1.0)
    vminus, _ = partner_potentials(superpotential(fam, 1))
    rep = solve_bound_states(vminus, default_grid(fam, k=6, n_points=8000), 6)
    for n, E in enumerate(rep.eigenvalues):
        assert abs(E - 2.0 * n * fam.omega) <= 1e-4
    dpt = TrigDPT(1.0, 2.0)
    A, B = dpt.A, dpt.B
    vminus, _ = partner_potentials(superpotential(dpt, 1))
    rep = solve_bound_states(vminus, default_grid(dpt, n_points=8000), 6)
    # the (A+B+2n)^2 ladder, entered at n=1 (no zero mode for this branch)
    for i, E in enumerate(rep.eigenvalues):
        want = (A + B + 2.0 * (i + 1)) ** 2 - (A + B) ** 2
        assert abs(E - want) <= 1e-4 * max(1.0, want)


@criterion(6, "closed-form eigenfunction residual")
def test_eigenfunction_residual():
    fam = RadialOscillator(1.0, 1.0)
    checked_solver = False
    for series in ("L1", "L3"):
        for m in range(3):
            d = seed_polynomial(fam, series_branch(series), m)
            if d.singular_points:
                continue
            pair = extend(d)
            samples = np.linspace(0.15, 8.0, 50)
            for n in range(4):
                spec = EOPSpec(series, n, m, fam)
                psi = eigenfunction_closed_form(spec)
                E = eigenvalue(spec)
                assert schrodinger_residual(psi, E, pair.V_tilde_minus, samples) <= 1e-6
            if not checked_solver and series == "L1" and m == 1:
                rep = solve_bound_states(
                    pair.V_tilde_minus, default_grid(fam, k=2, m=m, n_points=6000), 1
                )
                assert abs(rep.eigenvalues[0] - eigenvalue(EOPSpec("L1", 0, 1, fam))) <= 1e-4
                checked_solver = True
    assert checked_solver


@criterion(7, "orthogonality of the exceptional families")
def test_orthogonality():
    fam = RadialOscillator(1.0, 1.0)
    for m in (1, 2):
        G, _ = gram_matrix("L1", m, fam, n_max=8)
        assert gram_offdiag_max(G) <= 1e-8
    G, _ = gram_matrix("L3", 2, RadialOscillator(1.0, 1.0), n_max=4)
    assert gram_offdiag_max(G) <= 1e-8


@criterion(8, "zero census")
def test_zero_census():
    fam = RadialOscillator(1.0, 1.0)
    for m in (0, 1, 2):
        for n in range(6):
            inside, outside = zero_census(EOPSpec("L1", n, m, fam))
            assert inside == n
            assert inside + outside == n + m


@criterion(9, "linking superpotential W0")
def test_w0_certification():
    fam = RadialOscillator(2.0, 1.0)
    for m in range(4):
        W0 = w0_explicit(fam, m)
        c = w0_partner_constant(fam, m)
        d2 = seed_polynomial(fam, 2, m)
        d3 = seed_polynomial(fam, 3, m)
        grid = certification_grid(fam, 400)
        v2 = extend(d2).V_tilde_minus.f(grid)
        v3 = extend(d3).V_tilde_minus.f(grid)
        wv, dw = W0.f(grid), W0.df(grid)
        scale = 1.0 + np.max(np.abs(v2))
        assert np.max(np.abs(wv * wv - dw - (v2 - c))) <= 1e-9 * scale
        assert np.max(np.abs(wv * wv + dw - (v3 - c))) <= 1e-9 * scale
        # W0 = -d/dr log of the extended ground state
        psi0 = eigenfunction_closed_form(EOPSpec("L1", 0, m, fam))
        gs = w0_from_ground_state(psi0)
        assert np.max(np.abs(wv - gs.f(grid))) <= 1e-9 * (1.0 + np.max(np.abs(wv)))
        # xi = W0 - w1 decomposes into the two deformation functions
        w1 = superpotential(fam, 1)
        xi = wv - w1.f(grid)
        assert np.max(np.abs(xi - (d2.phi.f(grid) + d3.chi.f(grid)))) <= 1e-9


@criterion(10, "m=0 reductions")
def test_m0_reductions():
    for omega, ell in RO_SWEEP:
        fam = RadialOscillator(omega, ell)
        for k in (1, 2, 3, 4):
            d = seed_polynomial(fam, k, 0)
            pair = extend(d)
            grid = certification_grid(fam, 400)
            base = d.w0.f(grid) ** 2 - d.w0.df(grid)
            assert np.array_equal(pair.V_tilde_minus.f(grid), base)
    fam = RadialOscillator(1.0, 1.0)
    r = np.linspace(0.2, 5, 40)
    y = 0.5 * fam.omega * r**2
    for n in range(5):
        p = eop_eval(EOPSpec("L1", n, 0, fam), r)
        ref = laguerre_eval(LaguerreSpec(n, fam.ell + 0.5), y)
        ratio = p / ref
        assert np.ptp(ratio) <= 1e-10 * np.max(np.abs(ratio))


@criterion(11, "regularity classifier")
def test_regularity_classifier():
    for omega in (1.0, 2.0):
        rep = classify_regularity(
            seed_polynomial(RadialOscillator(omega, 0.2), series_branch("L3"), 1))
        assert rep.classification == "singular"
        assert abs(rep.points[0] - math.sqrt(1.4 / omega)) <= 1e-8
        # the closed-form zero count predicts this pole
        assert rep.klh_prediction == "singular"
        assert rep.finding is None
    for ell in (0.0, 0.5, 1.0, 3.0):
        for m in range(7):
            rep = classify_regularity(
                seed_polynomial(RadialOscillator(1.0, ell), series_branch("L1"), m))
            assert rep.is_regular
            assert rep.finding is None


@criterion(12, "shape-invariance pairing")
def test_si_pairing():
    fam = RadialOscillator(1.0, 2.0)
    grid = np.linspace(0.1, 10, 60)
    assert si_pair_check(fam, 1, 4, grid) <= 1e-12
    dpt = TrigDPT(1.2, 0.7)
    grid = np.linspace(0.05, math.pi / 2 - 0.05, 60)
    assert si_pair_check(dpt, 1, 4, grid) <= 1e-12
    assert si_pair_check(dpt, 2, 3, grid) <= 1e-12


@criterion(13, "DPT extensions")
def test_dpt_extensions():
    fam = TrigDPT(1.0, 2.0)
    for k in (2, 3):
        branch = get_branch(fam, k)
        nu, mu = branch.a - 0.5, branch.b - 0.5
        for N in (1, 2):
            d = seed_polynomial(fam, k, N)
            assert abs(abs(d.R) - 4.0 * N * abs(N + nu + mu + 1.0)) <= 1e-12
            pair = extend(d)
            grid = certification_grid(fam, 400, exclude=d.singular_points)
            _, vplus = partner_potentials(d.w0)
            dev = np.max(np.abs(pair.V_tilde_plus.f(grid) - vplus.f(grid) - d.R))
            assert dev <= 1e-10 * (1.0 + abs(d.R)) * (1.0 + np.max(np.abs(vplus.f(grid))))
            if not d.singular_points:
                vminus, _ = partner_potentials(d.w0)
                sgrid = default_grid(fam, n_points=8000)
                shift, deviation = isospectrality_report(
                    solve_bound_states(pair.V_tilde_minus, sgrid, 4),
                    solve_bound_states(vminus, sgrid, 4),
                )
                assert deviation <= 1e-4
                assert abs(shift - d.R) <= 1e-4


@criterion(14, "general-R interpolation")
def test_general_R():
    fam = RadialOscillator(1.0, 1.0)
    pair = extend_general_R(fam, 2, 2.0 * fam.omega)
    ref = extend(seed_polynomial(fam, 2, 1))
    r = np.linspace(0.2, 10, 200)
    assert np.max(np.abs(pair.V_tilde_minus.f(r) - ref.V_tilde_minus.f(r))) <= 1e-7
    pair0 = extend_general_R(fam, 2, 0.0)
    _, vplus = partner_potentials(superpotential(fam, 2))
    assert np.max(np.abs(pair0.V_tilde_plus.f(r) - vplus.f(r))) <= 1e-9


@criterion(15, "polynomial engine invariants")
def test_polyengine_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(0, 11))
        alpha = float(rng.uniform(-5, 5))
        x = float(rng.uniform(-20, 20))
        val = laguerre_eval(LaguerreSpec(n, alpha), x)
        dval = laguerre_deriv(LaguerreSpec(n, alpha), x)
        # derivative recurrence
        rhs = val - laguerre_eval(LaguerreSpec(n, alpha + 1.0), x)
        assert abs(dval - rhs) <= 1e-10 * max(1.0, abs(val))
        # Laguerre ODE
        res = (
            x * laguerre_deriv2(LaguerreSpec(n, alpha), x)
            + (alpha + 1 - x) * dval
            + n * val
        )
        assert abs(res) <= 1e-8 * max(1.0, abs(val), abs(x * val))
    for _ in range(500):
        N = int(rng.integers(0, 9))
        nu = float(rng.uniform(-3, 3))
        mu = float(rng.uniform(-3, 3))
        y = float(rng.uniform(-0.99, 0.99))
        spec = JacobiSpec(N, nu, mu)
        u = jacobi_eval(spec, y)
        res = (
            (1 - y * y) * jacobi_deriv2(spec, y)
            + (mu - nu - (nu + mu + 2) * y) * jacobi_deriv(spec, y)
            + N * (N + nu + mu + 1) * u
        )
        assert abs(res) <= 1e-7 * max(1.0, abs(u))

"""Exceptional polynomials, eigenfunctions, weights, and Gram matrices."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoshift import eop
from isoshift import polyengine as pe
from isoshift.catalog import Function1D, RadialOscillator, superpotential
from isoshift.deform import extend, seed_polynomial, w0_explicit
from isoshift.eop import (
    EOPSpec,
    classical_ro_eigenfunction,
    eigenfunction_closed_form,
    eigenvalue,
    eop_eval,
    eop_polynomial_degree,
    gram_matrix,
    gram_offdiag_max,
    intertwine,
    ro_psi_plus,
    series_branch,
    weight_from_superpotential,
    weight_spec,
    zero_census,
)
from isoshift.errors import (
    ConfigurationError,
    DegenerateParameterError,
    IsoshiftError,
    QuadratureError,
    SingularExtensionError,
)
from isoshift.polyengine import LaguerreSpec, laguerre_eval


FAM = RadialOscillator(2.0, 1.0)


def _lag(n, alpha, x):
    return laguerre_eval(LaguerreSpec(n, alpha), x)


class TestEopEval:
    def test_series_branch_map(self):
        assert (series_branch("L1"), series_branch("L2"), series_branch("L3")) == (2, 3, 1)
        with pytest.raises(ConfigurationError):
            series_branch("L4")

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            EOPSpec("L1", -1, 0, FAM)
        with pytest.raises(ConfigurationError):
            EOPSpec("Lx", 0, 0, FAM)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "1"])
    def test_non_integer_indices_rejected(self, bad):
        # a float m would give the seed of degree floor(m) but the energy of m
        with pytest.raises(ConfigurationError):
            EOPSpec("L1", bad, 1, FAM)
        with pytest.raises(ConfigurationError):
            EOPSpec("L1", 2, bad, FAM)
        with pytest.raises(ConfigurationError):
            gram_matrix("L1", 1, FAM, bad)
        assert EOPSpec("L1", np.int64(2), np.int64(1), FAM).n == 2

    def test_l1_handworked_value(self):
        # n=0, m=1, ell=1, omega=2, r=1: y=1, value (5/2 + y) = 7/2
        spec = EOPSpec("L1", 0, 1, FAM)
        assert eop_eval(spec, 1.0) == pytest.approx(3.5, rel=1e-14)

    def test_l1_m0_reduces_to_classical(self):
        r = np.linspace(0.1, 4, 25)
        y = 0.5 * FAM.omega * r**2
        for n in range(5):
            got = eop_eval(EOPSpec("L1", n, 0, FAM), r)
            want = _lag(n, FAM.ell + 0.5, y)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_x1_identity(self):
        # m=1 family: P_n = L_n^(a) + (y + a + 1) L_n^(a+1), a = ell - 1/2
        fam = RadialOscillator(1.0, 2.0)
        a = fam.ell - 0.5
        r = np.linspace(0.1, 5, 30)
        y = 0.5 * fam.omega * r**2
        for n in range(5):
            got = eop_eval(EOPSpec("L1", n, 1, fam), r)
            want = _lag(n, a, y) + (y + a + 1.0) * _lag(n, a + 1.0, y)
            assert np.allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_l2_m0_proportional_to_classical(self):
        r = np.linspace(0.1, 4, 20)
        y = 0.5 * FAM.omega * r**2
        for n in range(1, 4):
            got = eop_eval(EOPSpec("L2", n, 0, FAM), r)
            ref = _lag(n, FAM.ell - 0.5, y)
            ratio = got / ref
            assert np.ptp(ratio) <= 1e-10 * np.max(np.abs(ratio))

    def test_l2_degenerate_parameters(self):
        fam = RadialOscillator(1.0, 1.5)
        with pytest.raises(DegenerateParameterError):
            eop_eval(EOPSpec("L2", 1, 2, fam), 1.0)

    def test_l3_m0_proportional_to_shifted_classical(self):
        r = np.linspace(0.1, 4, 20)
        y = 0.5 * FAM.omega * r**2
        for n in range(4):
            got = eop_eval(EOPSpec("L3", n, 0, FAM), r)
            ref = _lag(n + 1, FAM.ell + 0.5, y)
            ratio = got / ref
            assert np.ptp(ratio) <= 1e-10 * np.max(np.abs(ratio))

    def test_degrees(self):
        assert eop_polynomial_degree(EOPSpec("L1", 3, 2, FAM)) == 5
        assert eop_polynomial_degree(EOPSpec("L2", 3, 2, FAM)) == 5
        assert eop_polynomial_degree(EOPSpec("L3", 3, 2, FAM)) == 6


class TestEigenfunctions:
    def test_eigenvalues(self):
        w, ell = FAM.omega, FAM.ell
        assert eigenvalue(EOPSpec("L1", 2, 1, FAM)) == pytest.approx((4 + 2 + 2 * ell + 1) * w)
        assert eigenvalue(EOPSpec("L2", 2, 1, FAM)) == pytest.approx((4 + 2 + 2 * ell + 3) * w)
        assert eigenvalue(EOPSpec("L3", 2, 1, FAM)) == pytest.approx(2 * (2 + 1 + 1) * w)

    @pytest.mark.parametrize("series,m", [("L1", 1), ("L1", 2), ("L2", 1), ("L3", 2)])
    def test_schrodinger_residual_closed_form(self, series, m):
        d = seed_polynomial(FAM, series_branch(series), m)
        pair = extend(d)
        r = np.linspace(0.15, 6, 120)
        for n in range(3):
            spec = EOPSpec(series, n, m, FAM)
            psi = eigenfunction_closed_form(spec)
            E = eigenvalue(spec)
            p = psi.f(r)
            res = -psi.d2f(r) + (pair.V_tilde_minus.f(r) - E) * p
            assert np.max(np.abs(res)) <= 1e-7 * max(abs(E), 1.0) * np.max(np.abs(p))

    def test_classical_eigenfunction_residual(self):
        w1 = superpotential(FAM, 1)
        r = np.linspace(0.15, 6, 100)
        vminus = w1.f(r) ** 2 - w1.df(r)
        for n in range(4):
            psi = classical_ro_eigenfunction(FAM, n)
            E = 2.0 * n * FAM.omega
            res = -psi.d2f(r) + (vminus - E) * psi.f(r)
            assert np.max(np.abs(res)) <= 1e-9 * max(E, 1.0) * np.max(np.abs(psi.f(r)))

    @pytest.mark.parametrize("series,n,m", [("L1", 2, 1), ("L3", 1, 2)])
    def test_intertwiner_maps_partner_states(self, series, n, m):
        d = seed_polynomial(FAM, series_branch(series), m)
        spec = EOPSpec(series, n, m, FAM)
        mapped = intertwine(d.w_tilde, ro_psi_plus(spec))
        closed = eigenfunction_closed_form(spec)
        r = np.linspace(0.2, 5, 60)
        ratio = mapped.f(r) / closed.f(r)
        assert np.ptp(ratio) <= 1e-9 * np.max(np.abs(ratio))

    @pytest.mark.parametrize("make", [
        lambda: eigenfunction_closed_form(EOPSpec("L1", 5, 2, FAM)),
        lambda: eigenfunction_closed_form(EOPSpec("L2", 3, 1, FAM)),
        lambda: eigenfunction_closed_form(EOPSpec("L3", 4, 3, RadialOscillator(1.5, 2.5))),
        lambda: ro_psi_plus(EOPSpec("L3", 3, 2, FAM)),
        lambda: classical_ro_eigenfunction(FAM, 6),
        lambda: weight_spec("L1", 2, FAM).weight,
        lambda: weight_spec("L3", 2, RadialOscillator(1.0, 1.0)).weight,
    ])
    def test_jet_is_f_df_d2f(self, make):
        psi = make()
        r = np.linspace(0.05, 7, 20_001)
        got = psi.jet(r)
        assert len(got) == 3
        for row, fn in zip(got, (psi.f, psi.df, psi.d2f)):
            assert np.array_equal(row, fn(r))

    @pytest.mark.parametrize("alpha", [0.3, 1.5, 2.5, 4.7])
    def test_l3_S_matches_the_product_rule(self, alpha):
        # the reference: the Leibniz rule through the linear factors' jets
        # (y + alpha, 1, 0) and (y, 1, 0), with W from two full products
        def product_rule(n, y, G, order):
            L = eop._lagjet(n, -alpha, 1, y, order + 1)
            LG = eop._jmul(L[:-1], G[:-1])
            W = eop._jsub(eop._jmul(L[:-1], G[1:]), eop._jmul(L[1:], G[:-1]))
            lin = (1.0, 0.0)[:order]
            left, right = eop._jmul((y + alpha, *lin), LG), eop._jmul((y, *lin), W)
            return tuple(u + v for u, v in zip(left, right))

        y = np.linspace(1e-3, 40.0, 20_001)
        for m in (1, 2, 4):
            G = eop._lagjet(m, alpha, -1, y, 3)
            for n in (0, 1, 5, 12, 15):
                for order in (0, 1, 2):
                    got = eop._l3_S(n, alpha, y, G[:order + 2], order)
                    want = product_rule(n, y, G[:order + 2], order)
                    # the value row is the same arithmetic; the derivative
                    # rows differ by rounding, W' no longer cancelling L_n' G'
                    assert np.array_equal(got[0], want[0])
                    for a, b in zip(got[1:], want[1:]):
                        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    def test_intertwiner_of_a_state_without_df_is_a_configuration_error(self):
        psi = Function1D(f=lambda r: np.exp(-np.asarray(r)), df=None, domain=(0.0, math.inf))
        out = intertwine(superpotential(FAM, 2), psi)
        with pytest.raises(ConfigurationError, match="no df"):
            out.f(np.linspace(0.3, 4, 30))

    def test_intertwiner_annihilates_inverse_profile(self):
        # (-d/dr + w)(exp(int w)) = 0 for any smooth w; use the branch-2 one
        w2 = superpotential(FAM, 2)
        # exp(int w2) = r^ell exp(omega r^2/4)
        ell, w = FAM.ell, FAM.omega
        psi = Function1D(
            f=lambda r: r**ell * np.exp(0.25 * w * r**2),
            df=lambda r: (ell / r + 0.5 * w * r) * r**ell * np.exp(0.25 * w * r**2),
            domain=(0.0, math.inf),
        )
        out = intertwine(w2, psi)
        r = np.linspace(0.3, 4, 30)
        assert np.max(np.abs(out.f(r))) <= 1e-10 * np.max(np.abs(psi.f(r)))


class TestWeights:
    def test_m0_weight_is_classical(self):
        ws = weight_spec("L1", 0, FAM)
        assert ws.is_regular
        r = np.linspace(0.1, 5, 40)
        want = r ** (FAM.ell + 1) * np.exp(-0.25 * FAM.omega * r**2)
        assert np.allclose(ws.weight.f(r), want, rtol=1e-14)

    def test_l3_singular_flag(self):
        ws = weight_spec("L3", 1, RadialOscillator(1.0, 0.2))
        assert not ws.is_regular
        assert ws.singular_points[0] == pytest.approx(math.sqrt(1.4), abs=1e-9)

    def test_l3_regular_case(self):
        ws = weight_spec("L3", 2, RadialOscillator(1.0, 1.0))
        assert ws.is_regular

    @pytest.mark.parametrize("m", [1, 2])
    def test_weight_log_derivative_is_minus_superpotential(self, m):
        # W = exp(-int w~) with w~ = w1 + phi, phi the branch-2 deformation
        w1 = superpotential(FAM, 1)
        phi = seed_polynomial(FAM, 2, m).phi
        W = weight_spec("L1", m, FAM).weight
        r = np.linspace(0.3, 4, 200)
        wt, dwt = w1.f(r) + phi.f(r), w1.df(r) + phi.df(r)
        f, df, d2f = W.jet(r)
        assert np.allclose(df / f, -wt, rtol=1e-10, atol=0.0)
        assert np.allclose(d2f / f, wt * wt - dwt, rtol=1e-10, atol=0.0)

    def test_weight_matches_superpotential_integral(self):
        m = 1
        d = seed_polynomial(FAM, 2, m)
        w1 = superpotential(FAM, 1)
        wtot = Function1D(
            f=lambda r: w1.f(r) + d.phi.f(r),
            df=lambda r: w1.df(r) + d.phi.df(r),
            domain=(0.0, 20.0),
        )
        ref = weight_from_superpotential(wtot, anchor=1.0)
        ws = weight_spec("L1", m, FAM)
        r = np.linspace(0.3, 4, 15)
        ratio = ws.weight.f(r) / ref.f(r)
        assert np.ptp(ratio) <= 1e-8 * np.max(np.abs(ratio))

    def test_weight_integrates_with_the_module_quad(self, monkeypatch):
        # eop.quad loads on first use and stays the integrator the weight calls
        real_quad = eop.quad
        calls = []

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(eop, "quad", counting_quad)
        # w1 = r - 2/r, so the weight from anchor 1 at r = 2 is 4 exp(-3/2)
        w = weight_from_superpotential(superpotential(FAM, 1), anchor=1.0)
        assert w.f(2.0) == pytest.approx(4.0 * math.exp(-1.5), rel=1e-12)
        assert calls == [(1.0, 2.0)]


class TestGram:
    def test_orthogonality_l1(self):
        for m in (1, 2):
            G = gram_matrix("L1", m, FAM, n_max=4)
            assert gram_offdiag_max(G) <= 1e-10
            assert np.all(np.diag(G) > 0.0)

    def test_orthogonality_l3(self):
        G = gram_matrix("L3", 2, RadialOscillator(1.0, 1.0), n_max=3)
        assert gram_offdiag_max(G) <= 1e-10
        assert np.all(np.diag(G) > 0.0)

    def test_m0_diagonal_gamma_norms(self):
        # classical norm: (2/w)^(l+1) (2w)^(-1/2) Gamma(n+l+3/2)/n!
        G = gram_matrix("L1", 0, FAM, n_max=3)
        w, ell = FAM.omega, FAM.ell
        pref = (2.0 / w) ** (ell + 1) / math.sqrt(2.0 * w)
        for n in range(4):
            want = pref * math.gamma(n + ell + 1.5) / math.factorial(n)
            assert G[n, n] == pytest.approx(want, rel=1e-10)

    def test_singular_extension_refused(self):
        with pytest.raises(SingularExtensionError):
            gram_matrix("L3", 1, RadialOscillator(1.0, 0.2), n_max=2)

    def test_trivial_matrix(self):
        G = gram_matrix("L1", 1, FAM, n_max=0)
        assert G.shape == (1, 1)
        assert gram_offdiag_max(G) == 0.0

    def test_refinement_cap_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(eop, "_GRAM_MAX_NODES", 200)
        with pytest.raises(QuadratureError) as info:
            gram_matrix("L1", 1, FAM, n_max=2)
        assert isinstance(info.value, IsoshiftError)

    def test_unreachable_tolerance_raises_not_returns(self, monkeypatch):
        # every panel keeps splitting, so the cap ends the refinement
        monkeypatch.setattr(eop, "_GRAM_TOL", 0.0)
        with pytest.raises(QuadratureError):
            gram_matrix("L3", 2, RadialOscillator(1.0, 1.0), n_max=2)

    def test_split_panels_converge_to_the_same_matrix(self, monkeypatch):
        fam = RadialOscillator(1.0, 1.0)
        G, err = eop._gram_with_error("L3", 2, fam, 3)
        monkeypatch.setattr(eop, "_GRAM_ORDER", 6)  # too coarse for one round
        G6, err6 = eop._gram_with_error("L3", 2, fam, 3)
        d = np.sqrt(np.diag(G))
        assert np.max(np.abs(G6 - G) / np.outer(d, d)) <= 1e-12
        assert err <= 1e-13 and 0.0 < err6 <= 1e-11

    def test_small_ell_converges_in_one_round(self, monkeypatch):
        # y^(ell+1/2) is not smooth at 0; the Gauss-Jacobi first panel keeps
        # it from splitting.  One round here is 15 panels x 3 rules x 20 nodes.
        monkeypatch.setattr(eop, "_GRAM_MAX_NODES", 900)
        G = gram_matrix("L1", 3, RadialOscillator(4.0, 0.1), n_max=4)
        assert gram_offdiag_max(G) <= 1e-12

    def test_known_singular_points_skip_the_scan(self):
        fam = RadialOscillator(1.0, 1.0)
        G, err = eop._gram_with_error("L3", 2, fam, 3, singular_points=())
        assert np.array_equal(G, gram_matrix("L3", 2, fam, 3))
        with pytest.raises(SingularExtensionError) as info:
            eop._gram_with_error("L3", 2, fam, 3, singular_points=(1.5,))
        assert info.value.points == [1.5]

    def test_error_estimate_reported(self):
        G, err = eop._gram_with_error("L2", 1, FAM, 3)
        assert np.array_equal(G, gram_matrix("L2", 1, FAM, n_max=3))
        assert 0.0 <= err <= 1e-13


# ---------------------------------------------------------------------------
# mpmath oracle: 30-digit Gram entries from independent coefficient formulas
# ---------------------------------------------------------------------------


def _mp_lag(mp, n, a, sign):
    """Ascending coefficients in y of L_n^a(sign * y); zero for n < 0."""
    if n < 0:
        return [mp.mpf(0)]
    return [(-1) ** k * mp.binomial(n + a, n - k) / mp.factorial(k) * sign**k
            for k in range(n + 1)]


def _mp_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def _mp_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _mp_series(mp, series, n, m, ell):
    """(S_n, T) coefficient lists of the L1 or L3 series."""
    if series == "L1":
        a = ell - mp.mpf(1) / 2
        T = _mp_lag(mp, m, a, -1)
        # S = L_m^(a+1)(-y) L_n^a(y) - L_m^a(-y) d/dy L_n^a(y)
        S = _mp_add(_mp_mul(_mp_lag(mp, m, a + 1, -1), _mp_lag(mp, n, a, 1)),
                    _mp_mul(T, _mp_lag(mp, n - 1, a + 1, 1)))
        return S, T
    b = ell + mp.mpf(3) / 2
    T = _mp_lag(mp, m, -b, -1)
    # S = (y - b) L_n^b T - y (L_n^b)' T + y L_n^b T'
    y = [0, 1]
    S = _mp_add(
        _mp_add(_mp_mul(_mp_mul([-b, 1], _mp_lag(mp, n, b, 1)), T),
                _mp_mul(y, _mp_mul(_mp_lag(mp, n - 1, b + 1, 1), T))),
        _mp_mul(y, _mp_mul(_mp_lag(mp, n, b, 1), _mp_lag(mp, m - 1, 1 - b, -1))))
    return S, T


def _mp_gram(series, m, ell, n_max):
    """Unnormalized int_0^inf y^(ell+1/2) e^-y S_i S_j / T^2 dy at 30 digits."""
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 30
    ell = mp.mpf(ell)
    polys = [_mp_series(mp, series, n, m, ell)[0] for n in range(n_max + 1)]
    T = _mp_series(mp, series, 0, m, ell)[1]
    breaks = {mp.mpf(0), mp.mpf(1), mp.mpf(4), mp.mpf(16), mp.mpf(64)}
    if len(T) > 1:
        # T has complex zeros near the positive axis; break the range there
        breaks |= {mp.re(z) for z in mp.polyroots(T[::-1], maxsteps=200, extraprec=60)
                   if mp.re(z) > 0}
    points = sorted(breaks) + [mp.inf]

    @functools.lru_cache(maxsize=None)
    def at(y):  # mp.quad visits the same nodes for every entry
        return (y ** (ell + mp.mpf(1) / 2) * mp.exp(-y) / mp.polyval(T[::-1], y) ** 2,
                [mp.polyval(P[::-1], y) for P in polys])

    def entry(i, j):
        def f(y):
            w, v = at(y)
            return w * v[i] * v[j]
        return mp.quad(f, points)

    I = mp.matrix(n_max + 1, n_max + 1)
    for i in range(n_max + 1):
        for j in range(i, n_max + 1):
            I[i, j] = I[j, i] = entry(i, j)
    return mp, I


def _normalized(G):
    d = np.sqrt(np.diag(G))
    return G / np.outer(d, d)


class TestGramOracle:
    def test_m0_l1_diagonal_is_the_laguerre_norm(self):
        mp = pytest.importorskip("mpmath").mp.clone()
        mp.dps = 30
        w, ell = FAM.omega, FAM.ell
        G = gram_matrix("L1", 0, FAM, n_max=4)
        pref = (mp.mpf(2) / w) ** (ell + 1) / mp.sqrt(2 * w)
        for n in range(5):
            want = pref * mp.gamma(n + ell + mp.mpf(3) / 2) / mp.factorial(n)
            assert abs(G[n, n] / float(want) - 1.0) <= 1e-12
        assert gram_offdiag_max(G) <= 1e-12

    @pytest.mark.parametrize("series,omega,ell,m", [
        ("L1", 4.0, 0.1, 3),  # the quad-based Gram was off by 7.6e-12 here
        ("L3", 1.0, 1.0, 2),
        ("L3", 1.0, 1.0, 3),
    ])
    def test_normalized_entries_match_mpmath(self, series, omega, ell, m):
        n_max = 4
        G = gram_matrix(series, m, RadialOscillator(omega, ell), n_max=n_max)
        mp, I = _mp_gram(series, m, ell, n_max)
        want = np.array([[float(I[i, j] / mp.sqrt(I[i, i] * I[j, j]))
                          for j in range(n_max + 1)] for i in range(n_max + 1)])
        assert np.max(np.abs(_normalized(G) - want)) <= 1e-12


def _mp_gauss_jacobi(n, c):
    """The n-point Gauss-Jacobi rule for (1+x)^c on (-1, 1), 30 digits, ascending."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    X, W = mp.gauss_quadrature(n, "jacobi", 0, mp.mpf(c))
    pairs = sorted(zip(X, W))
    return (np.array([float(x) for x, _ in pairs]), np.array([float(w) for _, w in pairs]))


class TestGaussRules:
    def _check(self, c):
        x, w = eop._gauss_jacobi(20, 0.0, c)
        want_x, want_w = _mp_gauss_jacobi(20, c)
        assert np.max(np.abs(x - want_x)) <= 4e-16
        assert np.max(np.abs(w / want_w - 1.0)) <= 2e-13

    # scipy.special's roots_jacobi weights are off by 6e-13 at c = -0.49
    @pytest.mark.parametrize("c", [0.0, -0.49, 0.5, 1.5, 2.7, 6.0])
    def test_matches_mpmath(self, c):
        self._check(c)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(-0.99, 8.0, exclude_min=True, exclude_max=True))
    def test_matches_mpmath_drawn(self, c):
        self._check(c)

    def test_rules_are_built_once_and_read_only(self):
        rule = eop._gauss_jacobi(20, 0.0, 1.25)
        assert eop._gauss_jacobi(20, 0.0, 1.25) is rule
        with pytest.raises(ValueError):
            rule[0][0] = 0.0

    # the cells of TestGramOracle
    @pytest.mark.parametrize("series,omega,ell,m", [
        ("L1", FAM.omega, FAM.ell, 0),
        ("L1", 4.0, 0.1, 3),
        ("L3", 1.0, 1.0, 2),
        ("L3", 1.0, 1.0, 3),
    ])
    def test_gram_matches_scipy_rules(self, monkeypatch, series, omega, ell, m):
        from scipy.special import roots_jacobi

        params = RadialOscillator(omega, ell)
        G, _ = eop._gram_with_error(series, m, params, 4)
        monkeypatch.setattr(eop, "_gauss_jacobi", roots_jacobi)
        want, _ = eop._gram_with_error(series, m, params, 4)
        assert np.max(np.abs(_normalized(G) - _normalized(want))) <= 1e-15


class TestZeroCensus:
    @pytest.mark.parametrize("m", [1, 2])
    def test_l1_interior_count_is_n(self, m):
        for n in range(5):
            inside, outside = zero_census(EOPSpec("L1", n, m, FAM))
            assert inside == n
            assert inside + outside == n + m

    def test_l3_counts(self):
        inside, outside = zero_census(EOPSpec("L3", 2, 2, RadialOscillator(1.0, 1.0)))
        assert inside + outside == 5
        assert inside == 3

    def test_zero_sample_is_not_a_crossing(self):
        # the first sample (y = 1e-9) of this polynomial evaluates to -0.0
        spec = EOPSpec("L3", 0, 4, RadialOscillator(0.5, 2.5))
        assert zero_census(spec) == (0, 5)


def _mp_laguerre(n, alpha, x):
    """L_n^alpha(x) as a 40-digit sum of sum_i C(n + alpha, n - i) (-x)^i / i!."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        total = mpmath.mpf(0)
        for i in range(n + 1):
            c = mpmath.mpf(1)
            for j in range(1, n - i + 1):
                c *= (i + a + j) / j
            total += c * (-x) ** i / mpmath.factorial(i)
        return total


@st.composite
def _contiguous_cases(draw):
    m = draw(st.integers(0, 8))
    # alpha generic, at a negative integer, or within 1e-9 of one
    k = draw(st.integers(1, m + 2))
    alpha = draw(st.one_of(
        st.floats(-m - 2, 5),
        st.just(-float(k)),
        st.floats(-1e-9, 1e-9).map(lambda e: e - k),
    ))
    y = draw(st.floats(0, 60, exclude_min=True))
    return m, alpha, y


class TestSharedSeedJet:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_contiguous_cases())
    def test_contiguous_partner_is_T_plus_T_prime(self, case):
        # L1's S at n = 0 is B_m, built from the seed's jet as T + T'
        # (DLMF 18.9.14 and 18.9.23 at x = -y), against L_m^(alpha+1)(-y)
        m, alpha, y = case
        T = eop._lagjet(m, alpha, -1, np.array([y]), 1)
        got = eop._l1_S(0, alpha, np.array([y]), T, 0)[0][0]
        want = _mp_laguerre(m, alpha + 1.0, -y)
        assert abs(float(got - want)) <= 1e-12 * max(1.0, abs(float(want)))


class TestKernelCallBudget:
    """One seed jet per evaluation: polyengine.laguerre_jet calls per point array."""

    R = np.linspace(0.1, 5.0, 101)

    @staticmethod
    def _calls(monkeypatch):
        # each call is recorded by |x|, which is y for the argument +-y
        calls = []
        real = pe.laguerre_jet

        def counted(spec, x, order):
            calls.append(np.abs(np.asarray(x, dtype=float)).tobytes())
            return real(spec, x, order)

        monkeypatch.setattr(pe, "laguerre_jet", counted)
        return calls

    @pytest.mark.parametrize("series", ["L1", "L2", "L3"])
    def test_eigenfunction_takes_two_calls(self, monkeypatch, series):
        psi = eigenfunction_closed_form(EOPSpec(series, 4, 2, RadialOscillator(1.0, 1.0)))
        calls = self._calls(monkeypatch)
        psi.f(self.R)
        assert len(calls) == 2
        psi.jet(self.R)
        assert len(calls) == 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_extended_potential_takes_one_call(self, monkeypatch, k):
        pair = extend(seed_polynomial(FAM, k, 2))
        calls = self._calls(monkeypatch)
        pair.V_tilde_minus.f(self.R)
        assert len(calls) == 1

    def test_linking_superpotential_takes_one_call_per_seed(self, monkeypatch):
        W0 = w0_explicit(FAM, 2)
        calls = self._calls(monkeypatch)
        v, dv = W0.jet(self.R, 1)
        assert len(calls) == 2
        assert np.array_equal(v, W0.f(self.R)) and np.array_equal(dv, W0.df(self.R))

    @pytest.mark.parametrize("series,m", [("L1", 2), ("L2", 1), ("L3", 2)])
    def test_gram_takes_n_max_plus_two_calls_per_node_set(self, monkeypatch, series, m):
        fam, n_max = RadialOscillator(1.0, 1.0), 3
        calls = self._calls(monkeypatch)
        eop._gram_with_error(series, m, fam, n_max, ())
        per_node_set = {}
        for key in calls:
            per_node_set[key] = per_node_set.get(key, 0) + 1
        assert per_node_set and set(per_node_set.values()) == {n_max + 2}


def _traced_peak(call):
    """Bytes of the traced allocation peak of call(), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedEvaluation:
    """Long 1-D arrays are evaluated in blocks of polyengine._BLOCK points,
    bitwise as in one pass and without full-length temporaries."""

    BLOCK = pe._BLOCK
    R = np.linspace(0.05, 9.0, 3 * pe._BLOCK + 17)
    CUTS = [0, 1, 7, pe._BLOCK - 1, pe._BLOCK + 5, 2 * pe._BLOCK + 2, R.size]

    def _assert_blockwise(self, rows_of):
        """rows_of(x) on all of R equals, bit for bit, its rows on pieces of R."""
        whole = rows_of(self.R)
        parts = [rows_of(self.R[a:b]) for a, b in zip(self.CUTS, self.CUTS[1:])]
        assert len(whole) == len(parts[0])
        for j, row in enumerate(whole):
            assert row.shape == self.R.shape
            assert np.array_equal(row, np.concatenate([p[j] for p in parts]), equal_nan=True)

    @pytest.mark.parametrize("series", ["L1", "L2", "L3"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_eigenfunction_jet_is_bitwise_blockwise(self, series, order):
        psi = eigenfunction_closed_form(EOPSpec(series, 5, 2, FAM))
        self._assert_blockwise(lambda x: psi.jet(x, order))
        self._assert_blockwise(lambda x: (psi.f(x), psi.df(x), psi.d2f(x)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_extended_potentials_are_bitwise_blockwise(self, k):
        d = seed_polynomial(FAM, k, 2)
        pair = extend(d)
        self._assert_blockwise(lambda x: (pair.V_tilde_minus.f(x), pair.V_tilde_plus.f(x)))
        for fn in (d.phi, d.w_tilde):
            for order in (0, 1):
                self._assert_blockwise(lambda x: fn.jet(x, order))

    def test_weight_jet_is_bitwise_blockwise(self):
        weight = weight_spec("L1", 2, FAM).weight
        self._assert_blockwise(lambda x: weight.jet(x, 2))

    def test_scalar_and_2d_inputs_keep_their_shapes(self):
        psi = eigenfunction_closed_form(EOPSpec("L3", 4, 2, FAM))
        whole = psi.jet(self.R, 2)
        grid = self.R[:-17].reshape(-1, 8)  # 2-D and longer than one block
        for got, want in zip(psi.jet(grid, 2), whole):
            assert got.shape == grid.shape
            assert np.array_equal(got.ravel(), want[:-17])
        i = self.BLOCK + 3
        for got, want in zip(psi.jet(float(self.R[i]), 2), whole):
            assert np.shape(got) == ()
            assert got == pytest.approx(want[i], rel=1e-13, abs=1e-300)
        assert np.shape(psi.f(self.R[i])) == ()

    def test_eigenfunction_value_peak_below_two_rows(self):
        # one full-length row is the output itself; the jet arithmetic on
        # full-length temporaries would take 7-8 MB
        r = np.linspace(0.05, 16.0, 100_000)
        row = r.nbytes
        for series in ("L1", "L2", "L3"):
            psi = eigenfunction_closed_form(EOPSpec(series, 12, 3, FAM))
            assert _traced_peak(lambda: psi.f(r)) < 2 * row

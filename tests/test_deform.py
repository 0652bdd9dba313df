"""Deformation construction: Riccati identity, partner shift, W0 links."""

import math

import numpy as np
import pytest

from isoshift.catalog import (
    RadialOscillator,
    TrigDPT,
    partner_potentials,
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
from isoshift.catalog import Function1D
from isoshift.errors import ConfigurationError, SingularExtensionError
from isoshift.polyengine import LaguerreSpec, real_zeros


class TestSeedPolynomial:
    def test_invalid_m(self):
        fam = RadialOscillator(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            seed_polynomial(fam, 2, -1)
        with pytest.raises(ConfigurationError):
            seed_polynomial(fam, 2, 1.5)

    def test_m_zero_is_trivial(self):
        fam = RadialOscillator(2.0, 1.0)
        d = seed_polynomial(fam, 2, 0)
        r = np.linspace(0.2, 6, 40)
        assert d.R == 0.0
        assert np.all(d.phi.f(r) == 0.0)
        assert np.allclose(d.w_tilde.f(r), superpotential(fam, 2).f(r))

    def test_phi_m1_closed_form(self):
        fam = RadialOscillator(2.0, 1.5)
        d = seed_polynomial(fam, 2, 1)
        r = np.linspace(0.1, 8, 60)
        w, ell = fam.omega, fam.ell
        want = 2 * w * r / (w * r**2 + 2 * ell + 1)
        assert np.allclose(d.phi.f(r), want, rtol=1e-13)
        assert d.R == pytest.approx(2 * w)

    def test_branch1_fractional_ell_pole_location(self):
        fam = RadialOscillator(1.0, 0.2)
        d = seed_polynomial(fam, 1, 1)
        assert len(d.singular_points) == 1
        assert d.singular_points[0] == pytest.approx(math.sqrt(1.4), abs=1e-10)

    def test_branch3_exposes_process2(self):
        fam = RadialOscillator(1.0, 1.0)
        d3 = seed_polynomial(fam, 3, 2)
        assert d3.process == 2
        assert d3.chi is not None
        r = np.linspace(0.3, 5, 30)
        assert np.allclose(d3.chi.f(r), -d3.phi.f(r), rtol=0, atol=1e-15)
        d2 = seed_polynomial(fam, 2, 2)
        assert d2.process == 1
        assert d2.chi is None

    def test_dpt_shift_constant(self):
        fam = TrigDPT(1.0, 2.0)
        d = seed_polynomial(fam, 1, 1)
        assert d.R == pytest.approx(-4.0 * (1.0 + 1.0 + 2.0))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
class TestRiccatiSweep:
    def test_ro(self, k, m):
        fam = RadialOscillator(2.0, 1.0)
        d = seed_polynomial(fam, k, m)
        grid = certification_grid(fam, exclude=d.singular_points)
        assert d.riccati_residual(grid) <= 1e-9

    def test_dpt(self, k, m):
        fam = TrigDPT(1.2, 0.7)
        d = seed_polynomial(fam, k, m)
        grid = certification_grid(fam, exclude=d.singular_points)
        assert d.riccati_residual(grid) <= 1e-9


class TestExtend:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partner_shift(self, k):
        fam = RadialOscillator(1.5, 0.5)
        for m in (1, 2):
            d = seed_polynomial(fam, k, m)
            pair = extend(d)  # internally asserts the shift identity
            grid = certification_grid(fam, exclude=d.singular_points)
            _, vplus = partner_potentials(d.w0)
            dev = pair.V_tilde_plus.f(grid) - vplus.f(grid) - d.R
            assert np.max(np.abs(dev)) <= 1e-9
            assert pair.shift == d.R
            scale = 1.0 + np.abs(vplus.f(grid)) + abs(d.R)
            assert pair.partner_shift_deviation == np.max(np.abs(dev) / scale)

    def test_quesne_m1_extension(self):
        # branch-2, m=1 rational extension against the explicit X1 potential
        fam = RadialOscillator(2.0, 1.0)
        w, ell = fam.omega, fam.ell
        pair = extend(seed_polynomial(fam, 2, 1))
        r = np.linspace(0.1, 8, 200)
        den = w * r**2 + 2 * ell + 1
        base = 0.25 * w**2 * r**2 + ell * (ell + 1) / r**2 + w * (ell - 0.5)
        want = base + 2 * w + 4 * w / den - 8 * w * (2 * ell + 1) / den**2
        got = pair.V_tilde_minus.f(r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestW0:
    def test_m0_is_branch1_superpotential(self):
        fam = RadialOscillator(2.0, 1.0)
        W0 = w0_explicit(fam, 0)
        r = np.linspace(0.2, 6, 40)
        assert np.allclose(W0.f(r), superpotential(fam, 1).f(r), rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_partner_invariants(self, m):
        fam = RadialOscillator(2.0, 1.0)
        W0 = w0_explicit(fam, m)
        c = w0_partner_constant(fam, m)
        p2 = extend(seed_polynomial(fam, 2, m))
        p3 = extend(seed_polynomial(fam, 3, m))
        r = certification_grid(fam)
        wv, dw = W0.f(r), W0.df(r)
        assert np.max(np.abs(wv * wv - dw - (p2.V_tilde_minus.f(r) - c))) <= 1e-9
        assert np.max(np.abs(wv * wv + dw - (p3.V_tilde_minus.f(r) - c))) <= 1e-9

    def test_constant_value(self):
        fam = RadialOscillator(2.0, 1.0)
        assert w0_partner_constant(fam, 1) == pytest.approx(10.0)

    def test_from_classical_ground_state(self):
        fam = RadialOscillator(2.0, 1.0)
        w, ell = fam.omega, fam.ell
        psi = Function1D(
            f=lambda r: r ** (ell + 1) * np.exp(-w * r**2 / 4),
            df=lambda r: ((ell + 1) / r - 0.5 * w * r)
            * r ** (ell + 1)
            * np.exp(-w * r**2 / 4),
            domain=(0.0, math.inf),
        )
        W = w0_from_ground_state(psi)
        r = np.linspace(0.2, 6, 50)
        assert np.allclose(W.f(r), 0.5 * w * r - (ell + 1) / r, rtol=1e-12)

    def test_from_constant_ground_state(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        psi = Function1D(f=one, df=zero, domain=(0.0, 10.0))
        W = w0_from_ground_state(psi)
        assert np.all(W.f(np.linspace(1, 9, 9)) == 0.0)

    def test_sign_change_raises(self):
        psi = Function1D(
            f=lambda x: np.asarray(x, dtype=float) - 3.0,
            df=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            domain=(0.0, 10.0),
        )
        with pytest.raises(SingularExtensionError) as exc:
            w0_from_ground_state(psi)
        assert exc.value.points
        assert exc.value.points[0] == pytest.approx(3.0, abs=0.1)

    def test_sign_change_point_is_bisected(self):
        psi = Function1D(
            f=lambda x: np.asarray(x, dtype=float) - math.pi,
            df=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            domain=(0.0, 10.0),
        )
        with pytest.raises(SingularExtensionError) as exc:
            w0_from_ground_state(psi)
        assert exc.value.points == [pytest.approx(math.pi, abs=1e-11)]


class TestGeneralR:
    def test_matches_polynomial_seed_at_R_2omega(self):
        fam = RadialOscillator(1.0, 1.0)
        pair = extend_general_R(fam, 2, 2.0 * fam.omega)
        ref = extend(seed_polynomial(fam, 2, 1))
        r = np.linspace(0.2, 10, 150)
        dev = pair.V_tilde_minus.f(r) - ref.V_tilde_minus.f(r)
        assert np.max(np.abs(dev)) <= 1e-9

    def test_R_zero_is_identity(self):
        fam = RadialOscillator(1.0, 1.0)
        pair = extend_general_R(fam, 2, 0.0)
        w2 = superpotential(fam, 2)
        vminus, _ = partner_potentials(w2)
        r = np.linspace(0.2, 10, 100)
        assert np.max(np.abs(pair.V_tilde_minus.f(r) - vminus.f(r))) <= 1e-9

    def test_generic_R_shift_identity(self):
        fam = RadialOscillator(1.0, 1.0)
        R = 3.0 * fam.omega
        pair = extend_general_R(fam, 2, R)
        _, vplus = partner_potentials(superpotential(fam, 2))
        r = np.linspace(0.2, 10, 100)
        dev = pair.V_tilde_plus.f(r) - vplus.f(r) - R
        assert np.max(np.abs(dev)) <= 1e-8


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("ell", [0.1, 1.0, 2.5])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("j", range(5))
def test_general_R_singular_points_oracle(omega, ell, k, j):
    """At R = -2 omega (a + 1/2 + j) the regular seed M(-R/2b, a + 1/2, -y)
    is e^(-y) L_j^(a-1/2)(y) / L_j^(a-1/2)(0) by Kummer's transformation
    (DLMF 13.2.39), so its zeros are those of the Laguerre polynomial, and
    its decaying tail has none."""
    fam = RadialOscillator(omega, ell)
    # effective a of the branch (branch 3 is deformed sign-reversed); b = +omega
    a = {1: -ell - 1.0, 2: ell, 3: ell + 1.0}[k]
    R = -2.0 * omega * (a + 0.5 + j)
    if a + 0.5 <= 0.0 and float(a + 0.5).is_integer():
        # 2i(2i - 1 + 2a) = 0 at i = 1/2 - a: no even power-series solution
        with pytest.raises(ConfigurationError):
            extend_general_R(fam, k, R)
        return
    pair = extend_general_R(fam, k, R)
    ys = real_zeros(LaguerreSpec(j, a - 0.5), (1e-12, 4.0 * j + 2.0 * abs(a) + 20.0)).zeros
    want = [math.sqrt(2.0 * y / omega) for y in ys]
    assert len(pair.singular_points) == len(want)
    assert pair.singular_points == pytest.approx(want, rel=0.0, abs=1e-6)

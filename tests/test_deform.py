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

    def test_dpt_seed_at_zero_m_plus_a_plus_b_has_degree_zero(self):
        # P_m^(a-1/2, b-1/2) is constant where m + a + b = 0: at A = B on
        # branches 2 and 3 for m = 1, and at B = A + 1 - m on branch 2.  The
        # sum is 0 only to rounding for most decimal A, such as 1.43
        cells = [(TrigDPT(A / 100.0, A / 100.0), k, 1) for A in range(10, 401) for k in (2, 3)]
        cells += [(TrigDPT(2.0, 1.0), 2, 2), (TrigDPT(3.3, 1.3), 2, 3)]
        for fam, k, m in cells:
            d = seed_polynomial(fam, k, m)
            assert d.seed.degree == 0 and d.m == m
            assert d.R == 0.0 and math.copysign(1.0, d.R) == 1.0
            assert d.riccati_residual(certification_grid(fam, 50)) == 0.0
        # one step off the constant the seed keeps its degree
        for fam, k in [(TrigDPT(1.43, 1.44), 2), (TrigDPT(1.43, 1.42), 3), (TrigDPT(1.43, 1.43), 1)]:
            assert seed_polynomial(fam, k, 1).seed.degree == 1


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
    @pytest.mark.parametrize("m", [1.5, 0.0, True])
    def test_non_integer_m_rejected(self, m):
        fam = RadialOscillator(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            w0_explicit(fam, m)
        with pytest.raises(ConfigurationError):
            w0_partner_constant(fam, m)
        with pytest.raises(ConfigurationError):
            seed_polynomial(fam, 2, m)

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

    def test_ground_state_without_df_is_a_configuration_error(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        W = w0_from_ground_state(Function1D(f=one, df=None, domain=(0.0, 10.0)))
        with pytest.raises(ConfigurationError, match="no df"):
            W.f(np.linspace(1, 9, 9))

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

    def test_v_tilde_sums_the_series_once_per_call(self, monkeypatch):
        from isoshift import deform

        pair = extend_general_R(RadialOscillator(1.0, 1.0), 2, 2.5)
        assert pair.w_tilde.jet is not None
        calls = []
        real = deform._kummer_series

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(deform, "_kummer_series", counting)
        r = np.linspace(0.2, 10, 300)
        pair.V_tilde_minus.f(r)
        assert len(calls) == 1
        # value and slope of w~ come from that one summation
        v, dv = pair.w_tilde.jet(r, 1)
        assert len(calls) == 2
        assert np.array_equal(v, pair.w_tilde.f(r)) and np.array_equal(dv, pair.w_tilde.df(r))

    def test_generic_R_shift_identity(self):
        fam = RadialOscillator(1.0, 1.0)
        R = 3.0 * fam.omega
        pair = extend_general_R(fam, 2, R)
        _, vplus = partner_potentials(superpotential(fam, 2))
        r = np.linspace(0.2, 10, 100)
        dev = pair.V_tilde_plus.f(r) - vplus.f(r) - R
        assert np.max(np.abs(dev)) <= 1e-8


# effective (a, b) of each radial-oscillator branch: branch 3 is deformed
# sign-reversed, so only branch 4 has b < 0
def _effective_ab(omega, ell, k):
    return {1: (-ell - 1.0, omega), 2: (ell, omega), 3: (ell + 1.0, omega), 4: (ell, -omega)}[k]


def _random_cell(rng, branches):
    """(omega, ell, k): omega log-uniform in [0.3, 4], ell in [0, 3], never
    resonant (a + 1/2 a nonpositive integer)."""
    while True:
        omega = float(np.exp(rng.uniform(math.log(0.3), math.log(4.0))))
        ell, k = float(rng.uniform(0.0, 3.0)), int(rng.choice(branches))
        gamma = _effective_ab(omega, ell, k)[0] + 0.5
        if not (gamma <= 0.0 and gamma.is_integer()):
            return omega, ell, k


class TestKummerSeed:
    """extend_general_R against the seed's closed form: the Laguerre zeros of
    the lattice R and 50-digit mpmath.hyp1f1 off it, at the same doubles."""

    @staticmethod
    def _mpmath_seed(omega, ell, k, R):
        """(M(r), phi(r)) of the seed u = e^(-lam y) M(alpha, gamma, y),
        y = |b| r^2 / 2, with (alpha, gamma) the doubles extend_general_R
        sums; lam = 1 for b > 0 (Kummer's transformation), 0 for b < 0."""
        mp = pytest.importorskip("mpmath").mp.clone()
        mp.dps = 50
        a, b = _effective_ab(omega, ell, k)
        gamma, q = a + 0.5, R / (2.0 * b)
        alpha, lam = (gamma + q, 1) if b > 0 else (-q, 0)

        def M(r):
            return mp.hyp1f1(alpha, gamma, mp.mpf(abs(b)) * mp.mpf(r) ** 2 / 2)

        def phi(r):
            y = mp.mpf(abs(b)) * mp.mpf(r) ** 2 / 2
            dM = alpha / mp.mpf(gamma) * mp.hyp1f1(alpha + 1, gamma + 1, y)
            return float(abs(b) * r * (dM / mp.hyp1f1(alpha, gamma, y) - lam))

        return M, phi

    @staticmethod
    def _sign_changes(M, r_max):
        signs = [M(r) > 0 for r in np.linspace(0.0, r_max, 41)[1:]]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    def test_lattice_zeros_are_laguerre_zeros(self):
        # R = -2 omega (a + 1/2 + j): u = e^(-y) L_j^(a-1/2)(y) up to a constant
        rng = np.random.default_rng(9)
        for _ in range(300):
            omega, ell, k = _random_cell(rng, [1, 2, 3])
            j = int(rng.integers(0, 7))
            a, _ = _effective_ab(omega, ell, k)
            pair = extend_general_R(RadialOscillator(omega, ell), k, -2.0 * omega * (a + 0.5 + j))
            ys = real_zeros(LaguerreSpec(j, a - 0.5), (1e-12, 4.0 * j + 2.0 * abs(a) + 20.0)).zeros
            want = [math.sqrt(2.0 * y / omega) for y in ys]
            case = (omega, ell, k, j)
            assert len(pair.singular_points) == len(want), case
            assert pair.singular_points == pytest.approx(want, rel=0.0, abs=1e-9), case

    def test_generic_R_matches_mpmath(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            omega, ell, k = _random_cell(rng, [1, 2, 3, 4])
            R = float(rng.uniform(-10.0, 10.0)) * omega
            fam = RadialOscillator(omega, ell)
            pair = extend_general_R(fam, k, R)
            r_max = pair.w_tilde.domain[1]
            M, phi = self._mpmath_seed(omega, ell, k, R)
            case = (omega, ell, k, R)
            assert len(pair.singular_points) == self._sign_changes(M, r_max), case
            w0 = fam.superpotential(*_effective_ab(omega, ell, k))
            for r in np.linspace(0.05, r_max, 8):
                if any(abs(r - z) <= 0.05 / math.sqrt(omega) for z in pair.singular_points):
                    continue
                got = pair.w_tilde.f(r) - w0.f(r)
                want = phi(r)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (case, r)

    def test_near_lattice_R_is_not_snapped(self):
        # R a relative 1e-9 off the lattice: the seed's growing part is real
        # and may add a far zero, which the count must keep
        rng = np.random.default_rng(11)
        extra = 0
        for _ in range(40):
            omega, ell, k = _random_cell(rng, [1, 2, 3])
            j = int(rng.integers(0, 7))
            a, _ = _effective_ab(omega, ell, k)
            R = -2.0 * omega * (a + 0.5 + j) * (1.0 + 1e-9)
            pair = extend_general_R(RadialOscillator(omega, ell), k, R)
            M, _ = self._mpmath_seed(omega, ell, k, R)
            count = self._sign_changes(M, pair.w_tilde.domain[1])
            assert len(pair.singular_points) == count, (omega, ell, k, j)
            extra += count > j
        assert extra > 0

    def test_found_cells(self):
        fam = RadialOscillator(0.5, 2.5)
        for k, z in ((2, 9.7952), (3, 9.3095)):
            assert min(abs(p - z) for p in extend_general_R(fam, k, -7.1).singular_points) <= 1e-4
        # alpha = 0: u = e^(-y), so w~ = 1/r - r/2 exactly
        pair = extend_general_R(RadialOscillator(1.0, 1.0), 2, -3.0)
        r = np.linspace(0.24, 12.0, 500)
        closed = (1.0 / r - 0.5 * r) ** 2 + 1.0 / r**2 + 0.5
        assert np.max(np.abs(pair.V_tilde_minus.f(r) - closed)) <= 1e-10

    def test_large_argument_stays_finite(self):
        # y = omega r^2 / 2 reaches 7200: the series terms pass any float
        pair = extend_general_R(RadialOscillator(4.0, 1.0), 2, 2.7, r_max=60.0)
        assert np.all(np.isfinite(pair.V_tilde_minus.f(np.linspace(0.05, 60.0, 200))))

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_R(self, R):
        with pytest.raises(ConfigurationError):
            extend_general_R(RadialOscillator(1.0, 1.0), 2, R)

    @pytest.mark.parametrize("r_max", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_r_max(self, r_max):
        with pytest.raises(ConfigurationError):
            extend_general_R(RadialOscillator(1.0, 1.0), 2, 1.0, r_max=r_max)


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

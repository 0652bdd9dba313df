"""Families, branches, partner potentials, and the shape-invariance check."""

import math

import numpy as np
import pytest

from isoshift.catalog import (
    Function1D,
    RadialOscillator,
    TrigDPT,
    branches,
    get_branch,
    partner_potentials,
    potential,
    si_pair_check,
    superpotential,
    tau,
)
from isoshift import deform, eop, spectral
from isoshift.errors import ConfigurationError
from isoshift.polyengine import LaguerreSpec


@pytest.fixture
def ro():
    return RadialOscillator(omega=2.0, ell=1.0)


@pytest.fixture
def dpt():
    return TrigDPT(A=1.2, B=0.7)


class TestFamilies:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RadialOscillator(omega=-1.0, ell=1.0)
        with pytest.raises(ConfigurationError):
            RadialOscillator(omega=1.0, ell=-0.5)
        with pytest.raises(ConfigurationError):
            TrigDPT(A=-0.6, B=0.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                RadialOscillator(omega=bad, ell=1.0)
            with pytest.raises(ConfigurationError):
                RadialOscillator(omega=1.0, ell=bad)
            with pytest.raises(ConfigurationError):
                TrigDPT(A=bad, B=1.0)
            with pytest.raises(ConfigurationError):
                TrigDPT(A=1.0, B=bad)

    def test_potentials_finite_on_domain(self, ro, dpt):
        r = np.linspace(0.01, 20, 300)
        assert np.all(np.isfinite(potential(ro).f(r)))
        x = np.linspace(0.01, math.pi / 2 - 0.01, 300)
        assert np.all(np.isfinite(potential(dpt).f(x)))

    def test_tau_maps(self):
        fam = tau(RadialOscillator(1.0, 0.0))
        assert (fam.omega, fam.ell) == (1.0, 1.0)
        d = tau(TrigDPT(1.0, 2.0))
        assert (d.A, d.B) == (2.0, 3.0)
        fam = RadialOscillator(1.0, 0.0)
        for _ in range(5):
            fam = tau(fam)
        assert fam.ell == 5.0


class TestBranches:
    def test_ro_branch_table(self, ro):
        table = {b.k: (b.a, b.b) for b in branches(ro)}
        ell, w = ro.ell, ro.omega
        assert table == {
            1: (-(ell + 1), w),
            2: (ell, w),
            3: (-(ell + 1), -w),
            4: (ell, -w),
        }
        kinds = {b.k: b.susy_kind for b in branches(ro)}
        assert kinds == {1: "exact", 2: "broken", 3: "broken", 4: "exact"}

    def test_dpt_factorization_energies(self, dpt):
        A, B = dpt.A, dpt.B
        want = [
            -((A + B) ** 2),
            -((1 + A - B) ** 2),
            -((1 - A + B) ** 2),
            -((2 + A + B) ** 2),
        ]
        got = [b.factorization_energy for b in branches(dpt)]
        assert got == pytest.approx(want)

    def test_qhj_constant_is_negative_factorization_energy_ro(self, ro):
        # w^2 - w' - V constant over the domain, equal to -E
        r = np.linspace(0.05, 10, 200)
        V = potential(ro).f(r)
        for b in branches(ro):
            w = superpotential(ro, b)
            const = w.f(r) ** 2 - w.df(r) - V
            assert np.ptp(const) <= 1e-10 * max(1.0, np.max(np.abs(const)))
            assert const[0] == pytest.approx(-b.factorization_energy, rel=1e-10)

    def test_ro_table_constants(self, ro):
        w, ell = ro.omega, ro.ell
        expect = {
            1: -w * (ell + 1.5),
            2: w * (ell - 0.5),
            3: w * (ell + 1.5),
            4: -w * (ell - 0.5),
        }
        r = np.linspace(0.2, 6, 50)
        V = potential(ro).f(r)
        for b in branches(ro):
            wf = superpotential(ro, b)
            const = np.mean(wf.f(r) ** 2 - wf.df(r) - V)
            assert const == pytest.approx(expect[b.k], rel=1e-12)

    def test_dpt_qhj_constant_matches_energy(self, dpt):
        x = np.linspace(0.1, math.pi / 2 - 0.1, 120)
        V = potential(dpt).f(x)
        for b in branches(dpt):
            w = superpotential(dpt, b)
            const = w.f(x) ** 2 - w.df(x) - V
            assert np.ptp(const) <= 1e-10 * max(1.0, np.max(np.abs(const)))
            assert const[0] == pytest.approx(b.factorization_energy, rel=1e-10)

    def test_invalid_branch_index(self, ro):
        with pytest.raises(ConfigurationError):
            get_branch(ro, 5)


class TestSuperpotentials:
    def test_ro_branch1_value(self):
        fam = RadialOscillator(2.0, 1.0)
        w = superpotential(fam, 1)
        assert w.f(1.0) == pytest.approx(0.5 * 2 * 1 - 2 / 1)

    def test_ro_branch4_mirrors_branch1_shifted(self):
        fam = RadialOscillator(1.5, 2.0)
        lowered = RadialOscillator(1.5, 1.0)  # ell+1 -> ell
        w4 = superpotential(fam, 4)
        w1 = superpotential(lowered, 1)
        r = np.linspace(0.1, 8, 60)
        assert np.allclose(w4.f(r), -w1.f(r), rtol=0, atol=1e-14)

    def test_dpt_value_at_pi_over_4(self):
        w = superpotential(TrigDPT(1.0, 1.0), 1)
        assert w.f(math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_derivatives_match_fd(self, ro, dpt):
        for fam, pts in [(ro, np.linspace(0.3, 5, 9)), (dpt, np.linspace(0.2, 1.3, 9))]:
            for k in (1, 2, 3, 4):
                w = superpotential(fam, k)
                h = 1e-6
                fd = (w.f(pts + h) - w.f(pts - h)) / (2 * h)
                assert np.allclose(w.df(pts), fd, rtol=1e-7, atol=1e-7)
                fd2 = (w.df(pts + h) - w.df(pts - h)) / (2 * h)
                assert np.allclose(w.d2f(pts), fd2, rtol=1e-6, atol=1e-6)


class TestPartnerPotentials:
    def test_zero_superpotential(self):
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        w = Function1D(f=z, df=z, d2f=z, domain=(0.0, 1.0))
        vm, vp = partner_potentials(w)
        x = np.linspace(0.1, 0.9, 7)
        assert np.all(vm.f(x) == 0.0)
        assert np.all(vp.f(x) == 0.0)

    def test_ro_branch1_vminus(self, ro):
        w = superpotential(ro, 1)
        vm, _ = partner_potentials(w)
        r = np.linspace(0.2, 7, 100)
        want = potential(ro).f(r) - ro.omega * (ro.ell + 1.5)
        assert np.allclose(vm.f(r), want, rtol=1e-12)

    def test_ro_branch2_vplus(self, ro):
        w = superpotential(ro, 2)
        _, vp = partner_potentials(w)
        r = np.linspace(0.2, 7, 100)
        omega, ell = ro.omega, ro.ell
        want = 0.25 * omega**2 * r**2 + ell * (ell - 1) / r**2 + omega * (ell + 0.5)
        assert np.allclose(vp.f(r), want, rtol=1e-12)


class TestShapeInvariance:
    def test_ro_pair_1_4(self):
        fam = RadialOscillator(1.0, 2.0)
        grid = np.linspace(0.1, 10, 50)
        assert si_pair_check(fam, 1, 4, grid) <= 1e-12

    def test_dpt_pairs(self):
        fam = TrigDPT(1.2, 0.7)
        grid = np.linspace(0.05, math.pi / 2 - 0.05, 60)
        assert si_pair_check(fam, 1, 4, grid) <= 1e-12
        assert si_pair_check(fam, 2, 3, grid) <= 1e-12

    def test_mismatched_pair_fails(self):
        fam = RadialOscillator(1.0, 2.0)
        grid = np.linspace(0.1, 10, 50)
        assert si_pair_check(fam, 1, 2, grid) > 0.1


class TestSeedZeroPrediction:
    def test_matches_a_50_digit_zero_census(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        fam = RadialOscillator(1.0, 1.0)
        rng = np.random.default_rng(8)
        ms = rng.integers(1, 9, size=100)
        # the default certify's branch 1, m = 1 first, then random cells
        cases = [(1, -2.5)] + [(int(m), float(rng.uniform(-m - 5, 2))) for m in ms]
        for m, alpha in cases:
            # L_m^alpha(x) = sum_i (-1)^i binom(m + alpha, m - i) x^i / i!
            a = mp.mpf(alpha)
            coeffs = [(-1) ** i * mp.binomial(m + a, m - i) / mp.factorial(i)
                      for i in range(m, -1, -1)]
            roots = mp.polyroots(coeffs)
            negative = sum(1 for z in roots if abs(mp.im(z)) < mp.mpf(10) ** -30 and mp.re(z) < 0)
            want = "singular" if negative else "regular"
            assert negative <= 1
            assert fam.seed_zero_prediction(LaguerreSpec(m, alpha), -1) == want, (m, alpha)

    def test_none_at_integer_alpha_and_positive_argument(self):
        fam = RadialOscillator(1.0, 1.0)
        assert fam.seed_zero_prediction(LaguerreSpec(5, -5.0), -1) is None
        assert fam.seed_zero_prediction(LaguerreSpec(3, -2.5), 1) is None
        assert fam.seed_zero_prediction(LaguerreSpec(0, -2.5), -1) is None


_DPT = TrigDPT(1.0, 1.0)

# calls that must refuse a family they do not support: every eop entry with
# a DPT (no exceptional series), every public function taking a family with
# an object that is not one
_REFUSED = {
    "eigenfunction_closed_form-dpt": lambda: eop.eigenfunction_closed_form(
        eop.EOPSpec("L1", 1, 1, _DPT)),
    "gram_matrix-dpt": lambda: eop.gram_matrix("L1", 1, _DPT, 2),
    "weight_spec-dpt": lambda: eop.weight_spec("L1", 1, _DPT),
    "zero_census-dpt": lambda: eop.zero_census(eop.EOPSpec("L1", 2, 1, _DPT)),
    "eop_eval-dpt": lambda: eop.eop_eval(eop.EOPSpec("L1", 1, 1, _DPT), 1.0),
    "branches": lambda: branches(object()),
    "potential": lambda: potential(object()),
    "superpotential": lambda: superpotential(object(), get_branch(_DPT, 1)),
    "tau": lambda: tau(object()),
    "si_pair_check": lambda: si_pair_check(
        object(), get_branch(_DPT, 1), get_branch(_DPT, 4), [0.5]),
    "seed_polynomial": lambda: deform.seed_polynomial(object(), get_branch(_DPT, 2), 1),
    "certification_grid": lambda: deform.certification_grid(object()),
    "default_grid": lambda: spectral.default_grid(object()),
    "classify_regularity": lambda: spectral.classify_regularity(object(), 2, 1),
    "w0_explicit": lambda: deform.w0_explicit(object(), 1),
    "extend_general_R": lambda: deform.extend_general_R(object(), 2, 1.0),
    "weight_spec": lambda: eop.weight_spec("L1", 1, object()),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_unsupported_family_raises_configuration_error(case):
    with pytest.raises(ConfigurationError):
        _REFUSED[case]()


def _jet_kinds():
    """name -> (make, order): make() gives a package Function1D and an
    interval inside its domain."""
    ro, dpt = RadialOscillator(1.3, 1.2), TrigDPT(1.5, 3.0)
    r, x = (0.05, 9.0), (0.02, math.pi / 2 - 0.02)
    spec = eop.EOPSpec("L1", 3, 2, ro)

    def general_R():
        w = deform.extend_general_R(ro, 2, -3.0).w_tilde
        return w, (0.05, 0.9 * w.domain[1])

    return {
        "phi": (lambda: (deform.seed_polynomial(ro, 2, 2).phi, r), 1),
        "w_tilde": (lambda: (deform.seed_polynomial(dpt, 2, 2).w_tilde, x), 1),
        "chi": (lambda: (deform.seed_polynomial(ro, 3, 2).chi, r), 1),
        "W0": (lambda: (deform.w0_explicit(ro, 2), r), 1),
        "general_R_w_tilde": (general_R, 1),
        "V_tilde_minus": (lambda: (deform.extend(deform.seed_polynomial(ro, 2, 2))
                                   .V_tilde_minus, r), 0),
        "V_tilde_plus": (lambda: (deform.extend(deform.seed_polynomial(dpt, 3, 1))
                                  .V_tilde_plus, x), 0),
        "V_minus": (lambda: (partner_potentials(superpotential(dpt, 1))[0], x), 1),
        "eigenfunction": (lambda: (eop.eigenfunction_closed_form(spec), r), 2),
        "weight": (lambda: (eop.weight_spec("L3", 2, ro).weight, r), 2),
        "classical": (lambda: (eop.classical_ro_eigenfunction(ro, 4), r), 2),
        "psi_plus": (lambda: (eop.ro_psi_plus(spec), r), 2),
        "intertwined": (lambda: (eop.intertwine(deform.seed_polynomial(ro, 2, 2).w_tilde,
                                                eop.ro_psi_plus(spec)), r), 1),
        "w0_from_ground_state": (lambda: (deform.w0_from_ground_state(
            eop.eigenfunction_closed_form(eop.EOPSpec("L1", 0, 2, ro))), r), 0),
        "potential_ro": (lambda: (potential(ro), r), 1),
        "potential_dpt": (lambda: (potential(dpt), x), 1),
        "superpotential_ro": (lambda: (superpotential(ro, 3), r), 2),
        "superpotential_dpt": (lambda: (superpotential(dpt, 2), x), 2),
    }


@pytest.mark.parametrize("n", [300, 20_000])
@pytest.mark.parametrize("kind", sorted(_jet_kinds()))
def test_every_function_is_its_jet(kind, n):
    # f, df and d2f are the jet's rows bit for bit, and None past its order
    make, order = _jet_kinds()[kind]
    fn, interval = make()
    x = np.linspace(*interval, n)
    rows = (fn.f, fn.df, fn.d2f)
    assert [g is not None for g in rows] == [j <= order for j in range(3)]
    jet = fn.jet(x)
    assert len(jet) == order + 1
    for j in range(order + 1):
        assert len(fn.jet(x, j)) == j + 1
        assert np.array_equal(rows[j](x), jet[j], equal_nan=True)

"""Families, branches, partner potentials, and the shape-invariance check."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoshift.catalog import (
    Family,
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
from isoshift import catalog, deform, eop, spectral
from isoshift import polyengine as pe
from isoshift.errors import ConfigurationError
from isoshift.polyengine import LaguerreSpec

import exact


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

    @pytest.mark.parametrize("bad", ["a", None, True, 1j])
    def test_non_real_parameters_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            RadialOscillator(bad, 1.0)
        with pytest.raises(ConfigurationError):
            RadialOscillator(1.0, bad)
        with pytest.raises(ConfigurationError):
            TrigDPT(bad, 1.0)
        with pytest.raises(ConfigurationError):
            TrigDPT(1.0, bad)

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
            (A + B) ** 2,
            (1 + A - B) ** 2,
            (1 - A + B) ** 2,
            (2 + A + B) ** 2,
        ]
        got = [b.factorization_energy for b in branches(dpt)]
        assert got == pytest.approx(want)

    def test_ground_state_branch_has_the_ground_level(self, ro, dpt):
        # both tables use w^2 - w' = V - E, so the exact-SUSY branch with
        # w = -psi0'/psi0 of V's ground state psi0 has E = V's lowest level
        assert get_branch(ro, 1).factorization_energy == pytest.approx(ro.omega * (ro.ell + 1.5))
        assert get_branch(dpt, 4).factorization_energy == pytest.approx((dpt.A + dpt.B + 2) ** 2)
        assert get_branch(ro, 1).factorization_energy == pytest.approx(ro.levels(1)[0])
        assert get_branch(dpt, 4).factorization_energy == pytest.approx(dpt.levels(1)[0])

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
            assert const[0] == pytest.approx(-b.factorization_energy, rel=1e-10)

    def test_invalid_branch_index(self, ro):
        with pytest.raises(ConfigurationError):
            get_branch(ro, 5)

    @pytest.mark.parametrize("k", [2.0, True, "2", None, 0, 5, -1])
    def test_one_branch_index_rule(self, ro, k):
        # a Branch or an integer 1..4 (errors.check_index); nothing else,
        # wherever a branch is taken
        calls = (
            lambda: get_branch(ro, k),
            lambda: superpotential(ro, k),
            lambda: si_pair_check(ro, k, 4, [1.0]),
            lambda: si_pair_check(ro, 1, k, [1.0]),
            lambda: deform.seed_polynomial(ro, k, 1),
            lambda: deform.extend_general_R(ro, k, 1.0),
        )
        for call in calls:
            with pytest.raises(ConfigurationError):
                call()

    def test_branch_or_integer_index_accepted(self, ro):
        b = get_branch(ro, np.int64(2))
        assert b == branches(ro)[1]
        assert get_branch(ro, b) is b
        assert superpotential(ro, b).f(1.0) == superpotential(ro, 2).f(1.0)


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


@st.composite
def _exp_poly(draw, positive=False):
    """An mpmath function p(x) e^(c x): p is a polynomial q of degree at most
    3, or with positive=True c0 + q^2 with c0 in [1/4, 2], which has no zero."""
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    c = draw(st.floats(-2.0, 2.0))
    c0 = draw(st.floats(0.25, 2.0)) if positive else 0.0

    def f(x):
        q = mpmath.polyval(coeffs, x)
        return ((c0 + q * q) if positive else q) * mpmath.exp(c * x)

    return f


class TestJetRules:
    """catalog's jet rules, the only ones the package writes: each rule's
    rows against 30-digit derivatives of the combined function."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_exp_poly(), _exp_poly(positive=True), st.floats(-1.0, 1.0))
    def test_product_quotient_and_log_derivative_against_mpmath(self, a, b, x):
        with mpmath.workdps(30):
            t = mpmath.mpf(x)

            def rows(f, k=3):
                return [float(mpmath.diff(f, t, j)) for j in range(k)]

            A, B = rows(a), rows(b)
            wants = [(catalog._jmul, rows(lambda s: a(s) * b(s))),
                     (catalog._jdiv, rows(lambda s: a(s) / b(s)))]
            log_want = rows(lambda s: mpmath.diff(b, s) / b(s), 2)

        def check(got, want):
            # the inputs are rounded to floats, so a row may move by a few
            # float spacings of the largest term that enters it
            scale = max(1.0, *map(abs, want), *map(abs, A), *map(abs, B))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-13 * scale

        for order in range(3):
            for rule, want in wants:
                check(rule(A[: order + 1], B[: order + 1]), want[: order + 1])
            if order:
                # one order below its argument
                check(catalog._log_derivative(B[: order + 1]), log_want[:order])


class TestPartnerPotentials:
    def test_zero_superpotential(self):
        w = Function1D.from_rows((0.0, 1.0), np.zeros_like, np.zeros_like, np.zeros_like)
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
            assert fam.seed_zero_prediction(LaguerreSpec(m, alpha, -1)) == want, (m, alpha)

    def test_none_at_integer_alpha_and_positive_argument(self):
        fam = RadialOscillator(1.0, 1.0)
        assert fam.seed_zero_prediction(LaguerreSpec(5, -5.0, -1)) is None
        assert fam.seed_zero_prediction(LaguerreSpec(3, -2.5)) is None
        assert fam.seed_zero_prediction(LaguerreSpec(0, -2.5, -1)) is None


class TestSeedZeroCount:
    @pytest.mark.parametrize("omega", [1.0, 2.0])
    def test_every_positive_zero_is_found(self, omega):
        # seed_zeros against the exact Sturm count of the seed in Q[y], up
        # to ell = 2000, where the zeros lie past y = 800 (L_2^999.5 at
        # ell = 1000 has them at y = 969.85 and 1033.15).  Integer alpha
        # (branch 1 at ell = 1/2) is left out: there the seed has a double
        # zero at y = 0, and the scan's first sample, y = 1e-12, reads as a
        # flagged zero (ROADMAP item 14)
        for ell in (0, 0.5, 3, 20, 200, 390, 400, 600, 1000, 2000):
            fam = RadialOscillator(omega, ell)
            for k in range(1, 5):
                for m in range(7):
                    d = deform.seed_polynomial(fam, k, m)
                    alpha = d.seed.alpha
                    if float(alpha).is_integer():
                        continue
                    seed = exact.laguerre(m, Fraction(alpha), d.seed.sign)
                    want = exact.positive_zeros(seed)
                    assert len(d.singular_points) == want, (ell, k, m)


class TestClassicalSeeds:
    """Seeds with classical parameters take their zeros from their Jacobi
    matrix (polyengine.classical_zeros) and are evaluated once, to certify
    them; the others are scanned."""

    @staticmethod
    def _count_calls(monkeypatch, kernel):
        """The point counts of the calls of a polyengine kernel."""
        calls, inner = [], getattr(pe, kernel)

        def counted(spec, x, order):
            calls.append(np.size(x))
            return inner(spec, x, order)

        monkeypatch.setattr(pe, kernel, counted)
        return calls

    @pytest.mark.parametrize("m", [1, 2, 6, 10])
    def test_dpt_branch_1_seed_makes_one_call_on_2m_points(self, monkeypatch, m):
        fam = TrigDPT(1.5, 3.0)
        spec = fam.seed(fam.A, fam.B, m)[0]
        calls = self._count_calls(monkeypatch, "jacobi_jet")
        assert len(fam.seed_zeros(spec)) == m
        assert calls == [2 * m]

    @pytest.mark.parametrize("k", [2, 3])
    def test_ro_branch_2_and_3_seeds_make_none(self, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("solved")

        fam = RadialOscillator(2.0, 1.5)
        monkeypatch.setattr(pe, "_eigenvalues", refuse)
        calls = self._count_calls(monkeypatch, "laguerre_jet")
        for m in range(1, 7):
            a, b, _ = fam.effective(get_branch(fam, k))
            assert fam.seed_zeros(fam.seed(a, b, m)[0]) == []
        assert calls == []

    @pytest.mark.parametrize("fam, k", [(TrigDPT(1.5, 3.0), 1), (RadialOscillator(2.0, 1.5), 4)])
    def test_a_failed_certificate_returns_the_scan(self, monkeypatch, fam, k):
        # eigenvalues moved off the zeros fail the sign test: the seed's
        # zeros are then exactly those of real_zeros' report, on the same
        # interval and samples as the scan alone takes
        a, b, _ = fam.effective(get_branch(fam, k))
        spec = fam.seed(a, b, 4)[0]
        eigenvalues = pe._eigenvalues
        monkeypatch.setattr(pe, "_eigenvalues", lambda *rec: eigenvalues(*rec) + 1e-3)
        reports, scan = [], pe.real_zeros

        def spy(*args, **kwargs):
            reports.append(scan(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(pe, "real_zeros", spy)
        got = fam.seed_zeros(spec)
        assert len(reports) == 1 and reports[0].count == 4
        if isinstance(fam, TrigDPT):
            assert reports[0] == scan(spec, (-1.0 + 1e-9, 1.0 - 1e-9))
            assert got == sorted(0.5 * math.acos(y) for y in reports[0].zeros)
        else:
            hi = 4.0 * 4 + 2.0 * abs(spec.alpha) + 20.0
            assert reports[0] == scan(spec, (1e-12, hi), samples_per_degree=512)
            assert got == [math.sqrt(2.0 * y / fam.omega) for y in reports[0].zeros]

    @pytest.mark.parametrize("A, B", [
        *((a, -a) for a in (-0.49, -0.3, -0.1, 0.0, 0.2, 0.45)),
        *((-0.5 + e, -0.5 + e) for e in (1e-2, 1e-4, 1e-6)),
        *((-0.5 + e, 2.0) for e in (1e-2, 1e-4, 1e-6, 1e-9)),
        *((3.0, -0.5 + e) for e in (1e-2, 1e-4, 1e-6)),
    ])
    def test_every_dpt_branch_1_seed_has_m_zeros(self, A, B):
        # P_m^(A - 1/2, B - 1/2) has m simple zeros in (-1, 1) at A, B > -1/2
        # (Szego, Thm 3.3.1); A + B = 0 puts nu + mu at -1, where the k = 1
        # entry of the Jacobi matrix is cancelled.  At A = -1/2 + 1e-9 the
        # largest zero lies within about 4e-9 / (m (m + B - 1/2)) of y = 1,
        # past a scan's window
        fam = TrigDPT(A, B)
        for m in range(1, 11):
            points = deform.seed_polynomial(fam, 1, m).singular_points
            assert len(points) == m, (A, B, m)
            assert all(0.0 < x < math.pi / 2 for x in points)


def _mp_laguerre(n, alpha, x):
    # L_n^alpha(x) = sum_i (-1)^i binom(n + alpha, n - i) x^i / i!
    return mpmath.fsum((-1) ** i * mpmath.binomial(n + alpha, n - i) * x**i / mpmath.factorial(i)
                       for i in range(n + 1))


def _mp_jacobi(N, nu, mu, y):
    # sum_s binom(N + nu, N - s) binom(N + mu, s) ((y - 1)/2)^s ((y + 1)/2)^(N - s)
    return mpmath.fsum(mpmath.binomial(N + nu, N - s) * mpmath.binomial(N + mu, s)
                       * ((y - 1) / 2) ** s * ((y + 1) / 2) ** (N - s) for s in range(N + 1))


@st.composite
def _seed_cases(draw):
    k, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    u = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        fam = RadialOscillator(draw(st.floats(0.3, 4.0)), draw(st.floats(0.0, 5.0)))
        x = (0.05 + 6.0 * u) / math.sqrt(fam.omega)
    else:
        fam = TrigDPT(draw(st.floats(-0.45, 4.0)), draw(st.floats(-0.45, 4.0)))
        x = 0.02 + (math.pi / 2 - 0.04) * u
    return fam, k, m, x


class TestOneVariable:
    """Each family states its variable y(x) once (Family.variable); the seed
    jet, eop's states and deform's seeds all read it."""

    def test_deform_and_eop_evaluate_the_seed_at_one_y(self, monkeypatch):
        # at omega = 2.982, 0.5 omega r^2 and 0.5 omega r r differ on 355 of
        # these points
        fam = RadialOscillator(2.982, 1.3)
        d = deform.seed_polynomial(fam, 2, 3)
        psi = eop.eigenfunction_closed_form(eop.EOPSpec("L1", 1, 3, fam))
        r = np.linspace(0.1, 6.0, 1001)
        seen = []
        real = pe.laguerre_jet

        def record(spec, y, order):
            if spec == d.seed:
                seen.append(np.array(y, dtype=float))
            return real(spec, y, order)

        monkeypatch.setattr(pe, "laguerre_jet", record)
        d.phi.f(r)
        psi.f(r)
        assert len(seen) == 2
        assert np.array_equal(seen[0], seen[1])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_seed_cases())
    def test_variable_and_seed_jet_rows_against_mpmath(self, case):
        # rows to order 2 of y(x) and of the seed u(x) = P(y(x)), against
        # 40-digit derivatives of the composition.  The seed rows may differ
        # by the kernel's own error at the float y, carried by the chain rule
        # (the Jacobi recurrence loses digits near nu + mu = -k, ROADMAP
        # item 1), and by 1e-12 of the rows' size
        fam, k, m, x = case
        spec = deform.seed_polynomial(fam, k, m).seed
        if isinstance(fam, RadialOscillator):
            def y_of(t):
                return mpmath.mpf(fam.omega) * t * t / 2

            def p_of(y):
                return _mp_laguerre(spec.n, mpmath.mpf(spec.alpha), spec.sign * y)
        else:
            def y_of(t):
                return mpmath.cos(2 * t)

            def p_of(y):
                return _mp_jacobi(spec.N, mpmath.mpf(spec.nu), mpmath.mpf(spec.mu), y)
        Y = fam.variable(x, 2)
        U = fam.seed_jet(spec, x, 2)
        P = spec.jet(Y[0], 2)
        assert len(Y) == len(U) == 3 and len(fam.variable(x, 1)) == 2
        with mpmath.workdps(40):
            t, y = mpmath.mpf(x), mpmath.mpf(Y[0])
            want_y = [float(mpmath.diff(y_of, t, j)) for j in range(3)]
            want_u = [float(mpmath.diff(lambda t: p_of(y_of(t)), t, j)) for j in range(3)]
            dP = [abs(P[j] - float(mpmath.diff(p_of, y, j))) for j in range(3)]
        carried = (dP[0], abs(Y[1]) * dP[1], abs(Y[2]) * dP[1] + Y[1] ** 2 * dP[2])
        scale = max(1.0, *(abs(v) for v in want_u))
        for j in range(3):
            assert abs(Y[j] - want_y[j]) <= 1e-15 * max(1.0, abs(want_y[j])), j
            assert abs(U[j] - want_u[j]) <= carried[j] + 1e-12 * scale, j


_DPT = TrigDPT(1.0, 1.0)
# solver reports of n levels at 1, ..., n
_LEVELS = {n: spectral.SpectralReport(tuple(float(i + 1) for i in range(n)),
                                      (True,) * n, (0.0,) * n) for n in range(4)}

# calls that must refuse an input they do not support: every eop entry with
# a DPT (no exceptional series), every public function taking a family with
# an object that is not one, and every one taking a library record with
# anything else (or, for isospectrality_report, reports of unequal length)
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
    "classify_regularity": lambda: spectral.classify_regularity(object()),
    "classify_regularity-family": lambda: spectral.classify_regularity(_DPT),
    "isospectrality_report-object": lambda: spectral.isospectrality_report(object(), _LEVELS[2]),
    "isospectrality_report-tuple": lambda: spectral.isospectrality_report(
        _LEVELS[2], _LEVELS[2].eigenvalues),
    # lengths n and 1 broadcast to a wrong shift; others raised a bare ValueError
    "isospectrality_report-levels-2-1": lambda: spectral.isospectrality_report(
        _LEVELS[2], _LEVELS[1]),
    "isospectrality_report-levels-3-2": lambda: spectral.isospectrality_report(
        _LEVELS[3], _LEVELS[2]),
    "isospectrality_report-no-levels": lambda: spectral.isospectrality_report(
        _LEVELS[0], _LEVELS[0]),
    "w0_explicit": lambda: deform.w0_explicit(object(), 1),
    "extend_general_R": lambda: deform.extend_general_R(object(), 2, 1.0),
    "weight_spec": lambda: eop.weight_spec("L1", 1, object()),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_unsupported_family_raises_configuration_error(case):
    with pytest.raises(ConfigurationError):
        _REFUSED[case]()


# the entry points defined for the radial oscillator alone: each refuses
# any other object through RadialOscillator.check
_RO_ONLY = {
    "EOPSpec": lambda fam: eop.EOPSpec("L1", 1, 1, fam),
    "w0_explicit": lambda fam: deform.w0_explicit(fam, 1),
    "w0_partner_constant": lambda fam: deform.w0_partner_constant(fam, 1),
    "classical_ro_eigenfunction": lambda fam: eop.classical_ro_eigenfunction(fam, 1),
    "extend_general_R": lambda fam: deform.extend_general_R(fam, 2, 1.0),
}


@pytest.mark.parametrize("fam", [_DPT, object()], ids=["dpt", "object"])
@pytest.mark.parametrize("case", list(_RO_ONLY))
def test_radial_oscillator_only_entry_points(case, fam):
    # w0_partner_constant raised a bare AttributeError for a DPT, and
    # classical_ro_eigenfunction for either object
    with pytest.raises(ConfigurationError, match="expected a RadialOscillator"):
        _RO_ONLY[case](fam)


class TestBranchResolution:
    """The family alone resolves a branch: Family.effective, get_branch's
    membership rule and the per-class Family.check."""

    RO = RadialOscillator(2.0, 1.0)
    # branch 2 of a DPT, and of the oscillator at another ell
    FOREIGN = [TrigDPT(1.5, 3.0).branches()[1], RadialOscillator(2.0, 1.5).branches()[1]]

    @pytest.mark.parametrize("foreign", FOREIGN, ids=["dpt", "other-ell"])
    def test_foreign_branch_refused(self, foreign):
        # seed_polynomial took the DPT branch and returned a deformation
        # with R = 6.0; this oscillator's branch 2 has R = 4.0
        ro = self.RO
        calls = (
            lambda: get_branch(ro, foreign),
            lambda: superpotential(ro, foreign),
            lambda: si_pair_check(ro, foreign, 4, [1.0]),
            lambda: si_pair_check(ro, 1, foreign, [1.0]),
            lambda: deform.seed_polynomial(ro, foreign, 1),
            lambda: deform.extend_general_R(ro, foreign, 1.0),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match="is not a branch of"):
                call()

    @pytest.mark.parametrize("fam", [RO, TrigDPT(1.5, 3.0)], ids=repr)
    def test_own_branches_accepted(self, fam):
        twin = type(fam)(*(float(v) for v in dataclasses.astuple(fam)))
        for b in fam.branches():
            assert get_branch(fam, b) is b
            # a branch of an equal parameter set is the family's own
            assert get_branch(twin, b) is b

    @pytest.mark.parametrize("fam", [RO, TrigDPT(1.5, 3.0)], ids=repr)
    def test_branch_table_is_built_once(self, fam):
        # a new list of the same records each call; the table is no dataclass
        # field, so ==, hash, repr and asdict see the parameters alone
        first, second = fam.branches(), fam.branches()
        assert first is not second and all(a is b for a, b in zip(first, second))
        twin = type(fam)(*dataclasses.astuple(fam))
        assert twin == fam and hash(twin) == hash(fam) and "_branches" not in repr(fam)
        assert list(dataclasses.asdict(fam)) == [f.name for f in dataclasses.fields(fam)]

    @pytest.mark.parametrize("fam", [RO, TrigDPT(1.5, 3.0)], ids=repr)
    def test_effective(self, fam):
        # only radial-oscillator branch 3 deforms sign-reversed (process 2)
        for b in fam.branches():
            a, bb, process = fam.effective(b)
            reversed_ = isinstance(fam, RadialOscillator) and b.k == 3
            assert (a, bb, process) == ((-b.a, -b.b, 2) if reversed_ else (b.a, b.b, 1))
            d = deform.seed_polynomial(fam, b, 2)
            assert d.process == process
            assert d.seed == fam.seed(a, bb, 2)[0]

    def test_check_is_per_class(self):
        dpt = TrigDPT(1.5, 3.0)
        assert Family.check(dpt) is dpt and RadialOscillator.check(self.RO) is self.RO
        with pytest.raises(ConfigurationError, match="expected a RadialOscillator, got TrigDPT"):
            RadialOscillator.check(dpt)
        with pytest.raises(ConfigurationError, match="expected a Family, got int"):
            Family.check(3)


@pytest.mark.parametrize("samples", [[], np.empty(0)], ids=["list", "array"])
@pytest.mark.parametrize("residual", ["riccati", "si_pair", "schrodinger", "qhj"])
def test_one_empty_sample_rule(residual, samples):
    # the Riccati and shape-invariance residuals raised numpy's bare
    # ValueError (zero-size array to reduction operation maximum)
    fam = RadialOscillator(2.0, 1.0)
    psi = eop.classical_ro_eigenfunction(fam, 0)
    V = partner_potentials(superpotential(fam, 1))[0]
    calls = {
        "riccati": lambda: deform.seed_polynomial(fam, 2, 1).riccati_residual(samples),
        "si_pair": lambda: si_pair_check(fam, 1, 4, samples),
        "schrodinger": lambda: spectral.schrodinger_residual(psi, 0.0, V, samples),
        "qhj": lambda: spectral.qhj_residual(psi, 0.0, V, samples),
    }
    with pytest.raises(ConfigurationError, match="at least one sample"):
        calls[residual]()


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
        "weight_from_superpotential": (lambda: (eop.weight_from_superpotential(
            superpotential(ro, 2), 1.0), r), 1),
    }


# weight_from_superpotential integrates once per point, so it runs on the
# short grid only; its rows are pointwise, and blocking changes nothing
@pytest.mark.parametrize("kind, n", [
    (kind, n) for kind in sorted(_jet_kinds()) for n in (300, 20_000)
    if n == 300 or kind != "weight_from_superpotential"
])
def test_every_function_is_its_jet(kind, n):
    # f, df and d2f are the jet's rows bit for bit, and None past its order;
    # a row past the order is refused by name, and so is an order that is
    # not a nonnegative integer
    make, order = _jet_kinds()[kind]
    fn, interval = make()
    assert fn.order == order
    x = np.linspace(*interval, n)
    rows = (fn.f, fn.df, fn.d2f)
    assert [g is not None for g in rows] == [j <= order for j in range(3)]
    jet = fn.jet(x)
    assert len(jet) == order + 1
    for j in range(order + 1):
        assert len(fn.jet(x, j)) == j + 1
        assert np.array_equal(rows[j](x), jet[j], equal_nan=True)
    missing = "df" if order == 0 else f"d{order + 1}f"
    with pytest.raises(ConfigurationError, match=f"carries no {missing},"):
        fn.jet(x, order + 1)
    # a negative order returned () from a closed form and raised a bare
    # IndexError from an eigenfunction
    for k in (-1, 1.0, True):
        with pytest.raises(ConfigurationError, match="jet order"):
            fn.jet(x, k)


@pytest.mark.parametrize("residual", ["riccati", "si_pair", "schrodinger", "qhj"])
@pytest.mark.parametrize("family, bad", [
    (RadialOscillator(2.0, 1.0), [0.0, 1.0]),
    (RadialOscillator(2.0, 1.0), [1.0, math.nan]),
    (RadialOscillator(2.0, 1.0), [1.0, math.inf]),
    (RadialOscillator(2.0, 1.0), [-1.0, 1.0]),
    (TrigDPT(1.5, 3.0), [0.0, 0.5]),
    (TrigDPT(1.5, 3.0), [0.5, math.pi / 2]),
    (TrigDPT(1.5, 3.0), [0.5, math.inf]),
    (TrigDPT(1.5, 3.0), [-math.inf, 0.5]),
], ids=["ro-0", "ro-nan", "ro-inf", "ro-negative", "dpt-0", "dpt-pi/2", "dpt-inf", "dpt--inf"])
def test_residual_samples_lie_in_the_open_domain(residual, family, bad):
    # si_pair_check(RadialOscillator(2, 1), 1, 4, [0, 1]) and the Riccati
    # residual at [1, nan] returned nan; the spectral residuals, which take
    # the domain from psi, returned 6.2e-17 at [-1, 1] and 0.0 at [nan, 1]
    # (an RO L1 state, n = m = 1), and raised a bare RuntimeWarning at 0 and
    # inf under -W error.  Here psi is a function of order 2 on the domain
    psi, V = superpotential(family, 1), potential(family)
    calls = {
        "riccati": lambda: deform.seed_polynomial(family, 2, 1).riccati_residual(bad),
        "si_pair": lambda: si_pair_check(family, 1, 4, bad),
        "schrodinger": lambda: spectral.schrodinger_residual(psi, 1.0, V, bad),
        "qhj": lambda: spectral.qhj_residual(psi, 1.0, V, bad),
    }
    with pytest.raises(ConfigurationError, match="open domain"):
        calls[residual]()

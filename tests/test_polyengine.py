"""Oracle-based tests of the polynomial engine.

Independent oracles: direct series summation, centered finite differences,
and companion-matrix roots.  The recurrence implementations under test never
appear on both sides of a comparison.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoshift import polyengine
from isoshift.polyengine import (
    JacobiSpec,
    LaguerreSpec,
    jacobi_deriv,
    jacobi_deriv2,
    jacobi_eval,
    laguerre_deriv,
    laguerre_deriv2,
    laguerre_eval,
    laguerre_jet,
    real_zeros,
    sign_change_zeros,
)
from isoshift.errors import ConfigurationError


def gbinom(t, k):
    out = 1.0
    for j in range(1, k + 1):
        out *= (t - k + j) / j
    return out


def laguerre_series(n, alpha, x):
    """Direct summation sum_k C(n+alpha, n-k) (-x)^k / k!."""
    total = 0.0
    fact = 1.0
    for k in range(n + 1):
        if k:
            fact *= k
        total += gbinom(n + alpha, n - k) * (-x) ** k / fact
    return total


def jacobi_series(N, nu, mu, y):
    total = 0.0
    for s in range(N + 1):
        total += (
            gbinom(N + nu, N - s)
            * gbinom(N + mu, s)
            * ((y - 1.0) / 2.0) ** s
            * ((y + 1.0) / 2.0) ** (N - s)
        )
    return total


class TestLaguerreEval:
    def test_degree_zero_is_one(self):
        for alpha in (-3.2, 0.0, 4.5):
            for x in (-7.0, 0.0, 11.0):
                assert laguerre_eval(LaguerreSpec(0, alpha), x) == 1.0

    def test_degree_one_closed_form(self):
        assert laguerre_eval(LaguerreSpec(1, 0.5), 2.0) == pytest.approx(0.5 + 1 - 2)
        assert laguerre_eval(LaguerreSpec(1, -1.7), -0.7) == pytest.approx(0.0)

    def test_against_series_oracle(self):
        assert laguerre_eval(LaguerreSpec(2, 0.5), -1.0) == pytest.approx(
            laguerre_series(2, 0.5, -1.0), rel=1e-13
        )
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 9))
            alpha = float(rng.uniform(-5, 5))
            x = float(rng.uniform(-15, 15))
            got = laguerre_eval(LaguerreSpec(n, alpha), x)
            want = laguerre_series(n, alpha, x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10 * max(1, abs(want)))

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3, 9, 17)
        spec = LaguerreSpec(4, -2.3)
        vec = laguerre_eval(spec, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert laguerre_eval(spec, float(x)) == v


class TestLaguerreDerivatives:
    def test_degree_zero_and_one(self):
        assert laguerre_deriv(LaguerreSpec(0, 1.3), 4.0) == 0.0
        assert laguerre_deriv(LaguerreSpec(1, 2.7), -5.0) == -1.0

    def test_finite_difference_oracle(self):
        spec = LaguerreSpec(3, 1.5)
        x, h = 2.0, 1e-5
        fd = (laguerre_eval(spec, x + h) - laguerre_eval(spec, x - h)) / (2 * h)
        assert laguerre_deriv(spec, x) == pytest.approx(fd, rel=1e-8)

    def test_second_derivative_fd_oracle(self):
        spec = LaguerreSpec(5, -1.2)
        x, h = 1.3, 1e-4
        fd = (
            laguerre_eval(spec, x + h)
            - 2 * laguerre_eval(spec, x)
            + laguerre_eval(spec, x - h)
        ) / h**2
        assert laguerre_deriv2(spec, x) == pytest.approx(fd, rel=1e-6)

    def test_recurrence_identity_500_draws(self):
        # d/dx L_n^a = L_n^a - L_n^(a+1)
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(0, 11))
            alpha = float(rng.uniform(-5, 5))
            x = float(rng.uniform(-20, 20))
            lhs = laguerre_deriv(LaguerreSpec(n, alpha), x)
            val = laguerre_eval(LaguerreSpec(n, alpha), x)
            rhs = val - laguerre_eval(LaguerreSpec(n, alpha + 1.0), x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(val))

    def test_ode_residual(self):
        # x u'' + (alpha + 1 - x) u' + n u = 0
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            alpha = float(rng.uniform(-4, 4))
            x = float(rng.uniform(-10, 10))
            spec = LaguerreSpec(n, alpha)
            u = laguerre_eval(spec, x)
            res = (
                x * laguerre_deriv2(spec, x)
                + (alpha + 1 - x) * laguerre_deriv(spec, x)
                + n * u
            )
            assert abs(res) <= 1e-9 * max(1.0, abs(u), abs(x * u))


def _mp_laguerre_rows(n, alpha, x, order):
    """[[d^j/dx^j L_k^alpha(x) for j <= order] for k <= n], 40-digit series sums."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        rows = []
        for k in range(n + 1):
            # L_k^a(x) = sum_i C(k + a, k - i) (-x)^i / i!, differentiated termwise
            coef = [mpmath.mpf(1)] * (k + 1)
            for i in range(k + 1):
                for j in range(1, k - i + 1):
                    coef[i] *= (k + a - (k - i) + j) / j
            rows.append([
                mpmath.fsum(coef[i] * (-1) ** i * x ** (i - d) / mpmath.factorial(i - d)
                            for i in range(d, k + 1))
                for d in range(order + 1)
            ])
        return rows


@st.composite
def _laguerre_cases(draw):
    n = draw(st.integers(0, 20))
    # alpha in (-n-1, 5): arbitrary reals and the half-integers on it
    alpha = draw(st.one_of(
        st.floats(-n - 1, 5, exclude_min=True, exclude_max=True),
        st.integers(-2 * n - 1, 9).map(lambda k: k / 2.0),
    ))
    x = draw(st.floats(0, 60, exclude_min=True)) * draw(st.sampled_from([1.0, -1.0]))
    return n, alpha, x


class TestLaguerreJet:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_laguerre_cases())
    @example((20, -19.861136094826346, -2.4663984809771766))
    @example((20, -20.5, 3.5))
    @example((15, 0.5, 60.0))
    @example((7, -7.5, 1e-9))
    def test_mpmath_oracle_sweep(self, case):
        # The scale includes the largest |L_k^(j)| (k <= n, j <= d) that the
        # recurrence passes through.  Near alpha = -n, and near zeros on the
        # oscillatory range x > 0, the result is far smaller than those
        # intermediates and no forward recurrence keeps 1e-12 relative to
        # max(1, |value|) alone: both this kernel and the parameter-shift
        # path miss that by up to 2e-11 at n = 20.
        n, alpha, x = case
        got = laguerre_jet(LaguerreSpec(n, alpha), x, 2)
        rows = _mp_laguerre_rows(n, alpha, x, 2)
        for d in range(3):
            want = rows[n][d]
            scale = max(1.0, max(abs(float(r[j])) for r in rows for j in range(d + 1)))
            assert abs(float(got[d] - want)) <= 1e-12 * scale, (d, float(want))

    def test_rows_are_the_public_evaluators(self):
        spec = LaguerreSpec(6, -2.7)
        xs = np.linspace(-9, 14, 31)
        L, dL, d2L = laguerre_jet(spec, xs, 2)
        assert np.array_equal(L, laguerre_eval(spec, xs))
        assert np.array_equal(dL, laguerre_deriv(spec, xs))
        assert np.array_equal(d2L, laguerre_deriv2(spec, xs))
        for x, row in zip(xs[::5], np.transpose([L, dL, d2L])[::5]):
            assert laguerre_jet(spec, float(x), 2) == tuple(row)

    def test_block_invariance(self):
        block = polyengine._BLOCK
        x = np.linspace(-30, 50, 3 * block + 123)
        for n, alpha in [(0, 0.5), (1, -1.7), (12, -11.5), (17, 2.25)]:
            spec = LaguerreSpec(n, alpha)
            whole = laguerre_jet(spec, x, 3)
            cuts = [0, 1, 7, block - 1, block + 5, 2 * block + 2, x.size]
            parts = [laguerre_jet(spec, x[a:b], 3) for a, b in zip(cuts, cuts[1:])]
            for d in range(4):
                assert np.array_equal(whole[d], np.concatenate([p[d] for p in parts]))
            grid = laguerre_jet(spec, x[:-3].reshape(-1, 8), 3)
            assert all(np.array_equal(g.ravel(), w[:-3]) for g, w in zip(grid, whole))

    def test_higher_rows_vanish_past_the_degree(self):
        got = laguerre_jet(LaguerreSpec(2, 0.5), np.array([0.0, 1.0, 3.0]), 4)
        assert np.array_equal(got[2], np.full(3, 1.0))  # L_2'' = 1 for any alpha
        assert not np.any(got[3]) and not np.any(got[4])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            laguerre_jet(LaguerreSpec(2, 0.5), 1.0, -1)


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi_eval(JacobiSpec(0, -2.0, 3.5), 0.4) == 1.0

    def test_degree_one_closed_form(self):
        nu, mu, y = 0.7, -0.2, 0.3
        want = (nu + 1) + (nu + mu + 2) * (y - 1) / 2
        assert jacobi_eval(JacobiSpec(1, nu, mu), y) == pytest.approx(want)
        assert jacobi_deriv(JacobiSpec(1, nu, mu), y) == pytest.approx((nu + mu + 2) / 2)
        assert jacobi_deriv(JacobiSpec(0, nu, mu), y) == 0.0

    def test_against_series_oracle(self):
        assert jacobi_eval(JacobiSpec(2, 0.5, -0.25), 0.3) == pytest.approx(
            jacobi_series(2, 0.5, -0.25, 0.3), rel=1e-13
        )
        rng = np.random.default_rng(11)
        for _ in range(200):
            N = int(rng.integers(0, 8))
            nu = float(rng.uniform(-4, 4))
            mu = float(rng.uniform(-4, 4))
            y = float(rng.uniform(-1.5, 1.5))
            got = jacobi_eval(JacobiSpec(N, nu, mu), y)
            want = jacobi_series(N, nu, mu, y)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * max(1, abs(want)))

    def test_degenerate_recurrence_cases(self):
        # nu + mu hitting -k triggers the series path; values must still match
        for N, nu, mu in [(3, -1.0, -1.0), (4, 0.5, -2.5), (2, -3.0, 1.0)]:
            for y in (-0.8, 0.1, 0.9):
                got = jacobi_eval(JacobiSpec(N, nu, mu), y)
                assert got == pytest.approx(jacobi_series(N, nu, mu, y), rel=1e-11, abs=1e-11)

    def test_deriv_fd_oracle(self):
        spec = JacobiSpec(4, 1.0, 2.0)
        y, h = 0.5, 1e-6
        fd = (jacobi_eval(spec, y + h) - jacobi_eval(spec, y - h)) / (2 * h)
        assert jacobi_deriv(spec, y) == pytest.approx(fd, rel=1e-8)

    def test_ode_residual(self):
        # (1-y^2) u'' + [mu - nu - (nu+mu+2) y] u' + N(N+nu+mu+1) u = 0
        rng = np.random.default_rng(5)
        for _ in range(100):
            N = int(rng.integers(0, 8))
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
            assert abs(res) <= 1e-8 * max(1.0, abs(u))


class TestRealZeros:
    def test_degree_one_positive_root(self):
        rep = real_zeros(LaguerreSpec(1, 0.5), (0.0, 10.0))
        assert rep.count == 1
        assert rep.zeros[0] == pytest.approx(1.5, abs=1e-11)

    def test_degree_one_negative_root(self):
        rep = real_zeros(LaguerreSpec(1, -1.7), (-10.0, 0.0))
        assert rep.count == 1
        assert rep.zeros[0] == pytest.approx(-0.7, abs=1e-11)

    def test_companion_matrix_oracle(self):
        n, alpha = 3, 2.5
        rep = real_zeros(LaguerreSpec(n, alpha), (0.0, 30.0))
        assert rep.count == 3
        coeffs = [
            (-1.0) ** k * gbinom(n + alpha, n - k) / math.factorial(k)
            for k in range(n + 1)
        ]
        roots = sorted(np.roots(coeffs[::-1]).real)
        for got, want in zip(rep.zeros, roots):
            assert got == pytest.approx(want, abs=1e-9)

    def test_classical_zero_counts(self):
        for n in range(9):
            for alpha in (0.0, 0.5, 2.5):
                rep = real_zeros(LaguerreSpec(n, alpha), (1e-12, 4 * n + 2 * alpha + 20))
                assert rep.count == n

    def test_batched_bisection_matches_one_bracket_at_a_time(self):
        def one_by_one(f, xs, fs, tol=1e-12):
            out = []
            for a, b, fa, fb in zip(xs[:-1], xs[1:], fs[:-1], fs[1:]):
                if fa * fb >= 0.0:
                    continue
                while b - a > tol:
                    mid = 0.5 * (a + b)
                    fm = f(mid)
                    if fm == 0.0:
                        a = b = mid
                        break
                    if fa * fm < 0.0:
                        b = mid
                    else:
                        a, fa = mid, fm
                out.append(0.5 * (a + b))
            return out

        cases = [
            (LaguerreSpec(7, 0.5), (1e-12, 60.0), 512),
            (LaguerreSpec(5, -5.3), (-40.0, -1e-12), 512),
            (JacobiSpec(6, 0.5, -1.5), (-1.0 + 1e-9, 1.0 - 1e-9), 64),
            (JacobiSpec(5, -1.0, -1.0), (-1.0 + 1e-9, 1.0 - 1e-9), 64),
        ]
        for spec, interval, per_degree in cases:
            rep = real_zeros(spec, interval, samples_per_degree=per_degree)
            f = (lambda x: laguerre_eval(spec, x)) if isinstance(spec, LaguerreSpec) \
                else (lambda x: jacobi_eval(spec, x))
            xs = np.linspace(*interval, max(per_degree * (spec.degree + 1), 128))
            assert not any(rep.multiplicity_flags)
            assert rep.zeros == one_by_one(f, xs, f(xs))
            assert rep.count >= 1

    def test_roots_where_the_tolerance_is_below_the_float_spacing(self):
        # the float spacing near 1e4 is 1.8e-12, so no bracket ever gets
        # narrower than bisect_tol = 1e-12; bisection stops at adjacent floats
        spec = LaguerreSpec(2, 9999.123456)
        rep = real_zeros(spec, (9000.0, 11000.0))
        coeffs = [(-1.0) ** k * gbinom(2 + spec.alpha, 2 - k) / math.factorial(k) for k in range(3)]
        roots = sorted(np.roots(coeffs[::-1]).real)
        assert roots == pytest.approx([9901.11783888, 10101.12907312], abs=1e-8)
        assert rep.count == 2
        assert rep.zeros == pytest.approx(roots, rel=1e-12)

    def test_unknown_spec_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            real_zeros((2, 0.5), (0.0, 1.0))

    def test_jacobi_zero_count(self):
        rep = real_zeros(JacobiSpec(4, 0.5, 0.5), (-1.0, 1.0))
        assert rep.count == 4

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            real_zeros(LaguerreSpec(2, 0.5), (3.0, 1.0))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            LaguerreSpec(-1, 0.5)
        with pytest.raises(ValueError):
            JacobiSpec(-2, 0.0, 0.0)


class TestSignChangeZeros:
    def test_floor_flags_samples_and_skips_their_brackets(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        fs = np.array([1.0, 1e-12, -1.0, -1.0, 1.0])
        f = lambda x: np.interp(x, xs, fs)
        rep = sign_change_zeros(f, xs, fs, 1e-10, 1e-12)
        assert rep.multiplicity_flags == [True, False]
        assert rep.zeros[0] == 1.0
        assert rep.zeros[1] == pytest.approx(3.5, abs=1e-12)
        assert rep.crossings == rep.zeros[1:]

    def test_wide_tolerance_returns_midpoints_without_evaluating(self):
        def f(x):
            raise AssertionError("no bisection step expected")

        xs = np.linspace(0.0, 1.0, 11)
        rep = sign_change_zeros(f, xs, np.cos(8.0 * xs), 0.0, math.inf)
        assert rep.zeros == pytest.approx([0.15, 0.55, 0.95], abs=1e-15)

    def test_exact_zero_collapses_and_zero_tolerance_ends_at_adjacent_floats(self):
        f = lambda x: np.asarray(x) - 0.25
        xs = np.array([0.0, 1.0])
        assert sign_change_zeros(f, xs, f(xs), 0.0, 0.0).zeros == [0.25]
        g = lambda x: np.asarray(x) - 0.3
        z = sign_change_zeros(g, xs, g(xs), 0.0, 0.0).zeros[0]
        assert abs(z - 0.3) <= np.spacing(0.3)

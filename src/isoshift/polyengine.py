"""Associated Laguerre and Jacobi polynomials for arbitrary real parameters.

Everything downstream (superpotential deformations, exceptional-polynomial
eigenfunctions, regularity scans) reduces to evaluating L_n^alpha and
P_N^(nu,mu) with parameters that may be well outside the classical ranges
(alpha <= -1, nu + mu a negative integer).  Evaluation is by the three-term
recurrence in the degree, which stays stable for the moderate degrees and
arguments used here; the hypergeometric series is kept only as a fallback for
the degenerate Jacobi recurrence and as a test oracle.

Laguerre values and derivatives come from one kernel, laguerre_jet: the
recurrence differentiated term by term carries (L, L', ..., L^(order)) of
every degree in one upward pass.  Array arguments are cut into blocks of
_BLOCK points and each block runs the whole recurrence in preallocated
buffers (in-place ufuncs), so the working set stays in cache and no step
allocates; the results are bitwise independent of the blocking.
laguerre_eval, laguerre_deriv and laguerre_deriv2 are its rows.  Jacobi
derivatives still use the parameter-shift identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LaguerreSpec",
    "JacobiSpec",
    "ZeroReport",
    "laguerre_jet",
    "laguerre_eval",
    "laguerre_deriv",
    "laguerre_deriv2",
    "jacobi_eval",
    "jacobi_deriv",
    "jacobi_deriv2",
    "real_zeros",
]


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and parameter of an associated Laguerre polynomial L_n^alpha.

    alpha may be any real number, including alpha <= -1.
    """

    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be nonnegative, got {self.n}")

    @property
    def degree(self):
        return self.n


@dataclass(frozen=True)
class JacobiSpec:
    """Degree and parameters of a Jacobi polynomial P_N^(nu,mu).

    nu and mu may be any reals; the degenerate recurrence cases
    (nu + mu a nonpositive integer >= -2N) are handled by series evaluation.
    """

    N: int
    nu: float
    mu: float

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"degree must be nonnegative, got {self.N}")

    @property
    def degree(self):
        return self.N


@dataclass
class ZeroReport:
    """Real roots found in an interval, sorted ascending.

    multiplicity_flags[i] is True when the bracket for zeros[i] was degenerate
    (a scan sample landed essentially on the root, so the sign-change test
    could not certify simplicity).
    """

    zeros: list = field(default_factory=list)
    multiplicity_flags: list = field(default_factory=list)

    @property
    def count(self):
        return len(self.zeros)


def _wrap(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _unwrap(out, scalar):
    return float(out) if scalar else out


# points per block of the array recurrence: its working set, two jets of
# (order + 1) rows plus scratch rows, then stays in cache
_BLOCK = 8192


def _jet_block(n, a, x, prev, cur, t, w):
    """The differentiated recurrence on one block, in place.

    prev and cur hold the jets of degrees k - 1 and k and trade places every
    step; the jet of degree n ends in prev when n is even, in cur when odd.
    """
    order = prev.shape[0] - 1
    # degrees 0 and 1: L_0 = 1, L_1 = alpha + 1 - x, L_1' = -1
    prev.fill(0.0)
    prev[0] = 1.0
    cur.fill(0.0)
    np.subtract(a + 1.0, x, out=cur[0])
    if order:
        cur[1] = -1.0
    j = np.arange(1.0, order + 1.0)[:, None]
    for k in range(1, n):
        # a degree-(k+1) polynomial has no derivatives beyond order k+1
        rows = min(order, k + 1) + 1
        p, c, u = prev[:rows], cur[:rows], w[:rows]
        np.subtract(2.0 * k + a + 1.0, x, out=t)
        np.multiply(p, k + a, out=p)
        np.multiply(t, c, out=u)
        np.subtract(u, p, out=p)
        if rows > 1:
            np.multiply(c[:-1], j[: rows - 1], out=u[1:])
            np.subtract(p[1:], u[1:], out=p[1:])
        np.divide(p, k + 1.0, out=p)
        prev, cur = cur, prev


def laguerre_jet(spec: LaguerreSpec, x, order):
    """(L, L', ..., L^(order)) of L_n^alpha at x, from one recurrence.

    Differentiating L_{k+1} = ((2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1})
    / (k + 1) j times gives the same recurrence for the j-th derivatives,
    with the extra term -j L_k^(j-1) in the numerator.  One upward pass in
    the degree therefore carries the value and every derivative, with no
    parameter shift.  Array x is processed in place over blocks of _BLOCK
    points, so each step writes into buffers that stay in cache instead of
    allocating full-length temporaries.  Each point's arithmetic is the same
    whatever the block size, so a call on a long array equals, bit for bit,
    calls on its pieces, and the value row equals laguerre_eval.

    Accepts scalar or ndarray x; returns a tuple of order + 1 floats or of
    arrays shaped like x.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    arr, scalar = _wrap(x)
    n, a = spec.n, spec.alpha
    flat = arr.reshape(-1)
    out = np.empty((order + 1, flat.size))
    size = min(flat.size, _BLOCK)
    # rows: the step's (2k + alpha + 1 - x), a second jet, products
    scratch = np.empty((2 * order + 3, size))
    for lo in range(0, flat.size, _BLOCK):
        m = min(_BLOCK, flat.size - lo)
        res, other = out[:, lo : lo + m], scratch[1 : order + 2, :m]
        # the degree-n jet lands in the block of out, with no copy
        prev, cur = (other, res) if n % 2 else (res, other)
        _jet_block(n, a, flat[lo : lo + m], prev, cur, scratch[0, :m], scratch[order + 2 :, :m])
    if scalar:
        return tuple(float(v[0]) for v in out)
    return tuple(v.reshape(arr.shape) for v in out)


def laguerre_eval(spec: LaguerreSpec, x):
    """Evaluate L_n^alpha(x) by upward recurrence in the degree.

    Total function: finite output for any finite (alpha, x). Accepts scalar
    or ndarray x and returns the matching kind.  The order-0 case of
    laguerre_jet.
    """
    return laguerre_jet(spec, x, 0)[0]


def laguerre_deriv(spec: LaguerreSpec, x):
    """d/dx L_n^alpha(x), the first-order row of laguerre_jet."""
    return laguerre_jet(spec, x, 1)[1]


def laguerre_deriv2(spec: LaguerreSpec, x):
    """d^2/dx^2 L_n^alpha(x), the second-order row of laguerre_jet."""
    return laguerre_jet(spec, x, 2)[2]


def _gbinom(t, k):
    # binomial(t, k) for real t, integer k >= 0, as a product (no gammas,
    # valid at negative-integer t)
    out = 1.0
    for j in range(1, k + 1):
        out *= (t - k + j) / j
    return out


def _jacobi_series(N, nu, mu, y):
    # P_N^(nu,mu)(y) = sum_s C(N+nu, N-s) C(N+mu, s) ((y-1)/2)^s ((y+1)/2)^(N-s)
    # Finite sum, defined for all real nu, mu; used when the recurrence
    # denominator 2k(k+nu+mu)(2k+nu+mu-2) vanishes for some k <= N.
    half_m = (y - 1.0) / 2.0
    half_p = (y + 1.0) / 2.0
    total = np.zeros_like(np.asarray(y, dtype=float))
    for s in range(N + 1):
        c = _gbinom(N + nu, N - s) * _gbinom(N + mu, s)
        total = total + c * half_m**s * half_p ** (N - s)
    return total


def _jacobi_recurrence_degenerate(N, nu, mu, tol=1e-9):
    s = nu + mu
    for k in range(2, N + 1):
        if abs(k + s) < tol or abs(2.0 * k + s - 2.0) < tol:
            return True
    return False


def jacobi_eval(spec: JacobiSpec, y):
    """Evaluate P_N^(nu,mu)(y).

    Uses the three-term recurrence in the degree; switches to the explicit
    hypergeometric series whenever a recurrence denominator
    2k(k+nu+mu)(2k+nu+mu-2) vanishes for some k <= N.
    """
    arr, scalar = _wrap(y)
    N, nu, mu = spec.N, spec.nu, spec.mu
    if N == 0:
        return _unwrap(np.ones_like(arr), scalar)
    if _jacobi_recurrence_degenerate(N, nu, mu):
        return _unwrap(_jacobi_series(N, nu, mu, arr), scalar)
    prev = np.ones_like(arr)
    cur = 0.5 * (nu - mu) + 0.5 * (nu + mu + 2.0) * arr
    s = nu + mu
    for k in range(2, N + 1):
        c1 = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
        c2 = (2.0 * k + s - 1.0) * ((2.0 * k + s) * (2.0 * k + s - 2.0) * arr + nu * nu - mu * mu)
        c3 = 2.0 * (k + nu - 1.0) * (k + mu - 1.0) * (2.0 * k + s)
        prev, cur = cur, (c2 * cur - c3 * prev) / c1
    return _unwrap(cur, scalar)


def jacobi_deriv(spec: JacobiSpec, y):
    """d/dy P_N^(nu,mu)(y) = (N+nu+mu+1)/2 * P_{N-1}^(nu+1,mu+1)(y)."""
    arr, scalar = _wrap(y)
    if spec.N == 0:
        return _unwrap(np.zeros_like(arr), scalar)
    inner = jacobi_eval(JacobiSpec(spec.N - 1, spec.nu + 1.0, spec.mu + 1.0), arr)
    fac = 0.5 * (spec.N + spec.nu + spec.mu + 1.0)
    return _unwrap(fac * np.asarray(inner), scalar)


def jacobi_deriv2(spec: JacobiSpec, y):
    """Second derivative, by applying the parameter-shift rule twice."""
    arr, scalar = _wrap(y)
    if spec.N < 2:
        return _unwrap(np.zeros_like(arr), scalar)
    inner = jacobi_eval(JacobiSpec(spec.N - 2, spec.nu + 2.0, spec.mu + 2.0), arr)
    fac = 0.25 * (spec.N + spec.nu + spec.mu + 1.0) * (spec.N + spec.nu + spec.mu + 2.0)
    return _unwrap(fac * np.asarray(inner), scalar)


def _poly_callable(poly):
    if isinstance(poly, LaguerreSpec):
        return (lambda x: laguerre_eval(poly, x)), poly.n
    if isinstance(poly, JacobiSpec):
        return (lambda x: jacobi_eval(poly, x)), poly.N
    raise TypeError(f"expected LaguerreSpec or JacobiSpec, got {type(poly).__name__}")


def real_zeros(poly, interval, bisect_tol=1e-12, samples_per_degree=64):
    """Locate all real roots of a polynomial spec inside an open interval.

    Dense sign-scan (at least 64*(degree+1) samples) followed by bisection to
    1e-12 absolute.  All brackets are bisected together, with one array
    evaluation per halving step; each bracket stops at its own width, so
    the roots equal those of bisecting the brackets one by one.  A sample
    landing within ~1e-13 of a root is flagged in multiplicity_flags rather
    than treated as an error.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval ({lo}, {hi})")
    f, degree = _poly_callable(poly)
    n_samples = max(samples_per_degree * (degree + 1), 128)
    xs = np.linspace(lo, hi, n_samples)
    fs = np.asarray(f(xs))
    scale = max(np.max(np.abs(fs)), 1e-300)

    on_root = np.abs(fs) <= 1e-13 * scale
    crossing = ~on_root[:-1] & ~on_root[1:] & (fs[:-1] * fs[1:] < 0.0)
    idx = np.nonzero(crossing)[0]
    a, b, fa = xs[idx], xs[idx + 1], fs[idx]
    active = b - a > bisect_tol
    while np.any(active):
        i = np.nonzero(active)[0]
        mid = 0.5 * (a[i] + b[i])
        fm = np.asarray(f(mid))
        # an exact zero collapses its bracket; otherwise keep the sign change
        exact = fm == 0.0
        left = ~exact & (fa[i] * fm < 0.0)
        right = ~exact & ~left
        b[i[exact | left]] = mid[exact | left]
        a[i[exact | right]] = mid[exact | right]
        fa[i[right]] = fm[right]
        active[i] = b[i] - a[i] > bisect_tol

    zeros = list(xs[on_root]) + list(0.5 * (a + b))
    flags = [True] * int(np.count_nonzero(on_root)) + [False] * idx.size
    order = np.argsort(zeros, kind="stable")
    return ZeroReport(
        zeros=[float(zeros[j]) for j in order],
        multiplicity_flags=[flags[j] for j in order],
    )

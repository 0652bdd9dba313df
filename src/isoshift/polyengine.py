"""Associated Laguerre and Jacobi polynomials for arbitrary real parameters.

Everything downstream (superpotential deformations, exceptional-polynomial
eigenfunctions, regularity scans) reduces to evaluating L_n^alpha and
P_N^(nu,mu) with parameters that may be well outside the classical ranges
(alpha <= -1, nu + mu a negative integer).  Evaluation is by the three-term
recurrence in the degree, which stays stable for the moderate degrees and
arguments used here; the hypergeometric series is kept only as a fallback for
the degenerate Jacobi recurrence and as a test oracle.

Every derivative row is a value at shifted parameters: d^j/dx^j
L_n^alpha(sign x) = (-sign)^j L_(n-j)^(alpha+j)(sign x) and d^j/dy^j
P_N^(nu,mu) = prod_(i<=j) (N + nu + mu + i)/2 P_(N-j)^(nu+j,mu+j) (DLMF
18.9.23, 18.9.15).  Laguerre values and derivatives come from one kernel,
laguerre_jet, at x or, for a spec of sign -1, at -x, in upward passes over
the degree of the one value recurrence.  At alpha > -1 (a classical spec)
one pass gives every row: L_k^(alpha+j) is the j-th running sum of the
values, L_k^(alpha+1) = sum_(i<=k) L_i^alpha (DLMF 18.9.14 summed over the
degree), so a step makes 5 + order array passes.  At alpha <= -1 a sum
near alpha = -k is far smaller than its terms and loses digits, so each
row runs its own value recurrence instead.  Array arguments are cut into
blocks of _BLOCK points and each block runs the whole recurrence in
preallocated buffers (in-place ufuncs), so the working set stays in cache
and no step allocates.  Each step is pre-scaled by 1/(k + 1): its scalar
coefficient -(k + alpha)/(k + 1) and the row t' = ((2k + alpha + 1) ∓ x) *
(1/(k + 1)) replace a division of every row, so no pass is a division.  A
point's arithmetic does not depend on the blocking or on the order asked
for, so results are bitwise independent of the block size and every row
equals the same row of a lower-order call; the value row is
laguerre_eval's.  laguerre_eval, laguerre_deriv and laguerre_deriv2 are
its rows.  jacobi_jet takes its rows from jacobi_eval at the shifted
parameters, and jacobi_deriv and jacobi_deriv2 are its rows.  Each spec
evaluates itself through its kernel, spec.jet(y, order), looked up at each
call; real_zeros, classical_zeros and every seed jet
(catalog.Family.seed_jet) go through it.  _blocks, the slices of _BLOCK
points, is the package's one block loop: every jet above this kernel
(catalog._jet_function) and spectral.schrodinger_residual run over the
same blocks, each bitwise as in one pass.

A spec is classical when its polynomials are orthogonal for a positive
weight: Laguerre at alpha > -1, Jacobi at nu, mu > -1.  Its degree-n
member then has n simple real zeros, the eigenvalues of the n x n
symmetric tridiagonal Jacobi matrix of its orthonormal recurrence
(Golub and Welsch, Math. Comp. 23 (1969) 221), which jacobi_matrix builds;
eop's Gauss rules are built from the same matrix.  classical_zeros takes
a classical spec's zeros from that matrix and certifies them by one
evaluation.  Every other spec is scanned: sign_change_zeros, a sign scan
whose brackets are refined together by ITP (interpolate, truncate,
project), is the package's scanning zero finder, and real_zeros applies it
to a polynomial spec.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_index, check_real

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
    "jacobi_jet",
    "jacobi_matrix",
    "classical_zeros",
    "sign_change_zeros",
    "real_zeros",
]


@dataclass(frozen=True)
class LaguerreSpec:
    """The polynomial x -> L_n^alpha(sign x), L_n^alpha associated Laguerre.

    n is a nonnegative integer (errors.check_index), alpha any finite real,
    alpha <= -1 included (errors.check_real), and sign 1 (the default) or -1.
    """

    n: int
    alpha: float
    sign: int = 1

    def __post_init__(self):
        check_index(self.n, "degree")
        check_real(self.alpha, "alpha")
        sign = self.sign
        if isinstance(sign, bool) or not isinstance(sign, numbers.Integral) or sign not in (1, -1):
            raise ConfigurationError(f"sign must be the integer 1 or -1, got {sign!r}")

    @property
    def degree(self):
        return self.n

    def jet(self, x, order):
        """laguerre_jet(self, x, order), the kernel looked up at each call."""
        return laguerre_jet(self, x, order)


@dataclass(frozen=True)
class JacobiSpec:
    """Degree and parameters of a Jacobi polynomial P_N^(nu,mu).

    N is a nonnegative integer (see errors.check_index); nu and mu may be
    any finite reals (errors.check_real); the degenerate recurrence cases
    (nu + mu a nonpositive integer >= -2N) are handled by series evaluation.
    """

    N: int
    nu: float
    mu: float

    def __post_init__(self):
        check_index(self.N, "degree")
        check_real(self.nu, "nu")
        check_real(self.mu, "mu")

    @property
    def degree(self):
        return self.N

    def jet(self, y, order):
        """jacobi_jet(self, y, order), the kernel looked up at each call."""
        return jacobi_jet(self, y, order)


@dataclass
class ZeroReport:
    """Real roots found in an interval, sorted ascending.

    multiplicity_flags[i] is True when zeros[i] is a scan sample whose value
    lay within the floor, so no sign change certifies it.  half_widths[i] is
    the half-width of the bracket that certifies crossings[i]: a sign change
    of f lies within that distance of it, its certified error.  The bracket
    is the final ITP bracket of a scan (sign_change_zeros), or the bracket
    about an eigenvalue that classical_zeros evaluated.
    """

    zeros: list = field(default_factory=list)
    multiplicity_flags: list = field(default_factory=list)
    half_widths: list = field(default_factory=list)

    @property
    def count(self):
        return len(self.zeros)

    @property
    def crossings(self):
        """The zeros certified by a sign change (the unflagged ones)."""
        return [z for z, flag in zip(self.zeros, self.multiplicity_flags) if not flag]


def _wrap(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _unwrap(out, scalar):
    return float(out) if scalar else out


# points per block of an array evaluation: the working set of the Laguerre
# recurrence (at most 3 order + 4 rows), and of the jet arithmetic and
# residuals above it, then stays in cache
_BLOCK = 8192


def _blocks(size):
    """Slices of at most _BLOCK consecutive points covering range(size)."""
    return [slice(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK)]


def _sum_block(n, a, sign, x, scratch, out):
    """The value recurrence of L_n^a and its running sums on one block, in place.

    scratch[0] holds the step's t', scratch[1] one of the two value rows,
    which trade places every step: the value of degree n ends in out[0].
    With out of order + 1 rows, scratch[2 : order + 2] holds the sums
    S_j = L_k^(a + j), S_j <- S_j + S_(j-1) after each step with S_0 the
    value, and row j = n - k is copied out at degree k as (-sign)^j S_j.
    Each degree updates only the sums a later row still needs, so a step
    makes at most 5 + order array passes.  laguerre_jet calls it with the
    sums at a > -1, and at order 0 (one row, no sums) otherwise.
    """
    order = out.shape[0] - 1
    t, sums = scratch[0], scratch[2 : order + 2]
    prev, cur = (scratch[1], out[0]) if n % 2 else (out[0], scratch[1])
    minus = np.subtract if sign > 0 else np.add  # u, v -> u - sign v
    prev.fill(1.0)
    sums.fill(1.0)  # L_0^(a + j) = 1
    out[n + 1 :].fill(0.0)  # no derivatives beyond the degree
    if n <= order:
        out[n] = (-sign) ** n  # the n-th derivative, from degree 0
    if not n:
        return
    minus(a + 1.0, x, out=cur)
    for k in range(n):
        if k:
            minus(2.0 * k + a + 1.0, x, out=t)
            np.multiply(t, 1.0 / (k + 1.0), out=t)
            np.multiply(prev, -(k + a) / (k + 1.0), out=prev)
            np.multiply(t, cur, out=t)
            np.add(prev, t, out=prev)
            prev, cur = cur, prev
        # cur is the value of degree k + 1, and row j is due at this degree
        j, src = n - k - 1, cur
        for s in sums[: min(order, j)]:
            np.add(s, src, out=s)
            src = s
        if 0 < j <= order:
            np.multiply(src, (-sign) ** j, out=out[j])


def laguerre_jet(spec: LaguerreSpec, x, order):
    """(L, L', ..., L^(order)) of x -> L_n^alpha(sign x), from value recurrences.

    Every row is a value: d^j/dx^j L_n^alpha(sign x) = (-sign)^j
    L_{n-j}^(alpha+j)(sign x) (DLMF 18.9.23), zero for j > n.  A value
    comes from L_{k+1} = ((2k + alpha + 1 - sign x) L_k - (k + alpha)
    L_{k-1}) / (k + 1), evaluated as t' L_k - ((k + alpha)/(k + 1)) L_{k-1}
    with t' = (2k + alpha + 1 - sign x) * (1/(k + 1)): scalar coefficients
    and no array division.  The shifted values come one of two ways,
    chosen by alpha:

    - alpha > -1: L_k^(alpha+j) is the j-th running sum of the values of
      degree <= k, so order sums ride on the one value recurrence, at
      5 + order array passes a step.  On the classical range they keep
      1e-12 of max(1, |row|) against 40-digit sums.
    - alpha <= -1: near alpha = -k a running sum is far smaller than its
      terms and loses digits to cancellation, so row j runs its own value
      recurrence, of L_{n-j}^(alpha+j), bitwise (-sign)^j laguerre_eval of
      that spec.

    Array x is processed in place over blocks of _BLOCK points, so each
    step writes into buffers that stay in cache instead of allocating
    full-length temporaries; both ways use the same 2 order + 3 scratch
    rows.  Each point's arithmetic is the same whatever the block size, so
    a call on a long array equals, bit for bit, calls on its pieces; row j
    is the same whatever the order, so the value row equals laguerre_eval.

    Accepts scalar or ndarray x; returns a tuple of order + 1 floats or of
    arrays shaped like x.  There is no scalar fast path: a 0-d x runs the
    array kernel on one point, about 22 us at n = 2 on one Xeon core.
    """
    check_index(order, "order")
    arr, scalar = _wrap(x)
    n, a, sign = spec.n, spec.alpha, spec.sign
    flat = arr.reshape(-1)
    out = np.empty((order + 1, flat.size))
    # rows: the step's t', a second value row, and the running sums, in the
    # first order + 2; a scratch of just those rows was measured to make
    # glibc trim and refault its pages on every call, so it keeps the shape
    # 2 order + 3, whatever alpha
    scratch = np.empty((2 * order + 3, min(flat.size, _BLOCK)))
    for s in _blocks(flat.size):
        # the values land in the block of out, with no copy
        res, work = out[:, s], scratch[:, : s.stop - s.start]
        if a > -1.0:
            _sum_block(n, a, sign, flat[s], work, res)
        else:
            res[n + 1 :].fill(0.0)
            for j in range(min(order, n) + 1):
                _sum_block(n - j, a + j, sign, flat[s], work, res[j : j + 1])
                if j:
                    np.multiply(res[j], (-sign) ** j, out=res[j])
    if scalar:
        return tuple(float(v[0]) for v in out)
    return tuple(v.reshape(arr.shape) for v in out)


def laguerre_eval(spec: LaguerreSpec, x):
    """Evaluate L_n^alpha(sign x) by upward recurrence in the degree.

    Total function: finite output for any finite (alpha, x). Accepts scalar
    or ndarray x and returns the matching kind.  The order-0 case of
    laguerre_jet.
    """
    return laguerre_jet(spec, x, 0)[0]


def laguerre_deriv(spec: LaguerreSpec, x):
    """d/dx L_n^alpha(sign x), the first-order row of laguerre_jet."""
    return laguerre_jet(spec, x, 1)[1]


def laguerre_deriv2(spec: LaguerreSpec, x):
    """d^2/dx^2 L_n^alpha(sign x), the second-order row of laguerre_jet."""
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


def _jacobi_recurrence_degenerate(N, nu, mu):
    s = nu + mu
    for k in range(2, N + 1):
        if abs(k + s) < 1e-9 or abs(2.0 * k + s - 2.0) < 1e-9:
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


def jacobi_jet(spec: JacobiSpec, y, order):
    """(P, P', ..., P^(order)) of P_N^(nu,mu) at y, every row a value.

    d^j/dy^j P_N^(nu,mu) = prod_(i<=j) (N + nu + mu + i)/2 *
    P_{N-j}^(nu+j,mu+j) (DLMF 18.9.15), zero for j > N, with each shifted
    value from jacobi_eval.  The factor is the running product of
    0.5 (N + nu + mu + i): halving is exact, so it equals the product of
    the sums divided by 2^j.  Accepts scalar or ndarray y; returns a tuple
    of order + 1 floats or of arrays shaped like y.
    """
    check_index(order, "order")
    arr, scalar = _wrap(y)
    N, nu, mu = spec.N, spec.nu, spec.mu
    rows, fac = [jacobi_eval(spec, arr)], 1.0
    for j in range(1, order + 1):
        if j > N:
            rows.append(np.zeros_like(arr))
            continue
        fac *= 0.5 * (N + nu + mu + j)
        rows.append(fac * np.asarray(jacobi_eval(JacobiSpec(N - j, nu + j, mu + j), arr)))
    return tuple(_unwrap(r, scalar) for r in rows)


def jacobi_deriv(spec: JacobiSpec, y):
    """d/dy P_N^(nu,mu)(y), the first-order row of jacobi_jet."""
    return jacobi_jet(spec, y, 1)[1]


def jacobi_deriv2(spec: JacobiSpec, y):
    """d^2/dy^2 P_N^(nu,mu)(y), the second-order row of jacobi_jet."""
    return jacobi_jet(spec, y, 2)[2]


def jacobi_matrix(spec):
    """(diag, off) of a classical spec's orthonormal recurrence, or None.

    The orthonormal polynomials p_k of the spec's weight satisfy
    y p_k = off[k-1] p_{k-1} + diag[k] p_k + off[k] p_{k+1} (up to the sign
    of off) for k < n, n the degree, so diag and off have n entries each;
    the Jacobi matrix is tridiagonal with diagonal diag and off-diagonal
    off[:-1], and its eigenvalues (_eigenvalues) are the zeros of the spec
    in y, without its sign.  Laguerre, alpha > -1: diag[k] =
    2k + alpha + 1 and off[k-1] = sqrt(k (k + alpha)).  Jacobi P^(nu,mu),
    nu, mu > -1, the weight (1-y)^nu (1+y)^mu: the entries of Golub and
    Welsch, the square of the k = 1 off-diagonal written as
    4(1+nu)(1+mu)/(s^2 (s+1)), s = 2 + nu + mu, with the factor
    (1+nu+mu)/(s-1) cancelled, so that nu + mu = -1 computes no 0/0.
    None for anything else.
    """
    if isinstance(spec, LaguerreSpec) and spec.alpha > -1.0:
        k = np.arange(spec.n + 1.0)
        return 2.0 * k[:-1] + spec.alpha + 1.0, np.sqrt(k[1:] * (k[1:] + spec.alpha))
    if not (isinstance(spec, JacobiSpec) and spec.nu > -1.0 and spec.mu > -1.0):
        return None
    # the entries in a1 = 1 + nu and b1 = 1 + mu, which are exact as nu or
    # mu tends to -1, where the small entries would lose their digits to
    # 2 + nu + mu; t = k - 1 for the off-diagonal entry k = 1..n
    n, a, b = spec.N, spec.nu, spec.mu
    a1, b1 = 1.0 + a, 1.0 + b
    t = np.arange(float(n))
    s = 2.0 * t + a1 + b1  # 2k + nu + mu
    diag = np.concatenate((
        [(b - a) / (a1 + b1)], (b - a) * (a1 + b1 - 2.0) / (s[:-1] * (s[:-1] + 2.0))
    ))[:n]
    t, u = t[1:], s[1:]
    off2 = np.concatenate((
        4.0 * a1 * b1 / (s[:1] * s[:1] * (s[:1] + 1.0)),
        4.0 * (t + 1.0) * (t + a1) * (t + b1) * (t - 1.0 + a1 + b1)
        / (u * u * (u + 1.0) * (u - 1.0)),
    ))
    return diag, np.sqrt(off2)


def _eigenvalues(diag, off):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with
    diagonal diag and off-diagonal off[:-1] (jacobi_matrix's pair): the
    diagonal entry itself at size 1, else numpy's eigvalsh."""
    if diag.size == 1:
        return diag.copy()
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))


# a certifying bracket reaches at least _CERT_HALF_WIDTH, and at least
# _CERT_ULPS float spacings of its zero, on each side: the eigenvalues carry
# errors of a few eps times the norm of the matrix, a few spacings of the
# largest zero
_CERT_HALF_WIDTH = 5e-13
_CERT_ULPS = 8


def classical_zeros(spec, interval):
    """The zeros of a classical spec inside an open interval, or None.

    The zeros are the eigenvalues of jacobi_matrix (negated at sign -1).
    Each eigenvalue z gets the bracket [z - h, z + h], h =
    max(_CERT_HALF_WIDTH, _CERT_ULPS spacings of z).  The brackets must be
    disjoint, and neither end of the interval may fall inside one; those
    inside the interval are certified by one array call of the spec at
    their ends, each of which must see a strict sign change.  The report's
    half_widths are h and no zero is flagged.  None where the spec is not
    classical or the certificate fails; the caller then scans (real_zeros).
    A Laguerre spec at sign -1 has only negative zeros: on an interval with
    lo >= 0 the empty report comes back with no solve and no evaluation.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigurationError(f"invalid interval ({lo}, {hi})")
    laguerre = isinstance(spec, LaguerreSpec)
    if laguerre and spec.sign < 0 and spec.alpha > -1.0 and lo >= 0.0:
        return ZeroReport()
    rec = jacobi_matrix(spec)
    if rec is None:
        return None
    z = _eigenvalues(*rec)
    if laguerre and spec.sign < 0:
        z = -z[::-1]
    h = np.maximum(_CERT_HALF_WIDTH, _CERT_ULPS * np.spacing(np.abs(z)))
    # the bracket ends, ascending when the brackets are disjoint; an
    # interval end at an even position lies between brackets
    ends = np.stack((z - h, z + h), axis=1).reshape(-1)
    i, j = np.searchsorted(ends, (lo, hi))
    if i % 2 or j % 2 or not np.all(ends[1:] > ends[:-1]):
        return None
    if i == j:
        return ZeroReport()
    f = np.sign(spec.jet(ends[i:j], 0)[0])
    if not np.all(f[0::2] * f[1::2] < 0.0):
        return None
    z, h = z[i // 2 : j // 2], h[i // 2 : j // 2]
    return ZeroReport(zeros=z.tolist(), multiplicity_flags=[False] * z.size,
                      half_widths=h.tolist())


def sign_change_zeros(f, xs, fs, floor, bisect_tol):
    """Zeros of f on ascending samples xs, from its values fs there.

    A sample with |fs| <= floor has no sign: it is reported as a zero with
    its multiplicity flag set.  Each strict sign change between neighbouring
    samples is refined by ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020),
    all brackets together with one array call of f per step.  A step takes
    the regula-falsi point, truncates it toward the midpoint by
    kappa1 * width^2 (kappa1 = 0.2 / initial width, exponent 2), and projects
    it into the interval about the midpoint that keeps bisection's minmax
    bound with n0 = 1: a bracket takes at most one evaluation more than
    bisection, and superlinearly fewer on smooth f.  The bound's 2 eps is
    bisect_tol, or the float spacing at the bracket where that is wider.
    f should be finite on the brackets; at a non-finite value the step
    bisects, and numpy may warn.

    An exact zero collapses its bracket; a bracket stops at width
    bisect_tol, or once its midpoint is not strictly inside it (so
    bisect_tol = 0 ends at adjacent floats).  A crossing is the midpoint of
    its final bracket, and half_widths holds that bracket's half-width.
    With bisect_tol at least the sample spacing, f is not called and the
    sample brackets' midpoints are returned.
    """
    on_floor = np.abs(fs) <= floor
    sign = np.where(on_floor, 0.0, np.sign(fs))
    idx = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    lo, hi = xs[idx], xs[idx + 1]  # the final brackets, written as they finish
    w, mid, go = _refinable(lo, hi, bisect_tol)
    live = np.nonzero(go)[0]
    # each live bracket: its ends a, b and g = s f there, g(a) > 0 > g(b);
    # kappa1; and reach = eps 2^(n_max - j), the bisection bound of step j
    a, b, w, mid, s = lo[live], hi[live], w[live], mid[live], sign[idx[live]]
    ga, gb = s * fs[idx[live]], s * fs[idx[live] + 1]
    k1 = 0.2 / w
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    two_eps = np.maximum(bisect_tol, spacing)
    mant, expo = np.frexp(w / two_eps)
    # reach starts a little under two_eps 2^n_half, still at least w / 2, so
    # that rounding cannot carry the last width past bisect_tol
    reach = np.ldexp(two_eps - np.minimum(2.0 * spacing, 0.5 * bisect_tol),
                     expo - (mant == 0.5))
    while live.size:
        h = 0.5 - ga / (ga - gb)  # (midpoint - regula falsi point) / width
        step = np.maximum(np.minimum(w * (np.abs(h) - k1 * w), reach - 0.5 * w), 0.0)
        x = mid - np.copysign(step, h)
        x = np.where((a < x) & (x < b), x, mid)
        gx = s * np.asarray(f(x), dtype=float)
        # an exact zero collapses its bracket; otherwise keep the sign change
        # (a NaN moves a, so no step leaves its bracket as it was)
        move_a = ~(gx < 0.0)
        np.copyto(a, x, where=move_a)
        np.copyto(ga, gx, where=move_a)
        move_b = gx <= 0.0
        np.copyto(b, x, where=move_b)
        np.copyto(gb, gx, where=move_b)
        reach *= 0.5
        w, mid, go = _refinable(a, b, bisect_tol)
        if np.count_nonzero(go) < go.size:
            lo[live], hi[live] = a, b
            live, a, b, ga, gb, s, k1, reach, w, mid = (
                v[go] for v in (live, a, b, ga, gb, s, k1, reach, w, mid)
            )

    zeros = np.concatenate([xs[on_floor], 0.5 * (lo + hi)])
    order = np.argsort(zeros, kind="stable")
    n_floor = np.count_nonzero(on_floor)
    flags = order < n_floor
    return ZeroReport(
        zeros=zeros[order].tolist(),
        multiplicity_flags=flags.tolist(),
        half_widths=(0.5 * (hi - lo))[order[~flags] - n_floor].tolist(),
    )


def _refinable(a, b, tol):
    """(width, midpoint, refinable): wider than tol, midpoint strictly inside."""
    w, mid = b - a, 0.5 * (a + b)
    return w, mid, (w > tol) & (a < mid) & (mid < b)


def real_zeros(poly, interval, bisect_tol=1e-12, samples_per_degree=64):
    """Locate all real roots of a polynomial spec inside an open interval.

    sign_change_zeros on at least 64*(degree+1) samples, refined to 1e-12
    absolute (or to adjacent floats where those are wider apart).  A sample
    within 1e-13 of the largest sampled |value| is flagged in
    multiplicity_flags rather than treated as an error.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid interval ({lo}, {hi})")
    if not isinstance(poly, (LaguerreSpec, JacobiSpec)):
        raise ConfigurationError(f"expected LaguerreSpec or JacobiSpec, got {type(poly).__name__}")
    f = lambda x: poly.jet(x, 0)[0]
    xs = np.linspace(lo, hi, max(samples_per_degree * (poly.degree + 1), 128))
    fs = np.asarray(f(xs))
    floor = 1e-13 * max(np.max(np.abs(fs)), 1e-300)
    return sign_change_zeros(f, xs, fs, floor, bisect_tol)

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
allocates.  Each step is pre-scaled by 1/(k + 1): its scalar coefficients
-(k + alpha)/(k + 1) and j/(k + 1) and the row t' = ((2k + alpha + 1) - x)
* (1/(k + 1)) replace a division of every row, so a step of R jet rows
makes about 5R array passes, none of them a division.  A point's arithmetic
does not depend on the blocking or on the order asked for, so results are
bitwise independent of the block size and every row equals the same row of
a lower-order call.  laguerre_eval, laguerre_deriv and laguerre_deriv2 are
its rows.  Jacobi derivatives still use the parameter-shift identities.
_blocks, the slices of _BLOCK points, is the package's one block loop: every
jet above this kernel (catalog._jet_function) and
spectral.schrodinger_residual run over the same blocks, each bitwise as in
one pass.

sign_change_zeros, a sign scan whose brackets are refined together by ITP
(interpolate, truncate, project), is the package's one zero finder;
real_zeros applies it to a polynomial spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigurationError, check_index

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
    "sign_change_zeros",
    "real_zeros",
]


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and parameter of an associated Laguerre polynomial L_n^alpha.

    n is a nonnegative integer (see errors.check_index); alpha may be any
    real number, including alpha <= -1.
    """

    n: int
    alpha: float

    def __post_init__(self):
        check_index(self.n, "degree")

    @property
    def degree(self):
        return self.n


@dataclass(frozen=True)
class JacobiSpec:
    """Degree and parameters of a Jacobi polynomial P_N^(nu,mu).

    N is a nonnegative integer (see errors.check_index); nu and mu may be
    any reals; the degenerate recurrence cases
    (nu + mu a nonpositive integer >= -2N) are handled by series evaluation.
    """

    N: int
    nu: float
    mu: float

    def __post_init__(self):
        check_index(self.N, "degree")

    @property
    def degree(self):
        return self.N


@dataclass
class ZeroReport:
    """Real roots found in an interval, sorted ascending.

    multiplicity_flags[i] is True when zeros[i] is a scan sample whose value
    lay within the floor, so no sign change certifies it.  half_widths[i] is
    the half-width of the final bracket of crossings[i]: a sign change of f
    lies within that distance of it, its certified error.
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
# recurrence (two jets of order + 1 rows plus scratch rows), and of the jet
# arithmetic and residuals above it, then stays in cache
_BLOCK = 8192


def _blocks(size):
    """Slices of at most _BLOCK consecutive points covering range(size)."""
    return [slice(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK)]


def _jet_block(n, a, x, prev, cur, t, w):
    """The differentiated recurrence on one block, in place.

    prev and cur hold the jets of degrees k - 1 and k and trade places every
    step; the jet of degree n ends in prev when n is even, in cur when odd.
    A step is the recurrence pre-scaled by 1/(k + 1), so that no array is
    divided: with t' = ((2k + alpha + 1) - x) * (1/(k + 1)),
    prev <- -((k + alpha)/(k + 1)) prev + t' cur - (j/(k + 1)) cur_(j-1),
    about 5 passes over the rows and two over t.
    """
    order = prev.shape[0] - 1
    # degrees 0 and 1: L_0 = 1, L_1 = alpha + 1 - x, L_1' = -1
    # only the rows past each jet's nonzero derivatives need the zeros
    prev[0] = 1.0
    prev[1:].fill(0.0)
    np.subtract(a + 1.0, x, out=cur[0])
    if order:
        cur[1] = -1.0
    cur[2:].fill(0.0)
    j = np.arange(1.0, order + 1.0)[:, None]
    for k in range(1, n):
        # a degree-(k+1) polynomial has no derivatives beyond order k+1
        rows = min(order, k + 1) + 1
        p, c, u = prev[:rows], cur[:rows], w[:rows]
        np.subtract(2.0 * k + a + 1.0, x, out=t)
        np.multiply(t, 1.0 / (k + 1.0), out=t)
        np.multiply(p, -(k + a) / (k + 1.0), out=p)
        np.multiply(t, c, out=u)
        np.add(p, u, out=p)
        if rows > 1:
            np.multiply(c[:-1], j[: rows - 1] / (k + 1.0), out=u[1:])
            np.subtract(p[1:], u[1:], out=p[1:])
        prev, cur = cur, prev


def laguerre_jet(spec: LaguerreSpec, x, order):
    """(L, L', ..., L^(order)) of L_n^alpha at x, from one recurrence.

    Differentiating L_{k+1} = ((2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1})
    / (k + 1) j times gives the same recurrence for the j-th derivatives,
    with the extra term -j L_k^(j-1) in the numerator.  One upward pass in
    the degree therefore carries the value and every derivative, with no
    parameter shift.  The step is evaluated as t' L_k^(j)
    - ((k + alpha)/(k + 1)) L_{k-1}^(j) - (j/(k + 1)) L_k^(j-1) with
    t' = (2k + alpha + 1 - x) * (1/(k + 1)): scalar coefficients and no
    array division (see _jet_block).  Array x is processed in place over
    blocks of _BLOCK points, so each step writes into buffers that stay in
    cache instead of allocating full-length temporaries.  Each point's
    arithmetic is the same whatever the block size, so a call on a long
    array equals, bit for bit, calls on its pieces; row j is the same
    whatever the order, so the value row equals laguerre_eval.

    Accepts scalar or ndarray x; returns a tuple of order + 1 floats or of
    arrays shaped like x.  There is no scalar fast path: a 0-d x runs the
    array kernel on one point, about 22 us at n = 2 on one Xeon core.
    """
    check_index(order, "order")
    arr, scalar = _wrap(x)
    n, a = spec.n, spec.alpha
    flat = arr.reshape(-1)
    out = np.empty((order + 1, flat.size))
    size = min(flat.size, _BLOCK)
    # rows: the step's (2k + alpha + 1 - x), a second jet, products
    scratch = np.empty((2 * order + 3, size))
    for s in _blocks(flat.size):
        m = s.stop - s.start
        res, other = out[:, s], scratch[1 : order + 2, :m]
        # the degree-n jet lands in the block of out, with no copy
        prev, cur = (other, res) if n % 2 else (res, other)
        _jet_block(n, a, flat[s], prev, cur, scratch[0, :m], scratch[order + 2 :, :m])
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
    evaluate = {LaguerreSpec: laguerre_eval, JacobiSpec: jacobi_eval}.get(type(poly))
    if evaluate is None:
        raise ConfigurationError(f"expected LaguerreSpec or JacobiSpec, got {type(poly).__name__}")
    f = partial(evaluate, poly)
    xs = np.linspace(lo, hi, max(samples_per_degree * (poly.degree + 1), 128))
    fs = np.asarray(f(xs))
    floor = 1e-13 * max(np.max(np.abs(fs)), 1e-300)
    return sign_change_zeros(f, xs, fs, floor, bisect_tol)
